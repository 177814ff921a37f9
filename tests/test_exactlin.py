import ast
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from hccourant.algebra import (GUARD_MAX_DIM, AlgebraError, FiniteAlgebra,
                               GuardError, check_guard)
from hccourant.dirac import DiracVerdict
from hccourant.exactlin import (Q, ExactLinError, QMatrix, Span, bilinear,
                                canonical_row, combine, contract, dense,
                                make_reducer, membership, nullspace,
                                pullback, pushforward, quotient_basis, rank,
                                rat, rat_str, row_combination, row_space,
                                rref, rref_transform, sparse, sparse_table,
                                vec)
from hccourant.files import BUNDLED_ALGEBRAS, load_algebra_ref
from hccourant.hochschild import Chain, HochschildError, homology
from hccourant.morita import OppositeReport
from conftest import is_canonical_table, is_number

rationals = st.builds(
    lambda p, q: Q(p) / Q(q),
    st.integers(-30, 30), st.integers(1, 7))


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(rationals, min_size=c, max_size=c),
            min_size=1, max_size=max_rows).map(lambda rows: QMatrix(rows)))


def test_rat_parsing_roundtrip():
    assert rat("3/4") == Q(3) / 4
    assert rat("-7") == Q(-7)
    assert rat_str(Q(-3) / 5) == "-3/5"
    assert rat_str(Q(4)) == "4"
    with pytest.raises(ExactLinError):
        rat("1.5x")


@pytest.mark.parametrize("text", ("7", "-3/2", "6/3"))
def test_rat_accepts_the_integer_and_fraction_forms(text):
    assert rat(text) == Fraction(text)


@pytest.mark.parametrize("text", (
    "1e3", "0.5", "1_000", " 3/4", "\u0663", "3/-2", "--3", "", "-", "3/",
    "1e10000000", "1" * 1001))
def test_rat_refuses_every_other_string(text):
    """``Q`` alone would read decimals, exponents, underscores, spaces and
    non-ASCII digits; ``"1e10000000"`` would build a 33-million-bit
    integer."""
    with pytest.raises(ExactLinError, match="not a rational"):
        rat(text)


def test_rref_known_matrix():
    M = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    R, pivots, rk = rref(M)
    assert rk == 2
    assert pivots == (0, 1)
    assert R[0] == (Q(1), Q(0), Q(1))
    assert R[1] == (Q(0), Q(1), Q(1))


def test_nullspace_known():
    M = QMatrix([[1, 2, 3], [0, 1, 1]])
    N = nullspace(M)
    assert N.rows == 1
    x = N[0]
    assert x[0] + 2 * x[1] + 3 * x[2] == 0
    assert x[1] + x[2] == 0
    # free variable normalized to 1
    assert 1 in x


def test_membership_and_span():
    S = QMatrix([[1, 0, 1], [0, 1, 1]])
    c = membership((2, 3, 5), S)
    assert c == (Q(2), Q(3))
    assert membership((0, 0, 1), S) is None
    assert membership((1, 1, 2), S) is not None
    assert membership((1, 1, 3), S) is None
    in_S = Span(S).contains
    assert in_S((2, 3, 5)) and in_S((1, 1, 2)) and in_S((0, 0, 0))
    assert not in_S((0, 0, 1)) and not in_S((1, 1, 3))


def test_quotient_basis_reduces_subspace_to_zero():
    space = QMatrix.identity(3)
    sub = QMatrix([[1, 1, 0]], cols=3)
    reps, reduce = quotient_basis(space, Span(sub))
    assert reps.rows == 2
    assert all(x == 0 for x in reduce((1, 1, 0)))
    assert any(x != 0 for x in reduce((1, 0, 0)))


def test_make_reducer_rejects_outside_span():
    B = QMatrix([[1, 0, 0]], cols=3)
    red = make_reducer(B)
    assert red((5, 0, 0)) == (Q(5),)
    with pytest.raises(ExactLinError):
        red((0, 1, 0))


def test_quotient_basis_rejects_bad_subspace():
    space = QMatrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ExactLinError, match="not contained"):
        quotient_basis(space, Span(QMatrix([[0, 1, 1]])))
    with pytest.raises(ExactLinError, match="column mismatch"):
        quotient_basis(space, Span(QMatrix([[1, 0]])))


def test_make_reducer_rejects_dependent_rows():
    with pytest.raises(ExactLinError, match="dependent"):
        make_reducer(QMatrix([[1, 2, 0], [0, 1, 1], [1, 3, 1]]))


def test_membership_solver_rejects_wrong_length():
    S = QMatrix([[1, 0, 1], [0, 1, 1]])
    solve = Span(S, tagged=True)
    assert solve((1, 1, 2)) == (Q(1), Q(1))
    for v in ((1, 1), (1, 1, 2, 0)):
        with pytest.raises(ExactLinError, match="dimension mismatch"):
            solve(v)
        with pytest.raises(ExactLinError, match="dimension mismatch"):
            membership(v, S)
        with pytest.raises(ExactLinError, match="dimension mismatch"):
            Span(S).contains(v)


def test_empty_matrix_needs_cols():
    with pytest.raises(ExactLinError):
        QMatrix([])
    M = QMatrix([], cols=4)
    assert M.rows == 0 and M.cols == 4
    assert rank(M) == 0
    assert nullspace(M).rows == 4


def test_vec_and_qmatrix_hold_only_rationals():
    inputs = [3, "2/5", True, Q(-7) / 3]
    expected = (Q(3), Q(2) / 5, Q(1), Q(-7) / 3)
    v = vec(inputs)
    assert v == expected and all(is_number(x) for x in v)
    M = QMatrix([inputs, inputs[::-1]])
    assert M[0] == expected
    assert all(is_number(x) for row in M for x in row)
    # outputs built from rationals keep the number form
    for out in (rref(M)[0], rref_transform(M)[1], M.transpose(),
                row_space(M), nullspace(M)):
        assert all(is_number(x) for row in out for x in row)
    with pytest.raises(ExactLinError):
        QMatrix([[1, 2], [3]])
    with pytest.raises(ExactLinError):
        QMatrix([[1, 2]], cols=3)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(M):
    assert rank(M) + nullspace(M).rows == M.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_vectors_annihilate(M):
    for x in nullspace(M):
        for row in M:
            assert sum(a * b for a, b in zip(row, x)) == 0


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(rationals, min_size=5, max_size=5))
def test_membership_reconstruction(M, coeffs):
    v = [Q(0)] * M.cols
    for c, row in zip(coeffs, M):
        for k, x in enumerate(row):
            v[k] += c * x
    c = membership(tuple(v), M)
    assert c is not None
    assert Span(M).contains(tuple(v))
    assert Span(M).contains(sparse(vec(v)))
    rebuilt = [Q(0)] * M.cols
    for ci, row in zip(c, M):
        for k, x in enumerate(row):
            rebuilt[k] += ci * x
    assert tuple(rebuilt) == tuple(v)


def _fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def reference_rref(M: QMatrix):
    """Textbook Gauss-Jordan on lists of ``Fraction``s."""
    return _gauss_jordan([[_fraction(x) for x in row] for row in M], M.cols)


def _gauss_jordan(R: list, cols: int):
    """``(R, pivots, rank)`` for R, a list of rows of ``Fraction``s, brought
    to reduced row echelon form in place."""
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, tuple(pivots), r


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=7, max_cols=7))
def test_rref_matches_reference_gauss_jordan(M):
    R, pivots, rk = rref(M)
    ref_R, ref_pivots, ref_rk = reference_rref(M)
    assert [[_fraction(x) for x in row] for row in R] == ref_R
    assert pivots == ref_pivots
    assert rk == ref_rk


def _with_dependent_rows(M: QMatrix, picks) -> QMatrix:
    """M with row i + f * row j inserted at position j for each (i, j, f),
    often ahead of the rows it combines, and a zero row at the end."""
    rows = list(M)
    for i, j, f in picks:
        dep = tuple(a + f * b for a, b in zip(M[i % M.rows], M[j % M.rows]))
        rows.insert(j % len(rows), dep)
    return QMatrix(rows + [(Q(0),) * M.cols], cols=M.cols)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                      st.integers(-2, 2)), max_size=3))
def test_rref_transform_matches_rref(M, picks):
    M = _with_dependent_rows(M, picks)
    R, T, pivots, rk = rref_transform(M)
    assert (R, pivots, rk) == rref(M)
    assert T.rows == T.cols == M.rows
    assert tuple(R) == tuple(_combination(t, M) for t in T)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_row_space_spans_the_rows(M):
    assert row_space(row_space(M)) == row_space(M)


# ---------------------------------------------------------------------------
# quotient_basis against the stack-and-re-eliminate loop it replaced

def _stack(A: QMatrix, B: QMatrix) -> QMatrix:
    return QMatrix(A.data + B.data, cols=A.cols)


def reference_quotient_basis(space: QMatrix, subspace: QMatrix):
    """One membership test per space-basis row against a re-stacked
    echelon; the loop quotient_basis ran before its incremental echelon."""
    if any(membership(row, space) is None for row in subspace):
        raise ExactLinError("quotient_basis: subspace not contained in space")
    Rsub = row_space(subspace)
    Rsp = row_space(space)
    kept = []
    echelon = QMatrix(Rsub.data, cols=space.cols)
    for row in Rsp.data:
        if membership(row, echelon) is None:
            kept.append(row)
            echelon = _stack(echelon, QMatrix([row], cols=space.cols))
    reps = QMatrix(kept, cols=space.cols)
    nreps = reps.rows
    if nreps + Rsub.rows == 0:
        def reduce_zero(v):
            if not all(x == 0 for x in vec(v)):
                raise ExactLinError("reduce: vector outside the span")
            return ()
        return reps, reduce_zero
    coords = make_reducer(_stack(reps, Rsub) if nreps else Rsub)
    return reps, lambda v: coords(v)[:nreps]


def _combination(coeffs, M: QMatrix) -> tuple:
    out = [Q(0)] * M.cols
    for c, row in zip(coeffs, M):
        for k, x in enumerate(row):
            out[k] += c * x
    return tuple(out)



@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=6, max_cols=6),
       st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                max_size=4),
       st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                min_size=1, max_size=3))
def test_quotient_basis_matches_reference(space, sub_coeffs, probe_coeffs):
    subspace = QMatrix([_combination(c, space) for c in sub_coeffs],
                       cols=space.cols)
    probes = list(space) + list(subspace) + [
        _combination(c, space) for c in probe_coeffs]
    reps, reduce = quotient_basis(space, Span(subspace))
    ref_reps, ref_reduce = reference_quotient_basis(space, subspace)
    assert reps == ref_reps
    for v in probes:
        assert reduce(v) == ref_reduce(v)


def _guarded_degrees(A):
    """Degrees n that homology(A, n) accepts under the default guards."""
    out = []
    for n in sorted(GUARD_MAX_DIM):
        try:
            check_guard(A.dim, n)
            check_guard(A.dim, n + 1)
        except GuardError:
            continue
        out.append(n)
    return out


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_homology_quotients_match_reference(name, algebras):
    A = algebras[name]
    degrees = _guarded_degrees(A)
    assert degrees
    rng = random.Random(name)
    for n in degrees:
        pres = homology(A, n)
        Z, B = pres.cycle_basis, pres.boundary_basis
        probes = list(Z)[:8] + list(B)[:8] + [
            _combination([rng.randint(-3, 3) for _ in range(Z.rows)], Z)
            for _ in range(4)]
        reps, reduce = reference_quotient_basis(Z, B)
        assert pres.class_reps == reps
        for v in probes:
            assert pres.reduce(v) == reduce(v)


# ---------------------------------------------------------------------------
# the sparse bilinear contraction against a dense reference

def _dense_bilinear(u, v, table, dim):
    """sum_ijk u_i v_j table[i][j][k] e_k over every cell, zeros included."""
    out = [Q(0)] * dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            for k, t in enumerate(table[i][j]):
                out[k] += ui * vj * t
    return tuple(out)


# zeros are drawn often, so tables hold zero entries, zero cells and zero
# rows, and u, v are often zero in places or everywhere
_sparse_rationals = st.one_of(st.just(Q(0)), st.just(Q(0)), rationals)


def _vectors(n):
    return st.one_of(st.just((Q(0),) * n),
                     st.lists(_sparse_rationals, min_size=n, max_size=n)
                     .map(tuple))


@st.composite
def _contractions(draw):
    m, n, dim = (draw(st.integers(0, 4)), draw(st.integers(0, 4)),
                 draw(st.integers(0, 4)))
    table = [[draw(_vectors(dim)) for _ in range(n)] for _ in range(m)]
    return draw(_vectors(m)), draw(_vectors(n)), table, dim


@settings(max_examples=150, deadline=None)
@given(_contractions())
# two terms on one output entry: a sum, not the last term
@example(((Q(1), Q(1)), (Q(1),), [[(Q(1),)], [(Q(2),)]], 1))
def test_bilinear_matches_dense_contraction(case):
    u, v, table, dim = case
    sparse = sparse_table(table)
    assert is_canonical_table(sparse, len(table), len(v), dim)
    out = bilinear(u, v, sparse, dim)
    assert out == _dense_bilinear(u, v, table, dim)
    assert all(is_number(x) for x in out)


@settings(max_examples=150, deadline=None)
@given(_contractions())
@example(((Q(1), Q(1)), (Q(1),), [[(Q(1),)], [(Q(-1),)]], 1))
def test_contract_is_canonical_and_matches_bilinear(case):
    """The sparse kernel on sparse rows: a canonical sparse row (ascending,
    no zeros, every entry in the number form), equal to the dense reference
    and to ``sparse(bilinear(...))``; the example cancels to the empty
    row."""
    u, v, table, dim = case
    T = sparse_table(table)
    out = contract(sparse(u), sparse(v), T)
    ks = [k for k, _ in out]
    assert ks == sorted(set(ks)) and all(0 <= k < dim for k in ks)
    assert all(x != 0 and is_number(x) for _, x in out)
    assert out == sparse(_dense_bilinear(u, v, table, dim))
    assert out == sparse(bilinear(u, v, T, dim))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    _vectors(n), st.lists(_vectors(3), min_size=n, max_size=n))),
    st.randoms(use_true_random=False))
def test_combine_is_canonical_in_any_coefficient_order(case, rnd):
    c, rows = case
    M = QMatrix(rows, cols=3)
    ref = tuple(sum((ci * r[k] for ci, r in zip(c, rows)), Q(0))
                for k in range(3))
    pairs = list(sparse(c))
    rnd.shuffle(pairs)
    out = combine(pairs, M)
    assert out == sparse(ref) and all(is_number(x) for _, x in out)
    assert row_combination(c, M) == ref


@st.composite
def _tables_and_maps(draw):
    """(table, left, right, M, dim): a dense m x n table of length-dim
    cells, matrices with m and n columns to read it on, and a map M of the
    cell space, often not injective (zero rows are drawn often, and M may
    have more rows than columns)."""
    m, n, dim, out = (draw(st.integers(0, 4)) for _ in range(4))
    table = [[draw(_vectors(dim)) for _ in range(n)] for _ in range(m)]
    left, right = (QMatrix([draw(_vectors(c)) for _ in
                            range(draw(st.integers(0, 3)))], cols=c)
                   for c in (m, n))
    M = QMatrix([draw(_vectors(out)) for _ in range(dim)], cols=out)
    return table, left, right, M, dim


@settings(max_examples=150, deadline=None)
@given(_tables_and_maps())
def test_pullback_and_pushforward_match_their_definitions(case):
    table, left, right, M, dim = case
    sparse = sparse_table(table)
    pulled = pullback(sparse, left, right)
    assert pulled == sparse_table(
        [[bilinear(u, v, sparse, dim) for v in right] for u in left])
    assert is_canonical_table(pulled, left.rows, right.rows, dim)
    pushed = pushforward(sparse, M)
    assert pushed == sparse_table(
        [[row_combination(cell, M) for cell in row] for row in table])
    assert is_canonical_table(pushed, len(table), right.cols, M.cols)


def test_pushforward_drops_the_cells_a_singular_map_kills():
    # M kills e_0 and sends e_1, e_2 to the same vector
    M = QMatrix([(0, 0), (1, 2), (1, 2)])
    table = sparse_table([[(5, 0, 0), (0, 1, -1)], [(0, 1, 0), (0, 0, 0)]])
    pushed = pushforward(table, M)
    # both cells of row 0 map to zero; cell (1, 0) maps to e_1 -> (1, 2)
    assert pushed == ((), ((0, ((0, Q(1)), (1, Q(2)))),))
    assert is_canonical_table(pushed, 2, 2, 2)


# ---------------------------------------------------------------------------
# the sparse row form against dense rows

@st.composite
def _dense_rows(draw):
    """(rows, cols): dense rows with zero entries and zero rows drawn
    often, and empty matrices (no rows, or no columns)."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    row = st.one_of(st.just((Q(0),) * n),
                    st.lists(_sparse_rationals, min_size=n, max_size=n)
                    .map(tuple))
    return [draw(row) for _ in range(m)], n


def _is_canonical_row(row, cols) -> bool:
    ks = [k for k, _ in row]
    return (all(is_number(x) and x != 0 for _, x in row)
            and all(0 <= k < cols for k in ks)
            and all(a < b for a, b in zip(ks, ks[1:])))


@settings(max_examples=150, deadline=None)
@given(_dense_rows())
def test_sparse_rows_match_dense_reference(case):
    rows, n = case
    M = QMatrix(rows, cols=n)
    # the same rows in sparse form, and as pairs that keep their zeros
    S = QMatrix([tuple((k, x) for k, x in enumerate(r) if x) for r in rows],
                cols=n)
    Z = QMatrix([tuple(enumerate(r)) for r in rows], cols=n)
    assert M == S == Z and hash(M) == hash(S)
    assert (M.rows, M.cols) == (len(rows), n)
    assert M.data == tuple(M) == tuple(rows)
    assert all(M[i] == r for i, r in enumerate(rows))
    T = M.transpose()
    assert (T.rows, T.cols) == (n, len(rows))
    assert T.data == tuple(zip(*rows) if rows else ((),) * n)
    assert T.transpose() == M
    for out in (M, T, row_space(M), nullspace(M), rref(M)[0]):
        assert all(_is_canonical_row(r, out.cols) for r in out.sparse_rows)


def test_from_sums_rows_are_the_constructors():
    """``QMatrix.from_sums`` reads a dict keyed by row cols + column into
    the rows the checking constructor makes: zeros and absent keys are zero
    entries, and a sum that came out integral is an int."""
    sums = {0 * 4 + 3: Q(1, 2) + Q(1, 2), 0 * 4 + 1: Q(2, 3), 2 * 4 + 0: 5,
            2 * 4 + 2: 0, 3 * 4 + 3: Q(-1, 4)}
    M = QMatrix.from_sums(sums, 4, 4)
    dense = [[0] * 4 for _ in range(4)]
    for key, x in sums.items():
        dense[key // 4][key % 4] = x
    assert M == QMatrix(dense) and M.sparse_rows == QMatrix(dense).sparse_rows
    assert all(_is_canonical_row(r, M.cols) for r in M.sparse_rows)
    assert M.sparse_rows[0] == ((1, Q(2, 3)), (3, 1))
    assert type(M.sparse_rows[0][1][1]) is int
    assert QMatrix.from_sums({}, 2, 3) == QMatrix([(), ()], cols=3)


def _dense_row_combination(c, rows, n):
    """sum_i c_i rows[i] over every entry, zeros included."""
    out = [Q(0)] * n
    for ci, row in zip(c, rows):
        for k, x in enumerate(row):
            out[k] += ci * x
    return tuple(out)


@st.composite
def _combinations(draw):
    """(c, rows, cols): rational or integer coefficients, zeros drawn often;
    the rows are followed by their negatives half the time, so that sums
    cancel."""
    rows, n = draw(_dense_rows())
    if draw(st.booleans()):
        rows = rows + [tuple(-x for x in r) for r in rows]
    m = len(rows)
    c = draw(st.one_of(
        _vectors(m), st.lists(st.integers(-2, 2), min_size=m, max_size=m)))
    return c, rows, n


@settings(max_examples=150, deadline=None)
@given(_combinations())
@example(((Q(1), Q(1)), [(Q(1),), (Q(2),)], 1))
def test_row_combination_matches_dense_reference(case):
    c, rows, n = case
    out = row_combination(c, QMatrix(rows, cols=n))
    assert out == _dense_row_combination(c, rows, n)
    assert all(is_number(x) for x in out)
    with pytest.raises(ExactLinError, match="dimension mismatch"):
        row_combination(tuple(c) + (Q(1),), QMatrix(rows, cols=n))


def test_sparse_rows_are_validated():
    assert QMatrix([((2, 1),), ()], cols=3)[0] == (Q(0), Q(0), Q(1))
    for bad in ([((1, 1), (0, 1))], [((1, 1), (1, 2))], [((3, 1),)],
                [((-1, 1),)], [((0.0, 1),)]):
        with pytest.raises(ExactLinError, match="ascend"):
            QMatrix(bad, cols=3)
    with pytest.raises(ExactLinError, match="explicit cols"):
        QMatrix([((0, 1),)])


# ---------------------------------------------------------------------------
# the number form: an int when integral, else a Q with denominator > 1

# what a caller may hand in: ints, bools, integral Qs like Q(4, 2) and
# non-integral Qs; strings "p/q" too wherever a value is coerced (``vec``,
# ``canonical_row``, the QMatrix constructor), but not to the arithmetic
_raw_numbers = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3), st.booleans(),
    st.builds(lambda p, k: Q(p * k, k), st.integers(-3, 3),
              st.integers(1, 3)),
    st.builds(Q, st.integers(-5, 5), st.integers(2, 4)))
_mixed_numbers = st.one_of(_raw_numbers, st.builds(
    "{}/{}".format, st.integers(-6, 6), st.integers(1, 3)))


def _ref(x) -> Fraction:
    """The textbook value of a mixed input."""
    return Fraction(x) if isinstance(x, (int, str)) else _fraction(x)


def _dense_ref(v) -> list:
    return [_ref(x) for x in v]


def _ref_rows(M: QMatrix) -> list:
    return [_dense_ref(row) for row in M]


def _in_number_form(values) -> bool:
    """Every value an int or a non-integral Q: no float, bool or Q(4, 2)."""
    return all(is_number(x) for x in values)


def _row_values(row) -> list:
    return [x for _, x in row]


def _table_values(table) -> list:
    return [t for row in table for _, cell in row for _, t in cell]


def _ref_combine(c, rows, n) -> list:
    out = [Fraction(0)] * n
    for ci, row in zip(c, rows):
        for k, x in enumerate(row):
            out[k] += ci * x
    return out


def _ref_bilinear(u, v, table, dim) -> list:
    return [sum((a * b * t[k] for a, row in zip(u, table)
                 for b, t in zip(v, row)), Fraction(0)) for k in range(dim)]


def _ref_rank(rows, n) -> int:
    return _gauss_jordan([list(r) for r in rows], n)[2]


@st.composite
def _mixed_systems(draw):
    """A matrix of mixed entries with m rows and n columns, a subspace of
    its row span (integer combinations), sparse rows u, v and c of raw
    numbers, an m x n table of length-dim cells, a matrix L with m columns
    and a map P of the cell space."""
    m, n, dim = (draw(st.integers(0, 4)), draw(st.integers(0, 4)),
                 draw(st.integers(0, 3)))

    def rows(count, length, values=_mixed_numbers):
        return [[draw(values) for _ in range(length)] for _ in range(count)]

    return {"rows": rows(m, n), "n": n, "dim": dim,
            "sub": rows(draw(st.integers(0, 3)), m, st.integers(-2, 2)),
            "u": rows(1, m, _raw_numbers)[0],
            "v": rows(1, n, _raw_numbers)[0],
            "c": rows(1, m, _raw_numbers)[0],
            "table": [rows(n, dim, _raw_numbers) for _ in range(m)],
            "left": rows(draw(st.integers(0, 3)), m),
            "P": rows(dim, draw(st.integers(0, 3)))}


@settings(max_examples=150, deadline=None)
@given(_mixed_systems())
@example({"rows": [[4, True, "6/3"], [Q(4, 2), Q(1, 2), "-3/2"]], "n": 3,
          "dim": 1, "sub": [[2, 0]], "u": [Q(2, 2), Q(1, 2)],
          "v": [True, Q(1, 2), 2], "c": [2, Q(1, 2)],
          "table": [[[Q(4, 2)], [Q(1, 2)], [1]], [[Q(3, 2)], [2], [0]]],
          "left": [[Q(1, 2), "1/2"]], "P": [[Q(2, 1), "1/2"]]})
def test_number_form_holds_on_mixed_inputs(case):
    """Ints, bools, "p/q" strings, integral and non-integral Qs in; every
    output of the coercions, the contractions and the eliminations is in
    the number form, holds no float and equals the ``Fraction`` reference."""
    rows, n, dim = case["rows"], case["n"], case["dim"]
    refs = [_dense_ref(r) for r in rows]
    # coercion: vec, canonical_row and the constructor
    for r, ref in zip(rows, refs):
        assert vec(r) == tuple(ref) and _in_number_form(vec(r))
        out = canonical_row(r, n)
        assert out == sparse(ref) and _in_number_form(_row_values(out))
    M = QMatrix(rows, cols=n)
    assert _ref_rows(M) == refs
    # the contractions
    T = sparse_table(case["table"])
    ref_T = [[_dense_ref(cell) for cell in row] for row in case["table"]]
    u, v, c = (sparse(case[k]) for k in "uvc")
    out = contract(u, v, T)
    assert out == sparse(_ref_bilinear(_dense_ref(case["u"]),
                                       _dense_ref(case["v"]), ref_T, dim))
    assert _in_number_form(_row_values(out))
    out = combine(c, M)
    assert out == sparse(_ref_combine(_dense_ref(case["c"]), refs, n))
    assert _in_number_form(_row_values(out))
    L = QMatrix(case["left"], cols=len(rows))
    pulled = pullback(T, L, M)
    assert pulled == sparse_table([[_ref_bilinear(left, right, ref_T, dim)
                                    for right in refs] for left in _ref_rows(L)])
    assert _in_number_form(_table_values(pulled))
    P = QMatrix(case["P"], cols=len(case["P"][0]) if case["P"] else 0)
    pushed = pushforward(T, P)
    assert pushed == sparse_table([[_ref_combine(cell, _ref_rows(P), P.cols)
                                    for cell in row] for row in ref_T])
    assert _in_number_form(_table_values(pushed))
    # the eliminations
    R, pivots, rk = _gauss_jordan([list(r) for r in refs], n)
    space = row_space(M)
    assert _ref_rows(space) == R[:rk]
    assert _in_number_form(x for row in space for x in row)
    free = [k for k in range(n) if k not in pivots]
    null = nullspace(M)
    assert _ref_rows(null) == [
        [Fraction(k == f) if k not in pivots else -R[pivots.index(k)][f]
         for k in range(n)] for f in free]
    assert _in_number_form(x for row in null for x in row)
    sub = QMatrix([_ref_combine(s, refs, n) for s in case["sub"]], cols=n)
    reps, reduce = quotient_basis(M, Span(sub))
    assert _in_number_form(x for row in reps for x in row)
    sub_refs = _ref_rows(sub)
    kept = []
    for row in R[:rk]:
        if _ref_rank(sub_refs + kept + [row], n) > _ref_rank(
                sub_refs + kept, n):
            kept.append(row)
    assert _ref_rows(reps) == kept
    for probe in refs + sub_refs:
        coords = reduce(probe)
        assert _in_number_form(coords)
        residual = [a - b for a, b in zip(probe, _ref_combine(
            _dense_ref(coords), kept, n))]
        assert _ref_rank(sub_refs + [residual], n) == _ref_rank(sub_refs, n)


# ---------------------------------------------------------------------------
# the fraction-free echelon against textbook Gauss-Jordan on Fractions

def _ref_eliminate(rows: list, cols: int):
    """``(R, T, pivots)`` of textbook Gauss-Jordan on [rows | I]: R the
    nonzero rows of the RREF of rows (lists of Fractions) and T the
    matching rows of the transform, T . rows = R."""
    m = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(m)]
           for i, r in enumerate(rows)]
    full, pivots, rk = _gauss_jordan(aug, cols + m)
    pivots = tuple(p for p in pivots if p < cols)
    return ([r[:cols] for r in full[:len(pivots)]],
            [r[cols:] for r in full[:len(pivots)]], pivots)


def _ref_reduce(R: list, pivots: tuple, v: list) -> list:
    """v less sum_p v[p] R_p over the RREF rows R: its residual against
    the span, the one vector congruent to v that is 0 at every pivot."""
    v = list(v)
    for r, p in zip(R, pivots):
        f = v[p]
        if f:
            v = [a - f * b for a, b in zip(v, r)]
    return v


def _ref_solve(rows: list, cols: int, v: list):
    """c with c . rows = v for linearly independent rows, else None when v
    is outside their span."""
    R, T, pivots = _ref_eliminate(rows, cols)
    if any(_ref_reduce(R, pivots, v)):
        return None
    c = [Fraction(0)] * len(rows)
    for t, p in zip(T, pivots):
        c = [a + v[p] * b for a, b in zip(c, t)]
    return c


def _ref_nullspace(R: list, pivots: tuple, cols: int) -> list:
    free = [c for c in range(cols) if c not in pivots]
    out = []
    for fc in free:
        x = [Fraction(0)] * cols
        x[fc] = Fraction(1)
        for r, p in zip(R, pivots):
            x[p] = -r[fc]
        out.append(x)
    return out


def _dense_fractions(M: QMatrix) -> list:
    return [[_fraction(x) for x in row] for row in M]


def _assert_primitive_span(E, M: Optional[QMatrix] = None) -> None:
    """Every stored pivot row is a primitive row of exact ``int``s, positive
    at its pivot, its leftmost entry, and 0 at every other pivot; when M is
    given, the rows were added with tags {i: 1} for the rows i of M, and
    each row's tag, a combination of the rows of M, gives that row."""
    for p, row in E.rows.items():
        assert all(type(x) is int and x for x in row.values()), row
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(q in row for q in E.rows if q != p)
        if M is not None:
            got = [Fraction(0)] * M.cols
            for i, c in E.tags[p].items():
                got = [a + _fraction(Q(c)) * _fraction(b)
                       for a, b in zip(got, M[i])]
            assert got == [Fraction(row.get(k, 0)) for k in range(M.cols)]


#: entries that give rows with denominators, with a content > 1 and with
#: non-unit pivots, and zeros
_entries = st.one_of(st.just(0), st.integers(-6, 6), rationals)


@st.composite
def _span_cases(draw):
    """(M, S, probes): a matrix with dependent and zero rows, a subspace of
    its row span, and probe vectors in and out of the span."""
    cols = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=cols, max_size=cols)
    base = draw(st.lists(row, min_size=1, max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):  # dependent rows and zero rows
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        f, g = draw(rationals), draw(rationals)
        rows.insert(draw(st.integers(0, len(rows))),
                    [f * x + g * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    M = QMatrix(rows, cols=cols)
    sub = [[sum((c * x for c, x in zip(coeffs, col)), Q(0))
            for col in zip(*[list(r) for r in M])]
           for coeffs in draw(st.lists(
               st.lists(st.integers(-2, 2), min_size=M.rows,
                        max_size=M.rows), max_size=3))]
    S = QMatrix(sub, cols=cols)
    probes = [list(r) for r in M] + draw(st.lists(row, max_size=3))
    return M, S, probes


@settings(max_examples=80, deadline=None)
@given(_span_cases())
def test_fraction_free_span_matches_gauss_jordan(case):
    """Every reader of the fraction-free echelon gives textbook
    Gauss-Jordan's rows on Fractions, for matrices with fractional entries,
    non-unit pivots, dependent rows and zero rows; every stored pivot row is
    a primitive int row with a positive pivot."""
    M, S, probes = case
    n = M.cols
    ref_M = _dense_fractions(M)
    R, T, pivots = _ref_eliminate(ref_M, n)
    zero = [Fraction(0)] * n

    # rref, row_space, nullspace
    got_R, got_pivots, got_rk = rref(M)
    assert _dense_fractions(got_R) == R + [zero] * (M.rows - len(R))
    assert (got_pivots, got_rk) == (pivots, len(R))
    assert _dense_fractions(row_space(M)) == R
    assert _dense_fractions(nullspace(M)) == _ref_nullspace(R, pivots, n)
    for out in (got_R, row_space(M), nullspace(M)):
        assert all(is_number(x) for row in out for x in row)

    # rref_transform: T . M = R, and T is Gauss-Jordan's when the rows are
    # independent (it is unique then)
    got_R, got_T, _, _ = rref_transform(M)
    assert all(is_number(x) for row in got_T for x in row)
    TM = [[sum((_fraction(c) * x for c, x in zip(t, col)), Fraction(0))
           for col in zip(*ref_M)] for t in got_T]
    assert TM == _dense_fractions(got_R)
    if len(R) == M.rows:
        assert _dense_fractions(got_T) == T

    # membership: a solution exactly when Gauss-Jordan finds v in the span
    for v in probes:
        ref_v = [_fraction(Q(x)) for x in v]
        c = membership(tuple(v), M)
        assert (c is None) == any(_ref_reduce(R, pivots, ref_v))
        if c is not None:
            assert all(is_number(x) for x in c)
            assert [sum((_fraction(a) * b for a, b in zip(c, col)),
                        Fraction(0)) for col in zip(*ref_M)] == ref_v

    # quotient_basis of the row span modulo S, and its Span
    reps, reduce = quotient_basis(M, Span(S))
    R_sub, _, _ = _ref_eliminate(_dense_fractions(S), n)
    kept = []
    for r in R:  # the RREF rows that complete the subspace, in order
        if len(_ref_eliminate(R_sub + kept + [r], n)[0]) > \
                len(R_sub) + len(kept):
            kept.append(r)
    assert _dense_fractions(reps) == kept
    for v in probes:
        ref_v = [_fraction(Q(x)) for x in v]
        residual = _ref_reduce(R, pivots, ref_v)
        inside = [a - b for a, b in zip(ref_v, residual)]
        coords = _ref_solve(kept + R_sub, n, inside)[:len(kept)]
        w, c = reduce.split(sparse(vec(v)))
        assert [_fraction(x) for x in dense(w, n)] == residual
        assert [_fraction(x) for x in dense(c, len(kept))] == coords
        assert all(is_number(x) for _, x in w + c)
        if not any(residual):
            assert [_fraction(x) for x in reduce(tuple(v))] == coords
        else:
            with pytest.raises(ExactLinError):
                reduce(tuple(v))

    # the stored rows, untagged, tagged, and in the quotient's echelon
    _assert_primitive_span(Span(M))
    _assert_primitive_span(Span(M, tagged=True), M)
    _assert_primitive_span(reduce)


@settings(max_examples=80, deadline=None)
@given(_span_cases())
def test_span_column_index_covers_every_stored_entry(case):
    """After every ``add``, to an empty span and to the span of a subspace,
    each stored row is indexed at every column where it is nonzero (the
    index may hold more), so ``add`` visits every row it must clear."""
    M, S, _ = case
    for span in (Span(QMatrix([], cols=M.cols)), Span(S)):
        for i, row in enumerate(M.sparse_rows):
            span.add(row, {i: 1})
            assert all(q in span.index.get(k, ()) for q, r in span.rows.items()
                       for k in r)


def _is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_no_float_can_enter_the_package():
    """``/`` on two ints is a float, so the package divides only through
    ``Q``, and at one site: no ``/`` and no float literal anywhere in
    ``src/hccourant``, and one division, the ``Q(n, d)`` in exactlin's
    ``_over``, which every echelon row a reader returns passes through.  A
    ``Q(n, d)`` counts as a division unless n and d are int literals (a
    rational literal such as ``Q(1, 2)``)."""
    import hccourant
    divisions, over = [], None
    for path in sorted(Path(hccourant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Constant)
                        and isinstance(node.value, (float, complex))), where
            assert not (isinstance(node, (ast.BinOp, ast.AugAssign))
                        and isinstance(node.op, ast.Div)), where
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "Q" \
                    and len(node.args) == 2 \
                    and not all(map(_is_int_literal, node.args)):
                divisions.append((where, node))
            if isinstance(node, ast.FunctionDef) and node.name == "_over" \
                    and path.name == "exactlin.py":
                over = node
    assert len(divisions) == 1, [where for where, _ in divisions]
    assert over is not None and divisions[0][1] in list(ast.walk(over))


def _records():
    """(class, field values, one field changed) for a record of each kind:
    a chain, an algebra, a verdict and a report."""
    A = load_algebra_ref("qx2")
    return [(Chain, (A, 1, ((1, 1), (2, -1))), {"row": ((1, 1),)}),
            (FiniteAlgebra, (A.name, A.dim, A.basis_names, A.structure,
                             A.unit), {"name": "renamed"}),
            (DiracVerdict, (True, False, True, False, True, False, None),
             {"counterexample": (0, 1, (1,))}),
            (OppositeReport, ("qx2", True, True, False, True),
             {"form_tables_match": False})]


@pytest.mark.parametrize("cls, values, change", _records(),
                         ids=lambda x: getattr(x, "__name__", ""))
def test_records_compare_hash_and_freeze_by_field_tuple(cls, values, change):
    names = list(cls._fields)
    r = cls(*values)
    assert [getattr(r, n) for n in names] == list(values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert r == by_keyword == mixed
    assert hash(r) == hash(by_keyword) == hash(mixed) == hash(values)
    # one field changed, or another class, is never equal
    other = cls(**{**dict(zip(names, values)), **change})
    assert other != r and not other == r
    assert all(c(*v) != r for c, v, _ in _records() if c is not cls)
    assert r.__eq__(values) is NotImplemented
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(r) == (f"{cls.__name__}({fields})" if cls is not FiniteAlgebra
                       else f"FiniteAlgebra({values[0]!r}, dim={values[1]})")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, values[0])
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert [getattr(r, n) for n in names] == list(values)


@pytest.mark.parametrize("cls, values", [r[:2] for r in _records()],
                         ids=lambda x: getattr(x, "__name__", ""))
def test_records_refuse_a_wrong_binding(cls, values):
    names = list(cls._fields)
    for args, kwargs in ((values[:-1], {}), (values + (0,), {}),
                         (values, {"nonesuch": 0}),
                         (values, {names[0]: values[0]}),
                         ((), dict(zip(names[1:], values[1:]))),
                         (values[:-1], {"nonesuch": values[-1]})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_post_init_still_validates():
    """``FiniteAlgebra`` checks its table and ``Chain`` its indices, by
    position and by keyword alike."""
    # unital, but (a a) a = b a = 0 while a (a a) = a b = 1
    bad = sparse_table([[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                        [[0, 0, 1], [0, 0, 0], [0, 0, 0]]])
    basis = ("1", "a", "b")
    for make in (lambda: FiniteAlgebra("bad", 3, basis, bad, (1, 0, 0)),
                 lambda: FiniteAlgebra(name="bad", dim=3, unit=(1, 0, 0),
                                       basis_names=basis, structure=bad)):
        with pytest.raises(AlgebraError, match="associativity"):
            make()
    A = load_algebra_ref("qx2")
    for make in (lambda: Chain(A, 1, ((4, 1),)),
                 lambda: Chain(algebra=A, degree=0, row=((0, 1), (2, 1))),
                 lambda: Chain(A, 1, (1, 0, 0))):
        with pytest.raises(HochschildError):
            make()
    assert Chain(A, 1, (0, 1, 0, 0)).row == ((1, 1),)
