"""Chain-level operator identities, verified exactly.

Covered here: b^2 = 0; the degree-1 coboundary defect; homology dimensions
frozen from independent hand computations; the Cartan identities
L_[X,Y] = [L_X, L_Y] and i_[X,Y] = L_X i_Y - i_Y L_X; the homotopy
h b - b h = (-1)^(n+1) i_[a',.]; L_X = B i_X + i_X B on H_1 and H_2;
the product rule for the degree-raising map on commutative algebras; the
sparse row a chain is stored as; the two evaluators of a face list,
row a of ``operator`` against ``apply`` on e_a, one basis chain or all of
them in one batch; and ``apply`` on a batch of degree-1 rows, with the
face lists E(A)'s tables read, against the dense reference loops.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hccourant import hochschild
from hccourant.algebra import (GUARD_MAX_DIM, GuardError, build_v1,
                               check_guard, matrix_algebra, opposite_algebra)
from hccourant.cli import main
from hccourant.exactlin import (Q, QMatrix, Span, dense, nullspace, rank,
                                sparse)
from hccourant.files import BUNDLED_ALGEBRAS, load_algebra_ref
from hccourant.hochschild import (Chain, HochschildError,
                                  _boundary_faces, _connes_faces, _slot_face,
                                  apply, boundaries, boundary_b,
                                  cochain_from_flat, cohomology_h1,
                                  commutator, commutator_map, connes_B,
                                  derivation_basis, elementary_chain,
                                  flat_cochain, homology, interior_map,
                                  interior_product, leibniz_operator,
                                  left_map, lie_derivative, lie_map,
                                  operator)
from conftest import (_ref_is_derivation, cycles_and_boundaries,
                      dense_structure, derivations_and_inner,
                      h_left_multiply, insertion_face, monomial_algebra,
                      rand_chain, rand_combination, rand_derivation, rand_vec,
                      ref_inner_derivation, rng_for)

SMALL = ("q", "qx2", "qx3", "v1_1", "v1_2", "ut2")


def boundary_rows(A, n):
    """b_n, row a the chain b(e_a): the operator of its faces."""
    return operator(_boundary_faces(A, n), A.dim, n, n - 1)


@pytest.mark.parametrize("name", SMALL + ("v1_3", "m2q"))
@pytest.mark.parametrize("degree", (1, 2))
def test_b_squared_zero(algebras, name, degree):
    A = algebras[name]
    rng = rng_for(f"bb/{name}/{degree}")
    for _ in range(5):
        c = rand_chain(rng, A, degree + 1)
        assert boundary_b(boundary_b(c)).is_zero()


def test_boundary_on_elementary_chain():
    A = load_algebra_ref("qx2")
    # b(x (x) x) = x*x - x*x = 0; b(1 (x) x) = x - x = 0
    assert boundary_b(elementary_chain(A, (1, 1))).is_zero()
    assert boundary_b(elementary_chain(A, (0, 1))).is_zero()
    # b(x (x) x (x) x) at degree 2: x^2 (x) x - x (x) x^2 + x^2 (x) x = 0
    assert boundary_b(elementary_chain(A, (1, 1, 1))).is_zero()


# frozen dimensions, computed independently by hand:
# H_*(Q[x]/(x^2)) has dim 1 in every degree >= 1 over Q; H_0 = A.
# V[1]: H_0 = A (commutative), H_1 dims from the Kahler module.
EXPECTED_H = {
    ("q", 0): 1, ("q", 1): 0, ("q", 2): 0,
    ("qx2", 0): 2, ("qx2", 1): 1, ("qx2", 2): 1,
    ("qx3", 0): 3, ("qx3", 1): 2, ("qx3", 2): 2,
    ("v1_1", 0): 2, ("v1_1", 1): 1,
    ("v1_2", 0): 3, ("v1_2", 1): 3,
    ("v1_3", 0): 4, ("v1_3", 1): 6,
    ("m2q", 0): 1, ("m2q", 1): 0,
    ("ut2", 0): 2, ("ut2", 1): 0,
}


@pytest.mark.parametrize("key", sorted(EXPECTED_H))
def test_homology_dimensions(algebras, key):
    name, degree = key
    assert homology(algebras[name], degree).dim == EXPECTED_H[key]


EXPECTED_H1_COHOM = {"q": 0, "qx2": 1, "qx3": 2, "v1_1": 1, "v1_2": 4,
                     "v1_3": 9, "m2q": 0, "ut2": 0}


@pytest.mark.parametrize("name", sorted(EXPECTED_H1_COHOM))
def test_cohomology_dimensions(algebras, name):
    assert cohomology_h1(algebras[name]).dim == EXPECTED_H1_COHOM[name]


def test_derivation_detection():
    A = load_algebra_ref("qx3")
    # d/dx: 1 -> 0, x -> 1, x^2 -> 2x is NOT a derivation of Q[x]/(x^3)?
    # It is: d(x*x^2) = d(0) = 0 and x d(x^2) + x^2 d(x) = 2x^2*x + x^2 = x^2?
    # No: x*(2x) + x^2*1 = 3x^2 != 0 in degree 3... but x*x^2 = 0 so the rule
    # needs 3x^2 = 0 -- false.  So d/dx is not a derivation here; x d/dx is.
    ddx = QMatrix(((0, 0, 0), (1, 0, 0), (0, 2, 0)))
    assert not _ref_is_derivation(A, ddx)
    xddx = QMatrix(((0, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert _ref_is_derivation(A, xddx)
    with pytest.raises(HochschildError, match="dim x dim"):
        lie_derivative(QMatrix(((0, 0), (0, 1))), elementary_chain(A, (1,)))


def test_inner_derivations_of_commutative_vanish():
    A = load_algebra_ref("qx3")
    h = cohomology_h1(A)
    assert derivations_and_inner(A)[1].rows == 0 and h.reduce.dim == h.dim
    x = A.basis_vector(1)
    assert all(not any(r) for r in ref_inner_derivation(A, x))


@pytest.mark.parametrize("name", SMALL)
def test_cartan_identities(algebras, name):
    A = algebras[name]
    dbasis = derivation_basis(A)
    rng = rng_for(f"cartan/{name}")
    for _ in range(8):
        X = rand_derivation(rng, A, dbasis)
        Y = rand_derivation(rng, A, dbasis)
        XY = commutator(X, Y)
        for n in (1, 2):
            c = rand_chain(rng, A, n)
            lhs = lie_derivative(XY, c)
            rhs = lie_derivative(X, lie_derivative(Y, c)) - \
                lie_derivative(Y, lie_derivative(X, c))
            assert lhs.row == rhs.row
            lhs = interior_product(XY, c)
            rhs = lie_derivative(X, interior_product(Y, c)) - \
                interior_product(Y, lie_derivative(X, c))
            assert lhs.row == rhs.row


@pytest.mark.parametrize("name", SMALL)
def test_homotopy_identity(algebras, name):
    A = algebras[name]
    rng = rng_for(f"homotopy/{name}")
    for _ in range(8):
        aprime = rand_vec(rng, A.dim)
        inner = ref_inner_derivation(A, aprime)
        for n in (1, 2):
            c = rand_chain(rng, A, n)
            lhs = h_left_multiply(aprime, boundary_b(c)) - \
                boundary_b(h_left_multiply(aprime, c))
            # with the (-1)^(n+1) sign folded into the interior product,
            # the homotopy identity reads h b - b h = i_[., a']
            rhs = interior_product(inner, c)
            assert lhs.row == tuple((k, -x) for k, x in rhs.row)


@pytest.mark.parametrize("name", SMALL + ("v1_3", "qxy22"))
def test_lie_derivative_is_homotopic_to_b_ix_plus_ix_b(algebras, name):
    """Rinehart's formula L_X = B i_X + i_X B on the class reps of H_1 and
    H_2; ``qxy22`` is Q[x, y]/(x^2, y^2)."""
    A = monomial_algebra(2, 2) if name == "qxy22" else algebras[name]
    dbasis = derivation_basis(A)
    rng = rng_for(f"lem-lx/{name}")
    for degree in (1, 2):
        h = homology(A, degree)
        in_boundaries = Span(cycles_and_boundaries(A, degree)[1]).contains
        for _ in range(8):
            X = rand_derivation(rng, A, dbasis)
            for k in range(h.dim):
                a = h.rep_chain(k)
                lhs = lie_derivative(X, a)
                rhs = connes_B(interior_product(X, a)) + \
                    interior_product(X, connes_B(a))
                row = (lhs - rhs).row
                assert h.is_boundary(row) and in_boundaries(row)


@pytest.mark.parametrize("name", SMALL + ("v1_3", "m2q"))
def test_presentation_cycle_and_boundary_tests_match_their_spans(algebras,
                                                                  name):
    """``reduce.contains`` and ``is_boundary`` read the quotient's one span;
    they agree with the spans of Z and B, read off the operators, on
    cycles, boundaries, cycles with a class and arbitrary chains."""
    A = algebras[name]
    rng = rng_for(f"cycle-boundary/{name}")
    for h, (Z, B) in ((homology(A, 0), cycles_and_boundaries(A, 0)),
                      (homology(A, 1), cycles_and_boundaries(A, 1)),
                      (cohomology_h1(A), derivations_and_inner(A))):
        in_Z, in_B = Span(Z).contains, Span(B).contains
        probes = [rand_combination(rng, Z) for _ in range(4)] + [
            rand_combination(rng, B) for _ in range(4)] + [
            rand_vec(rng, Z.cols) for _ in range(4)] + [(0,) * Z.cols]
        for v in probes:
            assert h.reduce.contains(v) == in_Z(v)
            assert h.is_boundary(v) == in_B(v)
        assert all(map(h.is_boundary, B.sparse_rows))
        assert not any(h.is_boundary(r) for r in h.class_reps.sparse_rows)


@pytest.mark.parametrize("name, r, n, adds", (
    ("v1_3", 1, 0, 9), ("v1_3", 1, 1, 44), ("v1_3", 1, 2, 195),
    ("v1_2", 2, 1, 697)))
def test_homology_eliminates_each_basis_once(algebras, monkeypatch, name, r,
                                             n, adds):
    """homology(M_r(A), n) adds each distinct row to a span once: the
    distinct rows of b_n^T (n >= 1) and of b_(n+1), and the dim Z_n cycle
    rows twice, once into their own RREF and once into the quotient.  At
    Morita scale, H_1 of M_2(v1_2), 415 of the 1,728 rows of b_2 are
    distinct."""
    A = algebras[name] if r == 1 else matrix_algebra(algebras[name], r)
    Z, _ = cycles_and_boundaries(A, n)
    calls = []
    add = Span.add
    monkeypatch.setattr(Span, "add",
                        lambda self, *a: calls.append(1) or add(self, *a))
    h = homology(A, n)

    def distinct(M):
        return len(set(M.sparse_rows))

    b = boundary_rows
    assert len(calls) == (n >= 1 and distinct(b(A, n).transpose())) \
        + distinct(b(A, n + 1)) + 2 * Z.rows == adds
    assert h.reduce.dim == Z.rows


def test_boundary_b_of_one_chain_builds_no_operator(algebras, monkeypatch):
    """``boundary_b`` visits the terms of its chain and builds no b_n: on
    M_6(Q), whose b_3 has 36^4 rows, past MAX_CHAIN_DIM, and on M_2(v1_3),
    where it matches the reference loop."""
    def refuse(*args):
        raise AssertionError("boundary_b built an operator")

    monkeypatch.setattr(hochschild, "operator", refuse)
    A = matrix_algebra(load_algebra_ref("q"), 6)
    # E_00 E_01 = E_01, and E_01 E_02, E_02 E_03 and E_03 E_00 vanish
    assert boundary_b(elementary_chain(A, (0, 1, 2, 3))) == \
        elementary_chain(A, (1, 2, 3))
    A = matrix_algebra(algebras["v1_3"], 2)
    rng = rng_for("boundary-one-chain")
    for _ in range(4):
        c = elementary_chain(A, [rng.randrange(A.dim) for _ in range(4)])
        assert boundary_b(c) == _ref_boundary_b(c)


def test_connes_B_of_degree0_is_cycle():
    A = load_algebra_ref("qx3")
    rng = rng_for("connesB")
    for _ in range(10):
        a = Chain(A, 0, rand_vec(rng, A.dim))
        assert boundary_b(connes_B(a)).is_zero()


def test_kahler_product_rule():
    """class(B(a a')) = class(a.B(a') + a'.B(a)) in degree-1 homology, for
    commutative algebras: the product rule of the universal derivative."""
    for A in (load_algebra_ref("qx3"), build_v1(2)):
        h1 = homology(A, 1)
        rng = rng_for(f"kahler/{A.name}")
        for _ in range(10):
            a = rand_vec(rng, A.dim)
            ap = rand_vec(rng, A.dim)
            prod = connes_B(Chain(A, 0, A.mul(a, ap)))
            # multiply a 1-chain by an algebra element on the left slot
            def lmul(z, c):
                out = [Q(0)] * A.dim ** 2
                for idx, x in enumerate(dense(c.row, A.dim ** 2)):
                    if x:
                        i0, i1 = divmod(idx, A.dim)
                        za = A.mul(z, A.basis_vector(i0))
                        for k, y in enumerate(za):
                            if y:
                                out[k * A.dim + i1] += x * y
                return Chain(A, 1, tuple(out))
            rule = lmul(a, connes_B(Chain(A, 0, ap))) + \
                lmul(ap, connes_B(Chain(A, 0, a)))
            assert h1.reduce_chain(prod) == h1.reduce_chain(rule)


def test_pairing_value():
    A = load_algebra_ref("qx2")
    h0 = homology(A, 0)
    # <x d/dx, class(1 (x) x)> = X(x)*1 = x
    X = QMatrix(((0, 0), (0, 1)))
    assert _ref_is_derivation(A, X)
    val = h0.reduce(interior_product(X, elementary_chain(A, (0, 1))).row)
    assert val == h0.reduce_chain(Chain(A, 0, A.basis_vector(1)))


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_descent(algebras, name):
    """L_X, i_X, B and the inner derivations descend at degrees 0, 1 and 2:
    on the basis rows of Z_n and B_n, L_X keeps cycles and boundaries and
    i_X sends them to cycles and boundaries of degree n - 1; the inner
    derivations [e_i, .] act by 0 on the class reps; b B of a class rep is
    a boundary, and B of a boundary is one in degree n + 1.  Degree 0 is
    what ``ESpace``'s own B-descent check relies on."""
    A = algebras[name]
    derivations = [cochain_from_flat(A, flat)
                   for flat in derivation_basis(A).sparse_rows]
    inners = [ref_inner_derivation(A, e) for e in QMatrix.identity(A.dim)]
    for n in (0, 1, 2):
        h = homology(A, n)
        lo = homology(A, n - 1) if n else None
        Z, B = cycles_and_boundaries(A, n)
        for kind, rows, holds in (
                ("cycles", Z, lambda p, r: p.reduce.contains(r)),
                ("boundaries", B, lambda p, r: p.is_boundary(r))):
            for k, row in enumerate(rows.sparse_rows):
                c = Chain(A, n, row)
                for x, X in enumerate(derivations):
                    case = f"degree {n}, X{x} on row {k} of the {kind}"
                    assert holds(h, lie_derivative(X, c).row), \
                        f"L_X leaves the {kind}: {case}"
                    assert not n or holds(lo, interior_product(X, c).row), \
                        f"i_X leaves the {kind}: {case}"
        for z in range(h.dim):
            rep = h.rep_chain(z)
            for a, inner in enumerate(inners):
                case = f"degree {n}, [e{a}, .] on class rep {z}"
                assert h.is_boundary(lie_derivative(inner, rep).row), \
                    f"L_inner is not 0 on homology: {case}"
                assert not n or lo.is_boundary(
                    interior_product(inner, rep).row), \
                    f"i_inner is not 0 on homology: {case}"
            assert h.is_boundary(boundary_b(connes_B(rep)).row), \
                f"b B of a class rep is not a boundary: degree {n}, rep {z}"
        in_boundaries_up = boundaries(A, n + 1).contains
        for k, row in enumerate(B.sparse_rows):
            assert in_boundaries_up(connes_B(Chain(A, n, row)).row), \
                f"B leaves the boundaries: degree {n}, boundary row {k}"


# ---------------------------------------------------------------------------
# the face maps against the per-operator loops they replaced
#
# The reference copies below keep the original dense decode/encode loops,
# with their own index helpers, as the oracle for the chain-level operators.

def _ref_encode(d, a):
    idx = 0
    for i in a:
        idx = idx * d + i
    return idx


def _ref_decode(d, idx, n):
    out = []
    for _ in range(n + 1):
        idx, r = divmod(idx, d)
        out.append(r)
    return tuple(reversed(out))


def _ref_boundary_b(c):
    A, n, d = c.algebra, c.degree, c.algebra.dim
    S = dense_structure(A)
    out = [Q(0)] * d ** n
    for idx, x in enumerate(dense(c.row, d ** (n + 1))):
        if not x:
            continue
        a = _ref_decode(d, idx, n)
        for i in range(n):
            sign = -x if i % 2 else x
            rest = a[:i] + a[i + 2:]
            for k, p in enumerate(S[a[i]][a[i + 1]]):
                if p:
                    out[_ref_encode(d, a[:i] + (k,) + rest[i:])] += sign * p
        sign = -x if n % 2 else x
        for k, p in enumerate(S[a[n]][a[0]]):
            if p:
                out[_ref_encode(d, (k,) + a[1:n])] += sign * p
    return Chain(A, n - 1, tuple(out))


def _ref_lie_derivative(X, c):
    A, n, d = c.algebra, c.degree, c.algebra.dim
    out = [Q(0)] * d ** (n + 1)
    for idx, x in enumerate(dense(c.row, d ** (n + 1))):
        if not x:
            continue
        a = _ref_decode(d, idx, n)
        for i in range(n + 1):
            for k, r in enumerate(X[a[i]]):
                if r:
                    out[_ref_encode(d, a[:i] + (k,) + a[i + 1:])] += x * r
    return Chain(A, n, tuple(out))


def _ref_interior_product(X, c):
    A, n, d = c.algebra, c.degree, c.algebra.dim
    sgn = Q(1) if (n + 1) % 2 == 0 else Q(-1)
    out = [Q(0)] * d ** n
    for idx, x in enumerate(dense(c.row, d ** (n + 1))):
        if not x:
            continue
        a = _ref_decode(d, idx, n)
        head = A.mul(X[a[n]], A.basis_vector(a[0]))
        for k, p in enumerate(head):
            if p:
                out[_ref_encode(d, (k,) + a[1:n])] += sgn * x * p
    return Chain(A, n - 1, tuple(out))


def _ref_connes_B(c):
    A, n, d = c.algebra, c.degree, c.algebra.dim
    out = [Q(0)] * d ** (n + 2)
    for idx, x in enumerate(dense(c.row, d ** (n + 1))):
        if not x:
            continue
        a = _ref_decode(d, idx, n)
        for i in range(n + 1):
            sign = -x if (n * i) % 2 else x
            cyc = a[i:] + a[:i]
            for u, cu in enumerate(A.unit):
                if cu:
                    out[_ref_encode(d, (u,) + cyc)] += sign * cu
                    out[_ref_encode(d, (cyc[0], u) + cyc[1:])] += sign * cu
    return Chain(A, n + 1, tuple(out))


def _ref_h_left_multiply(aprime, c):
    A, n, d = c.algebra, c.degree, c.algebra.dim
    out = [Q(0)] * d ** (n + 1)
    for idx, x in enumerate(dense(c.row, d ** (n + 1))):
        if not x:
            continue
        a = _ref_decode(d, idx, n)
        head = A.mul(aprime, A.basis_vector(a[0]))
        for k, p in enumerate(head):
            if p:
                out[_ref_encode(d, (k,) + a[1:])] += x * p
    return Chain(A, n, tuple(out))


def _ref_boundary_operator_rows(A, n):
    """b applied to one dense elementary chain per degree-n basis index."""
    N = A.dim ** (n + 1)
    rows = []
    for idx in range(N):
        coords = [Q(0)] * N
        coords[idx] = Q(1)
        rows.append(dense(_ref_boundary_b(Chain(A, n, tuple(coords))).row,
                          A.dim ** n))
    return QMatrix(rows, cols=A.dim ** n)


# the algebras the suite builds besides the bundled ones: Morita targets
# and opposite algebras
BUILT = ("M2(qx2)", "M2(v1_2)", "ut2^op", "qx3^op")


def _algebra(algebras, name):
    if name.startswith("M2("):
        return matrix_algebra(algebras[name[3:-1]], 2)
    if name.endswith("^op"):
        return opposite_algebra(algebras[name[:-3]])
    return algebras[name]


_rationals = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))


def _admitted(d, n):
    try:
        check_guard(d, n)
    except GuardError:
        return False
    return True


@st.composite
def _chains(draw, algebras):
    """A chain of degree 0-3 that the guard admits, on a bundled or a
    built algebra."""
    A = _algebra(algebras, draw(st.sampled_from(BUNDLED_ALGEBRAS + BUILT)))
    n = draw(st.sampled_from([n for n in range(4) if _admitted(A.dim, n)]))
    N = A.dim ** (n + 1)
    terms = draw(st.dictionaries(st.integers(0, N - 1), _rationals,
                                 max_size=8))
    return Chain(A, n, tuple(sorted(terms.items())))


def _derivation(draw, A):
    basis = derivation_basis(A)
    coeffs = draw(st.lists(_rationals, min_size=basis.rows,
                           max_size=basis.rows))
    flat = [Q(0)] * (A.dim * A.dim)
    for c, row in zip(coeffs, basis):
        flat = [f + c * x for f, x in zip(flat, row)]
    return QMatrix(tuple(flat[j * A.dim:(j + 1) * A.dim])
                   for j in range(A.dim))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_chain_operators_match_reference_loops(algebras, data):
    """The face maps against the loops, at degrees 0-3, on the bundled
    algebras and on the built ones: only a non-commutative algebra tells
    the cyclic window (n, 0) from (0, n)."""
    c = data.draw(_chains(algebras))
    A = c.algebra
    X = _derivation(data.draw, A)
    aprime = tuple(data.draw(st.lists(_rationals, min_size=A.dim,
                                      max_size=A.dim)))
    assert lie_derivative(X, c) == _ref_lie_derivative(X, c)
    if _admitted(A.dim, c.degree + 1):
        assert connes_B(c) == _ref_connes_B(c)
    assert h_left_multiply(aprime, c) == _ref_h_left_multiply(aprime, c)
    if c.degree >= 1:
        assert boundary_b(c) == _ref_boundary_b(c)
        assert interior_product(X, c) == _ref_interior_product(X, c)


def _ref_commutator(X, Y):
    """[X, Y] on dense rows: row j is sum_m Y_jm X(e_m) - X_jm Y(e_m)."""
    d = X.cols
    return QMatrix([[sum(Y[j][m] * X[m][k] - X[j][m] * Y[m][k]
                         for m in range(d)) for k in range(d)]
                    for j in range(d)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_apply_is_the_single_chain_rules(algebras, data):
    """``apply`` on a batch of degree-1 rows, with the face lists E(A)'s
    tables read, equals the dense reference loops on each row: L_X, i_X
    (two steps, the cyclic product last), left multiplication by a' on
    slot 0 and, on flattened maps Y, the commutator [X, Y], which
    ``commutator`` reads too; X is any d x d map, a derivation or not."""
    A = _algebra(algebras, data.draw(st.sampled_from(BUNDLED_ALGEBRAS
                                                     + BUILT)))
    d = A.dim

    def draw_row(n):
        terms = data.draw(st.dictionaries(st.integers(0, n - 1), _rationals,
                                          max_size=6))
        return tuple(sorted((k, x) for k, x in terms.items() if x))

    def draw_map():
        return cochain_from_flat(A, draw_row(d * d))

    X, Ys = draw_map(), [draw_map() for _ in range(3)]
    chains = [Chain(A, 1, draw_row(d * d)) for _ in range(3)]
    rows = [c.row for c in chains]
    aprime = draw_row(d)
    assert apply(rows, d, 1, *lie_map(X, 1)) == [
        _ref_lie_derivative(X, c).row for c in chains]
    assert apply(rows, d, 1, *interior_map(A, X, 1)) == [
        _ref_interior_product(X, c).row for c in chains]
    assert apply(rows, d, 1, *left_map(A, aprime, 1, 0)) == [
        _ref_h_left_multiply(dense(aprime, d), c).row for c in chains]
    assert apply([flat_cochain(Y) for Y in Ys], d, 1,
                 *commutator_map(X)) == [
        flat_cochain(_ref_commutator(X, Y)) for Y in Ys]
    assert [commutator(X, Y) for Y in Ys] == [
        _ref_commutator(X, Y) for Y in Ys]


def _assert_canonical(M: QMatrix) -> None:
    """The rows of M are those the checking constructor makes of them, and
    each entry is in the number form, which ``==`` alone does not see."""
    assert QMatrix(M.sparse_rows, M.cols).sparse_rows == M.sparse_rows
    assert all(type(x) is int or x.denominator != 1
               for row in M.sparse_rows for _, x in row)


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS + BUILT)
def test_boundary_operator_rows_match_elementary_chain_build(algebras, name):
    """The stride-built b_n equals the matrix of b applied to each basis
    chain by the reference loop, at every degree the guard admits."""
    A = _algebra(algebras, name)
    for n in range(1, max(GUARD_MAX_DIM) + 1):
        try:
            check_guard(A.dim, n)
        except GuardError:
            continue
        B = boundary_rows(A, n)
        assert B == _ref_boundary_operator_rows(A, n)
        _assert_canonical(B)


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_homology_report_ranks_match_reference_boundary(algebras, capsys,
                                                        name):
    """The ``homology`` report at degrees 0-3: ``cycle_rank`` is
    d^(n+1) - rank b_n (d at n = 0), ``boundary_rank`` is rank b_(n+1) and
    ``dim`` is their difference, each rank that of the reference loop's
    matrix."""
    A = algebras[name]
    ranks = [0] + [rank(_ref_boundary_operator_rows(A, m))
                   for m in range(1, 5)]
    for n in range(4):
        assert main(["homology", "--algebra", name, "--degree", str(n),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cycles = A.dim ** (n + 1) - ranks[n]
        assert (doc["cycle_rank"], doc["boundary_rank"], doc["dim"]) == (
            cycles, ranks[n + 1], cycles - ranks[n + 1]), n


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS + ("M2(qx2)", "ut2^op",
                                                    "qx3^op"))
def test_operator_rows_are_apply_on_basis_chains(algebras, name):
    """Row a of ``operator(faces, ...)`` is ``apply`` on e_a, and all the
    rows are ``apply`` on every e_a in one batch, for the face lists of
    b_n, B, one slot of L_X and the insertion of a', at every degree the
    guard admits on both sides."""
    A = _algebra(algebras, name)
    d = A.dim
    rng = rng_for(f"faces/{name}")
    X = QMatrix(tuple(rand_vec(rng, d) for _ in range(d)))
    for n in range(max(GUARD_MAX_DIM) + 1):
        maps = [(n - 1, _boundary_faces(A, n))] if n else []
        maps += [(n, [_slot_face(1, X.sparse_rows, n, rng.randrange(n + 1))]),
                 (n + 1, _connes_faces(A, n)),
                 (n + 1, [insertion_face(sparse(rand_vec(rng, d)), n)])]
        for m, faces in maps:
            if not (_admitted(d, n) and _admitted(d, m)):
                continue
            M = operator(faces, d, n, m)
            assert (M.rows, M.cols) == (d ** (n + 1), d ** (m + 1))
            _assert_canonical(M)
            for a, row in enumerate(M.sparse_rows):
                assert apply((((a, Q(1)),),), d, n, (faces, m)) == [row]
            units = [((a, Q(1)),) for a in range(M.rows)]
            assert apply(units, d, n, (faces, m)) == list(M.sparse_rows)


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_coboundary_beta_matches_dense_reference(algebras, name):
    """The span of ``derivation_basis`` (the nullspace of the Leibniz
    system) agrees with the dense coboundary defect: every basis row is a
    derivation, and a random cochain lies in the span exactly when the
    reference calls it one."""
    A = algebras[name]
    der = derivation_basis(A)
    for row in der:
        assert _ref_is_derivation(A, cochain_from_flat(A, row))
    span = Span(der)
    rng = rng_for(name)
    for _ in range(3):
        f = QMatrix(tuple(rand_vec(rng, A.dim) for _ in range(A.dim)))
        assert span.contains(flat_cochain(f)) == _ref_is_derivation(A, f)


def _ref_derivation_basis(A):
    """The dense-row derivation_basis that the sparse-row one replaced."""
    d, S = A.dim, dense_structure(A)
    rows = []
    for i in range(d):
        for j in range(d):
            cij = S[i][j]
            for m in range(d):
                row = [Q(0)] * (d * d)
                for s, c in enumerate(cij):
                    if c:
                        row[s * d + m] += c
                for k in range(d):
                    ckj = S[k][j][m]
                    if ckj:
                        row[i * d + k] -= ckj
                    cik = S[i][k][m]
                    if cik:
                        row[j * d + k] -= cik
                rows.append(row)
    return nullspace(QMatrix(rows, cols=d * d))


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS + BUILT)
def test_derivation_basis_matches_dense_reference(algebras, name):
    A = _algebra(algebras, name)
    assert derivation_basis(A) == _ref_derivation_basis(A)
    _assert_canonical(leibniz_operator(A))


# ---------------------------------------------------------------------------
# the sparse chain form


@pytest.mark.parametrize("name", ("qx2", "v1_2", "m2q"))
def test_chain_dense_and_sparse_rows_agree(algebras, name):
    A = algebras[name]
    rng = rng_for(f"chainrow/{name}")
    for n in (0, 1, 2):
        dense_row = rand_vec(rng, A.dim ** (n + 1))
        sparse_row = tuple((k, x) for k, x in enumerate(dense_row) if x)
        c, s = Chain(A, n, dense_row), Chain(A, n, sparse_row)
        assert c == s and hash(c) == hash(s)
        assert c.row == sparse_row
        assert dense(s.row, A.dim ** (n + 1)) == dense_row


def test_chain_rejects_malformed_rows():
    A = load_algebra_ref("qx2")
    with pytest.raises(HochschildError):
        Chain(A, 1, (Q(1),) * 3)  # 4 coordinates at degree 1
    with pytest.raises(HochschildError):
        Chain(A, 1, ((4, Q(1)),))  # index out of range
    with pytest.raises(HochschildError):
        Chain(A, 1, ((2, Q(1)), (1, Q(1))))  # not ascending
    with pytest.raises(HochschildError):
        Chain(A, 1, ((1, Q(1)), (1, Q(2))))  # repeated


@pytest.mark.parametrize("call, message", (
    (lambda A: Chain(A, -1, ()), "degree must be >= 0"),
    (lambda A: elementary_chain(A, (0,)) + elementary_chain(A, (0, 1)),
     "chain mismatch"),
    (lambda A: boundary_b(elementary_chain(A, (1,))),
     "boundary undefined in degree 0"),
    (lambda A: interior_product(QMatrix.identity(A.dim),
                                elementary_chain(A, (1,))),
     "interior product undefined in degree 0"),
    (lambda A: homology(A, 1).reduce_chain(elementary_chain(A, (0, 1, 1))),
     "chain does not match the presentation"),
    (lambda A: homology(A, 1).class_to_chain((1,) * 9),
     "class coordinate length mismatch")), ids=(
    "negative-degree", "sum-mismatch", "boundary-degree0",
    "interior-degree0", "reduce-wrong-degree", "class-wrong-length"))
def test_chain_calls_refuse_what_they_cannot_read(call, message):
    with pytest.raises(HochschildError, match=message):
        call(load_algebra_ref("qx2"))


def test_chain_sum_adds_and_cancels(algebras):
    """``Chain.__add__`` sums repeated indices and drops what cancels."""
    A = algebras["v1_2"]

    def total(n, terms):
        out = Chain(A, n, ())
        for a, x in terms:
            out += Chain(A, n, ((_ref_encode(A.dim, a), x),))
        return out

    terms = [((2, 0), Q(1)), ((0, 1), Q(3)), ((2, 0), Q(-1, 2)),
             ((0, 1), Q(-3)), ((1, 1), Q(5))]
    assert total(1, terms).row == ((4, Q(5)), (6, Q(1, 2)))
    cancel = terms[1:2] + terms[3:4]
    assert total(1, cancel).is_zero()
    assert total(2, ()).is_zero()
    rng = rng_for("chain_from_terms")
    for n in (0, 1, 2):
        terms = [(tuple(rng.randrange(A.dim) for _ in range(n + 1)),
                  Q(rng.randint(-2, 2))) for _ in range(12)]
        sums = {}
        for a, x in terms:
            sums[a] = sums.get(a, Q(0)) + x
        assert total(n, terms).row == tuple(
            (_ref_encode(A.dim, a), x) for a, x in sorted(sums.items()) if x)
