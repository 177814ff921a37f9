"""The gl(V) (+) V model and its realization on V[1]."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hccourant import omni
from hccourant.exactlin import (Q, QMatrix, bilinear, combine, dense,
                                make_reducer, nullspace, row_combination,
                                sparse, sparse_table)
from hccourant.omni import (FORM_SCALAR, OmniError, build_omni_iso,
                            d_graph_rows, d_structure_check, pairing_table,
                            verify_ev1, verify_main_theorem, weinstein_table)
from conftest import (is_canonical_table, load_script, perturbed_table,
                      rng_for)


def _elem(xi, v):
    """The coordinate tuple of (xi, v): the rows of xi, then v."""
    return tuple(Q(x) for row in xi for x in row) + tuple(Q(x) for x in v)


def _rand_elem(rng, n):
    return _elem([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                 [rng.randint(-3, 3) for _ in range(n)])


def _zero_mu(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def _bracket(n, u, v):
    """([xi1, xi2], xi1 v2): the Weinstein table contracted on u and v."""
    return bilinear(u, v, weinstein_table(n), n * n + n)


def _pairing(n, u, v):
    """(1/2)(xi2 v1 + xi1 v2): the pairing table contracted on u and v."""
    return bilinear(u, v, pairing_table(n), n)


def test_weinstein_bracket_formula():
    I = ((1, 0), (0, 1))
    z = ((0, 0), (0, 0))
    e = _elem(I, (0, 0))
    assert _bracket(2, e, e) == (0,) * 6
    a = _elem(((1, 2), (3, 4)), (0, 0))
    b = _elem(z, (1, 1))
    # ([xi, 0], xi (1, 1)) = (0, (3, 7))
    assert _bracket(2, a, b) == (0, 0, 0, 0, Q(3), Q(7))


def test_weinstein_bracket_is_leibniz():
    rng = rng_for("leibniz")
    n = 3
    for _ in range(25):
        e1, e2, e3 = (_rand_elem(rng, n) for _ in range(3))
        lhs = _bracket(n, e1, _bracket(n, e2, e3))
        rhs1 = _bracket(n, _bracket(n, e1, e2), e3)
        rhs2 = _bracket(n, e2, _bracket(n, e1, e3))
        assert lhs == tuple(a + b for a, b in zip(rhs1, rhs2))


def test_omni_pairing_symmetric_and_value():
    a = _elem(((2, 0), (0, 2)), (0, 0))
    b = _elem(((0, 0), (0, 0)), (1, 3))
    assert _pairing(2, a, b) == (Q(1), Q(3))  # (1/2) xi v
    assert _pairing(2, a, b) == _pairing(2, b, a)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_omni_pairing_nondegenerate(n):
    """(e, .) = 0 forces e = 0, solved as an exact linear system."""
    dim = n * n + n
    units = QMatrix.identity(dim)
    rows = []
    for b in units:
        row = []
        for c in units:
            row.extend(_pairing(n, b, c))
        rows.append(row)
    # e = sum x_b basis_b is degenerate iff x annihilates every row block:
    # x . M = 0, i.e. x in the nullspace of the transpose
    M = QMatrix(rows, cols=dim * n)
    assert nullspace(M.transpose()).rows == 0


# ---------------------------------------------------------------------------
# the tables against dense matrix products

def _matrix(n, u):
    return [u[i * n:(i + 1) * n] for i in range(n)]


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _dense_weinstein(n, u, w):
    """([xi1, xi2], xi1 v2) through explicit matrix products."""
    x1, x2 = _matrix(n, u), _matrix(n, w)
    p, q = _mat_mul(x1, x2), _mat_mul(x2, x1)
    comm = [p[i][j] - q[i][j] for i in range(n) for j in range(n)]
    return tuple(comm + _mat_vec(x1, w[n * n:]))


def _dense_pairing(n, u, w):
    """(1/2)(xi2 v1 + xi1 v2) through explicit matrix products."""
    a = _mat_vec(_matrix(n, w), u[n * n:])
    b = _mat_vec(_matrix(n, u), w[n * n:])
    return tuple(Q(1, 2) * (x + y) for x, y in zip(a, b))


_rationals = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tables_match_dense_matrix_products(data):
    n = data.draw(st.integers(1, 4))
    u, w = (tuple(data.draw(st.lists(_rationals, min_size=n * n + n,
                                     max_size=n * n + n)))
            for _ in range(2))
    assert _bracket(n, u, w) == _dense_weinstein(n, u, w)
    assert _pairing(n, u, w) == _dense_pairing(n, u, w)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_omni_tables_are_canonical(n):
    dim = n * n + n
    assert is_canonical_table(weinstein_table(n), dim, dim, dim)
    assert is_canonical_table(pairing_table(n), dim, dim, n)


# ---------------------------------------------------------------------------
# the realization on V[1]

@pytest.mark.parametrize("n", (1, 2, 3))
def test_ev1_dimensions(n):
    rep = verify_ev1(n)
    assert rep.ok, rep.to_json()


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_main_theorem(n):
    iso, rep = verify_main_theorem(n)
    assert rep.ok, rep.to_json()
    assert rep.form_scalar == FORM_SCALAR == 2


@pytest.mark.parametrize("name, flag", (
    ("weinstein_table", "bracket_tables_match"),
    ("pairing_table", "form_tables_match")))
def test_main_theorem_comparisons_can_fail(monkeypatch, name, flag):
    """A perturbed omni-Lie table fails its own table identity only."""
    table = getattr(omni, name)
    monkeypatch.setattr(omni, name,
                        lambda n: perturbed_table(table(n), 0, 0, 0))
    _, rep = verify_main_theorem(2)
    false = {k for k, v in rep.to_json().items() if v is False}
    assert false == {flag, "ok"}, rep.to_json()


def test_iso_roundtrip():
    iso = build_omni_iso(2)
    coords = make_reducer(iso.fwd)
    rng = rng_for("roundtrip")
    for _ in range(10):
        u = _rand_elem(rng, 2)
        assert coords(row_combination(u, iso.fwd)) == u


@pytest.mark.parametrize("n", [2, 3, 4])
def test_d_graph_rows(n):
    """Graph row i holds the matrix mu(v_i, .), whose column j is
    mu(v_i, v_j), then v_i; its sparse combination of the rows of
    ``iso.fwd`` is the dense one of that coordinate tuple."""
    iso = build_omni_iso(n)
    rng = rng_for(f"d-graph-rows/{n}")
    mus = [_zero_mu(n)]
    mus[0][0][1][n - 1] = 1  # mu(v_0, v_1) = v_{n-1}
    mus += [[[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
             for _ in range(n)] for _ in range(5)]
    for mu in mus:
        table = sparse_table(tuple(tuple(Q(x) for x in c) for c in r)
                             for r in mu)
        rows = d_graph_rows(n, table)
        for i, row in enumerate(rows):
            coords = dense(row, n * n + n)
            for a, j in itertools.product(range(n), repeat=2):
                assert coords[a * n + j] == mu[i][j][a]
            assert coords[n * n:] == tuple(Q(int(k == i)) for k in range(n))
            assert combine(row, iso.fwd) == sparse(
                row_combination(coords, iso.fwd))


def test_d_structure_zero_and_so3():
    iso = build_omni_iso(3)
    assert d_structure_check(iso, _zero_mu(3)).dirac
    so3 = _zero_mu(3)
    so3[0][1][2], so3[1][0][2] = 1, -1
    so3[1][2][0], so3[2][1][0] = 1, -1
    so3[2][0][1], so3[0][2][1] = 1, -1
    rep = d_structure_check(iso, so3)
    assert rep.dirac and rep.is_lie_bracket and rep.consistent


def test_d_structure_non_skew_fails():
    iso = build_omni_iso(3)
    bad = _zero_mu(3)
    bad[0][0][1] = 1  # mu(v1, v1) = v2
    rep = d_structure_check(iso, bad)
    assert not rep.dirac and not rep.skew and rep.consistent
    assert not rep.verdict.isotropic


def test_d_structure_random_corpus_agrees():
    """Uniform {-1, 0, 1} tables (almost never Lie) and change-of-basis
    images of so(3), Heisenberg and r_2 (+) abelian (always Lie), so the
    oracle agreement is checked on both sides of the verdict."""
    corpus = load_script("omni_corpus")
    for n in (2, 3):
        iso = build_omni_iso(n)
        rng = rng_for(f"dcorpus/{n}")
        for _ in range(40):
            mu = [[[rng.randint(-1, 1) for _ in range(n)]
                   for _ in range(n)] for _ in range(n)]
            rep = d_structure_check(iso, mu)
            assert rep.consistent
        # an image of a Lie bracket is one, so every draw is Lie and Dirac
        for _ in range(10):
            name, mu = corpus.conjugated_lie_table(n, rng)
            rep = d_structure_check(iso, mu)
            assert rep.consistent and rep.is_lie_bracket and rep.dirac, name


def test_d_structure_rejects_wrong_cell_length():
    """A short cell, and at n = 3 a mu short or long in its rows, cells or
    cell entries, is refused, not read in part or past its end."""
    iso = build_omni_iso(2)
    mu = [[[0, 0], [0]], [[0, 0], [0, 0]]]
    with pytest.raises(OmniError, match="wrong length"):
        d_structure_check(iso, mu)
    iso = build_omni_iso(3)
    for size, rows, cells in ((2, 3, 3), (3, 2, 3), (3, 3, 2), (3, 4, 4),
                              (4, 3, 3), (3, 4, 3), (3, 3, 4)):
        mu = [[[0] * size for _ in range(cells)] for _ in range(rows)]
        with pytest.raises(OmniError, match="wrong length"):
            d_structure_check(iso, mu)
