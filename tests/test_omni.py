"""The gl(V) (+) V model and its realization on V[1]."""

import importlib.util
from pathlib import Path

import pytest

from hccourant.exactlin import Q, QMatrix, nullspace, sparse_table
from hccourant.omni import (FORM_SCALAR, OmniError, build_omni_iso,
                            d_structure_check, mu_tilde, omni_element,
                            omni_pairing, verify_ev1, verify_main_theorem,
                            weinstein_bracket)
from conftest import rng_for


def _load_script(name):
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _elem(n, xi, v):
    return omni_element(n, xi, v)


def _zero_mu(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def test_weinstein_bracket_formula():
    I = ((1, 0), (0, 1))
    z = ((0, 0), (0, 0))
    e = _elem(2, I, (0, 0))
    br = weinstein_bracket(e, e)
    assert all(all(x == 0 for x in row) for row in br.xi)
    xi = ((1, 2), (3, 4))
    a = _elem(2, xi, (0, 0))
    b = _elem(2, z, (1, 1))
    br = weinstein_bracket(a, b)
    assert br.v == (Q(3), Q(7))
    assert all(all(x == 0 for x in row) for row in br.xi)


def test_weinstein_bracket_is_leibniz():
    rng = rng_for("leibniz")
    n = 3
    for _ in range(25):
        es = [_elem(n, [[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(n)],
                    [rng.randint(-3, 3) for _ in range(n)])
              for _ in range(3)]
        e1, e2, e3 = es
        lhs = weinstein_bracket(e1, weinstein_bracket(e2, e3))
        rhs1 = weinstein_bracket(weinstein_bracket(e1, e2), e3)
        rhs2 = weinstein_bracket(e2, weinstein_bracket(e1, e3))
        assert lhs.xi == tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(rhs1.xi, rhs2.xi))
        assert lhs.v == tuple(a + b for a, b in zip(rhs1.v, rhs2.v))


def test_omni_pairing_symmetric_and_value():
    xi = ((2, 0), (0, 2))
    a = _elem(2, xi, (0, 0))
    b = _elem(2, ((0, 0), (0, 0)), (1, 3))
    assert omni_pairing(a, b) == (Q(1), Q(3))  # (1/2) xi v
    assert omni_pairing(a, b) == omni_pairing(b, a)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_omni_pairing_nondegenerate(n):
    """(e, .) = 0 forces e = 0, solved as an exact linear system."""
    dim = n * n + n

    def unflatten(c):
        xi = tuple(tuple(c[i * n + j] for j in range(n)) for i in range(n))
        return _elem(n, xi, tuple(c[n * n:]))

    basis = [unflatten(tuple(Q(1) if k == i else Q(0) for k in range(dim)))
             for i in range(dim)]
    rows = []
    for b in basis:
        row = []
        for c in basis:
            row.extend(omni_pairing(b, c))
        rows.append(row)
    # e = sum x_b basis_b is degenerate iff x annihilates every row block:
    # x . M = 0, i.e. x in the nullspace of the transpose
    M = QMatrix(rows, cols=dim * n)
    assert nullspace(M.transpose()).rows == 0


def test_shape_mismatch_rejected():
    z3 = tuple((0, 0, 0) for _ in range(3))
    with pytest.raises(OmniError):
        weinstein_bracket(_elem(2, ((0, 0), (0, 0)), (0, 0)),
                          _elem(3, z3, (0, 0, 0)))
    with pytest.raises(OmniError):
        omni_element(2, ((0, 0), (0, 0)), (0, 0, 0))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_ev1_dimensions(n):
    rep = verify_ev1(n)
    assert rep.ok, rep.to_json()


@pytest.mark.parametrize("n", (2, 3))
def test_main_theorem(n):
    iso, rep = verify_main_theorem(n)
    assert rep.ok, rep.to_json()
    assert rep.form_scalar == FORM_SCALAR == 2


def test_iso_roundtrip():
    iso = build_omni_iso(2)
    rng = rng_for("roundtrip")
    for _ in range(10):
        e = _elem(2, [[rng.randint(-3, 3) for _ in range(2)]
                      for _ in range(2)],
                  [rng.randint(-3, 3) for _ in range(2)])
        back = iso.from_eps(iso.to_eps(e))
        assert back.xi == e.xi and back.v == e.v


def test_mu_tilde():
    n = 3
    mu = _zero_mu(n)
    mu[0][1][2] = 1  # mu(v1, v2) = v3
    m = mu_tilde(n, sparse_table(tuple(tuple(Q(x) for x in c) for c in r)
                                 for r in mu), (Q(1), Q(0), Q(0)))
    assert m[2][1] == 1
    assert sum(abs(x) for row in m for x in row) == 1


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
    corpus = _load_script("omni_corpus")
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
    iso = build_omni_iso(2)
    mu = [[[0, 0], [0]], [[0, 0], [0, 0]]]
    with pytest.raises(OmniError, match="wrong length"):
        d_structure_check(iso, mu)
