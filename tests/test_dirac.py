"""Isotropy, maximal isotropy, closure, Poisson graphs, two-form graphs."""

import copy
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hccourant import dirac
from hccourant.dirac import (BracketTable, DiracError, DiracVerdict,
                             LieAlgebroidReport, Submodule,
                             _algebroid_defects, _anchor_table,
                             _check_biderivation,
                             _two_form_conditions, biderivation_space,
                             find_two_form_witness, is_bracket_closed,
                             is_dirac, is_maximally_isotropic, is_poisson,
                             is_z_stable, lie_algebroid_check, lie_laws,
                             make_bracket_table, poisson_graph, project,
                             table_from_flat, two_form, two_form_graph)
from hccourant.exactlin import (Q, QMatrix, Span, _over, bilinear, combine,
                                combine_tables, contract, dense, nullspace,
                                pullback, rank, rat_str, row_space,
                                row_combination, sparse, sparse_row,
                                sparse_table, vec)
from hccourant import hochschild
from hccourant.algebra import (GuardError, build_v1, make_algebra,
                               matrix_algebra)
from hccourant.cli import main as cli_main
from hccourant.courant import CourantError, EpsilonSpace, ESpace
from hccourant.hochschild import (Chain, boundaries, cochain_from_flat,
                                  connes_B, derivation_basis, homology,
                                  interior_product)
from hccourant.files import (BUNDLED_ALGEBRAS, BUNDLED_TABLES,
                             load_algebra_ref, load_bracket_table,
                             load_submodule)
from hccourant import omni
from hccourant.omni import build_omni_iso, d_structure_check
from conftest import (_ref_is_derivation, cycles_and_boundaries,
                      dense_structure, is_number,
                      load_script, monomial_algebra, rand_combination,
                      rand_derivation, rand_vec, ref_center_action,
                      ref_center_coords, rng_for)


def _table(A, entries):
    d = A.dim
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, coords in entries:
        t[i][j] = coords
    return make_bracket_table(A, t)


@pytest.fixture(scope="module")
def v13(espaces, epsilons):
    return espaces["v1_3"].algebra, espaces["v1_3"], epsilons["v1_3"]


def _h1_summand(eps):
    E = eps.espace
    rows = [eps.reduce(tuple(Q(1) if k == i else Q(0)
                             for k in range(E.dim)))
            for i in range(E.h1co.dim)]
    return Submodule(eps, QMatrix(rows, cols=eps.dim))


def _h1_homology_summand(eps):
    E = eps.espace
    rows = [eps.reduce(tuple(Q(1) if k == E.h1co.dim + i else Q(0)
                             for k in range(E.dim)))
            for i in range(E.h1.dim)]
    return Submodule(eps, QMatrix(rows, cols=eps.dim))


def test_zero_submodule_trivially_isotropic_and_closed(v13):
    _, _, eps = v13
    L = Submodule(eps, QMatrix([], cols=eps.dim))
    assert L.isotropic
    closed, ce = is_bracket_closed(L)
    assert closed and ce is None
    assert not is_maximally_isotropic(L)


def test_full_space_not_isotropic(v13):
    _, _, eps = v13
    L = Submodule(eps, QMatrix.identity(eps.dim))
    assert not L.isotropic


def test_gl_summand_is_dirac(v13):
    _, _, eps = v13
    L = _h1_summand(eps)
    v = is_dirac(L)
    assert v.isotropic and v.maximal and v.closed and v.dirac
    assert is_z_stable(L)


def test_v_summand_is_dirac(v13):
    # graph of the zero bracket: the homology summand
    _, _, eps = v13
    L = _h1_homology_summand(eps)
    assert is_dirac(L).dirac


def test_line_inside_maximal_isotropic_is_not_maximal(v13):
    _, _, eps = v13
    L = _h1_summand(eps)
    line = Submodule(eps, QMatrix([L.vectors[0]], cols=eps.dim))
    assert line.isotropic
    assert not is_maximally_isotropic(line)
    perp = line.ambient.orthogonal(line.span.primitive_rows())
    assert perp.rows > line.dim


def _zero_table(A):
    return make_bracket_table(A, [[(0,) * A.dim] * A.dim] * A.dim)


def _nonjacobi_graph(espaces, epsilons):
    E, eps = espaces["v1_3"], epsilons["v1_3"]
    t = load_bracket_table("bracket_nonjacobi_v1_3", E.algebra)
    return poisson_graph(E, eps, t)[1]


@pytest.mark.parametrize("call, message", (
    (lambda E, e: Submodule(e["qx2"], QMatrix([], cols=e["qx2"].dim + 1)),
     "spanning vectors do not match the ambient"),
    (lambda E, e: project(e["qx2"], QMatrix([], cols=e["qx3"].espace.dim)),
     r"spanning vectors do not match E\(A\)"),
    (lambda E, e: make_bracket_table(E["qx2"].algebra, [[(0,)] * 2] * 2),
     "bracket table has wrong shape"),
    (lambda E, e: make_bracket_table(E["qx2"].algebra, [[(0, 0)] * 2]),
     "bracket table has wrong shape"),
    (lambda E, e: make_bracket_table(E["qx2"].algebra, [[(0, 0)]] * 2),
     "bracket table has wrong shape"),
    (lambda E, e: make_bracket_table(E["qx2"].algebra, [[(0, 0)] * 3] * 3),
     "bracket table has wrong shape"),
    (lambda E, e: make_bracket_table(E["qx2"].algebra, [[(0, 0)] * 3] * 2),
     "bracket table has wrong shape"),
    (lambda E, e: biderivation_space(E["ut2"].algebra),
     "biderivation space requires a commutative algebra"),
    (lambda E, e: poisson_graph(E["ut2"], EpsilonSpace(E["ut2"]),
                                _zero_table(E["qx2"].algebra)),
     "Poisson graphs require a commutative algebra"),
    (lambda E, e: poisson_graph(E["qx3"], e["qx3"],
                                _zero_table(E["qx2"].algebra)),
     "bracket table over a different algebra"),
    (lambda E, e: two_form_graph(EpsilonSpace(E["q"]), two_form(E["q"], ())),
     "the quotient is zero: Dirac structures undefined"),
    (lambda E, e: lie_algebroid_check(e["qx3"], _nonjacobi_graph(E, e)),
     "submodule is not over the given quotient"),
    (lambda E, e: lie_algebroid_check(e["v1_3"], _nonjacobi_graph(E, e)),
     "lie_algebroid_check requires a Dirac structure"),
    # V[1] at n = 1 is qx2: the same dimensions, another E(A)
    (lambda E, e: poisson_graph(E["v1_1"], e["qx2"],
                                _zero_table(E["v1_1"].algebra)),
     r"the quotient is not that of the given E\(A\)"),
    (lambda E, e: two_form_graph(e["qx2"], two_form(E["v1_1"], (0,))),
     r"the quotient is not that of the 2-form's E\(A\)")), ids=(
    "submodule-columns", "project-columns", "table-shape",
    "table-short-rows", "table-short-cells", "table-long",
    "table-long-cells",
    "biderivations-noncommutative", "graph-noncommutative",
    "graph-other-algebra", "two-form-graph-zero-quotient",
    "algebroid-other-quotient", "algebroid-not-dirac",
    "graph-other-quotient", "two-form-graph-other-quotient"))
def test_dirac_calls_refuse_what_they_cannot_read(espaces, epsilons, call,
                                                  message):
    with pytest.raises(DiracError, match=message):
        call(espaces, epsilons)


def test_is_dirac_requires_nonzero_quotient(espaces):
    E = espaces["qx2"]
    L = Submodule(E, QMatrix([], cols=E.dim))
    with pytest.raises(DiracError):
        is_dirac(L)  # pre-quotient ambient


def test_biderivation_law_enforced(v13):
    A, _, _ = v13
    # {v1, v2} = 1 violates the second-slot law on (v1, v2, v2):
    # {v1, v2 v2} = 0 but {v1,v2}v2 + v2{v1,v2} = 2 v2
    with pytest.raises(DiracError):
        _table(A, [(1, 2, [1, 0, 0, 0])])


def test_zero_table_graph_is_homology_summand(v13):
    A, E, eps = v13
    t = load_bracket_table("bracket_zero_v1_3", A)
    L_E, L = poisson_graph(E, eps, t)
    assert L.vectors == _h1_homology_summand(eps).vectors
    assert is_poisson(t)
    assert is_dirac(L).dirac


def test_poisson_graph_in_E_is_not_eliminated_until_read(v13):
    """A Submodule eliminates its span on first read, so the E(A) graph
    that a quotient verdict discards costs no elimination."""
    A, E, eps = v13
    L_E, _ = poisson_graph(E, eps, load_bracket_table("bracket_so3_v1_3", A))
    assert "span" not in vars(L_E)
    assert L_E.dim == L_E.spanning.rows and "span" in vars(L_E)


def test_so3_table_is_poisson_and_dirac(v13):
    A, E, eps = v13
    t = load_bracket_table("bracket_so3_v1_3", A)
    assert is_poisson(t)
    _, L = poisson_graph(E, eps, t)
    v = is_dirac(L)
    assert v.dirac
    rep = lie_algebroid_check(eps, L, rng=rng_for("algebroid"))
    assert rep.ok


def test_nonjacobi_table_not_poisson_not_dirac(v13):
    A, E, eps = v13
    t = load_bracket_table("bracket_nonjacobi_v1_3", A)
    assert not is_poisson(t)
    _, L = poisson_graph(E, eps, t)
    v = is_dirac(L)
    assert not v.dirac
    assert v.isotropic and not v.closed
    assert v.counterexample is not None


def test_qx2_forced_biderivation(espaces, epsilons):
    E = espaces["qx2"]
    A = E.algebra
    # {x, x} must satisfy {x, x*x} = 2x{x,x} -> 0 = 2x{x,x}: {x,x} in ann(x)
    space = biderivation_space(A)
    for row in space:
        t = table_from_flat(A, row)
        _, L = poisson_graph(E, epsilons["qx2"], t)
        assert is_poisson(t) == is_dirac(L).dirac


@pytest.mark.parametrize("name", ("qx3", "v1_1", "v1_2", "v1_3"))
def test_random_biderivations_poisson_iff_dirac(espaces, epsilons, name):
    E = espaces[name]
    eps = epsilons[name]
    A = E.algebra
    space = biderivation_space(A)
    rng = rng_for(f"bider/{name}")
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in range(space.rows)]
        t = table_from_flat(A, row_combination(coeffs, space))
        _, L = poisson_graph(E, eps, t)
        assert is_poisson(t) == is_dirac(L).dirac
    if name.startswith("v1_"):
        # random biderivations are almost never Poisson: Lie-Poisson tables
        # check the other side of the verdict
        corpus = load_script("omni_corpus")
        for _ in range(20):
            _, table = corpus.v1_lie_poisson_table(A.dim - 1, rng)
            t = make_bracket_table(A, table)
            _, L = poisson_graph(E, eps, t)
            assert is_poisson(t) and is_dirac(L).dirac


def _dense_lie_laws(n, mu):
    """(skew, jacobi) of a dense table, mu[i][j][k] the coordinate k of
    mu(e_i, e_j), with the cyclic Jacobi sum written out on its entries."""
    triples = list(itertools.product(range(n), repeat=3))
    skew = all(mu[i][j][k] == -mu[j][i][k] for i, j, k in triples)

    def outer(a, b, c, q):  # coordinate q of mu(mu(e_a, e_b), e_c)
        return sum(mu[a][b][m] * mu[m][c][q] for m in range(n))

    jacobi = all(outer(i, j, k, q) + outer(j, k, i, q) + outer(k, i, j, q)
                 == 0 for i, j, k in triples for q in range(n))
    return skew, jacobi


def test_lie_laws_match_dense_cyclic_sum():
    """Sparse random tables (mostly not skew), their skew parts and
    change-of-basis images of Lie brackets, so every (skew, jacobi) outcome
    is met; each also times a p/q, and metabelian brackets of a rational
    functional, so the Jacobi sums run on rational entries."""
    corpus = load_script("omni_corpus")
    rng = rng_for("lie_laws")
    seen = set()
    for n in (1, 2, 3, 4):
        for _ in range(30):
            mu = [[[rng.choice((-1, 0, 0, 0, 0, 0, 0, 1)) for _ in range(n)]
                   for _ in range(n)] for _ in range(n)]
            skew = [[[a - b for a, b in zip(mu[i][j], mu[j][i])]
                     for j in range(n)] for i in range(n)]
            tables = [mu, skew]
            if n > 1:
                tables.append(corpus.conjugated_lie_table(n, rng)[1])
            c = Q(rng.choice((-5, -1, 3)), rng.choice((2, 7)))
            tables += [[[[c * x for x in cell] for cell in row] for row in t]
                       for t in tables]
            tables.append(_metabelian_mu([Q(rng.randint(-3, 3),
                                            rng.randint(1, 4))
                                          for _ in range(n)]))
            for t in tables:
                laws = lie_laws(n, sparse_table(
                    tuple(vec(c) for c in row) for row in t))
                assert laws == _dense_lie_laws(n, t)
                seen.add(laws)
    assert seen == set(itertools.product((True, False), repeat=2))


# ---------------------------------------------------------------------------
# the verdicts that use skew-symmetry and isotropy against the brute-force
# bodies they replaced

NONZERO_E = ("qx2", "qx3", "v1_1", "v1_2", "v1_3")


def _ref_is_isotropic(L):
    vs = L.vectors.data
    for i in range(L.dim):
        for j in range(i, L.dim):
            if any(L.ambient.form(vs[i], vs[j])):
                return False
    return True


def _ref_is_maximally_isotropic(L):
    if not _ref_is_isotropic(L):
        return False
    perp = L.ambient.orthogonal(L.span.primitive_rows())
    in_L = Span(L.vectors).contains
    return rank(perp) == L.dim and all(in_L(r) for r in perp)


def _ref_is_bracket_closed(L):
    vs = L.vectors.data
    in_L = Span(L.vectors).contains
    for i in range(L.dim):
        for j in range(L.dim):
            b = L.ambient.bracket(vs[i], vs[j])
            if not in_L(b):
                return False, (i, j, b)
    return True, None


def _ref_is_z_stable(L):
    """Z-stability by the full loop: every centre basis element times every
    spanning vector lies in L."""
    Z, in_L = L.ambient.z_table, Span(L.spanning).contains
    return all(in_L(contract(((m, 1),), l, Z))
               for m in range(L.ambient.center_basis.rows)
               for l in L.spanning.sparse_rows)


def _ref_is_dirac(L):
    iso = _ref_is_isotropic(L)
    maximal = _ref_is_maximally_isotropic(L) if iso else False
    closed, ce = _ref_is_bracket_closed(L)
    return DiracVerdict(iso, maximal, closed, maximal and closed,
                        _ref_is_z_stable(L), ce)


def _ref_algebroid_laws(eps, L):
    """(skew, jacobi) of the bracket on L from its spanning vectors, Jacobi
    in Leibniz form on every triple:
    [[l_i, [[l_j, l_k]]]] = [[[[l_i, l_j]], l_k]] + [[l_j, [[l_i, l_k]]]]."""
    vs = L.vectors.data
    n = L.dim
    br = [[eps.bracket(a, b) for b in vs] for a in vs]
    skew = all(not any(a + b for a, b in zip(br[i][j], br[j][i]))
               for i in range(n) for j in range(n))
    nested = [[[eps.bracket(vs[i], br[j][k]) for k in range(n)]
               for j in range(n)] for i in range(n)]
    jacobi = all(
        nested[i][j][k] == tuple(p + q for p, q in zip(
            eps.bracket(br[i][j], vs[k]), nested[j][i][k]))
        for i in range(n) for j in range(n) for k in range(n))
    return skew, jacobi


def _ref_anchor_and_leibniz(eps, L, rng=None, z_samples=5):
    """(anchor_bracket, leibniz_rule) by the per-pair and per-triple loops
    the defect tables replaced, on the RREF rows of L, with z over the
    centre basis and then ``z_samples`` draws from ``rng``."""
    cdim = eps.center_basis.rows
    S, T, Z = dirac._anchor_table(eps), eps.bracket_table, eps.z_table
    units = QMatrix.identity(cdim).sparse_rows

    def sigma(u) -> QMatrix:  # rows: the images of the centre basis
        return QMatrix([contract(u, e, S) for e in units], cols=cdim)

    vs = L.vectors.sparse_rows
    n = L.dim
    br = [[contract(a, b, T) for b in vs] for a in vs]
    anchor_ok = True
    sigmas = [sigma(u) for u in vs]
    for i, si in enumerate(sigmas):
        for j, sj in enumerate(sigmas):
            # rows are images of the center basis, so composition reverses:
            # row k of sj si - si sj is sj[k] . si - si[k] . sj
            comm = QMatrix([[a - b for a, b in zip(row_combination(p, si),
                                                   row_combination(q, sj))]
                            for p, q in zip(sj, si)], cols=cdim)
            if sigma(br[i][j]) != comm:
                anchor_ok = False

    leibniz_ok = True
    draws = list(units)
    if rng is not None:
        for _ in range(z_samples):
            draws.append(sparse(vec(rng.randint(-3, 3) for _ in range(cdim))))
    for c in draws:
        zl = [contract(c, l, Z) for l in vs]
        for i in range(n):
            xz = combine(c, sigmas[i])
            for j in range(n):
                # [[l_i, z l_j]] = z [[l_i, l_j]] + X_i(z) l_j
                rhs = dict(contract(c, br[i][j], Z))
                for k, x in contract(xz, vs[j], Z):
                    rhs[k] = rhs[k] + x if k in rhs else x
                if contract(vs[i], zl[j], T) != sparse_row(rhs):
                    leibniz_ok = False
    return anchor_ok, leibniz_ok


def _ref_algebroid_report(eps, L, rng=None):
    return LieAlgebroidReport(*_ref_anchor_and_leibniz(eps, L, rng),
                              *_ref_algebroid_laws(eps, L))


def _summand(ambient, part):
    """The H^1 ("x") or H_1 ("alpha") summand of E(A), as rows in the
    coordinates of ``ambient`` (E(A) or the quotient); both are isotropic."""
    E = getattr(ambient, "espace", ambient)
    hc = E.h1co.dim
    units = list(QMatrix.identity(E.dim))
    rows = units[:hc] if part == "x" else units[hc:]
    if ambient is not E:
        rows = [ambient.reduce(r) for r in rows]
    return QMatrix(rows, cols=ambient.dim)


_rationals = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_verdicts_match_brute_force_bodies(epsilons, data):
    """Submodules of E(A) and of the quotient of every dimension: free
    rational rows (mostly not isotropic) and combinations inside the
    isotropic H^1 and H_1 summands."""
    eps = epsilons[data.draw(st.sampled_from(NONZERO_E))]
    ambient = data.draw(st.sampled_from((eps.espace, eps)))
    n = ambient.dim
    d = data.draw(st.integers(0, n))
    part = data.draw(st.sampled_from(("free", "x", "alpha")))
    if part == "free":
        rows = [data.draw(st.lists(_rationals, min_size=n, max_size=n))
                for _ in range(d)]
    else:
        basis = _summand(ambient, part)
        coeffs = st.lists(st.integers(-2, 2), min_size=basis.rows,
                          max_size=basis.rows)
        rows = [row_combination(data.draw(coeffs), basis) for _ in range(d)]
    L = Submodule(ambient, QMatrix(rows, cols=n))
    assert L.isotropic == _ref_is_isotropic(L)
    assert is_maximally_isotropic(L) == _ref_is_maximally_isotropic(L)
    assert is_bracket_closed(L) == _ref_is_bracket_closed(L)
    if L.ambient.quotient:
        verdict = is_dirac(L)
        assert verdict.to_json() == _ref_is_dirac(L).to_json()
        if verdict.dirac:
            rep = lie_algebroid_check(eps, L)
            assert (rep.skew, rep.jacobi) == _ref_algebroid_laws(eps, L)


def test_closure_counterexample_below_the_diagonal():
    """On a submodule that is not isotropic the bracket is not skew, and the
    only failing pair can lie below the diagonal: (1, 0) here, the second
    time with a pivot entry 2, so the RREF bracket is half the integer one.
    The failing verdict builds no RREF."""
    eps = EpsilonSpace(ESpace(load_algebra_ref("qx3")))
    for rows, pivots in (([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
                          (1, 1, 1)),
                         ([[3, 0, 0, 0], [-1, 0, 0, 2], [-1, 2, -1, 0]],
                          (1, 2, 1))):
        L = Submodule(eps, QMatrix(rows))
        assert not L.isotropic
        assert tuple(row[0][1]
                     for row in L.span.primitive_rows()) == pivots
        closed, ce = is_bracket_closed(L)
        assert not closed and ce[:2] == (1, 0)
        assert "vectors" not in L.__dict__
        assert (closed, ce) == _ref_is_bracket_closed(L)
        assert is_dirac(L).to_json() == _ref_is_dirac(L).to_json()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_failing_closure_builds_no_rref(epsilons, data):
    """Submodules of E(A) and of the quotient drawn in echelon form with
    pivot entries 2 and 3, so that they are the integer rows and every
    p_i p_j != 1: the closure verdict builds no RREF, and a counterexample
    is the brute-force one on the RREF rows."""
    eps = epsilons[data.draw(st.sampled_from(NONZERO_E))]
    ambient = data.draw(st.sampled_from((eps.espace, eps)))
    n = ambient.dim
    pivots = sorted(data.draw(st.sets(st.integers(0, n - 2), min_size=1,
                                      max_size=min(n - 1, 4))))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = data.draw(st.sampled_from((2, 3)))
        for k in range(p + 1, n):
            if k not in pivots:
                row[k] = data.draw(st.integers(-3, 3))
        if math.gcd(*row) != 1:
            row[n - 1] = 1
        rows.append(row)
    L = Submodule(ambient, QMatrix(rows, cols=n))
    assert L.span.primitive_rows() == tuple(sparse(r) for r in rows)
    closed, ce = is_bracket_closed(L)
    assert "vectors" not in L.__dict__
    assert (closed, ce) == _ref_is_bracket_closed(L)


def _ref_d_graph(iso, mu):
    """The D-structure graph by the dense body the sparse rows replaced:
    row i is the flattened matrix with column j = mu(v_i, v_j), then v_i,
    mapped by ``iso.fwd``."""
    n = iso.n
    T = sparse_table(tuple(tuple(vec(c) for c in r) for r in mu))
    units = QMatrix.identity(n)
    rows = []
    for v in units:
        cols = [bilinear(v, e, T, n) for e in units]
        rows.append(row_combination(tuple(cols[j][a] for a in range(n)
                                          for j in range(n)) + v, iso.fwd))
    return Submodule(iso.eps, QMatrix(rows, cols=iso.eps.dim))


def test_d_structure_counterexample_matches_dense_reference():
    """Non-Lie mu, skew (isotropic graph) and not: the verdict, with the
    first failing pair in row-major order and its dense bracket, is the
    brute-force one on the dense graph."""
    iso = build_omni_iso(3)
    rng = rng_for("d-structure-counterexample")
    failures = {True: 0, False: 0}  # keyed by isotropy of the graph
    for k in range(30):
        mu = [[[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
              for _ in range(3)]
        if k % 2:  # skew: the graph is isotropic and the closure decides
            mu = [[[mu[i][j][a] - mu[j][i][a] for a in range(3)]
                   for j in range(3)] for i in range(3)]
        rep = d_structure_check(iso, mu)
        L = _ref_d_graph(iso, mu)
        assert rep.verdict.to_json() == _ref_is_dirac(L).to_json()
        ce = rep.verdict.counterexample
        if ce is not None:
            assert ce == _ref_is_bracket_closed(L)[1]
            assert all(is_number(x) for x in ce[2])
            failures[L.isotropic] += 1
    assert failures[True] and failures[False]


def _scaled(c, table) -> list:
    """c times a nested list of rationals, as Q entries."""
    if isinstance(table, (list, tuple)):
        return [_scaled(c, x) for x in table]
    return Q(c) * table


def _scaled_nonjacobi(A, c) -> BracketTable:
    """The non-Jacobi pin's table times c: the same graph, with fractional
    RREF rows once c is not an integer."""
    return make_bracket_table(
        A, _scaled(c, load_bracket_table("bracket_nonjacobi_v1_3", A).table))


def _has_fractional_rows(L) -> bool:
    return any(not isinstance(x, int) for r in L.vectors for x in r)


def _fractional_graphs(v13):
    """``(L, verdict)`` pairs of non-Dirac graphs whose RREF rows have
    denominators and of the package's verdict on them: the non-Jacobi
    Poisson pin scaled by non-integers (``is_dirac``), and uniform
    {-1, 0, 1} mu tables on V = Q^3 scaled by seeded p/q (the graph by
    ``_ref_d_graph``, the verdict by ``d_structure_check``)."""
    A, E, eps = v13
    out = []
    for c in ("2/3", "-5/2", "7/4"):
        L = poisson_graph(E, eps, _scaled_nonjacobi(A, Q(c)))[1]
        out.append((L, is_dirac(L)))
    iso = build_omni_iso(3)
    rng = rng_for("fractional-graphs")
    while len(out) < 13:
        c = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        mu = [[[c * rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
              for _ in range(3)]
        L = _ref_d_graph(iso, mu)
        if _has_fractional_rows(L):
            out.append((L, d_structure_check(iso, mu).verdict))
    return out


def test_int_rows_are_positive_multiples_of_the_rref(v13, epsilons):
    """Each integer row of a Submodule is its RREF row times the integer row's
    (positive) pivot entry, on the fractional graphs and on seeded rational
    submodules of every quotient and E(A)."""
    subs = [L for L, _ in _fractional_graphs(v13)]
    for name, eps in sorted(epsilons.items()):
        rng = rng_for(f"int-rows/{name}")
        for amb in (eps.espace, eps):
            for count in range(1, amb.dim + 1):
                subs.append(Submodule(amb, QMatrix(
                    [[Q(rng.randint(-4, 4), rng.randint(1, 4))
                      for _ in range(amb.dim)] for _ in range(count)],
                    cols=amb.dim)))
    assert sum(map(_has_fractional_rows, subs)) > len(subs) // 2
    for L in subs:
        rows = L.span.primitive_rows()
        assert len(rows) == L.dim
        for row, ref in zip(rows, L.vectors.sparse_rows):
            assert all(type(x) is int for _, x in row)
            p, c = row[0]
            assert c > 0 and ref[0] == (p, 1)
            assert row == tuple((k, c * x) for k, x in ref)


def test_fractional_counterexample_matches_dense_reference(v13):
    """A graph with fractional RREF rows that is not closed: the verdict and
    its counterexample, the bracket of the RREF rows, are the brute-force
    ones on ``L.vectors``; the D-structure check reports the same."""
    graphs = _fractional_graphs(v13)
    for L, verdict in graphs:
        assert _has_fractional_rows(L)
        assert not verdict.closed
        assert verdict.to_json() == _ref_is_dirac(L).to_json()
        assert verdict.counterexample == _ref_is_bracket_closed(L)[1]
        assert all(is_number(x) for x in verdict.counterexample[2])
    # a non-integral entry in the bracket: the integer rows' own bracket
    # would differ from the reported one
    assert any(not isinstance(x, int) for _, verdict in graphs
               for x in verdict.counterexample[2])


@pytest.mark.parametrize("name", NONZERO_E)
def test_dimension_alone_is_not_maximality(epsilons, name):
    """A submodule that is not isotropic can have an orthogonal of its own
    dimension, in E(A) and in the quotient; it is still not maximally
    isotropic."""
    eps = epsilons[name]
    rng = rng_for(f"perp-dimension/{name}")
    for ambient in (eps.espace, eps):
        n = ambient.dim
        while True:
            L = Submodule(ambient, QMatrix(
                [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(n)]
                 for _ in range(rng.randint(1, n))], cols=n))
            perp = ambient.orthogonal(L.span.primitive_rows())
            if not _ref_is_isotropic(L) and perp.rows == L.dim:
                break
        assert not is_maximally_isotropic(L)
        if L.ambient.quotient:
            assert not is_dirac(L).maximal


@pytest.mark.parametrize("name", NONZERO_E)
def test_lie_algebroid_laws_match_leibniz_form(epsilons, name):
    """Dirac structures: both summands, the Poisson graphs of random
    biderivations that are Poisson, and, on V[1], Lie-Poisson graphs."""
    eps = epsilons[name]
    E, A = eps.espace, eps.algebra
    rng = rng_for(f"algebroid-laws/{name}")
    structures = [Submodule(eps, _summand(eps, part))
                  for part in ("x", "alpha")]
    space = biderivation_space(A)
    for _ in range(5):
        coeffs = [rng.randint(-2, 2) for _ in range(space.rows)]
        structures.append(poisson_graph(
            E, eps, table_from_flat(A, row_combination(coeffs, space)))[1])
    if name.startswith("v1_"):
        corpus = load_script("omni_corpus")
        for _ in range(3):
            table = corpus.v1_lie_poisson_table(A.dim - 1, rng)[1]
            structures.append(poisson_graph(
                E, eps, make_bracket_table(A, table))[1])
    checked = 0
    for L in structures:
        if is_dirac(L).dirac:
            seed = rng.randrange(2 ** 32)
            rep = lie_algebroid_check(eps, L, rng=random.Random(seed))
            assert rep == _ref_algebroid_report(eps, L, random.Random(seed))
            assert rep.ok
            checked += 1
    assert checked >= 2


def _flipped(table, i, j, k):
    """A copy of a sparse table with the sign of entry k of cell (i, j)
    flipped."""
    rows = [dict(row) for row in table]
    cell = dict(rows[i][j])
    cell[k] = -cell[k]
    rows[i][j] = tuple(sorted(cell.items()))
    return tuple(tuple(sorted(row.items())) for row in rows)


def _entries(table):
    return [(i, j, k) for i, row in enumerate(table) for j, cell in row
            for k, _ in cell]


@pytest.mark.parametrize("name", ("qx3", "v1_3"))
def test_perturbed_ambient_fails_the_algebroid_laws_as_the_loops_do(
        epsilons, monkeypatch, name):
    """One sign flipped in a copied quotient's anchor or Z table, before
    its defect tables are first built: the defects are no longer empty, and
    the report is the one the per-pair and per-triple loops give, with
    ``anchor_bracket`` and ``leibniz_rule`` each false for some flip."""
    eps = epsilons[name]
    graphs = _dirac_graphs(eps, rng_for(f"perturbed/{name}"))
    anchor = _anchor_table(eps)
    copies = {}  # id -> (copy, its anchor); holding the copy keeps ids unique
    monkeypatch.setattr(dirac, "_anchor_table",
                        lambda e: copies.get(id(e), (e, anchor))[1])
    failed = set()
    for table, entries in (("anchor", _entries(anchor)),
                           ("z_table", _entries(eps.z_table))):
        for i, j, k in entries:
            bent = copy.copy(eps)
            if table == "anchor":
                copies[id(bent)] = (bent, _flipped(anchor, i, j, k))
            else:
                bent.z_table = _flipped(eps.z_table, i, j, k)
            for L in graphs:
                M = Submodule(bent, L.spanning)
                rep = lie_algebroid_check(bent, M)
                assert rep == _ref_algebroid_report(bent, M), (table, i, j, k)
                if not rep.ok:
                    assert any(map(any, _algebroid_defects(bent)))
                failed |= {f for f in ("anchor_bracket", "leibniz_rule")
                           if not getattr(rep, f)}
    assert failed == {"anchor_bracket", "leibniz_rule"}


@pytest.mark.parametrize("n", (2, 3, 4))
def test_algebroid_laws_hold_on_the_whole_quotient(epsilons, n):
    """A fact of this corpus: the anchor and Leibniz defects are empty on
    every bundled quotient with epsilon(A) != 0 and on epsilon(V[1]) for
    n = 2..4, so the Lie-algebroid check of any Dirac structure there
    reduces to skew-symmetry and Jacobi."""
    spaces = [build_omni_iso(n).eps]
    if n == 2:
        spaces += [epsilons[name] for name in NONZERO_E]
    for eps in spaces:
        anchor, leibniz = _algebroid_defects(eps)
        assert len(anchor) == len(leibniz) == eps.dim
        assert not any(anchor) and not any(leibniz), eps.algebra.name


@pytest.fixture(scope="module")
def v1_spaces():
    """E(V[1]) and epsilon(V[1]) for n = 1..4, each built once."""
    spaces = {n: ESpace(build_v1(n)) for n in (1, 2, 3, 4)}
    return {n: (E, EpsilonSpace(E)) for n, E in spaces.items()}


def test_z_stability_matches_the_full_loop(espaces, epsilons, v1_spaces):
    """On the sweep's random subspaces (every other one closed under the
    centre) of every bundled E(A) and epsilon(A) and of epsilon(V[1]) for
    n = 2..4, ``is_z_stable`` (the non-scalar centre only) agrees with the
    loop over the whole centre basis; both outcomes occur on
    epsilon(qx3), E(v1_2) and E(v1_3)."""
    ambients = {f"E({name})": E for name, E in espaces.items() if E.dim}
    ambients.update((f"eps({name})", eps) for name, eps in epsilons.items())
    ambients.update((f"eps(V[1], n = {n})", v1_spaces[n][1])
                    for n in (2, 3, 4))
    sweep = load_script("poisson_dirac_sweep")
    for label, ambient in ambients.items():
        rng = rng_for(f"z-stable/{label}")
        seen = set()
        for L in sweep.random_subspaces(ambient, rng, 60):
            verdict = is_z_stable(L)
            assert verdict == _ref_is_z_stable(L), label
            seen.add(verdict)
        if label in ("eps(qx3)", "E(v1_2)", "E(v1_3)"):
            assert seen == {True, False}, label


def _acts_by_scalars(ambient) -> bool:
    """Every row of the Z table is empty or c times the identity, for c its
    first entry."""
    for row in ambient.z_table:
        c = row[0][1][0][1] if row else 0
        if row != tuple((a, ((a, c),)) for a in range(ambient.dim) if c):
            return False
    return True


def test_nonscalar_centre_of_the_corpus(epsilons, v1_spaces):
    """A fact of this corpus: the centre acts by scalars on epsilon(V[1])
    for n = 1..4 and on epsilon(qx2), epsilon(v1_2) and epsilon(v1_3), so
    ``is_z_stable`` tests nothing there; on epsilon(qx3) and on E(V[1])
    for n = 2..4 it does not, and the non-scalar centre is kept."""
    scalar = [eps for _, eps in v1_spaces.values()]
    scalar += [epsilons[name] for name in ("qx2", "v1_2", "v1_3")]
    for ambient in scalar:
        assert _acts_by_scalars(ambient)
        assert dirac._nonscalar_centre(ambient) == ()
    kept = [(epsilons["qx3"], (1,))]
    kept += [(v1_spaces[n][0], tuple(range(1, n + 1))) for n in (2, 3, 4)]
    for ambient, expected in kept:
        assert not _acts_by_scalars(ambient)
        assert dirac._nonscalar_centre(ambient) == expected


def test_perturbed_z_table_changes_z_stability_as_the_loop_does(epsilons):
    """One sign flipped in a copy of epsilon(qx3)'s Z table, after the
    original's non-scalar centre is cached: ``is_z_stable`` on the copy
    agrees with the full loop on the copy's table, and on some subspace
    both change their verdict, so the cache reads the table of the ambient
    it is given."""
    eps = epsilons["qx3"]
    sweep = load_script("poisson_dirac_sweep")
    subspaces = [L.spanning for L in sweep.random_subspaces(
        eps, rng_for("z-stable-perturbed"), 40)]
    before = [is_z_stable(Submodule(eps, M)) for M in subspaces]
    changed = 0
    for i, j, k in _entries(eps.z_table):
        bent = copy.copy(eps)
        bent.z_table = _flipped(eps.z_table, i, j, k)
        after = [is_z_stable(Submodule(bent, M)) for M in subspaces]
        assert after == [_ref_is_z_stable(Submodule(bent, M))
                         for M in subspaces], (i, j, k)
        changed += after != before
    assert changed


@pytest.mark.parametrize("name", ("qx3", "v1_2", "v1_3"))
def test_is_poisson_matches_dense_laws_on_non_skew_tables(espaces, name):
    """Random biderivations are rarely skew; ``is_poisson`` stops at the
    skew failure and must still agree with the full dense laws."""
    A = espaces[name].algebra
    d = A.dim
    space = biderivation_space(A)
    rng = rng_for(f"poisson-non-skew/{name}")
    non_skew = 0
    for _ in range(15):
        coeffs = [rng.randint(-3, 3) for _ in range(space.rows)]
        t = table_from_flat(A, row_combination(coeffs, space))
        skew, jacobi = _dense_lie_laws(d, t.table)
        assert is_poisson(t) == (skew and jacobi)
        non_skew += not skew
    assert non_skew


def test_two_form_zero_graph_is_gl_summand(v13):
    _, E, eps = v13
    from hccourant.hochschild import homology
    h2 = homology(E.algebra, 2)
    omega = two_form(E, (Q(0),) * h2.dim)
    L, verdict = two_form_graph(eps, omega)
    assert verdict.dirac
    assert L.vectors == _h1_summand(eps).vectors


@pytest.mark.parametrize("name", ("qx2", "qx3"))
def test_lie_algebroid_on_h1_summand(espaces, epsilons, name):
    """The zero two-form graph has a nonzero anchor, and on Q[x]/(x^n) the
    centre acts on epsilon, so every term of the Leibniz rule is seen; on
    V[1] the anchor term z.l vanishes for z in V."""
    from hccourant.hochschild import homology
    E, eps = espaces[name], epsilons[name]
    h2 = homology(E.algebra, 2)
    L, verdict = two_form_graph(eps, two_form(E, (0,) * h2.dim))
    assert verdict.dirac
    rep = lie_algebroid_check(eps, L, rng=rng_for(f"algebroid/{name}"))
    assert rep.ok, rep.to_json()


def test_two_form_witness_search_is_recorded(espaces):
    """The witness is row 0 of the canonical nullspace: on V[1], n = 2 the
    closed classes are the multiples of e_0."""
    witness, h2 = find_two_form_witness(espaces["v1_2"])
    assert h2.dim == 5
    assert witness.coords == (1, 0, 0, 0, 0)
    for name in ("qx2", "qx3", "v1_1"):
        assert find_two_form_witness(espaces[name])[0] is None


def _ref_two_form_conditions(E, h2, h3, coords):
    """The per-candidate loops the kernel system replaced, kept as its
    oracle on the H_3 presentation itself.  Returns whether B(omega) = 0 in
    H_3, and the pairs i <= j where i_X i_Y omega + i_Y i_X omega != 0 in
    H_0."""
    rep = h2.class_to_chain(vec(coords))
    closed = not any(h3.reduce_chain(connes_B(rep)))
    failing, units = [], QMatrix.identity(E.h1co.dim)
    for i in range(E.h1co.dim):
        X = E.derivation_of(units[i])
        for j in range(i, E.h1co.dim):
            Y = E.derivation_of(units[j])
            iY = interior_product(Y, rep)
            iX = interior_product(X, rep)
            s = interior_product(X, iY) + interior_product(Y, iX)
            if any(E.h0.reduce(s.row)):
                failing.append((i, j))
    return closed, failing


@pytest.fixture(scope="module")
def two_form_kernels(espaces, algebras):
    """``(E, h2, h3, kernel)`` per case: the kernel read off the boundaries
    im b_4, and H_3 for the oracle.  Besides the corpus: Q[x, y]/(x^2, y^2),
    Q[x, y]/(x^3, y^2) and M_2(Q[x]/(x^2)), dimension 8, under max_dim 8."""
    spaces = {name: espaces[name] for name in ("qx3", "v1_2", "v1_3")}
    spaces["qxy22"] = ESpace(monomial_algebra(2, 2))
    spaces["qxy32"] = ESpace(monomial_algebra(3, 2))
    spaces["M2(qx2)"] = ESpace(matrix_algebra(algebras["qx2"], 2), max_dim=8)
    out = {}
    for name, E in spaces.items():
        A, guard = E.algebra, E.max_dim
        h2, h3 = homology(A, 2, max_dim=guard), homology(A, 3, max_dim=guard)
        b3 = boundaries(A, 3, max_dim=guard)
        out[name] = (E, h2, h3, nullspace(_two_form_conditions(h2, b3)))
    return out


TWO_FORM_H2_DIMS = {"qx3": 2, "v1_2": 5, "v1_3": 14, "qxy22": 5,
                    "qxy32": 9, "M2(qx2)": 1}


@pytest.mark.parametrize("name,kernel_dim", [
    ("qx3", 0), ("v1_2", 1), ("v1_3", 3), ("qxy22", 1), ("qxy32", 2),
    ("M2(qx2)", 0)])
def test_two_form_kernel_agrees_with_reference(two_form_kernels, name,
                                               kernel_dim):
    """The kernel is the nullspace of B: H_2 -> H_3 on the H_3 coordinates,
    canonical basis and all, and nullspace membership and the ``two_form``
    verdict agree with the per-candidate loops, on random coordinates and
    on random members of the kernel; no pair ever fails alternation
    there."""
    E, h2, h3, kernel = two_form_kernels[name]
    assert (h2.dim, kernel.rows) == (TWO_FORM_H2_DIMS[name], kernel_dim)
    assert kernel == nullspace(QMatrix(
        [h3.reduce_chain(connes_B(h2.rep_chain(k))) for k in range(h2.dim)],
        cols=h3.dim).transpose())
    in_kernel = Span(kernel).contains
    rng = rng_for(f"two-form-kernel/{name}")
    draws = [rand_vec(rng, h2.dim) for _ in range(15)]
    draws += [rand_combination(rng, kernel) for _ in range(5)]
    for coords in draws:
        closed, failing = _ref_two_form_conditions(E, h2, h3, coords)
        assert failing == []
        assert in_kernel(coords) == closed
        if closed:
            assert two_form(E, coords).coords == coords
        else:
            with pytest.raises(DiracError, match="not closed"):
                two_form(E, coords)


@pytest.mark.parametrize("name", ("v1_2", "v1_3"))
def test_two_form_kernel_graphs_are_dirac(two_form_kernels, epsilons, name):
    """Every closed class, a basis vector or a random
    combination of the basis, has a Dirac graph."""
    E, h2, h3, kernel = two_form_kernels[name]
    rng = rng_for(f"two-form-graph/{name}")
    for coords in list(kernel) + [rand_combination(rng, kernel)
                                  for _ in range(3)]:
        omega = two_form(E, coords)
        assert two_form_graph(epsilons[name], omega)[1].dirac


def test_two_form_rejects_with_the_failing_condition(two_form_kernels):
    """The refusal names the first chain index where B(omega) leaves the
    boundaries im b_4, and the residual there."""
    E, h2, h3, _ = two_form_kernels["v1_2"]
    e1 = (0, 1, 0, 0, 0)
    with pytest.raises(DiracError, match=r"not closed: B\(omega\) leaves "
                       r"im b_4 at chain index 13, by 3$"):
        two_form(E, e1)
    with pytest.raises(DiracError, match="length mismatch"):
        two_form(E, (1, 0, 0, 0))


def test_two_form_refuses_a_malformed_omega_before_degree_3(espaces,
                                                            monkeypatch):
    """A wrong-length omega is refused right after H_2, before the rows of
    b_4 that the boundaries im b_4 (or an H_3) would need are built."""
    operator = hochschild.operator

    def no_degree_4(faces, d, n, degree):
        assert n != 4, "a degree-4 operator was built"
        return operator(faces, d, n, degree)

    monkeypatch.setattr(hochschild, "operator", no_degree_4)
    with pytest.raises(DiracError, match="length mismatch"):
        two_form(espaces["v1_3"], (1, 0, 0))


def test_the_two_form_path_builds_no_h3(espaces, monkeypatch, capsys):
    """Closedness is a boundary test, B omega against im b_4: with H_3
    refused, the witness search, ``two_form`` on a closed and on a
    non-closed class, and the ``two-form`` command all run, and the command
    still writes its pinned report."""
    homology_ = dirac.homology

    def no_h3(A, n, **kwargs):
        assert n != 3, "H_3 was built"
        return homology_(A, n, **kwargs)

    monkeypatch.setattr(dirac, "homology", no_h3)
    for name in ("v1_2", "v1_3"):
        assert find_two_form_witness(espaces[name])[0] is not None
    E, closed, open_ = espaces["v1_3"], [0] * 14, [0] * 14
    closed[0] = open_[3] = 1
    assert two_form(E, closed).coords == tuple(closed)
    with pytest.raises(DiracError, match="not closed"):
        two_form(E, open_)
    capsys.readouterr()
    assert cli_main(["two-form", "--algebra", "v1_3", "--format", "json"]) == 0
    pin = Path(__file__).parent / "data" / "two_form_v1_3.json"
    assert capsys.readouterr().out == pin.read_text(encoding="utf-8")


# the corpus, then Q[x, y]/(x^a, y^b) for (a, b) = (2, 2) and (3, 2), on
# which a single term i_X i_Y omega can be nonzero in H_0
ALTERNATION_CASES = [(name, None) for name in BUNDLED_ALGEBRAS] + [
    ("qxy22", (2, 2)), ("qxy32", (3, 2))]


@pytest.mark.parametrize("name,monomial", ALTERNATION_CASES,
                         ids=[name for name, _ in ALTERNATION_CASES])
def test_two_forms_alternate_on_every_class(algebras, name, monomial):
    """i_X i_Y omega + i_Y i_X omega = 0 in H_0 for random derivations X, Y
    and random 2-cycles omega: the cup product on HH^* is
    graded-commutative, which is why ``_two_form_conditions`` holds no
    alternation rows.  On the monomial algebras some single term is
    nonzero, so the sum vanishes by cancellation, not term by term."""
    A = monomial_algebra(*monomial) if monomial else algebras[name]
    h0, (Z2, _) = homology(A, 0), cycles_and_boundaries(A, 2)
    dbasis = derivation_basis(A)
    rng = rng_for(f"alternation/{name}")
    nonzero_terms = 0
    for _ in range(10):
        X, Y = (rand_derivation(rng, A, dbasis) for _ in range(2))
        omega = Chain(A, 2, rand_combination(rng, Z2))
        iXiY, iYiX = (interior_product(U, interior_product(V, omega))
                      for U, V in ((X, Y), (Y, X)))
        assert not any(h0.reduce_chain(iXiY + iYiX))
        nonzero_terms += any(h0.reduce_chain(iXiY))
    if monomial:
        assert nonzero_terms


def test_submodule_canonicalized_to_rref(v13):
    _, _, eps = v13
    v = tuple(Q(2) if k == 0 else Q(0) for k in range(eps.dim))
    L = Submodule(eps, QMatrix([v, v], cols=eps.dim))
    assert L.dim == 1
    assert L.vectors[0][0] == 1


def test_a_verdict_that_holds_builds_no_rref(v13, monkeypatch):
    """``is_dirac`` decides on the span and its integer rows alone: on a
    Dirac Poisson graph and a Dirac D-structure graph the RREF basis is
    never built, and reading it afterwards gives the RREF of the spanning
    rows, the pinned basis of the Poisson graph."""
    A, E, eps = v13
    _, L = poisson_graph(E, eps, load_bracket_table("bracket_so3_v1_3", A))
    assert is_dirac(L).dirac
    assert "vectors" not in L.__dict__
    pin = Path(__file__).parent / "data" / "poisson_graph_v1_3_so3.json"
    assert [[rat_str(x) for x in row] for row in L.vectors] == \
        json.loads(pin.read_text())["graph_basis_epsilon"]

    made = []

    class Recorded(Submodule):
        def __init__(self, ambient, vectors):
            super().__init__(ambient, vectors)
            made.append((self, vectors))

    monkeypatch.setattr(omni, "Submodule", Recorded)
    a = (1, 2, -1)  # mu(x, y) = a(x) y - a(y) x is a Lie bracket
    mu = [[[a[i] * (k == j) - a[j] * (k == i) for k in range(3)]
           for j in range(3)] for i in range(3)]
    assert d_structure_check(build_omni_iso(3), mu).dirac
    (L, spanning), = made
    assert "vectors" not in L.__dict__
    assert L.vectors == row_space(spanning)


# ---------------------------------------------------------------------------
# the one-rule biderivation laws against the dense loops they replaced

def _ref_biderivation_space(A):
    """The dense-row biderivation_space, one block per slot law."""
    d, S = A.dim, dense_structure(A)

    def pos(i, j, k):
        return (i * d + j) * d + k

    rows = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for m in range(d):
                    # second slot law, coordinate m
                    row = [Q(0)] * (d ** 3)
                    for s, c in enumerate(S[j][k]):
                        if c:
                            row[pos(i, s, m)] += c
                    for s in range(d):
                        ek = S[s][k][m]
                        if ek:
                            row[pos(i, j, s)] -= ek
                        ej = S[j][s][m]
                        if ej:
                            row[pos(i, k, s)] -= ej
                    rows.append(row)
                    # first slot law, coordinate m
                    row = [Q(0)] * (d ** 3)
                    for s, c in enumerate(S[j][k]):
                        if c:
                            row[pos(s, i, m)] += c
                    for s in range(d):
                        ek = S[s][k][m]
                        if ek:
                            row[pos(j, i, s)] -= ek
                        ej = S[j][s][m]
                        if ej:
                            row[pos(k, i, s)] -= ej
                    rows.append(row)
    return nullspace(QMatrix(rows, cols=d ** 3))


def _ref_check_biderivation(A, table):
    """The dense check: the message of the first law that fails, or None."""
    d, S = A.dim, dense_structure(A)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = [Q(0)] * d
                for s, c in enumerate(S[j][k]):
                    for m, t in enumerate(table[i][s]):
                        lhs[m] += c * t
                rhs = tuple(p + q for p, q in
                            zip(A.mul(table[i][j], A.basis_vector(k)),
                                A.mul(A.basis_vector(j), table[i][k])))
                if tuple(lhs) != rhs:
                    return ("second-slot biderivation law fails at "
                            f"({i},{j},{k})")
                lhs = [Q(0)] * d
                for s, c in enumerate(S[j][k]):
                    for m, t in enumerate(table[s][i]):
                        lhs[m] += c * t
                rhs = tuple(p + q for p, q in
                            zip(A.mul(table[j][i], A.basis_vector(k)),
                                A.mul(A.basis_vector(j), table[k][i])))
                if tuple(lhs) != rhs:
                    return ("first-slot biderivation law fails at "
                            f"({i},{j},{k})")
    return None


COMMUTATIVE = [name for name in BUNDLED_ALGEBRAS
               if load_algebra_ref(name).is_commutative()]


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_biderivation_space_matches_dense_reference(algebras, name):
    A = algebras[name]
    assert biderivation_space(A) == _ref_biderivation_space(A)


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_biderivation_check_matches_dense_reference(algebras, name):
    """Biderivations pass both checks; a table with one entry moved fails
    both, at the same law."""
    A = algebras[name]
    d = A.dim
    space = biderivation_space(A)
    rng = rng_for(f"bidercheck/{name}")
    for _ in range(10):
        flat = [Q(0)] * d ** 3
        for row in space:
            c = rng.randint(-2, 2)
            flat = [a + c * b for a, b in zip(flat, row)]
        if rng.random() < 0.8:
            flat[rng.randrange(d ** 3)] += rng.randint(1, 3)
        table = tuple(tuple(tuple(flat[(i * d + j) * d:(i * d + j + 1) * d])
                            for j in range(d)) for i in range(d))
        expected = _ref_check_biderivation(A, table)
        try:
            _check_biderivation(A, table)
            got = None
        except DiracError as exc:
            got = str(exc)
        assert got == expected


@pytest.mark.parametrize("name", ("qx3", "v1_2", "v1_3"))
def test_biderivation_check_names_the_first_law_a_mutant_breaks(algebras,
                                                                name):
    """On the algebras the suite draws tables for, seeded biderivations with
    one cell {e_i, e_j} moved, cell by cell: the sparse check raises
    exactly when the dense one finds a law broken, with its message."""
    A = algebras[name]
    d = A.dim
    space = biderivation_space(A)
    rng = rng_for(f"bidermutant/{name}")
    broken = 0
    for _ in range(3):
        flat = row_combination([rng.randint(-2, 2) for _ in range(space.rows)],
                               space)
        base = [[list(flat[(i * d + j) * d:(i * d + j + 1) * d])
                 for j in range(d)] for i in range(d)]
        assert _ref_check_biderivation(A, base) is None
        for i, j in itertools.product(range(d), repeat=2):
            table = copy.deepcopy(base)
            m = rng.randrange(d)
            table[i][j][m] += rng.choice((-2, -1, 1, Q(1, 2)))
            expected = _ref_check_biderivation(A, table)
            try:
                _check_biderivation(A, table)
                got = None
            except DiracError as exc:
                got = str(exc)
            assert got == expected, (i, j, m)
            broken += got is not None
    assert broken > d * d


# ---------------------------------------------------------------------------
# the hamiltonian and anchor tables against the loops they replaced

GRAPH_ALGEBRAS = ("qx2", "qx3", "v1_2", "v1_3")


@pytest.fixture(scope="module")
def bider_spaces(algebras):
    return {name: biderivation_space(algebras[name])
            for name in GRAPH_ALGEBRAS}


def _ref_on_chain(A, t, coords):
    """The flat cochain a {b, .} of a degree-1 chain, by the loop over
    (index, k) pairs that the hamiltonian table replaced."""
    d = A.dim
    rows = [[Q(0)] * d for _ in range(d)]
    for idx, c in enumerate(coords):
        if not c:
            continue
        i, j = divmod(idx, d)
        ei = A.basis_vector(i)
        for k in range(d):
            prod = A.mul(ei, t.table[j][k])
            for m, p in enumerate(prod):
                if p:
                    rows[k][m] += c * p
    return tuple(x for r in rows for x in r)


def test_hamiltonian_map_refuses_a_non_biderivation(v13):
    """A table that is not a biderivation (built past the validation of
    ``BracketTable``) gives a hamiltonian map, by the chain loop, that does
    not vanish on the H_1 boundaries: on it the graph is not well
    defined."""
    A, E, _ = v13
    d = A.dim
    table = [[(Q(0),) * d for _ in range(d)] for _ in range(d)]
    table[1][2] = (Q(1),) + (Q(0),) * (d - 1)
    table[2][1] = (Q(-1),) + (Q(0),) * (d - 1)
    t = object.__new__(BracketTable)
    object.__setattr__(t, "algebra", A)
    object.__setattr__(t, "table", tuple(map(tuple, table)))
    B = cycles_and_boundaries(A, 1)[1]
    assert any(any(_ref_on_chain(A, t, b)) for b in B)


def _ref_poisson_graph(E, eps, t):
    """The graph by the chain loop, which reads no table of ``dirac``: the
    hamiltonian map on each H_1 class rep, then ``E.h1co.reduce``."""
    A = E.algebra
    rows = [E.h1co.reduce(_ref_on_chain(A, t, rep)) + unit for rep, unit in
            zip(E.h1.class_reps, QMatrix.identity(E.h1.dim))]
    L_E = Submodule(E, QMatrix(rows, cols=E.dim))
    return L_E, Submodule(eps, QMatrix([eps.reduce(r) for r in L_E.vectors],
                                       cols=eps.dim))


def _bases(graph):
    L_E, L = graph
    return L_E.vectors, L.vectors


@pytest.mark.parametrize("name", ("qx3", "v1_2", "v1_3"))
def test_graph_map_matches_chain_reference(espaces, epsilons, bider_spaces,
                                           name):
    """Every basis biderivation, which by linearity spans every table, and
    seeded random biderivations: ``poisson_graph`` returns the bases of the
    chain-level reference."""
    E, eps, space = espaces[name], epsilons[name], bider_spaces[name]
    A = E.algebra
    rng = rng_for(f"graph-map/{name}")
    for row in [*space, *(rand_combination(rng, space) for _ in range(10))]:
        t = table_from_flat(A, row)
        assert _bases(poisson_graph(E, eps, t)) == _bases(
            _ref_poisson_graph(E, eps, t)), row


# the bundled commutative algebras with a nonzero biderivation (Q, the other
# one, has none), then Q[x, y]/(x^2, y^2)
HAMILTONIAN_CASES = [(name, None) for name in NONZERO_E] + [
    ("qxy22", (2, 2))]


@pytest.mark.parametrize("name,monomial", HAMILTONIAN_CASES,
                         ids=[name for name, _ in HAMILTONIAN_CASES])
def test_hamiltonian_values_are_derivations_vanishing_on_boundaries(
        algebras, name, monomial):
    """Why ``poisson_graph`` needs no refusal: for every basis biderivation
    the hamiltonian map a (x) b -> a {b, .}, by the chain loop, vanishes on
    every H_1 boundary (xy{z, .} - x{yz, .} + zx{y, .} = 0 by the Leibniz
    rule), and its value on every H_1 class rep is a derivation ({b, .} is
    one and A is commutative)."""
    A = monomial_algebra(*monomial) if monomial else algebras[name]
    space, h1 = biderivation_space(A), homology(A, 1)
    B = cycles_and_boundaries(A, 1)[1]
    assert space.rows and B.rows and h1.dim
    for row in space:
        t = table_from_flat(A, row)
        for b in B:
            assert not any(_ref_on_chain(A, t, b)), row
        for rep in h1.class_reps:
            assert _ref_is_derivation(
                A, cochain_from_flat(A, _ref_on_chain(A, t, rep))), row


def _ref_sigma(eps, u):
    """The anchor of u on the centre, by the body the anchor table replaced:
    row m is X(c_m) in centre coordinates, through the chain-level
    ``ref_center_action`` on the lift of u."""
    E = eps.espace
    cb = E.center_basis
    x = E.rho(eps.lift(u))
    return QMatrix([ref_center_coords(E, ref_center_action(E, x, z))
                    for z in cb], cols=cb.rows)


def _table_sigma(eps, u):
    """The same anchor as ``lie_algebroid_check`` contracts it: row m is
    ``bilinear(u, e_m, S, cdim)`` on the anchor table S."""
    cdim, S = eps.center_basis.rows, _anchor_table(eps)
    return QMatrix([bilinear(u, e, S, cdim)
                    for e in QMatrix.identity(cdim)], cols=cdim)


def _dirac_graphs(eps, rng):
    """Dirac structures: both summands (on qx3 the H^1 summand is the zero
    two-form graph, with a nonzero anchor), the Poisson graphs of the zero
    bracket and, on V[1], of Lie-Poisson tables."""
    E, A = eps.espace, eps.algebra
    found = [Submodule(eps, _summand(eps, part)) for part in ("x", "alpha")]
    found.append(poisson_graph(E, eps, _zero_table(A))[1])
    if A.name.startswith("V[1]"):
        corpus = load_script("omni_corpus")
        for _ in range(3):
            t = make_bracket_table(
                A, corpus.v1_lie_poisson_table(A.dim - 1, rng)[1])
            found.append(poisson_graph(E, eps, t)[1])
    return [L for L in found if is_dirac(L).dirac]


@pytest.mark.parametrize("name", GRAPH_ALGEBRAS)
def test_anchor_table_matches_center_action_on_dirac_graphs(epsilons, name):
    """Every spanning vector of a Dirac graph and every bracket of two, as
    ``lie_algebroid_check`` applies the anchor to them."""
    eps = epsilons[name]
    graphs = _dirac_graphs(eps, rng_for(f"anchor/{name}"))
    assert len(graphs) >= 3
    seen_nonzero = False
    for L in graphs:
        vs = L.vectors.data
        for u in vs + tuple(eps.bracket(a, b) for a in vs for b in vs):
            sigma = _ref_sigma(eps, u)
            assert _table_sigma(eps, u) == sigma
            seen_nonzero |= any(sigma.sparse_rows)
    assert seen_nonzero


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_anchor_table_matches_center_action_on_drawn_vectors(epsilons, data):
    eps = epsilons[data.draw(st.sampled_from(GRAPH_ALGEBRAS))]
    u = data.draw(st.lists(st.one_of(st.just(Q(0)), _rationals),
                           min_size=eps.dim, max_size=eps.dim))
    assert _table_sigma(eps, u) == _ref_sigma(eps, u)


def _from_products(name, basis, products, unit):
    """The algebra on ``basis`` whose nonzero products of basis elements
    are e_a e_b = t e_c for ``products[a, b] = (c, t)``."""
    d, at = len(basis), {b: k for k, b in enumerate(basis)}
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (a, b), (c, t) in products.items():
        table[at[a]][at[b]][at[c]] = t
    return make_algebra(name, basis, table, [int(b in unit) for b in basis])


def _lambda_minus_one():
    """E(A) for Lambda_{-1} = Q<x, y>/(x^2, y^2, xy + yx), basis 1, x, y,
    xy; its centre is spanned by 1 and xy."""
    basis = ("1", "x", "y", "xy")
    products = {("x", "y"): ("xy", 1), ("y", "x"): ("xy", -1)}
    for b in basis:
        products["1", b] = products[b, "1"] = (b, 1)
    return ESpace(_from_products("Lambda_-1", basis, products, ("1",)))


def _kronecker_espace() -> ESpace:
    """E(A) for A = Q[t]/(t^2) x K, K the Kronecker path algebra: its
    radical lies in the H^1 block."""
    basis = ("u", "t", "e1", "e2", "a", "b")
    products = {("u", "u"): ("u", 1), ("u", "t"): ("t", 1),
                ("t", "u"): ("t", 1), ("e1", "e1"): ("e1", 1),
                ("e2", "e2"): ("e2", 1), ("e1", "a"): ("a", 1),
                ("a", "e2"): ("a", 1), ("e1", "b"): ("b", 1),
                ("b", "e2"): ("b", 1)}
    return ESpace(_from_products("Q[t]/(t^2) x Kronecker", basis, products,
                                 ("u", "e1", "e2")))


def test_anchor_descends_when_the_radical_has_no_h1_part():
    """Lambda_{-1} is not commutative, yet its radical lies in the H_1
    summand: rho descends, and the anchor table is read through it, nonzero
    on class reps 0 and 3."""
    E = _lambda_minus_one()
    eps = EpsilonSpace(E)
    assert not E.algebra.is_commutative()
    assert eps.J.rows and not any(any(r[:E.h1co.dim]) for r in eps.J)
    for u in QMatrix.identity(eps.dim):
        assert eps.rho(u) == E.rho(eps.lift(u))
        assert _table_sigma(eps, u) == _ref_sigma(eps, u)
    assert [a for a, row in enumerate(_anchor_table(eps)) if row] == [0, 3]


def test_anchor_table_refuses_an_image_outside_the_centre(monkeypatch):
    """The anchor table splits each image X_a(c_m) against the centre: with
    every anchor read as the map 1 -> x (not a derivation), the image of
    the unit is x, which is not central in Lambda_{-1}, and the table
    raises instead of giving it centre coordinates."""
    E = _lambda_minus_one()
    eps = EpsilonSpace(E)
    to_x = QMatrix([(0, 1, 0, 0)] + [(0,) * 4] * 3, cols=4)
    monkeypatch.setattr(E, "derivation_of", lambda xcoords: to_x)
    with pytest.raises(DiracError, match="out of the centre"):
        _anchor_table(eps)


def test_anchor_is_refused_when_the_radical_has_an_h1_part():
    """On Q[t]/(t^2) x K, for K the Kronecker path algebra (H_1 = 0, so its
    derivation classes pair to zero), the radical has an H^1 part: rho
    does not descend, and the anchor table refuses as ``rho`` does."""
    E = _kronecker_espace()
    eps = EpsilonSpace(E)
    assert eps.dim and any(any(r[:E.h1co.dim]) for r in eps.J)
    with pytest.raises(CourantError, match="rho undefined"):
        eps.rho(QMatrix.identity(eps.dim)[0])
    with pytest.raises(CourantError, match="rho undefined"):
        _anchor_table(eps)


def test_two_form_guard_flows_from_the_space():
    """H_2 and H_3 of V[1], n = 6 (dimension 7) read chains of degrees 3
    and 4, whose default guard is 6: the space's own ``max_dim`` lifts it
    for the witness search and ``two_form``, and the default refuses."""
    A = build_v1(6)
    E = ESpace(A, max_dim=7)
    witness, h2 = find_two_form_witness(E)
    assert witness is not None and witness.h2.dim == h2.dim
    assert two_form(E, witness.coords).coords == witness.coords
    with pytest.raises(GuardError, match="degree 3"):
        find_two_form_witness(ESpace(A))
    with pytest.raises(GuardError, match="degree 3"):
        two_form(ESpace(A), witness.coords)


def test_algebroid_structure_constants_are_those_of_the_integer_rows(
        epsilons, monkeypatch):
    """The table ``lie_algebroid_check`` hands to ``lie_laws`` holds the
    coordinates of [[r_i, r_j]] over the integer rows r_k of ``L.echelon``:
    summed back on them it is the bracket, also where a lead entry is not
    1."""
    tables = []
    monkeypatch.setattr(dirac, "lie_laws",
                        lambda n, t: tables.append(t) or (True, True))
    lead_entries = set()
    for name in GRAPH_ALGEBRAS:
        eps = epsilons[name]
        for L in _dirac_graphs(eps, rng_for(f"constants/{name}")):
            lie_algebroid_check(eps, L)
            vs = [sparse_row(row) for row in L.echelon.values()]
            rows = QMatrix(vs, cols=eps.dim)
            for i, j in itertools.product(range(L.dim), repeat=2):
                cell = dict(tables[-1][i]).get(j, ())
                assert combine(cell, rows) == contract(vs[i], vs[j],
                                                       eps.bracket_table)
            lead_entries |= {row[p] for p, row in L.echelon.items()}
    assert lead_entries - {1}


# ---------------------------------------------------------------------------
# graphs of rational tables: their rows are cleared of denominators

SCALES = (Q(3, 7), Q(-5, 2), Q(9))


def _rational_graph(E, eps, t):
    """The graph of the rational rows (graph_j(t), e_{hc+j}), with a 1 at
    the H_1 unit, by the chain reference, and their projection to the
    quotient."""
    L_E = _ref_poisson_graph(E, eps, t)[0]
    return L_E, project(eps, L_E.spanning)


def _integral_spanning(L) -> bool:
    return all(type(x) is int for row in L.spanning.sparse_rows
               for _, x in row)


def _scale_cases(algebras, bider_spaces):
    """(name, table) pairs: so(3) and the non-Jacobi table on v1_3 (Dirac
    and not), and a seeded biderivation on v1_2 and qx3."""
    A = algebras["v1_3"]
    cases = [("v1_3", load_bracket_table(ref, A).table) for ref in (
        "bracket_so3_v1_3", "bracket_nonjacobi_v1_3")]
    for name in ("v1_2", "qx3"):
        flat = rand_combination(rng_for(f"scaled-graph/{name}"),
                                bider_spaces[name])
        cases.append((name, table_from_flat(algebras[name], flat).table))
    return cases


@pytest.mark.parametrize("c", SCALES, ids=map(str, SCALES))
def test_graph_of_a_scaled_table_is_the_rational_rows_graph(
        espaces, epsilons, algebras, bider_spaces, c):
    """c t on v1_3, v1_2 and qx3: ``poisson_graph`` offers its spans integer
    rows, m times the rational ones, and gives the bases and the verdict
    of the rational rows (graph_j(c t), e_{hc+j})."""
    verdicts, fractional = set(), 0
    for name, table in _scale_cases(algebras, bider_spaces):
        E, eps = espaces[name], epsilons[name]
        t = make_bracket_table(E.algebra, _scaled(c, table))
        L_E, L = poisson_graph(E, eps, t)
        ref_E, ref = _rational_graph(E, eps, t)
        assert _integral_spanning(L_E) and _integral_spanning(L)
        assert L_E.vectors == ref_E.vectors, name
        assert L.vectors == ref.vectors, name
        verdict = is_dirac(L).to_json()
        assert verdict == is_dirac(ref).to_json(), name
        verdicts.add(verdict["dirac"])
        fractional += not _integral_spanning(ref_E)
    assert verdicts == {True, False}
    assert fractional >= (2 if c.denominator > 1 else 0)


def _so3_mu(n: int) -> list:
    """so(3) on the first three coordinates of Q^n."""
    mu = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        mu[i][j][k], mu[j][i][k] = 1, -1
    return mu


def _mu_cases(n: int) -> list:
    """so(3) (Dirac), a seeded skew {-1, 0, 1} mu (not Lie, so its graph is
    isotropic and the closure decides) and at n = 4 a metabelian mu."""
    rng = rng_for(f"scaled-mu/{n}")
    mu = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
          for _ in range(n)]
    skew = [[[mu[i][j][a] - mu[j][i][a] for a in range(n)]
             for j in range(n)] for i in range(n)]
    cases = [_so3_mu(n), skew]
    if n == 4:
        a = (1, -2, 3, 1)
        cases.append([[[a[i] * (k == j) - a[j] * (k == i) for k in range(n)]
                       for j in range(n)] for i in range(n)])
    return cases


@pytest.mark.parametrize("c", SCALES, ids=map(str, SCALES))
@pytest.mark.parametrize("n", (3, 4))
def test_d_structure_of_a_scaled_mu_is_the_rational_rows_one(
        monkeypatch, n, c):
    """c mu at n = 3 and 4: ``d_structure_check`` offers its span integer
    rows and gives the basis and the verdict of the rational graph rows
    (mu(v_i, .), v_i) mapped by ``iso.fwd``."""
    iso = build_omni_iso(n)
    graphs = []
    monkeypatch.setattr(omni, "is_dirac",
                        lambda L: graphs.append(L) or is_dirac(L))
    verdicts = set()
    for mu in _mu_cases(n):
        mu = _scaled(c, mu)
        rep = d_structure_check(iso, mu)
        ref = _ref_d_graph(iso, mu)
        assert _integral_spanning(graphs[-1])
        assert graphs[-1].vectors == ref.vectors
        assert rep.verdict.to_json() == is_dirac(ref).to_json()
        assert rep.consistent
        verdicts.add(rep.dirac)
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", ("poisson-graph", "d-structure"))
def test_a_rational_graph_verdict_offers_its_spans_only_ints(
        v13, monkeypatch, kind):
    """During one verdict on so(3) times 3/7, as a Poisson graph on v1_3
    with its E(A) basis and as a D-structure at n = 3, every row and tag
    entry offered to a span is an int."""
    A, E, eps = v13
    iso = build_omni_iso(3)  # built before the spy: its spans are not read
    offered = []
    add = Span.add

    def spy(self, row, tag):
        offered.extend(x for _, x in row)
        offered.extend(tag.values())
        return add(self, row, tag)

    monkeypatch.setattr(Span, "add", spy)
    c = Q(3, 7)
    if kind == "poisson-graph":
        t = load_bracket_table("bracket_so3_v1_3", A)
        L_E, L = poisson_graph(E, eps, make_bracket_table(A, _scaled(
            c, t.table)))
        assert is_dirac(L).dirac and L_E.vectors.rows == L_E.dim
    else:
        assert d_structure_check(iso, _scaled(c, _so3_mu(3))).dirac
    assert offered and all(type(x) is int for x in offered)


# ---------------------------------------------------------------------------
# the verdict kernel against the bodies it replaced: maximality by the rank
# of every equation of L-perp, scanned off every cell of the form table, and
# isotropy and closure by one ``contract`` per pair

def _prior_orthogonal_rows(amb, rows) -> QMatrix:
    """The equations of L-perp by a scan of every cell of the form table for
    each row l: row (l, h) holds (e_k, l)_h at column k."""
    F, out = amb.form_table, []
    for l in rows:
        l = dict(l)
        block = [{} for _ in range(amb.h0_dim)]
        for k in range(amb.dim):
            for j, cell in F[k]:
                if j in l:
                    for h, t in cell:
                        block[h][k] = block[h].get(k, 0) + t * l[j]
        out += (sparse_row(b) for b in block)
    return QMatrix(out, cols=amb.dim)


def _prior_isotropic(L) -> bool:
    vs, F = L.span.primitive_rows(), L.ambient.form_table
    return not any(contract(vs[i], vs[j], F)
                   for i in range(L.dim) for j in range(i, L.dim))


def _prior_is_maximally_isotropic(L) -> bool:
    return _prior_isotropic(L) and L.ambient.dim - rank(_prior_orthogonal_rows(
        L.ambient, L.span.primitive_rows())) == L.dim


def _prior_is_bracket_closed(L):
    vs, T = L.span.primitive_rows(), L.ambient.bracket_table
    for i in range(L.dim):
        for j in range(i + 1 if _prior_isotropic(L) else 0, L.dim):
            b = contract(vs[i], vs[j], T)
            if not L.contains(b):
                p = vs[i][0][1] * vs[j][0][1]
                return False, (i, j, tuple(vec(Q(x) / p for x in dense(
                    b, L.ambient.dim))))
    return True, None


def _prior_is_dirac(L) -> DiracVerdict:
    maximal = _prior_is_maximally_isotropic(L)
    closed, ce = _prior_is_bracket_closed(L)
    return DiracVerdict(_prior_isotropic(L), maximal, closed,
                        maximal and closed, is_z_stable(L), ce)


def _assert_prior_verdicts(L) -> None:
    """Every verdict on L, and on the quotient every ``DiracVerdict`` field,
    its counterexample's entry types and its JSON, is the prior bodies'."""
    assert L.isotropic == _prior_isotropic(L)
    assert is_maximally_isotropic(L) == _prior_is_maximally_isotropic(L)
    got, ref = is_bracket_closed(L), _prior_is_bracket_closed(L)
    assert got == ref
    if got[1] is not None:
        assert list(map(type, got[1][2])) == list(map(type, ref[1][2]))
    if L.ambient.quotient:
        verdict, ref = is_dirac(L), _prior_is_dirac(L)
        assert verdict == ref and verdict.to_json() == ref.to_json()


@pytest.fixture(scope="module")
def omni_isos():
    return {n: build_omni_iso(n) for n in (2, 3, 4)}


def _d_graph(iso, mu) -> Submodule:
    """The D-structure graph of mu, built as ``d_structure_check`` builds
    it."""
    return Submodule(iso.eps, QMatrix.from_canonical(
        omni.d_graph_rows(iso, mu)[1], iso.eps.dim))


def _metabelian_mu(a) -> list:
    """mu(x, y) = a(x) y - a(y) x, a Lie bracket for every functional a."""
    n = len(a)
    return [[[a[i] * (k == j) - a[j] * (k == i) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _drawn_mu(data, n) -> list:
    kind = data.draw(st.sampled_from(("random", "skew", "metabelian")))
    if kind == "metabelian":
        return _metabelian_mu(data.draw(st.lists(st.integers(-3, 3),
                                                 min_size=n, max_size=n)))
    cell = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    mu = [[data.draw(cell) for _ in range(n)] for _ in range(n)]
    if kind == "skew":
        mu = [[[mu[i][j][a] - mu[j][i][a] for a in range(n)]
               for j in range(n)] for i in range(n)]
    return mu


def _dropped(L, i) -> Submodule:
    """L less its integer row i (mod dim L)."""
    rows = L.span.primitive_rows()
    rows = rows[:i % L.dim] + rows[i % L.dim + 1:]
    return Submodule(L.ambient, QMatrix(rows, cols=L.ambient.dim))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verdict_kernel_matches_the_prior_bodies(espaces, epsilons, algebras,
                                                 bider_spaces, omni_isos,
                                                 data):
    """Poisson graphs of integral and scaled biderivations (in the quotient
    and in the E(A) pre-quotient view), D-structure graphs at n = 2..4,
    spanning sets with dependent rows, and Dirac graphs with a row
    dropped."""
    kind = data.draw(st.sampled_from(
        ("poisson", "d-structure", "spanning", "dropped")))
    graphs = []
    if kind == "poisson":
        name = data.draw(st.sampled_from(GRAPH_ALGEBRAS))
        A, E, eps = algebras[name], espaces[name], epsilons[name]
        coeffs = data.draw(st.lists(st.integers(-3, 3),
                                    min_size=bider_spaces[name].rows,
                                    max_size=bider_spaces[name].rows))
        c = data.draw(st.sampled_from((1, Q(3, 7), Q(-5, 2))))
        flat = [c * x for x in row_combination(coeffs, bider_spaces[name])]
        graphs += poisson_graph(E, eps, table_from_flat(A, flat))
    if kind == "d-structure":
        iso = omni_isos[data.draw(st.integers(2, 4))]
        graphs.append(_d_graph(iso, _drawn_mu(data, iso.n)))
    if kind == "dropped":
        eps = epsilons[data.draw(st.sampled_from(GRAPH_ALGEBRAS))]
        iso = omni_isos[data.draw(st.integers(2, 4))]
        mu = _metabelian_mu(data.draw(st.lists(
            st.integers(-3, 3), min_size=iso.n, max_size=iso.n)))
        dirac_graphs = _dirac_graphs(eps, random.Random(
            data.draw(st.integers(0, 99)))) + [_d_graph(iso, mu)]
        graphs = [_dropped(L, data.draw(st.integers(0, 9)))
                  for L in dirac_graphs if L.dim]
        for L in graphs:
            assert L.isotropic and not is_maximally_isotropic(L)
    if kind == "spanning":
        eps = epsilons[data.draw(st.sampled_from(NONZERO_E))]
        amb = data.draw(st.sampled_from((eps.espace, eps)))
        n, entry = amb.dim, st.sampled_from((0, 0, 0, 1, -1, 2, Q(1, 2)))
        rows = [data.draw(st.lists(entry, min_size=n, max_size=n))
                for _ in range(data.draw(st.integers(1, n)))]
        for _ in range(data.draw(st.integers(1, 3))):
            f = data.draw(st.integers(-2, 2))
            a, b = data.draw(st.sampled_from(rows)), data.draw(
                st.sampled_from(rows))
            rows.append([x + f * y for x, y in zip(a, b)])
        graphs.append(Submodule(amb, QMatrix(rows, cols=n)))
    for L in graphs:
        _assert_prior_verdicts(L)


@pytest.mark.parametrize("name", GRAPH_ALGEBRAS)
def test_a_dirac_graph_less_a_row_is_isotropic_and_not_maximal(
        epsilons, omni_isos, name):
    """Every Dirac graph of ``_dirac_graphs`` and the so(3) D-structures
    at n = 3, 4, less any one of its rows: isotropic, not maximal, and as
    the prior bodies judge it."""
    eps = epsilons[name]
    graphs = _dirac_graphs(eps, rng_for(f"dropped/{name}"))
    graphs += [_d_graph(omni_isos[n], _so3_mu(n)) for n in (3, 4)]
    for L in graphs:
        assert is_maximally_isotropic(L)
        for i in range(L.dim):
            L_less = _dropped(L, i)
            assert L_less.isotropic and not is_maximally_isotropic(L_less)
            _assert_prior_verdicts(L_less)


def _blocks(amb) -> tuple:
    """The two coordinate blocks [lo, hi) of a space: H^1, then H_1."""
    return (0, amb.x_dim), (amb.x_dim, amb.dim)


def _inside_a_block(amb, rng) -> list:
    """For each block W with n - |W| < |W|: a random L inside W of
    dimension n - |W|, isotropic as W is.  That is the dimension of W's
    complements, yet L meets W, and the other block is smaller than W, so
    L complements neither."""
    n, found = amb.dim, []
    for lo, hi in _blocks(amb):
        k = n - (hi - lo)
        while 0 < k < hi - lo:
            rows = [[rng.randint(-2, 2) if lo <= c < hi else 0
                     for c in range(n)] for _ in range(k)]
            L = Submodule(amb, QMatrix(rows, cols=n))
            if L.dim == k:
                found.append(L)
                break
    return found


def _two_form_graphs(E, eps, rng) -> list:
    """Graphs {(X, i_X omega)} of a random closed 2-form class, in E(A) and
    projected to the quotient, with the rows ``two_form_graph`` builds."""
    h2 = homology(E.algebra, 2)
    kernel = nullspace(dirac._two_form_conditions(
        h2, boundaries(E.algebra, 3)))
    coeffs = [rng.randint(-2, 2) for _ in range(kernel.rows)]
    rep = h2.class_to_chain(row_combination(coeffs, kernel)
                            if kernel.rows else (0,) * h2.dim)
    rows = [unit + E.h1.reduce_chain(interior_product(X, rep))
            for unit, X in zip(QMatrix.identity(E.h1co.dim), E.derivations)]
    spanning = QMatrix(rows, cols=E.dim)
    return [Submodule(E, spanning), project(eps, spanning)]


def _offered_rows(L, monkeypatch) -> list:
    """(span dim, row) for every row ``is_maximally_isotropic(L)`` offers
    to a span; its verdict must be the prior body's."""
    L.span, L.isotropic  # the span of L is built before the spy
    offered, add = [], Span.add
    monkeypatch.setattr(Span, "add", lambda self, row, tag: offered.append(
        (self.dim, list(row))) or add(self, row, tag))
    maximal = is_maximally_isotropic(L)
    monkeypatch.setattr(Span, "add", add)
    assert maximal == _prior_is_maximally_isotropic(L)
    return offered


@pytest.mark.parametrize("name", GRAPH_ALGEBRAS)
def test_maximality_offers_its_span_only_non_pivot_columns(
        epsilons, omni_isos, name, monkeypatch):
    """Where the quotient's complement test does not decide, the equations
    of L-perp reach their span on the non-pivot columns of L alone, and
    none is offered once the span has rank n - dim L: Dirac graphs less a
    row, an L inside a block W of dimension n - |W|, which the quotient's
    complement test rules out by its empty restricted row, offering
    nothing, so the equations decide, and 2-form graphs and both
    summands in E(A), which complement a block but take this path there."""
    eps = epsilons[name]
    graphs = _dirac_graphs(eps, rng_for(f"offered/{name}"))
    graphs += [_d_graph(omni_isos[n], _so3_mu(n)) for n in (3, 4)]
    graphs = [_dropped(L, 0) for L in graphs if L.dim]
    rng = rng_for(f"inside/{name}")
    graphs += _inside_a_block(eps, rng) + _inside_a_block(eps.espace, rng)
    graphs += _two_form_graphs(eps.espace, eps, rng)[:1]
    graphs += [Submodule(eps.espace, _summand(eps.espace, part))
               for part in ("x", "alpha")]
    for L in graphs:
        offered = _offered_rows(L, monkeypatch)
        free, pivots = L.ambient.dim - L.dim, L.span.rows
        assert bool(offered) == bool(L.dim)  # L = 0 has no equations
        assert all(dim < free for dim, _ in offered)
        assert not any(k in pivots for _, row in offered for k, _ in row)


@pytest.mark.parametrize("name", GRAPH_ALGEBRAS)
def test_maximality_of_a_block_complement_offers_only_its_restricted_rows(
        espaces, epsilons, omni_isos, name, monkeypatch):
    """Both summands, Poisson graphs, D-structure graphs at n = 3, 4 and
    2-form graphs complement a block W, and their spanning rows restricted
    off W lead at distinct columns: the verdict is True and offers no row
    to any span, so no restricted row and no equation row."""
    E, eps = espaces[name], epsilons[name]
    rng = rng_for(f"complement/{name}")
    graphs = _dirac_graphs(eps, rng) + _two_form_graphs(E, eps, rng)[1:]
    graphs += [_d_graph(omni_isos[n], mu) for n in (3, 4)
               for mu in (_so3_mu(n), _metabelian_mu((1, -2, 3, 1)[:n]))]
    for L in graphs:
        amb = L.ambient
        assert any(hi - lo == amb.dim - L.dim for lo, hi in _blocks(amb))
        assert _offered_rows(L, monkeypatch) == []
        assert is_maximally_isotropic(L)


def _decided_by(L, monkeypatch) -> str:
    """What decided ``is_maximally_isotropic(L)``, whose verdict must be
    the prior body's: "rule" when the complement test answers alone, and
    "rule, equations" when the equations of L-perp are read after it.  No
    span is offered a row before the equations."""
    L.span, L.isotropic  # the span of L is built before the spies
    seen, add = [], Span.add
    equations = type(L.ambient).orthogonal_equations
    with monkeypatch.context() as m:
        m.setattr(Span, "add", lambda self, row, tag: seen.append(
            "span") or add(self, row, tag))
        m.setattr(type(L.ambient), "orthogonal_equations",
                  lambda self, rows: seen.append("equations") or equations(
                      self, rows))
        maximal = is_maximally_isotropic(L)
    assert maximal == _prior_is_maximally_isotropic(L)
    assert seen[:1] in ([], ["equations"])
    return "rule, equations" if seen else "rule"


def _restricted(rows, lo, hi) -> list:
    return [[(k, x) for k, x in row if not lo <= k < hi] for row in rows]


def _leads(rows, lo, hi) -> list:
    """The leading column of each sparse row off [lo, hi), None if empty."""
    return [row[0][0] if row else None for row in _restricted(rows, lo, hi)]


def test_maximality_of_a_respanned_complement_matches_the_prior_body(
        epsilons, omni_isos, monkeypatch):
    """Dirac graphs of the quotients and so(3) and metabelian D-structure
    graphs at n = 3, 4, each a complement of a block W, re-spanned: an
    extra zero row, which leaves the nonzero spanning rows as they were, so
    the rule decides; a duplicated row, whose restriction leads where its
    copy's does; row j replaced
    by row i + row j, for row i the one whose restriction off W leads
    first, so two restricted rows lead at one column; and on V[1], whose
    blocks differ in size, row 0 replaced by a w in W orthogonal to the
    other rows, where there is one (on every D-structure graph): an
    isotropic L of the same dimension that meets W, so a restricted row is
    empty; and row 0 replaced by w + row 1, the same L, whose restricted
    rows are nonempty and collide.  In all but the first the rule does not
    decide and the equations do, maximal or not as the prior body says."""
    graphs = [L for name in GRAPH_ALGEBRAS
              for L in _dirac_graphs(epsilons[name], rng_for(
                  f"respanned/{name}"))]
    graphs += [_d_graph(omni_isos[n], mu) for n in (3, 4)
               for mu in (_so3_mu(n), _metabelian_mu((1, -2, 3, 1)[:n]))]
    seen = set()
    for L in graphs:
        amb, n = L.ambient, L.ambient.dim
        rows = [row for row in L.spanning.sparse_rows if row]
        assert len(rows) == L.dim
        # the block L complements
        (lo, hi), = [(lo, hi) for lo, hi in _blocks(amb) if L.dim == n - (
            hi - lo) == rank(QMatrix(_restricted(rows, lo, hi), cols=n))]
        assert _decided_by(L, monkeypatch) == "rule"
        cases = [(rows + [()], "rule"), (rows + rows[:1], "rule, equations")]
        if L.dim > 1:
            leads = _leads(rows, lo, hi)
            i = leads.index(min(leads))
            j = (i + 1) % L.dim
            summed = combine(((i, 1), (j, 1)), QMatrix(rows, cols=n))
            cases.append((rows[:j] + [summed] + rows[j + 1:],
                          "rule, equations"))
        if len([b for b in _blocks(amb) if b[1] - b[0] == n - L.dim]) == 1:
            off_w = [((k, 1),) for k in range(n) if not lo <= k < hi]
            found = nullspace(QMatrix(list(amb.orthogonal_rows(
                rows[1:]).sparse_rows) + off_w, cols=n))
            for w in found.sparse_rows[:1]:
                cases.append(([w] + rows[1:], "rule, equations"))
                if L.dim > 1:
                    cases.append(([combine(((0, 1), (1, 1)), QMatrix(
                        [w, rows[1]], cols=n))] + rows[1:], "rule, equations"))
        for spanning, side in cases:
            M = Submodule(amb, QMatrix(spanning, cols=n))
            assert M.isotropic and M.dim == L.dim
            assert _decided_by(M, monkeypatch) == side
            maximal = is_maximally_isotropic(M)
            assert maximal or side == "rule, equations"
            seen.add((len(spanning) - L.dim, side, maximal))
    assert {(1, "rule", True), (1, "rule, equations", True),
            (0, "rule, equations", True),
            (0, "rule, equations", False)} <= seen


@pytest.mark.parametrize("name", NONZERO_E)
def test_maximality_by_complement_matches_the_prior_body(
        espaces, epsilons, name):
    """In E(A) and the quotient: 2-form graphs (complements of the H_1
    block), an L inside a block W with dim L = n - |W| (not a complement,
    so not maximal), both summands and L = 0."""
    E, eps = espaces[name], epsilons[name]
    rng = rng_for(f"by-complement/{name}")
    inside = _inside_a_block(E, rng) + _inside_a_block(eps, rng)
    for L in inside:
        assert L.isotropic and not is_maximally_isotropic(L)
    graphs = inside + [L for _ in range(3)
                       for L in _two_form_graphs(E, eps, rng)]
    for amb in (E, eps):
        graphs += [Submodule(amb, _summand(amb, part))
                   for part in ("x", "alpha")]
        graphs.append(Submodule(amb, QMatrix((), cols=amb.dim)))
    for L in graphs:
        assert is_maximally_isotropic(L) == _prior_is_maximally_isotropic(L)


def test_a_complement_meeting_the_radical_is_not_maximal():
    """In E(A) for Q[t]/(t^2) x Kronecker the radical lies in the H^1
    block: the H_1 summand complements it, and rad meet W != 0, so it is
    not maximal; the H^1 summand complements the H_1 block, which the
    radical misses, so it is."""
    E = _kronecker_espace()
    rad = E.radical.sparse_rows
    assert rad and all(k < E.x_dim for row in rad for k, _ in row)
    alpha, x = (Submodule(E, _summand(E, part)) for part in ("alpha", "x"))
    assert alpha.isotropic and not is_maximally_isotropic(alpha)
    assert x.isotropic and is_maximally_isotropic(x)
    for L in (alpha, x, Submodule(E, QMatrix((), cols=E.dim))):
        assert is_maximally_isotropic(L) == _prior_is_maximally_isotropic(L)


def _assert_stored_canonically(M) -> None:
    """M holds what the validating constructor would store, entry types
    and row tuples included."""
    ref = QMatrix(M.sparse_rows, cols=M.cols)
    assert M == ref
    assert all(type(row) is tuple for row in M.sparse_rows)
    assert [[type(x) for _, x in row] for row in M.sparse_rows] == [
        [type(x) for _, x in row] for row in ref.sparse_rows]


def test_graph_rows_are_stored_as_the_constructor_stores_them(
        espaces, epsilons, algebras, bider_spaces, monkeypatch):
    """``poisson_graph`` (both its graphs), ``project`` and
    ``d_structure_check`` store their rows unchecked: on the corpus graphs
    (integral and scaled tables, so(3), random and metabelian mu) those
    are the rows ``QMatrix(rows, cols)`` stores."""
    for name in GRAPH_ALGEBRAS:
        E, eps = espaces[name], epsilons[name]
        rng = rng_for(f"stored/{name}")
        for c in (1,) + SCALES:
            flat = [c * x for x in rand_combination(rng, bider_spaces[name])]
            for L in poisson_graph(E, eps, table_from_flat(algebras[name],
                                                           flat)):
                _assert_stored_canonically(L.spanning)
    graphs = []
    monkeypatch.setattr(omni, "is_dirac",
                        lambda L: graphs.append(L) or is_dirac(L))
    for n in (3, 4):
        iso = build_omni_iso(n)
        for c in SCALES:
            for mu in _mu_cases(n):
                d_structure_check(iso, _scaled(c, mu))
    assert len(graphs) == 15
    for L in graphs:
        _assert_stored_canonically(L.spanning)


# ---------------------------------------------------------------------------
# a graph is its own echelon: verdicts by the complement rule, with no span

V13_TABLES = ("bracket_zero_v1_3", "bracket_so3_v1_3", "bracket_nonjacobi_v1_3",
              str(Path(__file__).parent / "data" / "bracket_so3_3_7_v1_3.json"),
              str(Path(__file__).parent / "data"
                  / "bracket_nonjacobi_m5_2_v1_3.json"))


def _skew_nonjacobi_mu(n, rng) -> list:
    """The skew part of a seeded {-1, 0, 1} mu that breaks Jacobi (none
    exists at n = 2, where every skew bracket is Lie)."""
    while True:
        mu = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
              for _ in range(n)]
        skew = [[[mu[i][j][a] - mu[j][i][a] for a in range(n)]
                 for j in range(n)] for i in range(n)]
        if lie_laws(n, sparse_table(skew)) == (True, False):
            return skew


def _complement_graphs(espaces, epsilons, omni_isos) -> list:
    """(label, L) for graphs the complement rule decides: the Poisson graph
    of every bundled v1_3 table and of the two pinned tables whose cleared
    rows lead with 7 and 2, metabelian, conjugated-Lie and skew-non-Jacobi
    D-graphs at n = 2..4, and two-form graphs of v1_2 and v1_3."""
    E, eps = espaces["v1_3"], epsilons["v1_3"]
    found = [(Path(ref).stem, poisson_graph(E, eps, load_bracket_table(
        ref, E.algebra))[1]) for ref in V13_TABLES]
    corpus = load_script("omni_corpus")
    for n in (2, 3, 4):
        rng = rng_for(f"echelon-d-graphs/{n}")
        mus = [_metabelian_mu((1, -2, 3, 1)[:n]),
               corpus.conjugated_lie_table(n, rng)[1]]
        mus += [_skew_nonjacobi_mu(n, rng)] if n > 2 else []
        found += [(f"d-graph/{n}/{k}", _d_graph(omni_isos[n], mu))
                  for k, mu in enumerate(mus)]
    for name in ("v1_2", "v1_3"):
        rng = rng_for(f"echelon-two-forms/{name}")
        found += [(f"two-form/{name}", L) for _ in range(2) for L in
                  _two_form_graphs(espaces[name], epsilons[name], rng)[1:]]
    return found


def _respanned(rows, n, rng) -> tuple:
    """``(rejected, turned, scaled)`` for rows sorted by lead: row 0 and
    each row 0 + row i, which all lead where row 0 does, so the rule
    rejects them; the rows times a unit upper-triangular integer matrix,
    each leading where its row does, reversed, so the rule holds on rows
    that are out of order and have more entries off the block; and those
    rows times 2, 3, 5 and 7 in turn, so that the leads' entries do not
    divide the brackets' entries there."""
    M, m = QMatrix(rows, cols=n), len(rows)
    rejected = rows[:1] + [combine(((0, 1), (i, 1)), M) for i in range(1, m)]
    turned = [combine([(i, 1)] + [(k, c) for k in range(i + 1, m)
                                  if (c := rng.choice((-2, -1, 1, 2)))], M)
              for i in reversed(range(m))]
    scaled = [tuple((k, (2, 3, 5, 7)[i % 4] * x) for k, x in row)
              for i, row in enumerate(turned)]
    return rejected, turned, scaled


def test_a_complement_verdict_is_that_of_every_spanning_set(
        espaces, epsilons, omni_isos):
    """Each graph the rule decides has the verdict, field for field and in
    JSON bytes, of the same subspace spanned by rows the rule rejects (the
    re-spanning of ``submodule_so3_respanned_v1_3.json``, decided on the
    span) and by re-spanned, reversed rows the rule takes, scaled or not.
    Where the rule holds, no span is built before the counterexample is
    read, and none at all where the closure holds."""
    seen, scales = set(), set()
    for label, L in _complement_graphs(espaces, epsilons, omni_isos):
        verdict = is_dirac(L)
        assert L.complement is not None and "span" not in vars(L), label
        assert (verdict.counterexample is None) == verdict.closed, label
        assert ("span" in vars(L)) == (not verdict.closed), label
        rows = [tuple(sorted(row.items())) for row in L.complement.values()]
        scales.update(row[p] for p, row in L.complement.items())
        rejected, turned, scaled = _respanned(rows, L.ambient.dim,
                                              rng_for(f"turned/{label}"))
        assert [row for row in turned if len(row) > 1]
        for spanning, ruled in ((rejected, False), (turned, True),
                                (scaled, True)):
            M = Submodule(L.ambient, QMatrix(spanning, cols=L.ambient.dim))
            got = is_dirac(M)
            assert (M.complement is not None) == ruled, label
            assert got == verdict, label
            assert json.dumps(got.to_json()) == json.dumps(verdict.to_json())
            assert ("span" in vars(M)) == (not (ruled and verdict.closed))
            if ruled:
                assert list(M.spanning.sparse_rows) != [
                    tuple(sorted(row.items()))
                    for row in M.complement.values()]
        seen.add((verdict.isotropic, verdict.closed, verdict.dirac))
    assert {(True, True, True), (True, False, False)} <= seen
    assert {2, 7} <= scales


def _spans_in(call, monkeypatch) -> tuple:
    """(spans built, rows offered to a span) while ``call()`` runs."""
    counts, init, add = [0, 0], Span.__init__, Span.add

    def spy_init(self, *args, **kwargs):
        counts[0] += 1
        init(self, *args, **kwargs)

    def spy_add(self, row, tag):
        counts[1] += 1
        return add(self, row, tag)
    with monkeypatch.context() as m:
        m.setattr(Span, "__init__", spy_init)
        m.setattr(Span, "add", spy_add)
        call()
    return tuple(counts)


def test_a_complement_verdict_builds_no_span(v13, bider_spaces, omni_isos,
                                             monkeypatch):
    """Inside ``is_dirac``: the so(3) graph on epsilon(v1_3) and the
    metabelian D-graph at n = 4 build no span and offer no row, where
    eliminating each took one span of 4 rows; random Poisson graphs and
    random D-graphs, which are not isotropic, are decided on their rows
    too, and the one span of 4 rows that names the counterexample is built
    on its first read alone."""
    A, E, eps = v13
    iso = omni_isos[4]
    for amb in (eps, iso.eps):  # cached per ambient, built before the spy
        dirac._nonscalar_centre(amb)
    graphs = [poisson_graph(E, eps, load_bracket_table("bracket_so3_v1_3",
                                                       A))[1],
              _d_graph(iso, _metabelian_mu((1, -2, 3, 1)))]
    for L in graphs:
        assert _spans_in(lambda: is_dirac(L), monkeypatch) == (0, 0)
        assert is_dirac(L).dirac
    rng = rng_for("spans/random")
    for _ in range(10):
        t = table_from_flat(A, rand_combination(rng, bider_spaces["v1_3"]))
        mu = [[[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)]
              for _ in range(4)]
        for L in (poisson_graph(E, eps, t)[1], _d_graph(iso, mu)):
            assert _spans_in(lambda: is_dirac(L).dirac,
                             monkeypatch) == (0, 0)
            verdict = is_dirac(L)
            assert _spans_in(lambda: verdict.counterexample,
                             monkeypatch) == (1, 4)
            assert _spans_in(lambda: verdict.counterexample,
                             monkeypatch) == (0, 0)
            assert not L.isotropic and not verdict.closed
            assert verdict.counterexample and not verdict.dirac


def _diagonal_mu(n) -> list:
    """mu(v_0, v_0) = v_0 and 0 elsewhere: its D-graph is not isotropic,
    and [[u_0, u_0]] = (0, v_0) is the one bracket of graph rows outside
    it, since mu(v_0, .) does not vanish."""
    return [[[int(i == j == k == 0) for k in range(n)] for j in range(n)]
            for i in range(n)]


def _deferred_graphs(v13, bider_space, omni_isos) -> list:
    """(label, a builder of a fresh L) for graphs whose closure fails on
    their rows: seeded random v1_3 Poisson graphs, and at n = 3 and 4 the
    D-graphs of uniform {-1, 0, 1} mu, skew-non-Jacobi mu, p/q multiples of
    uniform mu and ``_diagonal_mu``, whose only failing pair is diagonal."""
    A, E, eps = v13
    rng = rng_for("deferred/poisson")
    tables = [table_from_flat(A, rand_combination(rng, bider_space))
              for _ in range(6)]
    found = [(f"poisson/{k}", lambda t=t: poisson_graph(E, eps, t)[1])
             for k, t in enumerate(tables)]
    for n in (3, 4):
        rng = rng_for(f"deferred/d-graphs/{n}")
        uniform = [[[[rng.randint(-1, 1) for _ in range(n)]
                     for _ in range(n)] for _ in range(n)] for _ in range(3)]
        scaled = [[[[Q(p, q) * x for x in cell] for cell in row]
                   for row in mu] for mu, p, q in zip(
                       uniform, (-3, 2, 5), (7, 9, 4))]
        mus = (uniform + [_skew_nonjacobi_mu(n, rng) for _ in range(2)]
               + scaled + [_diagonal_mu(n)])
        found += [(f"d-graph/{n}/{k}", lambda mu=mu, n=n:
                   _d_graph(omni_isos[n], mu)) for k, mu in enumerate(mus)]
    return found


def test_a_deferred_witness_is_the_eager_one(v13, bider_spaces, omni_isos):
    """Oracle: on graphs whose closure fails on their rows, ``is_dirac``
    defers the counterexample, and the verdict equals the eager reference
    (``_ref_is_dirac``) in every field, ``==``, ``hash``, ``repr`` and
    ``to_json`` bytes, whichever of them is read first; the eager
    ``is_bracket_closed`` equals ``_ref_is_bracket_closed``."""
    seen = set()
    for label, build in _deferred_graphs(v13, bider_spaces["v1_3"],
                                         omni_isos):
        L = build()
        ref, (closed, ce) = _ref_is_dirac(L), _ref_is_bracket_closed(L)
        assert not closed and is_bracket_closed(build()) == (closed, ce)
        reads = {
            "fields": lambda v: [getattr(v, n) for n in v._fields]
            == [getattr(ref, n) for n in ref._fields],
            "counterexample": lambda v: v.counterexample == ce,
            "==": lambda v: v == ref,
            "hash": lambda v: hash(v) == hash(ref),
            "repr": lambda v: repr(v) == repr(ref),
            "to_json": lambda v: json.dumps(v.to_json())
            == json.dumps(ref.to_json())}
        for first in reads:
            L = build()
            verdict = is_dirac(L)
            assert L.complement is not None and "span" not in vars(L)
            assert "counterexample" not in vars(verdict), label
            assert reads[first](verdict), (label, first)
            assert all(read(verdict) for read in reads.values()), label
        seen.add(L.isotropic)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the Lie-algebroid check on the echelon

def _ref_lie_algebroid_check(eps, L):
    """The span-based body of ``lie_algebroid_check`` before it read
    ``L.echelon``: both laws read on the integer rows of ``L.span``, empty
    defect tables included, and the structure constants over those rows,
    each coordinate the bracket's entry at a pivot over the pivot entry."""
    if L.ambient is not eps:
        raise DiracError("submodule is not over the given quotient")
    if not is_dirac(L).dirac:
        raise DiracError("lie_algebroid_check requires a Dirac structure")
    n, cdim = eps.dim, eps.center_basis.rows
    anchor, leibniz = _algebroid_defects(eps)
    vs, T = L.span.primitive_rows(), eps.bracket_table
    ls = QMatrix(vs, cols=n)
    anchor_ok = not any(pullback(anchor, ls, ls))
    leibniz_ok = True
    for u in vs:
        part = combine_tables([(x, (leibniz[a],)) for a, x in u], 1)
        if part[0] and any(
                contract(((0, 1),), [(m * n + b, y) for b, y in v], part)
                for m in range(cdim) for v in vs):
            leibniz_ok = False
    pivots = [row[0] for row in vs]

    def coords(b: dict) -> tuple:
        return tuple(e for k, (p, x) in enumerate(pivots) if p in b
                     for e in _over({k: b[p]}, x))
    consts = tuple(sparse_row({j: coords(dict(contract(u, v, T)))
                               for j, v in enumerate(vs)}) for u in vs)
    return LieAlgebroidReport(anchor_ok, leibniz_ok, *lie_laws(L.dim, consts))


def _lie_mus(n, rng) -> list:
    """(label, mu): so(3), Heisenberg and r_2 plus an abelian summand, where
    they fit in n, two conjugated Lie tables, and a p/q multiple of each:
    all Lie brackets, so their D-graphs are Dirac."""
    corpus = load_script("omni_corpus")
    found = [(name, corpus.lie_table(name, n))
             for name, (dim, _) in sorted(corpus.LIE_BRACKETS.items())
             if dim <= n]
    found += [(f"conjugated {name}", mu) for name, mu in (
        corpus.conjugated_lie_table(n, rng) for _ in range(2))]
    for label, mu in list(found):
        c = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        found.append((f"{c} {label}", _scaled(c, mu)))
    return found


def _algebroid_corpus(v13, omni_isos) -> list:
    """(label, quotient, a builder of a fresh L): every Dirac Poisson graph
    of a bundled v1_3 table and of the so(3) 3/7 pin, so(3) scaled by 5
    seeded p/q, the re-spanned so(3) submodule, which complements no block,
    and the D-graphs of ``_lie_mus`` at n = 2, 3 and 4."""
    A, E, eps = v13
    rng = rng_for("algebroid-corpus")
    tables = [(name, load_bracket_table(name, A)) for name in BUNDLED_TABLES]
    tables.append(("so3 3/7", load_bracket_table(
        str(Path(__file__).parent / "data" / "bracket_so3_3_7_v1_3.json"),
        A)))
    so3 = load_bracket_table("bracket_so3_v1_3", A).table
    for _ in range(5):
        c = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        tables.append((f"so3 {c}", make_bracket_table(A, _scaled(c, so3))))
    out = [(label, eps, lambda t=t: poisson_graph(E, eps, t)[1])
           for label, t in tables
           if is_dirac(poisson_graph(E, eps, t)[1]).dirac]
    respanned = str(Path(__file__).parent / "data"
                    / "submodule_so3_respanned_v1_3.json")
    out.append(("respanned so3", eps,
                lambda: load_submodule(respanned, E, eps)))
    rows = poisson_graph(E, eps, tables[1][1])[1].spanning.sparse_rows
    out.append(("rescaled so3", eps, lambda: Submodule(eps, QMatrix(
        [[(k, x * c) for k, x in row] for c, row in zip((1, 2, 3), rows)],
        cols=eps.dim))))
    for n, iso in sorted(omni_isos.items()):
        for label, mu in _lie_mus(n, rng):
            out.append((f"n={n} {label}", iso.eps,
                        lambda iso=iso, mu=mu: _d_graph(iso, mu)))
    return out


def test_an_echelon_algebroid_check_is_the_span_body(v13, omni_isos,
                                                    monkeypatch):
    """``lie_algebroid_check`` on ``L.echelon`` gives the report of the
    span-based body on a fresh copy of L, on every structure of
    ``_algebroid_corpus``: graphs decided on their own rows and one that
    complements no block; the so(3) graph with its rows scaled by 1, 2 and
    3 has structure constants that are not integers."""
    corpus = _algebroid_corpus(v13, omni_isos)
    scales, over = [], dirac._over
    monkeypatch.setattr(dirac, "_over",
                        lambda d, s: scales.append(s) or over(d, s))
    labels, kinds = set(), set()
    for label, eps, build in corpus:
        L, M = build(), build()
        rep = lie_algebroid_check(eps, L)
        assert rep == _ref_lie_algebroid_check(eps, M), label
        assert rep.to_json() == _ref_lie_algebroid_check(eps, M).to_json()
        assert rep.ok, label
        labels.add(label.split()[0])
        kinds.add(L.complement is None)
    assert kinds == {True, False}
    assert {"bracket_so3_v1_3", "bracket_zero_v1_3", "so3", "respanned",
            "rescaled"} <= labels
    assert sum(label.startswith("n=") for label, _, _ in corpus) == 26
    assert set(scales) - {1}


@pytest.mark.parametrize("n", (2, 3, 4))
def test_echelon_structure_constants_of_a_d_graph_are_those_of_mu(
        omni_isos, monkeypatch, n):
    """The omni-Lie oracle: on epsilon(V[1]) the D-graph of a Lie bracket mu
    is the Lie algebra (Q^n, mu), v_k to its graph row.  Echelon row r_k is
    m_k times the row of v_k, m_k its lead entry, so [[r_i, r_j]] has
    coordinates m_i m_j mu_ij^k / m_k over the rows: rescaled by the lead
    entries, the constants the check hands ``lie_laws`` are mu's table."""
    iso = omni_isos[n]
    v_at = {}  # the column of v_k in epsilon(V[1]) -> k
    for k in range(n):
        (p, x), = iso.fwd.sparse_rows[n * n + k]
        v_at[p] = k
        assert x == 1
    tables = []
    monkeypatch.setattr(dirac, "lie_laws",
                        lambda dim, t: tables.append(t) or (True, True))
    leads = set()
    for label, mu in _lie_mus(n, rng_for(f"echelon-constants/{n}")):
        table, rows = omni.d_graph_rows(iso, mu)
        L = Submodule(iso.eps, QMatrix.from_canonical(rows, iso.eps.dim))
        assert lie_algebroid_check(iso.eps, L).ok
        assert [v_at[p] for p in L.echelon] == list(range(n)), label
        m = [row[p] for p, row in L.echelon.items()]
        rescaled = tuple(
            tuple((j, tuple((k, Q(x) * m[k] / (m[i] * m[j])) for k, x in c))
                  for j, c in cells)
            for i, cells in enumerate(tables[-1]))
        assert rescaled == table, label
        leads |= set(m)
    assert leads - {1}


def test_a_lie_algebroid_check_builds_no_span(v13, omni_isos, monkeypatch):
    """Once the quotient's ``_algebroid_defects`` are cached, the check on a
    graph builds no span and offers no row, where it built one of 4 rows:
    on scaled so(3) graphs of epsilon(v1_3),
    whose constants are integral, every coordinate is read at the scale 1,
    so no rational is made; and on D-graphs at n = 4."""
    A, E, eps = v13
    iso = omni_isos[4]
    for amb in (eps, iso.eps):  # cached per ambient, built before the spy
        _algebroid_defects(amb)
        dirac._nonscalar_centre(amb)
    scales, over = [], dirac._over
    monkeypatch.setattr(dirac, "_over",
                        lambda d, s: scales.append(s) or over(d, s))
    so3 = load_bracket_table("bracket_so3_v1_3", A).table
    graphs = [(eps, poisson_graph(E, eps, make_bracket_table(
        A, _scaled(c, so3)))[1]) for c in ("1", "3/7", "-5/2", "9")]
    for eps_, L in graphs:
        assert _spans_in(lambda: lie_algebroid_check(eps_, L),
                         monkeypatch) == (0, 0)
        assert "span" not in vars(L)
    assert set(scales) == {1}
    for a in ((1, -2, 3, 1), (0, 0, 0, 0)):
        L = _d_graph(iso, _metabelian_mu(a))
        assert _spans_in(lambda: lie_algebroid_check(iso.eps, L),
                         monkeypatch) == (0, 0)
        assert "span" not in vars(L)


def test_an_empty_defect_table_is_not_read(v13, monkeypatch):
    """Both defect tables are empty on epsilon(v1_3), which decides both
    laws for every L: the check contracts no row with the anchor defect and
    combines no Leibniz row."""
    A, E, eps = v13
    anchor, leibniz = _algebroid_defects(eps)
    assert not any(anchor) and not any(leibniz)
    read, contract_sums = [], dirac.contract_sums
    monkeypatch.setattr(dirac, "contract_sums", lambda u, v, t:
                        read.append(t) or contract_sums(u, v, t))
    monkeypatch.setattr(dirac, "combine_tables", None)
    L = poisson_graph(E, eps, load_bracket_table("bracket_so3_v1_3", A))[1]
    rep = lie_algebroid_check(eps, L)
    assert rep.ok and rep.anchor_bracket and rep.leibniz_rule
    assert read and not any(t is anchor for t in read)
