"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact (rational arithmetic, no tolerances); the only numeric
bounds are wall-clock budgets.  Run with ``pytest tests/test_acceptance.py``;
the per-criterion lines are printed unconditionally.
"""

import filecmp
import time

from hccourant.algebra import build_v1, matrix_algebra
from hccourant.cli import main as cli_main
from hccourant.courant import ESpace
from hccourant.dirac import (biderivation_space, find_two_form_witness,
                             is_dirac, is_poisson, poisson_graph,
                             table_from_flat, two_form, two_form_graph)
from hccourant.exactlin import Q, QMatrix, bilinear, rank
from hccourant.files import BUNDLED_ALGEBRAS, BUNDLED_TABLES, \
    load_algebra_ref, load_bracket_table
from hccourant.hochschild import (_boundary_operator_rows, boundary_b,
                                  commutator, connes_B, derivation_basis,
                                  h_left_multiply, homology, interior_product,
                                  lie_derivative)
from hccourant.morita import transport_dirac, verify_morita
from hccourant.omni import verify_ev1, verify_main_theorem
from conftest import (rand_chain, rand_derivation, rand_vec,
                      ref_h0_action, ref_inner_derivation, rng_for, vec_add)

NONZERO_E = ("qx2", "qx3", "v1_1", "v1_2", "v1_3")


def _report(capsys, num, label, passed, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"{status} criterion {num}: {label} "
              f"({elapsed:.1f}s, budget {budget:.0f}s)", flush=True)
    assert passed, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_chain_complex_soundness(capsys, algebras):
    t0 = time.monotonic()
    ok = True
    for name in BUNDLED_ALGEBRAS:
        A = algebras[name]
        mats = {n: _boundary_operator_rows(A, n) for n in (1, 2, 3)}
        for n in (2, 3):
            hi, lo = mats[n], mats[n - 1]
            # rows of `hi` are images in C_(n-1); push through b again
            for row in hi:
                out = [Q(0)] * (A.dim ** (n - 1))
                for k, c in enumerate(row):
                    if c:
                        for m, x in enumerate(lo[k]):
                            if x:
                                out[m] += c * x
                ok = ok and all(v == 0 for v in out)
    _report(capsys, 1, "b o b = 0 on all bundled algebras, degrees 1-3",
            ok, time.monotonic() - t0, 10)


def test_criterion_02_operator_identities(capsys, algebras):
    t0 = time.monotonic()
    ok = True
    for name in BUNDLED_ALGEBRAS:
        A = algebras[name]
        dbasis = derivation_basis(A)
        h1 = homology(A, 1)
        rng = rng_for(f"acc2/{name}")
        for _ in range(50):
            X = rand_derivation(rng, A, dbasis)
            Y = rand_derivation(rng, A, dbasis)
            aprime = rand_vec(rng, A.dim)
            n = rng.choice((1, 2))
            c = rand_chain(rng, A, n)
            # Cartan identities
            XY = commutator(X, Y)
            lhs = lie_derivative(XY, c)
            rhs = lie_derivative(X, lie_derivative(Y, c)) - \
                lie_derivative(Y, lie_derivative(X, c))
            ok = ok and lhs.coords == rhs.coords
            lhs = interior_product(XY, c)
            rhs = lie_derivative(X, interior_product(Y, c)) - \
                interior_product(Y, lie_derivative(X, c))
            ok = ok and lhs.coords == rhs.coords
            # homotopy against inner derivations (sign folded into i)
            inner = ref_inner_derivation(A, aprime)
            lhs = h_left_multiply(aprime, boundary_b(c)) - \
                boundary_b(h_left_multiply(aprime, c))
            rhs = interior_product(inner, c)
            ok = ok and lhs.coords == tuple(-x for x in rhs.coords)
            # L_X = B i_X + i_X B on degree-1 homology
            if h1.dim:
                a = h1.rep_chain(rng.randrange(h1.dim))
                lx = h1.reduce_chain(lie_derivative(X, a))
                bx = h1.reduce_chain(
                    connes_B(interior_product(X, a))
                    + interior_product(X, connes_B(a)))
                ok = ok and lx == bx
    _report(capsys, 2, "Cartan/homotopy/L_X=Bi_X+i_XB identities, 50 draws each",
            ok, time.monotonic() - t0, 60)


def test_criterion_03_courant_axioms(capsys, espaces):
    t0 = time.monotonic()
    ok = True
    for name in NONZERO_E:
        E = espaces[name]
        basis = list(QMatrix.identity(E.dim))
        rng = rng_for(f"acc3/{name}")
        triples = [(a, b, c) for a in basis for b in basis for c in basis]
        triples += [tuple(rand_vec(rng, E.dim) for _ in range(3))
                    for _ in range(100)]
        zs = [E.center_basis[rng.randrange(E.center_basis.rows)]
              for _ in range(3)]
        for e1, e2, e3 in triples:
            b12 = E.courant_bracket(e1, e2)
            b13 = E.courant_bracket(e1, e3)
            b23 = E.courant_bracket(e2, e3)
            # (c0)
            lhs = E.courant_bracket(e1, b23)
            rhs = vec_add(E.courant_bracket(b12, e3),
                          E.courant_bracket(e2, b13))
            ok = ok and lhs == rhs
            # (c1)
            comm = commutator(E.derivation_of(E.rho(e1)),
                              E.derivation_of(E.rho(e2)))
            ok = ok and E.rho(b12) == E.class_of_derivation(comm)
            # (c3)
            lhs3 = ref_h0_action(E, E.rho(e1), E.form(e2, e3))
            rhs3 = tuple(p + q for p, q in zip(
                E.form(b12, e3), E.form(e2, b13)))
            ok = ok and lhs3 == rhs3
            # (c4)
            b11 = E.courant_bracket(e1, e1)
            ok = ok and tuple(2 * x for x in b11) == \
                E.d_map(E.form(e1, e1))
        # (c2) on basis pairs with sampled central elements
        Z = E.z_table
        for z in zs:
            c = E.center_coords(z)
            for e1 in basis:
                for e2 in basis:
                    lhs = E.courant_bracket(e1, bilinear(c, e2, Z, E.dim))
                    xz = E.center_coords(E.center_action(E.rho(e1), z))
                    rhs = vec_add(
                        bilinear(c, E.courant_bracket(e1, e2), Z, E.dim),
                        bilinear(xz, e2, Z, E.dim))
                    ok = ok and lhs == rhs
    _report(capsys, 3, "Courant axioms (c0)-(c4) on full bases + 100 random triples",
            ok, time.monotonic() - t0, 60)


def test_criterion_04_kernel_ideal_and_nondegeneracy(capsys, espaces, epsilons):
    t0 = time.monotonic()
    ok = True
    from hccourant.exactlin import membership
    for name in NONZERO_E:
        E = espaces[name]
        J = E.radical
        for j in J:
            for e in QMatrix.identity(E.dim):
                ok = ok and membership(E.courant_bracket(j, e), J) is not None
                ok = ok and membership(E.courant_bracket(e, j), J) is not None
        eps = epsilons[name]
        units = QMatrix.identity(eps.dim)
        M = QMatrix([[x for v in units for x in eps.form(u, v)]
                     for u in units] or [],
                    cols=eps.dim * E.h0.dim)
        ok = ok and rank(M) == eps.dim
    _report(capsys, 4, "[[J,E]],[[E,J]] in J and nondegenerate quotient form",
            ok, time.monotonic() - t0, 60)


def test_criterion_05_v1_dimension_counts(capsys):
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        rep = verify_ev1(n)
        ok = ok and rep.ok
        E = ESpace(build_v1(n))
        ok = ok and E.radical.rows == n * (n - 1) // 2
    _report(capsys, 5, "dim H^1 = n^2, dim H_1 = n + C(n,2), dim J = C(n,2), "
               "n in {1,2,3}", ok, time.monotonic() - t0, 60)


def test_criterion_06_main_theorem(capsys):
    t0 = time.monotonic()
    ok = True
    for n in (2, 3):
        _, rep = verify_main_theorem(n)
        ok = ok and rep.ok and rep.form_scalar == 2
    _report(capsys, 6, "epsilon(V[1]) ~ gl(V)(+)V: brackets equal, forms x2, "
               "n in {2,3}", ok, time.monotonic() - t0, 120)


def test_criterion_07_poisson_iff_dirac(capsys, algebras, espaces, epsilons):
    t0 = time.monotonic()
    ok = True
    # structured witnesses on V[1] n=3
    A3, E3, eps3 = (algebras["v1_3"], espaces["v1_3"], epsilons["v1_3"])
    for tname in BUNDLED_TABLES:
        t = load_bracket_table(tname, A3)
        _, L = poisson_graph(E3, eps3, t)
        ok = ok and is_poisson(t) == is_dirac(L).dirac
    # randomized corpus
    for name in ("v1_2", "v1_3", "qx3"):
        A, E, eps = algebras[name], espaces[name], epsilons[name]
        space = biderivation_space(A)
        rng = rng_for(f"acc7/{name}")
        for _ in range(200):
            flat = [Q(0)] * (A.dim ** 3)
            for row in space:
                c = rng.randint(-3, 3)
                if c:
                    for k, x in enumerate(row):
                        flat[k] += c * x
            t = table_from_flat(A, flat)
            _, L = poisson_graph(E, eps, t)
            ok = ok and is_poisson(t) == is_dirac(L).dirac
    _report(capsys, 7, "is_poisson == is_dirac(p(L_pi)), 200 random tables x 3 "
               "algebras + structured", ok, time.monotonic() - t0, 300)


def test_criterion_08_morita_transport(capsys, algebras):
    t0 = time.monotonic()
    ok = True
    for name in ("qx2", "v1_2"):
        ctx = verify_morita(algebras[name], 2)
        ok = ok and ctx.report.ok
        if name == "v1_2":
            d = algebras[name].dim
            zero = [[[0] * d for _ in range(d)] for _ in range(d)]
            from hccourant.dirac import make_bracket_table
            t = make_bracket_table(algebras[name], zero)
            _, L = poisson_graph(ctx.src_eps.espace, ctx.src_eps, t)
            _, verdict = transport_dirac(ctx, L)
            ok = ok and verdict.dirac
    _report(capsys, 8, "epsilon(A) ~ epsilon(M_2(A)) verified + Dirac transported",
            ok, time.monotonic() - t0, 600)


def test_criterion_09_morita_cross_check(capsys):
    t0 = time.monotonic()
    F = load_algebra_ref("q")
    M = matrix_algebra(F, 2)
    ok = homology(M, 0).dim == 1 and homology(M, 1).dim == 0
    ok = ok and homology(F, 0).dim == 1
    ok = ok and homology(F, 1).dim == 0
    _report(capsys, 9, "dim H_0(M_2(Q)) = 1, dim H_1(M_2(Q)) = 0 match transport",
            ok, time.monotonic() - t0, 60)


def test_criterion_10_two_form_graphs(capsys, espaces, epsilons):
    t0 = time.monotonic()
    ok = True
    outcomes = []
    for name in NONZERO_E:
        E = espaces[name]
        eps = epsilons[name]
        h2 = homology(E.algebra, 2)
        omega0 = two_form(E, (Q(0),) * h2.dim)
        L, verdict = two_form_graph(eps, omega0)
        ok = ok and verdict.dirac
        witness, _ = find_two_form_witness(E)
        if witness is None:
            outcomes.append(f"{name}: none found")
        else:
            _, wv = two_form_graph(eps, witness)
            ok = ok and wv.dirac
            outcomes.append(f"{name}: witness Dirac={wv.dirac}")
    _report(capsys, 10, "omega=0 graph Dirac everywhere; witness recorded "
                f"[{'; '.join(outcomes)}]", ok, time.monotonic() - t0, 300)


def test_criterion_11_reproducibility(capsys, tmp_path):
    t0 = time.monotonic()
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    c1 = cli_main(["suite", "--seed", "42", "--format", "json",
                   "--out", str(p1)])
    c2 = cli_main(["suite", "--seed", "42", "--format", "json",
                   "--out", str(p2)])
    ok = c1 == 0 and c2 == 0 and filecmp.cmp(str(p1), str(p2),
                                             shallow=False)
    _report(capsys, 11, "suite --seed 42 twice: byte-identical JSON reports",
            ok, time.monotonic() - t0, 300)
