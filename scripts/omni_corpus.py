#!/usr/bin/env python3
"""The omni-Lie model end to end for a range of V dimensions: dimension
formulas, the explicit isomorphism, and a randomized D-structure corpus
(graphs of random mu tables versus the direct Lie-bracket oracle).

The corpus draws three kinds of mu table per dimension n: entries drawn
uniformly from {-1, 0, 1}, which are almost never Lie brackets,
change-of-basis images P mu(P^-1 x, P^-1 y) of known Lie brackets (so(3),
Heisenberg, r_2, each plus an abelian summand), which always are, and
uniform tables scaled by a random nonzero p/q.  The second kind checks the
oracle agreement on the Dirac = True side; the third puts fractional
entries in the graph rows, so that a failed closure reports the bracket of
fractional reduced rows.  The third kind is drawn from a generator of its
own, so the first two kinds and their lines do not depend on it.  Every
maximality verdict is also held to the full nullspace of L-perp: L is
maximal isotropic exactly when L-perp contains L and has its dimension.
Every closure verdict and counterexample is held to the span of the graph
rows: the bracket of each pair of its RREF rows, in row-major order (i < j
where the form vanishes on the rows, every pair otherwise), tested by
``Span(L.spanning).contains``, so a graph the package decides on its own
rows, with no span, meets one here.  A disagreement of either is printed
and makes the script exit 1.  Every draw whose verdict is Dirac must also
pass ``lie_algebroid_check``, whose structure constants are read on the
graph's own rows: one that does not is printed and makes the script exit
1, and a last line counts the checks.

Example:
    python scripts/omni_corpus.py --max-n 3 --tables 200 --seed 11
"""

import argparse
import random
from dataclasses import dataclass

from hccourant.dirac import Submodule, lie_algebroid_check
from hccourant.exactlin import (Q, QMatrix, Span, bilinear, contract, dense,
                                row_combination, sparse_table)
from hccourant.omni import (d_graph_rows, d_structure_check, verify_ev1,
                            verify_main_theorem)

#: known Lie brackets: name -> (dimension, {(i, j): {k: c}}) for
#: [e_i, e_j] = sum_k c e_k, with [e_j, e_i] = -[e_i, e_j] implied
LIE_BRACKETS = {
    "so3": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}),
    "heisenberg": (3, {(0, 1): {2: 1}}),
    "r2": (2, {(0, 1): {1: 1}}),
}


@dataclass
class OmniConfig:
    max_n: int = 3
    tables: int = 200
    seed: int = 0


def lie_table(name: str, n: int) -> list:
    """The bracket ``name`` plus an abelian summand, as an n x n x n table."""
    _, brackets = LIE_BRACKETS[name]
    mu = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), image in brackets.items():
        for k, c in image.items():
            mu[i][j][k] += c
            mu[j][i][k] -= c
    return mu


def conjugated_lie_table(n: int, rng: random.Random):
    """``(name, table)``: P mu(P^-1 x, P^-1 y) for a known Lie bracket mu of
    dimension at most n and a random invertible integer matrix P.  On a
    1-dimensional V the only Lie bracket is 0, which is returned as "zero"
    without a draw."""
    if n == 1:
        return "zero", [[[0]]]
    name = rng.choice(sorted(k for k, (dim, _) in LIE_BRACKETS.items()
                             if dim <= n))
    while True:
        P = QMatrix([[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(n)])
        coords = Span(P, tagged=True)  # coordinates over the rows of P
        if coords.dim == n:
            break
    # row i of inv_cols is P^-1 e_i, the i-th column of P^-1
    inv_cols = QMatrix([coords(e) for e in QMatrix.identity(n)]).transpose()
    mu, PT = sparse_table(lie_table(name, n)), P.transpose()
    return name, [[row_combination(bilinear(x, y, mu, n), PT)
                   for y in inv_cols] for x in inv_cols]


def v1_lie_poisson_table(n: int, rng: random.Random):
    """``(name, table)``: a Lie-Poisson bracket on V[1] = Q.1 (+) V as an
    (n + 1)^3 table over the basis 1, v_1..v_n: {v_i, v_j} is cell (i, j)
    of ``conjugated_lie_table`` and {1, .} = {., 1} = 0.  Any bracket on V
    extends so to a biderivation, since V.V = 0; it is Poisson because the
    bracket on V is Lie."""
    name, mu = conjugated_lie_table(n, rng)
    zero = [0] * (n + 1)
    return name, [[zero] * (n + 1)] + [[zero] + [[0, *c] for c in row]
                                       for row in mu]


def d_graph(iso, mu) -> Submodule:
    """The graph rows (mu(v_i, .), v_i) of mu, mapped by ``iso.fwd``."""
    return Submodule(iso.eps, QMatrix(d_graph_rows(iso, mu)[1],
                                      cols=iso.eps.dim))


def maximal_by_nullspace(L) -> bool:
    """The oracle of a D-structure's maximality: L-perp, the full
    nullspace of the equations of L, contains L and has its dimension."""
    rows = L.span.primitive_rows()
    perp = L.ambient.orthogonal(rows)
    return perp.rows == len(rows) and all(map(Span(perp).contains, rows))


def closure_by_span(L) -> tuple:
    """The oracle of a D-structure's closure, ``(closed, counterexample)``:
    the first pair (i, j) of RREF rows of L, in row-major order, whose
    bracket ``Span(L.spanning)`` does not contain, with that bracket as a
    dense tuple; i < j where the form vanishes on the rows."""
    S, amb = Span(L.spanning), L.ambient
    rows = S.basis()
    isotropic = not any(contract(u, v, amb.form_table)
                        for u in rows for v in rows)
    for i, u in enumerate(rows):
        for j in range(i + 1 if isotropic else 0, len(rows)):
            b = contract(u, rows[j], amb.bracket_table)
            if not S.contains(b):
                return False, (i, j, dense(b, amb.dim))
    return True, None


def checked(iso, mu, algebroids: list):
    """``(report, maximal_agrees, closure_agrees)``: the D-structure report
    of mu, and whether its maximality verdict, and its closure verdict and
    counterexample, are the oracles'.  Where the verdict is Dirac, the
    graph's Lie-algebroid report is appended to ``algebroids``, and one
    that is not ok is printed with mu."""
    d, L = d_structure_check(iso, mu), d_graph(iso, mu)
    closure = (d.verdict.closed, d.verdict.counterexample)
    if d.dirac:
        algebroids.append(lie_algebroid_check(iso.eps, L))
        if not algebroids[-1].ok:
            print(f"  NOT A LIE ALGEBROID: n={iso.n} mu={mu} "
                  f"{algebroids[-1].to_json()}")
    return (d, d.verdict.maximal == maximal_by_nullspace(L),
            closure == closure_by_span(L))


def run(cfg: OmniConfig) -> int:
    bad, algebroids = 0, []
    for n in range(1, cfg.max_n + 1):
        rep = verify_ev1(n)
        print(f"n={n}: dim H^1={rep.h1_cohomology_dim} "
              f"H_1={rep.h1_homology_dim} E={rep.e_dim} ok={rep.ok}")
        if n < 2:
            continue
        iso, main = verify_main_theorem(n)
        print(f"  main theorem: {main.to_json()}")
        rng = random.Random(cfg.seed + n)
        lie_count = 0
        inconsistent = maximal_bad = closure_bad = 0
        for _ in range(cfg.tables):
            mu = [[[rng.randint(-1, 1) for _ in range(n)]
                   for _ in range(n)] for _ in range(n)]
            d, maximal_ok, closure_ok = checked(iso, mu, algebroids)
            lie_count += d.is_lie_bracket
            inconsistent += not d.consistent
            maximal_bad += not maximal_ok
            closure_bad += not closure_ok
        lie_dirac = 0
        for _ in range(cfg.tables):
            d, maximal_ok, closure_ok = checked(
                iso, conjugated_lie_table(n, rng)[1], algebroids)
            lie_dirac += d.is_lie_bracket and d.dirac
            inconsistent += not d.consistent
            maximal_bad += not maximal_ok
            closure_bad += not closure_ok
        print(f"  D-structure corpus: {cfg.tables} uniform tables, "
              f"{lie_count} Lie brackets; {cfg.tables} change-of-basis Lie "
              f"tables, {lie_dirac} Lie and Dirac; "
              f"{inconsistent} disagreements")
        scaled_rng = random.Random(f"scaled/{cfg.seed + n}")
        scaled_lie = scaled_bad = 0
        for _ in range(cfg.tables):
            c = Q(scaled_rng.choice((-1, 1)) * scaled_rng.randint(1, 9),
                  scaled_rng.randint(1, 9))
            mu = [[[c * scaled_rng.randint(-1, 1) for _ in range(n)]
                   for _ in range(n)] for _ in range(n)]
            d, maximal_ok, closure_ok = checked(iso, mu, algebroids)
            scaled_lie += d.is_lie_bracket
            scaled_bad += not d.consistent
            maximal_bad += not maximal_ok
            closure_bad += not closure_ok
        print(f"  scaled corpus: {cfg.tables} uniform tables times p/q, "
              f"{scaled_lie} Lie brackets; {scaled_bad} disagreements")
        if maximal_bad:
            print(f"  maximality: {maximal_bad} verdicts disagree with the "
                  f"nullspace of L-perp")
        if closure_bad:
            print(f"  closure: {closure_bad} verdicts or counterexamples "
                  f"disagree with the span of the graph rows")
        bad += inconsistent + scaled_bad + maximal_bad + closure_bad
        bad += (not main.ok) + (not rep.ok)
        # an image of a Lie bracket is one: each such table must pass both
        bad += cfg.tables - lie_dirac
    failed = sum(not rep.ok for rep in algebroids)
    print(f"Lie algebroid: {len(algebroids)} Dirac draws checked, "
          f"{failed} not ok")
    return 0 if bad + failed == 0 else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--tables", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    a = ap.parse_args()
    raise SystemExit(run(OmniConfig(a.max_n, a.tables, a.seed)))
