#!/usr/bin/env python3
"""Randomized sweep checking is_poisson(t) == is_dirac(p(L_pi)) over random
biderivation tables on a commutative bundled algebra.

Random biderivations are almost never Poisson, so on V[1] = Q.1 (+) V the
sweep also draws Lie-Poisson tables (omni_corpus.v1_lie_poisson_table),
each also times a random nonzero p/q, and requires each of them to be both
Poisson and Dirac.  The p/q come from a generator of their own, so the
other draws and their lines do not depend on them; a scaled table's graph
rows are cleared of its denominators before any elimination, so these
draws run the rational graph path.  Every graph that is
Dirac must also pass lie_algebroid_check, and every graph's z_stable flag
must equal a full loop over the centre basis (is_dirac tests only the
centre elements that do not act as scalars), and its closed flag and
counterexample, which is_dirac builds only when it is read, must be those
of the span of its rows (omni_corpus.closure_by_span).  Each graph is
also decided re-spanned by a seeded invertible integer matrix
(respanned): its rows then share a lead, so the complement rule refuses
them and the verdict takes the span's rows and the equations of L-perp,
and every flag and the counterexample, each canonical in the subspace,
must be the graph's own.  A Poisson graph is
Z-stable by construction, so the sweep then draws as many random
subspaces of epsilon(A), every other one closed under the centre, and
compares is_z_stable with the same loop on each; where the centre does not
act by scalars (qx3) both outcomes must occur.  The exit code is 1 on any
disagreement, failure, missing outcome or Lie-algebroid report that is not
ok.

Example:
    python scripts/poisson_dirac_sweep.py --algebra v1_3 --count 500 --seed 7
"""

import argparse
import random
from dataclasses import dataclass

from hccourant.algebra import build_v1
from hccourant.courant import EpsilonSpace, ESpace
from hccourant.dirac import (Submodule, biderivation_space, is_dirac,
                             is_poisson, is_z_stable, lie_algebroid_check,
                             make_bracket_table, poisson_graph,
                             table_from_flat)
from hccourant.exactlin import (Q, QMatrix, Span, bilinear, combine,
                                contract, row_combination, sparse)
from hccourant.files import load_algebra_ref
from omni_corpus import closure_by_span, v1_lie_poisson_table


def z_stable_oracle(L) -> bool:
    """Z-stability by the full loop: every centre basis element times every
    spanning vector, contracted with the ambient's ``z_table``, lies in the
    span of L."""
    ambient, in_L = L.ambient, Span(L.spanning).contains
    units = QMatrix.identity(ambient.center_basis.rows)
    return all(in_L(bilinear(c, l, ambient.z_table, ambient.dim))
               for c in units for l in L.spanning)


def respanned(L, rng):
    """L spanned by the rows of M G, for G its nonzero spanning rows and
    M = J + diag(d), J all ones and each d_i drawn from 1..3, so that
    det M = prod(d) (1 + sum 1/d_i) > 0.  Every row of M G is a positive
    combination of all rows of G, so where G's rows lead at distinct
    columns off a block, the rows of M G all lead at the first of them."""
    G = QMatrix([r for r in L.spanning.sparse_rows if r], cols=L.ambient.dim)
    d = [rng.randint(1, 3) for _ in range(G.rows)]
    return Submodule(L.ambient, QMatrix(
        [combine([(j, 1 + (i == j) * d[i]) for j in range(G.rows)], G)
         for i in range(G.rows)], cols=G.cols))


def nonscalar_centre(ambient) -> bool:
    """Whether some centre element acts other than as a multiple of the
    identity, read off the ambient's ``z_table`` cell by cell."""
    n = ambient.dim
    for row in ambient.z_table:
        acts = {(a, k): x for a, cell in row for k, x in cell}
        c = acts.get((0, 0), 0)
        if acts != ({(a, a): c for a in range(n)} if c else {}):
            return True
    return False


def random_subspaces(ambient, rng, count):
    """Spans of random rows of every dimension, every other one closed
    under the centre (the Z(A)-submodule the rows generate), so that both
    Z-stability outcomes occur where the centre does not act by scalars."""
    n, Z = ambient.dim, ambient.z_table
    for t in range(count):
        rows = [sparse([rng.choice((-1, 0, 0, 1)) for _ in range(n)])
                for _ in range(rng.randint(1, n))]
        if t % 2:
            S, todo = Span(QMatrix(rows, cols=n)), list(rows)
            while todo:
                l = todo.pop()
                for m in range(len(Z)):
                    zl = contract(((m, 1),), l, Z)
                    if S.add(zl, {}):
                        todo.append(zl)
            rows = S.primitive_rows()
        yield Submodule(ambient, QMatrix(rows, cols=n))


@dataclass
class SweepConfig:
    algebra: str = "v1_3"
    count: int = 200
    seed: int = 0
    coeff_bound: int = 3


def run(cfg: SweepConfig) -> int:
    A = load_algebra_ref(cfg.algebra)
    E = ESpace(A)
    eps = EpsilonSpace(E)
    space = biderivation_space(A)
    print(f"algebra {A.name}: biderivation space has dim {space.rows}; "
          f"seed {cfg.seed}; {cfg.count} draws")
    rng = random.Random(cfg.seed)
    poisson_count = 0
    disagreements = 0
    algebroids = {"checked": 0, "failed": 0}
    z_disagreements = closure_disagreements = 0
    respans = {"by span": 0, "disagreements": 0}
    respan_rng = random.Random(f"respan/{cfg.seed}")

    def dirac_and_algebroid(L, k) -> bool:
        """The Dirac verdict on L, and the Lie-algebroid check when it
        holds; a z_stable flag off the full loop, a closed flag or
        counterexample off the span of L's rows, a verdict of L re-spanned
        other than L's, or a report that is not ok, is printed and
        counted."""
        nonlocal z_disagreements, closure_disagreements
        verdict = is_dirac(L)
        closure = (verdict.closed, verdict.counterexample)
        if closure != closure_by_span(L):
            closure_disagreements += 1
            print(f"  CLOSURE DISAGREEMENT at draw {k}: closed, "
                  f"counterexample = {closure}")
        M = respanned(L, respan_rng)
        respans["by span"] += M.complement is None
        if is_dirac(M).to_json() != verdict.to_json():
            respans["disagreements"] += 1
            print(f"  RE-SPANNED DISAGREEMENT at draw {k}: "
                  f"{is_dirac(M).to_json()} != {verdict.to_json()}")
        if verdict.z_stable != z_stable_oracle(L):
            z_disagreements += 1
            print(f"  Z-STABILITY DISAGREEMENT at draw {k}: "
                  f"z_stable={verdict.z_stable}")
        if not verdict.dirac:
            return False
        rep = lie_algebroid_check(eps, L)
        algebroids["checked"] += 1
        if not rep.ok:
            algebroids["failed"] += 1
            print(f"  LIE-ALGEBROID FAILURE at draw {k}: {rep.to_json()}")
        return True

    for k in range(cfg.count):
        coeffs = [rng.randint(-cfg.coeff_bound, cfg.coeff_bound)
                  for _ in range(space.rows)]
        t = table_from_flat(A, row_combination(coeffs, space))
        p = is_poisson(t)
        _, L = poisson_graph(E, eps, t)
        d = dirac_and_algebroid(L, k)
        poisson_count += p
        if p != d:
            disagreements += 1
            print(f"  DISAGREEMENT at draw {k}: poisson={p} dirac={d}")
    print(f"poisson tables: {poisson_count}/{cfg.count}; "
          f"disagreements: {disagreements}")
    failures = disagreements
    n = A.dim - 1
    if n and A.structure == build_v1(n).structure:
        both = scaled_both = 0
        scaled_rng = random.Random(f"scaled/{cfg.seed}")

        def poisson_and_dirac(table, k, name) -> bool:
            t = make_bracket_table(A, table)
            _, L = poisson_graph(E, eps, t)
            p, d = is_poisson(t), dirac_and_algebroid(L, k)
            if not (p and d):
                print(f"  LIE-POISSON FAILURE at draw {k} ({name}): "
                      f"poisson={p} dirac={d}")
            return p and d

        for k in range(cfg.count):
            name, table = v1_lie_poisson_table(n, rng)
            both += poisson_and_dirac(table, k, name)
            c = Q(scaled_rng.choice((-1, 1)) * scaled_rng.randint(1, 9),
                  scaled_rng.randint(1, 9))
            scaled = [[[c * x for x in cell] for cell in row]
                      for row in table]
            scaled_both += poisson_and_dirac(scaled, k, f"{name} times {c}")
        failures += 2 * cfg.count - both - scaled_both
        print(f"lie-poisson tables: {both}/{cfg.count} poisson and dirac; "
              f"times p/q: {scaled_both}/{cfg.count}")
    failures += algebroids["failed"] + z_disagreements + closure_disagreements
    failures += respans["disagreements"]
    print(f"lie-algebroid checks: {algebroids['failed']} failed of "
          f"{algebroids['checked']}; z-stability disagreements: "
          f"{z_disagreements}")
    print(f"re-spanned graphs: {respans['by span']} decided on their span; "
          f"disagreements: {respans['disagreements']}")
    stable = subspace_disagreements = 0
    for L in random_subspaces(eps, rng, cfg.count):
        z = is_z_stable(L)
        stable += z
        subspace_disagreements += z != z_stable_oracle(L)
    nonscalar = nonscalar_centre(eps)
    failures += subspace_disagreements
    failures += nonscalar and not 0 < stable < cfg.count
    print(f"random subspaces: {stable}/{cfg.count} z-stable ("
          f"{'both outcomes required' if nonscalar else 'scalar centre'}); "
          f"z-stability disagreements: {subspace_disagreements}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--algebra", default="v1_3")
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--coeff-bound", type=int, default=3)
    a = ap.parse_args()
    raise SystemExit(run(SweepConfig(a.algebra, a.count, a.seed,
                                     a.coeff_bound)))
