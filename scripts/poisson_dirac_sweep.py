#!/usr/bin/env python3
"""Randomized sweep checking is_poisson(t) == is_dirac(p(L_pi)) over random
biderivation tables on a commutative bundled algebra.

Random biderivations are almost never Poisson, so on V[1] = Q.1 (+) V the
sweep also draws Lie-Poisson tables (omni_corpus.v1_lie_poisson_table) and
requires each of them to be both Poisson and Dirac.  Every graph that is
Dirac must also pass lie_algebroid_check, and every graph's z_stable flag
must equal a full loop over the centre basis (is_dirac tests only the
centre elements that do not act as scalars).  A Poisson graph is Z-stable
by construction, so the sweep then draws as many random subspaces of
epsilon(A), every other one closed under the centre, and compares
is_z_stable with the same loop on each; where the centre does not act by
scalars (qx3) both outcomes must occur.  The exit code is 1 on any
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
from hccourant.dirac import (Submodule, _nonscalar_centre,
                             biderivation_space, is_dirac, is_poisson,
                             is_z_stable, lie_algebroid_check,
                             make_bracket_table, poisson_graph,
                             table_from_flat)
from hccourant.exactlin import (QMatrix, Span, bilinear, contract,
                                row_combination, sparse)
from hccourant.files import load_algebra_ref
from omni_corpus import v1_lie_poisson_table


def z_stable_oracle(L) -> bool:
    """Z-stability by the full loop: every centre basis element times every
    spanning vector, contracted with the ambient's ``z_table``, lies in the
    span of L."""
    ambient, in_L = L.ambient, Span(L.spanning).contains
    units = QMatrix.identity(ambient.center_basis.rows)
    return all(in_L(bilinear(c, l, ambient.z_table, ambient.dim))
               for c in units for l in L.spanning)


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
    z_disagreements = 0

    def dirac_and_algebroid(L, k) -> bool:
        """The Dirac verdict on L, and the Lie-algebroid check when it
        holds; a z_stable flag off the full loop, or a report that is not
        ok, is printed and counted."""
        nonlocal z_disagreements
        verdict = is_dirac(L)
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
        both = 0
        for k in range(cfg.count):
            name, table = v1_lie_poisson_table(n, rng)
            t = make_bracket_table(A, table)
            _, L = poisson_graph(E, eps, t)
            p, d = is_poisson(t), dirac_and_algebroid(L, k)
            both += p and d
            if not (p and d):
                print(f"  LIE-POISSON FAILURE at draw {k} ({name}): "
                      f"poisson={p} dirac={d}")
        failures += cfg.count - both
        print(f"lie-poisson tables: {both}/{cfg.count} poisson and dirac")
    failures += algebroids["failed"] + z_disagreements
    print(f"lie-algebroid checks: {algebroids['failed']} failed of "
          f"{algebroids['checked']}; z-stability disagreements: "
          f"{z_disagreements}")
    stable = subspace_disagreements = 0
    for L in random_subspaces(eps, rng, cfg.count):
        z = is_z_stable(L)
        stable += z
        subspace_disagreements += z != z_stable_oracle(L)
    nonscalar = bool(_nonscalar_centre(eps))
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
