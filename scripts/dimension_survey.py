#!/usr/bin/env python3
"""Survey of homology and bracket-space dimensions over the bundled corpus.

Prints, for every bundled algebra: dim H_0, H_1, H^1, dim E, dim J,
dim epsilon, dim H_2, and the dimension of the space of closed 2-form
classes: the nullspace of the matrix whose column k is the residual of
B omega_k modulo the boundaries im b_4, for omega_k the H_2 class rep k
(no H_3 is built).
Everything is computed exactly.
"""

import argparse
from dataclasses import dataclass

from hccourant.courant import EpsilonSpace, ESpace
from hccourant.exactlin import QMatrix, nullspace
from hccourant.files import BUNDLED_ALGEBRAS, load_algebra_ref
from hccourant.hochschild import boundaries, connes_B, homology


@dataclass
class SurveyConfig:
    names: tuple = BUNDLED_ALGEBRAS
    guard: int | None = None


def run(cfg: SurveyConfig) -> None:
    header = (f"{'algebra':<12} {'dim':>4} {'H0':>4} {'H1':>4} "
              f"{'H^1':>4} {'E':>4} {'J':>4} {'eps':>4} {'H2':>4} {'2f':>4}")
    print(header)
    print("-" * len(header))
    for name in cfg.names:
        A = load_algebra_ref(name)
        E = ESpace(A, max_dim=cfg.guard)
        if E.dim:
            eps = EpsilonSpace(E)
            jdim, edim = eps.J.rows, eps.dim
        else:
            jdim, edim = 0, 0
        h2 = homology(A, 2, max_dim=cfg.guard)
        b3 = boundaries(A, 3, max_dim=cfg.guard)
        residuals = QMatrix([b3.split(connes_B(h2.rep_chain(k)).row)[0]
                             for k in range(h2.dim)], cols=b3.cols)
        forms = nullspace(residuals.transpose()).rows
        print(f"{name:<12} {A.dim:>4} {E.h0.dim:>4} {E.h1.dim:>4} "
              f"{E.h1co.dim:>4} {E.dim:>4} {jdim:>4} {edim:>4} "
              f"{h2.dim:>4} {forms:>4}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--guard", type=int, default=None,
                    help="override the per-degree dimension guard")
    ap.add_argument("names", nargs="*", default=list(BUNDLED_ALGEBRAS),
                    help="bundled names or algebra files")
    args = ap.parse_args()
    run(SurveyConfig(names=tuple(args.names), guard=args.guard))
