"""The aggregated verification suite behind ``hccourant suite``.

Runs a deterministic battery over the bundled corpus: algebra validation,
(co)homology dimensions, quotient construction, Poisson-graph agreement on
structured and seeded random biderivation tables, exact two-form witnesses,
Morita transport, and the omni-Lie model.  The same seed always yields a
byte-identical JSON report; cases are aggregated sorted by case id.
"""

from __future__ import annotations

import random

from .courant import EpsilonSpace, ESpace
from .dirac import (biderivation_space, find_two_form_witness, is_dirac,
                    is_poisson, poisson_graph, table_from_flat, two_form_graph)
from .exactlin import rat_str, row_combination
from .files import BUNDLED_ALGEBRAS, BUNDLED_TABLES, load_algebra_ref, \
    load_bracket_table
from .morita import verify_morita, verify_opposite
from .omni import verify_ev1, verify_main_theorem

#: algebras small enough for degree-2 homology under the default guards
RANDOM_TABLE_ALGEBRAS = ("qx3", "v1_2", "v1_3")
RANDOM_TABLES_PER_ALGEBRA = 10


def _random_table(A, space, rng):
    if space.rows == 0:
        return table_from_flat(A, [0] * (A.dim ** 3))
    while True:
        flat = row_combination([rng.randint(-3, 3) for _ in range(space.rows)],
                               space)
        if any(flat):
            return table_from_flat(A, flat)


def run_suite(seed: int):
    rng = random.Random(seed)
    cases = []
    ok = True

    def add(case_id, passed, **extra):
        nonlocal ok
        ok = ok and passed
        entry = {"id": case_id, "pass": bool(passed)}
        entry.update(extra)
        cases.append(entry)

    spaces = {}
    for name in BUNDLED_ALGEBRAS:
        A = load_algebra_ref(name)
        add(f"validate/{name}", True, algebra=A.name, dim=A.dim)
        E = ESpace(A)
        spaces[name] = (A, E)
        add(f"espace/{name}", True, h1_cohomology=E.h1co.dim,
            h1_homology=E.h1.dim, h0=E.h0.dim, e_dim=E.dim)
        if not E.dim:
            add(f"epsilon/{name}", True, kernel_dim=0, epsilon_dim=0,
                note="E(A) = 0")
            continue
        eps = EpsilonSpace(E)
        spaces[name] = (A, E, eps)
        add(f"epsilon/{name}", True, kernel_dim=eps.J.rows,
            epsilon_dim=eps.dim)
        # the first closed two-form
        witness, h2 = find_two_form_witness(E)
        if witness is None:
            add(f"two-form/{name}", True, h2_dim=h2.dim,
                outcome="none found")
        else:
            _, verdict = two_form_graph(eps, witness)
            add(f"two-form/{name}", verdict.dirac, h2_dim=h2.dim,
                outcome="witness found",
                witness=[rat_str(x) for x in witness.coords],
                is_dirac=verdict.dirac)

    # structured bracket tables on V[1] n=3
    A3, E3, eps3 = spaces["v1_3"]
    for tname in BUNDLED_TABLES:
        t = load_bracket_table(tname, A3)
        poisson = is_poisson(t)
        _, L = poisson_graph(E3, eps3, t)
        verdict = is_dirac(L)
        add(f"poisson-graph/{tname}", poisson == verdict.dirac,
            is_poisson=poisson, is_dirac=verdict.dirac)

    # seeded random biderivation tables
    for name in RANDOM_TABLE_ALGEBRAS:
        A, E, eps = spaces[name]
        space = biderivation_space(A)
        agree = 0
        for _ in range(RANDOM_TABLES_PER_ALGEBRA):
            t = _random_table(A, space, rng)
            _, L = poisson_graph(E, eps, t)
            if is_poisson(t) == is_dirac(L).dirac:
                agree += 1
        add(f"poisson-random/{name}", agree == RANDOM_TABLES_PER_ALGEBRA,
            cases=RANDOM_TABLES_PER_ALGEBRA, agreements=agree)

    # Morita transport and the opposite algebra
    for name in ("qx2", "v1_2"):
        A = spaces[name][0]
        ctx = verify_morita(A, 2, src=spaces[name][1])
        add(f"morita/{name}", ctx.report.ok, **ctx.report.to_json())
    for name in ("ut2", "qx3"):
        rep = verify_opposite(spaces[name][1])
        add(f"opposite/{name}", rep.ok, **rep.to_json())

    # the omni-Lie model, on the bundled v1_n spaces (the same algebras as
    # build_v1(n))
    for n in (1, 2, 3):
        rep = verify_ev1(n, espace=spaces[f"v1_{n}"][1])
        add(f"omni-ev1/{n}", rep.ok, **rep.to_json())
    for n in (2, 3):
        _, rep = verify_main_theorem(n, espace=spaces[f"v1_{n}"][1])
        add(f"omni-main/{n}", rep.ok, **rep.to_json())

    cases.sort(key=lambda c: c["id"])
    return {"cases": cases, "case_count": len(cases), "all_pass": ok}, ok
