"""Command-line front end.

Exit codes: 0 = computation succeeded and every checked verdict holds;
1 = the run was valid but a mathematical verdict is false (e.g. the
submodule is not Dirac); 2 = malformed input, missing file, or a guard
refused the computation.

Each handler imports the layers it runs inside its body, so a run compiles
only those: `validate` loads `algebra`, `exactlin` and `files`; `homology`
adds `hochschild`; `cohomology`, `courant`, `kernel` and `epsilon` add
`hochschild` and `courant`; `dirac-check`, `poisson-graph` and `two-form`
add `dirac` to those; `morita` and `omni` each add their own module to
that set; `suite` loads every module.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .exactlin import HccourantError, QMatrix, rat_str
from .files import (BUNDLED_ALGEBRAS, BUNDLED_TABLES, FileFormatError,
                    load_algebra_ref, load_bracket_table, load_submodule,
                    load_table, load_two_form)

SCHEMA = "hccourant/2"

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _rvec(v):
    return [rat_str(x) for x in v]


def _rmat(M):
    return [_rvec(row) for row in M]


def _chain_terms(pres, k):
    """Human-readable representative of the k-th homology class."""
    c = pres.rep_chain(k)
    names, d, n = c.algebra.basis_names, c.algebra.dim, c.degree
    terms = [rat_str(x) + "*[" + " (x) ".join(
        names[a // d ** (n - j) % d] for j in range(n + 1)) + "]"
        for a, x in c.row]
    return " + ".join(terms) if terms else "0"


def _e_presentation(E) -> dict:
    return {
        "h1_cohomology_dim": E.h1co.dim,
        "h1_homology_dim": E.h1.dim,
        "h0_dim": E.h0.dim,
        "e_dim": E.dim,
        "h1_cohomology_reps": [_rmat(X) for X in E.derivations],
        "h1_homology_reps": [_chain_terms(E.h1, k)
                             for k in range(E.h1.dim)],
        "h0_reps": [_chain_terms(E.h0, k) for k in range(E.h0.dim)],
    }


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (report_dict, exit_code)

def _cmd_validate(args):
    A = load_algebra_ref(args.algebra)
    return {"algebra": A.name, "dimension": A.dim,
            "commutative": A.is_commutative()}, EXIT_OK


def _cmd_homology(args):
    from .hochschild import homology
    A = load_algebra_ref(args.algebra)
    n = args.degree
    pres = homology(A, n, max_dim=args.guard)
    # reduce spans Z: the boundaries, then one row per class rep
    return {"algebra": A.name, "degree": n, "dim": pres.dim,
            "cycle_rank": pres.reduce.dim,
            "boundary_rank": pres.reduce.dim - pres.dim,
            "class_reps": [_chain_terms(pres, k)
                           for k in range(pres.dim)]}, EXIT_OK


def _cmd_cohomology(args):
    from .courant import ESpace
    from .hochschild import cochain_from_flat, cohomology_h1
    A = load_algebra_ref(args.algebra)
    ESpace.check_guard(A.dim, args.guard)  # the refusal of E(A)
    h1co = cohomology_h1(A)
    return {"algebra": A.name, "dim": h1co.dim,
            "class_reps": [_rmat(cochain_from_flat(A, row))
                           for row in h1co.class_reps.sparse_rows]}, EXIT_OK


def _cmd_courant(args):
    from .courant import ESpace
    A = load_algebra_ref(args.algebra)
    E = ESpace(A, max_dim=args.guard)
    rep = _e_presentation(E)
    rep["algebra"] = A.name
    e, hc = QMatrix.identity(E.dim), E.h1co.dim  # <X_i, alpha_j>
    rep["pairing_table"] = [[_rvec(E.form(e[i], e[hc + j]))
                             for j in range(E.h1.dim)] for i in range(hc)]
    return rep, EXIT_OK


def _build_spaces(args):
    from .courant import EpsilonSpace, ESpace
    A = load_algebra_ref(args.algebra)
    E = ESpace(A, max_dim=args.guard)
    return A, E, EpsilonSpace(E)


def _cmd_kernel(args):
    A, E, eps = _build_spaces(args)
    return {"algebra": A.name, "e_dim": E.dim, "kernel_dim": eps.J.rows,
            "kernel_basis": _rmat(eps.J)}, EXIT_OK


def _cmd_epsilon(args):
    A, E, eps = _build_spaces(args)
    units = QMatrix.identity(eps.dim)
    return {"algebra": A.name, "e_dim": E.dim, "kernel_dim": eps.J.rows,
            "epsilon_dim": eps.dim,
            "class_reps": _rmat(eps.class_reps),
            "form_table": [[_rvec(eps.form(u, v)) for v in units]
                           for u in units]}, EXIT_OK


def _cmd_dirac_check(args):
    from .dirac import is_dirac, poisson_graph, project
    if (args.submodule is None) == (args.bracket is None):
        raise FileFormatError(
            "dirac-check needs exactly one of --submodule or --bracket")
    A, E, eps = _build_spaces(args)
    if args.bracket is not None:
        t = load_bracket_table(args.bracket, A)
        _, L = poisson_graph(E, eps, t)
    else:
        L = load_submodule(args.submodule, E, eps)
        if not L.ambient.quotient:
            L = project(eps, L.spanning)
    verdict = is_dirac(L)
    rep = {"algebra": A.name, "epsilon_dim": eps.dim,
           "submodule_dim": L.dim,
           "submodule_basis": _rmat(L.vectors)}
    rep.update(verdict.to_json())
    return rep, (EXIT_OK if verdict.dirac else EXIT_FALSE)


def _cmd_poisson_graph(args):
    from .dirac import (is_dirac, is_poisson, lie_algebroid_check,
                        poisson_graph)
    A, E, eps = _build_spaces(args)
    t = load_bracket_table(args.bracket, A)
    L_E, L = poisson_graph(E, eps, t)
    poisson = is_poisson(t)
    verdict = is_dirac(L)
    algebroid = (lie_algebroid_check(eps, L).to_json()
                 if verdict.dirac else None)
    rep = {"algebra": A.name, "is_poisson": poisson,
           "graph_basis_e": _rmat(L_E.vectors),
           "graph_basis_epsilon": _rmat(L.vectors),
           "verdict": verdict.to_json(),
           "poisson_iff_dirac": poisson == verdict.dirac,
           "lie_algebroid": algebroid}
    # a Poisson table whose graph is Dirac has its algebroid report
    ok = poisson and rep["poisson_iff_dirac"] and algebroid["ok"]
    return rep, (EXIT_OK if ok else EXIT_FALSE)


def _cmd_two_form(args):
    from .dirac import find_two_form_witness, two_form_graph
    A, E, eps = _build_spaces(args)
    if args.omega is not None:
        omega = load_two_form(args.omega, E)
        rep = {"algebra": A.name, "omega": _rvec(omega.coords)}
    else:
        omega, h2 = find_two_form_witness(E)
        rep = {"algebra": A.name, "h2_dim": h2.dim,
               "witness": _rvec(omega.coords) if omega else None,
               "outcome": "witness found" if omega else "none found"}
        if omega is None:
            return rep, EXIT_OK
    L, verdict = two_form_graph(eps, omega)
    rep.update(graph_basis=_rmat(L.vectors), verdict=verdict.to_json())
    return rep, (EXIT_OK if verdict.dirac else EXIT_FALSE)


def _cmd_morita(args):
    from .morita import verify_morita, verify_opposite
    A = load_algebra_ref(args.algebra)
    ctx = verify_morita(A, args.r, max_dim=args.guard)
    rep = ctx.report.to_json()
    rep["h0_map"] = _rmat(ctx.maps.h0_map)
    rep["opposite"] = verify_opposite(ctx.maps.source).to_json()
    ok = ctx.report.ok and rep["opposite"]["ok"]
    return rep, (EXIT_OK if ok else EXIT_FALSE)


def _cmd_omni(args):
    from .algebra import build_v1
    from .courant import ESpace
    from .omni import d_structure_check, verify_ev1, verify_main_theorem
    n = args.dim
    ESpace.check_guard(n + 1, args.guard)  # before V[1]'s d^3 table
    mu = load_table(args.mu, n) if args.mu is not None else None
    E = ESpace(build_v1(n), max_dim=args.guard)
    ev1 = verify_ev1(n, espace=E)
    iso, main = verify_main_theorem(n, espace=E)
    rep = {"n": n, "ev1": ev1.to_json(), "main_theorem": main.to_json(),
           "e_dim": ev1.e_dim, "kernel_dim": iso.eps.J.rows,
           "epsilon_dim": iso.eps.dim,
           "isomorphism": {
               "gl_basis_images": _rmat(iso.fwd.data[:n * n]),
               "v_basis_images": _rmat(iso.fwd.data[n * n:])}}
    ok = ev1.ok and main.ok
    if mu is not None:
        d = d_structure_check(iso, mu)
        rep["d_structure"] = d.to_json()
        ok = ok and d.consistent and d.dirac
    return rep, (EXIT_OK if ok else EXIT_FALSE)


def _cmd_suite(args):
    from .suite import run_suite
    rep, ok = run_suite(args.seed)
    rep["seed"] = args.seed
    return rep, (EXIT_OK if ok else EXIT_FALSE)


def _int(s: str) -> int:
    """An integer option: ASCII ``[-]digits`` only, where ``int`` alone
    also reads the Arabic-Indic digit "\u0663" as 3 and " 1_0" as 10."""
    if not (s.isascii() and s.removeprefix("-").isdigit()):
        raise ValueError(f"not [-]digits: {s!r}")
    return int(s)


_int.__name__ = "int"  # argparse names the type in its refusal

# the options a subcommand may take, as argparse arguments
OPTIONS = {
    "algebra": dict(help="algebra JSON file or bundled name"),
    "degree": dict(type=_int, default=1, help="homology degree"),
    "r": dict(type=_int, default=2, help="matrix size"),
    "bracket": dict(help="bracket-table JSON file or bundled name"),
    "submodule": dict(help="submodule JSON file"),
    "omega": dict(help="two-form JSON file"),
    "dim": dict(type=_int, help="V dimension"),
    "mu": dict(help="omni bracket table JSON file"),
    "guard": dict(type=_int, help="override the per-degree dimension guard"),
    "seed": dict(type=_int, default=0, help="seed of random draws (recorded)"),
    "format": dict(choices=("text", "json"), default="text"),
    "out": dict(help="write the report to a file"),
}

# subcommand -> (handler, the options it reads, the ones it requires);
# every subcommand also takes --format and --out
COMMANDS = {
    "validate": (_cmd_validate, "algebra", "algebra"),
    "homology": (_cmd_homology, "algebra degree guard", "algebra"),
    "cohomology": (_cmd_cohomology, "algebra guard", "algebra"),
    "courant": (_cmd_courant, "algebra guard", "algebra"),
    "kernel": (_cmd_kernel, "algebra guard", "algebra"),
    "epsilon": (_cmd_epsilon, "algebra guard", "algebra"),
    "dirac-check": (_cmd_dirac_check, "algebra bracket submodule guard",
                    "algebra"),
    "poisson-graph": (_cmd_poisson_graph, "algebra bracket guard",
                      "algebra bracket"),
    "two-form": (_cmd_two_form, "algebra omega guard", "algebra"),
    "morita": (_cmd_morita, "algebra r guard", "algebra"),
    "omni": (_cmd_omni, "dim mu guard", "dim"),
    "suite": (_cmd_suite, "seed", ""),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hccourant",
        description="Exact Courant brackets, Dirac structures, and "
                    "omni-Lie checks on finite-dimensional algebras over Q.",
        epilog="Bundled algebra names: " + ", ".join(BUNDLED_ALGEBRAS)
               + ". Bundled bracket tables: " + ", ".join(BUNDLED_TABLES)
               + ".")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (_, reads, _) in COMMANDS.items():
        sp = sub.add_parser(name)
        for opt in reads.split() + ["format", "out"]:
            sp.add_argument(f"--{opt}", **OPTIONS[opt])
    return p


def _emit_text(doc, out, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                out.write(f"{pad}{k}:\n")
                _emit_text(v, out, indent + 1)
            else:
                out.write(f"{pad}{k}: {_flat_str(v)}\n")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                out.write(f"{pad}-\n")
                _emit_text(v, out, indent + 1)
            else:
                out.write(f"{pad}- {_flat_str(v)}\n")


def _is_flat(v):
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) for x in v)


def _flat_str(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    if v is None:
        return "none"
    return str(v)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    run, _, required = COMMANDS[args.subcommand]
    try:
        for opt in required.split():
            if getattr(args, opt) is None:
                raise FileFormatError(f"{args.subcommand} requires --{opt}")
        body, code = run(args)
    except (HccourantError, OSError) as exc:
        body, code = {"error": str(exc)}, EXIT_ERROR
    report = {"schema": SCHEMA, "subcommand": args.subcommand,
              "exit_code": code}
    report.update(body)
    if args.format == "json":
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    else:
        import io
        buf = io.StringIO()
        _emit_text(report, buf)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out}: "
                             f"{exc.strerror or exc}\n")
            return EXIT_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
