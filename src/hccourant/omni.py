"""The omni-Lie model gl(V) (+) V and its realization as epsilon(V[1]).

An element of gl(V) (+) V is its coordinate tuple: the matrix unit E_ij at
i n + j, then v_i at n^2 + i.  The Weinstein bracket ([xi1, xi2], xi1 v2) and
the V-valued pairing (1/2)(xi2 v1 + xi1 v2) are the model's public form:
``weinstein_table(n)`` and ``pairing_table(n)``, sparse tables in the form of
``exactlin.sparse_table`` built per call.  The bracket or pairing of two
elements is ``exactlin.bilinear`` on them; this module reads the tables
whole.

V[1] is the algebra Q.1 (+) V with all products of V-vectors equal to zero.
This module builds the explicit linear bijection gl(V) (+) V -> epsilon(V[1])
sending a matrix to its derivation class and a vector v to the homology class
of 1 (x) v, and verifies exactly that it carries the Weinstein bracket to the
induced Courant bracket, and the pairing to the induced bilinear form up to
the global scalar 2, each by one table identity (``exactlin.pullback``).
Dirac structures of epsilon(V[1]) that are graphs over V then correspond to
Lie brackets on V; `d_structure_check` decides both sides and compares them.
Both read one pass over mu (``d_graph_rows``), which checks each entry and
brings it to the number form, and gives the sparse mu table for the Lie
oracle and the graph rows (mu(v_i, .), v_i), each mapped to epsilon(V[1])
as one sparse combination of the rows of ``OmniIso.fwd`` and cleared of
its denominators (``exactlin.integral``: the row times the lcm of its
denominators spans the same line, so the graph is unchanged), so no
rational reaches a D-structure verdict.

``MainTheoremReport`` is an ``exactlin.Report`` record: ``ok`` is the
conjunction of its ``bool`` fields (``form_scalar`` is a value, not a
verdict) and its JSON report is the fields by name.  ``EV1Report`` adds
the expected dimension to its JSON, and ``DStructureReport`` has no ``ok``
and nests a Dirac verdict, so each writes its own JSON.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Optional

from .algebra import build_v1
from .courant import EpsilonSpace, ESpace
from .dirac import DiracVerdict, Submodule, is_dirac, lie_laws
from .exactlin import (Q, ZERO, ONE, ExactLinError, HccourantError, QMatrix,
                       Record, Report, combine, dense, integral, pullback,
                       pushforward, rank, rat, row_space, sparse_row)
from .hochschild import elementary_chain


class OmniError(HccourantError):
    pass


#: global scalar relating the quotient form on epsilon(V[1]) to the
#: half-sum pairing on gl(V) (+) V
FORM_SCALAR = 2


def _table(cells: dict, dim: int) -> tuple:
    """The sparse table with ``dim`` rows of a {(a, b): {k: t}} dict of
    cells; zero entries and empty cells are dropped."""
    rows = [{} for _ in range(dim)]
    for (a, b), cell in cells.items():
        rows[a][b] = sparse_row(cell)
    return tuple(map(sparse_row, rows))


def _cells() -> defaultdict:
    return defaultdict(lambda: defaultdict(lambda: ZERO))


def weinstein_table(n: int) -> tuple:
    """[[E_ij, E_jk]] contains +E_ik, [[E_ij, E_ki]] contains -E_kj (the
    commutator), [[E_ij, v_j]] = v_i, and every other pair brackets to 0."""
    nn = n * n
    cells = _cells()
    for i, j, k in itertools.product(range(n), repeat=3):
        cells[i * n + j, j * n + k][i * n + k] += 1
        cells[i * n + j, k * n + i][k * n + j] -= 1
    for i, j in itertools.product(range(n), repeat=2):
        cells[i * n + j, nn + j][nn + i] += 1
    return _table(cells, nn + n)


def pairing_table(n: int) -> tuple:
    """(E_ij, v_j) = (v_j, E_ij) = v_i / 2, and every other pair is 0."""
    nn, half = n * n, Q(1, 2)
    cells = _cells()
    for i, j in itertools.product(range(n), repeat=2):
        cells[i * n + j, nn + j][i] += half
        cells[nn + j, i * n + j][i] += half
    return _table(cells, nn + n)


# ---------------------------------------------------------------------------
# the V[1] realization

class EV1Report(Record):
    n: int
    h1_cohomology_dim: int
    h1_homology_dim: int
    e_dim: int

    @property
    def ok(self):
        n = self.n
        return (self.h1_cohomology_dim == n * n
                and self.h1_homology_dim == n + n * (n - 1) // 2
                and self.e_dim == n * n + n + n * (n - 1) // 2)

    def to_json(self):
        return {"n": self.n,
                "h1_cohomology_dim": self.h1_cohomology_dim,
                "h1_homology_dim": self.h1_homology_dim,
                "e_dim": self.e_dim,
                "expected_e_dim": self.n * self.n + self.n
                + self.n * (self.n - 1) // 2,
                "ok": self.ok}


def verify_ev1(n: int, *, espace: Optional[ESpace] = None) -> EV1Report:
    """Dimension formulas dim H^1 = n^2, dim H_1 = n + C(n,2)."""
    E = espace or ESpace(build_v1(n))
    return EV1Report(n, E.h1co.dim, E.h1.dim, E.dim)


class OmniIso(Record):
    """The bijection gl(V) (+) V -> epsilon(V[1])."""
    n: int
    espace: ESpace
    eps: EpsilonSpace
    fwd: QMatrix   # omni basis (E_ij then v_i) -> epsilon coordinates


class MainTheoremReport(Report):
    n: int
    kernel_dim_ok: bool
    kernel_generators_ok: bool
    bijective: bool
    bracket_tables_match: bool
    form_scalar: int
    form_tables_match: bool


def build_omni_iso(n: int, *, espace: Optional[ESpace] = None) -> OmniIso:
    A_E = espace or ESpace(build_v1(n))
    A = A_E.algebra
    eps = EpsilonSpace(A_E)
    dim = n * n + n
    if eps.dim != dim:
        raise OmniError(
            f"epsilon(V[1]) has dimension {eps.dim}, expected {dim}")
    d = n + 1
    rows = []
    for i in range(n):
        for j in range(n):
            # the derivation acting as E_ij on V and killing the unit: its
            # flat row is one unit entry, v_i in the image of v_j
            xcls = A_E.h1co.reduce(((d * (j + 1) + i + 1, ONE),))
            rows.append(eps.reduce(tuple(xcls) + (ZERO,) * A_E.h1.dim))
    for i in range(n):
        c = elementary_chain(A, (0, i + 1))  # the cycle 1 (x) v_i
        acls = A_E.h1.reduce_chain(c)
        rows.append(eps.reduce((ZERO,) * A_E.h1co.dim + tuple(acls)))
    fwd = QMatrix(rows, cols=eps.dim)
    if rank(fwd) != dim:
        raise OmniError("the canonical map gl(V) (+) V -> epsilon(V[1]) "
                        "is not bijective")
    return OmniIso(n, A_E, eps, fwd)


def verify_main_theorem(n: int, *, espace: Optional[ESpace] = None):
    """Check the isomorphism epsilon(V[1]) ~ gl(V) (+) V exactly.

    Returns (iso, report).  The report records: the kernel of the quotient
    has dimension C(n,2) and is spanned by the classes of v_i (x) v_j; the
    canonical map is bijective; its bracket table equals the Weinstein table;
    and the induced form equals FORM_SCALAR times the half-sum pairing.
    """
    iso = build_omni_iso(n, espace=espace)
    E, eps, A, fwd = iso.espace, iso.eps, iso.espace.algebra, iso.fwd

    kernel_dim_ok = eps.J.rows == n * (n - 1) // 2
    gen_rows = []
    for i in range(n):
        for j in range(i + 1, n):
            c = elementary_chain(A, (i + 1, j + 1))  # v_i (x) v_j
            gen_rows.append((ZERO,) * E.h1co.dim
                            + tuple(E.h1.reduce_chain(c)))
    kernel_generators_ok = (row_space(QMatrix(gen_rows or [], cols=E.dim))
                            == row_space(eps.J))

    bijective = True  # enforced in build_omni_iso
    bracket_ok = (pullback(eps.bracket_table, fwd, fwd)
                  == pushforward(weinstein_table(n), fwd))
    # row i: the H_0 class of FORM_SCALAR v_i, the image of a pairing value
    embed = QMatrix([E.h0.reduce(dense(((i + 1, FORM_SCALAR),), A.dim))
                     for i in range(n)], cols=E.h0_dim)
    form_ok = (pullback(eps.form_table, fwd, fwd)
               == pushforward(pairing_table(n), embed))

    report = MainTheoremReport(n, kernel_dim_ok, kernel_generators_ok,
                               bijective, bracket_ok, FORM_SCALAR, form_ok)
    return iso, report


# ---------------------------------------------------------------------------
# D-structures

class DStructureReport(Record):
    n: int
    dirac: bool
    is_lie_bracket: bool
    skew: bool
    jacobi: bool
    verdict: DiracVerdict

    @property
    def consistent(self):
        return self.dirac == self.is_lie_bracket

    def to_json(self):
        return {"n": self.n, "dirac": self.dirac,
                "is_lie_bracket": self.is_lie_bracket, "skew": self.skew,
                "jacobi": self.jacobi, "consistent": self.consistent,
                "verdict": self.verdict.to_json()}


def _sized(x, n: int, *where):
    """x, where it has n entries; else raises naming mu at index ``where``."""
    if not hasattr(x, "__len__") or len(x) != n:
        at = "".join(f"[{k}]" for k in where)
        raise OmniError(f"mu{at} has the wrong length: {x!r} is not "
                        f"{n} entries")
    return x


def _entry(x, *where):
    """x in the number form, or an OmniError naming mu at index ``where``."""
    try:
        return rat(x)
    except ExactLinError:
        at = "".join(f"[{k}]" for k in where)
        raise OmniError(f"mu{at} is not a rational: {x!r}") from None


def d_graph_rows(iso: OmniIso, mu) -> tuple:
    """``(table, rows)`` from mu, n rows of n cells of n entries with
    mu[i][j] the coordinates of mu(v_i, v_j), read in one pass: each entry
    is checked and brought to the number form, ``table`` is the sparse mu
    table of ``exactlin.sparse_table``, and row i of ``rows`` is the graph
    row (mu(v_i, .), v_i) cleared of its denominators and mapped to
    epsilon(V[1]) (module docstring).  The matrix mu(v_i, .) has column j
    equal to mu(v_i, v_j), so E_aj (at a n + j) holds mu(v_i, v_j)_a."""
    n, fwd = iso.n, iso.fwd
    table, rows = [], []
    for i, cells in enumerate(_sized(mu, n)):
        trow, graph = [], [(n * n + i, ONE)]
        for j, cell in enumerate(_sized(cells, n, i)):
            c = []
            for a, x in enumerate(_sized(cell, n, i, j)):
                if type(x) is not int:
                    x = _entry(x, i, j, a)
                if x:
                    c.append((a, x))
                    graph.append((a * n + j, x))
            if c:
                trow.append((j, tuple(c)))
        table.append(tuple(trow))
        rows.append(integral(combine(graph, fwd))[1])
    return tuple(table), rows


def d_structure_check(iso: OmniIso, mu) -> DStructureReport:
    """Dirac verdict of the graph {(mu(v, .), v)} versus the Lie-bracket
    oracle on mu; mu[i][j] holds the coordinates of mu(v_i, v_j).  Both
    read the one pass of ``d_graph_rows``."""
    table, rows = d_graph_rows(iso, mu)
    verdict = is_dirac(Submodule(iso.eps,
                                 QMatrix.from_canonical(rows, iso.eps.dim)))
    skew, jacobi = lie_laws(iso.n, table)
    return DStructureReport(iso.n, verdict.dirac, skew and jacobi, skew,
                            jacobi, verdict)
