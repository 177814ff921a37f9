"""Transport between an algebra and its matrix algebra.

The chain-level maps are the entrywise extension of a derivation and the
corner embedding a_0 (x) ... (x) a_n -> E11(a_0) (x) ... (x) E11(a_n).  The
module verifies, exactly, that they induce bracket- and form-preserving
bijections E(A) -> E(M_r(A)) and epsilon(A) -> epsilon(M_r(A)), and
transports Dirac structures along the induced isomorphism.  Each map is a
matrix on class coordinates, and each preservation check is one table
identity, ``pullback(T_target, F, F) == pushforward(T_source, F_values)``
(see ``exactlin.pullback``).  A Dirac structure is transported by the
quotient map F that the checks built, kept on the ``MoritaContext``.  The
verdicts, ``MoritaReport`` and ``OppositeReport``, are ``exactlin.Report``
records: fields only, with ``ok`` the conjunction of the ``bool`` fields
and the JSON report the fields by name.
"""

from __future__ import annotations

from typing import Optional

from .algebra import (FiniteAlgebra, check_guard, matrix_algebra,
                      opposite_algebra)
from .courant import EpsilonSpace, ESpace
from .dirac import Submodule, is_dirac
from .exactlin import (ZERO, HccourantError, QMatrix, Record, Report,
                       combine, pullback, pushforward, rank, row_combination)
from .hochschild import Chain, boundary_b


#: the largest target dimension r^2 dim A built unless max_dim is given
MORITA_MAX_DIM = 100


class MoritaError(HccourantError):
    pass


def cotr(X: QMatrix, M: FiniteAlgebra, r: int) -> QMatrix:
    """Entrywise application of a derivation of A on M_r(A)."""
    d, rows = X.cols, X.sparse_rows
    # E_pq(e_i), at b = pq d + i, goes to E_pq(X(e_i))
    return QMatrix(([(b - b % d + k, x) for k, x in rows[b % d]]
                    for b in range(r * r * d)), M.dim)


def inc(c: Chain, M: FiniteAlgebra, r: int) -> Chain:
    """Corner embedding of chains: every slot lands in the (1,1) corner.

    With the basis order E_pq(e_i) at index (p r + q) d + i, the (1,1) corner
    E11(e_i) sits at index i, so the embedding keeps every multi-index,
    its digits re-read from base dim A to base dim M by strides.
    """
    d, D, n = c.algebra.dim, M.dim, c.degree
    return Chain(M, n, tuple((sum(k // d ** j % d * D ** j
                                  for j in range(n + 1)), x)
                             for k, x in c.row))


class MoritaMaps(Record):
    source: ESpace
    target: ESpace
    r: int
    h1co_map: QMatrix   # H^1(A) class basis -> H^1(M_r) class coords
    h1_map: QMatrix     # H_1(A) class basis -> H_1(M_r) class coords
    h0_map: QMatrix     # H_0(A) class basis -> H_0(M_r) class coords
    e_map: QMatrix      # h1co_map (+) h1_map: E(A) -> E(M_r) class coords


def build_morita_maps(src: ESpace, tgt: ESpace, r: int) -> MoritaMaps:
    M = tgt.algebra
    h1co_rows = [tgt.class_of_derivation(cotr(X, M, r))
                 for X in src.derivations]
    h1_rows = []
    for k in range(src.h1.dim):
        ia = inc(src.h1.rep_chain(k), M, r)
        if not boundary_b(ia).is_zero():
            raise MoritaError("corner embedding broke a cycle")
        h1_rows.append(tgt.h1.reduce_chain(ia))
    h0_map = QMatrix([tgt.h0.reduce_chain(inc(src.h0.rep_chain(k), M, r))
                      for k in range(src.h0.dim)], cols=tgt.h0.dim)
    e_map = QMatrix([x + (ZERO,) * tgt.h1.dim for x in h1co_rows]
                    + [(ZERO,) * tgt.h1co.dim + a for a in h1_rows], tgt.dim)
    return MoritaMaps(src, tgt, r, QMatrix(h1co_rows, cols=tgt.h1co.dim),
                      QMatrix(h1_rows, cols=tgt.h1.dim), h0_map, e_map)


class MoritaReport(Report):
    algebra: str
    r: int
    h1_cohomology_bijective: bool
    h1_homology_bijective: bool
    h0_bijective: bool
    pairing_preserved: bool
    bracket_preserved: bool
    homotopy_identity: bool
    quotient_dims_match: bool
    quotient_bracket_preserved: bool
    quotient_form_preserved: bool


class MoritaContext(Record):
    maps: MoritaMaps
    src_eps: EpsilonSpace
    tgt_eps: EpsilonSpace
    report: MoritaReport
    eps_map: Optional[QMatrix]  # F: epsilon(A) -> epsilon(M_r), or None


def _check_homotopy_identity(A: FiniteAlgebra, M: FiniteAlgebra,
                             r: int) -> bool:
    """(1_M - E11(1)) (x) E11(a) = -b{(1_M - E11(1)) (x) E11(a) (x) E11(1)}
    as an exact chain identity, for every basis a."""
    u = list(M.unit)
    for k, c in enumerate(A.unit):  # subtract E11(1)
        u[k] -= c
    u_terms = [(k, x) for k, x in enumerate(u) if x]
    # E11(1) has the coordinates of 1 in A, by the index-preserving corner
    one_terms = [(m, y) for m, y in enumerate(A.unit) if y]
    for i in range(A.dim):
        expected = Chain(M, 1, tuple((k * M.dim + i, x) for k, x in u_terms))
        chain = Chain(M, 2, tuple((k * M.dim + m, x * y) for k, x in
                                  expected.row for m, y in one_terms))
        if not (boundary_b(chain) + expected).is_zero():
            return False
    return True


def verify_morita(A: FiniteAlgebra, r: int = 2, *,
                  max_dim: Optional[int] = None,
                  src: Optional[ESpace] = None) -> MoritaContext:
    """Build E and epsilon on both sides and verify the transport exactly;
    the target's dimension is checked against max_dim (by default
    ``MORITA_MAX_DIM``) before the target is built."""
    limit = MORITA_MAX_DIM if max_dim is None else max_dim
    check_guard(r * r * A.dim, 2, limit)
    M = matrix_algebra(A, r)
    src = src or ESpace(A, max_dim=max_dim)
    tgt = ESpace(M, max_dim=limit)
    maps = build_morita_maps(src, tgt, r)

    h1co_bij = (rank(maps.h1co_map) == src.h1co.dim
                and src.h1co.dim == tgt.h1co.dim)
    h1_bij = (rank(maps.h1_map) == src.h1.dim and src.h1.dim == tgt.h1.dim)
    h0_bij = (rank(maps.h0_map) == src.h0.dim and src.h0.dim == tgt.h0.dim)

    src_eps = EpsilonSpace(src)
    tgt_eps = EpsilonSpace(tgt)

    # form: (F u, F v) = phi((u, v)) for F = T (+) I; F keeps H^1 and H_1
    # apart and the form is zero on (X, X) and (alpha, alpha), so this is
    # the pairing identity <T(X), I(alpha)> = phi(<X, alpha>)
    F = maps.e_map
    pairing_ok = (pullback(tgt.form_table, F, F)
                  == pushforward(src.form_table, maps.h0_map))
    # bracket: F [[u, v]] = [[F u, F v]]
    bracket_ok = (pullback(tgt.bracket_table, F, F)
                  == pushforward(src.bracket_table, F))

    homotopy_ok = _check_homotopy_identity(A, M, r)
    dims_ok = src_eps.dim == tgt_eps.dim

    # the induced map F on the quotients: row a is the image of class rep a
    qb_ok = qf_ok = False
    F = None
    if dims_ok:
        F = QMatrix([tgt_eps.reduce(row_combination(rep, maps.e_map))
                     for rep in src_eps.class_reps], cols=tgt_eps.dim)
        if rank(F) == src_eps.dim:
            qb_ok = (pullback(tgt_eps.bracket_table, F, F)
                     == pushforward(src_eps.bracket_table, F))
            qf_ok = (pullback(tgt_eps.form_table, F, F)
                     == pushforward(src_eps.form_table, maps.h0_map))

    report = MoritaReport(A.name, r, h1co_bij, h1_bij, h0_bij, pairing_ok,
                          bracket_ok, homotopy_ok, dims_ok, qb_ok, qf_ok)
    return MoritaContext(maps, src_eps, tgt_eps, report, F)


def transport_dirac(ctx: MoritaContext, L: Submodule) -> tuple:
    """Image of a Dirac structure under the induced isomorphism, re-verified
    on the target; returns (submodule, verdict).  Kept though only the tests
    call it: it is the paper's Morita transport, which the ``morita``
    command is to reach once it reads a submodule."""
    if not ctx.report.ok:
        raise MoritaError("transport requires a verified Morita context")
    if L.ambient is not ctx.src_eps:
        raise MoritaError("submodule is not over the source quotient")
    rows = [combine(v, ctx.eps_map) for v in L.vectors.sparse_rows]
    out = Submodule(ctx.tgt_eps, QMatrix(rows, cols=ctx.tgt_eps.dim))
    return out, is_dirac(out)


# ---------------------------------------------------------------------------
# the opposite-algebra isomorphism

class OppositeReport(Report):
    algebra: str
    h_dims_match: bool
    presentations_coincide: bool
    bracket_tables_match: bool
    form_tables_match: bool


def verify_opposite(E: ESpace) -> OppositeReport:
    """E(A) vs E(A^op) under the identity on chains, for E = E(A).

    Degree-1 cycle and boundary spaces, derivations and inner derivations all
    literally coincide for the opposite product, so both sides share their
    canonical presentations; the bracket and form tables are then compared
    as tables.
    """
    A = E.algebra
    Eop = ESpace(opposite_algebra(A), max_dim=E.max_dim)
    dims = (E.h1co.dim == Eop.h1co.dim and E.h1.dim == Eop.h1.dim
            and E.h0.dim == Eop.h0.dim)
    same_pres = (E.h1co.class_reps == Eop.h1co.class_reps
                 and E.h1.class_reps == Eop.h1.class_reps
                 and E.h0.class_reps == Eop.h0.class_reps)
    brackets = forms = dims and same_pres
    if dims and same_pres:
        brackets = E.bracket_table == Eop.bracket_table
        forms = E.form_table == Eop.form_table
    return OppositeReport(A.name, dims, same_pres, brackets, forms)
