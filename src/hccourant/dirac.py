"""Dirac structures: isotropy, maximal isotropy, bracket closure, graphs.

Submodules are Q-subspaces of a ``courant.CourantSpace``, E(A) or the
quotient, read through that interface alone.  A graph's spanning rows are
already an echelon of it (below), on which ``is_dirac`` decides it; any
other L is eliminated once into an ``exactlin.Span``, whose primitive
integer rows carry the verdicts.  A graph's span is built only for a
report's canonical (RREF) basis, a Lie-algebroid check or a
counterexample, which ``is_dirac`` builds on the verdict's first read of
it.  Verdicts are exact; Z(A)-stability is a separate flag.  ``is_dirac``
runs on sparse rows throughout: isotropy, maximality, closure and
Z-stability hold or fail with any rescaling of a basis, so they contract
the ambient's tables on integer rows held as dicts, and a span test is the
emptiness of a fraction-free residual.  Only a counterexample is dense.

Z-stability is tested only on the non-scalar centre (``_nonscalar_centre``):
z -> (action of z) is linear and a scalar preserves every subspace, so L is
Z-stable exactly when the actions independent of the identity preserve it.
On every epsilon(V[1]) the centre acts by scalars, so the test is empty.

By the Courant axiom [[u, v]] + [[v, u]] = D(u, v) the bracket is skew on
an isotropic L, where 2[[u, u]] = D(u, u) = 0, so closure is tested on the
pairs i < j there and on every ordered pair, the diagonal included,
elsewhere, each value tested as summed, unsorted.

Maximality is decided by complement where it can be.  The form pairs H^1
only with H_1, so it vanishes on each coordinate block W of a space (the
first ``x_dim`` coordinates, or the rest).  Lemma: for L isotropic and
V = L (+) W, L-perp = L (+) (rad meet W).  Proof: L lies in L-perp, so
L-perp = L (+) (L-perp meet W); a w in W is orthogonal to W, so w is
orthogonal to L exactly when it is orthogonal to L + W = V, i.e. w is in
the radical.  So L is maximal exactly when rad meet W = 0, which always
holds on the nondegenerate quotient.  Every graph the package checks is
such a complement: Poisson and D-structure graphs of the H^1 block,
2-form graphs of the H_1 block.  On the quotient V = L (+) W holds when
the nonzero spanning rows of L number n - |W| and, restricted to the
columns outside W, lead at distinct columns: each such row is nonzero
where those with later leads vanish, so the rows are a basis of L that
meets W only in 0.  Sorted by lead, each is 0 at the leads before its own,
so they are an echelon of L (``Submodule.echelon``): a vector lies in L
exactly when clearing it at each lead in ascending order leaves 0
(``exactlin.echelon_contains``).  Any other isotropic L, and every L in
E(A), is decided on C, the non-pivot columns of L: a vector of L-perp less
the rows of L at its pivot entries is in L-perp and 0 on the pivot
columns, so L-perp = L (+) (L-perp meet C), and L is maximal exactly when
the equations of L-perp on C have rank |C| = n - dim L; one untagged span
takes them and stops at that rank.

A skew bracket's Jacobiator is totally antisymmetric, so ``lie_laws``
sums it on i < j < k once skew-symmetry holds, each term read off the
table's cells: [[e_a, e_b], e_c] = sum over s of [e_a, e_b]_s [e_s, e_c].

A Poisson graph is linear in the flat bracket table: ``_graph_map(E)``,
cached per space, holds the H^1 class coordinates of the values of every
unit table on the H_1 class reps, and ``poisson_graph`` is one sparse row
combination of it.  The combination reads the integral table m t, its
denominators cleared once by ``exactlin.integral``, and puts m, not 1, at
each H_1 unit entry: each row is m times the row of t, and a row times a
nonzero scalar spans the same line, so the graph, its verdict and its
RREF are those of t, and no rational reaches its spans.  It needs no
refusal: a ``BracketTable`` is a validated biderivation, so its
hamiltonian map vanishes on the H_1 boundaries and each value a {b, .} is
a derivation ({b, .} is one and A is commutative).
The tests' reference is the chain-level loop over ``A.mul``, which reads
no table of this module.

The anchor of a Lie algebroid is a sparse table, built with the defect
tables below and read through ``EpsilonSpace.rho``, which refuses where
it does not descend; each image X_a(c_m) is split against one span of the
centre basis, and one that leaves the centre raises.  The anchor law
rho[[u, v]] = [rho u, rho v] and the central Leibniz rule
[[u, z v]] = z [[u, v]] + rho(u)(z) v hold on the whole Courant algebroid,
not only on a Dirac structure (Liu-Weinstein-Xu, Manin triples for Lie
bialgebroids, 1997; Uchino, Remarks on the definition of a Courant
algebroid, 2002).  So their defects are two tables cached per quotient,
built on first use from its tables, and ``lie_algebroid_check`` reads them
on the rows of L: by multilinearity that decides both laws on L, and
where the defects are empty (on every quotient of the corpus) it costs
nothing per L.  Its ``LieAlgebroidReport`` is an ``exactlin.Report``
record: ``ok`` is the conjunction of the four law fields and the JSON report
is the fields by name.  A ``DiracVerdict`` carries a counterexample and no
``ok``, so it writes its own JSON.

A 2-form class omega in H_2 is closed when B omega = 0 in H_3.  B omega is a
cycle (bB + Bb = 0), so that holds when it lies in im b_4, one span built
under the guard of E (``hochschild.boundaries``): no H_3 is built, and the
closed classes are one nullspace.  Every class is also alternating,
i_X i_Y omega + i_Y i_X omega = 0 in H_0: i_X is the cap product with the
1-cocycle X, and the cup product on HH^* is graded-commutative
(Gerstenhaber, 1963), so the sum is +-(X cup Y + Y cup X) cap omega = 0.
"""

from __future__ import annotations

import functools
import itertools
from functools import cached_property
from typing import Optional, Sequence

from .algebra import FiniteAlgebra
from .courant import CourantSpace, EpsilonSpace, ESpace
from .exactlin import (ONE, HccourantError, QMatrix, Record, Report, Span,
                       _over, combine, combine_tables, contract, contract_sums,
                       dense, echelon_contains, integral, nullspace,
                       pullback, pushforward, rat_str, sparse, sparse_row,
                       sparse_table, transpose_table, vec)
from .hochschild import (Chain, HomologyPresentation, boundaries, connes_B,
                         homology, interior_product, leibniz_operator)


class DiracError(HccourantError):
    pass


# ---------------------------------------------------------------------------
# submodules

class Submodule:
    """A subspace of a ``CourantSpace``, given by spanning vectors.

    ``echelon``, L's basis as (lead, {column: int}) pairs, leads ascending,
    each row 0 at the leads before its own, is the spanning rows where the
    complement rule holds (``complement``), else the rows of ``span``, an
    ``exactlin.Span`` built when first read, as are ``int_rows``, its rows,
    and the RREF basis ``vectors``, row i ``int_rows[i]`` over its pivot."""

    def __init__(self, ambient: CourantSpace, vectors: QMatrix):
        if vectors.cols != ambient.dim:
            raise DiracError("spanning vectors do not match the ambient")
        self.ambient = ambient
        self.spanning = vectors

    @cached_property
    def span(self) -> Span:
        return Span(self.spanning)

    @cached_property
    def complement(self) -> Optional[tuple]:
        return _complement(self.ambient, self.spanning.sparse_rows)

    @cached_property
    def echelon(self) -> tuple:
        return self.complement or tuple(sorted(self.span.rows.items()))

    def contains(self, row) -> bool:
        return echelon_contains(self.echelon, dict(row))

    @cached_property
    def int_rows(self) -> tuple:
        return self.span.primitive_rows()

    @cached_property
    def vectors(self) -> QMatrix:
        return QMatrix(self.span.basis(), self.ambient.dim)

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @cached_property
    def isotropic(self) -> bool:
        """The form, symmetric, vanishes on the pairs i <= j of the nonzero
        spanning rows, or of the ``echelon`` where they outnumber it."""
        vs = [row for row in self.spanning.sparse_rows if row]
        if len(vs) > self.ambient.dim:
            vs = [row.items() for _, row in self.echelon]
        F = self.ambient.form_table
        return not any(any(contract_sums(u, v, F).values())
                       for j, v in enumerate(map(dict, vs))
                       for u in vs[:j + 1])


def project(eps: EpsilonSpace, vectors: QMatrix) -> Submodule:
    """The image in the quotient of the span of the rows of ``vectors``, a
    matrix of E(A) vectors."""
    if vectors.cols != eps.espace.dim:
        raise DiracError("spanning vectors do not match E(A)")
    return Submodule(eps, QMatrix.from_canonical(
        [combine(r, eps.projection) for r in vectors.sparse_rows], eps.dim))


def _complement(amb: CourantSpace, rows) -> Optional[tuple]:
    """The complement rule (module docstring) on a quotient's spanning
    rows, counted before any lead is read: each nonzero row as (lead,
    {column: int}), sorted by lead, or None where the rule fails."""
    rows, n = [row for row in rows if row], amb.dim
    for lo, hi in ((0, amb.x_dim), (amb.x_dim, n)):
        if amb.quotient and len(rows) == n - (hi - lo):
            leads = [next((k for k, _ in row if not lo <= k < hi), None)
                     for row in rows]
            if None not in leads and len(set(leads)) == len(leads):
                return tuple(sorted((p, dict(integral(row)[1]))
                                    for p, row in zip(leads, rows)))
    return None


def is_maximally_isotropic(L: Submodule) -> bool:
    """L isotropic and L-perp = L: true where the rule finds that L
    complements a coordinate block of the quotient (``L.complement``, by
    the lemma of the module docstring); otherwise the equations of L-perp
    on the non-pivot columns C of L must reach rank |C| = n - dim L."""
    if not L.isotropic or L.complement is not None:
        return L.isotropic
    amb, n = L.ambient, L.ambient.dim
    free, pivots = n - L.dim, L.span.rows
    eqs = Span(QMatrix((), cols=n))
    for b in amb.orthogonal_equations(L.int_rows):
        if eqs.dim == free:
            break
        if row := [(k, x) for k, x in b.items() if x and k not in pivots]:
            eqs.add(row, {})
    return eqs.dim == free


def _closed_on_rows(L: Submodule) -> Optional[bool]:
    """Closure decided on the rows of ``L.complement``, None where it has
    none: the pairs i < j on an isotropic L, else every ordered pair."""
    T, ech = L.ambient.bracket_table, L.complement
    return None if ech is None else all(
        echelon_contains(ech, contract_sums(u.items(), v, T))
        for i, (_, u) in enumerate(ech)
        for _, v in (ech[i + 1:] if L.isotropic else ech))


def _closure_by_span(L: Submodule):
    """The span loop of ``is_bracket_closed``, on the span's rows."""
    T, rows = L.ambient.bracket_table, sorted(L.span.rows.items())
    for i, (p, u) in enumerate(rows):
        for j in range(i + 1 if L.isotropic else 0, len(rows)):
            q, v = rows[j]
            b = contract_sums(u.items(), v, T)
            if not L.span.contains([(k, x) for k, x in b.items() if x]):
                b = _over(b, u[p] * v[q])
                return False, (i, j, dense(b, L.ambient.dim))
    return True, None


def is_bracket_closed(L: Submodule):
    """Returns (closed, counterexample); the counterexample names the first
    failing pair of spanning indices in row-major order and the offending
    bracket value, as a dense tuple.  On an isotropic L the bracket is skew
    and [[u, u]] = 0, so the pairs i < j decide and hold that first failure
    (a diagonal pair never fails there).  An L with a ``complement`` is
    decided on its rows, with the diagonal where L is not isotropic; a
    failure there, or any other L, runs on the span's integer rows r_i,
    whose counterexample is the integer bracket over p_i p_j, for p_i the
    pivot entry of r_i: the RREF rows'."""
    return (True, None) if _closed_on_rows(L) else _closure_by_span(L)


@functools.lru_cache(maxsize=8)
def _nonscalar_centre(ambient) -> tuple:
    """The centre basis indices m whose action, row m of the Z table
    flattened (cell (a, k) at a n + k), is not in the span of the identity
    and of the actions kept before it.  Cached per ambient."""
    n = ambient.dim
    acts = Span(QMatrix([[(a * n + a, ONE) for a in range(n)]], cols=n * n))
    return tuple(m for m, row in enumerate(ambient.z_table) if acts.add(
        [(a * n + k, x) for a, cell in row for k, x in cell], {}))


def is_z_stable(L: Submodule) -> bool:
    """Every non-scalar centre action (``_nonscalar_centre``) maps L to L."""
    Z = L.ambient.z_table
    return all(L.contains(contract_sums(((m, ONE),), l, Z))
               for m in _nonscalar_centre(L.ambient) for _, l in L.echelon)


class DiracVerdict(Record):
    """The verdict's flags and the counterexample of ``is_bracket_closed``.
    A callable given as the counterexample is its witness, built by it on
    the first read (the attribute, ``==``, ``hash``, ``repr`` or
    ``to_json``) and kept for every later one."""
    isotropic: bool
    maximal: bool
    closed: bool
    dirac: bool
    z_stable: bool
    counterexample: Optional[tuple]

    def __post_init__(self):
        if callable(self.counterexample):
            vars(self)["_witness"] = vars(self).pop("counterexample")

    @cached_property
    def counterexample(self) -> Optional[tuple]:
        return vars(self).pop("_witness")()

    def to_json(self) -> dict:
        ce = None
        if self.counterexample is not None:
            i, j, b = self.counterexample
            ce = {"pair": [i, j], "bracket": [rat_str(x) for x in b]}
        return {"isotropic": self.isotropic, "maximal": self.maximal,
                "closed": self.closed, "dirac": self.dirac,
                "z_stable": self.z_stable, "counterexample": ce}


def is_dirac(L: Submodule) -> DiracVerdict:
    """Full verdict; requires a nondegenerate ambient (the quotient) with
    epsilon(A) != 0.  Where L has a ``complement``, closure is decided on
    its rows and a failing pair's counterexample, the span loop of
    ``is_bracket_closed``, is built on the verdict's first read of it."""
    if not L.ambient.quotient:
        raise DiracError("Dirac verdicts require the nondegenerate quotient; "
                         "use is_maximally_isotropic for the pre-quotient view")
    if L.ambient.dim == 0:
        raise DiracError("the quotient is zero: Dirac structures undefined")
    maximal, closed = is_maximally_isotropic(L), _closed_on_rows(L)
    if closed is None:
        closed, ce = is_bracket_closed(L)
    else:
        ce = None if closed else (lambda: _closure_by_span(L)[1])
    return DiracVerdict(L.isotropic, maximal, closed, maximal and closed,
                        is_z_stable(L), ce)


# ---------------------------------------------------------------------------
# biderivation bracket tables

class BracketTable(Record):
    """Values {e_i, e_j} of a bilinear biderivation on a commutative algebra."""
    algebra: FiniteAlgebra
    table: tuple  # table[i][j]: coords of {e_i, e_j}

    def __post_init__(self):
        A = self.algebra
        if not A.is_commutative():
            raise DiracError("bracket tables require a commutative algebra")
        d, t = A.dim, self.table
        if len(t) != d or any(len(r) != d or any(len(c) != d for c in r)
                              for r in t):
            raise DiracError("bracket table has wrong shape")
        _check_biderivation(A, t)


def _check_biderivation(A: FiniteAlgebra, table) -> None:
    """Raises on the first law, in the order of ``_leibniz_laws``, that the
    table breaks: one row combination of the laws by its nonzero entries."""
    d = A.dim
    broken = combine(sparse([x for row in table for cell in row
                             for x in cell]), _leibniz_laws(A))
    if broken:
        ijk, slot = divmod(broken[0][0] // d, 2)
        i, j, k = ijk // (d * d), ijk // d % d, ijk % d
        raise DiracError(f"{('second', 'first')[slot]}-slot biderivation "
                         f"law fails at ({i},{j},{k})")


def make_bracket_table(A: FiniteAlgebra, table) -> BracketTable:
    return BracketTable(A, tuple(tuple(map(vec, row)) for row in table))


def biderivation_space(A: FiniteAlgebra) -> QMatrix:
    """Basis of all biderivation tables, flattened as (i, j, k) -> t[i][j][k].

    Used to draw random biderivations without rejection sampling.
    """
    if not A.is_commutative():
        raise DiracError("biderivation space requires a commutative algebra")
    return nullspace(_leibniz_laws(A).transpose())


@functools.lru_cache(maxsize=8)
def _leibniz_laws(A: FiniteAlgebra) -> QMatrix:
    """The biderivation laws as the columns of one matrix whose row
    (a d + b) d + m is the flat table entry {e_a, e_b}_m: coordinate m of
    law 2 (i d^2 + j d + k) + slot, at column law d + m, is that of
    ``leibniz_operator`` for the derivation {e_i, .} (slot 0, "second") or
    {., e_i} (slot 1, "first") on e_j e_k, its unknown D(e_s)_m relabelled
    (i d + s) d + m or (s d + i) d + m.  Cached per algebra."""
    d = A.dim
    cols, out = 2 * d ** 4, {}
    by_unknown = leibniz_operator(A).transpose().sparse_rows
    for a, b, m in itertools.product(range(d), repeat=3):
        key = ((a * d + b) * d + m) * cols
        # row r = (j d + k) d + m' of the operator, for the law at i
        for i, slot, unknown in ((a, 0, b * d + m), (b, 1, a * d + m)):
            for r, c in by_unknown[unknown]:
                out[key + ((i * d * d + r // d) * 2 + slot) * d + r % d] = c
    return QMatrix.from_sums(out, d ** 3, cols)


def table_from_flat(A: FiniteAlgebra, flat: Sequence) -> BracketTable:
    d = A.dim
    flat = vec(flat)
    t = tuple(tuple(flat[(i * d + j) * d:(i * d + j) * d + d]
                    for j in range(d)) for i in range(d))
    return BracketTable(A, t)


def _lie_flags(n: int, table):
    """Yields skew, then jacobi; ``all`` over it skips Jacobi if skew fails."""
    br = [dict(row) for row in table]  # [e_i, e_j] is cell (i, j), if any
    skew = all(br[i].get(j, ()) == tuple((k, -t) for k, t in br[j].get(i, ()))
               for i in range(n) for j in range(i, n))
    yield skew

    def jacobi_fails(i, j, k):  # the cyclic sum, in one dict, is nonzero
        out = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for s, x in br[a].get(b, ()):
                for m, t in br[s].get(c, ()):
                    out[m] = out.get(m, 0) + x * t
        return any(out.values())

    # a skew bracket's Jacobiator is totally antisymmetric
    triples = (itertools.combinations(range(n), 3) if skew
               else itertools.product(range(n), repeat=3))
    yield not any(jacobi_fails(*t) for t in triples)


def lie_laws(n: int, table) -> tuple:
    """(skew, jacobi) on all basis pairs and triples of the bracket on Q^n
    of an ``exactlin.sparse_table``; Jacobi terms are summed from its cells."""
    return tuple(_lie_flags(n, table))


def is_poisson(t: BracketTable) -> bool:
    """Brute-force oracle: skew-symmetry, then the Jacobi identity, on the
    basis pairs and triples."""
    return all(_lie_flags(t.algebra.dim, sparse_table(t.table)))


# ---------------------------------------------------------------------------
# Poisson graphs

def _hamiltonian_table(A: FiniteAlgebra) -> tuple:
    """The hamiltonian map a (x) b -> a {b, .} as a sparse table: row i d + j
    is the chain e_i (x) e_j, column (j d + k) d + s is the entry
    {e_j, e_k}_s of the flat bracket table, and the cell is e_i e_s placed
    at row k of the flat cochain."""
    d, S = A.dim, A.structure
    return tuple(
        tuple(((j * d + k) * d + s, tuple((k * d + m, x) for m, x in cell))
              for k in range(d) for s, cell in S[i])
        for i in range(d) for j in range(d))


@functools.lru_cache(maxsize=8)
def _graph_map(E: ESpace) -> QMatrix:
    """The Poisson graph as a linear map of the flat bracket table: row q
    holds the H^1 class coordinates of pi_q(rep_j), for pi_q the hamiltonian
    map of the unit table e_q and rep_j the H_1 class reps, at column
    j h1co.dim + k.  ``split`` is linear, so a table's row combination of it
    is the class coordinates of its own values, and on a biderivation these
    are derivations (see the module docstring): the combination is its
    graph.  Cached, since every bracket table over A is contracted with it."""
    D, hc = E.algebra.dim ** 3, E.h1co.dim
    # cell (q, r) is the hamiltonian image of chain index r under e_q
    T = transpose_table(_hamiltonian_table(E.algebra), D)
    reps = E.h1.class_reps.sparse_rows
    return QMatrix([[(j * hc + k, x) for j, rep in enumerate(reps)
                     for k, x in E.h1co.reduce.split(
                         contract(((q, ONE),), rep, T))[1]]
                    for q in range(D)], cols=len(reps) * hc)


def poisson_graph(E: ESpace, eps: EpsilonSpace, t: BracketTable):
    """The graph of the hamiltonian map over the H_1 class basis, in E(A),
    together with its projection to the quotient: one row combination of
    ``_graph_map`` on the integral table m t, with m at each H_1 unit entry
    (module docstring)."""
    A = E.algebra
    if not A.is_commutative():
        raise DiracError("Poisson graphs require a commutative algebra")
    if t.algebra is not A:
        raise DiracError("bracket table over a different algebra")
    if eps.espace is not E:
        raise DiracError("the quotient is not that of the given E(A)")
    scale, flat = integral(sparse([x for row in t.table for cell in row
                                   for x in cell]))
    graph = combine(flat, _graph_map(E))
    hc = E.h1co.dim
    rows = [[] for _ in range(E.h1.dim)]
    for k, x in graph:
        j, m = divmod(k, hc)
        rows[j].append((m, x))
    spanning = QMatrix.from_canonical(
        [(*row, (hc + j, scale)) for j, row in enumerate(rows)], E.dim)
    return Submodule(E, spanning), project(eps, spanning)


# ---------------------------------------------------------------------------
# closed 2-forms

class TwoFormClass(Record):
    espace: ESpace
    h2: HomologyPresentation
    coords: tuple  # H_2 class coordinates

    def rep(self) -> Chain:
        return self.h2.class_to_chain(self.coords)


def _two_form_conditions(h2: HomologyPresentation, b3: Span) -> QMatrix:
    """Column k is the residual of B(omega_k) modulo ``b3``, for omega_k the
    H_2 class rep k: linear, and 0 exactly on the closed classes, so they
    are its nullspace.  Alternation needs no rows (module docstring)."""
    return QMatrix([b3.split(connes_B(h2.rep_chain(k)).row)[0]
                    for k in range(h2.dim)], cols=b3.cols).transpose()


def two_form(E: ESpace, coords: Sequence) -> TwoFormClass:
    """Validated closed 2-form class, refused by length before any degree-3
    work; raises DiracError naming where B(omega) first leaves im b_4."""
    h2 = homology(E.algebra, 2, max_dim=E.max_dim)
    coords = vec(coords)
    if len(coords) != h2.dim:
        raise DiracError("2-form coordinate length mismatch")
    b3 = boundaries(E.algebra, 3, max_dim=E.max_dim)
    residual = b3.split(connes_B(h2.class_to_chain(coords)).row)[0]
    if residual:
        k, x = residual[0]
        raise DiracError(f"2-form is not closed: B(omega) leaves im b_4 at "
                         f"chain index {k}, by {rat_str(x)}")
    return TwoFormClass(E, h2, coords)


def two_form_graph(eps: EpsilonSpace, omega: TwoFormClass):
    """The graph {(X, i_X omega)} over the H^1 class basis, projected to the
    quotient, with its Dirac verdict attached."""
    E = omega.espace
    if eps.espace is not E:
        raise DiracError("the quotient is not that of the 2-form's E(A)")
    if eps.dim == 0:
        raise DiracError("the quotient is zero: Dirac structures undefined")
    rep = omega.rep()
    rows = [unit + E.h1.reduce_chain(interior_product(X, rep))
            for unit, X in zip(QMatrix.identity(E.h1co.dim), E.derivations)]
    L = project(eps, QMatrix(rows, cols=E.dim))
    return L, is_dirac(L)


def find_two_form_witness(E: ESpace):
    """``(witness_or_None, h2)``: row 0 of the canonical nullspace of
    ``_two_form_conditions``, the first closed class, None when omega = 0
    is the only one."""
    h2 = homology(E.algebra, 2, max_dim=E.max_dim)
    b3 = boundaries(E.algebra, 3, max_dim=E.max_dim)
    kernel = nullspace(_two_form_conditions(h2, b3))
    return (TwoFormClass(E, h2, kernel[0]) if kernel.rows else None), h2


# ---------------------------------------------------------------------------
# the Lie-algebroid consequences of a Dirac structure

def _anchor_table(eps: EpsilonSpace) -> tuple:
    """The anchor on the centre as a sparse table: cell (a, m) is X_a(c_m) in
    centre coordinates, for X_a = ``eps.rho(e_a)`` and c_m the centre basis.
    Each image is split against the centre's span and raises if it leaves
    the centre; by linearity the basis pairs cover every u and z."""
    E, cb = eps.espace, eps.center_basis
    centre, table = Span(cb, tagged=True), []
    for u in QMatrix.identity(eps.dim):
        X = E.derivation_of(eps.rho(u))
        cells = [centre.split(combine(c, X)) for c in cb.sparse_rows]
        if any(w for w, _ in cells):
            raise DiracError("the anchor maps the centre out of the centre")
        table.append(tuple((m, c) for m, (_, c) in enumerate(cells) if c))
    return tuple(table)


@functools.lru_cache(maxsize=8)
def _algebroid_defects(eps: EpsilonSpace) -> tuple:
    """``(anchor, leibniz)``: the defects of the anchor and Leibniz laws of
    the bracket on the whole quotient, as sparse tables built from its
    tables.  The anchor defect is bilinear: cell (a, b) is
        sigma([[e_a, e_b]]) - (sigma_b sigma_a - sigma_a sigma_b),
    flattened k cdim + q, for sigma_a the anchor of e_a on the centre (row
    k its image of c_k; rows compose in reverse).  The Leibniz defect is
    trilinear: row a, column m dim + b holds
        [[e_a, z_m e_b]] - z_m [[e_a, e_b]] - X_a(z_m) e_b
    for z_m the centre basis.  Both tables are empty on every quotient of
    the corpus (a tier-1 test).  Cached per quotient."""
    S, T, Z = _anchor_table(eps), eps.bracket_table, eps.z_table
    n, cdim = eps.dim, eps.center_basis.rows
    sigma = QMatrix([[(k * cdim + q, x) for k, cell in row for q, x in cell]
                     for row in S], cols=cdim * cdim)
    # cell ((k, r), (r, q)) is e_(k, q): sigma_u sigma_v from their rows
    compose = tuple(tuple((r * cdim + q, ((k * cdim + q, ONE),))
                          for q in range(cdim))
                    for k in range(cdim) for r in range(cdim))
    P = pullback(compose, sigma, sigma)
    anchor = combine_tables(((ONE, pushforward(T, sigma)),
                             (-1, transpose_table(P, n)), (ONE, P)), n)
    units = QMatrix.identity(n)
    leibniz = [[] for _ in range(n)]
    for m in range(cdim):
        # row b of zm is z_m e_b, row a of xm is X_a(z_m)
        zrow = dict(Z[m])
        zm = QMatrix([zrow.get(b, ()) for b in range(n)], cols=n)
        xm = QMatrix([dict(row).get(m, ()) for row in S], cols=cdim)
        defect = combine_tables(((ONE, pullback(T, units, zm)),
                                 (-1, pushforward(T, zm)),
                                 (-1, pullback(Z, xm, units))), n)
        for a, row in enumerate(defect):
            leibniz[a] += ((m * n + b, cell) for b, cell in row)
    return anchor, tuple(map(tuple, leibniz))


class LieAlgebroidReport(Report):
    anchor_bracket: bool
    leibniz_rule: bool
    skew: bool
    jacobi: bool


def lie_algebroid_check(eps: EpsilonSpace, L: Submodule, *,
                        rng=None) -> LieAlgebroidReport:
    """For a Dirac structure L: the anchor intertwines brackets, the central
    Leibniz rule holds on L, and the restricted bracket is a Lie bracket.

    The two laws are read off ``_algebroid_defects`` (module docstring):
    ``anchor_bracket`` is the emptiness of the anchor defect's
    pullback to the rows of L; for ``leibniz_rule`` each row is contracted
    into the Leibniz defect first, and only a nonempty part is read on the
    centre basis z_m and the rows of L: the defect is linear in z, so the
    basis decides it.  ``rng`` is unused and draws nothing; it is kept
    because existing callers still pass it."""
    if L.ambient is not eps:
        raise DiracError("submodule is not over the given quotient")
    verdict = is_dirac(L)
    if not verdict.dirac:
        raise DiracError("lie_algebroid_check requires a Dirac structure")
    n, cdim = eps.dim, eps.center_basis.rows
    anchor, leibniz = _algebroid_defects(eps)
    ls = QMatrix(L.int_rows, cols=n)
    anchor_ok = not any(pullback(anchor, ls, ls))
    leibniz_ok = True
    for u in L.int_rows:
        # the defect at u: a one-row table on z (x) v, at column m n + b
        part = combine_tables([(x, (leibniz[a],)) for a, x in u], 1)
        if part[0] and any(
                contract(((0, ONE),), [(m * n + b, y) for b, y in v], part)
                for m in range(cdim) for v in L.int_rows):
            leibniz_ok = False

    # structure constants over the integer rows r_k (Lie-ness does not depend
    # on the basis): r_k alone is nonzero at its pivot p_k; on a skew
    # bracket Leibniz and cyclic Jacobi agree
    vs, T = L.int_rows, eps.bracket_table
    pivots = [row[0] for row in vs]

    def coords(b: dict) -> tuple:
        return tuple(e for k, (p, x) in enumerate(pivots) if p in b
                     for e in _over({k: b[p]}, x))
    consts = tuple(sparse_row({j: coords(dict(contract(u, v, T)))
                               for j, v in enumerate(vs)}) for u in vs)
    skew_ok, jacobi_ok = lie_laws(L.dim, consts)
    return LieAlgebroidReport(anchor_ok, leibniz_ok, skew_ok, jacobi_ok)
