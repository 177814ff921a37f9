"""The bracket space E(A) = H^1 (+) H_1 and its nondegenerate quotient.

E(A) carries the Leibniz bracket

    [[(X1, a1), (X2, a2)]] = ([X1, X2], L_X1 a2 - L_X2 a1 + B<X2, a1>)

and the H0-valued symmetric form (e1, e2) = <X2, a1> + <X1, a2>.  The radical
J of the form is a two-sided bracket ideal; the quotient carries a
nondegenerate induced form.

Both spaces are ``CourantSpace``s: an element is its coordinate tuple over a
class basis, and a space works from structure tensors fixed by their values
on that basis: the bracket table [[e_i, e_j]], the form table (e_i, e_j) and
the Z(A)-action table c_m . e_k for the centre basis c_m.  A table stores
only its nonzero cells, in the canonical sparse form of
``exactlin.sparse_table`` (row i holds ascending (j, cell) pairs, a cell
ascending (k, t) pairs with t != 0), so two tables are equal exactly when
``==`` says so.  ``bracket`` and ``form`` contract them with ``bilinear``,
as a caller contracts ``z_table``, and ``orthogonal_equations`` reads every
radical and orthogonal off the form table, once for both spaces.  ESpace
stores its form once: the form table, built at construction from the
pairings <X, alpha>, the class of i_X alpha in H_0, its only nonzero block,
so <X, alpha> is ``form((X, 0), (0, alpha))``; the bracket and Z tables are
built on first use, so a space that never brackets pays nothing.  Each table
makes one ``hochschild.apply`` call per derivation or centre element on all
the H_1 class reps (or flattened derivations) at once, with the face list of
a single-chain rule (``interior_map``, ``lie_map``, ``commutator_map``,
``left_map``), and reduces each nonzero cell by its presentation's span; the
bracket table reads the pairings off the form table and D as one matrix,
that of B: H_0 -> H_1.  ``courant_bracket`` is the reference the tables are
tested against.
EpsilonSpace keeps the quotient map as the matrix ``projection`` (row k:
the class of e_k) and induces its tables from E's: the form table is E's
read on the class reps (``pullback``), the bracket and Z tables are then
also mapped by ``projection``.

An ESpace carries its guard ``max_dim``, read by every homology built for
it.  ESpace verifies that B descends to H_0 (D does not depend on the
representative); EpsilonSpace verifies, exactly, that J is a two-sided
bracket ideal and that the induced form is nondegenerate, and
raises CourantError if either fails.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .algebra import FiniteAlgebra, check_guard
from .exactlin import (ZERO, HccourantError, QMatrix, Span, bilinear,
                       combine, combine_tables, dense, nullspace, pullback,
                       pushforward, quotient_basis, row_combination, sparse,
                       sparse_row, transpose_table, vec)
from .hochschild import (Chain, apply, center, cochain_from_flat,
                         cohomology_h1, commutator, commutator_map, connes_B,
                         flat_cochain, homology, interior_map, left_map,
                         lie_derivative, lie_map)


class CourantError(HccourantError):
    pass


class CourantSpace:
    """What E(A) and epsilon(A) share: coordinate tuples of length ``dim``,
    the sparse ``bracket_table``, ``form_table`` (``h0_dim`` H_0 coordinates
    per cell) and ``z_table`` over ``center_basis``, and the maps read off
    them.  ``quotient`` is True on the nondegenerate quotient.  The first
    ``x_dim`` coordinates come from H^1 and the rest from H_1; the form
    pairs H^1 only with H_1, so it vanishes on each of the two blocks."""

    quotient = False

    def _coords(self, u: Sequence) -> tuple:
        u = vec(u)
        if len(u) != self.dim:
            raise CourantError(f"{type(self).__name__} length mismatch")
        return u

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        """The Courant bracket on coordinates."""
        return bilinear(self._coords(u), self._coords(v), self.bracket_table,
                        self.dim)

    def form(self, u: Sequence, v: Sequence) -> tuple:
        """The H_0-valued form on coordinates."""
        return bilinear(self._coords(u), self._coords(v), self.form_table,
                        self.h0_dim)

    def orthogonal_equations(self, rows: Sequence):
        """The equations of the orthogonal of the sparse rows ``rows``, as
        ``h0_dim`` {k: x} dicts per row l: dict h holds (e_k, l)_h at k (0
        where a sum cancels), summed from the rows F[j] with j in l's
        support alone, since the form table F is symmetric."""
        F = self.form_table
        for l in rows:
            block = [{} for _ in range(self.h0_dim)]
            for j, x in l:
                for k, cell in F[j]:
                    for h, t in cell:
                        t *= x
                        b = block[h]
                        b[k] = b[k] + t if k in b else t
            yield from block

    def orthogonal_rows(self, rows: Sequence) -> QMatrix:
        """The equations of {e : (e, l) = 0 in H_0 for every sparse row l of
        ``rows``}: row (l, h) holds (e_k, l)_h at column k."""
        return QMatrix(map(sparse_row, self.orthogonal_equations(rows)),
                       cols=self.dim)

    def orthogonal(self, rows: Sequence) -> QMatrix:
        """Basis of the space ``orthogonal_rows`` gives the equations of."""
        return nullspace(self.orthogonal_rows(rows))

    @cached_property
    def radical(self) -> QMatrix:
        """Basis of the radical {e : (e, e') = 0 for all e'}."""
        return self.orthogonal(QMatrix.identity(self.dim).sparse_rows)


class ESpace(CourantSpace):
    """E(A) with fixed presentations of H^1, H_1, H_0 and the center.

    Elements are E coordinate tuples, x-part (H^1) first; ``derivations``
    holds the representatives of the H^1 class basis.  ``max_dim`` is
    the guard of every homology built for the space, here and by the
    functions that take it (``two_form``, ``find_two_form_witness``,
    ``load_two_form``, ``verify_opposite``).
    """

    def __init__(self, algebra: FiniteAlgebra, *,
                 max_dim: Optional[int] = None):
        self.algebra = algebra
        self.max_dim = max_dim
        # the guard first, so a refused algebra costs nothing
        self.check_guard(algebra.dim, max_dim)
        self.h1 = homology(algebra, 1, max_dim=max_dim)
        self.h0 = homology(algebra, 0, max_dim=max_dim)
        self.h1co = cohomology_h1(algebra)
        self.center_basis = center(algebra)
        self.dim = self.h1co.dim + self.h1.dim
        self.x_dim = self.h1co.dim
        self.h0_dim = self.h0.dim
        hc = self.h1co.dim
        # derivations[k]: the representative X_k of H^1 class basis vector k
        self.derivations = tuple(map(self.derivation_of,
                                     QMatrix.identity(hc)))
        # form_table[i][j] = (e_i, e_j) in H_0 class coordinates: the
        # pairing <X_i, alpha_j>, the class of i_X_i alpha_j, on (X, alpha)
        # pairs, symmetric, and 0 on (X, X) and (alpha, alpha) pairs
        F = [{} for _ in range(self.dim)]
        reps = self.h1.class_reps.sparse_rows
        for i, X in enumerate(self.derivations):
            for j, row in enumerate(apply(reps, algebra.dim, 1,
                                          *interior_map(algebra, X, 1))):
                if row:  # a zero image is class 0
                    F[i][hc + j] = F[hc + j][i] = sparse(self.h0.reduce(row))
        self.form_table = tuple(map(sparse_row, F))
        self._check_b_descends()

    @staticmethod
    def check_guard(dim: int, max_dim: Optional[int] = None) -> None:
        """The refusal of ``ESpace(A, max_dim=max_dim)`` for A of dimension
        ``dim``, before A is built: H_1 and H_0 read chain degrees 0-2."""
        for degree in (1, 2, 0):
            check_guard(dim, degree, max_dim)

    # -- representatives ----------------------------------------------------

    def derivation_of(self, xcoords: Sequence) -> QMatrix:
        return cochain_from_flat(
            self.algebra, row_combination(xcoords, self.h1co.class_reps))

    def class_of_derivation(self, X: QMatrix) -> tuple:
        return self.h1co.reduce(flat_cochain(X))

    # -- the structure maps -------------------------------------------------

    def rho(self, u: Sequence) -> tuple:
        """The anchor: the H^1 part of an E(A) vector."""
        return self._coords(u)[:self.h1co.dim]

    def _check_b_descends(self):
        # B of a commutator representative must land in the boundaries,
        # otherwise D would depend on the representative; e_a less the rep
        # of its H_0 class, over every a, spans the boundaries im b_1
        A, h0 = self.algebra, self.h0
        for e in QMatrix.identity(A.dim).sparse_rows:
            b = Chain(A, 0, e) - h0.class_to_chain(h0.reduce(e))
            if not self.h1.is_boundary(connes_B(b).row):
                raise CourantError(
                    "B does not descend on H0: representative dependence")

    def courant_bracket(self, u: Sequence, v: Sequence) -> tuple:
        """The bracket on chain representatives, kept as the reference the
        bracket table is tested against and as a name the benchmark tracer
        wraps."""
        hc = self.h1co.dim
        u, v = self._coords(u), self._coords(v)
        X1, X2 = self.derivation_of(u[:hc]), self.derivation_of(v[:hc])
        a1 = self.h1.class_to_chain(u[hc:])
        a2 = self.h1.class_to_chain(v[hc:])
        xb = self.class_of_derivation(commutator(X1, X2))
        t = lie_derivative(X1, a2) - lie_derivative(X2, a1)
        zx, za = (ZERO,) * hc, (ZERO,) * self.h1.dim
        bterm = connes_B(self.h0.class_to_chain(
            self.form(v[:hc] + za, zx + u[hc:])))  # <X2, a1>
        return xb + self.h1.reduce_chain(t + bterm)

    # -- structure tensors --------------------------------------------------

    @cached_property
    def bracket_table(self) -> tuple:
        """bracket_table[i][j] = [[e_i, e_j]] in E coordinates on class-basis
        pairs: [X_i, X_j] (skew), L_X_i alpha_j, and -L_X_j alpha_i +
        D<X_j, alpha_i>, <X_i, alpha_j> read off cell (i, hc + j) of
        ``form_table``; (alpha, alpha) pairs bracket to 0."""
        hc, hh, d = self.h1co.dim, self.h1.dim, self.algebra.dim
        D = QMatrix([self.h1.reduce_chain(connes_B(self.h0.rep_chain(h)))
                     for h in range(self.h0.dim)], cols=hh)  # B: H_0 -> H_1
        flats, reps = self.h1co.class_reps, self.h1.class_reps
        T, zero = [{} for _ in range(self.dim)], (ZERO,) * hh
        for i, X in enumerate(self.derivations):
            rows = apply(flats.sparse_rows[i + 1:], d, 1, *commutator_map(X))
            for j, row in enumerate(rows, i + 1):
                if row:
                    c = self.h1co.reduce(row)
                    T[i][j], T[j][i] = sparse(c), sparse([-x for x in c])
            pairings = dict(self.form_table[i])
            lies = apply(reps.sparse_rows, d, 1, *lie_map(X, 1))
            for j, row in enumerate(lies, hc):
                if row or j in pairings:
                    lx = self.h1.reduce(row) if row else zero
                    back = dense(combine(pairings.get(j, ()), D), hh)
                    T[i][j] = sparse(lx, hc)
                    T[j][i] = sparse([b - a for a, b in zip(lx, back)], hc)
        return tuple(map(sparse_row, T))

    @cached_property
    def z_table(self) -> tuple:
        """z_table[m][k] = c_m . e_k in E coordinates for the centre basis
        c_m: ``left_map`` on slot 1 of all flattened X gives z X, and on
        slot 0 of all H_1 reps alpha z alpha, one ``apply`` call each."""
        A, table = self.algebra, []
        parts = (0, self.h1co, 1), (self.h1co.dim, self.h1, 0)
        for z in self.center_basis.sparse_rows:
            row = {}
            for shift, pres, slot in parts:
                images = apply(pres.class_reps.sparse_rows, A.dim, 1,
                               *left_map(A, z, 1, slot))
                row.update((shift + k, sparse(pres.reduce(r), shift))
                           for k, r in enumerate(images) if r)
            table.append(row)
        return tuple(map(sparse_row, table))


class EpsilonSpace(CourantSpace):
    """The quotient of E(A) by the radical ``J`` of the form.

    Construction re-verifies, exactly, that the radical is a two-sided
    bracket ideal and that the induced form is nondegenerate; a failure of
    either raises CourantError.
    """

    quotient = True
    # perfbench's tracer wraps these two in the class's own namespace
    bracket = CourantSpace.bracket
    form = CourantSpace.form

    def __init__(self, espace: ESpace):
        self.espace = espace
        self.algebra = espace.algebra
        self.J = espace.radical
        units = QMatrix.identity(espace.dim)
        reps, reduce = quotient_basis(units, Span(self.J))
        self.class_reps = reps
        self.projection = QMatrix([reduce(e) for e in units], cols=reps.rows)
        self.dim = reps.rows
        # the reps are unit vectors e_k, k ascending: the H^1 ones come first
        self.x_dim = sum(row[0][0] < espace.x_dim for row in reps.sparse_rows)
        self.center_basis = espace.center_basis
        self.h0_dim = espace.h0_dim
        self._verify_ideal()
        self.form_table = pullback(espace.form_table, reps, reps)
        self._verify_nondegenerate()

    # -- coordinates --------------------------------------------------------

    def reduce(self, evec: Sequence) -> tuple:
        """E(A) coordinates -> epsilon(A) class coordinates."""
        return row_combination(self.espace._coords(evec), self.projection)

    def lift(self, coords: Sequence) -> tuple:
        """epsilon(A) class coordinates -> E(A) coordinates of the rep."""
        return row_combination(self._coords(coords), self.class_reps)

    # -- induced structure --------------------------------------------------

    @cached_property
    def bracket_table(self) -> tuple:
        """bracket_table[a][b] = [[r_a, r_b]] reduced, for the class
        representatives r_a; well defined because J is an ideal."""
        E, reps = self.espace, self.class_reps
        return pushforward(pullback(E.bracket_table, reps, reps),
                           self.projection)

    @cached_property
    def z_table(self) -> tuple:
        """z_table[m][a] = c_m . r_a reduced, for the centre basis c_m."""
        E, centre = self.espace, QMatrix.identity(self.center_basis.rows)
        return pushforward(pullback(E.z_table, centre, self.class_reps),
                           self.projection)

    def rho(self, u: Sequence) -> tuple:
        """The induced anchor, rho of the class rep.  rho reads the H^1
        part, so it descends to the quotient exactly when J has none."""
        hc = self.espace.h1co.dim
        if any(row[0][0] < hc for row in self.J.sparse_rows):
            raise CourantError(
                "radical leaves the H_1 summand: rho undefined")
        return self.espace.rho(self.lift(u))

    # -- construction-time verification -------------------------------------

    def _verify_ideal(self):
        # J is the kernel of the projection: [J_j, e_k], [e_k, J_j] map to
        # 0; row j of either table is sum_a J_ja S[a], S = T or T^t
        T, P = self.espace.bracket_table, self.projection
        bad = []
        for S in (T, transpose_table(T)):
            rows = [combine_tables(((x, (S[a],)) for a, x in J), 1)[0]
                    for J in self.J.sparse_rows]
            bad += [(j, k) for j, row in enumerate(pushforward(rows, P))
                    for k, _ in row]
        if bad:
            raise CourantError("radical is not a bracket ideal at "
                               "(J%d, e%d)" % min(bad))

    def _verify_nondegenerate(self):
        if self.radical.rows:
            raise CourantError("induced form on the quotient is degenerate")

