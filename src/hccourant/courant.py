"""The bracket space E(A) = H^1 (+) H_1 and its nondegenerate quotient.

E(A) carries the Leibniz bracket

    [[(X1, a1), (X2, a2)]] = ([X1, X2], L_X1 a2 - L_X2 a1 + B<X2, a1>)

and the H0-valued symmetric form (e1, e2) = <X2, a1> + <X1, a2>.  The radical
J of the form is a two-sided bracket ideal; the quotient carries a
nondegenerate induced form.

Both spaces are ``CourantSpace``s: an element is its coordinate tuple over
a class basis, and a space works from structure tensors fixed by their
values on that basis: the bracket table [[e_i, e_j]], the form table
(e_i, e_j) and the Z(A)-action table c_m . e_k for the centre basis c_m.  A
table stores only its nonzero cells, in the canonical sparse form of
``exactlin.sparse_table`` (row i holds ascending (j, cell) pairs, a cell
ascending (k, t) pairs with t != 0), so two tables are equal exactly when
``==`` says so.  ``bracket`` and ``form`` contract them with ``bilinear``, as
a caller contracts ``z_table``, and ``orthogonal`` reads every radical and
orthogonal off the form table, once for both spaces.  ESpace stores its
form once: the form table, built at construction from the pairings
<X, alpha>, the class of i_X alpha in H_0, its only nonzero block.  It
builds its bracket and Z tables from the chain-level rules on first use,
so a space that never brackets pays nothing; its ``courant_bracket`` is
the reference they are tested against.
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
                       contract, dense, nullspace, pullback, pushforward,
                       quotient_basis, row_combination, sparse, sparse_row,
                       vec)
from .hochschild import (Chain, center, cochain_from_flat, cohomology_h1,
                         commutator, connes_B, flat_cochain, h_left_multiply,
                         homology, interior_product, lie_derivative)


class CourantError(HccourantError):
    pass


class CourantSpace:
    """What E(A) and epsilon(A) share: coordinate tuples of length ``dim``,
    the sparse ``bracket_table``, ``form_table`` (``h0_dim`` H_0 coordinates
    per cell) and ``z_table`` over ``center_basis``, and the maps read off
    them.  ``quotient`` is True on the nondegenerate quotient."""

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

    def orthogonal_rows(self, rows: Sequence) -> QMatrix:
        """The equations of {e : (e, l) = 0 in H_0 for every sparse row l of
        ``rows``}, read off the form table: row (l, h) holds (e_k, l)_h at
        column k.  Each l's block is filled in one pass over the nonzero
        cells of the table, (e_k, e_j)_h l_j summed into entry (h, k);
        ``QMatrix`` drops the sums that cancel."""
        F, n = self.form_table, self.dim
        out = []
        for l in rows:
            l = dict(l)
            block = [{} for _ in range(self.h0_dim)]
            for k in range(n):
                for j, cell in F[k]:
                    x = l.get(j)
                    if x is not None:
                        for h, t in cell:
                            t *= x
                            b = block[h]
                            b[k] = b[k] + t if k in b else t
            out += (tuple(b.items()) for b in block)  # k ascending
        return QMatrix(out, cols=n)

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
        self.h0_dim = self.h0.dim
        hc = self.h1co.dim
        # derivations[k]: the representative X_k of H^1 class basis vector k
        self.derivations = tuple(map(self.derivation_of,
                                     QMatrix.identity(hc)))
        # form_table[i][j] = (e_i, e_j) in H_0 class coordinates: the
        # pairing <X_i, alpha_j>, the class of i_X_i alpha_j, on (X, alpha)
        # pairs, symmetric, and 0 on (X, X) and (alpha, alpha) pairs
        F = [{} for _ in range(self.dim)]
        for i, X in enumerate(self.derivations):
            for j in range(self.h1.dim):
                F[i][hc + j] = F[hc + j][i] = sparse(self.h0.reduce(
                    interior_product(X, self.h1.rep_chain(j)).row))
        self.form_table = tuple(map(sparse_row, F))
        self._check_d_map_descent()

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

    def pairing_classes(self, xcoords: Sequence, acoords: Sequence) -> tuple:
        """<X, alpha> in H_0 class coordinates, bilinear in class coords:
        the (X, alpha) block of ``form_table``."""
        return dense(contract(sparse(xcoords), sparse(acoords, self.h1co.dim),
                              self.form_table), self.h0_dim)

    def rho(self, u: Sequence) -> tuple:
        """The anchor: the H^1 part of an E(A) vector."""
        return self._coords(u)[:self.h1co.dim]

    def d_map(self, h0coords: Sequence) -> tuple:
        """D(h) = (0, class of B on a representative of h); kept because
        ``bracket_table`` reads it for the D<X_j, alpha_i> term."""
        h0coords = vec(h0coords)
        if len(h0coords) != self.h0.dim:
            raise CourantError("H0 coordinate length mismatch")
        rep = self.h0.class_to_chain(h0coords)
        return (ZERO,) * self.h1co.dim + self.h1.reduce_chain(connes_B(rep))

    def _check_d_map_descent(self):
        # B of a commutator representative must land in the boundaries,
        # otherwise D would depend on the representative
        A = self.algebra
        for row in self.h0.boundary_basis.sparse_rows:
            if not self.h1.is_boundary(connes_B(Chain(A, 0, row)).row):
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
        bterm = connes_B(self.h0.class_to_chain(
            self.pairing_classes(v[:hc], u[hc:])))
        return xb + self.h1.reduce_chain(t + bterm)

    # -- structure tensors --------------------------------------------------

    @cached_property
    def bracket_table(self) -> tuple:
        """bracket_table[i][j] = [[e_i, e_j]] in E coordinates, assembled
        from the chain rules on class-basis pairs: [X_i, X_j] (skew),
        L_X_i alpha_j, and -L_X_j alpha_i + D<X_j, alpha_i>; (alpha, alpha)
        pairs bracket to 0."""
        hc, hh = self.h1co.dim, self.h1.dim
        T = [{} for _ in range(self.dim)]
        X = self.derivations
        for i in range(hc):
            for j in range(i + 1, hc):
                c = self.class_of_derivation(commutator(X[i], X[j]))
                T[i][j] = sparse(c)
                T[j][i] = sparse([-x for x in c])
        D = QMatrix([self.d_map(h)[hc:]
                     for h in QMatrix.identity(self.h0.dim)], cols=hh)
        ex, ea = QMatrix.identity(hc), QMatrix.identity(hh)
        for i in range(hc):
            for j in range(hh):
                lx = self.h1.reduce_chain(
                    lie_derivative(X[i], self.h1.rep_chain(j)))
                back = row_combination(self.pairing_classes(ex[i], ea[j]), D)
                T[i][hc + j] = sparse(lx, hc)
                T[hc + j][i] = sparse([b - a for a, b in zip(lx, back)], hc)
        return tuple(map(sparse_row, T))

    @cached_property
    def z_table(self) -> tuple:
        """z_table[m][k] = c_m . e_k in E coordinates for the centre basis
        c_m: (z X, z alpha) on class representatives."""
        A = self.algebra
        hc, hh = self.h1co.dim, self.h1.dim
        X = self.derivations
        table = []
        for z in self.center_basis:
            row, zs = {}, sparse(z)
            for k in range(hc):
                zx = QMatrix((contract(zs, r, A.structure)
                              for r in X[k].sparse_rows), A.dim)
                row[k] = sparse(self.class_of_derivation(zx))
            for k in range(hh):
                za = h_left_multiply(z, self.h1.rep_chain(k))
                row[hc + k] = sparse(self.h1.reduce_chain(za), hc)
            table.append(row)
        return tuple(map(sparse_row, table))

    @cached_property
    def _center(self) -> Span:
        return Span(self.center_basis, tagged=True)

    def center_coords(self, zcoords: Sequence) -> tuple:
        """Coordinates of a central element over ``center_basis``; kept
        because ``dirac._anchor_table`` reads the anchor through it."""
        w, c = self._center.split(zcoords)
        if w:
            raise CourantError("element is not central")
        return dense(c, self._center.n)

    def center_action(self, xcoords: Sequence, zcoords: Sequence) -> tuple:
        """X(z) for z central; the result is checked to be central again.
        Kept because ``dirac._anchor_table`` builds the anchor from it."""
        if not self._center.contains(zcoords):
            raise CourantError("center_action: element is not central")
        out = row_combination(vec(zcoords), self.derivation_of(xcoords))
        if not self._center.contains(out):
            raise CourantError("center_action: image left the center")
        return out

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
        # J is the kernel of the projection: [J_j, e_k], [e_k, J_j] map to 0
        E, P = self.espace, self.projection
        T, units = E.bracket_table, QMatrix.identity(E.dim)
        left = pushforward(pullback(T, self.J, units), P)
        right = pushforward(pullback(T, units, self.J), P)
        bad = ([(j, k) for j, row in enumerate(left) for k, _ in row]
               + [(j, k) for k, row in enumerate(right) for j, _ in row])
        if bad:
            raise CourantError("radical is not a bracket ideal at "
                               "(J%d, e%d)" % min(bad))

    def _verify_nondegenerate(self):  # the current table, not ``radical``
        if self.orthogonal(QMatrix.identity(self.dim).sparse_rows).rows:
            raise CourantError("induced form on the quotient is degenerate")

