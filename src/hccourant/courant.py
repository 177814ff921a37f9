"""The bracket space E(A) = H^1 (+) H_1 and its nondegenerate quotient.

E(A) carries the Leibniz bracket

    [[(X1, a1), (X2, a2)]] = ([X1, X2], L_X1 a2 - L_X2 a1 + B<X2, a1>)

and the H0-valued symmetric form (e1, e2) = <X2, a1> + <X1, a2>.  The radical
J of the form is a two-sided bracket ideal; the quotient carries a
nondegenerate induced form.

Both spaces work from structure tensors fixed by their values on a class
basis: the bracket table [[e_i, e_j]] and the Z(A)-action table c_m . e_k
for the centre basis c_m.  ESpace builds them from the chain-level rules on
first use, so a space that never brackets pays nothing; ``bracket`` and
``z_scale`` contract them with ``bilinear``.  The chain-level
``courant_bracket`` stays as the reference the tables are tested against.

Checks run at construction: ESpace verifies that B descends to H_0 (D does
not depend on the representative); EpsilonSpace verifies, exactly, that J is
a two-sided bracket ideal and that the induced form is nondegenerate, and
raises CourantError if either fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .algebra import FiniteAlgebra, center
from .exactlin import (Q, ZERO, ONE, HccourantError, QMatrix, bilinear,
                       make_membership, nullspace, quotient_basis, rank,
                       row_combination, vec, vec_is_zero)
from .hochschild import (Chain, Cochain1, cochain_from_flat, cohomology_h1,
                         commutator, connes_B, h_left_multiply, homology,
                         lie_derivative, pairing)


class CourantError(HccourantError):
    pass


@dataclass(frozen=True)
class EElement:
    """An element of E(A) in class coordinates over a fixed ESpace."""
    space: "ESpace"
    x: tuple      # H^1 class coordinates
    alpha: tuple  # H_1 class coordinates

    def __post_init__(self):
        if len(self.x) != self.space.h1co.dim or \
                len(self.alpha) != self.space.h1.dim:
            raise CourantError("coordinate length mismatch")

    def to_vec(self) -> tuple:
        return self.x + self.alpha

    def __add__(self, other):
        self._same(other)
        return EElement(self.space,
                        tuple(a + b for a, b in zip(self.x, other.x)),
                        tuple(a + b for a, b in zip(self.alpha, other.alpha)))

    def __sub__(self, other):
        self._same(other)
        return EElement(self.space,
                        tuple(a - b for a, b in zip(self.x, other.x)),
                        tuple(a - b for a, b in zip(self.alpha, other.alpha)))

    def __mul__(self, c):
        c = Q(c)
        return EElement(self.space, tuple(c * a for a in self.x),
                        tuple(c * a for a in self.alpha))

    __rmul__ = __mul__

    def _same(self, other):
        if self.space is not other.space:
            raise CourantError("elements of different E-spaces")


class ESpace:
    """E(A) with fixed presentations of H^1, H_1, H_0 and the center.

    ``dim``, ``bracket``, ``form``, ``z_scale``, ``center_basis`` and
    ``h0_dim`` act on coordinate tuples and are shared with EpsilonSpace, so
    a submodule can live in either ambient.
    """

    def __init__(self, algebra: FiniteAlgebra, *,
                 max_dim: Optional[int] = None):
        self.algebra = algebra
        self.h1co = cohomology_h1(algebra)
        self.h1 = homology(algebra, 1, max_dim=max_dim)
        self.h0 = homology(algebra, 0, max_dim=max_dim)
        self.center_basis = center(algebra)
        self.dim = self.h1co.dim + self.h1.dim
        self.h0_dim = self.h0.dim
        # pairing table: P[i][j] = <X_i, alpha_j> in H_0 class coordinates
        self._ptable = tuple(
            tuple(pairing(self._derivation_rep(i), self.h1.rep_chain(j),
                          self.h0)
                  for j in range(self.h1.dim))
            for i in range(self.h1co.dim))
        self._check_d_map_descent()

    # -- representatives ----------------------------------------------------

    def _derivation_rep(self, k: int) -> Cochain1:
        return cochain_from_flat(self.algebra, self.h1co.class_reps[k])

    def derivation_of(self, xcoords: Sequence) -> Cochain1:
        return cochain_from_flat(
            self.algebra, row_combination(xcoords, self.h1co.class_reps))

    def chain_of(self, acoords: Sequence) -> Chain:
        return self.h1.class_to_chain(acoords)

    def element(self, x: Sequence, alpha: Sequence) -> EElement:
        return EElement(self, vec(x), vec(alpha))

    def from_vec(self, v: Sequence) -> EElement:
        v = self._coords(v)
        return EElement(self, v[:self.h1co.dim], v[self.h1co.dim:])

    def basis_element(self, k: int) -> EElement:
        return self.from_vec(tuple(ONE if i == k else ZERO
                                   for i in range(self.dim)))

    def class_of_derivation(self, X: Cochain1) -> tuple:
        return self.h1co.reduce(X.flatten())

    def class_of_chain(self, c: Chain) -> tuple:
        return self.h1.reduce_chain(c)

    def h0_class(self, element_coords: Sequence) -> tuple:
        return self.h0.reduce(vec(element_coords))

    # -- the structure maps -------------------------------------------------

    def pairing_classes(self, xcoords: Sequence, acoords: Sequence) -> tuple:
        """<X, alpha> in H_0 class coordinates, bilinear in class coords."""
        return bilinear(xcoords, acoords, self._ptable, self.h0.dim)

    def bilinear_form(self, e1: EElement, e2: EElement) -> tuple:
        self._check(e1, e2)
        a = self.pairing_classes(e2.x, e1.alpha)
        b = self.pairing_classes(e1.x, e2.alpha)
        return tuple(p + q for p, q in zip(a, b))

    def rho(self, e: EElement) -> tuple:
        return e.x

    def d_map(self, h0coords: Sequence) -> EElement:
        """D(h) = (0, class of B on a representative of h)."""
        h0coords = vec(h0coords)
        if len(h0coords) != self.h0.dim:
            raise CourantError("H0 coordinate length mismatch")
        rep = self.h0.class_to_chain(h0coords)
        alpha = self.h1.reduce_chain(connes_B(rep))
        return EElement(self, (ZERO,) * self.h1co.dim, alpha)

    def _check_d_map_descent(self):
        # B of a commutator representative must land in the boundaries,
        # otherwise D would depend on the representative
        in_boundaries = make_membership(self.h1.boundary_basis)
        for row in self.h0.boundary_basis:
            b = connes_B(Chain(self.algebra, 0, row))
            if in_boundaries(b.coords) is None:
                raise CourantError(
                    "B does not descend on H0: representative dependence")

    def courant_bracket(self, e1: EElement, e2: EElement) -> EElement:
        self._check(e1, e2)
        X1 = self.derivation_of(e1.x)
        X2 = self.derivation_of(e2.x)
        a1 = self.chain_of(e1.alpha)
        a2 = self.chain_of(e2.alpha)
        xb = self.class_of_derivation(commutator(X1, X2))
        t = lie_derivative(X1, a2, checked=False) \
            - lie_derivative(X2, a1, checked=False)
        h = self.pairing_classes(e2.x, e1.alpha)
        bterm = connes_B(self.h0.class_to_chain(h))
        ab = self.h1.reduce(tuple(p + q for p, q in
                                  zip(t.coords, bterm.coords)))
        return EElement(self, xb, ab)

    def skew_bracket(self, e1: EElement, e2: EElement) -> EElement:
        half = Q(1, 2)
        b = self.courant_bracket(e1, e2)
        d = self.d_map(self.bilinear_form(e1, e2))
        return EElement(self, b.x,
                        tuple(p - half * q for p, q in zip(b.alpha, d.alpha)))

    # -- structure tensors --------------------------------------------------

    @cached_property
    def bracket_table(self) -> tuple:
        """bracket_table[i][j] = [[e_i, e_j]] in E coordinates, assembled
        from the chain rules on class-basis pairs: [X_i, X_j] (skew),
        L_X_i alpha_j, and -L_X_j alpha_i + D<X_j, alpha_i>; (alpha, alpha)
        pairs bracket to 0."""
        hc, hh = self.h1co.dim, self.h1.dim
        zero_x, zero_a = (ZERO,) * hc, (ZERO,) * hh
        T = [[zero_x + zero_a] * self.dim for _ in range(self.dim)]
        X = [self._derivation_rep(i) for i in range(hc)]
        for i in range(hc):
            for j in range(i + 1, hc):
                c = self.class_of_derivation(commutator(X[i], X[j]))
                T[i][j] = c + zero_a
                T[j][i] = tuple(-x for x in c) + zero_a
        D = QMatrix([self.d_map(h).alpha
                     for h in QMatrix.identity(self.h0.dim)], cols=hh)
        for i in range(hc):
            for j in range(hh):
                lx = self.h1.reduce(lie_derivative(
                    X[i], self.h1.rep_chain(j), checked=False).coords)
                back = row_combination(self._ptable[i][j], D)
                T[i][hc + j] = zero_x + lx
                T[hc + j][i] = zero_x + tuple(b - a for a, b in zip(lx, back))
        return tuple(map(tuple, T))

    @cached_property
    def z_table(self) -> tuple:
        """z_table[m][k] = c_m . e_k in E coordinates for the centre basis
        c_m: (z X, z alpha) on class representatives."""
        A = self.algebra
        hc, hh = self.h1co.dim, self.h1.dim
        table = []
        for z in self.center_basis:
            rows = []
            for k in range(hc):
                X = self._derivation_rep(k)
                zx = Cochain1(A, tuple(A.mul(z, row) for row in X.rows))
                rows.append(self.class_of_derivation(zx) + (ZERO,) * hh)
            for k in range(hh):
                za = h_left_multiply(z, self.h1.rep_chain(k))
                rows.append((ZERO,) * hc + self.h1.reduce_chain(za))
            table.append(tuple(rows))
        return tuple(table)

    @cached_property
    def _center_membership(self):
        return make_membership(self.center_basis)

    def center_coords(self, zcoords: Sequence) -> tuple:
        """Coordinates of a central element over ``center_basis``."""
        c = self._center_membership(zcoords)
        if c is None:
            raise CourantError("element is not central")
        return c

    def center_action(self, xcoords: Sequence, zcoords: Sequence) -> tuple:
        """X(z) for z central; the result is checked to be central again."""
        if self._center_membership(zcoords) is None:
            raise CourantError("center_action: element is not central")
        X = self.derivation_of(xcoords)
        out = X.apply(vec(zcoords))
        if self._center_membership(out) is None:
            raise CourantError("center_action: image left the center")
        return out

    def z_scale(self, zcoords: Sequence, u: Sequence) -> tuple:
        """The Z(A)-module action z.(X, alpha) on E(A) coordinates."""
        return bilinear(self.center_coords(zcoords), self._coords(u),
                        self.z_table, self.dim)

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        """The Courant bracket on E(A) coordinates."""
        return bilinear(self._coords(u), self._coords(v), self.bracket_table,
                        self.dim)

    def _coords(self, u: Sequence) -> tuple:
        u = vec(u)
        if len(u) != self.dim:
            raise CourantError("E-vector length mismatch")
        return u

    def form(self, u: Sequence, v: Sequence) -> tuple:
        """The H_0-valued form on E(A) coordinates."""
        return self.bilinear_form(self.from_vec(u), self.from_vec(v))

    def h0_action(self, xcoords: Sequence, h0coords: Sequence) -> tuple:
        """The action of a derivation class on H_0 = A/[A, A] (well-defined
        because derivations preserve the commutator subspace)."""
        X = self.derivation_of(xcoords)
        rep = self.h0.class_to_chain(vec(h0coords))
        return self.h0.reduce(X.apply(rep.coords))

    def _check(self, e1: EElement, e2: EElement):
        if e1.space is not self or e2.space is not self:
            raise CourantError("elements of a different E-space")


def kernel_J(E: ESpace) -> QMatrix:
    """Basis of the radical {e : (e, e') = 0 for all e'} in E coordinates."""
    hc, hh, h0d = E.h1co.dim, E.h1.dim, E.h0.dim
    rows = []
    # pairing with basis (X_l, 0): <X_l, alpha-part> = 0
    for l in range(hc):
        for k in range(h0d):
            rows.append([ZERO] * hc +
                        [E._ptable[l][j][k] for j in range(hh)])
    # pairing with basis (0, alpha_m): <x-part, alpha_m> = 0
    for m in range(hh):
        for k in range(h0d):
            rows.append([E._ptable[i][m][k] for i in range(hc)] +
                        [ZERO] * hh)
    if not rows:
        return QMatrix.identity(E.dim)
    return nullspace(QMatrix(rows, cols=E.dim))


class EpsilonSpace:
    """The quotient of E(A) by the radical of the form.

    Construction re-verifies, exactly, that the radical is a two-sided
    bracket ideal and that the induced form is nondegenerate; a failure of
    either raises CourantError.
    """

    def __init__(self, espace: ESpace):
        self.espace = espace
        self.algebra = espace.algebra
        self.J = kernel_J(espace)
        reps, reduce = quotient_basis(QMatrix.identity(espace.dim), self.J)
        self.class_reps = reps
        self._reduce = reduce
        self.dim = reps.rows
        self.center_basis = espace.center_basis
        self.h0_dim = espace.h0_dim
        self._verify_ideal()
        self.form_table = tuple(
            tuple(self._form_on_reps(i, j) for j in range(self.dim))
            for i in range(self.dim))
        self._verify_nondegenerate()

    # -- coordinates --------------------------------------------------------

    def reduce(self, evec: Sequence) -> tuple:
        """E(A) coordinates -> epsilon(A) class coordinates."""
        return self._reduce(evec)

    def lift(self, coords: Sequence) -> EElement:
        return self.espace.from_vec(
            row_combination(self._coords(coords), self.class_reps))

    def basis_coords(self, k: int) -> tuple:
        return tuple(ONE if i == k else ZERO for i in range(self.dim))

    # -- induced structure --------------------------------------------------

    @cached_property
    def bracket_table(self) -> tuple:
        """bracket_table[a][b] = [[r_a, r_b]] reduced, for the class
        representatives r_a; well defined because J is an ideal."""
        E, reps = self.espace, self.class_reps
        return tuple(tuple(self._reduce(E.bracket(ra, rb)) for rb in reps)
                     for ra in reps)

    @cached_property
    def z_table(self) -> tuple:
        """z_table[m][a] = c_m . r_a reduced, for the centre basis c_m."""
        E, reps = self.espace, self.class_reps
        return tuple(tuple(self._reduce(E.z_scale(z, ra)) for ra in reps)
                     for z in self.center_basis)

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        return bilinear(self._coords(u), self._coords(v), self.bracket_table,
                        self.dim)

    def form(self, u: Sequence, v: Sequence) -> tuple:
        return bilinear(vec(u), vec(v), self.form_table, self.h0_dim)

    def z_scale(self, zcoords: Sequence, u: Sequence) -> tuple:
        return bilinear(self.espace.center_coords(zcoords), self._coords(u),
                        self.z_table, self.dim)

    def _coords(self, u: Sequence) -> tuple:
        u = vec(u)
        if len(u) != self.dim:
            raise CourantError("epsilon coordinate length mismatch")
        return u

    def rho(self, u: Sequence) -> tuple:
        """Induced anchor; only well-defined when the algebra is commutative
        (the radical then sits inside the H_1 summand)."""
        if not self.algebra.is_commutative():
            raise CourantError(
                "rho on the quotient requires a commutative algebra")
        for row in self.J:
            if not vec_is_zero(row[:self.espace.h1co.dim]):
                raise CourantError(
                    "radical leaves the H_1 summand: rho undefined")
        return self.lift(u).x

    # -- construction-time verification -------------------------------------

    def _form_on_reps(self, i: int, j: int) -> tuple:
        e1 = self.espace.from_vec(self.class_reps[i])
        e2 = self.espace.from_vec(self.class_reps[j])
        return self.espace.bilinear_form(e1, e2)

    def _verify_ideal(self):
        E = self.espace
        T = E.bracket_table
        in_J = make_membership(self.J)
        units = QMatrix.identity(E.dim)
        for j, jrow in enumerate(self.J):
            for k, ek in enumerate(units):
                left = bilinear(jrow, ek, T, E.dim)
                right = bilinear(ek, jrow, T, E.dim)
                if in_J(left) is None or in_J(right) is None:
                    raise CourantError(
                        f"radical is not a bracket ideal at (J{j}, e{k})")

    def _verify_nondegenerate(self):
        if self.dim == 0:
            return
        rows = [[x for cell in self.form_table[i] for x in cell]
                for i in range(self.dim)]
        if rank(QMatrix(rows, cols=self.dim * self.espace.h0.dim)) != self.dim:
            raise CourantError("induced form on the quotient is degenerate")

