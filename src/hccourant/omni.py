"""The omni-Lie model gl(V) (+) V and its realization as epsilon(V[1]).

V[1] is the algebra Q.1 (+) V with all products of V-vectors equal to zero.
This module builds the explicit linear bijection gl(V) (+) V -> epsilon(V[1])
sending a matrix to its derivation class and a vector v to the homology class
of 1 (x) v, and verifies exactly that it carries the Weinstein bracket
([xi1, xi2], xi1 v2) to the induced Courant bracket, and the V-valued pairing
(1/2)(xi2 v1 + xi1 v2) to the induced bilinear form up to the global scalar 2.
Dirac structures of epsilon(V[1]) that are graphs over V then correspond to
Lie brackets on V; `d_structure_check` decides both sides and compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import FiniteAlgebra, build_v1
from .courant import EpsilonSpace, ESpace
from .dirac import DiracVerdict, Submodule, is_dirac
from .exactlin import (ZERO, ONE, HccourantError, QMatrix, bilinear,
                       make_reducer, rank, row_combination, span_equal,
                       sparse_table, vec, vec_is_zero)
from .hochschild import Cochain1, elementary_chain


class OmniError(HccourantError):
    pass


#: global scalar relating the quotient form on epsilon(V[1]) to the
#: half-sum pairing on gl(V) (+) V
FORM_SCALAR = 2


@dataclass(frozen=True)
class OmniElement:
    """An element (xi, v) of gl(V) (+) V; xi is stored as a tuple of rows."""
    n: int
    xi: tuple
    v: tuple

    def __post_init__(self):
        n = self.n
        if len(self.v) != n or len(self.xi) != n or \
                any(len(r) != n for r in self.xi):
            raise OmniError("shape mismatch in omni-Lie element")


def omni_element(n: int, xi, v) -> OmniElement:
    return OmniElement(n, tuple(vec(r) for r in xi), vec(v))


def _mat_vec(xi, v):
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in xi)


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZERO)
                       for j in range(n)) for i in range(n))


def weinstein_bracket(e1: OmniElement, e2: OmniElement) -> OmniElement:
    """([xi1, xi2], xi1 v2): the skew-symmetrization of the Leibniz bracket."""
    if e1.n != e2.n:
        raise OmniError("omni-Lie elements of different dimensions")
    comm = tuple(tuple(a - b for a, b in zip(ra, rb))
                 for ra, rb in zip(_mat_mul(e1.xi, e2.xi),
                                   _mat_mul(e2.xi, e1.xi)))
    return OmniElement(e1.n, comm, _mat_vec(e1.xi, e2.v))


def omni_pairing(e1: OmniElement, e2: OmniElement) -> tuple:
    """The V-valued symmetric pairing (1/2)(xi2 v1 + xi1 v2)."""
    if e1.n != e2.n:
        raise OmniError("omni-Lie elements of different dimensions")
    half = ONE / 2
    return tuple(half * (a + b) for a, b in zip(_mat_vec(e2.xi, e1.v),
                                                _mat_vec(e1.xi, e2.v)))


# ---------------------------------------------------------------------------
# the V[1] realization

@dataclass(frozen=True)
class EV1Report:
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


@dataclass(frozen=True)
class OmniIso:
    """The bijection gl(V) (+) V -> epsilon(V[1]) and its inverse."""
    n: int
    espace: ESpace
    eps: EpsilonSpace
    fwd: QMatrix   # omni basis (E_ij then v_i) -> epsilon coordinates
    inv: QMatrix   # epsilon basis -> omni coordinates

    def to_eps(self, e: OmniElement) -> tuple:
        coords = [x for row in e.xi for x in row] + list(e.v)
        return row_combination(coords, self.fwd)

    def from_eps(self, u: Sequence) -> OmniElement:
        n = self.n
        coords = row_combination(vec(u), self.inv)
        xi = tuple(tuple(coords[i * n + j] for j in range(n))
                   for i in range(n))
        return OmniElement(n, xi, tuple(coords[n * n:]))


def _derivation_of_matrix(A: FiniteAlgebra, xi) -> Cochain1:
    """The derivation of V[1] acting as xi on V and killing the unit."""
    n = A.dim - 1
    rows = [tuple([ZERO] * A.dim)]
    for j in range(n):
        img = [ZERO] * A.dim
        for i in range(n):
            if xi[i][j]:
                img[i + 1] = xi[i][j]
        rows.append(tuple(img))
    return Cochain1(A, tuple(rows))


def _basis_matrix(n, i, j):
    return tuple(tuple(ONE if (p, q) == (i, j) else ZERO for q in range(n))
                 for p in range(n))


@dataclass(frozen=True)
class MainTheoremReport:
    n: int
    kernel_dim_ok: bool
    kernel_generators_ok: bool
    bijective: bool
    bracket_tables_match: bool
    form_scalar: int
    form_tables_match: bool

    @property
    def ok(self):
        return (self.kernel_dim_ok and self.kernel_generators_ok
                and self.bijective and self.bracket_tables_match
                and self.form_tables_match)

    def to_json(self):
        return {"n": self.n, "kernel_dim_ok": self.kernel_dim_ok,
                "kernel_generators_ok": self.kernel_generators_ok,
                "bijective": self.bijective,
                "bracket_tables_match": self.bracket_tables_match,
                "form_scalar": self.form_scalar,
                "form_tables_match": self.form_tables_match, "ok": self.ok}


def build_omni_iso(n: int, *, espace: Optional[ESpace] = None) -> OmniIso:
    A_E = espace or ESpace(build_v1(n))
    A = A_E.algebra
    eps = EpsilonSpace(A_E)
    dim = n * n + n
    if eps.dim != dim:
        raise OmniError(
            f"epsilon(V[1]) has dimension {eps.dim}, expected {dim}")
    rows = []
    for i in range(n):
        for j in range(n):
            X = _derivation_of_matrix(A, _basis_matrix(n, i, j))
            xcls = A_E.class_of_derivation(X)
            rows.append(eps.reduce(tuple(xcls) + (ZERO,) * A_E.h1.dim))
    for i in range(n):
        c = elementary_chain(A, (0, i + 1))  # the cycle 1 (x) v_i
        acls = A_E.class_of_chain(c)
        rows.append(eps.reduce((ZERO,) * A_E.h1co.dim + tuple(acls)))
    fwd = QMatrix(rows, cols=eps.dim)
    if rank(fwd) != dim:
        raise OmniError("the canonical map gl(V) (+) V -> epsilon(V[1]) "
                        "is not bijective")
    coords = make_reducer(fwd)
    inv_rows = [coords(row) for row in QMatrix.identity(eps.dim)]
    return OmniIso(n, A_E, eps, fwd, QMatrix(inv_rows, cols=dim))


def _omni_basis(n):
    zero_v = (ZERO,) * n
    return ([OmniElement(n, _basis_matrix(n, i, j), zero_v)
             for i in range(n) for j in range(n)]
            + [OmniElement(n, (zero_v,) * n, v) for v in QMatrix.identity(n)])


def verify_main_theorem(n: int, *, espace: Optional[ESpace] = None):
    """Check the isomorphism epsilon(V[1]) ~ gl(V) (+) V exactly.

    Returns (iso, report).  The report records: the kernel of the quotient
    has dimension C(n,2) and is spanned by the classes of v_i (x) v_j; the
    canonical map is bijective; its bracket table equals the Weinstein table;
    and the induced form equals FORM_SCALAR times the half-sum pairing.
    """
    iso = build_omni_iso(n, espace=espace)
    E, eps, A = iso.espace, iso.eps, iso.espace.algebra

    kernel_dim_ok = eps.J.rows == n * (n - 1) // 2
    gen_rows = []
    for i in range(n):
        for j in range(i + 1, n):
            c = elementary_chain(A, (i + 1, j + 1))  # v_i (x) v_j
            gen_rows.append((ZERO,) * E.h1co.dim + tuple(E.class_of_chain(c)))
    kernel_generators_ok = span_equal(
        QMatrix(gen_rows or [], cols=E.dim), eps.J)

    basis = _omni_basis(n)
    images = [iso.to_eps(e) for e in basis]
    bijective = True  # enforced in build_omni_iso

    bracket_ok = True
    form_ok = True
    for i, u in enumerate(basis):
        for j, w in enumerate(basis):
            lhs = eps.bracket(images[i], images[j])
            rhs = iso.to_eps(weinstein_bracket(u, w))
            if lhs != rhs:
                bracket_ok = False
            p = omni_pairing(u, w)
            embedded = E.h0_class((ZERO,) + tuple(FORM_SCALAR * x for x in p))
            if eps.form(images[i], images[j]) != embedded:
                form_ok = False

    report = MainTheoremReport(n, kernel_dim_ok, kernel_generators_ok,
                               bijective, bracket_ok, FORM_SCALAR, form_ok)
    return iso, report


# ---------------------------------------------------------------------------
# D-structures

@dataclass(frozen=True)
class DStructureReport:
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


def mu_tilde(n: int, mu, v) -> tuple:
    """The matrix of mu(v, .) acting on the basis of V, for mu in the sparse
    table form of ``exactlin.sparse_table``: column j is mu(v, v_j)."""
    v = vec(v)
    return tuple(zip(*(bilinear(v, e, mu, n) for e in QMatrix.identity(n))))


def _lie_oracle(n: int, mu):
    """(skew, jacobi) for mu in sparse table form, on basis pairs and
    triples."""
    units = QMatrix.identity(n)
    br = [[bilinear(x, y, mu, n) for y in units] for x in units]
    skew = all(br[i][j] == tuple(-t for t in br[j][i])
               for i in range(n) for j in range(i, n))
    # outer[a][b][c] = mu(mu(v_a, v_b), v_c)
    outer = [[[bilinear(br[a][b], z, mu, n) for z in units]
              for b in range(n)] for a in range(n)]
    jacobi = all(vec_is_zero([p + q + r for p, q, r in zip(
        outer[i][j][k], outer[j][k][i], outer[k][i][j])])
        for i in range(n) for j in range(n) for k in range(n))
    return skew, jacobi


def d_structure_check(iso: OmniIso, mu) -> DStructureReport:
    """Dirac verdict of the graph {(mu(v, .), v)} versus the Lie-bracket
    oracle on mu; mu[i][j] holds the coordinates of mu(v_i, v_j)."""
    n = iso.n
    mu = tuple(tuple(vec(mu[i][j]) for j in range(n)) for i in range(n))
    if any(len(c) != n for row in mu for c in row):
        raise OmniError("mu has cells of the wrong length")
    mu = sparse_table(mu)
    rows = [iso.to_eps(OmniElement(n, mu_tilde(n, mu, v), v))
            for v in QMatrix.identity(n)]
    L = Submodule(iso.eps, QMatrix(rows, cols=iso.eps.dim))
    verdict = is_dirac(L)
    skew, jacobi = _lie_oracle(n, mu)
    return DStructureReport(n, verdict.dirac, skew and jacobi, skew, jacobi,
                            verdict)
