"""Hochschild chains and cochains in low degrees.

Chains of degree n live in A (x) A^(x)n with coordinates indexed
lexicographically by (i_0, ..., i_n).  A ``Chain`` stores one sparse row
over them, in the row form of ``QMatrix``, so every operator visits only
nonzero terms; ``coords`` is a dense read-only view.  A derivation, like
any linear map X: A -> A, is the d x d ``QMatrix`` whose row j is X(e_j).
The module provides the boundary b, Connes' boundary B, the Lie derivative
and interior product of a derivation, and homology/cohomology presentations
with deterministic class representatives.  One matrix, the rows ad(e_i),
gives H^0 and the boundaries of H^1: the centre Z(A) = H^0(A, A) is the
kernel of ad: A -> Der(A), and the inner derivations are its image.  The
H0-valued pairing <X, alpha> is the class of i_X(alpha):
``interior_product``, then the ``reduce`` of H_0; ``courant.ESpace`` stores
it as its form table.  A presentation Z/B is one span, ``reduce``,
eliminated once: the boundaries untagged, then the class reps tagged.  It
spans Z, so ``reduce.contains`` is the cycle test, and it answers the
boundary test; no span of a presentation's bases is built again.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, check_guard
from .exactlin import (ONE, ExactLinError, HccourantError, QMatrix,
                       Record, Span, canonical_row, combine, combine_tables,
                       contract, dense, nullspace, quotient_basis, sparse,
                       sparse_row, transpose_table, vec)


class HochschildError(HccourantError):
    pass


# ---------------------------------------------------------------------------
# chains

class Chain(Record):
    """A degree-n chain as one sparse row of (``encode_index``, x) pairs,
    given dense or sparse and stored by the row rule of ``QMatrix``
    (``canonical_row``), so ``==`` and ``hash`` compare chains."""
    algebra: FiniteAlgebra
    degree: int
    row: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise HochschildError("degree must be >= 0")
        N = chain_space_dim(self.algebra, self.degree)
        try:
            object.__setattr__(self, "row", canonical_row(self.row, N))
        except ExactLinError as exc:
            raise HochschildError(f"chain: {exc}") from None

    @property
    def coords(self) -> tuple:
        return dense(self.row, chain_space_dim(self.algebra, self.degree))

    def __add__(self, other, sign=ONE):
        self._same(other)
        return _summed(self.algebra, self.degree, itertools.chain(
            self.row, ((k, sign * x) for k, x in other.row)))

    def __sub__(self, other):
        return self.__add__(other, -ONE)

    def is_zero(self):
        return not self.row

    def _same(self, other):
        if self.algebra is not other.algebra or self.degree != other.degree:
            raise HochschildError("chain mismatch")


def chain_space_dim(A: FiniteAlgebra, n: int) -> int:
    return A.dim ** (n + 1)


def encode_index(A: FiniteAlgebra, indices: Sequence[int]) -> int:
    idx = 0
    for i in indices:
        idx = idx * A.dim + i
    return idx


def _summed_row(pairs: Iterable) -> tuple:
    """sum x e_k over (coordinate k, x) pairs, as a sparse row."""
    out = {}
    for k, x in pairs:
        out[k] = out[k] + x if k in out else x
    return sparse_row(out)


def _summed(A: FiniteAlgebra, n: int, pairs: Iterable) -> Chain:
    """The degree-n chain sum x e_k over (coordinate k, x) pairs."""
    return Chain(A, n, _summed_row(pairs))


def chain_from_terms(A: FiniteAlgebra, n: int, terms: Iterable) -> Chain:
    """The degree-n chain sum x e_a over (multi-index a, coefficient x) pairs;
    repeated multi-indices add up."""
    return _summed(A, n, ((encode_index(A, a), x) for a, x in terms))


def elementary_chain(A: FiniteAlgebra, indices: Sequence[int]) -> Chain:
    return chain_from_terms(A, len(indices) - 1, ((indices, ONE),))


def chain_sparse(c: Chain) -> list:
    """The nonzero terms [(multi-index, coefficient), ...] in index order."""
    d, n = c.algebra.dim, c.degree
    return [(tuple(k // d ** (n - i) % d for i in range(n + 1)), x)
            for k, x in c.row]


# ---------------------------------------------------------------------------
# cochains of degree 1
#
# A linear map X: A -> A is the d x d ``QMatrix`` whose row j is X(e_j).
# Its flattened form, the row space of ``derivation_basis`` and of the H^1
# class reps, is one sparse row with X(e_j)_m at column j d + m;
# ``cochain_from_flat`` and ``flat_cochain`` convert between the two.

def cochain_from_flat(A: FiniteAlgebra, flat: Sequence) -> QMatrix:
    """The map whose flattened row, given dense or sparse, is ``flat``."""
    d = A.dim
    rows = [[] for _ in range(d)]
    for k, x in canonical_row(flat, d * d):
        rows[k // d].append((k % d, x))
    return QMatrix(rows, d)


def flat_cochain(X: QMatrix) -> tuple:
    """The flattened sparse row of a d x d map."""
    d = X.cols
    return tuple((j * d + m, x) for j, row in enumerate(X.sparse_rows)
                 for m, x in row)


def _check_map(A: FiniteAlgebra, X: QMatrix) -> None:
    if X.rows != A.dim or X.cols != A.dim:
        raise HochschildError("cochain must be a dim x dim matrix")


def _inner_rows(A: FiniteAlgebra) -> QMatrix:
    """Row i: ad(e_i) = [e_i, .] flattened, read off the commutator table
    S - S^T, whose cell (i, j) is e_i e_j - e_j e_i."""
    d, S = A.dim, A.structure
    C = combine_tables(((ONE, S), (-ONE, transpose_table(S))), d)
    return QMatrix((tuple((j * d + m, t) for j, cell in row for m, t in cell)
                    for row in C), d * d)


def commutator(X: QMatrix, Y: QMatrix) -> QMatrix:
    """[X, Y]: row j is X(Y(e_j)) - Y(X(e_j))."""
    return QMatrix((_summed_row(itertools.chain(
        combine(y, X), ((k, -t) for k, t in combine(x, Y))))
        for x, y in zip(X.sparse_rows, Y.sparse_rows)), X.cols)


# ---------------------------------------------------------------------------
# chain-level operators
#
# Each operator is a rule on elementary tensors: ``terms(a)`` yields the
# (multi-index, coefficient) pairs of its image on e_a0 (x) ... (x) e_an, and
# ``_apply`` extends the rule linearly.

def _apply(c: Chain, degree: int, terms: Callable) -> Chain:
    """The linear extension of a basis-term rule, applied to c."""
    return chain_from_terms(c.algebra, degree,
                            ((b, x * y) for a, x in chain_sparse(c)
                             for b, y in terms(a)))


def _b_terms(A: FiniteAlgebra, n: int) -> Callable:
    """b on a degree-n basis chain: the face maps a_i a_(i+1) with sign
    (-1)^i, plus the cyclic last face a_n a_0 with sign (-1)^n."""
    cells = [dict(row) for row in A.structure]

    def terms(a):
        for i in range(n):
            for k, p in cells[a[i]].get(a[i + 1], ()):
                yield a[:i] + (k,) + a[i + 2:], (-p if i % 2 else p)
        for k, p in cells[a[n]].get(a[0], ()):
            yield (k,) + a[1:n], (-p if n % 2 else p)

    return terms


def boundary_b(c: Chain) -> Chain:
    """The Hochschild boundary: face maps plus the cyclic last face with
    sign (-1)^n."""
    if c.degree < 1:
        raise HochschildError("boundary undefined in degree 0")
    return _apply(c, c.degree - 1, _b_terms(c.algebra, c.degree))


def lie_derivative(X: QMatrix, c: Chain) -> Chain:
    """Sum over slots of applying the derivation X in one slot."""
    _check_map(c.algebra, X)
    rows = X.sparse_rows

    def terms(a):
        for i, ai in enumerate(a):
            for k, r in rows[ai]:
                yield a[:i] + (k,) + a[i + 1:], r

    return _apply(c, c.degree, terms)


def interior_product(X: QMatrix, c: Chain) -> Chain:
    """(-1)^(n+1) X(a_n) a_0 (x) a_1 (x) ... (x) a_(n-1)."""
    if c.degree < 1:
        raise HochschildError("interior product undefined in degree 0")
    _check_map(c.algebra, X)
    S, rows, n = c.algebra.structure, X.sparse_rows, c.degree
    negative = n % 2 == 0

    def terms(a):
        for k, p in contract(rows[a[n]], ((a[0], ONE),), S):
            yield (k,) + a[1:n], (-p if negative else p)

    return _apply(c, n - 1, terms)


def connes_B(c: Chain) -> Chain:
    """Connes' boundary in the explicit, non-normalized form: for each cyclic
    rotation, a 1 (x) ... term and an a_i (x) 1 (x) ... term, both with sign
    (-1)^(n i)."""
    n = c.degree
    unit = c.algebra.unit

    def terms(a):
        for i in range(n + 1):
            cyc = a[i:] + a[:i]
            for u, cu in enumerate(unit):
                if cu:
                    y = -cu if (n * i) % 2 else cu
                    yield (u,) + cyc, y
                    yield (cyc[0], u) + cyc[1:], y

    return _apply(c, n + 1, terms)


def h_left_multiply(aprime: Sequence, c: Chain) -> Chain:
    """The homotopy a_0 (x) ... -> a' a_0 (x) ... used against inner
    derivations."""
    S, u = c.algebra.structure, sparse(vec(aprime))

    def terms(a):
        for k, p in contract(u, ((a[0], ONE),), S):
            yield (k,) + a[1:], p

    return _apply(c, c.degree, terms)


# ---------------------------------------------------------------------------
# homology presentations

class HomologyPresentation(Record):
    """Z/B, B inside Z; ``reduce`` gives a cycle's class coordinates."""
    algebra: FiniteAlgebra
    degree: int
    cycle_basis: QMatrix
    boundary_basis: QMatrix
    class_reps: QMatrix
    reduce: Span  # class coordinates of a cycle, given dense or sparse

    @property
    def dim(self) -> int:
        return self.class_reps.rows

    def is_boundary(self, row) -> bool:
        # in Z with class 0: the reps are independent modulo B
        return self.reduce.split(row) == ((), ())

    def reduce_chain(self, c: Chain) -> tuple:
        if c.algebra is not self.algebra or c.degree != self.degree:
            raise HochschildError("chain does not match the presentation")
        return self.reduce(c.row)

    def rep_chain(self, k: int) -> Chain:
        return Chain(self.algebra, self.degree, self.class_reps.sparse_rows[k])

    def class_to_chain(self, coords: Sequence) -> Chain:
        coords = vec(coords)
        if len(coords) != self.dim:
            raise HochschildError("class coordinate length mismatch")
        return Chain(self.algebra, self.degree,
                     combine(sparse(coords), self.class_reps))


def _stride_operator(A: FiniteAlgebra, faces, rows: int, cols: int) -> QMatrix:
    """The operator read off the nonzero products by index strides: for
    each face (sign, place, offsets) and each term c e_k of a product
    e_p e_q, with (r, col) = place(p, q, k), row r + f gains sign c at
    column col + g for every (f, g) in offsets."""
    products = [(p, q, k, c) for p, row in enumerate(A.structure)
                for q, cell in row for k, c in cell]
    out = {}  # the sums, keyed by row cols + column
    for sign, place, offsets in faces:
        offsets = [f * cols + g for f, g in offsets]
        for p, q, k, c in products:
            r, col = place(p, q, k)
            base, x = r * cols + col, sign * c
            for o in offsets:
                o += base
                out[o] = out[o] + x if o in out else x
    return QMatrix.from_sums(out, rows, cols)


@functools.lru_cache(maxsize=8)
def _boundary_operator_rows(A: FiniteAlgebra, n: int) -> QMatrix:
    """b_n as a matrix, row a the chain b(e_a), built face by face (Loday,
    Cyclic Homology, 1.1): face i < n, sign (-1)^i, puts c at row
    ((hi d + p) d + q) d^(n-1-i) + lo, column (hi d + k) d^(n-1-i) + lo,
    for each term c e_k of e_p e_q; the cyclic face reads a_n a_0 the same
    way.  Cached per (A, n): H_n's boundaries and H_(n+1)'s cycles read one
    b_(n+1).  The cache holds no ``Span``: ``quotient_basis`` grows one."""
    d = A.dim
    faces = []
    for i in range(n):
        w = d ** (n - 1 - i)
        faces.append((-1 if i % 2 else 1,
                      lambda p, q, k, w=w: ((p * d + q) * w, k * w),
                      [(hi * d * d * w + lo, hi * d * w + lo)
                       for hi in range(d ** i) for lo in range(w)]))
    # the cyclic face: a_n = e_p, a_0 = e_q, and a_1 ... a_(n-1) at mid
    top, low = d ** n, d ** (n - 1)
    faces.append((-1 if n % 2 else 1, lambda p, q, k: (q * top + p, k * low),
                  [(mid * d, mid) for mid in range(low)]))
    return _stride_operator(A, faces, d * top, top)


def homology(A: FiniteAlgebra, n: int, *,
             max_dim: Optional[int] = None) -> HomologyPresentation:
    """H_n(A, A) with canonical cycle/boundary bases and class reps."""
    if n < 0:
        raise HochschildError(f"homology degree {n} is negative")
    check_guard(A.dim, n, max_dim)
    check_guard(A.dim, n + 1, max_dim)
    N = chain_space_dim(A, n)
    if n == 0:
        cycles = QMatrix.identity(N)
    else:
        # b(z) = z.B for B the rows b(e_idx), so the cycles solve B^T z = 0
        cycles = nullspace(_boundary_operator_rows(A, n).transpose())
    return _presentation(A, n, cycles, _boundary_operator_rows(A, n + 1))


def _presentation(A: FiniteAlgebra, n: int, cycles: QMatrix,
                  boundaries: QMatrix) -> HomologyPresentation:
    """rowspan(cycles) / rowspan(boundaries) on one span: the boundaries
    are eliminated once, their RREF read off, and the reps added."""
    B = Span(boundaries)
    basis = QMatrix(B.basis(), boundaries.cols)
    reps, reduce = quotient_basis(cycles, B)
    return HomologyPresentation(A, n, cycles, basis, reps, reduce)


def leibniz_operator(A: FiniteAlgebra) -> QMatrix:
    """delta^1 as a matrix: row (i d + j) d + m is coordinate m of the law
    D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on the unknowns D(e_s)_m at column
    s d + m, built by strides from e_i e_j, from e_k e_j for every i and
    from e_i e_k for every j."""
    d, t = A.dim, range(A.dim)
    return _stride_operator(A, (
        (1, lambda i, j, s: ((i * d + j) * d, s * d), [(m, m) for m in t]),
        (-1, lambda k, j, m: (j * d + m, k), [(i * d * d, i * d) for i in t]),
        (-1, lambda i, k, m: (i * d * d + m, k), [(j * d, j * d) for j in t])
    ), d ** 3, d * d)


def derivation_basis(A: FiniteAlgebra) -> QMatrix:
    """Basis of Der(A), each row a flattened dim x dim map: the nullspace of
    ``leibniz_operator``, with the unknown X(e_s)_m at s d + m."""
    return nullspace(leibniz_operator(A))


def center(A: FiniteAlgebra) -> QMatrix:
    """Z(A) = H^0(A, A), the kernel of ad: A -> Der(A), as the left
    nullspace of the ad(e_i) rows; always contains the unit."""
    return nullspace(_inner_rows(A).transpose())


def cohomology_h1(A: FiniteAlgebra) -> HomologyPresentation:
    """H^1(A, A) = Der(A) / inner derivations, on flattened d x d maps: its
    ``boundary_basis`` is the RREF basis of the rows ad(e_i), and
    ``center`` is their left nullspace."""
    return _presentation(A, 1, derivation_basis(A), _inner_rows(A))

