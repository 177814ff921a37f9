"""Hochschild chains and cochains in low degrees.

Chains of degree n live in A (x) A^(x)n, with e_a0 (x) ... (x) e_an at
index sum_j a_j d^(n-j).  A ``Chain`` stores one sparse row over them, in
the row form of ``QMatrix``; ``coords`` is a dense read-only view.  A
derivation, like any linear map X: A -> A, is the d x d ``QMatrix`` whose
row j is X(e_j).  Every chain map (the boundary b, Connes' B, the Lie
derivative L_X, the interior product i_X) and the coboundary delta^1 is
one list of faces, read by index strides in two ways: ``apply`` visits the
terms of one chain, and ``operator`` builds the matrix that homology and
Der(A) eliminate; b's faces read ``A.products``, built once per algebra.
E(A)'s tables read L_X, i_X, z . and [X, Y] on many degree-1 rows at once
by ``slot_images``, whose reference is these single-chain rules.  One
matrix, the rows ad(e_i), gives H^0 and the boundaries of H^1: Z(A) is
the kernel of ad: A -> Der(A), and the inner derivations are its image.  A
presentation Z/B is one span, ``reduce``: ``boundaries``, the span of
im b_(n+1), grown by the class reps tagged.  It spans Z, so
``reduce.contains`` is the cycle test, and it answers the boundary test;
no span of a presentation's bases is built again.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, check_guard
from .exactlin import (ONE, ExactLinError, HccourantError, QMatrix,
                       Record, Span, canonical_row, combine, combine_tables,
                       dense, nullspace, quotient_basis, sparse, sparse_row,
                       transpose_table, vec)


class HochschildError(HccourantError):
    pass


# ---------------------------------------------------------------------------
# chains

class Chain(Record):
    """A degree-n chain as one sparse row of (index, x) pairs, given dense
    or sparse and stored by the row rule of ``QMatrix`` (``canonical_row``),
    so ``==`` and ``hash`` compare chains."""
    algebra: FiniteAlgebra
    degree: int
    row: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise HochschildError("degree must be >= 0")
        N = self.algebra.dim ** (self.degree + 1)
        try:
            object.__setattr__(self, "row", canonical_row(self.row, N))
        except ExactLinError as exc:
            raise HochschildError(f"chain: {exc}") from None

    @property
    def coords(self) -> tuple:
        return dense(self.row, self.algebra.dim ** (self.degree + 1))

    def __add__(self, other, sign=ONE):
        self._same(other)
        return Chain(self.algebra, self.degree, _summed_row(itertools.chain(
            self.row, ((k, sign * x) for k, x in other.row))))

    def __sub__(self, other):
        return self.__add__(other, -ONE)

    def is_zero(self):
        return not self.row

    def _same(self, other):
        if self.algebra is not other.algebra or self.degree != other.degree:
            raise HochschildError("chain mismatch")


def _summed_row(pairs: Iterable) -> tuple:
    """sum x e_k over (coordinate k, x) pairs, as a sparse row."""
    out = {}
    for k, x in pairs:
        out[k] = out[k] + x if k in out else x
    return sparse_row(out)


def elementary_chain(A: FiniteAlgebra, indices: Sequence[int]) -> Chain:
    return Chain(A, len(indices) - 1, ((sum(
        i * A.dim ** p for p, i in enumerate(reversed(indices))), ONE),))


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
# chain maps as faces
#
# A map from degree n to degree m is a list of faces (sign, window, slot,
# kept, table).  A face reads the input slots in ``window`` as one base-d
# number v; each term t e_k of the sparse row ``table[v]`` puts k in output
# slot ``slot`` with coefficient sign t, and each (j, s) in ``kept`` copies
# input slot j to output slot s, for every slot j outside the window.  Slot
# j of a degree-n index k is k // d^(n-j) % d.

def _spread(d: int, steps) -> list:
    """sum_j i_j steps_j over every choice of digits i_j < d, in order."""
    out = [0]
    for step in steps:
        out = [o + i * step for o in out for i in range(d)]
    return out


def apply(faces, c: Chain, degree: int, *then) -> Chain:
    """The chain map ``faces`` on c, visiting only the terms of c, and then
    each (faces, degree) of ``then`` on the terms of the image before."""
    d, n, row = c.algebra.dim, c.degree, c.row
    for faces, degree in ((faces, degree),) + then:
        pw, out = [d ** e for e in range(max(n, degree) + 1)], {}
        for sign, window, slot, kept, table in faces:
            for k, x in row:
                v, base, x = 0, 0, sign * x
                for j in window:
                    v = v * d + k // pw[n - j] % d
                for j, s in kept:
                    base += k // pw[n - j] % d * pw[degree - s]
                for t, y in table[v]:
                    key, y = base + t * pw[degree - slot], x * y
                    out[key] = out[key] + y if key in out else y
        row, n = out.items(), degree
    return Chain(c.algebra, degree, sparse_row(out))


def operator(faces, d: int, n: int, degree: int) -> QMatrix:
    """The matrix of the chain map ``faces`` from degree n to ``degree``,
    row a the image of e_a: each term of ``table[v]`` lands at the row of
    v's window digits plus every offset that the kept slots spread."""
    cols, out = d ** (degree + 1), {}
    for sign, window, slot, kept, table in faces:
        put, rows = d ** (degree - slot), [d ** (n - j) * cols for j in window]
        offsets = _spread(d, [d ** (n - j) * cols + d ** (degree - s)
                              for j, s in kept])
        for r, row in zip(_spread(d, rows), table):
            for t, y in row:
                base, x = r + t * put, sign * y
                for o in offsets:
                    o += base
                    out[o] = out[o] + x if o in out else x
    return QMatrix.from_sums(out, d ** (n + 1), cols)


def _boundary_faces(A: FiniteAlgebra, n: int, only=None) -> list:
    """b_n (Loday, Cyclic Homology, 1.1), or its faces i in ``only``: face
    i, sign (-1)^i, puts a_i a_(i+1) in slot i for i < n, and the cyclic
    face i = n puts a_n a_0 in slot 0."""
    top = n + 1
    return [(-1 if i % 2 else 1, (i, (i + 1) % top), i % n,
             [(j, j - (j > i)) for j in range(top) if (j - i) % top > 1],
             A.products) for i in (range(top) if only is None else only)]


def _slot_face(sign, rows, n: int, i: int) -> tuple:
    """The map with rows ``rows`` on slot i of a degree-n chain."""
    return sign, (i,), i, [(j, j) for j in range(n + 1) if j != i], rows


def _connes_faces(A: FiniteAlgebra, n: int) -> list:
    """B from degree n, non-normalized: for each rotation a_i (x) ... of
    a_0 (x) ... (x) a_n, sign (-1)^(n i), a unit inserted at slot 0 and
    at slot 1."""
    unit, faces, top = (sparse(A.unit),), [], n + 1
    for i in range(top):
        sign = -1 if n * i % 2 else 1
        turn = [(j, (j - i) % top) for j in range(top)]  # a_j at place t
        faces.append((sign, (), 0, [(j, t + 1) for j, t in turn], unit))
        faces.append((sign, (), 1, [(j, t + (t > 0)) for j, t in turn], unit))
    return faces


def boundary_b(c: Chain) -> Chain:
    """The Hochschild boundary, its faces applied to the terms of c."""
    if c.degree < 1:
        raise HochschildError("boundary undefined in degree 0")
    return apply(_boundary_faces(c.algebra, c.degree), c, c.degree - 1)


def lie_derivative(X: QMatrix, c: Chain) -> Chain:
    """Sum over slots of applying the derivation X in one slot."""
    _check_map(c.algebra, X)
    return apply([_slot_face(1, X.sparse_rows, c.degree, i)
                  for i in range(c.degree + 1)], c, c.degree)


def interior_product(X: QMatrix, c: Chain) -> Chain:
    """(-1)^(n+1) X(a_n) a_0 (x) a_1 (x) ... (x) a_(n-1): -X on slot n,
    then the cyclic face of b_n."""
    if c.degree < 1:
        raise HochschildError("interior product undefined in degree 0")
    _check_map(c.algebra, X)
    n = c.degree
    return apply([_slot_face(-1, X.sparse_rows, n, n)], c, n,
                 (_boundary_faces(c.algebra, n, (n,)), n - 1))


def connes_B(c: Chain) -> Chain:
    """Connes' boundary in the explicit, non-normalized form."""
    return apply(_connes_faces(c.algebra, c.degree), c, c.degree + 1)


# ---------------------------------------------------------------------------
# degree-1 images of many rows at once, for E(A)'s tables, building no
# Chain or face list; the single-chain rules above are their reference

def slot_images(rows, d: int, *maps, cyclic=None) -> list:
    """sum over ``maps`` (sign, M, slot) of sign M on slot ``slot`` of each
    degree-1 sparse row of ``rows``, M a d x d QMatrix (row a: M(e_a)),
    then, given the product table ``cyclic``, a_0 (x) a_1 -> a_1 a_0: L_X
    is (1, X, 0) + (1, X, 1), i_X is (1, X, 1) then ``A.products``, and on
    a flattened map Y, (1, X, 1) gives X Y and (1, X^T, 0) gives Y X."""
    maps, out = [(sign, M.sparse_rows, slot) for sign, M, slot in maps], []
    for row in rows:
        acc = {}
        for k, x in row:  # a_0 (x) a_1 at k = a_0 d + a_1
            a0, a1 = divmod(k, d)
            for sign, M, slot in maps:
                a, base, step = (a1, a0 * d, 1) if slot else (a0, a1, d)
                for m, t in M[a]:
                    m, t = base + m * step, sign * t * x
                    acc[m] = acc[m] + t if m in acc else t
        out.append(sparse_row(acc) if cyclic is None else _summed_row(
            (m, t * x) for k, x in acc.items()  # a_1 a_0
            for m, t in cyclic[k % d * d + k // d]))
    return out


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


def boundaries(A: FiniteAlgebra, n: int, *,
               max_dim: Optional[int] = None) -> Span:
    """The span of im b_(n+1); its degree n + 1 must pass the guard first."""
    check_guard(A.dim, n + 1, max_dim)
    return Span(operator(_boundary_faces(A, n + 1), A.dim, n + 1, n))


def homology(A: FiniteAlgebra, n: int, *,
             max_dim: Optional[int] = None) -> HomologyPresentation:
    """H_n(A, A) with canonical cycle/boundary bases and class reps."""
    if n < 0:
        raise HochschildError(f"homology degree {n} is negative")
    check_guard(A.dim, n, max_dim)
    B = boundaries(A, n, max_dim=max_dim)
    if n == 0:
        cycles = QMatrix.identity(A.dim)
    else:
        # b(z) = z.b_n for b_n the rows b(e_a): cycles solve b_n^T z = 0
        cycles = nullspace(operator(_boundary_faces(A, n), A.dim, n,
                                    n - 1).transpose())
    return _presentation(A, n, cycles, B)


def _presentation(A: FiniteAlgebra, n: int, cycles: QMatrix,
                  B: Span) -> HomologyPresentation:
    """rowspan(cycles) / B on one span: the boundaries B, eliminated once,
    their RREF read off, then grown by the reps."""
    basis = QMatrix(B.basis(), B.cols)
    reps, reduce = quotient_basis(cycles, B)
    return HomologyPresentation(A, n, cycles, basis, reps, reduce)


def leibniz_operator(A: FiniteAlgebra) -> QMatrix:
    """delta^1 as a matrix: row (i d + j) d + m is coordinate m of the law
    D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on the unknowns D(e_s)_m at column
    s d + m, the ``operator`` of three faces on the slots (i, j, m): e_i e_j
    on (i, j), the cells c_kj^m on (j, m) and c_ik^m on (i, m)."""
    d = A.dim
    left, right = [[] for _ in range(d * d)], [[] for _ in range(d * d)]
    for p, row in enumerate(A.structure):
        for q, cell in row:
            for k, c in cell:
                left[q * d + k].append((p, c))
                right[p * d + k].append((q, c))
    return operator(((1, (0, 1), 0, [(2, 1)], A.products),
                     (-1, (1, 2), 1, [(0, 0)], left),
                     (-1, (0, 2), 1, [(1, 0)], right)), d, 2, 1)


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
    return _presentation(A, 1, derivation_basis(A), Span(_inner_rows(A)))

