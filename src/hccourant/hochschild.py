"""Hochschild chains and cochains in low degrees.

Chains of degree n live in A (x) A^(x)n, with e_a0 (x) ... (x) e_an at
index sum_j a_j d^(n-j).  A ``Chain`` stores one sparse row over them, in
the row form of ``QMatrix``; ``coords`` is a dense read-only view.  A
derivation, like any linear map X: A -> A, is the d x d ``QMatrix`` whose
row j is X(e_j).  Every chain map (the boundary b, Connes' B, the Lie
derivative L_X, the interior product i_X, left multiplication by z) and
the coboundary delta^1 is one list of faces, read by index strides in two
ways: ``apply`` visits the terms of a batch of chains (one chain, or all
of E(A)'s class reps), and ``operator`` builds the matrix that homology
and Der(A) eliminate; b's faces read ``A.products``, built once per
algebra.  E(A)'s tables read the rules' face lists from ``lie_map``,
``interior_map``, ``left_map`` and ``commutator_map``.  One matrix, the
rows ad(e_i), gives H^0 and the boundaries of H^1: Z(A) is the kernel
of ad: A -> Der(A), and the inner derivations are its image.  A
presentation Z/B is one span, ``reduce``: ``boundaries``, the span of
im b_(n+1), grown by the class reps tagged.  It spans Z, so
``reduce.contains`` is the cycle test, and it answers the boundary test;
no span of a presentation's bases is built again.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
        out = dict(self.row)
        for k, x in other.row:
            out[k] = out[k] + sign * x if k in out else sign * x
        return Chain(self.algebra, self.degree, sparse_row(out))

    def __sub__(self, other):
        return self.__add__(other, -ONE)

    def is_zero(self):
        return not self.row

    def _same(self, other):
        if self.algebra is not other.algebra or self.degree != other.degree:
            raise HochschildError("chain mismatch")


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


# ---------------------------------------------------------------------------
# chain maps as faces
#
# A map from degree n to degree m is a list of faces (sign, window, slot,
# kept, table).  A face reads the input slots in ``window`` as one base-d
# number v; each term t e_k of the sparse row ``table[v]`` puts k in output
# slot ``slot`` with coefficient sign t, and each (j, s) in ``kept`` copies
# input slot j to output slot s, for every slot j outside the window.  Slot
# j of a degree-n index k is k // d^(n-j) % d.  ``apply`` runs a map given
# as steps (faces, degree), so i_X is two: X on a slot, then a product.

def _spread(d: int, steps) -> list:
    """sum_j i_j steps_j over every choice of digits i_j < d, in order."""
    out = [0]
    for step in steps:
        out = [o + i * step for o in out for i in range(d)]
    return out


def apply(rows, d: int, n: int, *steps) -> list:
    """Each step (faces, degree) in turn, from degree n, on every sparse row
    of the batch ``rows``, visiting only their terms; a ``Chain`` is a
    batch of one, and the powers of d are made once per step."""
    for faces, degree in steps:
        pw = [d ** e for e in range(max(n, degree) + 1)]
        out = [{} for _ in rows]
        for sign, window, slot, kept, table in faces:
            put = pw[degree - slot]
            for row, acc in zip(rows, out):
                for k, x in row:
                    v, base, x = 0, 0, sign * x
                    for j in window:
                        v = v * d + k // pw[n - j] % d
                    for j, s in kept:
                        base += k // pw[n - j] % d * pw[degree - s]
                    for t, y in table[v]:
                        key, y = base + t * put, x * y
                        acc[key] = acc[key] + y if key in acc else y
        rows, n = [acc.items() for acc in out], degree
    return [sparse_row(acc) for acc in out]


def _image(c: Chain, *steps) -> Chain:
    """The steps of a chain map on the batch of one chain c."""
    row, = apply((c.row,), c.algebra.dim, c.degree, *steps)
    return Chain(c.algebra, steps[-1][1], row)


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


def lie_map(X: QMatrix, n: int) -> tuple:
    """L_X on degree n: the map X on each slot."""
    return ([_slot_face(1, X.sparse_rows, n, i) for i in range(n + 1)], n),


def interior_map(A: FiniteAlgebra, X: QMatrix, n: int) -> tuple:
    """i_X from degree n, (-1)^(n+1) X(a_n) a_0 (x) a_1 (x) ... (x)
    a_(n-1): -X on slot n, then the cyclic face of b_n."""
    return (([_slot_face(-1, X.sparse_rows, n, n)], n),
            (_boundary_faces(A, n, (n,)), n - 1))


def commutator_map(X: QMatrix) -> tuple:
    """[X, .] on flattened maps Y, read as degree-1 rows (Y(e_j)_m at
    a_0 = j, a_1 = m): X on slot 1 gives X Y, and X^T on slot 0 gives Y X."""
    return ([_slot_face(1, X.sparse_rows, 1, 1),
             _slot_face(-1, X.transpose().sparse_rows, 1, 0)], 1),


def left_map(A: FiniteAlgebra, z, n: int, slot: int) -> tuple:
    """Left multiplication by z, a sparse row, on one slot of degree n."""
    rows = [contract(z, ((a, ONE),), A.structure) for a in range(A.dim)]
    return ([_slot_face(1, rows, n, slot)], n),


def commutator(X: QMatrix, Y: QMatrix) -> QMatrix:
    """[X, Y]: row j is X(Y(e_j)) - Y(X(e_j))."""
    d = X.cols
    row, = apply((flat_cochain(Y),), d, 1, *commutator_map(X))
    return QMatrix([[(k % d, x) for k, x in row if k // d == j]
                    for j in range(d)], d)


def boundary_b(c: Chain) -> Chain:
    """The Hochschild boundary, its faces applied to the terms of c."""
    if c.degree < 1:
        raise HochschildError("boundary undefined in degree 0")
    return _image(c, (_boundary_faces(c.algebra, c.degree), c.degree - 1))


def lie_derivative(X: QMatrix, c: Chain) -> Chain:
    """Sum over slots of applying the derivation X in one slot."""
    _check_map(c.algebra, X)
    return _image(c, *lie_map(X, c.degree))


def interior_product(X: QMatrix, c: Chain) -> Chain:
    """i_X on one chain (``interior_map``)."""
    if c.degree < 1:
        raise HochschildError("interior product undefined in degree 0")
    _check_map(c.algebra, X)
    return _image(c, *interior_map(c.algebra, X, c.degree))


def connes_B(c: Chain) -> Chain:
    """Connes' boundary in the explicit, non-normalized form."""
    return _image(c, (_connes_faces(c.algebra, c.degree), c.degree + 1))


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

