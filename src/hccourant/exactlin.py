"""Exact rational linear algebra.

Everything downstream (homology, brackets, Dirac verdicts) reduces to the
operations here: reduced row echelon form, nullspaces, row-span membership
and quotient bases, all over Q with no rounding ever.

Matrices are immutable (tuples of tuples of ``mpq``).  Pivoting is
deterministic: the pivot for each column is the first row, in order, with a
nonzero entry, so every basis this module produces is reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def rat(x) -> Q:
    """Coerce ints, strings like ``"p/q"``, or rationals to an exact rational."""
    try:
        return Q(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ExactLinError(f"not a rational: {x!r}") from exc


def rat_str(x) -> str:
    """Canonical serialization: ``"p/q"`` in lowest terms, ``"p"`` when q = 1."""
    return str(Q(x))


def vec(entries: Iterable) -> tuple:
    """Entries as a tuple of exact rationals; rationals pass through as they
    are, anything else goes through ``Q``."""
    return tuple(x if type(x) is Q else Q(x) for x in entries)


def vec_is_zero(v: Sequence) -> bool:
    return all(a == 0 for a in v)


class HccourantError(ValueError):
    """Base of every error the package raises on bad input or a refusal."""


class ExactLinError(HccourantError):
    pass


class QMatrix:
    """Immutable matrix of exact rationals.

    ``cols`` must be given explicitly when there are no rows, so that empty
    bases still know the dimension of the ambient space.
    """

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data: Iterable[Iterable], cols: Optional[int] = None):
        rows = tuple(vec(r) for r in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ExactLinError("ragged rows")
            if cols is not None and cols != ncols:
                raise ExactLinError("cols mismatch")
        else:
            if cols is None:
                raise ExactLinError("empty matrix needs explicit cols")
            ncols = cols
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    def __getitem__(self, i):
        return self.data[i]

    def __iter__(self):
        return iter(self.data)

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[ONE if i == j else ZERO for j in range(n)]
                        for i in range(n)], cols=n)

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix([[ZERO] * cols for _ in range(rows)], cols=cols)

    def transpose(self) -> "QMatrix":
        return QMatrix(tuple(zip(*self.data)) if self.rows else
                       ((),) * self.cols, self.rows)


def stack(*mats: QMatrix) -> QMatrix:
    cols = {m.cols for m in mats}
    if len(cols) != 1:
        raise ExactLinError("stack: column mismatch")
    rows = []
    for m in mats:
        rows.extend(m.data)
    return QMatrix(rows, cols.pop())


def row_combination(c: Sequence, M: QMatrix) -> tuple:
    """c . M, the linear combination of the rows of M with coefficients c."""
    if len(c) != M.rows:
        raise ExactLinError("row_combination: dimension mismatch")
    out = [ZERO] * M.cols
    for ci, row in zip(c, M.data):
        if ci:
            for k, x in enumerate(row):
                if x:
                    out[k] += ci * x
    return tuple(out)


def bilinear(u: Sequence, v: Sequence, table, dim: int) -> tuple:
    """sum_ij u_i v_j table[i][j] for a table of length-``dim`` vectors, e.g.
    structure constants, a pairing table or a bracket table."""
    out = [ZERO] * dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = table[i]
        for j, vj in enumerate(v):
            if vj:
                c = ui * vj
                for k, t in enumerate(row[j]):
                    if t:
                        out[k] += c * t
    return tuple(out)


# ---------------------------------------------------------------------------
# RREF

def _eliminate(M: QMatrix, transform: bool):
    """Gauss-Jordan elimination on a dict-of-nonzeros row store.

    The pivot for each column is the first row, in order, with a nonzero
    entry.  Returns the dense rows of R, the dense rows of T (R = T.M, or
    None without ``transform``) and the pivot columns.
    """
    n, cols = M.rows, M.cols
    rows = [_sparse(r) for r in M.data]
    T = [{i: ONE} for i in range(n)] if transform else None
    pivots = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        pr = next((i for i in range(r, n) if c in rows[i]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            if T is not None:
                T[r], T[pr] = T[pr], T[r]
        pv = rows[r][c]
        if pv != 1:
            inv = 1 / pv
            rows[r] = {k: x * inv for k, x in rows[r].items()}
            if T is not None:
                T[r] = {k: x * inv for k, x in T[r].items()}
        prow = rows[r]
        for i in range(n):
            if i == r:
                continue
            f = rows[i].get(c)
            if f:
                _axpy(rows[i], f, prow)
                if T is not None:
                    _axpy(T[i], f, T[r])
        pivots.append(c)
        r += 1
    R = tuple(tuple(row.get(k, ZERO) for k in range(cols)) for row in rows)
    Td = None
    if T is not None:
        Td = tuple(tuple(row.get(k, ZERO) for k in range(n)) for row in T)
    return R, Td, pivots


def _sparse(row: Sequence) -> dict:
    return {k: x for k, x in enumerate(row) if x}


def _axpy(w: dict, f, row: dict) -> None:
    """w -= f * row on sparse rows, dropping entries that cancel."""
    for k, x in row.items():
        y = w.get(k)
        if y is None:
            w[k] = -f * x
        else:
            y -= f * x
            if y:
                w[k] = y
            else:
                del w[k]


def rref(M: QMatrix):
    """Reduced row echelon form.

    Returns ``(R, pivots, rank)`` with pivot columns ascending.
    """
    R, _, pivots = _eliminate(M, transform=False)
    return QMatrix(R, M.cols), tuple(pivots), len(pivots)


def rref_transform(M: QMatrix):
    """RREF with the row transform: returns ``(R, T, pivots, rank)``, R = T.M."""
    R, T, pivots = _eliminate(M, transform=True)
    return (QMatrix(R, M.cols), QMatrix(T, M.rows),
            tuple(pivots), len(pivots))


def rank(M: QMatrix) -> int:
    return rref(M)[2]


def row_space(M: QMatrix) -> QMatrix:
    """Canonical (RREF) basis of the row span."""
    R, _, rk = rref(M)
    return QMatrix(R.data[:rk], M.cols)


def nullspace(M: QMatrix) -> QMatrix:
    """Canonical basis of {x : Mx = 0}, free variables set to 1 in ascending
    column order; rows of the result are the basis vectors."""
    R, pivots, rk = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        x = [ZERO] * M.cols
        x[fc] = ONE
        for j, pc in enumerate(pivots):
            x[pc] = -R[j][fc]
        basis.append(tuple(x))
    return QMatrix(tuple(basis), M.cols)


def _solver(S: QMatrix):
    """One elimination of S; returns ``(solve, rank)`` where ``solve(v)`` is
    the c with c.S = v when v is in the row span of S, else None, in
    O(rank x cols) per call."""
    R, T, pivots, rk = rref_transform(S)
    rdata = R.data
    tdata = T.data
    ncols = S.cols
    nrows = S.rows

    def solve(v: Sequence) -> Optional[tuple]:
        w = list(vec(v))
        if len(w) != ncols:
            raise ExactLinError("membership: dimension mismatch")
        c_r = [ZERO] * rk
        for j, pc in enumerate(pivots):
            f = w[pc]
            if f:
                c_r[j] = f
                row = rdata[j]
                for k in range(pc, ncols):
                    x = row[k]
                    if x:
                        w[k] -= f * x
        if not all(a == 0 for a in w):
            return None
        # coefficients over the original rows of S
        out = [ZERO] * nrows
        for j in range(rk):
            f = c_r[j]
            if f:
                trow = tdata[j]
                for k in range(nrows):
                    x = trow[k]
                    if x:
                        out[k] += f * x
        return tuple(out)

    return solve, rk


def make_membership(S: QMatrix) -> Callable[[Sequence], Optional[tuple]]:
    """``membership`` against a fixed S, eliminating S once for every call."""
    return _solver(S)[0]


def membership(v: Sequence, S: QMatrix) -> Optional[tuple]:
    """Coefficients c with c.S = v when v is in the row span of S, else None."""
    return make_membership(S)(v)


def in_row_span(v: Sequence, S: QMatrix) -> bool:
    return membership(v, S) is not None


def span_equal(A: QMatrix, B: QMatrix) -> bool:
    if A.cols != B.cols:
        return False
    return row_space(A) == row_space(B)


def span_contains(A: QMatrix, B: QMatrix) -> bool:
    """Every row of B lies in the row span of A."""
    return rank(A) == rank(stack(A, B))


def make_reducer(B: QMatrix) -> Callable[[Sequence], tuple]:
    """Coordinate map onto the rows of B (must be linearly independent).

    The returned callable maps any v in rowspan(B) to the unique c with
    c.B = v, in O(rows x cols) per call; raises ExactLinError outside the span.
    """
    solve, rk = _solver(B)
    if rk != B.rows:
        raise ExactLinError("make_reducer: rows are dependent")

    def reduce(v: Sequence) -> tuple:
        c = solve(v)
        if c is None:
            raise ExactLinError("reduce: vector outside the span")
        return c

    return reduce


def quotient_basis(space: QMatrix, subspace: QMatrix):
    """Coset representatives of rowspan(space) / rowspan(subspace).

    Returns ``(reps, reduce)``: reps complete a basis of the subspace to a
    basis of the space, and ``reduce`` maps any vector of the space to its
    coordinates over reps modulo the subspace.
    """
    if space.cols != subspace.cols:
        raise ExactLinError("quotient_basis: column mismatch")
    if not span_contains(space, subspace):
        raise ExactLinError("quotient_basis: subspace not contained in space")
    Rsub = row_space(subspace)
    Rsp = row_space(space)
    # keep the canonical space-basis rows that grow the span beyond Rsub.
    # One echelon of (pivot column, sparse row) pairs spans Rsub and the rows
    # kept so far; each row is 1 at its pivot and 0 at every earlier pivot,
    # so one pass over it leaves the residual of a candidate row.
    echelon = [(min(d), d) for d in map(_sparse, Rsub.data)]
    kept = []
    for row in Rsp.data:
        w = _sparse(row)
        for pc, erow in echelon:
            f = w.get(pc)
            if f:
                _axpy(w, f, erow)
        if w:
            kept.append(row)
            pc = min(w)
            inv = 1 / w[pc]
            echelon.append((pc, {k: x * inv for k, x in w.items()}))
    reps = QMatrix(tuple(kept), space.cols)
    nreps = reps.rows
    if nreps + Rsub.rows == 0:
        def reduce_zero(v):
            if not vec_is_zero(vec(v)):
                raise ExactLinError("reduce: vector outside the span")
            return ()
        return reps, reduce_zero
    full = stack(reps, Rsub) if nreps else Rsub
    coords = make_reducer(full)

    def reduce(v: Sequence) -> tuple:
        return coords(v)[:nreps]

    return reps, reduce
