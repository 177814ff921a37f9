"""Exact rational linear algebra.

Everything downstream (homology, brackets, Dirac verdicts) reduces to the
operations here: reduced row echelon form, nullspaces, row-span membership
and quotient bases, all over Q with no rounding ever.

Matrices are immutable and store sparse rows: the nonzero entries of a row
as ascending ``(k, x)`` pairs, the one row form of the kernel (see
``QMatrix``); dense tuples are made only where a caller reads a row as a
coordinate tuple.  One sparse contraction loop, ``contract_sums``, takes
sparse rows and a sparse table and sums into an unsorted dict, which a span
test reads as it is; ``contract`` returns the sums as a canonical sparse
row.  ``combine`` is the same for a linear combination of matrix rows;
``bilinear`` and ``row_combination`` are their dense wrappers.  One object,
``Span``, is the only elimination: the row span of a matrix, eliminated
once as a sparse echelon grown a row at a time.  It is fraction-free: each
pivot row is a primitive row of ints, so spans of integral rows are
eliminated and tested on int arithmetic, and the reduced (RREF) rows exist
only where a reader asks for them.  A span tests a row (``contains``),
splits it, linearly, into its residual and its coordinates over the tagged
rows (``split``), and gives those coordinates as a map (a call);
``make_reducer`` returns one, and ``quotient_basis`` grows a subspace's
span, eliminated once by its caller, into the quotient's; rows already in
echelon form need none (``echelon_contains``).  ``rref``,
``rref_transform``, ``rank``, ``row_space``, ``nullspace`` and
``membership`` are thin readers of a span.  The nonzero rows of R, the
pivots, ``row_space`` and ``nullspace`` are canonical functions of the row
span, so they do not depend on the order or multiplicity of the input rows.
The coefficients that ``membership`` and the T of ``rref_transform`` give
over dependent rows are one valid solution among many; every caller in the
package passes independent rows, where the coefficients are unique.
``pullback`` reads a sparse table on the rows of two matrices and
``pushforward`` maps its cells by a matrix, so a map that preserves a
bracket, form or pairing does so by one table identity; ``combine_tables``
is ``combine`` for tables, cell by cell.

Numbers have one form: a rational is an ``int`` when it is integral and a
``Q`` (gmpy2's ``mpq``, or ``fractions.Fraction`` without gmpy2) with
denominator > 1 otherwise, so integral tables run on ``int`` arithmetic.
``rat``, ``vec`` and the row rule ``canonical_row`` bring any int, bool,
``"p/q"`` string or ``Q`` to it, and ``contract``, ``combine`` and a span
return rows in it.  An ``int`` equals and hashes like the ``Q`` of
the same value, so the form changes no comparison, cache key or
``rat_str``.  ``/`` on two ints is a float, so the one division goes
through ``Q``: ``_over``, where a span reader turns an integer row and
its scale into the rows it returns (and where a row's tag follows the row
when a content is divided out).  The way in is ``integral``: a sparse row
times the lcm m of its denominators, made from numerators and
denominators.  A span clears a rational row so (``_integral``), and a
graph verdict clears its rows once where they are built
(``dirac.poisson_graph``, ``omni.d_structure_check``), since m row spans
the same line as the row.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Q

ZERO = 0
ONE = 1


def _number(x):
    """x in the number form: an ``int`` when integral, else a ``Q`` with
    denominator > 1; anything but an int or a Q goes through ``Q`` first."""
    if type(x) is not int:
        if type(x) is not Q:
            x = Q(_rational_str(x) if isinstance(x, str) else x)
        if x.denominator == 1:
            return int(x.numerator)
    return x


def _rational_str(s: str) -> str:
    """s if it is ASCII ``[-]digits`` or ``[-]digits/digits``, at most 1000
    long; ``Q`` alone reads ``"1e10000000"`` as a 33-million-bit integer."""
    p, slash, q = s.removeprefix("-").partition("/")
    if not (len(s) <= 1000 and s.isascii() and p.isdigit()
            and (q.isdigit() or not slash)):
        raise ValueError(f"not [-]digits or [-]digits/digits: {s!r}")
    return s


def rat(x):
    """Coerce ints, strings like ``"-p/q"`` or ``"p"``, or rationals to an
    exact rational in the number form."""
    try:
        return _number(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ExactLinError(f"not a rational: {x!r}") from exc


def rat_str(x) -> str:
    """Canonical serialization: ``"p/q"`` in lowest terms, ``"p"`` when q = 1."""
    return str(Q(x))


def vec(entries: Iterable) -> tuple:
    """Entries as a tuple of exact rationals in the number form."""
    v = tuple(entries)
    for x in v:
        if type(x) is not int:
            return tuple(map(_number, v))
    return v


class HccourantError(ValueError):
    """Base of every error the package raises on bad input or a refusal."""


class ExactLinError(HccourantError):
    pass


class Record:
    """Base of the frozen records, building no code per class: ``_fields``
    maps each class annotation, bases first, to its type.  A record takes
    them by position or keyword, then calls ``__post_init__``; ``==`` and
    ``hash`` follow the field tuple and the class, ``repr`` reads
    ``Name(field=value, ...)``, and fields cannot be set or deleted."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = {}
        for c in reversed(cls.__mro__):
            cls._fields.update(c.__dict__.get("__annotations__", {}))
        if cls._fields:  # one field gives its value, not a 1-tuple
            cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args += tuple(kwargs.pop(n) for n in list(names)[len(args):]
                          if n in kwargs)
            if kwargs or len(args) != len(names):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{', '.join(names)}")
        for name, x in zip(names, args):  # __dict__ would slow field reads
            object.__setattr__(self, name, x)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__


class Report(Record):
    """The ``Record`` base of the verdict records: ``ok`` is the conjunction
    of the fields annotated ``bool``, found once per class, and ``to_json``
    gives every field under its own name, then ``"ok"``."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._flags = [n for n, t in cls._fields.items() if t in (bool, "bool")]

    @property
    def ok(self) -> bool:
        return all(getattr(self, n) for n in self._flags)

    def to_json(self) -> dict:
        return {**{n: getattr(self, n) for n in self._fields}, "ok": self.ok}


class QMatrix:
    """Immutable matrix of exact rationals, stored as sparse rows.

    A row is stored in the canonical sparse form of ``sparse``: its nonzero
    entries as ``(k, x)`` pairs, k ascending, so two matrices are equal
    exactly when their stored rows are.  The constructor takes each row in
    either form: a dense row of ``cols`` entries, or a sparse row of
    ``(k, x)`` pairs with k ascending in ``range(cols)`` (zero entries are
    dropped; an empty row is a zero row).  ``M[i]``, iteration and ``data``
    give dense tuples, for callers that read a row as a coordinate tuple.

    ``cols`` must be given explicitly when there are no rows or the first
    row is sparse, so that every matrix knows the dimension of its ambient
    space.
    """

    __slots__ = ("sparse_rows", "rows", "cols")

    def __init__(self, data: Iterable[Iterable], cols: Optional[int] = None):
        if cols is None:
            data = list(data)
            if not data or _is_sparse(data[0]):
                raise ExactLinError("a matrix without a dense first row "
                                    "needs explicit cols")
            cols = len(data[0])
        _stored((canonical_row(r, cols) for r in data), cols, self)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    @property
    def data(self) -> tuple:
        return tuple(self)

    def __getitem__(self, i):
        return dense(self.sparse_rows[i], self.cols)

    def __iter__(self):
        n = self.cols
        return (dense(r, n) for r in self.sparse_rows)

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.cols == other.cols
                and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash((self.cols, self.sparse_rows))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    @staticmethod
    def from_sums(sums: dict, rows: int, cols: int) -> "QMatrix":
        """The rows x cols matrix whose entry (i, k) is ``sums[i cols + k]``
        (0 where absent), in canonical rows, its keys unchecked: for the
        builders whose keys are in range by construction (the Hochschild
        boundary, the Leibniz laws), tested equal to the constructor's."""
        out = [()] * rows
        for key in sorted(sums):
            if x := sums[key]:
                i, k = divmod(key, cols)
                out[i] += ((k, x if type(x) is int else _number(x)),)
        return _stored(out, cols)

    @staticmethod
    def from_canonical(rows: Iterable[tuple], cols: int) -> "QMatrix":
        """The matrix of rows already in the canonical form (tuples of
        (k, x) pairs, k ascending in range(cols), x nonzero in the number
        form), stored unchecked: for graph rows the package builds so
        (``combine``), tested equal to the constructor's."""
        return _stored(rows, cols)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return _stored((((i, ONE),) for i in range(n)), n)

    def transpose(self) -> "QMatrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for k, x in row:
                out[k].append((i, x))
        return _stored(map(tuple, out), self.rows)


def _stored(rows: Iterable[tuple], cols: int, M=None) -> QMatrix:
    """M, or a new matrix, holding rows already in the canonical form."""
    M = object.__new__(QMatrix) if M is None else M
    rows = tuple(rows)
    object.__setattr__(M, "sparse_rows", rows)
    object.__setattr__(M, "rows", len(rows))
    object.__setattr__(M, "cols", cols)
    return M


def _is_sparse(row) -> bool:
    return bool(row) and type(row[0]) is tuple


def canonical_row(row, cols: int) -> tuple:
    """A row of a QMatrix or a Hochschild chain, given dense or sparse, as a
    sparse row of rationals with its zeros dropped; raises unless a dense
    row has ``cols`` entries and sparse indices ascend in range(cols)."""
    if row and not _is_sparse(row):
        if len(row) != cols:
            raise ExactLinError("row length does not match cols")
        return sparse(vec(row))
    out = []
    last = -1
    for k, x in row:
        if type(k) is not int or not last < k < cols:
            raise ExactLinError("sparse row indices must ascend in "
                                f"range({cols})")
        last = k
        if type(x) is not int:
            x = _number(x)
        if x:
            out.append((k, x))
    return tuple(out)


def combine(c: Sequence, M: QMatrix) -> tuple:
    """c . M for a sparse row of coefficients c (its pairs in any order), as
    a canonical sparse row: only the rows of M that c names are visited,
    and the sums accumulate in a dict, so no term is ever added to a zero."""
    rows = M.sparse_rows
    out = {}
    for i, ci in c:
        for k, x in rows[i]:
            x *= ci
            out[k] = out[k] + x if k in out else x
    return _number_row(out)


def row_combination(c: Sequence, M: QMatrix) -> tuple:
    """c . M, the linear combination of the rows of M with coefficients c,
    as a dense tuple (``combine`` on the nonzero coefficients)."""
    if len(c) != M.rows:
        raise ExactLinError("row_combination: dimension mismatch")
    return dense(combine(sparse(c), M), M.cols)


def sparse(v: Sequence, shift: int = 0) -> tuple:
    """The nonzero entries of v as ``(k + shift, v_k)`` pairs, k ascending:
    a sparse row, or one cell of a sparse table."""
    return tuple((k + shift, x) for k, x in enumerate(v) if x)


def sparse_row(d: dict) -> tuple:
    """The canonical sparse form of a {k: x} dict: its (k, x) items with x
    nonzero (or, for a table row of cells, nonempty), k ascending."""
    return tuple(sorted((k, x) for k, x in d.items() if x))


def _number_row(d: dict) -> tuple:
    """``sparse_row`` of a {k: x} dict of sums, each x in the number form."""
    return tuple(sorted((k, x if type(x) is int else _number(x))
                        for k, x in d.items() if x))


def integral(row: Iterable) -> tuple:
    """``(m, m row)`` for a sparse row of rationals (a sequence, or the items
    of a {k: x} dict, read twice): m is the lcm of the denominators of its
    entries and m row is a sparse row of ints, each entry p/q made as
    p (m / q) from its numerator and denominator, so no rational is built
    on either backend; an integral row has m = 1 and is returned as ints.
    Its callers are named in the module docstring."""
    dens = [int(x.denominator) for _, x in row if type(x) is not int]
    if not dens:
        return 1, tuple(row)
    m = lcm(*dens)
    return m, tuple((k, x * m if type(x) is int
                     else int(x.numerator) * (m // int(x.denominator)))
                    for k, x in row)


def dense(row: Sequence, n: int) -> tuple:
    """The length-n tuple of a sparse row."""
    out = [ZERO] * n
    for k, x in row:
        out[k] = x
    return tuple(out)


def sparse_table(table) -> tuple:
    """The sparse form of a dense table of vectors: row i holds the
    ``(j, sparse(table[i][j]))`` pairs with a nonzero cell, j ascending."""
    return tuple(tuple((j, c) for j, c in enumerate(map(sparse, row)) if c)
                 for row in table)


def transpose_table(table, cols: Optional[int] = None) -> tuple:
    """The sparse table whose cell (j, i) is cell (i, j) of ``table``, in
    the same canonical form; ``cols``, the number of rows of the result, is
    that of ``table`` unless given."""
    out = [[] for _ in range(len(table) if cols is None else cols)]
    for i, row in enumerate(table):
        for j, cell in row:
            out[j].append((i, cell))
    return tuple(map(tuple, out))


def contract(u: Sequence, v: Sequence, table) -> tuple:
    """sum_ij u_i v_j table[i][j] for sparse rows u and v and a sparse table
    (see ``sparse_table``): structure constants, a pairing table, a bracket
    table.  The result is a canonical sparse row.  Only the nonzero entries
    of u and the cells of its rows are visited, and the sums accumulate in a
    dict, so no term is ever added to a zero."""
    return _number_row(contract_sums(u, dict(v), table))


def contract_sums(u: Sequence, v: dict, table) -> dict:
    """The sums of ``contract`` for v given as a {j: x} dict, as a {k: x}
    dict, unsorted and with any sum that cancels kept as a 0."""
    out = {}
    for i, ui in u:
        for j, cell in table[i]:
            vj = v.get(j)
            if vj is not None:
                c = ui * vj
                for k, t in cell:
                    t *= c
                    out[k] = out[k] + t if k in out else t
    return out


def bilinear(u: Sequence, v: Sequence, table, dim: int) -> tuple:
    """``contract`` on dense coordinate tuples, as a length-``dim`` tuple."""
    return dense(contract(sparse(u), sparse(v), table), dim)


def pullback(table, left: QMatrix, right: QMatrix) -> tuple:
    """The sparse table of the cells ``contract(left[i], right[j], table)``:
    ``table`` read on the rows of two matrices."""
    rights = right.sparse_rows
    return tuple(tuple((j, c) for j, v in enumerate(rights)
                       if (c := contract(u, v, table)))
                 for u in left.sparse_rows)


def pushforward(table, M: QMatrix) -> tuple:
    """``table`` with each cell c mapped to c.M and zero images dropped; F
    carries T to T' exactly when pullback(T', F, F) == pushforward(T, M)."""
    return tuple(tuple((j, m) for j, c in row if (m := combine(c, M)))
                 for row in table)


def combine_tables(terms, rows: int) -> tuple:
    """sum c . table over ``(c, table)`` pairs of sparse tables with at most
    ``rows`` rows, cell by cell, as a sparse table of ``rows`` rows in the
    canonical form (cells that cancel are dropped)."""
    out = [{} for _ in range(rows)]
    for c, table in terms:
        for acc, row in zip(out, table):
            for j, cell in row:
                d = acc.setdefault(j, {})
                for k, t in cell:
                    t *= c
                    d[k] = d[k] + t if k in d else t
    return tuple(tuple((j, cell) for j, d in sorted(acc.items())
                       if (cell := _number_row(d)))
                 for acc in out)


# ---------------------------------------------------------------------------
# The span

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


def _scale(w: dict, a: int) -> None:
    """w *= a on a sparse row, in place."""
    for k in w:
        w[k] *= a


def _over(d: dict, s: int) -> tuple:
    """The canonical sparse row of d / s, for a {k: x} dict of rationals and
    a nonzero int s: each x / s in the number form.  This is the package's
    one division; every span row a reader returns passes through it."""
    if s == 1:
        return _number_row(d)
    return sparse_row({k: _number(Q(x.numerator, x.denominator * s))
                       for k, x in d.items()})


def _integral(w: dict, t: dict) -> tuple:
    """``(m w, m t, m)`` for a sparse row w of rationals and its tag t, with
    m and the sparse row of ints m w those of ``integral``."""
    m, w = integral(w.items())
    return dict(w), {k: x * m for k, x in t.items()}, m


class Span:
    """The row span of a matrix, eliminated once and kept on integers.

    ``rows`` maps each pivot column p to a sparse row ({column: int}) that
    is primitive (the gcd of its entries is 1), positive at p and 0 at every
    other pivot.  A row's pivot is its leftmost nonzero, so the rows sorted
    by pivot, each divided by its pivot entry, are the RREF of the span;
    that division is made only where a reader returns a row (``_over``).
    ``tags`` maps each pivot to a sparse tag that scales with its row: the
    row as a combination of the tags of the rows added.  Built with
    ``tagged``, row i of M carries {i: 1}, so tags are coefficients over the
    rows of M and ``n``, the number of tagged rows, is M.rows; otherwise
    every tag is {} and n is 0, and each distinct row of M is offered once,
    since a repeat lies in the span.  An empty tag is never scaled, reduced
    or divided, so an untagged span does no tag work.
    A row with denominators is multiplied once, with its tag, by the lcm of
    its denominators (``_integral``), when a non-unit pivot or the new
    pivot row needs ints.  A row w is reduced by pivot row p as
    w <- a w - b row_p, with a w[p] = b row_p[p] and a, b coprime; a unit
    pivot (row_p[p] == 1) takes a = 1, b = w[p] and no gcd, so spans with
    unit pivots (most boundary and Leibniz systems) do no content work.

    ``contains(row)`` is the span test, with no division.  ``split(row)``
    is the linear map behind the coordinates, defined everywhere:
    ``(residual, coords)``, both canonical sparse rows, where the residual
    is empty exactly when the row lies in the span, and then
    row = sum_i coords_i r_i + (rows with empty tags), for r_i the row
    tagged {i: 1}.  Calling the span on a row gives those coords as a dense
    tuple of length n and raises outside the span.  All three take a row
    dense or sparse, as the ``QMatrix`` constructor does.

    ``index`` maps each column to a superset of the pivots whose rows are
    nonzero there, so ``add`` visits only the rows it must clear at the new
    pivot, not every stored row; it is updated once per new pivot, at the
    new row's columns, with the pivots of the rows that changed.
    """

    __slots__ = ("cols", "rows", "tags", "n", "index")

    def __init__(self, M: QMatrix, tagged: bool = False):
        self.cols, self.rows, self.tags, self.index = M.cols, {}, {}, {}
        self.n = M.rows if tagged else 0
        rows = M.sparse_rows if tagged else dict.fromkeys(M.sparse_rows)
        for i, row in enumerate(rows):
            self.add(row, {i: ONE} if tagged else {})

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _sparse(self, row: Sequence) -> Sequence:
        """A row given dense (``cols`` entries) or sparse, as a sparse row."""
        if row and type(row[0]) is not tuple:
            if len(row) != self.cols:
                raise ExactLinError("span: dimension mismatch")
            return sparse(row)
        return row

    def residual(self, row: Sequence, tag: dict):
        """``(w, t, s)``: s times a sparse row less its projection on the
        span, as a {column: value} dict (empty when the row lies in the
        span), t, s times tag less the same combination of tags, and the
        positive int s.  The row is made integral (``_integral``) only when
        a non-unit pivot needs its entry as an int."""
        w, t, s = dict(row), dict(tag), 1
        rows, tags = self.rows, self.tags
        # each row is 0 at every other pivot, so neither step below changes
        # whether w is 0 at another pivot: they clear in any order
        for p in w.keys() & rows.keys():
            row = rows[p]
            f = w[p]
            if row[p] != 1:
                if type(f) is not int:
                    w, t, m = _integral(w, t)
                    s *= m
                    f = w[p]
                c = row[p]
                g = gcd(f, c)
                if g != c:
                    a = c // g
                    s *= a
                    _scale(w, a)
                    if t:
                        _scale(t, a)
                f //= g
            _axpy(w, f, row)
            if tags[p]:
                _axpy(t, f, tags[p])
        return w, t, s

    def add(self, row: Sequence, tag: dict) -> bool:
        """Add a sparse row carrying ``tag``; True when the span grew."""
        w, t, _ = self.residual(row, tag)
        if not w:
            return False
        for x in w.values():
            if type(x) is not int:
                w, t, _ = _integral(w, t)
                break
        p = min(w)
        c = w[p]
        if c != 1:
            # primitive, with a positive pivot; a pivot of -1 only flips
            g = 1 if c == -1 else gcd(*w.values())
            if c < 0:
                g = -g
            if g == -1:
                w = {k: -x for k, x in w.items()}
                t = {k: -x for k, x in t.items()}
            elif g != 1:
                w = {k: x // g for k, x in w.items()}
                t = dict(_over(t, g)) if t else t
            c = w[p]
        rows, tags, index = self.rows, self.tags, self.index
        touched = {p}
        # no row is nonzero at p once w is added, so its entry goes
        for q in index.pop(p, ()):
            r = rows[q]
            f = r.get(p)
            if f:
                touched.add(q)
                tq = tags[q]
                if c != 1:
                    g = gcd(f, c)
                    f //= g
                    if g != c:
                        _scale(r, c // g)
                        if tq:
                            _scale(tq, c // g)
                _axpy(r, f, w)
                if t:
                    _axpy(tq, f, t)
                if r[q] != 1:
                    g = gcd(*r.values())
                    if g != 1:
                        for k in r:
                            r[k] //= g
                        if tq:
                            tags[q] = dict(_over(tq, g))
        for k in w:
            index.setdefault(k, set()).update(touched)
        rows[p] = w
        tags[p] = t
        return True

    def basis(self) -> tuple:
        """The sparse rows of the RREF, pivots ascending."""
        rows = self.rows
        return tuple(_over(rows[p], rows[p][p]) for p in sorted(rows))

    def primitive_rows(self) -> tuple:
        """The stored integer rows as sparse rows, pivots ascending: row i is
        row i of ``basis`` times its pivot entry."""
        rows = self.rows
        return tuple(sparse_row(rows[p]) for p in sorted(rows))

    def contains(self, row: Sequence) -> bool:
        return not self.residual(self._sparse(row), {})[0]

    def split(self, row: Sequence) -> tuple:
        w, t, s = self.residual(self._sparse(row), {})
        return _over(w, s), _over({k: -x for k, x in t.items()}, s)

    def __call__(self, row: Sequence) -> tuple:
        w, c = self.split(row)
        if w:
            raise ExactLinError("reduce: vector outside the span")
        return dense(c, self.n)


def echelon_contains(echelon: Sequence, w: dict) -> bool:
    """Whether a {column: value} dict w, consumed, lies in the span of
    ``echelon``: (lead p, {column: int}) pairs, p ascending, each row 0 at
    the leads before its own.  The step of ``Span.residual``, w <- a w - f
    row with a w[p] = f row[p], clears w at each lead in turn for good."""
    for p, row in echelon:
        f = w.get(p)
        if f:
            c = row[p]
            if c != 1:
                if type(f) is not int:
                    w = dict(integral(w.items())[1])
                    f = w[p]
                g = gcd(f, c)
                if g != c:
                    _scale(w, c // g)
                f //= g
            _axpy(w, f, row)
    return not any(w.values())


# ---------------------------------------------------------------------------
# Readers

def rref(M: QMatrix):
    """Reduced row echelon form, padded with zero rows to M's shape.

    Returns ``(R, pivots, rank)`` with pivot columns ascending; kept, not
    exported, because the benchmark tracer wraps it."""
    S = Span(M)
    R = S.basis() + ((),) * (M.rows - S.dim)
    return QMatrix(R, M.cols), tuple(sorted(S.rows)), S.dim


def rref_transform(M: QMatrix):
    """RREF with a row transform: returns ``(R, T, pivots, rank)``, R = T.M.

    The rows of T past the rank are zero, like those of R.
    """
    S = Span(M, tagged=True)
    pivots = tuple(sorted(S.rows))
    pad = ((),) * (M.rows - len(pivots))
    R = S.basis() + pad
    T = tuple(_over(S.tags[p], S.rows[p][p]) for p in pivots) + pad
    return QMatrix(R, M.cols), QMatrix(T, M.rows), pivots, len(pivots)


def rank(M: QMatrix) -> int:
    return Span(M).dim


def row_space(M: QMatrix) -> QMatrix:
    """Canonical (RREF) basis of the row span."""
    return _stored(Span(M).basis(), M.cols)


def nullspace(M: QMatrix) -> QMatrix:
    """Canonical basis of {x : Mx = 0}, free variables set to 1 in ascending
    column order; rows of the result are the basis vectors."""
    rows = Span(M).rows
    free = [c for c in range(M.cols) if c not in rows]
    basis = {fc: {fc: ONE} for fc in free}
    for p, row in rows.items():
        for k, x in _over({k: -x for k, x in row.items() if k != p}, row[p]):
            basis[k][p] = x
    return _stored((sparse_row(basis[fc]) for fc in free), M.cols)


def membership(v: Sequence, S: QMatrix) -> Optional[tuple]:
    """Coefficients c with c.S = v when v is in the row span of S, else None."""
    w, c = Span(S, tagged=True).split(v)
    return None if w else dense(c, S.rows)


def make_reducer(B: QMatrix) -> Span:
    """Coordinate map onto the rows of B (must be linearly independent).

    The returned span maps any v in rowspan(B) to the unique c with
    c.B = v; raises ExactLinError outside the span.
    """
    S = Span(B, tagged=True)
    if S.dim != B.rows:
        raise ExactLinError("make_reducer: rows are dependent")
    return S


def quotient_basis(space: QMatrix, subspace: Span):
    """Coset representatives of rowspan(space) / subspace, for an untagged
    ``Span`` ``subspace``, which is grown in place into ``reduce``.

    Returns ``(reps, reduce)``: reps are the canonical space-basis rows that
    complete the subspace to the space, and ``reduce``, the grown span, maps
    any vector of the space to its coordinates over reps modulo the
    subspace.  Its span is the space, and a vector of the space lies in the
    subspace exactly when its coordinates are all zero.
    """
    if space.cols != subspace.cols:
        raise ExactLinError("quotient_basis: column mismatch")
    Rsp = row_space(space)
    # subspace rows carry no tag, kept row i carries {i: 1}, so the tags of
    # a vector's combination are its coordinates over reps
    kept = []
    for row in Rsp.sparse_rows:
        if subspace.add(row, {len(kept): ONE}):
            kept.append(row)
    if subspace.dim != Rsp.rows:
        raise ExactLinError("quotient_basis: subspace not contained in space")
    subspace.n = len(kept)
    return QMatrix(tuple(kept), space.cols), subspace
