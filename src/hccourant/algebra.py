"""Finite-dimensional unital associative algebras over Q by structure constants.

An algebra stores its structure constants once, as a sparse table
(``exactlin.sparse_table``) whose cells are the nonzero products e_i e_j.
Every reader visits only these cells; a dense table is read only by
``make_algebra`` and written only to a JSON description file.  The
constructor rejects any table failing associativity or the unit laws,
checked exactly on all basis triples.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Optional, Sequence

from .exactlin import (ZERO, ONE, HccourantError, Record, bilinear, dense,
                       rat, rat_str, sparse, sparse_row, sparse_table,
                       transpose_table)


class AlgebraError(HccourantError):
    pass


class GuardError(AlgebraError):
    """Raised when a computation would exceed the chain-space size guard."""


#: default guards on the algebra dimension per homology degree; the chain
#: space at degree n has dim d^(n+1)
GUARD_MAX_DIM = {0: 64, 1: 16, 2: 16, 3: 6, 4: 6}

#: the largest chain space any guard admits: Morita's default target,
#: dimension 100, in degree 2; no raised ``max_dim`` passes it
MAX_CHAIN_DIM = 100 ** 3


def check_guard(dim: int, degree: int, max_dim: Optional[int] = None) -> None:
    limit = max_dim if max_dim is not None else GUARD_MAX_DIM.get(degree)
    if limit is None:
        raise GuardError(f"chain degree {degree} has no default guard (only "
                         f"{min(GUARD_MAX_DIM)}..{max(GUARD_MAX_DIM)}); pass "
                         f"max_dim (CLI: --guard) to set one")
    if dim > limit:
        raise GuardError(
            f"algebra dimension {dim} exceeds the guard {limit} for "
            f"degree {degree}; pass max_dim (CLI: --guard) to override")
    # d^(n+1) by factors, stopping past the bound: 2^(10^11) is never formed
    size = 1
    for factors in range(1, degree + 2):  # on Q the factors are the cost
        size *= dim
        if size > MAX_CHAIN_DIM or factors > MAX_CHAIN_DIM:
            raise GuardError(f"chain degree {degree} on dimension {dim} has "
                             f"{dim}^{degree + 1} coordinates in {degree + 1} "
                             f"tensor factors; no guard admits more than "
                             f"{MAX_CHAIN_DIM} of either")


class FiniteAlgebra(Record):
    name: str
    dim: int
    basis_names: tuple
    structure: tuple  # sparse table (exactlin.sparse_table) of e_i e_j
    unit: tuple       # coords of 1

    def __post_init__(self):
        _validate(self)

    def mul(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants."""
        return bilinear(x, y, self.structure, self.dim)

    def basis_vector(self, i: int) -> tuple:
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def is_commutative(self) -> bool:
        return self.structure == transpose_table(self.structure)

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, dim={self.dim})"


def _products(terms) -> dict:
    """sum x * cell over (k, x, cell) terms, as {k: sparse cell} with the
    zero sums dropped."""
    acc = defaultdict(lambda: defaultdict(lambda: ZERO))
    for k, x, cell in terms:
        for m, t in cell:
            acc[k][m] += x * t
    return dict(sparse_row({k: sparse_row(c) for k, c in acc.items()}))


def _validate(A: FiniteAlgebra) -> None:
    name, dim, S, unit = A.name, A.dim, A.structure, A.unit
    if len(unit) != dim or len(S) != dim:
        raise AlgebraError(f"{name}: inconsistent dimensions")
    if dim < 1:
        raise AlgebraError(f"{name}: dimension must be >= 1")
    for i in range(dim):
        ei = A.basis_vector(i)
        if A.mul(unit, ei) != ei or A.mul(ei, unit) != ei:
            raise AlgebraError(f"{name}: unit laws fail on basis element {i}")
    # (e_i e_j) e_k against e_i (e_j e_k), for every k of one (i, j) at once
    cells = [dict(row) for row in S]
    for i in range(dim):
        for j in range(dim):
            left = _products((k, x, cell) for s, x in cells[i].get(j, ())
                             for k, cell in S[s])
            right = _products((k, y, cells[i].get(t, ()))
                              for k, cell in S[j] for t, y in cell)
            if left != right:
                k = min(k for k in left.keys() | right.keys()
                        if left.get(k) != right.get(k))
                raise AlgebraError(
                    f"{name}: associativity fails at triple ({i},{j},{k})")


def make_algebra(name: str, basis_names: Sequence[str],
                 structure: Sequence[Sequence[Sequence]],
                 unit: Sequence) -> FiniteAlgebra:
    """The algebra whose dense table ``structure[i][j]`` holds the
    coordinates of e_i e_j, stored as its sparse table."""
    dim = len(basis_names)
    if len(structure) != dim or any(
            len(row) != dim or any(len(cell) != dim for cell in row)
            for row in structure):
        raise AlgebraError(f"{name}: inconsistent dimensions")
    table = sparse_table([[tuple(map(rat, cell)) for cell in row]
                          for row in structure])
    return FiniteAlgebra(name, dim, tuple(basis_names), table,
                         tuple(map(rat, unit)))


# ---------------------------------------------------------------------------
# constructors

def build_v1(n: int) -> FiniteAlgebra:
    """V[1] = span{1, v_1..v_n} with v_i v_j = 0."""
    if n < 1:
        raise AlgebraError("build_v1 requires n >= 1")
    d = n + 1
    def prod(i, j):
        if i == 0:
            return [1 if k == j else 0 for k in range(d)]
        if j == 0:
            return [1 if k == i else 0 for k in range(d)]
        return [0] * d
    structure = [[prod(i, j) for j in range(d)] for i in range(d)]
    names = ["1"] + [f"v{i}" for i in range(1, d)]
    return make_algebra(f"V[1](n={n})", names, structure, [1] + [0] * n)


def matrix_algebra(A: FiniteAlgebra, r: int) -> FiniteAlgebra:
    """M_r(A) with basis E_pq(e_i), ordered lexicographically in (p, q, i):
    E_pq(e_i) E_qt(e_j) = E_pt(e_i e_j), and every other product is 0."""
    if r < 1:
        raise AlgebraError("matrix_algebra requires r >= 1")
    d = A.dim

    def idx(p, q, i):
        return (p * r + q) * d + i

    table = tuple(
        tuple((idx(q, t, j), tuple((idx(p, t, k), x) for k, x in cell))
              for t in range(r) for j, cell in A.structure[i])
        for p in range(r) for q in range(r) for i in range(d))
    unit = [ZERO] * (r * r * d)
    for p in range(r):
        for k, c in enumerate(A.unit):
            unit[idx(p, p, k)] = c
    names = tuple(f"E{p+1}{q+1}({A.basis_names[i]})"
                  for p in range(r) for q in range(r) for i in range(d))
    return FiniteAlgebra(f"M{r}({A.name})", r * r * d, names, table,
                         tuple(unit))


def opposite_algebra(A: FiniteAlgebra) -> FiniteAlgebra:
    return FiniteAlgebra(f"{A.name}^op", A.dim, A.basis_names,
                         transpose_table(A.structure), A.unit)


# ---------------------------------------------------------------------------
# JSON description files

def algebra_to_json(A: FiniteAlgebra) -> dict:
    """The JSON description of A that ``algebra_from_json`` reads back,
    kept as the writer of the format; the round-trip test holds the two
    inverse."""
    triples = [[i, j, [rat_str(x) for x in dense(cell, A.dim)]]
               for i, row in enumerate(A.structure) for j, cell in row]
    return {"name": A.name, "dimension": A.dim,
            "basis": list(A.basis_names),
            "unit": [rat_str(x) for x in A.unit],
            "structure": triples}


def rational_list(x) -> tuple:
    """A JSON list of rationals, each an integer or a "p/q" string, as a
    vector.  A string is refused, not read one entry per character, and so
    are a float and a boolean, which ``rat`` reads as a binary fraction and
    as 0 or 1."""
    if not isinstance(x, list):
        raise AlgebraError(f"not a list of rationals: {x!r}")
    for v in x:
        if type(v) not in (int, str):
            raise AlgebraError("not an integer or a \"p/q\" string: "
                               + json.dumps(v))
    return tuple(map(rat, x))


def entry_table(entries, d: int) -> dict:
    """{(i, j): coords} of a JSON list of ``[i, j, coords]`` entries, with
    0 <= i, j < d and d rationals per entry; a malformed, non-integer,
    out-of-range or repeated entry is refused with a one-line error."""
    if not isinstance(entries, list):
        raise AlgebraError(f"not a list of [i, j, coords] entries: "
                           f"{entries!r}")
    table = {}
    for entry in entries:
        try:
            i, j, coords = entry
            coords = rational_list(coords)
        except (TypeError, ValueError) as exc:
            raise AlgebraError(f"malformed entry {entry!r}: {exc}") from exc
        # bool is an int subclass and int() truncates floats: accept only
        # JSON integers as indices
        if type(i) is not int or type(j) is not int:
            raise AlgebraError(f"entry indices must be integers: {entry!r}")
        if not (0 <= i < d and 0 <= j < d) or len(coords) != d:
            raise AlgebraError(f"entry out of range: {entry!r}")
        if (i, j) in table:
            raise AlgebraError(f"repeated entry for the pair ({i}, {j})")
        table[i, j] = coords
    return table


def algebra_from_json(doc: dict) -> FiniteAlgebra:
    try:
        name = doc["name"]
        dim = doc["dimension"]
        basis = doc["basis"]
        unit = rational_list(doc["unit"])
        triples = doc["structure"]
    except (KeyError, TypeError) as exc:
        raise AlgebraError(f"malformed algebra description: {exc}") from exc
    if type(name) is not str:
        raise AlgebraError(f"name must be a string, got {name!r}")
    # a string basis would be read one name per character
    if not isinstance(basis, list) or not all(type(b) is str for b in basis):
        raise AlgebraError(f"basis must be a list of strings, got {basis!r}")
    basis = tuple(basis)
    # bool is an int subclass and int() truncates floats: accept only a JSON
    # integer as the dimension
    if type(dim) is not int:
        raise AlgebraError(f"dimension must be an integer, got {dim!r}")
    if len(basis) != dim:
        raise AlgebraError("basis length does not match dimension")
    rows = [{} for _ in range(dim)]
    for (i, j), coords in entry_table(triples, dim).items():
        rows[i][j] = sparse(coords)
    return FiniteAlgebra(name, dim, basis, tuple(map(sparse_row, rows)), unit)

