"""Finite-dimensional unital associative algebras over Q by structure constants.

An algebra is a dense table ``structure[i][j]`` giving the coordinates of
``e_i * e_j``; ``mul`` contracts its sparse form, built once per algebra.
The constructor rejects any table failing associativity or the unit laws,
checked exactly on all basis triples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .exactlin import (ZERO, ONE, HccourantError, QMatrix, bilinear,
                       nullspace, rat, rat_str, row_space, sparse,
                       sparse_table, vec, vec_is_zero)


class AlgebraError(HccourantError):
    pass


class GuardError(AlgebraError):
    """Raised when a computation would exceed the chain-space size guard."""


#: default guards on the algebra dimension per homology degree; the chain
#: space at degree n has dim d^(n+1)
GUARD_MAX_DIM = {0: 64, 1: 16, 2: 16, 3: 6, 4: 6}


def check_guard(dim: int, degree: int, max_dim: Optional[int] = None) -> None:
    limit = max_dim if max_dim is not None else GUARD_MAX_DIM.get(degree)
    if limit is None:
        raise GuardError(
            f"homology degree {degree} is not supported; "
            f"degrees 0..3 only")
    if dim > limit:
        raise GuardError(
            f"algebra dimension {dim} exceeds the guard {limit} for "
            f"degree {degree}; pass max_dim (CLI: --guard) to override")


@dataclass(frozen=True)
class FiniteAlgebra:
    name: str
    dim: int
    basis_names: tuple
    structure: tuple  # structure[i][j]: coords of e_i e_j, tuple of mpq
    unit: tuple       # coords of 1

    @cached_property
    def _sparse_structure(self) -> tuple:
        return sparse_table(self.structure)

    def mul(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants."""
        return bilinear(x, y, self._sparse_structure, self.dim)

    def basis_vector(self, i: int) -> tuple:
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def is_commutative(self) -> bool:
        d = self.dim
        return all(self.structure[i][j] == self.structure[j][i]
                   for i in range(d) for j in range(i + 1, d))

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, dim={self.dim})"


def _validate(A: FiniteAlgebra) -> None:
    name, dim, structure, unit = A.name, A.dim, A.structure, A.unit
    if dim < 1:
        raise AlgebraError(f"{name}: dimension must be >= 1")
    for i in range(dim):
        ei = A.basis_vector(i)
        if A.mul(unit, ei) != ei or A.mul(ei, unit) != ei:
            raise AlgebraError(f"{name}: unit laws fail on basis element {i}")
    for i in range(dim):
        for j in range(dim):
            ij = structure[i][j]
            for k in range(dim):
                left = A.mul(ij, A.basis_vector(k))
                right = A.mul(A.basis_vector(i), structure[j][k])
                if left != right:
                    raise AlgebraError(
                        f"{name}: associativity fails at triple ({i},{j},{k})")


def make_algebra(name: str, basis_names: Sequence[str],
                 structure: Sequence[Sequence[Sequence]],
                 unit: Sequence) -> FiniteAlgebra:
    dim = len(basis_names)
    table = tuple(tuple(vec(structure[i][j]) for j in range(dim))
                  for i in range(dim))
    u = vec(unit)
    if len(u) != dim or any(len(table[i][j]) != dim
                            for i in range(dim) for j in range(dim)):
        raise AlgebraError(f"{name}: inconsistent dimensions")
    A = FiniteAlgebra(name, dim, tuple(basis_names), table, u)
    _validate(A)
    return A


# ---------------------------------------------------------------------------
# subspaces

def center(A: FiniteAlgebra) -> QMatrix:
    """Basis of {z : z e_i = e_i z for all i}; always contains the unit."""
    d, S = A.dim, A.structure
    # sum_s z_s (c_{si}^k - c_{is}^k) = 0 for every (i, k)
    return nullspace(QMatrix(
        [sparse([S[s][i][k] - S[i][s][k] for s in range(d)])
         for i in range(d) for k in range(d)], cols=d))


def commutator_subspace(A: FiniteAlgebra) -> QMatrix:
    """Canonical basis of span{ab - ba}."""
    d = A.dim
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            row = tuple(a - b for a, b in zip(A.structure[i][j],
                                              A.structure[j][i]))
            if not vec_is_zero(row):
                rows.append(row)
    return row_space(QMatrix(rows, cols=d))


# ---------------------------------------------------------------------------
# constructors

def ground_field() -> FiniteAlgebra:
    return make_algebra("Q", ["1"], [[[1]]], [1])


def truncated_poly(n: int) -> FiniteAlgebra:
    """Q[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    if n < 2:
        raise AlgebraError("truncated_poly requires n >= 2")
    structure = [[[1 if k == i + j else 0 for k in range(n)]
                  if i + j < n else [0] * n
                  for j in range(n)] for i in range(n)]
    names = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    return make_algebra(f"Q[x]/(x^{n})", names, structure,
                        [1] + [0] * (n - 1))


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
    """M_r(A) with basis E_pq(e_i), ordered lexicographically in (p, q, i)."""
    if r < 1:
        raise AlgebraError("matrix_algebra requires r >= 1")
    d = A.dim
    D = r * r * d

    def idx(p, q, i):
        return (p * r + q) * d + i

    zero = [ZERO] * D
    structure = [[list(zero) for _ in range(D)] for _ in range(D)]
    for p in range(r):
        for q in range(r):
            for i in range(d):
                a = idx(p, q, i)
                for s in range(r):
                    if s != q:
                        continue
                    for t in range(r):
                        for j in range(d):
                            b = idx(s, t, j)
                            prod = A.structure[i][j]
                            row = structure[a][b]
                            for k, c in enumerate(prod):
                                if c:
                                    row[idx(p, t, k)] = c
    unit = [ZERO] * D
    for p in range(r):
        for k, c in enumerate(A.unit):
            unit[idx(p, p, k)] = c
    names = [f"E{p+1}{q+1}({A.basis_names[i]})"
             for p in range(r) for q in range(r) for i in range(d)]
    return make_algebra(f"M{r}({A.name})", names, structure, unit)


def opposite_algebra(A: FiniteAlgebra) -> FiniteAlgebra:
    table = [[A.structure[j][i] for j in range(A.dim)] for i in range(A.dim)]
    return make_algebra(f"{A.name}^op", A.basis_names, table, A.unit)


def upper_triangular2() -> FiniteAlgebra:
    """Upper-triangular 2x2 matrices over Q, basis E11, E12, E22."""
    e = {("E11", "E11"): "E11", ("E11", "E12"): "E12",
         ("E12", "E22"): "E12", ("E22", "E22"): "E22"}
    names = ["E11", "E12", "E22"]
    structure = [[[1 if e.get((a, b)) == c else 0 for c in names]
                  for b in names] for a in names]
    return make_algebra("UT2", names, structure, [1, 0, 1])


# ---------------------------------------------------------------------------
# JSON description files

def algebra_to_json(A: FiniteAlgebra) -> dict:
    triples = []
    for i in range(A.dim):
        for j in range(A.dim):
            if not vec_is_zero(A.structure[i][j]):
                triples.append([i, j, [rat_str(x) for x in A.structure[i][j]]])
    return {"name": A.name, "dimension": A.dim,
            "basis": list(A.basis_names),
            "unit": [rat_str(x) for x in A.unit],
            "structure": triples}


def algebra_from_json(doc: dict) -> FiniteAlgebra:
    try:
        name = doc["name"]
        dim = doc["dimension"]
        basis = list(doc["basis"])
        unit = [rat(x) for x in doc["unit"]]
        triples = doc["structure"]
    except (KeyError, TypeError) as exc:
        raise AlgebraError(f"malformed algebra description: {exc}") from exc
    # bool is an int subclass and int() truncates floats: accept only JSON
    # integers as the dimension and as indices
    if type(dim) is not int:
        raise AlgebraError(f"dimension must be an integer, got {dim!r}")
    if len(basis) != dim:
        raise AlgebraError("basis length does not match dimension")
    structure = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in triples:
        try:
            i, j, coords = entry
            coords = [rat(x) for x in coords]
        except (TypeError, ValueError) as exc:
            raise AlgebraError(f"malformed structure entry {entry!r}") from exc
        if type(i) is not int or type(j) is not int:
            raise AlgebraError(
                f"structure entry indices must be integers: {entry!r}")
        if not (0 <= i < dim and 0 <= j < dim) or len(coords) != dim:
            raise AlgebraError(f"structure entry out of range: {entry!r}")
        structure[i][j] = coords
    return make_algebra(name, basis, structure, unit)


def load_algebra(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AlgebraError(f"{path}: invalid JSON at line {exc.lineno}, "
                               f"column {exc.colno}") from exc
    return algebra_from_json(doc)


def save_algebra(A: FiniteAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(A), fh, indent=1, sort_keys=True)
        fh.write("\n")
