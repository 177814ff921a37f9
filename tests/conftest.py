import importlib.util
import random
import sys
import zlib
from pathlib import Path

import pytest

from hccourant.algebra import FiniteAlgebra, make_algebra
from hccourant.courant import EpsilonSpace, ESpace
from hccourant.exactlin import Q, ZERO, QMatrix, Span, row_combination
from hccourant.files import BUNDLED_ALGEBRAS, load_algebra_ref
from hccourant.hochschild import (Chain, cochain_from_flat, connes_B,
                                  derivation_basis)


@pytest.fixture(scope="session")
def algebras():
    return {name: load_algebra_ref(name) for name in BUNDLED_ALGEBRAS}


@pytest.fixture(scope="session")
def espaces(algebras):
    return {name: ESpace(A) for name, A in algebras.items()}


@pytest.fixture(scope="session")
def epsilons(espaces):
    return {name: EpsilonSpace(E) for name, E in espaces.items()
            if E.dim > 0}


def monomial_algebra(a: int, b: int) -> FiniteAlgebra:
    """Q[x, y]/(x^a, y^b), with basis x^i y^j (i < a, j < b) in row-major
    order, built with ``make_algebra``."""
    mono = [(i, j) for i in range(a) for j in range(b)]
    index = {m: k for k, m in enumerate(mono)}

    def prod(p, q):
        k = index.get((p[0] + q[0], p[1] + q[1]))
        return [1 if s == k else 0 for s in range(len(mono))]

    names = [f"x^{i}y^{j}" for i, j in mono]
    return make_algebra(f"Q[x,y]/(x^{a},y^{b})", names,
                        [[prod(p, q) for q in mono] for p in mono],
                        [1] + [0] * (len(mono) - 1))


def rand_q(rng, lo=-4, hi=4):
    return Q(rng.randint(lo, hi))


def rand_vec(rng, n):
    return tuple(rand_q(rng) for _ in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def rand_combination(rng, basis: QMatrix):
    out = [Q(0)] * basis.cols
    for row in basis:
        c = rand_q(rng, -3, 3)
        if c:
            for k, x in enumerate(row):
                if x:
                    out[k] += c * x
    return tuple(out)


def rand_derivation(rng, A: FiniteAlgebra, basis=None) -> QMatrix:
    basis = basis if basis is not None else derivation_basis(A)
    return cochain_from_flat(A, rand_combination(rng, basis))


def rand_chain(rng, A: FiniteAlgebra, n: int) -> Chain:
    return Chain(A, n, rand_vec(rng, A.dim ** (n + 1)))


def ref_inner_derivation(A: FiniteAlgebra, a) -> QMatrix:
    """The inner derivation [a, .] as a d x d map, row j the product
    a e_j - e_j a read off ``A.mul``."""
    rows = []
    for j in range(A.dim):
        e = A.basis_vector(j)
        rows.append(tuple(p - q for p, q in zip(A.mul(a, e), A.mul(e, a))))
    return QMatrix(rows, cols=A.dim)


def ref_h0_action(E, xcoords, h0coords) -> tuple:
    """A derivation class acting on H_0 = A/[A, A]: X(a) for a
    representative a of the class, by a dense loop over the rows X(e_j),
    then reduced to H_0 class coordinates."""
    X = E.derivation_of(xcoords)
    a = E.h0.class_to_chain(h0coords).coords
    out = [Q(0)] * E.algebra.dim
    for c, row in zip(a, X):
        for m, t in enumerate(row):
            out[m] += c * t
    return E.h0.reduce(out)


def ref_pairing(E, xcoords, acoords) -> tuple:
    """<X, alpha> in H_0 class coordinates, as the form of (X, 0) and
    (0, alpha)."""
    hc, hh = E.h1co.dim, E.h1.dim
    return E.form(tuple(xcoords) + (ZERO,) * hh, (ZERO,) * hc + tuple(acoords))


def ref_d_map(E, h0coords) -> tuple:
    """D(h) = (0, class of B on the chain of h) in E coordinates, built on
    the chain, where ``bracket_table`` reads the matrix of B: H_0 -> H_1."""
    return ((ZERO,) * E.h1co.dim
            + E.h1.reduce_chain(connes_B(E.h0.class_to_chain(h0coords))))


def ref_center_coords(E, z) -> tuple:
    """Coordinates of a central z over ``center_basis``; raises when z is
    not central."""
    return Span(E.center_basis, tagged=True)(z)


def ref_center_action(E, xcoords, z) -> tuple:
    """X(z), for X the derivation of ``xcoords``: z's row combination of
    the rows X(e_j)."""
    return row_combination(z, E.derivation_of(xcoords))


def dense_structure(A: FiniteAlgebra) -> tuple:
    """The dense table S[i][j] = coordinates of e_i e_j, read off ``A.mul``
    on unit vectors, for reference loops that index a cell."""
    e = [A.basis_vector(i) for i in range(A.dim)]
    return tuple(tuple(A.mul(x, y) for y in e) for x in e)


def _ref_coboundary_beta(A: FiniteAlgebra, f: QMatrix) -> QMatrix:
    """The dense defect a f(b) - f(ab) + f(a) b at (a, b) = (e_i, e_j), with
    ab read off the dense table."""
    d = A.dim
    S = dense_structure(A)
    rows = []
    for i in range(d):
        for j in range(d):
            t1 = A.mul(A.basis_vector(i), f[j])
            t2 = row_combination(S[i][j], f)
            t3 = A.mul(f[i], A.basis_vector(j))
            rows.append(tuple(a - b + c for a, b, c in zip(t1, t2, t3)))
    return QMatrix(rows, cols=d)


def _ref_is_derivation(A: FiniteAlgebra, f: QMatrix) -> bool:
    """Whether the d x d map f is a derivation, by the dense coboundary
    defect, which reads neither ``leibniz_rows`` nor any table of the
    package."""
    return not any(any(r) for r in _ref_coboundary_beta(A, f))


def perturbed_table(table, i, j, k):
    """A copy of a sparse bracket table (``exactlin.sparse_table`` form) with
    1 added to coordinate k of cell (i, j), still in canonical form."""
    rows = [dict(row) for row in table]
    cell = dict(rows[i].get(j, ()))
    cell[k] = cell.get(k, Q(0)) + 1
    rows[i][j] = tuple(sorted((m, t) for m, t in cell.items() if t))
    return tuple(tuple(sorted((m, c) for m, c in row.items() if c))
                 for row in rows)


def is_number(x) -> bool:
    """The package's number form: an ``int`` when integral, else a ``Q``
    whose denominator is not 1 (so never a float, a bool or ``Q(4, 2)``)."""
    return type(x) is int or (type(x) is Q and x.denominator != 1)


def is_canonical_table(table, rows, cols, dim) -> bool:
    """``table`` is in the canonical sparse form: ``rows`` rows of
    (j, cell) pairs, j ascending in range(cols), no empty cell, and each cell
    (k, t) pairs, k ascending in range(dim), no zero t."""
    def ascending(idx, bound):
        return (all(a < b for a, b in zip(idx, idx[1:]))
                and all(0 <= a < bound for a in idx))

    return len(table) == rows and all(
        ascending([j for j, _ in row], cols)
        and all(cell and ascending([k for k, _ in cell], dim)
                and all(t != 0 for _, t in cell) for _, cell in row)
        for row in table)


def rng_for(name: str) -> random.Random:
    return random.Random(zlib.crc32(name.encode()))


def load_script(name: str):
    """The module of ``scripts/<name>.py``, for tests that reuse a script's
    corpus generators.  The scripts directory goes on ``sys.path``, as it
    does when a script runs, so that a script can import another."""
    scripts = Path(__file__).parents[1] / "scripts"
    if str(scripts) not in sys.path:
        sys.path.append(str(scripts))
    path = scripts / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
