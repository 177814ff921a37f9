import importlib.util
import random
import sys
import zlib
from pathlib import Path

import pytest

from hccourant.algebra import FiniteAlgebra, make_algebra
from hccourant.courant import EpsilonSpace, ESpace
from hccourant.exactlin import (Q, ZERO, QMatrix, Span, combine, contract,
                                dense, nullspace, row_combination, row_space,
                                sparse, sparse_row, vec)
from hccourant.files import BUNDLED_ALGEBRAS, load_algebra_ref
from hccourant.hochschild import (Chain, _boundary_faces, apply,
                                  cochain_from_flat, commutator, connes_B,
                                  derivation_basis, flat_cochain,
                                  interior_product, lie_derivative, operator)


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


def insertion_face(row, n: int) -> tuple:
    """The face of row (x) a_0 (x) ... (x) a_n: ``row`` inserted at slot 0."""
    return 1, (), 0, [(j, j + 1) for j in range(n + 1)], (row,)


def h_left_multiply(aprime, c: Chain) -> Chain:
    """The homotopy a_0 (x) ... -> a' a_0 (x) ... used against inner
    derivations, in the face form: a' inserted at slot 0, then face 0 of
    b_(n+1)."""
    n = c.degree
    row, = apply((c.row,), c.algebra.dim, n,
                 ([insertion_face(sparse(vec(aprime)), n)], n + 1),
                 (_boundary_faces(c.algebra, n + 1, (0,)), n))
    return Chain(c.algebra, n, row)


def ref_form_table(E) -> tuple:
    """E's form table built pair by pair from the chain rules: cell
    (i, hc + j) and its mirror the H_0 class of i_X_i alpha_j, each a
    ``interior_product`` on a rep ``Chain``."""
    hc = E.h1co.dim
    F = [{} for _ in range(E.dim)]
    reps = tuple(map(E.h1.rep_chain, range(E.h1.dim)))
    for i, X in enumerate(E.derivations):
        for j, rep in enumerate(reps):
            F[i][hc + j] = F[hc + j][i] = sparse(E.h0.reduce(
                interior_product(X, rep).row))
    return tuple(map(sparse_row, F))


def ref_bracket_table(E) -> tuple:
    """E's bracket table built pair by pair from the chain rules: the class
    of ``commutator`` on (X, X) pairs, of ``lie_derivative`` on (X, alpha)
    pairs, and -L_X_j alpha_i + D<X_j, alpha_i> on (alpha, X) pairs, D the
    matrix of ``connes_B`` from H_0 to H_1."""
    hc, hh = E.h1co.dim, E.h1.dim
    T = [{} for _ in range(E.dim)]
    X = E.derivations
    for i in range(hc):
        for j in range(i + 1, hc):
            c = E.class_of_derivation(commutator(X[i], X[j]))
            T[i][j] = sparse(c)
            T[j][i] = sparse([-x for x in c])
    D = QMatrix([E.h1.reduce_chain(connes_B(E.h0.rep_chain(h)))
                 for h in range(E.h0.dim)], cols=hh)
    reps = tuple(map(E.h1.rep_chain, range(hh)))
    for i in range(hc):
        pairings = dict(E.form_table[i])
        for j, rep in enumerate(reps):
            lx = E.h1.reduce_chain(lie_derivative(X[i], rep))
            back = dense(combine(pairings.get(hc + j, ()), D), hh)
            T[i][hc + j] = sparse(lx, hc)
            T[hc + j][i] = sparse([b - a for a, b in zip(lx, back)], hc)
    return tuple(map(sparse_row, T))


def ref_z_table(E) -> tuple:
    """E's Z-action table built pair by pair: z X as the d x d map of rows
    z X(e_j), and z alpha as ``h_left_multiply`` on a rep ``Chain``."""
    A = E.algebra
    hc, hh = E.h1co.dim, E.h1.dim
    X, reps = E.derivations, tuple(map(E.h1.rep_chain, range(hh)))
    table = []
    for z in E.center_basis:
        row, zs = {}, sparse(z)
        for k in range(hc):
            zx = QMatrix((contract(zs, r, A.structure)
                          for r in X[k].sparse_rows), A.dim)
            row[k] = sparse(E.class_of_derivation(zx))
        for k, rep in enumerate(reps):
            za = h_left_multiply(z, rep)
            row[hc + k] = sparse(E.h1.reduce_chain(za), hc)
        table.append(row)
    return tuple(map(sparse_row, table))


def ref_inner_derivation(A: FiniteAlgebra, a) -> QMatrix:
    """The inner derivation [a, .] as a d x d map, row j the product
    a e_j - e_j a read off ``A.mul``."""
    rows = []
    for j in range(A.dim):
        e = A.basis_vector(j)
        rows.append(tuple(p - q for p, q in zip(A.mul(a, e), A.mul(e, a))))
    return QMatrix(rows, cols=A.dim)


def cycles_and_boundaries(A: FiniteAlgebra, n: int) -> tuple:
    """(Z, B) of H_n(A, A), read off the boundary operators and not off a
    presentation: the nullspace of b_n^T (all of A at n = 0) and the RREF
    of the rows of b_(n+1)."""
    def b(m):
        return operator(_boundary_faces(A, m), A.dim, m, m - 1)
    Z = nullspace(b(n).transpose()) if n else QMatrix.identity(A.dim)
    return Z, row_space(b(n + 1))


def derivations_and_inner(A: FiniteAlgebra) -> tuple:
    """(Z, B) of H^1(A, A) on flattened maps: Der(A) and the RREF of the
    inner derivations [e_i, .]."""
    inner = [flat_cochain(ref_inner_derivation(A, e))
             for e in QMatrix.identity(A.dim)]
    return derivation_basis(A), row_space(QMatrix(inner, cols=A.dim ** 2))


def ref_h0_action(E, xcoords, h0coords) -> tuple:
    """A derivation class acting on H_0 = A/[A, A]: X(a) for a
    representative a of the class, by a dense loop over the rows X(e_j),
    then reduced to H_0 class coordinates."""
    X = E.derivation_of(xcoords)
    a = dense(E.h0.class_to_chain(h0coords).row, E.algebra.dim)
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
