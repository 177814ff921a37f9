import itertools
import json

import pytest

from hccourant.algebra import (AlgebraError, GuardError, algebra_from_json,
                               algebra_to_json, build_v1, check_guard,
                               make_algebra, matrix_algebra, opposite_algebra)
from hccourant.exactlin import HccourantError, Q, QMatrix, nullspace
from hccourant.files import (BUNDLED_ALGEBRAS, FileFormatError,
                             load_algebra_ref)
from hccourant.hochschild import center, homology

from conftest import (cycles_and_boundaries, dense_structure,
                      is_canonical_table)


def test_ground_field():
    A = load_algebra_ref("q")
    assert A.dim == 1
    assert A.mul((Q(2),), (Q(3),)) == (Q(6),)


def test_truncated_poly_relations():
    A = load_algebra_ref("qx3")
    x = A.basis_vector(1)
    x2 = A.mul(x, x)
    assert x2 == A.basis_vector(2)
    assert A.mul(x2, x) == (Q(0),) * 3
    assert A.is_commutative()


def test_v1_products_vanish():
    A = build_v1(3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert A.mul(A.basis_vector(i), A.basis_vector(j)) == (Q(0),) * 4
    assert A.mul(A.unit, A.basis_vector(2)) == A.basis_vector(2)


def test_matrix_algebra_units_multiply():
    M = matrix_algebra(load_algebra_ref("q"), 2)
    # E12 * E21 = E11, E12 * E12 = 0; basis order E11, E12, E21, E22
    e12, e21 = M.basis_vector(1), M.basis_vector(2)
    assert M.mul(e12, e21) == M.basis_vector(0)
    assert M.mul(e12, e12) == (Q(0),) * 4
    assert not M.is_commutative()


def test_matrix_algebra_refuses_r_zero():
    with pytest.raises(AlgebraError, match="matrix_algebra requires r >= 1"):
        matrix_algebra(load_algebra_ref("q"), 0)


def test_upper_triangular2_not_commutative():
    A = load_algebra_ref("ut2")
    e11, e12 = A.basis_vector(0), A.basis_vector(1)
    assert A.mul(e11, e12) == e12
    assert A.mul(e12, e11) == (Q(0),) * 3


def test_associativity_rejected():
    # e1 e1 = e1, e1 e2 = e2, but e2 e1 = e1 breaks associativity
    with pytest.raises(AlgebraError):
        make_algebra("bad", ["1", "a"],
                     [[[1, 0], [0, 1]], [[1, 0], [0, 0]]], [1, 0])


def test_unit_law_rejected():
    with pytest.raises(AlgebraError):
        make_algebra("bad", ["1", "a"],
                     [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [1, 0])


@pytest.mark.parametrize("structure", (
    [[[1, 0], [0, 1]]],                                      # one row short
    [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]],  # an extra row
    [[[1, 0], [0, 1], [0, 0]], [[0, 1], [0, 0]]],            # a long row
    [[[1, 0], [0, 1, 0]], [[0, 1], [0, 0]]],                 # a long cell
))
def test_ragged_table_rejected(structure):
    with pytest.raises(AlgebraError, match="inconsistent dimensions"):
        make_algebra("ragged", ["1", "x"], structure, [1, 0])


def test_non_rational_constant_rejected():
    with pytest.raises(HccourantError, match="'a'"):
        make_algebra("x", ["1"], [[["a"]]], [1])
    with pytest.raises(HccourantError, match="'a'"):
        make_algebra("x", ["1"], [[[1]]], ["a"])


def _ref_first_failure(S, unit):
    """The dense check the sparse one replaced: the first unit-law failure,
    else the first associativity failure over (i, j, k) in lexicographic
    order, or None."""
    d = len(unit)

    def mul(x, y):
        out = [Q(0)] * d
        for i, j in itertools.product(range(d), repeat=2):
            if x[i] and y[j]:
                for k in range(d):
                    out[k] += x[i] * y[j] * S[i][j][k]
        return tuple(out)

    e = [tuple(Q(int(i == k)) for k in range(d)) for i in range(d)]
    for i in range(d):
        if mul(unit, e[i]) != e[i] or mul(e[i], unit) != e[i]:
            return f"unit laws fail on basis element {i}"
    for i, j, k in itertools.product(range(d), repeat=3):
        if mul(S[i][j], e[k]) != mul(e[i], S[j][k]):
            return f"associativity fails at triple ({i},{j},{k})"
    return None


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_perturbed_table_rejected_as_dense_reference(algebras, name):
    """Adding 1 to any one structure constant: make_algebra raises exactly
    when the dense check finds a failure, and names the same one."""
    A = algebras[name]
    S = dense_structure(A)
    rejected = 0
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        T = [[list(cell) for cell in row] for row in S]
        T[i][j][k] += 1
        expected = _ref_first_failure(T, A.unit)
        if expected is None:
            make_algebra(A.name, A.basis_names, T, A.unit)
            continue
        with pytest.raises(AlgebraError) as exc:
            make_algebra(A.name, A.basis_names, T, A.unit)
        assert str(exc.value) == f"{A.name}: {expected}"
        rejected += 1
    assert rejected


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_structure_is_canonical_sparse_table(algebras, name):
    A = algebras[name]
    for B in (A, opposite_algebra(A), matrix_algebra(A, 2),
              matrix_algebra(A, 3)):
        assert is_canonical_table(B.structure, B.dim, B.dim, B.dim), B


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_opposite_and_matrix_algebra_match_dense_reference(algebras, name):
    A = algebras[name]
    d, S = A.dim, dense_structure(A)
    assert dense_structure(opposite_algebra(A)) == tuple(
        tuple(S[j][i] for j in range(d)) for i in range(d))
    assert A.is_commutative() == all(
        S[i][j] == S[j][i] for i in range(d) for j in range(d))
    # E_pq(e_i) E_st(e_j) = [q = s] E_pt(e_i e_j)
    r, D = 2, 4 * d
    M = dense_structure(matrix_algebra(A, r))
    for (p, q, i), (s, t, j) in itertools.product(
            itertools.product(range(r), range(r), range(d)), repeat=2):
        cell = [Q(0)] * D
        if q == s:
            cell[(p * r + t) * d:(p * r + t + 1) * d] = S[i][j]
        assert M[(p * r + q) * d + i][(s * r + t) * d + j] == tuple(cell)


def test_center_of_matrix_algebra_is_scalars():
    M = matrix_algebra(load_algebra_ref("q"), 2)
    Z = center(M)
    assert Z.rows == 1
    # the center is spanned by the identity matrix
    scale = Z[0][0]
    assert scale != 0
    assert tuple(x / scale for x in Z[0]) == M.unit


def test_center_of_commutative_is_everything():
    A = load_algebra_ref("qx3")
    assert center(A).rows == A.dim
    # span{ab - ba} is the degree-0 boundaries: b(a (x) b) = ab - ba
    h = homology(A, 0)
    assert cycles_and_boundaries(A, 0)[1].rows == 0 == h.reduce.dim - h.dim


def _ref_center(A):
    """The dense-row center that the sparse-row one replaced."""
    d, S = A.dim, dense_structure(A)
    rows = []
    for i in range(d):
        for k in range(d):
            # sum_s z_s (c_{si}^k - c_{is}^k) = 0
            rows.append([S[s][i][k] - S[i][s][k] for s in range(d)])
    return nullspace(QMatrix(rows, cols=d))


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_center_matches_dense_reference(algebras, name):
    A = algebras[name]
    assert center(A) == _ref_center(A)


def test_commutator_subspace_m2q():
    M = matrix_algebra(load_algebra_ref("q"), 2)
    # sl2: traceless matrices
    h = homology(M, 0)
    assert cycles_and_boundaries(M, 0)[1].rows == 3 == h.reduce.dim - h.dim


def test_opposite_of_commutative_identical():
    A = load_algebra_ref("qx2")
    B = opposite_algebra(A)
    assert B.structure == A.structure


def test_json_roundtrip(tmp_path):
    A = build_v1(2)
    doc = algebra_to_json(A)
    B = algebra_from_json(doc)
    assert B.structure == A.structure
    assert B.unit == A.unit
    p = tmp_path / "a.json"
    p.write_text(json.dumps(doc))
    C = load_algebra_ref(str(p))
    assert C.structure == A.structure


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FileFormatError, match="invalid JSON at line 1"):
        load_algebra_ref(str(p))
    with pytest.raises(AlgebraError):
        algebra_from_json({"name": "x", "dimension": 2, "basis": ["1"],
                           "unit": ["1", "0"], "structure": []})


def test_guard():
    with pytest.raises(GuardError):
        check_guard(17, 1)
    check_guard(17, 1, max_dim=20)
    with pytest.raises(GuardError):
        check_guard(2, 9)


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_commutativity_is_decided_once_per_algebra(name, monkeypatch):
    """``is_commutative`` transposes the structure table on its first call
    only, per algebra: every Poisson graph and bracket table over A asks
    again, and the answer stays the dense loop's."""
    from hccourant import algebra
    calls = []
    transpose = algebra.transpose_table
    monkeypatch.setattr(algebra, "transpose_table",
                        lambda t: calls.append(1) or transpose(t))
    A = load_algebra_ref(name)
    d, S = A.dim, dense_structure(A)
    verdicts = {A.is_commutative() for _ in range(5)}
    assert verdicts == {all(S[i][j] == S[j][i]
                            for i in range(d) for j in range(d))}
    assert len(calls) == 1
    B = opposite_algebra(A)  # a new algebra decides it anew, once
    calls.clear()
    assert {B.is_commutative() for _ in range(5)} == verdicts
    assert len(calls) == 1
