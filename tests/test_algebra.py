import json

import pytest

from hccourant.algebra import (AlgebraError, GuardError, algebra_from_json,
                               algebra_to_json, build_v1, center, check_guard,
                               commutator_subspace, ground_field,
                               load_algebra, make_algebra, matrix_algebra,
                               opposite_algebra, truncated_poly,
                               upper_triangular2)
from hccourant.exactlin import Q, QMatrix, nullspace, rank
from hccourant.files import BUNDLED_ALGEBRAS


def test_ground_field():
    A = ground_field()
    assert A.dim == 1
    assert A.mul((Q(2),), (Q(3),)) == (Q(6),)


def test_truncated_poly_relations():
    A = truncated_poly(3)
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
    M = matrix_algebra(ground_field(), 2)
    # E12 * E21 = E11, E12 * E12 = 0; basis order E11, E12, E21, E22
    e12, e21 = M.basis_vector(1), M.basis_vector(2)
    assert M.mul(e12, e21) == M.basis_vector(0)
    assert M.mul(e12, e12) == (Q(0),) * 4
    assert not M.is_commutative()


def test_upper_triangular2_not_commutative():
    A = upper_triangular2()
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


def test_center_of_matrix_algebra_is_scalars():
    M = matrix_algebra(ground_field(), 2)
    Z = center(M)
    assert Z.rows == 1
    # the center is spanned by the identity matrix
    scale = Z[0][0]
    assert scale != 0
    assert tuple(x / scale for x in Z[0]) == M.unit


def test_center_of_commutative_is_everything():
    A = truncated_poly(3)
    assert center(A).rows == A.dim
    assert commutator_subspace(A).rows == 0


def _ref_center(A):
    """The dense-row center that the sparse-row one replaced."""
    d = A.dim
    rows = []
    for i in range(d):
        for k in range(d):
            # sum_s z_s (c_{si}^k - c_{is}^k) = 0
            rows.append([A.structure[s][i][k] - A.structure[i][s][k]
                         for s in range(d)])
    return nullspace(QMatrix(rows, cols=d))


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_center_matches_dense_reference(algebras, name):
    A = algebras[name]
    assert center(A) == _ref_center(A)


def test_commutator_subspace_m2q():
    M = matrix_algebra(ground_field(), 2)
    # sl2: traceless matrices
    assert commutator_subspace(M).rows == 3


def test_opposite_of_commutative_identical():
    A = truncated_poly(2)
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
    C = load_algebra(str(p))
    assert C.structure == A.structure


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(AlgebraError):
        load_algebra(str(p))
    with pytest.raises(AlgebraError):
        algebra_from_json({"name": "x", "dimension": 2, "basis": ["1"],
                           "unit": ["1", "0"], "structure": []})


def test_guard():
    with pytest.raises(GuardError):
        check_guard(17, 1)
    check_guard(17, 1, max_dim=20)
    with pytest.raises(GuardError):
        check_guard(2, 9)
