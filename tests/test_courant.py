"""The bracket/form/anchor axioms on E(A) and the quotient construction."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from hccourant import courant, hochschild
from hccourant.algebra import (GuardError, build_v1, matrix_algebra,
                               opposite_algebra)
from hccourant.courant import CourantError, EpsilonSpace, ESpace
from hccourant.dirac import Submodule
from hccourant.exactlin import (Q, ZERO, ExactLinError, QMatrix, Span,
                                bilinear, contract, nullspace,
                                quotient_basis, rank, row_combination, sparse,
                                transpose_table)
from hccourant.files import BUNDLED_ALGEBRAS
from hccourant.hochschild import (Chain, commutator, elementary_chain,
                                  interior_product)
from conftest import (h_left_multiply, is_canonical_table, is_number,
                      perturbed_table, rand_combination, rand_vec,
                      ref_bracket_table, ref_center_action,
                      ref_center_coords, ref_d_map, ref_form_table,
                      ref_h0_action, ref_pairing, ref_z_table, rng_for,
                      vec_add)

NONZERO_E = ("qx2", "qx3", "v1_1", "v1_2", "v1_3")

EXPECTED_E_DIM = {"q": 0, "qx2": 2, "qx3": 4, "v1_1": 2, "v1_2": 7,
                  "v1_3": 15, "m2q": 0, "ut2": 0}
EXPECTED_J_DIM = {"qx2": 0, "qx3": 0, "v1_1": 0, "v1_2": 1, "v1_3": 3}


@pytest.mark.parametrize("name", sorted(EXPECTED_E_DIM))
def test_e_dimensions(espaces, name):
    assert espaces[name].dim == EXPECTED_E_DIM[name]


def test_espace_guard_refuses_before_cohomology(monkeypatch):
    """The guarded homologies run before the unguarded H^1, so an algebra
    over the degree-1 guard is refused before any derivation is solved."""
    def unguarded(A):
        raise AssertionError("cohomology_h1 ran before the guard")

    monkeypatch.setattr(courant, "cohomology_h1", unguarded)
    with pytest.raises(GuardError):
        ESpace(build_v1(16))


@pytest.mark.parametrize("name, r", (("ut2", 1), ("m2q", 1), ("ut2", 2),
                                     ("m2q", 2)))
def test_b_descends_check_refuses_a_wrong_B(algebras, monkeypatch, name, r):
    """With B's degree-0 slot-0 face inserting e_(d-1) in place of the
    unit, B sends some commutator to a non-boundary, and ``ESpace`` on
    each noncommutative algebra here (M_r of ut2 and of M_2(Q)) refuses
    it."""
    faces = hochschild._connes_faces

    def wrong_unit(A, n):
        out = faces(A, n)
        if n == 0:
            sign, window, slot, kept, _ = out[0]
            assert slot == 0
            out[0] = sign, window, slot, kept, (((A.dim - 1, Q(1)),),)
        return out

    A = algebras[name] if r == 1 else matrix_algebra(algebras[name], r)
    ESpace(A)
    monkeypatch.setattr(hochschild, "_connes_faces", wrong_unit)
    with pytest.raises(CourantError, match="does not descend"):
        ESpace(A)


@pytest.mark.parametrize("name", sorted(EXPECTED_J_DIM))
def test_kernel_dimensions(espaces, name):
    assert espaces[name].radical.rows == EXPECTED_J_DIM[name]


@pytest.mark.parametrize("name", NONZERO_E)
def test_epsilon_nondegenerate(epsilons, name):
    eps = epsilons[name]
    units = QMatrix.identity(eps.dim)
    M = QMatrix([[hv for v in units for hv in eps.form(u, v)]
                 for u in units] or [],
                cols=eps.dim * eps.espace.h0.dim)
    assert rank(M) == eps.dim


def _rand_elements(rng, E, count=3):
    return [rand_vec(rng, E.dim) for _ in range(count)]


@pytest.mark.parametrize("name", NONZERO_E)
def test_c0_leibniz_identity(espaces, name):
    E = espaces[name]
    rng = rng_for(f"c0/{name}")
    for _ in range(12):
        e1, e2, e3 = _rand_elements(rng, E)
        lhs = E.courant_bracket(e1, E.courant_bracket(e2, e3))
        rhs = vec_add(E.courant_bracket(E.courant_bracket(e1, e2), e3),
                      E.courant_bracket(e2, E.courant_bracket(e1, e3)))
        assert lhs == rhs


@pytest.mark.parametrize("name", NONZERO_E)
def test_c1_anchor_intertwines(espaces, name):
    E = espaces[name]
    rng = rng_for(f"c1/{name}")
    for _ in range(12):
        e1, e2 = _rand_elements(rng, E, 2)
        br = E.courant_bracket(e1, e2)
        comm = commutator(E.derivation_of(E.rho(e1)),
                          E.derivation_of(E.rho(e2)))
        assert E.rho(br) == E.class_of_derivation(comm)


@pytest.mark.parametrize("name", NONZERO_E)
def test_c2_center_module_rule(espaces, name):
    E = espaces[name]
    rng = rng_for(f"c2/{name}")
    for _ in range(12):
        e1, e2 = _rand_elements(rng, E, 2)
        z = rand_combination(rng, E.center_basis)
        c = ref_center_coords(E, z)
        Z = E.z_table
        lhs = E.courant_bracket(e1, bilinear(c, e2, Z, E.dim))
        xz = ref_center_coords(E, ref_center_action(E, E.rho(e1), z))
        rhs = vec_add(bilinear(c, E.courant_bracket(e1, e2), Z, E.dim),
                      bilinear(xz, e2, Z, E.dim))
        assert lhs == rhs


@pytest.mark.parametrize("name", NONZERO_E)
def test_c3_invariance_of_form(espaces, name):
    E = espaces[name]
    rng = rng_for(f"c3/{name}")
    for _ in range(12):
        e1, e2, e3 = _rand_elements(rng, E)
        lhs = ref_h0_action(E, E.rho(e1), E.form(e2, e3))
        rhs = tuple(p + q for p, q in zip(
            E.form(E.courant_bracket(e1, e2), e3),
            E.form(e2, E.courant_bracket(e1, e3))))
        assert lhs == rhs


@pytest.mark.parametrize("name", NONZERO_E)
def test_c4_symmetric_defect(espaces, name):
    E = espaces[name]
    rng = rng_for(f"c4/{name}")
    for _ in range(12):
        (e1,) = _rand_elements(rng, E, 1)
        lhs = tuple(2 * x for x in E.courant_bracket(e1, e1))
        rhs = ref_d_map(E, E.form(e1, e1))
        assert lhs == rhs


@pytest.mark.parametrize("name", NONZERO_E)
def test_bracket_symmetric_part_is_d_of_form(espaces, name):
    """[[u, v]] + [[v, u]] = D(u, v) on the bracket tables: the premise of
    testing the closure of an isotropic submodule on the pairs i <= j."""
    E = espaces[name]
    rng = rng_for(f"courant-axiom/{name}")
    for _ in range(12):
        u, v = _rand_elements(rng, E, 2)
        assert (vec_add(E.bracket(u, v), E.bracket(v, u))
                == ref_d_map(E, E.form(u, v)))


@pytest.mark.parametrize("name", NONZERO_E)
def test_quotient_bracket_skew_on_orthogonal_pairs(epsilons, name):
    """(u, v) = 0 in the quotient makes [[u, v]] = -[[v, u]]."""
    eps = epsilons[name]
    rng = rng_for(f"orthogonal-skew/{name}")
    nonzero = 0
    for _ in range(12):
        u = rand_vec(rng, eps.dim)
        L = Submodule(eps, QMatrix([u], cols=eps.dim))
        v = rand_combination(rng,
                             eps.orthogonal(L.span.primitive_rows()))
        assert not any(eps.form(u, v))
        b = eps.bracket(u, v)
        assert b == tuple(-x for x in eps.bracket(v, u))
        nonzero += any(b)
    assert nonzero


def test_skew_bracket_and_cochain_apply_keep_the_number_form(espaces):
    """Arithmetic on Q entries can give integral Qs; the bracket of half a
    basis vector with twice another, on a nonzero table cell, and a map of
    halves applied to twos keep every entry an int when integral."""
    E = espaces["v1_3"]
    i, (j, _) = next((i, row[0]) for i, row in enumerate(E.bracket_table)
                     if row)
    u = tuple(Q(1, 2) if k == i else 0 for k in range(E.dim))
    v = tuple(2 if k == j else 0 for k in range(E.dim))
    w = E.bracket(u, v)
    assert any(w) and all(is_number(x) for x in w)
    A = E.algebra
    half = QMatrix(tuple(Q(1, 2) if j == k else 0 for k in range(A.dim))
                   for j in range(A.dim))
    image = row_combination((2, 0, 2, 0), half)
    assert image == (1, 0, 1, 0)
    assert all(is_number(x) for x in image)


@pytest.mark.parametrize("name", NONZERO_E)
def test_form_is_symmetric(espaces, name):
    E = espaces[name]
    rng = rng_for(f"sym/{name}")
    for _ in range(12):
        e1, e2 = _rand_elements(rng, E, 2)
        assert E.form(e1, e2) == E.form(e2, e1)


def test_pairing_value_qx2(espaces):
    E = espaces["qx2"]
    A = E.algebra
    # the H^1 class basis is x d/dx (up to scale); check the pairing against
    # the class of 1 (x) x lands on X(x) in H_0
    X = E.derivation_of((1,))
    alpha = elementary_chain(A, (0, 1))
    got = ref_pairing(E, (1,), E.h1.reduce_chain(alpha))
    expected = E.h0.reduce_chain(Chain(A, 0, X[1]))
    assert got == expected


@pytest.mark.parametrize("name", NONZERO_E)
def test_kernel_is_two_sided_bracket_ideal(espaces, name):
    E = espaces[name]
    J = E.radical
    from hccourant.exactlin import membership
    for j in J:
        for e in QMatrix.identity(E.dim):
            assert membership(E.courant_bracket(j, e), J) is not None
            assert membership(E.courant_bracket(e, j), J) is not None


def test_quotient_bracket_well_defined(epsilons):
    eps = epsilons["v1_2"]
    E = eps.espace
    rng = rng_for("quotient-wd")
    for _ in range(10):
        u = rand_vec(rng, eps.dim)
        v = rand_vec(rng, eps.dim)
        # perturb a lift by a kernel element; the reduced bracket must agree
        lift_u = eps.lift(u)
        jrow = eps.J[rng.randrange(eps.J.rows)]
        perturbed = vec_add(lift_u, jrow)
        b1 = eps.bracket(u, v)
        b2 = eps.reduce(E.courant_bracket(perturbed, eps.lift(v)))
        assert b1 == b2


def test_rho_on_quotient_for_commutative(epsilons):
    eps = epsilons["qx2"]
    u = QMatrix.identity(eps.dim)[0]
    assert len(eps.rho(u)) == eps.espace.h1co.dim


def test_mismatched_spaces_rejected(espaces):
    """A vector of another E-space has the wrong length and is refused."""
    E1, E2 = espaces["qx2"], espaces["qx3"]
    e1 = QMatrix.identity(E1.dim)[0]
    e2 = QMatrix.identity(E2.dim)[0]
    with pytest.raises(CourantError, match="length mismatch"):
        E1.courant_bracket(e1, e2)


def test_epsilon_form_rejects_wrong_length(espaces, epsilons):
    """epsilon(A).form checks lengths as E(A).form does."""
    eps = epsilons["v1_3"]
    assert eps.dim != 1
    with pytest.raises(CourantError, match="length mismatch"):
        espaces["v1_3"].form((1,), (1,))
    with pytest.raises(CourantError, match="length mismatch"):
        eps.form((1,), (1,))


@pytest.mark.parametrize("name", NONZERO_E)
def test_epsilon_reduce_matches_the_quotient_reducer(espaces, epsilons, name):
    """reduce is the stored projection matrix; it agrees with the echelon
    reducer of quotient_basis on random E(A) vectors and checks lengths."""
    E, eps = espaces[name], epsilons[name]
    _, reducer = quotient_basis(QMatrix.identity(E.dim), Span(eps.J))
    rng = rng_for("reduce-" + name)
    for _ in range(20):
        v = rand_vec(rng, E.dim)
        assert eps.reduce(v) == reducer(v)
    with pytest.raises(CourantError, match="length mismatch"):
        eps.reduce((1,) * (E.dim + 1))


# ---------------------------------------------------------------------------
# the cached structure tensors against the chain-level maps

def _chain_z_scale(E, zcoords, u):
    """Reference Z(A)-action: z.X and z.alpha on chain representatives,
    reduced to classes (the chain-level body the z_table replaced)."""
    A, hc = E.algebra, E.h1co.dim
    X = E.derivation_of(u[:hc])
    xz = E.class_of_derivation(
        QMatrix([A.mul(zcoords, row) for row in X]))
    az = E.h1.reduce_chain(h_left_multiply(zcoords,
                                           E.h1.class_to_chain(u[hc:])))
    return xz + az


def _pairing_form(E, u, v):
    """Reference form: <X2, a1> + <X1, a2>, each pairing the H_0 class of
    i_X alpha on chain representatives (the body the form table
    replaced)."""
    hc = E.h1co.dim

    def pairing(x, a):
        return E.h0.reduce_chain(interior_product(
            E.derivation_of(x), E.h1.class_to_chain(a)))
    return vec_add(pairing(v[:hc], u[hc:]), pairing(u[:hc], v[hc:]))


@pytest.fixture(scope="module")
def table_spaces(epsilons):
    """Every bundled quotient with E != 0, plus the omni space V[1], n = 4."""
    spaces = {name: epsilons[name] for name in NONZERO_E}
    spaces["v1_4"] = EpsilonSpace(ESpace(build_v1(4)))
    return spaces


_rationals = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_structure_tables_match_chain_level_maps(table_spaces, data):
    eps = table_spaces[data.draw(st.sampled_from(sorted(table_spaces)))]
    E = eps.espace

    def draw_vec(n):
        return tuple(data.draw(st.lists(_rationals, min_size=n, max_size=n)))

    u, v = draw_vec(E.dim), draw_vec(E.dim)
    z = row_combination(draw_vec(E.center_basis.rows), E.center_basis)
    c = ref_center_coords(E, z)
    assert E.bracket(u, v) == E.courant_bracket(u, v)
    assert E.form(u, v) == _pairing_form(E, u, v)
    assert bilinear(c, u, E.z_table, E.dim) == _chain_z_scale(E, z, u)
    a, b = draw_vec(eps.dim), draw_vec(eps.dim)
    lift_a, lift_b = eps.lift(a), eps.lift(b)
    assert eps.bracket(a, b) == eps.reduce(E.courant_bracket(lift_a, lift_b))
    assert eps.form(a, b) == _pairing_form(E, lift_a, lift_b)
    assert (bilinear(c, a, eps.z_table, eps.dim)
            == eps.reduce(_chain_z_scale(E, z, lift_a)))


@pytest.mark.parametrize("name", NONZERO_E)
def test_structure_tables_are_canonical(espaces, epsilons, name):
    """Every table stores its nonzero cells only, indices ascending, so
    table == table' means equal tensors."""
    E = espaces[name]
    # the form is stored once: rows of H^1 hold only the (X, alpha) block
    assert all(j >= E.h1co.dim
               for row in E.form_table[:E.h1co.dim] for j, _ in row)
    for space in (E, epsilons[name]):
        n = space.dim
        assert is_canonical_table(space.bracket_table, n, n, n)
        assert is_canonical_table(space.form_table, n, n, space.h0_dim)
        assert is_canonical_table(space.z_table, space.center_basis.rows,
                                  n, n)


# the algebras besides the bundled ones whose tables are held to the
# per-pair reference: Morita targets, opposite algebras and the omni V[1]
BUILT_SPACES = {
    "M2(qx2)": lambda a: matrix_algebra(a["qx2"], 2),
    "M2(v1_2)": lambda a: matrix_algebra(a["v1_2"], 2),
    "M3(v1_3)": lambda a: matrix_algebra(a["v1_3"], 3),
    "ut2^op": lambda a: opposite_algebra(a["ut2"]),
    "qx3^op": lambda a: opposite_algebra(a["qx3"]),
    "v1_4": lambda a: build_v1(4),
    "v1_5": lambda a: build_v1(5),
}


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS + (
    "M2(qx2)", "ut2^op", "qx3^op", "v1_4"))
def test_form_tables_are_their_own_transpose(algebras, espaces, epsilons,
                                             name):
    """Every E and epsilon of the corpus (the bundled algebras, M_2(qx2),
    ut2^op, qx3^op and V[1] at n = 2..4): the form table is its transpose,
    cell for cell, which ``orthogonal_equations`` reads (e_k, l) by."""
    if name in espaces:
        E = espaces[name]
    else:
        E = ESpace(BUILT_SPACES[name](algebras), max_dim=36)
    spaces = (E, epsilons.get(name) or EpsilonSpace(E)) if E.dim else (E,)
    for space in spaces:
        F = space.form_table
        assert F == transpose_table(F, space.dim)
        assert any(F) == (space.dim > 0)


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS + (
    "M2(qx2)", "ut2^op", "qx3^op", "v1_4"))
def test_the_form_vanishes_on_both_blocks(algebras, espaces, epsilons, name):
    """The first ``x_dim`` coordinates of every E and epsilon of the corpus
    come from H^1 and the rest from H_1, and the form table has no cell on
    a pair inside either block, which maximality by complement reads."""
    if name in espaces:
        E = espaces[name]
    else:
        E = ESpace(BUILT_SPACES[name](algebras), max_dim=36)
    spaces = (E, epsilons.get(name) or EpsilonSpace(E)) if E.dim else (E,)
    assert E.x_dim == E.h1co.dim
    for space in spaces:
        x, n = space.x_dim, space.dim
        for lo, hi in ((0, x), (x, n)):
            assert not any(lo <= j < hi for row in space.form_table[lo:hi]
                           for j, _ in row)
    if E.dim:
        eps = spaces[1]
        assert [any(eps.lift(u)[:E.x_dim]) for u in QMatrix.identity(
            eps.dim)] == [k < eps.x_dim for k in range(eps.dim)]


@pytest.mark.parametrize("name", NONZERO_E + tuple(BUILT_SPACES))
def test_tables_equal_the_per_pair_reference(algebras, espaces, epsilons,
                                             name):
    """E's form, bracket and Z tables equal the ones built pair by pair
    from the single-chain rules, cell for cell and in the number form;
    so do epsilon's, which an EpsilonSpace induces from E's tables and
    from the reference ones alike."""
    if name in espaces:
        E, eps = espaces[name], epsilons[name]
    else:
        E = ESpace(BUILT_SPACES[name](algebras), max_dim=36)
        eps = EpsilonSpace(E) if E.dim else None
    refs = ref_form_table(E), ref_bracket_table(E), ref_z_table(E)
    tables = E.form_table, E.bracket_table, E.z_table
    assert tables == refs
    assert all(is_number(x) for table in tables for row in table
               for _, cell in row for _, x in cell)
    if eps is None:
        return
    ref_space = copy.copy(E)  # the same presentations, the reference tables
    vars(ref_space).pop("radical", None)
    ref_space.form_table, ref_space.bracket_table, ref_space.z_table = refs
    ref_eps = EpsilonSpace(ref_space)
    assert ((eps.form_table, eps.bracket_table, eps.z_table)
            == (ref_eps.form_table, ref_eps.bracket_table, ref_eps.z_table))


def test_bracket_table_refuses_a_non_derivation():
    """A derivation replaced by a map that is not one: X(1) = v_1.  The
    tables reduce every nonzero cell by its presentation's span, so the
    bracket table refuses [X, X_j], which is not a derivation."""
    E = ESpace(build_v1(2))  # its own instance: the tables are cached on it
    X = QMatrix(((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    E.derivations = (X,) + E.derivations[1:]
    with pytest.raises(ExactLinError, match="reduce: vector outside the span"):
        E.bracket_table


def test_ideal_check_fails_on_a_perturbed_bracket_table():
    """[e_0, J_0], and then [J_0, e_0], gains a multiple of e_0, which lies
    outside J: each side fails the check, with the witness (J0, e0)."""
    for side in (0, 1):
        E = ESpace(build_v1(2))  # its own instance: the tables are cached
        J = E.radical
        a = next(k for k, x in enumerate(J[0]) if x)
        cell = (a, 0) if side else (0, a)
        E.bracket_table = perturbed_table(E.bracket_table, *cell, 0)
        with pytest.raises(CourantError,
                           match=r"bracket ideal at \(J0, e0\)$"):
            EpsilonSpace(E)


def test_nondegeneracy_check_fails_on_a_zeroed_form_table():
    eps = EpsilonSpace(ESpace(build_v1(2)))  # its own instance
    eps.form_table = ((),) * eps.dim  # every cell zero
    del eps.radical  # cached by the check at construction
    with pytest.raises(CourantError, match="degenerate"):
        eps._verify_nondegenerate()


# ---------------------------------------------------------------------------
# radicals and orthogonals read off the form table, against the bodies they
# replaced

def _pairing_radical(E):
    """Reference radical: the H_0 coordinates of <X_l, alpha-part> and
    <x-part, alpha_m> stacked from the pairing table."""
    hc, hh, h0d = E.h1co.dim, E.h1.dim, E.h0.dim
    ex, ea = QMatrix.identity(hc), QMatrix.identity(hh)
    P = [[ref_pairing(E, x, a) for a in ea] for x in ex]
    rows = []
    for l in range(hc):
        for k in range(h0d):
            rows.append([ZERO] * hc + [P[l][j][k] for j in range(hh)])
    for m in range(hh):
        for k in range(h0d):
            rows.append([P[i][m][k] for i in range(hc)] + [ZERO] * hh)
    if not rows:
        return QMatrix.identity(E.dim)
    return nullspace(QMatrix(rows, cols=E.dim))


def _unit_form_orthogonal(L):
    """Reference orthogonal: the form of each ambient unit vector against
    each spanning vector, stacked over the H_0 coordinates."""
    amb = L.ambient
    n = amb.dim
    rows = []
    for l in L.vectors:
        cols = [amb.form(QMatrix.identity(n)[k], l) for k in range(n)]
        for h in range(amb.h0_dim):
            rows.append([cols[k][h] for k in range(n)])
    if not rows:
        return QMatrix.identity(n)
    return nullspace(QMatrix(rows, cols=n))


def _unit_form_rows(amb, vectors):
    """Reference equations of the orthogonal: the body ``orthogonal_rows``
    had, one contraction of the form table per ambient unit vector and
    spanning vector, stacked over the H_0 coordinates."""
    rows = []
    for l in vectors:
        block = [[] for _ in range(amb.h0_dim)]
        for k in range(amb.dim):
            for h, x in contract(((k, 1),), sparse(l), amb.form_table):
                block[h].append((k, x))
        rows += block
    return QMatrix(rows, cols=amb.dim)


@pytest.mark.parametrize("name", NONZERO_E)
def test_orthogonal_rows_match_unit_form_rows(espaces, epsilons, name):
    """The one-pass block of ``orthogonal_rows`` is the per-unit-vector
    contraction's, matrix for matrix, on integral and fractional rows."""
    rng = rng_for(f"perp-rows/{name}")
    for amb in (espaces[name], epsilons[name]):
        for count in range(amb.dim + 1):
            vectors = [[Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                        for _ in range(amb.dim)] for _ in range(count)]
            got = amb.orthogonal_rows(
                QMatrix(vectors, cols=amb.dim).sparse_rows)
            assert got == _unit_form_rows(amb, vectors)


@pytest.mark.parametrize("name", NONZERO_E)
def test_kernel_J_matches_pairing_table_body(espaces, name):
    E = espaces[name]
    assert E.radical == _pairing_radical(E)


@pytest.mark.parametrize("name", NONZERO_E)
def test_orthogonal_matches_unit_form_body(espaces, epsilons, name):
    rng = rng_for(f"perp/{name}")
    for amb in (espaces[name], epsilons[name]):
        for count in range(amb.dim + 1):
            L = Submodule(amb, QMatrix([rand_vec(rng, amb.dim)
                                        for _ in range(count)], cols=amb.dim))
            assert (amb.orthogonal(L.span.primitive_rows())
                    == _unit_form_orthogonal(L))
