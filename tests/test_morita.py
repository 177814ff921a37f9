"""Matrix-algebra transport: chain maps, homology isomorphisms, Dirac
transport, and the opposite-algebra comparison."""

import pytest

from hccourant.algebra import build_v1, matrix_algebra
from hccourant.courant import EpsilonSpace, ESpace
from hccourant.dirac import Submodule, is_dirac, lie_algebroid_check, \
    make_bracket_table, poisson_graph, two_form, two_form_graph
from hccourant.exactlin import QMatrix
from hccourant.files import BUNDLED_ALGEBRAS, load_algebra_ref
from hccourant.hochschild import boundary_b, elementary_chain, homology
from hccourant import morita
from hccourant.morita import (MoritaError, cotr, inc, transport_dirac,
                              verify_morita, verify_opposite,
                              _check_homotopy_identity)
from hccourant.omni import verify_main_theorem
from conftest import _ref_is_derivation, perturbed_table


def test_m2q_homology_matches_ground_field():
    """Direct rank computation on M_2(Q) against the ground-field values
    H_0(Q) = Q, H_1(Q) = 0."""
    M = matrix_algebra(load_algebra_ref("q"), 2)
    assert homology(M, 0).dim == 1
    assert homology(M, 1).dim == 0


def test_cotr_is_a_derivation():
    A = load_algebra_ref("qx2")
    M = matrix_algebra(A, 2)
    X = QMatrix(((0, 0), (0, 1)))  # x d/dx
    TX = cotr(X, M, 2)
    assert _ref_is_derivation(M, TX)


def test_inc_preserves_cycles():
    A = load_algebra_ref("qx2")
    M = matrix_algebra(A, 2)
    c = elementary_chain(A, (0, 1))
    ic = inc(c, M, 2)
    assert boundary_b(ic).is_zero()
    # the corner embedding is index-preserving on the (1,1) corner
    assert ic.coords[0 * M.dim + 1] == 1


def test_exact_corner_homotopy_identity():
    for A in (load_algebra_ref("qx2"), build_v1(2), load_algebra_ref("ut2")):
        assert _check_homotopy_identity(A, matrix_algebra(A, 2), 2)


def test_verify_morita_qx2():
    ctx = verify_morita(load_algebra_ref("qx2"), 2)
    assert ctx.report.ok
    assert ctx.src_eps.dim == ctx.tgt_eps.dim == 2


def test_verify_morita_v1_2():
    ctx = verify_morita(build_v1(2), 2)
    assert ctx.report.ok
    assert ctx.src_eps.dim == ctx.tgt_eps.dim == 6


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_verify_morita_r3_every_bundled_algebra(algebras, name):
    """Morita invariance at r = 3, targets of dimension up to 36."""
    assert verify_morita(algebras[name], 3).report.ok


def test_transport_dirac_structure():
    A = build_v1(2)
    ctx = verify_morita(A, 2)
    d = A.dim
    zero = [[[0] * d for _ in range(d)] for _ in range(d)]
    t = make_bracket_table(A, zero)
    _, L = poisson_graph(ctx.src_eps.espace, ctx.src_eps, t)
    assert is_dirac(L).dirac
    L2, verdict = transport_dirac(ctx, L)
    assert verdict.dirac
    assert L2.dim == L.dim


def test_transport_requires_matching_quotient():
    ctx = verify_morita(load_algebra_ref("qx2"), 2)
    other = verify_morita(build_v1(2), 2)
    L = Submodule(other.src_eps, QMatrix([], cols=other.src_eps.dim))
    with pytest.raises(MoritaError):
        transport_dirac(ctx, L)


@pytest.mark.parametrize("factory", (lambda: load_algebra_ref("qx3"),
                                     lambda: build_v1(2),
                                     lambda: load_algebra_ref("ut2")))
def test_opposite_algebra_same_presentation(factory):
    rep = verify_opposite(ESpace(factory()))
    assert rep.ok, rep


def test_ut2_has_trivial_e_on_both_sides():
    E = ESpace(load_algebra_ref("ut2"))
    assert E.dim == 0
    rep = verify_opposite(E)
    assert rep.ok


def _perturbing_espace(source):
    """An ESpace factory that perturbs the bracket table of every space not
    over ``source`` (the opposite or matrix-algebra side)."""
    def build(A, **kwargs):
        E = ESpace(A, **kwargs)
        if A is not source:
            E.bracket_table = perturbed_table(E.bracket_table, 0, 0, 0)
        return E
    return build


def test_opposite_bracket_comparison_can_fail(monkeypatch):
    A = load_algebra_ref("qx3")
    E = ESpace(A)
    monkeypatch.setattr(morita, "ESpace", _perturbing_espace(A))
    rep = verify_opposite(E)
    assert rep.presentations_coincide and rep.form_tables_match
    assert not rep.bracket_tables_match and not rep.ok


def test_morita_bracket_comparison_can_fail(monkeypatch):
    A = load_algebra_ref("qx2")
    monkeypatch.setattr(morita, "ESpace", _perturbing_espace(A))
    rep = verify_morita(A, 2).report
    assert rep.pairing_preserved and rep.homotopy_identity
    assert not rep.bracket_preserved and not rep.ok


def _false_flags(report) -> set:
    """The names of the report's booleans that are False, ``ok`` aside."""
    return {k for k, v in report.to_json().items()
            if v is False and k != "ok"}


def _report(kind, espaces, epsilons):
    if kind == "morita":
        return verify_morita(espaces["qx2"].algebra, 2,
                             src=espaces["qx2"]).report
    if kind == "opposite":
        return verify_opposite(espaces["ut2"])
    if kind == "main":
        return verify_main_theorem(2, espace=espaces["v1_2"])[1]
    E, eps = espaces["qx2"], epsilons["qx2"]
    h2 = homology(E.algebra, 2)
    L, _ = two_form_graph(eps, two_form(E, (0,) * h2.dim))
    return lie_algebroid_check(eps, L)


@pytest.mark.parametrize("kind", ("morita", "opposite", "main", "algebroid"))
def test_reports_are_records(espaces, epsilons, kind):
    """A verdict record's JSON is its fields by name, then ok; ok is the
    conjunction of its boolean fields, so forcing any one of them False
    makes ok False and shows under that field's name, and no other field
    is a verdict.  A forced record is rebuilt through its class by
    keyword, so ``__post_init__`` and the binding run as for any record."""
    rep = _report(kind, espaces, epsilons)
    names = list(rep._fields)

    def rebuilt(name, value):
        return type(rep)(**{**{n: getattr(rep, n) for n in names},
                            name: value})

    assert rep.ok
    assert type(rep)(*(getattr(rep, n) for n in names)) == rep
    assert set(rep.to_json()) == set(names) | {"ok"}
    flags = {n for n in names if isinstance(getattr(rep, n), bool)}
    assert len(flags) >= 4
    for name in names:
        if name in flags:
            forced = rebuilt(name, False)
            doc = forced.to_json()
            assert not forced.ok and doc["ok"] is False
            assert _false_flags(forced) == {name}
        else:
            assert rebuilt(name, None).ok


def test_morita_pairing_comparison_can_fail(monkeypatch):
    """A perturbed pairing <X_0, alpha_0> on the target fails the pairing
    identity only: both quotients, and the bracket table the target's is
    checked with, are built from the true form first."""
    A = load_algebra_ref("qx2")

    def build(E):
        eps = EpsilonSpace(E)
        if E.algebra is not A:
            hc = E.h1co.dim
            E.form_table = perturbed_table(
                perturbed_table(E.form_table, 0, hc, 0), hc, 0, 0)
        return eps

    monkeypatch.setattr(morita, "EpsilonSpace", build)
    rep = verify_morita(A, 2).report
    assert _false_flags(rep) == {"pairing_preserved"} and not rep.ok


@pytest.mark.parametrize("attr, flag", (
    ("bracket_table", "quotient_bracket_preserved"),
    ("form_table", "quotient_form_preserved")))
def test_morita_quotient_comparisons_can_fail(monkeypatch, attr, flag):
    A = load_algebra_ref("qx2")

    def build(E):
        eps = EpsilonSpace(E)
        if E.algebra is not A:
            setattr(eps, attr, perturbed_table(getattr(eps, attr), 0, 0, 0))
        return eps

    monkeypatch.setattr(morita, "EpsilonSpace", build)
    rep = verify_morita(A, 2).report
    assert _false_flags(rep) == {flag} and not rep.ok


def test_opposite_form_comparison_can_fail(monkeypatch):
    A = load_algebra_ref("qx3")
    E = ESpace(A)

    def build(B, **kwargs):
        Eop = ESpace(B, **kwargs)
        Eop.form_table = perturbed_table(Eop.form_table, 0, 0, 0)
        return Eop

    monkeypatch.setattr(morita, "ESpace", build)
    rep = verify_opposite(E)
    assert _false_flags(rep) == {"form_tables_match"} and not rep.ok
