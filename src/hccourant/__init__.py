"""Exact-arithmetic Courant brackets on finite-dimensional algebras over Q.

The package computes Hochschild homology and cohomology in low degrees for a
unital associative algebra given by structure constants, assembles the space
E(A) = H^1(A,A) (+) H_1(A,A) with its Courant bracket and H_0-valued bilinear
form, passes to the nondegenerate quotient epsilon(A), and decides Dirac,
Poisson-graph, two-form-graph, Morita-transport, and omni-Lie questions with
no floating point anywhere.

``EXPORTS`` is the package's public API, one line per module.  A name is
imported from its module on first use (PEP 562), so ``import hccourant``
loads no submodule and a command that needs only ``algebra`` never compiles
``dirac`` or ``omni``.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports
EXPORTS = {
    "algebra": "AlgebraError FiniteAlgebra GuardError build_v1 "
               "make_algebra matrix_algebra opposite_algebra",
    "courant": "CourantError CourantSpace EpsilonSpace ESpace",
    "dirac": "BracketTable DiracError DiracVerdict Submodule TwoFormClass "
             "biderivation_space find_two_form_witness is_bracket_closed "
             "is_dirac is_maximally_isotropic is_poisson is_z_stable "
             "lie_algebroid_check make_bracket_table poisson_graph "
             "table_from_flat two_form two_form_graph",
    "exactlin": "HccourantError Q QMatrix nullspace rank",
    "files": "FileFormatError load_algebra_ref load_bracket_table "
             "load_submodule load_two_form",
    "hochschild": "Chain HomologyPresentation boundary_b cohomology_h1 "
                  "connes_B homology interior_product lie_derivative",
    "morita": "MoritaContext MoritaReport OppositeReport cotr inc "
              "transport_dirac verify_morita verify_opposite",
    "omni": "DStructureReport OmniIso build_omni_iso d_structure_check "
            "pairing_table verify_ev1 verify_main_theorem weinstein_table",
}

_HOME = {name: mod for mod, names in EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        mod = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
