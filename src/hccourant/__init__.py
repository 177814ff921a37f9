"""Exact-arithmetic Courant brackets on finite-dimensional algebras over Q.

The package computes Hochschild homology and cohomology in low degrees for a
unital associative algebra given by structure constants, assembles the space
E(A) = H^1(A,A) (+) H_1(A,A) with its Courant bracket and H_0-valued bilinear
form, passes to the nondegenerate quotient epsilon(A), and decides Dirac,
Poisson-graph, two-form-graph, Morita-transport, and omni-Lie questions with
no floating point anywhere.
"""

from .algebra import (AlgebraError, FiniteAlgebra, GuardError, build_v1,
                      ground_field, load_algebra, make_algebra,
                      matrix_algebra, opposite_algebra, save_algebra,
                      truncated_poly, upper_triangular2)
from .courant import CourantError, CourantSpace, EpsilonSpace, ESpace
from .dirac import (BracketTable, DiracError, DiracVerdict, Submodule,
                    TwoFormClass, biderivation_space, find_two_form_witness,
                    is_bracket_closed, is_dirac, is_isotropic,
                    is_maximally_isotropic, is_poisson, is_z_stable,
                    lie_algebroid_check, make_bracket_table, poisson_graph,
                    table_from_flat, two_form, two_form_graph)
from .exactlin import HccourantError, Q, QMatrix, nullspace, rank, rref
from .files import (FileFormatError, load_algebra_ref, load_bracket_table,
                    load_submodule, load_two_form)
from .hochschild import (Chain, HomologyPresentation, boundary_b,
                         cohomology_h1, connes_B, homology, interior_product,
                         lie_derivative, pairing, verify_descent)
from .morita import (MoritaContext, MoritaReport, OppositeReport, cotr, inc,
                     transport_dirac, verify_morita, verify_opposite)
from .omni import (DStructureReport, OmniIso, build_omni_iso,
                   d_structure_check, omni_pairing, verify_ev1,
                   verify_main_theorem, weinstein_bracket)

__version__ = "0.1.0"
