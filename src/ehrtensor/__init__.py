"""Exact lattice-point moment tensors of polytopes.

Discrete moment tensors, their dilation polynomials and h-tensor vectors,
Pick-type triangulation formulas for polygons, half-open simplices with
box-point generating functions, and exact positive-semidefiniteness
machinery -- everything in exact rational arithmetic.
"""

from .tensors import (HrVector, IntPoint, SymTensor, TensorPolynomial,
                      outer_power, sym_product)
from .polytopes import (DegenerateInputError, FacetIneq, Polytope, convex_hull,
                        interior_lattice_points, is_reflexive, lattice_points,
                        polytope_from_json, polytope_to_json,
                        random_lattice_polytope)
from .ehrhart import (discrete_moment, discrete_moment_interior,
                      ehrhart_tensor_polynomial, hr_vector_to_polynomial,
                      hr_vectors, moment_tensor, reciprocity_check,
                      second_coefficient_facets, to_hr_vector)
from .halfopen import (BoxSlices, HalfOpenSimplex, box_slices,
                       eulerian_polynomial, h1_halfopen_2d, h2_halfopen_2d,
                       half_open_decomposition, halfopen_from_json,
                       halfopen_to_json, hr_halfopen, moment_halfopen)
from .triangulation import (EdgeStats, Triangulation, edge_stats,
                            ehrhart_matrix_pick, ehrhart_vector_pick,
                            h1_pick, h2_pick, sparse_decomposition,
                            unimodular_triangulation)
from .positivity import (DefinitenessReport, NotPositiveSemidefiniteError,
                         ScanReport, SosCertificate, check_ehrhart_psd,
                         check_h2_psd, classify_definiteness, conjecture_scan,
                         palindromic, reflexivity_palindromicity_check,
                         sos_certificate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
