"""Dirac propagator components from checkerboard path sums on a rational
spacetime lattice.

The package computes the four retarded-propagator components of the
1+1-dimensional Dirac equation three independent ways: exact path sums on
a quadratically spaced lattice (elementary symmetric polynomials, exact
integer coefficients), a uniform-lattice baseline, and the closed Bessel
forms they converge to. Exact-rational tooling for the underlying dense
rational spacetime and its boost subgroup rounds out the library, and a
finite-difference check confirms the closed forms solve the Dirac system.
"""

from .bessel import (SeriesResult, bessel_j0, bessel_j1, j0_j1_values,
                     j0_values, j1_values)
from .dirac import (DEFAULT_GRID_CAP, Region, ResidualReport, dirac_residual,
                    residual_rows)
from .errors import (CheckerboardError, DomainError, InvalidParameterError,
                     OutOfRangeError, ResourceLimitError)
from .paths import (DEFAULT_ENUMERATION_CAP, AmplitudePolynomial, Direction,
                    bend_records, count_paths, enumerate_paths,
                    path_amplitude, sector_sum_bruteforce)
from .propagator import (COMPONENT_ORDER, DEFAULT_LATTICE_CAP,
                         ConvergenceRow, LatticeSpec, LinearSpec,
                         PropagatorMatrix, SymmetricTable, closed_matrix,
                         convergence_sweep, elem_sym_table, exact_component,
                         exact_parts, linear_component, linear_converge,
                         linear_parts, pq_identity_check, proper_time,
                         split_counts)
from .spacetime import (DEFAULT_SPECTRUM_CAP, BoostMatrix, MembershipWitness,
                        SpacetimePoint, apply_boost, boost, compose,
                        format_rational, is_member, make_point,
                        matrix_product, parse_rational, rational_square_root,
                        spectrum_membership, velocity_spectrum)

__version__ = "0.1.0"

__all__ = [
    "AmplitudePolynomial", "BoostMatrix", "CheckerboardError",
    "COMPONENT_ORDER", "ConvergenceRow", "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_GRID_CAP", "DEFAULT_LATTICE_CAP", "DEFAULT_SPECTRUM_CAP",
    "Direction", "DomainError", "InvalidParameterError", "LatticeSpec",
    "LinearSpec", "MembershipWitness", "OutOfRangeError", "PropagatorMatrix",
    "Region", "ResidualReport", "ResourceLimitError", "SeriesResult",
    "SpacetimePoint", "SymmetricTable",
    "apply_boost", "bend_records", "bessel_j0", "bessel_j1",
    "boost", "closed_matrix", "compose", "convergence_sweep", "count_paths",
    "dirac_residual", "elem_sym_table", "enumerate_paths", "exact_component",
    "exact_parts", "format_rational", "is_member", "j0_j1_values",
    "j0_values", "j1_values", "linear_component", "linear_converge",
    "linear_parts", "make_point", "matrix_product",
    "parse_rational", "path_amplitude", "pq_identity_check", "proper_time",
    "rational_square_root", "residual_rows", "sector_sum_bruteforce",
    "spectrum_membership", "split_counts", "velocity_spectrum",
]
