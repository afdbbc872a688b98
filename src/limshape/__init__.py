"""Exact asymptotic invariants of graded families of monomial ideals.

The package computes, entirely in rational arithmetic: Hilbert functions and
regularity indices of monomial ideals, limiting shapes of graded families and
the invariants read off them (Waldschmidt constant, asymptotic regularity,
asymptotic Hilbert function), and the planar reduction-vector machinery with
its closed-form first-difference graphs.
"""

from .families import (
    ExactShape,
    FamilyRuleError,
    GradedFamily,
    GradednessReport,
    LimitEstimate,
    areg_estimate,
    family_from_json,
    family_to_json,
    make_ceiling_family,
    make_chain_family,
    make_doubling_family,
    make_halfplane_family,
    make_oscillating_family,
    make_power_family,
    ri_estimate,
    verify_graded,
    waldschmidt_estimate,
)
from .geometry import (
    AhfResult,
    ComplementRegion,
    ShapePolygon,
    ShapeResult,
    StaircaseRegion,
    UnsupportedDimensionError,
    ahf,
    areg,
    areg_from_shape,
    convex_hull,
    gamma_lattice_count,
    gamma_limit,
    gamma_region,
    lattice_count,
    limiting_shape,
    region_volume,
    shape_json,
    staircase_region,
    waldschmidt,
    waldschmidt_from_shape,
)
from .hilbert import (
    IntegerPolynomial,
    hilbert_function,
    hilbert_function_extended,
    hilbert_polynomial,
    regularity_index,
)
from .ideals import (
    MonomialIdeal,
    format_monomial,
)
from .planar import (
    LineConfiguration,
    PLGraph,
    ReductionVector,
    area_under_graph,
    dhf_envelope,
    dhf_vertices_closed_form,
    divisibility_modulus,
    gamma_vertices,
    reduction_vector,
    two_line_vertices,
    validate_configuration,
)
from .rationals import format_rational, parse_rational
from .work import WorkBudgetError

__version__ = "0.1.0"
