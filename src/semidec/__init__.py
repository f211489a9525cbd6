"""Finite monoids of upper triangular matrices over finite semirings.

Builds the matrix and affine transformation families, analyses their
structure (Green's relations, regularity, J-order, depth, maximal
subgroups), and produces machine-checked division certificates for
explicit wreath-product decompositions.
"""

from semidec.semiring import (
    SemiringTable,
    make_prime_field,
    make_boolean_semiring,
    make_from_tables,
    units,
)
from semidec.monoid import (
    Monoid,
    close_generators,
    greens,
    depth_report,
    maximal_subgroup,
    is_aperiodic,
    is_group,
    direct_product,
    quotient_by_central_units,
)
from semidec.families import FamilySpec, build_family, constants_monoid, augmented_monoid, u1
from semidec.witness import DivisionWitness, verify
from semidec.decomp import induction_step, ring_pipeline, field_pipeline, depth_analysis, verify_census

__all__ = [
    "SemiringTable",
    "make_prime_field",
    "make_boolean_semiring",
    "make_from_tables",
    "units",
    "Monoid",
    "close_generators",
    "greens",
    "depth_report",
    "maximal_subgroup",
    "is_aperiodic",
    "is_group",
    "direct_product",
    "quotient_by_central_units",
    "FamilySpec",
    "build_family",
    "constants_monoid",
    "augmented_monoid",
    "u1",
    "DivisionWitness",
    "verify",
    "induction_step",
    "ring_pipeline",
    "field_pipeline",
    "depth_analysis",
    "verify_census",
]
