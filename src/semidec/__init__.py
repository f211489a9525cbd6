"""Finite monoids of upper triangular matrices over finite semirings.

Builds the matrix and affine transformation families, analyses their
structure (Green's relations, regularity, J-order, depth, maximal
subgroups), and produces machine-checked division certificates for
explicit wreath-product decompositions.

The layers load on first use: ``import semidec`` loads no submodule, and
each name below loads its defining module when it is first read
(PEP 562).  The census half (``semiring``, ``monoid``, ``families`` and
``decomp.verify_census``) loads no wreath, carrier or witness code.
"""

from importlib import import_module

_MODULE_OF = {
    "SemiringTable": "semiring",
    "make_prime_field": "semiring",
    "make_boolean_semiring": "semiring",
    "make_from_tables": "semiring",
    "units": "semiring",
    "Monoid": "monoid",
    "close_generators": "monoid",
    "greens": "monoid",
    "depth_report": "monoid",
    "maximal_subgroup": "monoid",
    "is_aperiodic": "monoid",
    "is_group": "monoid",
    "direct_product": "monoid",
    "quotient_by_central_units": "monoid",
    "FamilySpec": "families",
    "build_family": "families",
    "constants_monoid": "families",
    "augmented_monoid": "families",
    "u1": "families",
    "DivisionWitness": "witness",
    "verify": "witness",
    "induction_step": "decomp",
    "ring_pipeline": "decomp",
    "field_pipeline": "decomp",
    "verify_census": "decomp",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
