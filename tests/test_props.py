import pytest

from propchecks import (
    aperiodic_by_h_classes,
    constants_monoids_not_aperiodic,
    elementary_row_orbits_match_l_classes,
    greens_refinement_and_regularity,
    greens_vs_multiplication_orbits,
    maximal_subgroups_not_groups,
    projection_not_homomorphic,
    projective_quotient_respects_structure,
    regularity_three_ways,
)
from semidec.monoid import quotient_by_central_units

FAMILIES = [("T", 2, "2"), ("T", 2, "3"), ("UT", 3, "2")]


@pytest.mark.parametrize("kind,n,spec", FAMILIES)
def test_greens_match_orbits(fam, kind, n, spec):
    assert greens_vs_multiplication_orbits(fam(kind, n, spec)) == 0


@pytest.mark.parametrize("spec", ["2", "3"])
def test_elementary_row_operations_generate_l(fam, spec, request):
    ring = request.getfixturevalue({"2": "z2", "3": "z3"}[spec])
    assert elementary_row_orbits_match_l_classes(fam("T", 2, spec), ring) == 0


@pytest.mark.parametrize("kind,n,spec", FAMILIES)
def test_regularity_three_ways(fam, kind, n, spec, request):
    ring = request.getfixturevalue({"2": "z2", "3": "z3"}[spec])
    assert regularity_three_ways(fam(kind, n, spec), ring) == 0


def test_projective_quotient(fam):
    t2 = fam("T", 2, "3")
    scalars = [t2.identity, t2.index[((2, 0), (0, 2))]]
    assert projective_quotient_respects_structure(t2, scalars) == 0


@pytest.mark.parametrize("kind,n,spec", FAMILIES)
def test_greens_refinement_and_regularity(fam, kind, n, spec):
    assert greens_refinement_and_regularity(fam(kind, n, spec)) == 0


@pytest.mark.parametrize("kind,n,spec", FAMILIES + [("Xtilde", 2, "2"), ("AS", 2, "2")])
def test_aperiodic_by_h_classes(fam, kind, n, spec):
    assert aperiodic_by_h_classes(fam(kind, n, spec)) == 0


@pytest.mark.parametrize("kind,n,spec", FAMILIES)
def test_maximal_subgroups_are_groups(fam, kind, n, spec):
    assert maximal_subgroups_not_groups(fam(kind, n, spec)) == 0


def test_projective_quotient_is_homomorphic(fam):
    # the projection of T_2(Z_3) onto PT_2(Z_3)
    t2 = fam("T", 2, "3")
    scalars = [t2.identity, t2.index[((2, 0), (0, 2))]]
    assert quotient_by_central_units(t2, scalars)[0].elements == fam("PT", 2, "3").elements
    assert projection_not_homomorphic(t2, scalars) == 0


def test_constants_monoids_are_aperiodic():
    assert constants_monoids_not_aperiodic(range(1, 10)) == 0
