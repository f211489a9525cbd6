from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semidec.monoid
from oracles import multiplicative_by_table, relabelled
from propchecks import (
    aperiodic_by_h_classes,
    constants_monoids_not_aperiodic,
    elementary_row_orbits_match_l_classes,
    greens_refinement_and_regularity,
    greens_vs_multiplication_orbits,
    maximal_subgroups_not_groups,
    multiplicativity_two_ways,
    projection_not_homomorphic,
    projective_quotient_respects_structure,
    regularity_three_ways,
    small_monoids,
)
from semidec.monoid import Monoid, isomorphic, multiplicative, quotient_by_central_units

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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_multiplicative_along_generators_matches_the_table(data):
    # the check along Cayley graphs gives the whole-table verdict on a
    # relabelled copy, random bijections and maps, the opposite monoid under
    # the identity map and a map that moves only the identity; the same
    # monoid untabled, whose generators are found by index, answers the same
    m = data.draw(small_monoids())
    size, everything = len(m), np.arange(len(m))
    perm = np.array(data.draw(st.permutations(range(size))))
    copy = relabelled(m, perm)
    assert multiplicative(m, copy, perm) and isomorphic(m, copy, perm) and isomorphic(copy, m, np.argsort(perm))
    opposite = Monoid(m.elements, m.identity_value, table=m.table_array().T)
    cases = [
        (m, copy, perm),
        (m, copy, np.array(data.draw(st.permutations(range(size))))),
        (m, m, np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))),
        (m, opposite, everything),
    ]
    if size > 1:
        moved = everything.copy()
        moved[m.identity] = data.draw(st.sampled_from([x for x in range(size) if x != m.identity]))
        cases.append((m, m, moved))
    assert sum(multiplicativity_two_ways(*case) for case in cases) == 0
    with mock.patch.object(semidec.monoid, "TABLE_BOUND", 0):
        untabled = Monoid(m.elements, m.identity_value, carrier=m)
    for _, target, f in cases:
        assert multiplicative(untabled, target, f) == multiplicative_by_table(m, target, f)
    assert untabled._table is None
