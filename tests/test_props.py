from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    OrbitCarrier,
    small_monoids,
    traced_products_off_the_carrier,
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


def _untabled_case(name: str):
    """``(monoid, carrier)``: a table-less monoid, built past the lowered
    bound, and a carrier that multiplies its element values."""
    from conftest import _ring, cached_family
    from semidec.carriers import ProductCarrier
    from semidec.decomp import induction_step
    from oracles import table_monoid
    from semidec.families import MatrixCarrier, TransformationCarrier
    from semidec.monoid import direct_product, greens, maximal_subgroup
    from semidec.wreath import WreathContext, enumerate_wreath

    z2, z3 = _ring("2"), _ring("3")
    if name in ("T_3(Z_3)", "UT_3(Z_3)"):
        return cached_family(name[:-7], 3, "3"), MatrixCarrier(z3, 3)
    if name == "AS_2(Z_3)":
        return cached_family("AS", 2, "3"), TransformationCarrier(9)
    if name == "PT_3(Z_3)":
        base = cached_family("T", 3, "3")
        scalars = [base.identity, base.index[((2, 0, 0), (0, 2, 0), (0, 0, 2))]]
        m, projection = quotient_by_central_units(base, scalars)
        return m, OrbitCarrier(base, MatrixCarrier(z3, 3), projection, m.elements)
    if name == "H-class of T_3(Z_2)":
        base = cached_family("T", 3, "2")
        e = max(greens(base).idempotents, key=lambda e: greens(base).h.count(greens(base).h[e]))
        return maximal_subgroup(base, e), MatrixCarrier(z2, 3)
    if name == "T_2(Z_2) x T_2(Z_3)":
        a, b = cached_family("T", 2, "2"), cached_family("T", 2, "3")
        return direct_product(a, b), ProductCarrier(a, b)
    if name == "Z_3 wr C_3":  # sides with given tables, which no bound removes
        ctx = WreathContext(table_monoid(range(3), 0, lambda a, b: (a + b) % 3, "Z_3"),
                            table_monoid(range(3), 0, max, "C_3"))
        return enumerate_wreath(ctx), ctx
    w = induction_step(3, z2)
    return w.image_submonoid(), w.target


UNTABLED = ["T_3(Z_3)", "UT_3(Z_3)", "AS_2(Z_3)", "PT_3(Z_3)", "H-class of T_3(Z_2)", "T_2(Z_2) x T_2(Z_3)",
            "Z_3 wr C_3", "induction image"]


@pytest.mark.parametrize("lowered_bound", [0], indirect=True)
@pytest.mark.parametrize("name", UNTABLED)
def test_traced_products_match_the_carrier(lowered_bound, name):
    # past the bound every monoid multiplies along its right Cayley graph;
    # sampled blocks of those traced products equal the carrier's products
    m, carrier = _untabled_case(name)
    assert m._table is None and len(m) > 1, m.label

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def check(data):
        indices = st.lists(st.integers(0, len(m) - 1), min_size=1, max_size=8)
        assert traced_products_off_the_carrier(m, carrier, data.draw(indices), data.draw(indices)) == 0

    check()
