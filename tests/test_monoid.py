import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semidec.families
import semidec.monoid
from conftest import _ring
from oracles import (_element_profiles, greens_by_rows, greens_j_classes, is_regular, isomorphic, mul_entries,
                     table_monoid)
from semidec.errors import InvalidMonoid, NotCentral, NotIdempotent, SizeLimitExceeded
from semidec.families import (MatrixCarrier, TransformationCarrier, constants_monoid, family, identity_entries,
                              transformation_closure, u1)
from semidec.monoid import (
    Monoid,
    check_associativity,
    close_generators,
    depth_report,
    direct_product,
    dot_j_order,
    from_json,
    generating_set,
    greens,
    is_aperiodic,
    is_group,
    maximal_subgroup,
    quotient_by_central_units,
    to_json,
)
from semidec.semiring import make_prime_field


def matrix_mul(ring):
    return lambda a, b: mul_entries(ring, a, b)


def test_close_single_involution(z2):
    gen = ((1, 1), (0, 1))
    carrier = MatrixCarrier(z2, 2)
    m = close_generators([carrier.to_row(gen)], carrier, carrier.to_row(identity_entries(z2, 2)))
    assert len(m) == 2


def test_close_full_family(z2):
    t2 = family("T", 2, z2)
    carrier = MatrixCarrier(z2, 2)
    m = close_generators([carrier.to_row(v) for v in t2.elements], carrier, carrier.to_row(identity_entries(z2, 2)))
    assert len(m) == 8


def test_close_cyclic_translation(z3):
    shift = (1, 2, 0)  # v -> v + 1 on three points
    m = close_generators([shift], TransformationCarrier(3), (0, 1, 2))
    assert len(m) == 3
    assert is_group(m)


def test_close_deterministic_order(z2):
    gens = [((1, 1), (0, 1)), ((0, 0), (0, 1))]
    carrier = MatrixCarrier(z2, 2)
    rows, ident = [carrier.to_row(g) for g in gens], carrier.to_row(identity_entries(z2, 2))
    m1 = close_generators(rows, carrier, ident)
    m2 = close_generators(rows, carrier, ident)
    assert m1.elements == m2.elements


def test_close_limit():
    with pytest.raises(SizeLimitExceeded):
        transformation_closure([(1, 2, 3, 0)], limit=3)


def test_greens_t2z2_against_oracle(fam, z2):
    t2 = fam("T", 2, "2")
    rep = greens(t2)
    mul = matrix_mul(z2)
    oracle_classes = greens_j_classes(list(t2.elements), mul)
    assert rep.j_class_count() == len(oracle_classes) == 5
    regular_classes = {
        rep.j[t2.index[cls[0]]]
        for cls in oracle_classes
        if is_regular(cls[0], list(t2.elements), mul)
    }
    assert len(regular_classes) == 4
    for x in range(len(t2)):
        assert rep.regular[x] == is_regular(t2.elements[x], list(t2.elements), mul)


GREENS_CASES = [
    (kind, n, ring)
    for kind in ("T", "UT", "PT", "T*", "UT*")
    for ring in ("2", "3", "bool")
    for n in (1, 2, 3)
    if not (kind == "PT" and ring == "bool")  # projective families need a field
] + [("T", 4, "2")]


@pytest.mark.parametrize("kind,n,ring", GREENS_CASES, ids=[f"{k}_{n}({r})" for k, n, r in GREENS_CASES])
def test_greens_matches_row_mask_reference(fam, kind, n, ring):
    m = fam(kind, n, ring)
    assert greens(m) == greens_by_rows(m)


def test_greens_of_transformation_closure_matches_row_mask_reference():
    m = transformation_closure([(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)], label="T_4")
    rep = greens(m)
    assert len(m) == 256 and rep.j_class_count() == 4
    assert rep == greens_by_rows(m)


def test_greens_computed_once(fam):
    t2 = fam("T", 2, "3")
    assert greens(t2) is greens(t2)


def test_greens_group_single_class(fam):
    g = fam("AS*", 1, "3")
    rep = greens(g)
    assert rep.j_class_count() == 1
    assert all(rep.regular)


def test_greens_u1():
    rep = greens(u1())
    assert rep.j_class_count() == 2
    assert all(rep.regular)


def test_maximal_subgroup_unit_group(fam):
    t2 = fam("T", 2, "3")
    g = maximal_subgroup(t2, t2.identity)
    assert len(g) == 12
    assert is_group(g)


def test_maximal_subgroup_rank_one(fam, z3):
    t2 = fam("T", 2, "3")
    e = t2.index[((1, 0), (0, 0))]
    g = maximal_subgroup(t2, e)
    assert len(g) == 2
    t1s = fam("T*", 1, "3")
    assert isomorphic(g, t1s)


def test_maximal_subgroup_zero(fam):
    t2 = fam("T", 2, "3")
    zero = t2.index[((0, 0), (0, 0))]
    assert len(maximal_subgroup(t2, zero)) == 1


def test_maximal_subgroup_rejects_non_idempotent(fam):
    t2 = fam("T", 2, "3")
    x = t2.index[((2, 0), (0, 2))]
    with pytest.raises(NotIdempotent):
        maximal_subgroup(t2, x)


def test_aperiodic_and_group_flags(fam):
    assert is_aperiodic(u1()) and not is_group(u1())
    ut2s = fam("UT*", 2, "2")
    assert is_group(ut2s) and not is_aperiodic(ut2s)
    t2 = fam("T", 2, "2")
    assert not is_aperiodic(t2) and not is_group(t2)


def test_depth_t2z2(fam):
    rep = depth_report(fam("T", 2, "2"))
    assert rep.depth == 1
    assert rep.census == (1,)


def test_depth_t2z3(fam):
    rep = depth_report(fam("T", 2, "3"))
    assert rep.depth == 2
    assert rep.census == (1, 2)


def test_depth_group(fam):
    rep = depth_report(fam("AS*", 1, "3"))
    assert rep.depth == 1 and rep.census == (1,)


def test_depth_order_pairs_strict(fam):
    rep = depth_report(fam("T", 2, "2"))
    above = {(a, b) for a, b in rep.order_pairs}
    assert all((b, a) not in above for a, b in above)


def test_quotient_t1z3(fam, z3):
    t1 = fam("T", 1, "3")
    q, proj = quotient_by_central_units(t1, [t1.index[((1,),)], t1.index[((2,),)]])
    assert len(q) == 2
    assert isomorphic(q, u1())
    assert proj[t1.index[((0,),)]] != proj[t1.index[((1,),)]]


def test_quotient_t2z3_scalars(fam):
    t2 = fam("T", 2, "3")
    scalars = [t2.identity, t2.index[((2, 0), (0, 2))]]
    q, proj = quotient_by_central_units(t2, scalars)
    assert len(q) == 14  # thirteen scalar classes of nonzero matrices plus zero
    assert set(proj) == set(range(14))


def test_quotient_of_oracle_monoid_leaves_it_without_table(fam, z3, monkeypatch):
    t2 = fam("T", 2, "3")
    with monkeypatch.context() as patch:
        patch.setattr(semidec.monoid, "TABLE_BOUND", 0)
        oracle = Monoid(t2.elements, t2.identity_value, carrier=MatrixCarrier(z3, 2))
    scalars = [t2.identity, t2.index[((2, 0), (0, 2))]]
    q, proj = quotient_by_central_units(oracle, scalars)
    expected, expected_proj = quotient_by_central_units(t2, scalars)
    assert oracle._table is None
    assert q.elements == expected.elements and proj == expected_proj
    assert (q.table_array() == expected.table_array()).all()


def test_quotient_trivial_subgroup(fam):
    t2 = fam("T", 2, "3")
    q, proj = quotient_by_central_units(t2, [t2.identity])
    assert len(q) == len(t2)
    assert proj == list(range(len(t2)))


def test_quotient_rejects_non_central(fam):
    t2 = fam("T", 2, "3")
    z = [t2.identity, t2.index[((1, 0), (0, 2))]]
    with pytest.raises(NotCentral):
        quotient_by_central_units(t2, z)


def test_projective_quotient_table_matches_value_products(fam, z3):
    from oracles import matrix_product

    base, pt3 = fam("T", 3, "3"), fam("PT", 3, "3")
    assert len(pt3) == 365
    table = pt3.table_array()
    for i, a in enumerate(pt3.elements):
        for j, b in enumerate(pt3.elements):
            # any member of an orbit represents it; the quotient slices from the first
            value = matrix_product(z3, base.elements[a[-1]], base.elements[b[-1]])
            assert base.index[value] in pt3.elements[table[i, j]]


def test_h_class_tables_match_value_products(fam, z3):
    from oracles import matrix_product

    t3 = fam("T", 3, "3")
    for e in greens(t3).idempotents:
        h = maximal_subgroup(t3, e)
        table = h.table_array()
        for i, x in enumerate(h.elements):
            for j, y in enumerate(h.elements):
                assert h.elements[table[i, j]] == matrix_product(z3, x, y)


def test_h_class_table_outside_the_class_raises(fam):
    from dataclasses import replace

    from semidec.errors import NotClosed

    t2 = fam("T", 2, "3")
    m = Monoid(t2.elements, t2.identity_value, table=t2.table_array())
    nilpotent = m.index[((0, 1), (0, 0))]
    rep = greens(m)
    # a tampered H-partition that puts a nilpotent into the group of units
    m._greens = replace(rep, h=tuple(rep.h[m.identity] if x == nilpotent else h for x, h in enumerate(rep.h)))
    with pytest.raises(NotClosed) as err:
        maximal_subgroup(m, m.identity)
    members = [x for x, h in enumerate(m._greens.h) if h == m._greens.h[m.identity]]
    a, b = err.value.pair
    assert m.mul(members[a], members[b]) not in members


def _derived(case) -> list:
    """``(build, table)`` for each derived monoid of ``case``: ``build()``
    makes it from factors or a base built here, and ``table`` is its table
    read off theirs by the oracle."""
    from conftest import cached_family
    from oracles import class_table, product_table, projection_table
    from semidec.families import _scalar_unit_indices

    kind, *spec = case
    if kind == "product":
        a, b = (u1() if f == "U1" else cached_family(*f) for f in spec)
        return [(lambda: direct_product(a, b), product_table(a, b))]
    base = cached_family(*spec)
    if kind == "h_class":
        h = greens(base).h
        classes = {e: [x for x in range(len(base)) if h[x] == h[e]] for e in greens(base).idempotents}
        return [(lambda e=e: maximal_subgroup(base, e), class_table(base, members)) for e, members in classes.items()]
    z = _scalar_unit_indices(base, _ring(spec[2]))
    return [(lambda: quotient_by_central_units(base, z)[0], projection_table(base, z))]


@pytest.mark.parametrize("case", [
    ("product", ("T", 2, "3"), ("T", 1, "3")),
    ("product", ("T", 3, "2"), "U1"),
    ("h_class", "T", 3, "2"),
    ("h_class", "UT", 3, "3"),
    ("quotient", "T", 3, "3"),  # PT_3(Z_3)
    ("quotient", "T*", 2, "5"),  # PT*_2(Z_5)
], ids=["T_2(Z_3) x T_1(Z_3)", "T_3(Z_2) x U_1", "H-classes of T_3(Z_2)", "H-classes of UT_3(Z_3)",
        "PT_3(Z_3)", "PT*_2(Z_5)"])
def test_derived_tables_through_the_carrier_match_the_oracle(case, monkeypatch):
    # products, H-classes and central quotients give a carrier and
    # generators, and the constructor builds the table along a closure; it
    # equals the table read off the factors' or base's table, and the
    # generators they record do not depend on whether there is a table
    for build, expected in _derived(case):
        m = build()
        assert m._table is not None and m.table_array().tolist() == expected.tolist(), m.label
        with monkeypatch.context() as patch:
            patch.setattr(semidec.monoid, "TABLE_BOUND", 0)
            untabled = build()
        assert untabled._table is None and untabled.elements == m.elements, m.label
        assert untabled.generators == m.generators, m.label


def test_derived_tables_cost_a_closure_not_every_pair(fam, z3, monkeypatch):
    # T_3(Z_3) (729 elements) past a bound of 400 has no table; its
    # projective quotient (365 orbits) and its group of units (216 elements)
    # get one, traced along a closure of base products, not one per pair
    # (365**2 = 133,225 and 216**2 = 46,656)
    from oracles import class_table, projection_table
    from semidec.families import _scalar_unit_indices

    tabled = fam("T", 3, "3")
    scalars = _scalar_unit_indices(tabled, z3)
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 400)
    t3 = Monoid(tabled.elements, tabled.identity_value, carrier=MatrixCarrier(z3, 3), generators=tabled.generators)
    assert t3._table is None
    greens(t3)
    cells = []

    def counted(self, x, y, original=MatrixCarrier.mul_rows):
        cells.append(len(x) * len(y))
        return original(self, x, y)

    monkeypatch.setattr(MatrixCarrier, "mul_rows", counted)
    q, _ = quotient_by_central_units(t3, scalars)
    assert len(q) == 365 and q._table is not None and sum(cells) < 20_000
    assert q.table_array().tolist() == projection_table(tabled, scalars).tolist()
    cells.clear()
    units = maximal_subgroup(t3, t3.identity)
    assert len(units) == 216 and units._table is not None and sum(cells) < 20_000
    members = [tabled.index[v] for v in units.elements]
    assert units.table_array().tolist() == class_table(tabled, members).tolist()


def test_direct_product_counts():
    p = direct_product(u1(), u1())
    assert len(p) == 4
    rep = greens(p)
    assert len(rep.idempotents) == 4


def test_isomorphic_symmetric_group(fam):
    s3 = transformation_closure([(1, 0, 2), (1, 2, 0)], label="S_3")
    assert len(s3) == 6
    assert isomorphic(fam("AS*", 1, "3"), s3)


def test_isomorphic_distinguishes(fam):
    c2 = transformation_closure([(1, 0)], label="C_2")
    assert not isomorphic(c2, u1())
    assert not isomorphic(fam("T", 2, "2"), direct_product(direct_product(u1(), u1()), u1()))


# unit products of the quaternion group: _UNITS[a][b] = (sign, unit) of a b, units 1, i, j, k
_UNITS = [[(0, 0), (0, 1), (0, 2), (0, 3)], [(0, 1), (1, 0), (0, 3), (1, 2)],
          [(0, 2), (1, 3), (1, 0), (0, 1)], [(0, 3), (0, 2), (1, 1), (1, 0)]]


def _q8_times_z2(x, y):
    ((s, a), z), ((t, b), w) = x, y
    sign, unit = _UNITS[a][b]
    return (((s + t + sign) % 2, unit), (z + w) % 2)


def test_isomorphic_refuses_matching_profiles():
    # both have one element of order 1, three of order 2 and twelve of order
    # 4, so every element profile matches; only Z_4 x Z_4 is commutative
    def z4_squared(x, y):
        return ((x[0] + y[0]) % 4, (x[1] + y[1]) % 4)

    z4z4_values = list(product(range(4), repeat=2))
    q8z2_values = [((s, u), z) for s in range(2) for u in range(4) for z in range(2)]
    z4z4 = table_monoid(z4z4_values, (0, 0), z4_squared, label="Z_4 x Z_4")
    q8z2 = table_monoid(q8z2_values, ((0, 0), 0), _q8_times_z2, label="Q_8 x Z_2")
    assert sorted(_element_profiles(z4z4.table_array(), z4z4.table_array().tolist())) == \
        sorted(_element_profiles(q8z2.table_array(), q8z2.table_array().tolist()))
    assert not isomorphic(z4z4, q8z2)
    assert not isomorphic(q8z2, z4z4)
    # each is isomorphic to itself with its elements listed in reverse
    assert isomorphic(q8z2, table_monoid(q8z2_values[::-1], ((0, 0), 0), _q8_times_z2))
    assert isomorphic(z4z4, table_monoid(z4z4_values[::-1], (0, 0), z4_squared))


def test_direct_product_refuses_past_its_limit(fam):
    t2 = fam("T", 2, "2")
    assert len(direct_product(t2, t2, limit=64)) == 64
    with pytest.raises(SizeLimitExceeded):
        direct_product(t2, t2, limit=63)


def test_explicit_isomorphism_check(fam):
    # the library checks a given index map; the search above finds one
    g = fam("T*", 2, "3")
    everything = np.arange(len(g))
    opposite = Monoid(g.elements, g.identity_value, table=g.table_array().T)
    assert semidec.monoid.isomorphic(g, g, everything)
    assert not semidec.monoid.isomorphic(g, g, np.full(len(g), g.identity))
    assert not semidec.monoid.isomorphic(g, opposite, everything)
    assert isomorphic(g, opposite)


def test_isomorphic_limit(fam):
    with pytest.raises(SizeLimitExceeded):
        isomorphic(fam("T", 2, "3"), fam("T", 2, "3"), limit=8)


def test_associativity_checks(fam):
    check_associativity(fam("T", 2, "3"))
    check_associativity(fam("T", 3, "2"))


def _corrupted(m, i, j):
    table = m.table_array().copy()
    table[i, j] = (table[i, j] + 1) % len(m)
    return table


def test_associativity_failures_are_typed(fam):
    t2 = fam("T", 2, "2")
    x, y = [v for v in range(len(t2)) if v != t2.identity][:2]
    m = Monoid(t2.elements, t2.identity_value, table=t2.table_array())
    m._table = _corrupted(t2, x, y)
    with pytest.raises(InvalidMonoid, match="not associative"):
        check_associativity(m)


def test_identity_failure_is_typed(fam):
    t2 = fam("T", 2, "2")
    with pytest.raises(InvalidMonoid, match="identity"):
        Monoid(t2.elements, t2.identity_value, table=_corrupted(t2, t2.identity, 0))


def test_json_round_trip(fam):
    t2 = fam("T", 2, "3")
    blob = json.dumps(to_json(t2), sort_keys=True)
    back = from_json(json.loads(blob))
    assert back.elements == t2.elements
    assert back.identity == t2.identity
    assert (back.table_array() == t2.table_array()).all()


def test_dot_export(fam):
    dot = dot_j_order(depth_report(fam("T", 2, "3")).to_json())
    assert dot.startswith("digraph")
    assert "peripheries=2" in dot  # essential classes highlighted


def test_oracle_pair_closure_matches_library(fam, z2):
    # same BFS closure semantics, dict-based oracle
    from oracles import pair_closure

    t2 = fam("T", 2, "2")
    mul = matrix_mul(z2)
    pairs = [(v, i) for i, v in enumerate(t2.elements)]
    closure = pair_closure([(t, s) for t, s in pairs], mul, lambda a, b: t2.mul(a, b))
    assert closure is not None and len(closure) == 8


class CountedMatrices(MatrixCarrier):
    """A ``MatrixCarrier`` that records the shape of every block it multiplies."""

    def __init__(self, ring, n):
        super().__init__(ring, n)
        self.blocks = []

    def mul_rows(self, x, y):
        self.blocks.append((len(x), len(y)))
        return super().mul_rows(x, y)


def test_oracle_mode_without_table(z2, monkeypatch):
    # past the bound only construction multiplies through the carrier: the
    # closure (N g cells) and the spot check's sample; mul, products,
    # table_array and greens trace along the right Cayley graph
    gen = ((1, 1), (0, 1))
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 1)
    carrier = CountedMatrices(z2, 2)
    m = close_generators([carrier.to_row(gen)], carrier, carrier.to_row(identity_entries(z2, 2)))
    assert m._table is None and len(m) == 2
    assert sum(rows * cols for rows, cols in carrier.blocks) == len(m) * 1 + semidec.monoid._SPOT_SIDE ** 2
    carrier.blocks.clear()
    assert m.mul(0, 0) == m.index[identity_entries(z2, 2)]
    assert m.products(range(2), range(2)).tolist() == m.table_array().tolist() == [[1, 0], [0, 1]]
    assert greens(m).idempotents == (1,)
    assert carrier.blocks == [] and m._table is None


def test_group_and_aperiodic_read_the_greens_report(fam):
    from oracles import is_aperiodic_by_powers, is_group_by_inverses

    monoids = [fam(kind, n, spec) for kind, n, spec in
               [("T", 2, "2"), ("T", 2, "3"), ("UT", 3, "2"), ("T*", 2, "3"), ("UT*", 3, "2"), ("PT", 2, "3"),
                ("PT*", 2, "3"), ("AS", 1, "3"), ("AS*", 2, "2"), ("AT*", 1, "3"), ("Xtilde", 2, "2")]]
    monoids += [u1(), constants_monoid(1), constants_monoid(3), direct_product(fam("T*", 1, "3"), u1()),
                direct_product(fam("AS*", 1, "2"), fam("T*", 1, "3"))]
    for m in monoids:
        assert is_group(m) == is_group_by_inverses(m), m.label
        assert is_aperiodic(m) == is_aperiodic_by_powers(m), m.label
    assert any(is_group(m) for m in monoids) and any(is_aperiodic(m) for m in monoids)
    assert not all(is_group(m) or is_aperiodic(m) for m in monoids)


def test_group_and_aperiodic_past_the_bound_build_no_table(fam, z3, monkeypatch):
    # the Green's report reads the Cayley graphs through the carrier, so a
    # monoid past the bound is answered without ever being tabled
    t2 = fam("T*", 2, "3")
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 0)
    m = Monoid(t2.elements, t2.identity_value, carrier=MatrixCarrier(z3, 2))
    assert m._table is None
    assert is_group(m) and not is_aperiodic(m)
    assert m._table is None


_TRANSFORMATIONS = st.integers(1, 4).flatmap(
    lambda points: st.lists(st.lists(st.integers(0, points - 1), min_size=points, max_size=points).map(tuple),
                            min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(gens=_TRANSFORMATIONS)
def test_greens_from_cayley_graphs_match_the_table_reference(gens):
    # the Cayley-graph partitions, J-order and depths equal the table-based
    # ones, and the same elements rebuilt without a table give the same
    # reports unbuilt
    from unittest import mock

    from oracles import depth_by_rows

    m = transformation_closure(gens)
    rep = greens(m)
    assert rep == greens_by_rows(m)
    assert depth_report(m) == depth_by_rows(m)
    with mock.patch.object(semidec.monoid, "TABLE_BOUND", 0):
        untabled = Monoid(m.elements, m.identity_value, carrier=TransformationCarrier(len(gens[0])))
        assert greens(untabled) == rep
        assert depth_report(untabled) == depth_report(m)
    assert untabled._table is None


def _growing_cells(m, gens) -> int:
    """Product cells of ``generating_set``'s growing closure, after any ranking:
    adding generator k multiplies the closure so far by it, then each new
    element by all k."""
    from oracles import scan_closure

    sizes = [1]  # the closures of the generator prefixes, with the identity
    for k in range(1, len(gens) + 1):
        sizes.append(len(set(scan_closure(gens[:k], m.mul)[0]) | {m.identity}))
    assert sizes[-1] == len(m)
    return sum(sizes[k - 1] + (sizes[k] - sizes[k - 1]) * k for k in range(1, len(gens) + 1))


def test_untabled_greens_reads_graphs_not_a_table(fam, z2, monkeypatch):
    # past the bound the constructor closes the identity and the generators
    # through the carrier, N g cells plus the spot check's sample; greens,
    # its squares and multiplicative trace along the right Cayley graph and
    # make no carrier product
    from semidec.monoid import multiplicative

    t3 = fam("T", 3, "2")
    n = len(t3)
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 8)
    carrier = CountedMatrices(z2, 3)
    m = Monoid(t3.elements, t3.identity_value, carrier=carrier, generators=t3.generators)
    cells = sum(rows * cols for rows, cols in carrier.blocks)
    assert cells == n * len({m.identity, *m.generators}) + semidec.monoid._SPOT_SIDE ** 2
    carrier.blocks.clear()
    rep = greens(m)
    assert multiplicative(m, t3, range(n)) and multiplicative(t3, m, range(n))
    assert carrier.blocks == []
    assert m._table is None
    assert rep == greens(t3)


@pytest.mark.parametrize("kind,n,spec", [("T", 4, "2"), ("UT", 3, "3"), ("PT", 3, "3")])
def test_untabled_idempotents_match_a_square_scan_and_the_table(fam, monkeypatch, kind, n, spec):
    # without a table greens traces each square along the right Cayley
    # graph; with one it reads the diagonal
    tabled = fam(kind, n, spec)
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 0)
    monkeypatch.setattr(semidec.families, "_FAMILIES", {})
    m = semidec.families.family(kind, n, _ring(spec))
    assert m._table is None and m.elements == tabled.elements
    found = greens(m).idempotents
    assert found == tuple(x for x in range(len(m)) if m.mul(x, x) == x)
    assert found == greens(tabled).idempotents
    assert m._table is None


def test_a_recorded_list_that_does_not_generate_is_refused_past_the_bound(fam, z2, monkeypatch):
    # past the bound as within it the constructor closes the recorded list,
    # so a list that misses elements is refused, never completed
    from semidec.monoid import index_closure

    t3 = fam("T", 3, "2")
    x = next(x for x in range(len(t3)) if x != t3.identity)
    reach = len(index_closure(t3, [t3.identity, x], "test")[0])
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 8)
    with pytest.raises(InvalidMonoid, match=rf"copy: its generators reach {reach} of {len(t3)} elements"):
        Monoid(t3.elements, t3.identity_value, carrier=MatrixCarrier(z2, 3), generators=[x], label="copy")


def test_a_recorded_list_that_does_not_generate_is_refused_within_the_bound(fam, z2):
    # within the bound the table is traced along the recorded list's
    # closure, so a list that misses elements builds no partial table
    from semidec.monoid import index_closure

    t3 = fam("T", 3, "2")
    x = next(x for x in range(len(t3)) if x != t3.identity)
    reach = len(index_closure(t3, [t3.identity, x], "test")[0])
    assert reach < len(t3)
    with pytest.raises(InvalidMonoid, match=rf"copy: its generators reach {reach} of {len(t3)} elements"):
        Monoid(t3.elements, t3.identity_value, carrier=MatrixCarrier(z2, 3), generators=[x], label="copy")


def test_table_past_the_index_dtype_is_refused_before_any_product():
    # a table_array past 2**16 elements raises as a given table does, and
    # multiplies nothing first
    from oracles import CyclicCarrier

    size = int(np.iinfo(semidec.monoid.TABLE).max) + 2
    m = Monoid(range(size), 0, carrier=CyclicCarrier(size), label="Z_65537")
    m._carrier = None  # any product would fail
    with pytest.raises(SizeLimitExceeded, match="Z_65537 \\(65537 elements\\)"):
        m.table_array()


def test_generating_set_grows_one_closure(fam, monkeypatch):
    # the ranking reads len(m)**2 product cells; then adding generator k
    # multiplies the closure so far by it, then each new element by all k
    # generators: no closure is rebuilt from scratch
    from oracles import scan_closure

    for m in (fam("T", 3, "2"), fam("T", 2, "3"), fam("AS", 2, "2")):
        cells = []

        def counted(self, rows, cols, original=Monoid.products):
            cells.append(len(rows) * len(cols))
            return original(self, rows, cols)

        with monkeypatch.context() as patch:
            patch.setattr(Monoid, "products", counted)
            gens = generating_set(m)
        growing = _growing_cells(m, gens)
        assert sum(cells) == len(m) ** 2 + growing, m.label
        reclosing = sum(len(scan_closure(gens[:k], m.mul)[0]) * k for k in range(1, len(gens) + 1))
        assert growing < reclosing, m.label


def _orbit_product(ring, base, quotient):
    """The product of two orbits of ``base``, read from the matrix product of their first members."""
    from oracles import matrix_product

    orbit_of = {x: orbit for orbit in quotient.elements for x in orbit}
    return lambda a, b: orbit_of[base.index[matrix_product(ring, base.elements[a[0]], base.elements[b[0]])]]


def _image_of_times_to_wreath(fam):
    from oracles import wreath_decode, wreath_value_product
    from semidec.witness import times_to_wreath

    w = times_to_wreath(fam("T", 1, "3"), fam("T", 2, "2"))
    ctx = w.target

    def mul(x, y):
        tab, a = wreath_value_product(ctx, wreath_decode(ctx, x), wreath_decode(ctx, y))
        return tuple(ctx.top.index[v] for v in tab), ctx.base.index[a]

    return w.image_submonoid(), mul


def _reference_matrix_mul(ring):
    from oracles import matrix_product

    return lambda a, b: matrix_product(ring, a, b)


def _table_sources(fam):
    """For every way a table is made, a call that builds ``(monoid, reference product of its values)``."""
    from conftest import _ring
    from oracles import compose_tables, matrix_product
    from semidec.families import augmented_monoid

    z2, z3 = _ring("2"), _ring("3")
    t2 = fam("T", 2, "3")
    shuffle = transformation_closure([(1, 2, 0, 0), (0, 0, 1, 3)], label="shuffle")
    return {
        "family": lambda: (fam("T", 3, "3"), _reference_matrix_mul(z3)),
        "u1": lambda: (u1(), lambda a, b: a | b),
        "constants": lambda: (constants_monoid(3), lambda a, b: a if b[0] else b),
        "closure": lambda: (shuffle, compose_tables),
        "image": lambda: _image_of_times_to_wreath(fam),
        "product": lambda: (direct_product(fam("T", 2, "2"), u1()),
                            lambda x, y: (matrix_product(z2, x[0], y[0]), x[1] | y[1])),
        "quotient": lambda: (fam("PT", 2, "3"), _orbit_product(z3, t2, fam("PT", 2, "3"))),
        "subgroup": lambda: (maximal_subgroup(t2, t2.identity), _reference_matrix_mul(z3)),
        "carrier": lambda: (fam("AS", 1, "3"), compose_tables),
        "augmented": lambda: (augmented_monoid(shuffle), compose_tables),
        "from_json": lambda: (from_json(json.loads(json.dumps(to_json(t2)))), _reference_matrix_mul(z3)),
    }


@pytest.mark.parametrize("source", ["family", "u1", "constants", "closure", "image", "product", "quotient",
                                    "subgroup", "carrier", "augmented", "from_json"])
def test_every_table_source_builds_table_dtype(fam, source):
    # one index dtype for every table, whatever made it, with the products of the value-level reference
    from oracles import value_product_table

    m, mul = _table_sources(fam)[source]()
    assert m._table is not None and m.table_array().dtype == semidec.monoid.TABLE, m.label
    assert m.table_array().tolist() == value_product_table(m.elements, mul), m.label


def test_mul_rows_hands_on_row_dtype(fam, z3, monkeypatch):
    # tables are TABLE, but a closure keys rows by their bytes, so products of
    # index rows must come back in the generators' ROW dtype, tabled or not
    from oracles import scan_closure
    from semidec.monoid import ROW, index_closure

    t2 = fam("T", 2, "3")
    rows = np.arange(len(t2), dtype=ROW)[:, None]
    assert t2.mul_rows(rows, rows).dtype == ROW
    with monkeypatch.context() as patch:
        patch.setattr(semidec.monoid, "TABLE_BOUND", 0)
        untabled = Monoid(t2.elements, t2.identity_value, carrier=MatrixCarrier(z3, 2))
    assert untabled._table is None and untabled.mul_rows(rows, rows).dtype == ROW
    for m in (t2, fam("T", 3, "2"), fam("AS", 2, "2"), constants_monoid(4)):
        gens = generating_set(m)
        assert index_closure(m, gens, "closure")[0] == scan_closure(gens, m.mul)[0], m.label
        # the same monoid with its elements in reverse order, so the search must close generators
        flip = np.arange(len(m))[::-1]
        table = flip[m.table_array()[flip][:, flip]]
        copy = Monoid(m.elements[::-1], m.identity_value, table=table)
        assert isomorphic(m, copy, limit=len(m)), m.label


def test_table_past_the_index_dtype_is_refused_unread():
    # 65,537 elements need indices past uint16; the table is never converted
    class Unread:
        def __array__(self, *args, **kwargs):
            raise AssertionError("the table was read")

    size = int(np.iinfo(semidec.monoid.TABLE).max) + 2
    with pytest.raises(SizeLimitExceeded, match="65537 elements"):
        Monoid(list(range(size)), 0, table=Unread(), label="huge")
    with pytest.raises(SizeLimitExceeded, match="65537 elements"):
        constants_monoid(size - 1)


def test_to_json_writes_the_t2_z3_file_byte_for_byte(fam):
    # a TABLE table lists the same ints as the int32 one did
    import hashlib

    text = json.dumps(to_json(fam("T", 2, "3")), sort_keys=True, separators=(",", ":")) + "\n"
    assert len(text) == 2332
    assert hashlib.sha256(text.encode()).hexdigest() == "e845ed10769067fd75e39546c7f4cd729c79eb40460dbf2e892c99837da4117e"


# what a fuzzed field of a monoid file is set to: JSON of every type, ints
# at and past the table's range, and nested lists shaped like rows
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 30), st.integers(-2**70, 2**70),
                         st.floats(allow_nan=False), st.text(max_size=3))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=12)


def _mutate_monoid_file(data, payload: dict) -> None:
    """Change one field of ``payload``: a top-level value, one element, one
    table entry or row, or the table's shape."""
    table, elements = payload["table"], payload["elements"]
    where = data.draw(st.sampled_from(["field", "drop field", "element", "entry", "row", "drop row",
                                       "drop column", "append row", "transpose"]), label="where")

    def pick(seq, label):
        return data.draw(st.integers(0, len(seq) - 1), label=label)

    if where == "field":
        payload[data.draw(st.sampled_from(sorted(payload)), label="key")] = data.draw(_JSON, label="value")
    elif where == "drop field":
        del payload[data.draw(st.sampled_from(sorted(payload)), label="key")]
    elif where == "element":
        elements[pick(elements, "element")] = data.draw(_JSON, label="value")
    elif where == "entry":
        row = table[pick(table, "row")]
        row[pick(row, "column")] = data.draw(_JSON, label="value")
    elif where == "row":
        table[pick(table, "row")] = data.draw(_JSON, label="value")
    elif where == "drop row":
        del table[pick(table, "row")]
    elif where == "drop column":
        column = pick(table, "column")
        for row in table:
            del row[column]
    elif where == "append row":
        table.append(list(table[pick(table, "row")]))
    else:
        payload["table"] = [list(col) for col in zip(*table)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_monoid_file_is_read_or_refused(data):
    # a monoid file with one field changed is a monoid or InvalidMonoid, nothing else
    payload = json.loads(json.dumps(to_json(family("T", 2, make_prime_field(3)))))
    _mutate_monoid_file(data, payload)
    try:
        m = from_json(payload)
    except InvalidMonoid:
        return
    assert len(m.elements) == len(payload["elements"]) and m.table_array().shape == (len(m), len(m))


class _OffGenerators:
    """Z_7 under addition along the generators 0 and 1, but ``x * y = x + y
    + 1`` when ``x`` is not 0 and ``y`` is neither: not associative, yet its
    right Cayley graph over {0, 1} is that of Z_7, so only products through
    the carrier show it."""

    width = 1

    def to_row(self, value) -> tuple:
        return (value,)

    def from_row(self, row):
        return row[0]

    def mul_rows(self, x, y):
        a, b = x[:, None, 0], y[None, :, 0]
        return ((a + b + ((a != 0) & (b > 1))) % 7)[:, :, None].astype(x.dtype)


@pytest.mark.parametrize("lowered_bound", [semidec.monoid.TABLE_BOUND, 0], ids=["within", "past"], indirect=True)
def test_spot_check_multiplies_through_the_carrier(lowered_bound):
    # traced products are read off a graph of carrier products by the
    # generators, so the spot check samples other pairs through the carrier:
    # on either side of the bound a carrier that is not associative, an
    # identity that is not two-sided and a product outside the elements are
    # refused
    from oracles import CyclicCarrier
    from semidec.errors import NotClosed

    with pytest.raises(InvalidMonoid, match="the product of elements .* is not its carrier's"):
        Monoid(range(7), 0, carrier=_OffGenerators(), label="off")
    assert len(Monoid(range(7), 0, carrier=CyclicCarrier(7))) == 7
    with pytest.raises(InvalidMonoid, match="identity is not two-sided"):
        Monoid(range(7), 1, carrier=CyclicCarrier(7))
    f = (1, 2, 2)  # f f = (2, 2, 2)
    with pytest.raises(NotClosed, match=r"the product of elements 1 and 1 \(\(1, 2, 2\) \* \(1, 2, 2\)\)") as err:
        Monoid([(0, 1, 2), f], (0, 1, 2), carrier=TransformationCarrier(3))
    assert err.value.pair == (1, 1)
