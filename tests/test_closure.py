"""The closure kernel and the verifier built on it.

Checks the kernel's discovery order, edges and Cayley graph, that it
makes one ``mul_rows`` call per frontier block and that the block size
changes nothing, the verifier's verdicts and first clashes against the
brute-force pair closure, the certificates
of the field pipeline against the brute-force target closure, that a
closed image rebuilt from its descriptor keeps the verifier's element
order, that every table derived from a Cayley graph or from other
tables equals the per-pair value products, that generating sets are small
and generate, and that the pipelines' mapped steps also verify when they
pair every source element.
"""

import json
from bisect import bisect_right

import numpy as np
import pytest
import semidec.carriers
import semidec.families
import semidec.monoid
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _ring, cached_family, cached_field_plan, cached_ring_plan
from oracles import (closure_pairs, compose_tables, every_element_pairing, greedy_generating_set, isomorphic,
                     pair_closure, pair_closure_conflict, pair_rows, pair_values, preimage_table, relabelled,
                     scan_closure, table_monoid, target_closure, value_product_table, wreath_decode,
                     wreath_value_product)
from semidec.carriers import Descriptors, ProductCarrier, rebuild
from semidec.decomp import _traced_left, field_pipeline, induction_step, ring_pipeline
from semidec.errors import InvalidMonoid, NotFunctional, NotSurjective, SizeLimitExceeded, WitnessError
from semidec.families import TransformationCarrier, transformation_closure, u1
from semidec.monoid import Monoid, close_generators, close_rows, direct_product, generating_set, index_closure
from semidec.witness import (DivisionWitness, augmentation, document_from_json, document_to_json, group_with_zero,
                             identity_witness, verify, witness_from_json)
from semidec.wreath import WreathContext, enumerate_wreath


def c2():
    return transformation_closure([(1, 0)], label="C_2")


def c3():
    return transformation_closure([(1, 2, 0)], label="C_3")


SMALL = {
    "T_2(Z_2)": lambda: cached_family("T", 2, "2"),
    "U_1 x C_2": lambda: direct_product(u1(), c2()),
    "AS*_1(Z_3)": lambda: cached_family("AS*", 1, "3"),
    "T_1(Z_3)": lambda: cached_family("T", 1, "3"),
    "U_1": u1,
    "C_2": c2,
}


def z7_times():
    """The integers mod 7 under multiplication, as a closure carrier."""
    return table_monoid(range(7), 1, lambda a, b: a * b % 7, label="Z_7")


def test_close_generators_order_and_edges(monkeypatch):
    def mul(a, b):
        return a * b % 7

    kernel, closures = semidec.monoid.close_rows, []

    def recorded(*args, **kwargs):  # the kernel's rows, edges and graph, as close_generators gets them
        closures.append(kernel(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(semidec.monoid, "close_rows", recorded)
    z7 = z7_times()
    m = close_generators([z7.to_row(v) for v in [3, 3, 2]], z7, z7.to_row(1), limit=10, label="units mod 7")
    (rows, edges, right), = closures
    # generators first, then each element times each generator
    assert m.elements == [3, 2, 6, 4, 5, 1] and rows[:, 0].tolist() == m.elements
    assert m.identity == 5 and m.provenance["generators"] == [[3], [3], [2]]
    assert m.generators == [0, 1]  # the distinct generators' closure positions
    assert edges[:2] == [None, None]
    for i, edge in enumerate(edges[2:], start=2):
        parent, g = edge
        assert parent < i
        assert m.elements[i] == mul(m.elements[parent], [3, 2][g])
    assert right.dtype == np.int32 and right.shape == (len(m), 2)
    for i in range(len(m)):
        for j, g in enumerate([3, 2]):
            assert right[i, j] == m.index[mul(m.elements[i], g)]
    # the generators are elements 0 and 1, so their table columns are the graph
    assert m.table_array()[:, :2].tolist() == right.tolist()


def test_close_generators_limit():
    z7 = z7_times()
    with pytest.raises(SizeLimitExceeded):
        close_generators([z7.to_row(3)], z7, z7.to_row(1), limit=5, label="units mod 7")


def test_right_closure_key_clash():
    def mul(a, b):
        return (a[0] * b[0] % 3, a[1] * b[1] % 4)

    def mul_rows(x, y):  # ``mul`` on blocks of rows
        return x[:, None, :] * y[None, :, :] % np.array([3, 4], dtype=np.int32)

    def rows(values):
        return np.array(values, dtype=np.int32)

    # keyed on the first column: the two generators share key 2
    with pytest.raises(NotFunctional) as clash:
        close_rows(rows([(2, 1), (2, 3)]), mul_rows, 100, "clash", key_width=1)
    assert clash.value.target == 0 and clash.value.sources == ([2, 1], [2, 3])
    closed, _, right = close_rows(rows([(2, 3)]), mul_rows, 100, "no clash", key_width=1)
    elements = [tuple(r) for r in closed.tolist()]
    assert elements == [(2, 3), (1, 1)]
    # the graph holds the index stored under the key of each product
    lookup = {v[0]: i for i, v in enumerate(elements)}
    assert right.tolist() == [[lookup[mul(x, (2, 3))[0]]] for x in elements] == [[1], [0]]


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_target_closures_match_oracle(field_plan, n):
    # the first-coordinate projection of every verified closure is the
    # multiplicative closure of the target generators
    plan = field_plan(n, "2")
    for w in plan.witnesses + [plan.composite]:
        closed = {t for t, _ in closure_pairs(w)}
        assert closed == target_closure([t for t, _ in pair_values(w)], w.target.mul_value), w.label


def _wreath_parts(carrier, value):
    """``(context, component)`` for each wreath context inside a carrier."""
    if isinstance(carrier, WreathContext):
        return [(carrier, value)]
    if isinstance(carrier, ProductCarrier):
        return _wreath_parts(carrier.left, value[0]) + _wreath_parts(carrier.right, value[1])
    return []


@pytest.mark.parametrize("plan", [("field", 2, "2"), ("field", 3, "2"), ("ring", 2, "3")],
                         ids=["field 2 Z_2", "field 3 Z_2", "ring 2 Z_3"])
def test_wreath_products_match_decoding_reference(plan):
    # every product a verified closure evaluated in a wreath context, element
    # times generator, decodes to the product of the decoded values
    kind, n, ring = plan
    plan = (cached_field_plan if kind == "field" else cached_ring_plan)(n, ring)
    checked = 0
    for w in plan.witnesses + [plan.composite]:
        for t, _ in closure_pairs(w):
            for g, _ in pair_values(w):
                for (ctx, x), (_, y) in zip(_wreath_parts(w.target, t), _wreath_parts(w.target, g)):
                    expected = wreath_value_product(ctx, wreath_decode(ctx, x), wreath_decode(ctx, y))
                    assert wreath_decode(ctx, ctx.mul_value(x, y)) == expected, w.label
                    checked += 1
    assert checked > 0


def test_bundle_builds_each_descriptor_once(monkeypatch, field_plan):
    # parsing a document rebuilds each table entry it references once, and
    # the table holds each descriptor once; parsing it again rebuilds none
    plan = field_plan(3, "2")
    table, bundle = document_from_json(json.loads(json.dumps(document_to_json(plan.witnesses, plan.composite))))
    built = []
    for name in ("build_monoid", "build_carrier"):
        def counted(table, i, build=getattr(semidec.carriers, name)):
            built.append(json.dumps(table.view(i), sort_keys=True))
            return build(table, i)

        monkeypatch.setattr(semidec.carriers, name, counted)
    first = [witness_from_json(obj, table) for obj in bundle]
    assert len(built) == len(set(built)) > 0
    count = len(built)
    assert count <= len(table.entries)
    second = [witness_from_json(obj, table) for obj in bundle]
    assert len(built) == count
    assert all(a.source is b.source for a, b in zip(first, second))


def test_build_monoid_keys_on_the_table_bound(monkeypatch):
    # a table rebuilds an entry once, under the bound at its first use
    desc = cached_family("T", 2, "2").descriptor()
    table = Descriptors()
    ref = table.intern({"kind": "product", "left": desc, "right": desc})
    tabled = table.monoid(ref)
    with monkeypatch.context() as patch:
        patch.setattr(semidec.monoid, "TABLE_BOUND", 16)
        untabled = rebuild({"kind": "product", "left": desc, "right": desc})
    assert untabled is not tabled and untabled._table is None and tabled._table is not None
    assert table.monoid(ref) is tabled
    # past the bound the product multiplies through the product carrier of its factors
    assert untabled.table_array().tolist() == tabled.table_array().tolist()


def test_image_submonoid_rebuilds_in_discovery_order(field_plan):
    # a fresh process rebuilds each traced image from its "close" descriptor;
    # certificates over it re-verify only if the element order is the same
    plan = field_plan(3, "2")
    checked = 0
    for w in plan.witnesses:
        try:
            sub = w.image_submonoid()
        except WitnessError:
            continue
        assert rebuild(sub.descriptor()).elements == sub.elements, w.label
        checked += 1
    assert checked > 0


def _carrier_of(m: Monoid):
    """The carrier whose value products define a derived monoid, rebuilt from its descriptor."""
    desc = m.descriptor()
    if desc["kind"] == "product":
        return ProductCarrier(rebuild(desc["left"]), rebuild(desc["right"]))
    table = Descriptors()
    return table.carrier(table.intern(desc["carrier"]))


def _monoids_of(carrier):
    """Every Monoid inside a witness carrier, the carrier first."""
    if isinstance(carrier, Monoid):
        return [carrier]
    left, right = (carrier.top, carrier.base) if isinstance(carrier, WreathContext) else (carrier.left, carrier.right)
    return _monoids_of(left) + _monoids_of(right)


@pytest.mark.parametrize("n", [2, 3])
def test_derived_tables_match_value_products(field_plan, n):
    # images, their "close" rebuilds, traced-left sources and direct
    # products all take their tables from tables; each must equal the
    # table the per-pair value products give
    plan = field_plan(n, "2")
    derived = {}
    for w in plan.witnesses + [plan.composite]:
        try:
            image = w.image_submonoid()
        except WitnessError:
            continue
        derived[id(image)] = image
        rebuilt = rebuild(image.descriptor())
        derived[id(rebuilt)] = rebuilt
        for m in _monoids_of(w.source) + _monoids_of(w.target):
            kind = m.descriptor()["kind"]
            if kind == "product" or (kind == "close" and m.label.startswith("traced ")):
                derived[id(m)] = m
    labels = [m.label for m in derived.values()]
    assert sum(label.startswith("traced ") for label in labels) == n - 1, labels
    assert any(m.descriptor()["kind"] == "product" for m in derived.values())
    for m in derived.values():
        expected = value_product_table(m.elements, _carrier_of(m).mul_value)
        assert m.table_array().tolist() == expected, m.label


def _count_products(monkeypatch, obj):
    calls = []
    original = obj.mul_value

    def counted(x, y):
        calls.append(1)
        return original(x, y)

    monkeypatch.setattr(obj, "mul_value", counted)
    return calls


def test_image_submonoid_evaluates_no_target_products(monkeypatch, z2):
    witnesses = [
        induction_step(3, z2),
        augmentation(cached_family("AS*", 2, "2")),
        group_with_zero(z2),
        identity_witness(cached_family("T", 2, "3")),
    ]
    for w in witnesses:
        calls = _count_products(monkeypatch, w.target)
        image = w.image_submonoid()
        assert calls == [], w.label
        assert image.elements == [t for t, _ in closure_pairs(w)]
        assert image.identity_value == w.target.identity_value
        assert w._graph is None


def test_derived_monoids_past_the_table_bound_use_the_oracle(monkeypatch, z2):
    # past TABLE_BOUND an image and a traced-left monoid keep no table; their
    # oracle products are the tables derived below the bound
    w = induction_step(3, z2)
    top, base = cached_family("AS", 2, "2"), cached_family("T", 2, "2")
    mid = w.image_submonoid()
    tabled = [mid, _traced_left(mid, top, base, "traced left")]
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 0)
    verify(w)
    mid = w.image_submonoid()
    oracle = [mid, _traced_left(mid, top, base, "traced left")]
    for m, expected in zip(oracle, tabled):
        assert m._table is None, m.label
        assert m.elements == expected.elements and m.identity == expected.identity
        size = range(len(m))
        assert [[m.mul(i, j) for j in size] for i in size] == expected.table_array().tolist(), m.label


def test_image_submonoid_records_its_generator_positions(monkeypatch, z2):
    # closure positions 0..g-1 are the distinct pair targets, which generate
    # the image; past the bound its generating set is read from them
    for w in (induction_step(3, z2), identity_witness(cached_family("T", 2, "3"))):
        image = w.image_submonoid()
        g = len(w.pairs)
        assert image.generators == list(range(g)), w.label
        assert image.elements[:g] == [w.target.from_row(row) for row in w.pairs[:, :w.target.width].tolist()]
        with monkeypatch.context() as patch:
            patch.setattr(semidec.monoid, "TABLE_BOUND", 0)
            untabled = verify(DivisionWitness(w.source, w.target, w.pairs)).image_submonoid()
            assert untabled._table is None and untabled.generators == image.generators
            assert set(generating_set(untabled)) <= set(range(g)), w.label


def test_direct_product_records_its_factors_generators(monkeypatch):
    # the same list on both sides of the bound; past it the generating set reads it
    a, b = cached_family("T", 2, "2"), cached_family("T", 2, "3")
    expected = ([x * len(b) + b.identity for x in generating_set(a)]
                + [a.identity * len(b) + y for y in generating_set(b)])
    tabled = direct_product(a, b)
    assert tabled._table is not None and tabled.generators == expected
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 100)
    p = direct_product(a, b)
    assert p._table is None and len(p) == 216
    assert p.generators == expected
    assert set(index_closure(p, p.generators, "test")[0]) | {p.identity} == set(range(len(p)))
    assert generating_set(p) == p.generators


def _zero_semigroup_with_identity(left: bool) -> Monoid:
    """{0, 1} with xy = x (left zero) or xy = y (right zero), plus an identity 2."""
    def mul(a, b):
        if 2 in (a, b):
            return b if a == 2 else a
        return a if left else b

    return table_monoid([0, 1, 2], 2, mul, label="left zero" if left else "right zero")


@pytest.mark.parametrize("bound", [None, 0])
@pytest.mark.parametrize("left", [True, False])
def test_image_without_two_sided_identity_is_rejected(monkeypatch, bound, left):
    # a left-zero closure has no left identity; in a right-zero one both
    # elements are left identities and neither is two-sided
    trivial = table_monoid([0], 0, lambda a, b: 0, label="1")
    target = _zero_semigroup_with_identity(left)
    w = verify(DivisionWitness(trivial, target, pair_rows(target, [(0, 0), (1, 0)])))
    assert w.verified and w.closure_size == 2
    if bound is not None:
        monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", bound)
    with pytest.raises(WitnessError, match="no two-sided identity"):
        w.image_submonoid()


def test_close_generators_evaluates_only_the_closure_products():
    calls = []

    class Counted(TransformationCarrier):
        def mul_rows(self, x, y):
            calls.append(len(x) * len(y))  # products in the block
            return super().mul_rows(x, y)

    # a 3-cycle: closure 3 elements, the identity among them; then the
    # spot check's sample of carrier products
    sample = semidec.monoid._SPOT_SIDE ** 2
    m = close_generators([(1, 2, 0)], Counted(3), (0, 1, 2))
    assert len(m) == 3 and sum(calls) == 3 * 1 + sample
    assert m.table_array().tolist() == value_product_table(m.elements, compose_tables)
    # two constants: the identity is appended after 2g + 1 checked products
    calls.clear()
    m = close_generators([(0, 0, 0), (1, 1, 1)], Counted(3), (0, 1, 2))
    assert m.elements[-1] == (0, 1, 2) and m.identity == 2
    assert sum(calls) == 2 * 2 + 2 * 2 + 1 + sample
    assert m.table_array().tolist() == value_product_table(m.elements, compose_tables)


def test_close_generators_rejects_an_identity_that_does_not_fix_the_generators():
    with pytest.raises(InvalidMonoid, match="identity"):
        close_generators([(0, 0, 0)], TransformationCarrier(3), (1, 1, 1))  # outside the closure
    with pytest.raises(InvalidMonoid, match="identity"):
        close_generators([(1, 2, 0), (0, 0, 0)], TransformationCarrier(3), (0, 0, 0))  # inside it


def _expected_verdict(pairs, target, source):
    if len(dict(pairs)) != len(set(pairs)):
        return NotFunctional
    closure = pair_closure(pairs, target.mul_value, source.mul)
    if closure is None:
        return NotFunctional
    if set(closure.values()) != set(range(len(source))):
        return NotSurjective
    return closure


@st.composite
def witness_cases(draw):
    target = SMALL[draw(st.sampled_from(sorted(SMALL)))]()
    if draw(st.booleans()):
        # pairs from the identity map: verified or not surjective
        source = target
        picks = draw(st.lists(st.integers(0, len(target) - 1), min_size=1, max_size=5))
        pairs = [(target.elements[i], i) for i in picks]
    else:
        source = SMALL[draw(st.sampled_from(sorted(SMALL)))]()
        pairs = draw(st.lists(
            st.tuples(st.sampled_from(target.elements), st.integers(0, len(source) - 1)),
            min_size=1, max_size=5,
        ))
    return target, source, pairs


@settings(max_examples=300, deadline=None)
@given(witness_cases())
def test_verify_matches_pair_closure_oracle(case):
    target, source, pairs = case
    expected = _expected_verdict(pairs, target, source)
    w = DivisionWitness(source, target, pair_rows(target, pairs), label="drawn")
    if isinstance(expected, dict):
        verify(w)
        assert dict(closure_pairs(w)) == expected
        assert w.closure_size == len(expected)
    else:
        with pytest.raises(expected):
            verify(w)
        assert w.status == "failed"


def test_clash_only_in_a_triple_product():
    # (swap, r) with swap of order 2 and r of order 3: words of length one
    # and two give (swap, r) and (1, r^2), functional; the word of length
    # three gives (swap, 1) and clashes with the generator
    target, source = c2(), c3()
    swap = (1, 0)
    r = source.index[(1, 2, 0)]
    pairs = [(swap, r)]
    short = {}
    for t, s in [(swap, r), (target.mul_value(swap, swap), source.mul(r, r))]:
        assert short.setdefault(t, s) == s
    assert pair_closure(pairs, target.mul_value, source.mul) is None
    w = DivisionWitness(source, target, pair_rows(target, pairs), label="triple clash")
    with pytest.raises(NotFunctional):
        verify(w)


def _single_pair_cases():
    """Targets (monoids and a wreath context) with their values, and sources, for one-pair witnesses."""
    ctx = WreathContext(c2(), u1())
    targets = [(m, m.elements) for m in (c2(), c3(), u1(), cached_family("T", 1, "3"), cached_family("AS*", 1, "3"))]
    targets.append((ctx, enumerate_wreath(ctx).elements))
    sources = [c2(), c3(), u1(), cached_family("T", 1, "3"), direct_product(u1(), c2())]
    return targets, sources


def test_not_functional_names_the_pair_closure_oracles_first_clash():
    # with one generator pair, both scans meet the powers of the pair in the
    # same order, so verify must name the oracle's first clash: the target
    # value, the source element stored under it and the new one
    targets, sources = _single_pair_cases()
    checked = 0
    for target, values in targets:
        for source in sources:
            for t in values:
                for s in range(len(source)):
                    clash = pair_closure_conflict([(t, s)], target.mul_value, source.mul)
                    if clash is None:
                        continue
                    with pytest.raises(NotFunctional) as caught:
                        verify(DivisionWitness(source, target, pair_rows(target, [(t, s)]), label="one pair"))
                    expected = (clash[0], source.elements[clash[1]], source.elements[clash[2]])
                    assert (caught.value.target, *caught.value.sources) == expected, (target.label, t, s)
                    checked += 1
    assert checked > 50


def _blocks(edges, g: int, step: int) -> list[int]:
    """Row counts of the frontier blocks a closure with these edges is cut into:
    a block starts at ``i`` and ends at ``i + step`` or at the last element
    known then, a generator or a product of an element before ``i``."""
    known = sorted(0 if edge is None else edge[0] + 1 for edge in edges)  # first block start that knows each element
    sizes, i = [], 0
    while i < len(edges):
        end = min(i + step, bisect_right(known, i))
        sizes.append(end - i)
        i = end
    return sizes


@pytest.mark.parametrize("cells", [1, 40, None], ids=["1-row blocks", "small blocks", "default blocks"])
def test_closure_makes_one_mul_rows_call_per_frontier_block(monkeypatch, z2, cells):
    if cells is not None:
        monkeypatch.setattr(semidec.monoid, "_BLOCK_CELLS", cells)
    m = cached_family("T", 2, "3")
    calls = []

    def counted(x, y):
        calls.append(len(x))
        return m.mul_rows(x, y)

    gens = generating_set(m)
    rows, edges, right = close_rows(np.array(gens, dtype=np.int32)[:, None], counted, len(m), "counted")
    g = right.shape[1]
    assert calls == _blocks(edges, g, max(1, semidec.monoid._BLOCK_CELLS // g))
    assert sum(calls) == len(rows) and len(calls) < len(rows) * g
    # the same in a wreath target: verify makes one wreath mul_rows call per block
    w = induction_step(3, z2)
    wreath_calls = []
    original = WreathContext.mul_rows

    def counted_wreath(ctx, x, y):
        wreath_calls.append(len(x))
        return original(ctx, x, y)

    monkeypatch.setattr(WreathContext, "mul_rows", counted_wreath)
    verify(w)
    edges, right = w._graph
    g, width = right.shape[1], w.target.width + 1
    assert wreath_calls == _blocks(edges, g, max(1, semidec.monoid._BLOCK_CELLS // (g * width)))
    assert len(wreath_calls) < w.closure_size * g


def test_one_row_blocks_give_the_one_block_closure(monkeypatch, z2):
    # cutting the frontier into 1-row blocks or taking it whole changes no
    # element, edge or Cayley graph entry
    witnesses = [induction_step(3, z2), augmentation(cached_family("AS*", 2, "2")), group_with_zero(z2),
                 identity_witness(cached_family("T", 2, "3"))]
    results = {}
    for cells in (1, 1 << 40):
        monkeypatch.setattr(semidec.monoid, "_BLOCK_CELLS", cells)
        out = []
        for w in witnesses:
            verify(w)
            edges, right = w._graph
            out.append((closure_pairs(w), edges, right.tolist()))
        closed = close_generators([(1, 2, 0, 3), (0, 0, 2, 3), (1, 0, 2, 3)], TransformationCarrier(4),
                                  (0, 1, 2, 3))
        out.append((closed.elements, closed.table_array().tolist()))
        results[cells] = out
    assert results[1] == results[1 << 40]


@pytest.mark.parametrize("n", [2, 3])
def test_closures_follow_the_one_product_scan(field_plan, n):
    # every certificate's closure and every image rebuild has the elements,
    # edges and Cayley graph of the one-product-at-a-time scan, whose
    # element-major order fixes the element order of traced images; each
    # source element's preimage is its first scanned pair, also where the
    # map is not injective
    plan = field_plan(n, "2")
    for w in plan.witnesses + [plan.composite]:
        fresh = verify(DivisionWitness(w.source, w.target, w.pairs, label=w.label))
        source, target = fresh.source, fresh.target

        def pair_mul(x, y):
            return (target.mul_value(x[0], y[0]), source.mul(x[1], y[1]))

        elements, edges, right = scan_closure(pair_values(fresh), pair_mul, key=lambda v: v[0])
        assert closure_pairs(fresh) == elements, w.label
        first: dict = {}
        for t, s in elements:
            first.setdefault(s, t)
        assert preimage_table(fresh) == [first[s] for s in range(len(source))], w.label
        assert fresh._graph[0] == edges and fresh._graph[1].tolist() == right, w.label
        gens = [t for t, _ in pair_values(fresh)]
        scan = scan_closure(gens, target.mul_value)[0]
        closed = close_generators(fresh.pairs[:, :-1], target, target.to_row(target.identity_value), label="rebuild")
        assert closed.elements[: len(scan)] == scan == [t for t, _ in elements], w.label


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generators_generate_and_relabelled_copy_is_isomorphic(data):
    m = SMALL[data.draw(st.sampled_from(sorted(SMALL)))]()
    gens = generating_set(m)
    generated = target_closure([m.elements[g] for g in gens] + [m.identity_value], m.mul_value)
    assert generated == set(m.elements)
    perm = data.draw(st.permutations(range(len(m))))
    assert isomorphic(m, relabelled(m, perm))


@pytest.mark.parametrize("kind,n,spec,at_most", [("T", 3, "3", 10), ("T", 4, "2", 11)])
def test_generating_set_is_small(kind, n, spec, at_most):
    m = cached_family(kind, n, spec)
    gens = generating_set(m)
    assert len(gens) <= at_most
    closure, _, _ = index_closure(m, gens, "test")
    assert set(closure) | {m.identity} == set(range(len(m)))


def test_generating_set_builds_no_table(monkeypatch):
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 0)
    m = Monoid(list(range(12)), 0, carrier=table_monoid(range(12), 0, lambda a, b: (a + b) % 12), label="Z_12")
    assert m._table is None
    gens = generating_set(m)
    assert m._table is None
    assert set(index_closure(m, gens, "test")[0]) | {m.identity} == set(range(12))


def _largest_field_image():
    """The largest witness source of the degree-3 field plan over Z_3: a traced image of 2,688 elements."""
    return max((w.source for w in cached_field_plan(3, "3").witnesses), key=len)


RANKED = {
    "T_3(Z_3)": lambda: cached_family("T", 3, "3"),
    "UT_3(Z_3)": lambda: cached_family("UT", 3, "3"),
    "PT_3(Z_3)": lambda: cached_family("PT", 3, "3"),
    "AS_2(Z_3)": lambda: cached_family("AS", 2, "3"),
    "U_1": u1,
    "T_2(Z_2) x T_2(Z_3)": lambda: direct_product(cached_family("T", 2, "2"), cached_family("T", 2, "3")),
    "field image": _largest_field_image,
}


@pytest.mark.parametrize("name", sorted(RANKED))
def test_generating_set_matches_exact_ranking(name):
    # within TABLE_BOUND the ranking reads every column, so it is the exact
    # row-image ranking of the reference greedy
    m = RANKED[name]()
    assert name != "field image" or len(m) >= 2000
    assert generating_set(m) == greedy_generating_set(m)


def test_generating_set_past_the_bound_multiplies_only_its_closure(monkeypatch):
    # with TABLE_BOUND 8, T_3(Z_2) (64 elements) has no table, so nothing is
    # ranked: the scan reads the recorded generators, then every index, and
    # the only products are the growing closure's cells
    from semidec.families import MatrixCarrier

    t3 = cached_family("T", 3, "2")
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 8)
    for recorded in ([], t3.generators):
        m = Monoid(t3.elements, t3.identity_value, carrier=MatrixCarrier(_ring("2"), 3), label="T_3(Z_2)",
                   generators=recorded)
        assert len(m) == 64 and m._table is None
        cells = []

        def counted(self, rows, cols, original=Monoid.products):
            cells.append(len(rows) * len(cols))
            return original(self, rows, cols)

        with monkeypatch.context() as patch:
            patch.setattr(Monoid, "products", counted)
            gens = generating_set(m)
        assert m._table is None
        assert set(gens) <= set(recorded or range(len(m)))
        sizes = [1]  # the closures of the generator prefixes, with the identity
        for k in range(1, len(gens) + 1):
            sizes.append(len(set(scan_closure(gens[:k], m.mul)[0]) | {m.identity}))
        assert sizes[-1] == len(m)
        closure = sum(sizes[k - 1] + (sizes[k] - sizes[k - 1]) * k for k in range(1, len(gens) + 1))
        assert sum(cells) == closure


@pytest.mark.parametrize("pipeline,n,spec", [("field", 2, "2"), ("field", 3, "2"), ("ring", 2, "3")])
def test_every_element_pairing_verifies(monkeypatch, pipeline, n, spec):
    # with every source element paired, each mapped step must still verify;
    # pairing a generating set does not check the value maps off that set
    every_element_pairing(monkeypatch)
    plan = {"field": field_pipeline, "ring": ring_pipeline}[pipeline](n, _ring(spec))
    mapped = [w for w in plan.witnesses if len(w.pairs) == len(w.source)]
    assert mapped and all(w.verified for w in plan.witnesses)
    assert plan.composite.verified and plan.composite.closure_size == len(cached_family("T", n, spec))


@pytest.mark.parametrize("pipeline,n,bound,sizes,pairs", [
    ("ring", 3, 256, [27, 27, 729, 729, 729, 729, 81, 729], 70),
    ("field", 2, 128, [27, 27, 114, 126, 4, 16, 16, 16, 168, 456, 168, 96, 144, 144, 672, 672, 672, 672], 120),
])
def test_pipelines_past_the_table_bound_certify_as_within_it(monkeypatch, pipeline, n, bound, sizes, pairs):
    # a lowered bound leaves five witness sources without a table, whose
    # generating sets come from recorded generators: the plan closes to the
    # default-bound plan's sizes with as many pairs, and its composite
    # re-verifies from JSON
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", bound)
    monkeypatch.setattr(semidec.families, "_FAMILIES", {})
    plan = {"field": field_pipeline, "ring": ring_pipeline}[pipeline](n, _ring("3"))
    assert sum(w.source._table is None for w in plan.witnesses) == 5
    assert [w.closure_size for w in plan.witnesses] == sizes
    assert sum(len(w.pairs) for w in plan.witnesses) == pairs
    table, bundle = document_from_json(json.loads(json.dumps(document_to_json(plan.witnesses, plan.composite))))
    composite = verify(witness_from_json(bundle[-1], table))
    assert composite.verified and composite.closure_size == plan.composite.closure_size


@pytest.mark.parametrize("pipeline,n,spec,lowered_bound", [("ring", 3, "2", 2), ("field", 2, "3", 4)],
                         ids=["ring 3 Z_2", "field 2 Z_3"], indirect=["lowered_bound"])
def test_pipelines_with_untabled_wreath_sides_certify_as_tabled(monkeypatch, pipeline, n, spec, lowered_bound):
    # with the bound lowered every wreath context has a side without a
    # table, which multiplies by tracing: the plan summary is byte-identical
    # to the default bound's, each certificate differs only in its pairs
    # (generating sets are ranked only with a table), as many of them
    # closing to the same sizes, and the document verifies from JSON alone
    from conftest import read_document, run_python

    contexts = []
    original = WreathContext.__init__

    def recorded(self, top, base):
        original(self, top, base)
        contexts.append(self)

    monkeypatch.setattr(WreathContext, "__init__", recorded)
    plan = {"field": field_pipeline, "ring": ring_pipeline}[pipeline](n, _ring(spec))
    assert contexts and all(ctx.top._table is None or ctx.base._table is None for ctx in contexts)
    document = json.loads(json.dumps(document_to_json(plan.witnesses, plan.composite)))
    script = ("import json\nfrom semidec.decomp import field_pipeline, ring_pipeline\n"
              "from semidec.semiring import make_prime_field\nfrom semidec.witness import document_to_json\n"
              f"plan = {pipeline}_pipeline({n}, make_prime_field({spec}))\n"
              "print(json.dumps([plan.summary(), document_to_json(plan.witnesses, plan.composite),"
              " [w.closure_size for w in plan.witnesses]]))\n")
    proc = run_python(["-c", script])  # a fresh process, at the default bound
    assert proc.returncode == 0, proc.stderr
    summary, tabled, sizes = json.loads(proc.stdout)
    assert json.dumps(plan.summary(), sort_keys=True) == json.dumps(summary, sort_keys=True)
    assert document["steps"] == tabled["steps"] and [w.closure_size for w in plan.witnesses] == sizes
    certificates = document["certificates"] + [document["composite"]]
    expected = tabled["certificates"] + [tabled["composite"]]
    assert [dict(c, pairs=len(c["pairs"])) for c in certificates] == [dict(c, pairs=len(c["pairs"])) for c in expected]
    witnesses = read_document(document)
    assert all(verify(w).verified for w in witnesses)
    assert [w.closure_size for w in witnesses[:-1]] == sizes
