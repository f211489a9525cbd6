import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, cached_field_plan, cached_ring_plan, read_document
from oracles import closure_pairs, compose_tables, pair_closure, pair_rows, pair_values, preimage_table, table_monoid
from semidec.carriers import ProductCarrier
from semidec.errors import (
    FieldRequired,
    InvalidCertificate,
    NotFunctional,
    NotSurjective,
    PreimageMissing,
    SemidecError,
    SizeLimitExceeded,
    WitnessError,
)
from semidec.families import constants_monoid, family, transformation_closure, u1
from semidec.monoid import direct_product
from semidec.witness import (
    DivisionWitness,
    absorb,
    augmentation,
    compose,
    document_to_json,
    group_with_zero,
    identity_witness,
    interchange,
    lift_left,
    lift_right,
    product_witness,
    search_division,
    times_to_wreath,
    verify,
)
from semidec.wreath import WreathContext, enumerate_wreath


@pytest.fixture(scope="module")
def c2():
    return transformation_closure([(1, 0)], label="C_2")


def test_identity_witness(fam):
    t2 = fam("T", 2, "2")
    w = identity_witness(t2)
    assert w.verified and w.closure_size == 8


def test_not_functional_group_collapse(c2):
    trivial = table_monoid([0], 0, lambda a, b: 0, label="1")
    swap = c2.elements[c2.index[(1, 0)]]
    w = DivisionWitness(c2, trivial, pair_rows(trivial, [(0, c2.index[swap])]), label="bogus")
    with pytest.raises(NotFunctional):
        verify(w)
    assert w.status == "failed"


def test_not_surjective(c2):
    w = DivisionWitness(c2, c2, [(c2.identity, c2.identity)], label="partial")
    with pytest.raises(NotSurjective):
        verify(w)


def test_compose_identity(fam):
    t1 = fam("T", 1, "3")
    w = compose(identity_witness(t1), identity_witness(t1))
    assert w.verified and w.closure_size == 3


def test_compose_requires_verified(fam):
    t1 = fam("T", 1, "3")
    unverified = DivisionWitness(t1, t1, [(i, i) for i in range(len(t1))])
    with pytest.raises(WitnessError, match="has not been verified"):
        compose(identity_witness(t1), unverified)


UNVERIFIED_USES = {
    "preimage_table": lambda w, t1, u: w.preimages(),
    "image_submonoid": lambda w, t1, u: w.image_submonoid(),
    "lift_left": lambda w, t1, u: lift_left(w, u),
    "lift_right": lambda w, t1, u: lift_right(w, u),
    "product_witness": lambda w, t1, u: product_witness(identity_witness(t1), w),
}  # compose: test_compose_requires_verified


@pytest.mark.parametrize("use", list(UNVERIFIED_USES))
def test_unverified_witness_is_a_typed_error(fam, use):
    # a typed error, not an assert, which python -O strips
    t1 = fam("T", 1, "2")
    unverified = DivisionWitness(t1, t1, [(i, i) for i in range(len(t1))], label="unchecked")
    with pytest.raises(WitnessError, match="unchecked has not been verified"):
        UNVERIFIED_USES[use](unverified, t1, u1())


def test_unverified_witness_is_a_typed_error_under_optimize():
    script = (
        "from semidec.errors import WitnessError\n"
        "from semidec.families import family\n"
        "from semidec.semiring import make_prime_field\n"
        "from semidec.witness import DivisionWitness\n"
        "t1 = family('T', 1, make_prime_field(2))\n"
        "w = DivisionWitness(t1, t1, [(i, i) for i in range(len(t1))])\n"
        "try:\n"
        "    w.preimages()\n"
        "except WitnessError:\n"
        "    print('WitnessError')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "WitnessError\n", proc.stderr


def test_compose_preimage_missing(fam, c2):
    t1 = fam("T", 1, "2")
    w1 = identity_witness(t1)
    w2 = identity_witness(c2)
    with pytest.raises(PreimageMissing):
        compose(w1, w2)


def test_times_to_wreath_counts(fam, c2):
    w = times_to_wreath(u1(), u1())
    assert w.verified and w.closure_size == 4
    w = times_to_wreath(c2, u1())
    assert w.closure_size == 4
    w = times_to_wreath(fam("AS*", 1, "3"), c2)
    assert w.closure_size == 12


def test_interchange_counts(c2):
    w = interchange(u1(), u1(), u1(), u1())
    assert w.verified and len(w.source) == 64
    w = interchange(c2, u1(), u1(), u1())
    assert w.verified
    trivial = table_monoid([(0,)], (0,), lambda a, b: (0,), label="1")
    w = interchange(c2, trivial, u1(), trivial)
    assert w.verified and w.closure_size == len(c2) * 2


def test_absorb_examples(fam):
    w = absorb(u1(), u1(), u1())
    # the embedding covers the whole 2^2 * 2 * 2 element product
    assert w.verified and w.closure_size == 16
    trivial = table_monoid([(0,)], (0,), lambda a, b: (0,), label="1")
    w = absorb(u1(), u1(), trivial)
    assert w.verified and w.closure_size == 8


def test_absorb_pipeline_step(fam, z2):
    # the traced image of the degree-2 split absorbs its scalar factor
    from semidec.decomp import induction_step

    w_lem = induction_step(2, z2)
    mid = w_lem.image_submonoid()
    w = absorb(fam("AS", 1, "2"), fam("T", 1, "2"), fam("T", 1, "2"), source=mid)
    assert w.verified and w.closure_size == 8


def test_lift_left_examples(fam, c2):
    wb = identity_witness(u1())
    w = lift_left(wb, u1())
    assert w.verified and w.closure_size == 8
    proj = search_division(u1(), direct_product(c2, u1()))
    assert proj is not None
    w = lift_left(proj, u1())
    assert w.verified
    trivial = table_monoid([(0,)], (0,), lambda a, b: (0,), label="1")
    w = lift_left(identity_witness(trivial), c2)
    assert w.verified and w.closure_size == len(c2)


def test_lift_right_examples(c2):
    w = lift_right(identity_witness(u1()), u1())
    assert w.verified
    proj = search_division(u1(), direct_product(c2, u1()))
    w = lift_right(proj, u1())
    assert w.verified
    trivial = table_monoid([(0,)], (0,), lambda a, b: (0,), label="1")
    w = lift_right(proj, trivial)
    assert w.verified and w.closure_size >= 2


def test_lift_right_top_is_the_traced_image(field_plan, fam):
    # AS_2 div ~4 wr AS*_2, lifted over T_2 with its top restricted to the
    # witness's traced image; the closure is the same as over the whole top
    plan = field_plan(3, "2")
    (w,) = [w for w in plan.witnesses if w.steps[-1]["kind"] == "lift_right"]
    acting = fam("AS*", 2, "2").descriptor()
    (aug,) = [v for v in plan.witnesses if v.steps == [{"kind": "augmentation", "acting": acting}]]
    image = aug.image_submonoid()
    assert w.target.top is image
    assert w.target.base.descriptor() == fam("T", 2, "2").descriptor()
    assert w.closure_size == 160
    assert w.steps[-1]["restrict"] == {"top_from": aug.target.descriptor(), "top_to": image.descriptor()}
    restored = verify(read_document(document_to_json([w]))[0])
    assert restored.target.top.elements == image.elements
    assert restored.closure_size == 160


def test_image_submonoid_kept_until_verified_again(fam):
    w = augmentation(fam("AS*", 1, "2"))
    image = w.image_submonoid()
    assert w.image_submonoid() is image
    verify(w)
    rebuilt = w.image_submonoid()
    assert rebuilt is not image and rebuilt.elements == image.elements


def test_augmentation_closure_exact(fam):
    w = augmentation(fam("AS*", 1, "2"))
    assert w.verified
    assert w.closure_size == 6
    # the six closure pairs, as derived by hand from the generator set
    from semidec.families import CONSTANTS_IDENTITY, constant_at

    star, xt = fam("AS*", 1, "2"), w.target.top
    ident, shift = star.index[(0, 1)], star.index[(1, 0)]
    hat1 = (xt.index[CONSTANTS_IDENTITY],) * 2
    h0 = (xt.index[constant_at(0)], xt.index[constant_at(1)])  # b -> constant at 0.b
    h1 = (xt.index[constant_at(1)], xt.index[constant_at(0)])
    expected_targets = {
        (hat1, ident), (hat1, shift),
        (h0, ident), (h1, ident), (h0, shift), (h1, shift),
    }
    assert {t for t, _ in closure_pairs(w)} == expected_targets


def test_augmentation_z3(fam):
    w = augmentation(fam("AS*", 1, "3"))
    assert w.verified
    assert len(w.source) == 9


def test_augmentation_trivial_acting():
    ident = (0, 1)
    acting = table_monoid([ident], ident, lambda a, b: ident, label="1")
    w = augmentation(acting)
    assert w.verified and len(w.source) == 3


def test_group_with_zero(z2, z3, boolean):
    w = group_with_zero(z3)
    assert w.verified and w.closure_size == 4  # reaches all of units x U_1
    w = group_with_zero(z2)
    assert w.verified and len(w.source) == 2
    with pytest.raises(FieldRequired):
        group_with_zero(boolean)


def test_product_witness(fam, z3):
    w = product_witness(identity_witness(u1()), identity_witness(u1()))
    assert w.verified and w.closure_size == 4
    gz = group_with_zero(z3)
    w2 = product_witness(gz, gz)
    assert w2.verified and len(w2.source) == 9


def test_search_division(c2):
    assert search_division(u1(), c2) is None
    found = search_division(c2, direct_product(c2, u1()))
    assert found is not None and found.verified
    ident = search_division(c2, c2)
    assert ident is not None and ident.verified


def test_search_limit(fam):
    with pytest.raises(SizeLimitExceeded):
        search_division(u1(), fam("T", 2, "3"))


def test_search_cross_validates_combinators(c2):
    # small combinator targets are reachable by the exhaustive search too
    w = times_to_wreath(u1(), u1())
    target = enumerate_wreath(WreathContext(u1(), u1()))
    found = search_division(direct_product(u1(), u1()), target)
    assert found is not None and found.verified
    assert w.verified


def test_round_trip_determinism(fam, z3):
    w = group_with_zero(z3)
    blob1 = json.dumps(document_to_json([w]), sort_keys=True)
    (restored,) = read_document(json.loads(blob1))
    verify(restored)
    assert restored.closure_size == w.closure_size
    blob2 = json.dumps(document_to_json([restored]), sort_keys=True)
    assert blob1 == blob2


@pytest.mark.parametrize("pipeline,n,spec", [("field", 2, "2"), ("field", 3, "2"), ("ring", 2, "bool")],
                         ids=["field 2 Z_2", "field 3 Z_2", "ring 2 bool"])
def test_pairs_are_stored_rows_and_preimages_are_closure_positions(pipeline, n, spec):
    # a certificate stores each witness's pair rows as they are and reads
    # them back as the same ROW array; each source element's preimage is
    # the closure position of its first closure pair, which is the index
    # of its least preimage in the image
    plan = (cached_field_plan if pipeline == "field" else cached_ring_plan)(n, spec)
    witnesses = plan.witnesses + [plan.composite]
    for w, back in zip(witnesses, read_document(document_to_json(plan.witnesses, plan.composite)), strict=True):
        assert back.pairs.dtype == w.pairs.dtype == np.int32 and back.pairs.shape == w.pairs.shape, w.label
        assert np.array_equal(back.pairs, w.pairs), w.label
        image = w.image_submonoid()
        assert w.preimages().tolist() == [image.index[t] for t in preimage_table(w)], w.label


def test_closure_matches_oracle(fam, z2):
    from semidec.decomp import induction_step

    w = induction_step(2, z2)
    got = {t: s for t, s in closure_pairs(w)}
    oracle = pair_closure(pair_values(w), w.target.mul_value, w.source.mul)
    assert oracle is not None
    assert got == oracle


def test_product_carrier_identity(fam):
    t1 = fam("T", 1, "2")
    pc = ProductCarrier(t1, u1())
    assert pc.identity_value == (t1.identity_value, 0)
    assert pc.mul_value((((1,),), 1), (((0,),), 0)) == (((0,),), 1)


def test_augmentation_non_group_reports_failure():
    # the generator construction is not assumed to work beyond groups; for
    # this two-element non-group action it genuinely fails, and the verifier
    # says so instead of masking it
    acting = table_monoid([(0, 1), (0, 0)], (0, 1), compose_tables, label="identity plus constant")
    with pytest.raises(NotFunctional):
        augmentation(acting)


def test_search_cross_validates_absorb(c2):
    target = enumerate_wreath(WreathContext(c2, u1()))
    found = search_division(direct_product(c2, u1()), target)
    assert found is not None and found.verified


def test_verified_rows_own_only_their_bytes(field_plan):
    # the closure kernel grows its row buffer by doubling; a verified witness
    # keeps its closure rows alone, not the buffer's slack (a 160-element
    # closure would otherwise hold a 256-row buffer)
    plan = field_plan(3, "2")
    witnesses = plan.witnesses + [plan.composite]
    assert 160 in {w.closure_size for w in witnesses}
    for w in witnesses:
        rows = w._rows
        assert len(rows) == w.closure_size
        assert (rows if rows.base is None else rows.base).nbytes == rows.nbytes, w.label


@pytest.fixture(scope="module")
def split_document(z2):
    """The degree-2 split certificate's document, with the bound of each pair
    column: every int below it, and no other entry, names a value there."""
    from semidec.decomp import induction_step

    w = induction_step(2, z2)
    wreath, right = w.target.left, w.target.right
    bounds = [len(wreath.top)] * len(wreath.base) + [len(wreath.base), len(right), len(w.source)]
    products: dict = {}

    def mul_target(x, y):  # the oracle's target product, each pair of values computed once
        if (x, y) not in products:
            products[x, y] = w.target.mul_value(x, y)
        return products[x, y]

    return document_to_json([w]), bounds, mul_target


@settings(max_examples=200, deadline=None)
@given(pair=st.integers(0, 3), column=st.integers(0, 4),
       entry=st.one_of(st.booleans(), st.integers(-3, 10), st.integers(-2**40, 2**40)))
def test_mutated_pair_rows_are_checked_or_refused(split_document, pair, column, entry):
    # a certificate with one pair entry changed is refused on read exactly
    # when the entry names nothing in its column; once read, it verifies
    # exactly when the pair-closure oracle finds a function onto the source
    document, bounds, mul_target = split_document
    document = json.loads(json.dumps(document))
    document["certificates"][0]["pairs"][pair][column] = entry
    named = type(entry) is int and 0 <= entry < bounds[column]
    try:
        (w,) = read_document(document)
    except InvalidCertificate as exc:
        assert not named and str(exc).startswith(f"pair {pair}: "), exc
        return
    assert named
    closure, pairs = None, pair_values(w)
    if len(dict(pairs)) == len(set(pairs)):
        closure = pair_closure(pairs, mul_target, w.source.mul)
    if closure is None:
        with pytest.raises(NotFunctional):
            verify(w)
    elif set(closure.values()) != set(range(len(w.source))):
        with pytest.raises(NotSurjective):
            verify(w)
    else:
        verify(w)
        assert dict(closure_pairs(w)) == closure


# what a fuzzed table field is set to: strings that name kinds, families
# and rings, and objects shaped like descriptors, as well as plain junk
_NAMES = st.sampled_from(["", "x", "T", "UT", "AS", "U1", "zp", "bool", "family", "product", "close", "lift_left"])
_OBJECTS = st.sampled_from([{}, {"kind": "family"}, {"builtin": "zp", "p": 3}, {"builtin": "bool"},
                            {"kind": "product", "left": 0, "right": 0}, {"x": [1, {"y": [2]}]}])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), table=st.sampled_from(["descriptors", "steps"]),
       value=st.one_of(st.integers(-3, 10), st.booleans(), _NAMES, _OBJECTS))
def test_mutated_table_entries_are_checked_or_refused(split_document, data, table, value):
    # a document with one field of one descriptor or step entry changed (or
    # a descriptor field added to a step) is refused with a typed error, or
    # it verifies and its closure is the pair-closure oracle's
    document = json.loads(json.dumps(split_document[0]))
    entries = document[table]
    entry = entries[data.draw(st.integers(0, len(entries) - 1), label="entry")]
    extra = ["top", "restrict"] if table == "steps" else []
    entry[data.draw(st.sampled_from(sorted(entry) + extra), label="field")] = value
    try:
        (w,) = read_document(document)
        verify(w)
    except SemidecError:
        return
    closure = pair_closure(pair_values(w), w.target.mul_value, w.source.mul)
    assert closure is not None and dict(closure_pairs(w)) == closure
