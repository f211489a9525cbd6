import random
from itertools import product

import numpy as np
import pytest

from semidec.carriers import ProductCarrier
from semidec.errors import ContextMismatch, NotClosed, SizeLimitExceeded
from semidec.families import family, transformation_closure, u1
import semidec.monoid
from oracles import CyclicCarrier, table_monoid, value_product_table, wreath_decode, wreath_value_product
from semidec.monoid import TABLE_BOUND, Monoid, direct_product, is_aperiodic, is_group
from semidec.wreath import (
    WreathContext,
    constant_table,
    enumerate_wreath,
    restrict_base,
)


def wreath_elements(ctx):
    """The element list of top wr base in enumerate_wreath's order, without its table:
    every table of top indices, first entry most significant, then every base index."""
    b = len(ctx.base)
    return [(tab, a) for tab in product(range(len(ctx.top)), repeat=b) for a in range(b)]


def test_wreath_elements_in_enumeration_order(fam):
    for ctx in (WreathContext(u1(), u1()), WreathContext(fam("AS", 1, "2"), fam("T", 1, "2"))):
        assert wreath_elements(ctx) == enumerate_wreath(ctx).elements


def test_identity_law():
    ctx = WreathContext(u1(), u1())
    e = ctx.identity_value
    for tab_bits in range(4):
        table = (tab_bits & 1, tab_bits >> 1)
        for base in (0, 1):
            x = (table, base)
            assert ctx.mul_value(e, x) == x
            assert ctx.mul_value(x, e) == x


def test_mul_shifts_right_argument(fam):
    as1 = fam("AS", 1, "2")
    t1 = fam("T", 1, "2")
    ctx = WreathContext(as1, t1)
    ident_map = as1.identity
    x = (constant_table(ctx, ident_map), t1.index[((1,),)])
    y = (constant_table(ctx, ident_map), t1.index[((0,),)])
    table, base = ctx.mul_value(x, y)
    assert base == t1.index[((0,),)]
    assert table == constant_table(ctx, ident_map)


def test_mul_matches_decoding_reference(fam):
    # all pairs of two full products whose base elements act non-trivially,
    # so the shift g[t a] moves the right table by the left base part
    c2 = transformation_closure([(1, 0)], label="C_2")
    for ctx in (WreathContext(fam("AS", 1, "2"), fam("T", 1, "2")), WreathContext(c2, fam("AS", 1, "2"))):
        els = wreath_elements(ctx)
        for x in els:
            for y in els:
                expected = wreath_value_product(ctx, wreath_decode(ctx, x), wreath_decode(ctx, y))
                assert wreath_decode(ctx, ctx.mul_value(x, y)) == expected


def test_mul_context_mismatch():
    ctx = WreathContext(u1(), u1())
    with pytest.raises(ContextMismatch):
        ctx.mul_value(((0,), 0), ((0, 0), 0))


def test_sides_must_be_monoids_with_tables(fam, monkeypatch):
    # a side that is no monoid is refused; a side without a table multiplies
    # by tracing, block for block as its tabled copy does, a cyclic base past
    # TABLE_BOUND too
    t1 = fam("T", 1, "2")
    for top in (WreathContext(u1(), t1), ProductCarrier(t1, u1())):
        with pytest.raises(ContextMismatch, match="wreath top"):
            WreathContext(top, t1)
    as1 = fam("AS", 1, "3")
    with monkeypatch.context() as patch:
        patch.setattr(semidec.monoid, "TABLE_BOUND", 0)
        top, base = (Monoid(m.elements, m.identity_value, carrier=m, label=m.label) for m in (as1, t1))
    assert top._table is None and base._table is None
    rows = np.array([(*f, a) for f, a in wreath_elements(WreathContext(as1, t1))], dtype=np.int32)
    tabled = WreathContext(as1, t1).mul_rows(rows, rows)
    for ctx in (WreathContext(top, t1), WreathContext(as1, base), WreathContext(top, base)):
        assert np.array_equal(ctx.mul_rows(rows, rows), tabled), ctx.label
    order = TABLE_BOUND + 1
    cyclic = Monoid(range(order), 0, carrier=CyclicCarrier(order), label="Z_4097")
    assert cyclic._table is None
    rng = np.random.default_rng(0xC7C)
    x, y = (np.column_stack([rng.integers(0, 2, (5, order)), rng.integers(0, order, 5)]).astype(np.int32)
            for _ in range(2))
    out = WreathContext(u1(), cyclic).mul_rows(x, y)
    shift = (np.arange(order) + x[:, -1:]) % order  # shift[i, t] = t a_i
    assert np.array_equal(out[:, :, :-1], x[:, None, :-1] | y[:, shift].transpose(1, 0, 2))  # U_1 is {0, 1} under or
    assert np.array_equal(out[:, :, -1], (x[:, -1:] + y[:, -1]) % order)


def test_field_pipeline_past_the_table_bound_is_a_size_limit():
    # over Z_7 the first lift's traced image (12,390 elements, past
    # TABLE_BOUND) is a wreath top that multiplies by tracing; the next wall
    # is the direct product of that image with the 36 units of
    # T*_1(Z_7)^2 that _inner_kabsorb needs, past DEFAULT_LIMIT
    from semidec.decomp import field_pipeline
    from semidec.semiring import make_prime_field

    with pytest.raises(SizeLimitExceeded, match=r"direct product of im\(.*\) and \(T\*_1\(Z_7\) x T\*_1\(Z_7\)\) "
                                                r"\(446040 elements\)"):
        field_pipeline(2, make_prime_field(7))


def test_enumerate_counts(fam):
    w = enumerate_wreath(WreathContext(u1(), u1()))
    assert len(w) == 8
    as1 = fam("AS", 1, "2")
    t1 = fam("T", 1, "2")
    assert len(enumerate_wreath(WreathContext(as1, t1))) == 32


def test_wreath_table_matches_value_products():
    c2 = transformation_closure([(1, 0)], label="C_2")
    for ctx in (WreathContext(c2, c2), WreathContext(u1(), u1())):
        w = enumerate_wreath(ctx)
        assert w.table_array().tolist() == value_product_table(w.elements, ctx.mul_value)


def test_wreath_past_table_bound_multiplies_by_value(monkeypatch):
    c2 = transformation_closure([(1, 0)], label="C_2")
    ctx = WreathContext(c2, c2)
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 4)
    w = enumerate_wreath(ctx)
    assert w._table is None
    assert [[w.mul(x, y) for y in range(len(w))] for x in range(len(w))] == \
        value_product_table(w.elements, ctx.mul_value)


def test_wreath_table_is_traced_along_point_functions(fam, monkeypatch):
    # the enumeration records each top generator at one base point, then the
    # identity table with each base generator; they generate, so the table
    # is one closure of N (g + 1) context cells, not one product per pair,
    # with the spot check's sample of context products
    from semidec.monoid import generating_set

    rng = random.Random(0x9E7)
    for top, base in ((fam("T", 1, "3"), fam("T", 1, "3")), (fam("T", 1, "2"), fam("T", 2, "2"))):
        ctx, cells = WreathContext(top, base), []

        def counted(x, y, original=ctx.mul_rows):
            cells.append(len(x) * len(y))
            return original(x, y)

        monkeypatch.setattr(ctx, "mul_rows", counted)
        w = enumerate_wreath(ctx)
        e, b = top.identity, len(base)
        points = [(tuple(x if t == s else e for t in range(b)), base.identity)
                  for x in generating_set(top) for s in range(b)]
        assert [w.elements[g] for g in w.generators] == points + [((e,) * b, y) for y in generating_set(base)]
        assert w._table is not None
        assert sum(cells) == len(w) * (len(w.generators) + 1) + semidec.monoid._SPOT_SIDE ** 2  # and the spot check
        for _ in range(500):
            x, y = rng.randrange(len(w)), rng.randrange(len(w))
            product = wreath_value_product(ctx, wreath_decode(ctx, w.elements[x]), wreath_decode(ctx, w.elements[y]))
            assert wreath_decode(ctx, w.elements[w.mul(x, y)]) == product


def test_wreath_table_matches_sampled_value_products(fam):
    t1 = fam("T", 1, "2")
    ctx = WreathContext(fam("AS", 1, "2"), direct_product(t1, t1))
    w = enumerate_wreath(ctx)
    assert len(w) == 1024
    rng = random.Random(0x3EA7)
    for _ in range(2000):
        x, y = rng.randrange(len(w)), rng.randrange(len(w))
        assert w.elements[w.mul(x, y)] == ctx.mul_value(w.elements[x], w.elements[y])


def test_enumerate_limit(fam):
    as1 = fam("AS", 1, "2")
    t1 = fam("T", 1, "2")
    base = direct_product(direct_product(t1, t1), t1)
    with pytest.raises(SizeLimitExceeded):
        enumerate_wreath(WreathContext(as1, base), limit=100_000)  # 4^8 * 8


def test_restrict_base_identity_and_trivial():
    base = enumerate_wreath(WreathContext(u1(), u1()))
    ctx = WreathContext(u1(), base)
    same_ctx, step = restrict_base(ctx, base)
    assert step["kind"] == "restrict_base"
    assert len(same_ctx.base) == len(base)
    trivial = table_monoid([base.identity_value], base.identity_value, base.mul_value, label="1")
    small_ctx, _ = restrict_base(ctx, trivial)
    assert len(small_ctx.base) == 1


def test_restrict_base_rejects_disagreeing_sub(fam):
    t1 = fam("T", 1, "3")
    ctx = WreathContext(u1(), t1)
    # a perfectly good monoid on {1, 0}, but its product disagrees with the
    # base: here 0 * 0 = 1 while the base has 0 * 0 = 0
    bogus = table_monoid(
        [((1,),), ((0,),)],
        ((1,),),
        lambda a, b: ((1,),) if a == b else ((0,),),
        label="bogus",
    )
    with pytest.raises(NotClosed):
        restrict_base(ctx, bogus)


def test_restrict_base_rejects_foreign_elements(fam):
    t1 = fam("T", 1, "2")
    ctx = WreathContext(u1(), t1)
    foreign = table_monoid([((2,),)], ((2,),), lambda a, b: ((2,),), label="foreign")
    with pytest.raises(NotClosed):
        restrict_base(ctx, foreign)


def test_restrict_base_traced_image(fam, z2):
    # the traced image of the degree-2 chain is an 8-element sub-base of the
    # fully enumerated wreath product
    from semidec.decomp import ring_pipeline

    plan = ring_pipeline(2, z2)
    image = plan.composite.image_submonoid()
    as1 = fam("AS", 1, "2")
    t1 = fam("T", 1, "2")
    full_base = enumerate_wreath(WreathContext(as1, direct_product(t1, t1)))
    ctx_full = WreathContext(fam("AS", 2, "2"), full_base)
    restricted, step = restrict_base(ctx_full, image)
    assert len(restricted.base) == 8
    assert step["base_to"]["kind"] == "close"


def test_group_and_aperiodic_spot_checks():
    c2 = transformation_closure([(1, 0)], label="C_2")
    w = enumerate_wreath(WreathContext(c2, c2))
    assert len(w) == 8
    assert is_group(w)
    assert is_aperiodic(enumerate_wreath(WreathContext(u1(), u1())))


def test_associativity_random_triples(fam):
    as1 = fam("AS", 1, "2")
    t1 = fam("T", 1, "2")
    base = direct_product(t1, t1)
    ctx = WreathContext(as1, base)
    els = wreath_elements(ctx)
    assert len(els) == 1024
    rng = random.Random(7)
    for _ in range(10_000):
        x, y, z = (els[rng.randrange(len(els))] for _ in range(3))
        assert ctx.mul_value(ctx.mul_value(x, y), z) == ctx.mul_value(x, ctx.mul_value(y, z))


def test_identity_two_sided_full_small_base(fam):
    as1 = fam("AS", 1, "2")
    t1 = fam("T", 1, "2")
    base = direct_product(t1, t1)
    ctx = WreathContext(as1, base)
    els = wreath_elements(ctx)
    assert len(els) == 1024
    e = ctx.identity_value
    for x in els:
        assert ctx.mul_value(e, x) == x
        assert ctx.mul_value(x, e) == x


def test_constant_tables_multiply_to_constants():
    ctx = WreathContext(u1(), u1())
    one, e = 0, 1
    x = (constant_table(ctx, one), one)
    y = (constant_table(ctx, e), e)
    assert ctx.mul_value(x, y) == (constant_table(ctx, e), e)
