from itertools import product

import pytest

from oracles import AffineMap, affine_to_matrix, isomorphic, mul_entries, transformation_of_affine
from semidec.errors import ActionNotFaithful, DimensionTooSmall, FieldRequired, InvalidSpec, SizeLimitExceeded
from semidec.families import (
    FamilySpec,
    augmented_monoid,
    build_family,
    constants_monoid,
    family,
    identity_entries,
    u1,
)
from semidec.monoid import is_aperiodic, is_group, maximal_subgroup
from semidec.semiring import make_from_tables, make_prime_field


def test_orders(fam):
    assert len(fam("T", 2, "2")) == 8
    assert len(fam("UT", 2, "3")) == 12
    assert len(fam("T*", 2, "3")) == 12
    assert len(fam("UT*", 2, "2")) == 2
    assert len(fam("PT", 2, "3")) == 14
    assert len(fam("PT*", 2, "3")) == 6


def test_as1_z2_elements(z2):
    m = family("AS", 1, z2)
    assert len(m) == 4
    ident = (0, 1)
    shift = (1, 0)
    const0 = (0, 0)
    const1 = (1, 1)
    assert set(m.elements) == {ident, shift, const0, const1}


def test_as_star_z3(fam):
    g = fam("AS*", 1, "3")
    assert len(g) == 6
    assert is_group(g)
    a, b = g.elements[1], g.elements[2]
    assert any(
        g.mul_value(x, y) != g.mul_value(y, x) for x in g.elements for y in g.elements
    ), "affine line group over three elements is nonabelian"
    del a, b


def test_pt1_z3(fam):
    m = fam("PT", 1, "3")
    assert len(m) == 2
    assert isomorphic(m, u1())


def test_pt_requires_field(boolean):
    with pytest.raises(FieldRequired):
        FamilySpec("PT", 2, boolean)


def test_family_spec_checks_are_typed(z2):
    with pytest.raises(InvalidSpec, match="unknown family kind"):
        FamilySpec("Q", 2, z2)
    with pytest.raises(DimensionTooSmall):
        FamilySpec("T", 0, z2)


def test_family_limit(z3):
    with pytest.raises(SizeLimitExceeded):
        build_family(FamilySpec("T", 3, z3), limit=100)


def test_unit_group_past_the_table_bound_is_refused_unbuilt():
    # A_2(Z_5) has 15,625 elements and no table; its Green's relations come
    # from its Cayley graphs, but its unit group, an H-class of 12,000
    # elements, is itself past the bound, so it is refused before its table
    z5 = make_prime_field(5)
    with pytest.raises(SizeLimitExceeded, match=r"table of H\(A_2\(Z_5\), \d+\) \(12000 elements\)"):
        family("A*", 2, z5)
    assert family("A", 2, z5)._table is None


def test_full_affine_monoid(z2):
    a1 = family("A", 1, z2)
    at1 = family("AT", 1, z2)
    assert set(at1.elements) <= set(a1.elements)
    assert len(a1) == 4


def test_constants_monoid():
    from semidec.families import constant_at

    assert len(constants_monoid(1)) == 2
    m = constants_monoid(2)
    assert len(m) == 3
    c0, c1 = constant_at(0), constant_at(1)
    assert m.mul_value(c0, c1) == c1  # constants are right zeros
    assert len(constants_monoid(4)) == 5
    assert isomorphic(constants_monoid(1), u1())


def test_xtilde_family(z2):
    m = family("Xtilde", 2, z2)
    assert len(m) == 5
    assert is_aperiodic(m)


def test_augmented_as1(fam, z2):
    star = fam("AS*", 1, "2")
    aug = augmented_monoid(star)
    as1 = fam("AS", 1, "2")
    assert len(aug) == 4
    assert set(aug.elements) == set(as1.elements)


def test_augmented_trivial_action():
    trivial = constants_monoid(2)  # take only its identity as the acting monoid
    from oracles import compose_tables, table_monoid

    ident = (0, 1)
    acting = table_monoid([ident], ident, compose_tables, label="1")
    aug = augmented_monoid(acting)
    assert len(aug) == 3  # identity plus two constants
    del trivial


def test_augmented_as1_z3(fam):
    aug = augmented_monoid(fam("AS*", 1, "3"))
    assert len(aug) == 9


def test_augmented_rejects_unfaithful():
    from oracles import table_monoid

    m = table_monoid([0, 1], 0, lambda a, b: a | b, label="U_1 abstract")
    with pytest.raises(ActionNotFaithful):
        augmented_monoid(m, action=[(0, 1), (0, 1)])


def test_augmented_rejects_a_map_that_is_not_an_action():
    from oracles import table_monoid

    m = table_monoid([0, 1], 0, lambda a, b: a | b, label="U_1 abstract")
    # e e = e, but the swap composed with itself is the identity
    with pytest.raises(ValueError, match="not a right action"):
        augmented_monoid(m, action=[(0, 1), (1, 0)])


def test_u1():
    m = u1()
    assert len(m) == 2
    e = m.elements[1]
    assert m.mul_value(e, e) == e
    assert is_aperiodic(m)


@pytest.mark.parametrize("ring_spec,n", [("2", 1), ("2", 2), ("2", 3), ("3", 1), ("3", 2), ("3", 3)])
def test_star_families_are_unit_groups(fam, ring_spec, n):
    base = fam("T", n, ring_spec)
    star = fam("T*", n, ring_spec)
    unit_group = maximal_subgroup(base, base.identity)
    assert set(star.elements) == set(unit_group.elements)
    base = fam("UT", n, ring_spec)
    star = fam("UT*", n, ring_spec)
    unit_group = maximal_subgroup(base, base.identity)
    assert set(star.elements) == set(unit_group.elements)


@pytest.mark.parametrize("ring_spec,n", [("2", 1), ("2", 2), ("3", 1), ("3", 2)])
def test_scaling_monoid_is_augmented_unit_group(fam, ring_spec, n):
    star = fam("AS*", n, ring_spec)
    as_n = fam("AS", n, ring_spec)
    assert set(augmented_monoid(star).elements) == set(as_n.elements)


@pytest.mark.parametrize("ring_name,n", [("z2", 2), ("z2", 3), ("boolean", 2), ("boolean", 3)])
def test_affine_triangular_corner_embedding(ring_name, n, request):
    # the degree-(n-1) affine triangular maps, as formal (matrix, shift)
    # pairs, embed into degree-n triangular matrices
    ring = request.getfixturevalue(ring_name)
    dim = n - 1
    rows = list(product(range(ring.size), repeat=dim))
    mats = [
        x
        for x in product(rows, repeat=dim)
        if all(x[i][j] == ring.zero for i in range(dim) for j in range(i))
    ]
    maps = [AffineMap(dim, ring, c, x=x) for x in mats for c in product(range(ring.size), repeat=dim)]
    images = [affine_to_matrix(f).entries for f in maps]
    assert len(set(images)) == len(maps)
    for f, mf in zip(maps, images):
        for g, mg in zip(maps, images):
            assert affine_to_matrix(f.compose(g)).entries == mul_entries(ring, mf, mg)


def test_boolean_extensional_collapse(boolean):
    # over the boolean semiring distinct formal scaling maps induce the same
    # transformation, so the extensional monoid is smaller than the pattern
    # count and the corner embedding applies to formal pairs only
    m = family("AS", 1, boolean)
    assert len(m) == 3  # four (lam, c) patterns, three distinct maps
    f = AffineMap(1, boolean, (1,), scaling=0)
    g = AffineMap(1, boolean, (1,), scaling=1)
    assert transformation_of_affine(f) == transformation_of_affine(g)
    assert affine_to_matrix(f).entries != affine_to_matrix(g).entries


@pytest.mark.parametrize("ring_spec,n", [("2", 2), ("2", 3), ("3", 2), ("3", 3)])
def test_diagonal_subgroup(fam, ring_spec, n):
    star = fam("T*", n, ring_spec)
    t1s = fam("T*", 1, ring_spec)
    ring_size = int(ring_spec)
    diag = []
    for combo in product([v[0][0] for v in t1s.elements], repeat=n):
        ent = tuple(
            tuple(combo[i] if i == j else 0 for j in range(n)) for i in range(n)
        )
        diag.append(ent)
    for d in diag:
        assert d in star.index
    for a in diag:
        for b in diag:
            assert star.mul_value(a, b) in diag
    assert len(diag) == (ring_size - 1) ** n


def test_user_table_field_gf4():
    add = [[i ^ j for j in range(4)] for i in range(4)]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    gf4 = make_from_tables(add, mul, 0, 1, label="GF_4")
    assert gf4.is_field
    assert len(family("T", 2, gf4)) == 64
    assert len(family("AS*", 1, gf4)) == 12
    assert is_group(family("AS*", 1, gf4))


def test_family_built_once(z3):
    assert family("T", 2, z3) is family("T", 2, z3)
    assert build_family(FamilySpec("AS*", 1, z3)) is family("AS*", 1, z3)


def test_projective_family_reuses_cached_base(monkeypatch):
    import semidec.families as families
    from semidec.semiring import make_prime_field

    # a ring no other test uses, so neither family is cached yet
    std = make_prime_field(3)
    ring = make_from_tables(std.add, std.mul, 0, 1, label="Z_3 reuse")
    calls = []
    original = families._matrix_monoid

    def counting(kind, *args):
        calls.append(kind)
        return original(kind, *args)

    monkeypatch.setattr(families, "_matrix_monoid", counting)
    pt = build_family(FamilySpec("PT", 2, ring))
    t2 = family("T", 2, ring)
    assert calls == ["T"]
    assert len(pt) == 14 and len(t2) == 27


def test_bulk_table_needs_standard_zp_tables(fam):
    from semidec.monoid import depth_report

    # Z_3 with element i stored at index (i + 1) % 3, still labelled Z_3
    at = {i: (i + 1) % 3 for i in range(3)}
    value = {j: i for i, j in at.items()}
    add = [[at[(value[a] + value[b]) % 3] for b in range(3)] for a in range(3)]
    mul = [[at[(value[a] * value[b]) % 3] for b in range(3)] for a in range(3)]
    permuted = make_from_tables(add, mul, at[0], at[1], label="Z_3")
    ut3 = family("UT", 3, permuted)
    standard = fam("UT", 3, "3")
    assert len(ut3) == len(standard) == 216
    assert depth_report(ut3).census == depth_report(standard).census
    assert depth_report(ut3).depth == depth_report(standard).depth


def _permuted_z3():
    # Z_3 with element i stored at index (i + 1) % 3, still labelled Z_3
    at = {i: (i + 1) % 3 for i in range(3)}
    value = {j: i for i, j in at.items()}
    add = [[at[(value[a] + value[b]) % 3] for b in range(3)] for a in range(3)]
    mul = [[at[(value[a] * value[b]) % 3] for b in range(3)] for a in range(3)]
    return make_from_tables(add, mul, at[0], at[1], label="Z_3")


@pytest.mark.parametrize("ring_name", ["2", "3", "bool", "permuted Z_3"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["T", "UT", "T*", "UT*"])
def test_triangular_table_matches_pairwise_oracle(kind, n, ring_name, request):
    from oracles import pairwise_matrix_table

    if ring_name == "permuted Z_3":
        ring = _permuted_z3()
    else:
        ring = request.getfixturevalue({"2": "z2", "3": "z3", "bool": "boolean"}[ring_name])
    m = family(kind, n, ring)
    assert m.table_array().tolist() == pairwise_matrix_table(ring, m.elements)


@pytest.mark.parametrize("ring_name,n", [("2", 1), ("2", 2), ("2", 3), ("3", 1), ("3", 2), ("5", 1), ("5", 2),
                                         ("bool", 1), ("bool", 2), ("permuted Z_3", 1), ("permuted Z_3", 2)])
def test_affine_elements_match_the_oracle_enumeration(ring_name, n):
    # the kernel's tables, in first-seen order, are the per-point evaluator's
    from conftest import _ring
    from oracles import affine_elements

    ring = _permuted_z3() if ring_name == "permuted Z_3" else _ring(ring_name)
    entries = {"AS": n + 1, "AT": n * (n + 1) // 2 + n, "A": n * n + n}  # ring entries per presentation
    kinds = [kind for kind, count in entries.items() if ring.size**count <= 1024]  # at most 1,024 presentations
    for kind in kinds + [kind + "*" for kind in kinds]:
        m = family(kind, n, ring)
        assert m.elements == affine_elements(kind, n, ring), m.label
        assert m.identity_value == tuple(range(ring.size**n))


@pytest.mark.parametrize("build", ["kernel", "monoid"])
def test_table_of_non_closed_elements_names_the_pair(build, z3):
    from semidec.errors import NotClosed
    from semidec.families import MatrixCarrier, triangular_table
    from semidec.monoid import Monoid

    elements = list(family("T", 2, z3).elements)
    dropped = elements.pop(5)
    with pytest.raises(NotClosed) as err:
        if build == "kernel":
            triangular_table(z3, elements, "T_2(Z_3) minus one")
        else:
            Monoid(elements, identity_entries(z3, 2), carrier=MatrixCarrier(z3, 2))
    i, j = err.value.pair
    assert mul_entries(z3, elements[i], elements[j]) == dropped
    # the first missing product in row-major order, as a per-pair loop meets it
    assert all(
        mul_entries(z3, elements[a], elements[b]) in elements
        for a in range(i + 1) for b in range(len(elements) if a < i else j)
    )


@pytest.mark.parametrize("kind,p", [("T", 7), ("T*", 7), ("UT", 61), ("UT*", 61)])
def test_product_code_lookup_has_one_slot_per_element(kind, p):
    # the dense code-to-index array is sized by the element count, not by
    # |R| ** positions: UT_2(Z_61) has 244 elements and 61 ** 3 codes in base |R|
    import numpy as np

    from semidec.families import _code_lookup, _matrix_elements
    from semidec.semiring import make_prime_field

    ring = make_prime_field(p, bound=p)
    elements = _matrix_elements(kind, 2, ring)
    _, position = _code_lookup(np.array(elements), ring.size)
    assert len(position) == len(elements) + 1
    assert sorted(position[:-1].tolist()) == list(range(len(elements)))


def test_table_refuses_patterns_with_a_sparse_code_space():
    # 23 patterns with 23 ** 3 codes: more than their table and one block
    from semidec.families import triangular_table
    from semidec.semiring import make_prime_field

    ring = make_prime_field(23, bound=23)
    with pytest.raises(SizeLimitExceeded):
        triangular_table(ring, [((a, a), (0, a)) for a in range(23)])


def test_carrier_built_tables_match_value_products(fam):
    # a family given a carrier and no table builds it by block products;
    # literal tables stand for the per-pair products they replace
    from oracles import compose_tables, value_product_table

    for m in (fam("A", 2, "2"), fam("AT", 2, "3")):
        assert m.table_array().tolist() == value_product_table(m.elements, compose_tables), m.label
    assert u1().table_array().tolist() == value_product_table(u1().elements, lambda a, b: a | b)
    constants = constants_monoid(3)
    assert constants.table_array().tolist() == value_product_table(
        constants.elements, lambda a, b: b if b[0] == 0 else a)  # a constant on the right wins


@pytest.mark.parametrize("n,spec", [(2, "3"), (3, "2")])
def test_matrix_carrier_tables_match_value_products(fam, monkeypatch, n, spec):
    from functools import partial

    import semidec.monoid
    from conftest import _ring
    from oracles import matrix_product, value_product_table
    from semidec.families import MatrixCarrier
    from semidec.monoid import Monoid

    ring, tabled = _ring(spec), fam("T", n, spec)
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", 0)
    m = Monoid(tabled.elements, tabled.identity_value, carrier=MatrixCarrier(ring, n))
    assert m._table is None
    expected = value_product_table(m.elements, partial(matrix_product, ring))
    assert m.table_array().tolist() == expected == tabled.table_array().tolist()
    assert [MatrixCarrier(ring, n).mul_value(a, b) for a in m.elements[:9] for b in m.elements[:9]] == \
        [mul_entries(ring, a, b) for a in m.elements[:9] for b in m.elements[:9]]


def test_carrier_built_table_names_the_first_missing_pair_by_blocks(z3, monkeypatch):
    # with blocks of two products, rows are cut into column chunks, and the
    # first missing product is still the first in row-major order
    import semidec.monoid
    from semidec.errors import NotClosed
    from semidec.families import MatrixCarrier
    from semidec.monoid import Monoid

    elements = list(family("T", 2, z3).elements)
    dropped = elements.pop(5)
    monkeypatch.setattr(semidec.monoid, "_BLOCK_CELLS", 8)
    with pytest.raises(NotClosed) as err:
        Monoid(elements, identity_entries(z3, 2), carrier=MatrixCarrier(z3, 2))
    missing = [(a, b) for a in range(len(elements)) for b in range(len(elements))
               if mul_entries(z3, elements[a], elements[b]) not in elements]
    assert err.value.pair == missing[0] and mul_entries(z3, *(elements[k] for k in missing[0])) == dropped


def test_projective_quotient_past_the_table_bound_is_refused(z2, monkeypatch):
    # T_5(Z_2) has 32,768 elements and a trivial scalar group, so PT_5(Z_2)
    # would have 32,768 orbits: refused before its representatives are multiplied
    import time

    import semidec.families

    monkeypatch.setattr(semidec.families, "_FAMILIES", {})  # the base is not kept past this test
    start = time.monotonic()
    with pytest.raises(SizeLimitExceeded, match=r"quotient T_5\(Z_2\)/central \(32768 orbits\)"):
        build_family(FamilySpec("PT", 5, z2))
    assert time.monotonic() - start < 10
