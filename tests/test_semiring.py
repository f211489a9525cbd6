import pytest

from semidec.errors import AxiomViolation, BoundExceeded, NotPrime
from semidec.semiring import (
    PRIME_FIELD_BOUND,
    _field_flag,
    _is_prime,
    from_json,
    make_boolean_semiring,
    make_from_tables,
    make_prime_field,
    to_json,
    units,
    verify_axioms,
)


def test_z2_tables():
    r = make_prime_field(2)
    assert r.add == ((0, 1), (1, 0))
    assert r.mul == ((0, 0), (0, 1))
    assert r.is_field


def test_z3_arithmetic():
    r = make_prime_field(3)
    assert r.add[1][2] == 0
    assert r.mul[2][2] == 1
    assert r.is_field


def test_not_prime():
    with pytest.raises(NotPrime):
        make_prime_field(4)


def test_bound():
    with pytest.raises(BoundExceeded):
        make_prime_field(17)
    assert make_prime_field(17, bound=17).size == 17


def test_boolean():
    b = make_boolean_semiring()
    assert b.size == 2
    assert b.add[1][1] == 1
    assert b.zero == 0 and b.one == 1
    verify_axioms(b.add, b.mul, b.zero, b.one)
    # 1 + x = 0 has no solution, so no field flag despite 1 being invertible
    assert not b.is_field


def test_from_tables_field_flag():
    z2 = make_prime_field(2)
    r = make_from_tables(z2.add, z2.mul, 0, 1)
    assert r.is_field
    b = make_boolean_semiring()
    r = make_from_tables(b.add, b.mul, 0, 1)
    assert not r.is_field


def test_from_tables_rejects_non_associative():
    # xor addition on four elements; mul fixed so (2*2)*3 = 2 but 2*(2*3) = 3
    add = [[i ^ j for j in range(4)] for i in range(4)]
    mul = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 2],
        [0, 3, 2, 2],
    ]
    a, b, c = 2, 2, 3
    assert mul[mul[a][b]][c] != mul[a][mul[b][c]]
    with pytest.raises(AxiomViolation) as err:
        make_from_tables(add, mul, 0, 1)
    assert err.value.law == "multiplicative-associativity"
    x, y, z = err.value.counterexample
    assert mul[mul[x][y]][z] != mul[x][mul[y][z]]


def test_units():
    assert units(make_prime_field(3)) == {1, 2}
    assert units(make_prime_field(2)) == {1}
    assert units(make_boolean_semiring()) == {1}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_units_group(p):
    r = make_prime_field(p)
    u = units(r)
    assert len(u) == p - 1
    # closure, identity, inverses: the units form a group
    assert r.one in u
    for a in u:
        assert any(r.mul[a][b] == r.one and r.mul[b][a] == r.one and b in u for b in u)
        for b in u:
            assert r.mul[a][b] in u


def test_units_group_for_boolean():
    b = make_boolean_semiring()
    u = units(b)
    assert u == {1}
    assert all(b.mul[a][c] in u for a in u for c in u)


def test_zero_one_not_at_front():
    # Z_2 with index 0 holding the field's one and index 1 its zero
    add = [[1, 0], [0, 1]]
    mul = [[0, 1], [1, 1]]
    r = make_from_tables(add, mul, zero=1, one=0, label="Z_2 permuted")
    assert r.zero == 1 and r.one == 0
    assert r.is_field
    assert units(r) == {0}


def test_json_round_trip():
    r = make_prime_field(5)
    r2 = from_json(to_json(r))
    assert r2.add == r.add and r2.mul == r.mul
    assert r2.zero == r.zero and r2.one == r.one
    assert r2.is_field


def test_descriptor_distinguishes_lookalike_labels():
    r = make_prime_field(3)
    assert r.descriptor() == {"builtin": "zp", "p": 3}
    # a user table wearing a builtin-style label still serializes in full
    fake = make_from_tables([[1, 0], [0, 1]], [[0, 1], [1, 1]], zero=1, one=0, label="Z_2")
    assert "table" in fake.descriptor()


@pytest.mark.parametrize("ring", [make_prime_field(p) for p in range(2, PRIME_FIELD_BOUND + 1) if _is_prime(p)]
                         + [make_boolean_semiring()], ids=lambda ring: ring.label)
def test_builtin_rings_satisfy_their_axioms_and_field_flag(ring):
    # the built-in rings are written down from their formulas, not checked on
    # construction; here the formulas are checked against the axioms once
    verify_axioms(ring.add, ring.mul, ring.zero, ring.one)
    assert _field_flag(ring.add, ring.mul, ring.zero, ring.one) == ring.is_field
