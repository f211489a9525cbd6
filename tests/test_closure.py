"""The closure kernel and the verifier built on it.

Checks the kernel's discovery order and edges, the verifier's verdicts
against the brute-force pair closure, the certificates of the field
pipeline against the brute-force target closure, and that a closed image
rebuilt from its descriptor keeps the verifier's element order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cached_family
from oracles import pair_closure, target_closure
from semidec.carriers import build_monoid
from semidec.errors import NotFunctional, NotSurjective, SizeLimitExceeded, WitnessError
from semidec.families import transformation_closure, u1
from semidec.monoid import Monoid, direct_product, find_generators, isomorphic, right_closure
from semidec.witness import DivisionWitness, verify


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


def test_right_closure_order_and_edges():
    def mul(a, b):
        return a * b % 7

    gens = [3, 3, 2]
    elements, lookup, edges = right_closure(gens, mul, 10, "units mod 7")
    # generators first, then each element times each generator
    assert elements == [3, 2, 6, 4, 5, 1]
    assert lookup == {v: i for i, v in enumerate(elements)}
    assert edges[:2] == [None, None]
    for i, edge in enumerate(edges[2:], start=2):
        parent, g = edge
        assert parent < i
        assert elements[i] == mul(elements[parent], [3, 2][g])


def test_right_closure_limit():
    with pytest.raises(SizeLimitExceeded):
        right_closure([3], lambda a, b: a * b % 7, 5, "units mod 7")


def test_right_closure_key_clash():
    def mul(a, b):
        return (a[0] * b[0] % 3, a[1] * b[1] % 4)

    with pytest.raises(NotFunctional):
        right_closure([(2, 1), (2, 3)], mul, 100, "clash", key=lambda v: v[0])
    elements, _, _ = right_closure([(2, 3)], mul, 100, "no clash", key=lambda v: v[0])
    assert elements == [(2, 3), (1, 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_target_closures_match_oracle(field_plan, n):
    # the first-coordinate projection of every verified closure is the
    # multiplicative closure of the target generators
    plan = field_plan(n, "2")
    for w in plan.witnesses + [plan.composite]:
        closed = {t for t, _ in w.closure_pairs()}
        assert closed == target_closure([t for t, _ in w.pairs], w.target.mul_value), w.label


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
        assert build_monoid(sub.descriptor()).elements == sub.elements, w.label
        checked += 1
    assert checked > 0


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
    w = DivisionWitness(source, target, pairs, label="drawn")
    if isinstance(expected, dict):
        verify(w)
        assert dict(w.closure_pairs()) == expected
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
    w = DivisionWitness(source, target, pairs, label="triple clash")
    with pytest.raises(NotFunctional):
        verify(w)


def _relabel(m: Monoid, perm: list[int]) -> Monoid:
    table = m.table_array()
    out = np.empty_like(table)
    for i in range(len(m)):
        for j in range(len(m)):
            out[perm[i], perm[j]] = perm[table[i, j]]
    return Monoid(list(range(len(m))), perm[m.identity], table=out, label=f"relabelled {m.label}")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generators_generate_and_relabelled_copy_is_isomorphic(data):
    m = SMALL[data.draw(st.sampled_from(sorted(SMALL)))]()
    gens = find_generators(m)
    generated = target_closure([m.elements[g] for g in gens] + [m.identity_value], m.mul_value)
    assert generated == set(m.elements)
    perm = data.draw(st.permutations(range(len(m))))
    assert isomorphic(m, _relabel(m, perm))
