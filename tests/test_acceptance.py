"""Acceptance gate: every criterion at its stated size and time bound.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import time

import pytest

from conftest import (_ring, cached_family, cached_field_plan, cached_ring_plan, certificate_document, expand_document,
                      read_document, run_cli)
from propchecks import (
    greens_vs_multiplication_orbits,
    projective_quotient_respects_structure,
    regularity_three_ways,
)
from semidec.decomp import (check_scaling_group_embedding, field_pipeline, induction_step, ring_pipeline,
                             verify_census)
from semidec.errors import AxiomViolation, NotFunctional
from semidec.families import family, transformation_closure, u1
from semidec.monoid import direct_product, is_aperiodic, is_group
from semidec.semiring import make_boolean_semiring, make_from_tables, make_prime_field
from semidec.witness import (
    absorb,
    augmentation,
    document_to_json,
    group_with_zero,
    interchange,
    lift_left,
    lift_right,
    search_division,
    times_to_wreath,
    verify,
)


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_induction_certificates():
    cases = [
        (2, make_prime_field(2), 8),
        (2, make_prime_field(3), 27),
        (2, make_boolean_semiring(), 8),
        (3, make_prime_field(2), 64),
    ]
    timings = []
    for n, ring, expected in cases:
        start = time.monotonic()
        w = induction_step(n, ring)
        elapsed = time.monotonic() - start
        assert w.verified, f"splitting witness failed for n={n} over {ring.label}"
        assert w.closure_size == expected
        assert elapsed < 10.0, f"n={n} {ring.label} took {elapsed:.1f}s"
        timings.append(f"n={n} {ring.label}: {w.closure_size} in {elapsed:.2f}s")
    _report("1 splitting certificates", "; ".join(timings))


def test_criterion_2_ring_chain_end_to_end():
    start = time.monotonic()
    for n, spec, expected in [(2, "2", 8), (2, "3", 27)]:
        plan = cached_ring_plan(n, spec)
        assert plan.composite.verified
        assert plan.composite.closure_size == expected
    plan3 = cached_ring_plan(3, "2")
    assert all(w.verified for w in plan3.witnesses)
    assert plan3.composite.verified and plan3.composite.closure_size == 64
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("2 semiring chain", f"coverage 8/27/64, {elapsed:.1f}s")


def test_criterion_3_field_chain_group_length():
    details = []
    for n, spec in [(2, "2"), (2, "3"), (3, "2")]:
        plan = cached_field_plan(n, spec)
        assert plan.group_length == n - 1
        tags = [t.tag for t in plan.terms]
        assert all(a != b for a, b in zip(tags, tags[1:])), "terms must alternate"
        ring = _ring(spec)
        for term in plan.terms:
            monoid = _term_monoid(term, n, spec)
            if term.tag == "group":
                assert is_group(monoid), term.name
            else:
                assert is_aperiodic(monoid), term.name
        for m in range(1, n):
            check_scaling_group_embedding(m, n, ring)
        details.append(f"n={n} {ring.label}: length {plan.group_length}")
    _report("3 field chain optimal length", "; ".join(details))


def test_reach_end_to_end_over_z3():
    start = time.monotonic()
    plan = field_pipeline(2, _ring("3"))
    field_s = time.monotonic() - start
    inner = plan.witnesses[-1]  # the innermost assembly, composed end to end
    assert inner.verified and inner.steps[-1] == {"kind": "compose"}
    assert inner.source.label == "(AS_1(Z_3) x (T_1(Z_3) x T_1(Z_3)))"
    assert len(plan.notes) == 1
    start = time.monotonic()
    ring_plan = ring_pipeline(3, _ring("3"))
    ring_s = time.monotonic() - start
    assert ring_plan.composite.verified and ring_plan.composite.closure_size == 729
    assert field_s < 15.0 and ring_s < 15.0
    _report("reach over Z_3", f"field n=2 inner closure {inner.closure_size} in {field_s:.1f}s; "
            f"ring n=3 composite 729 in {ring_s:.1f}s")


def _term_monoid(term, n, spec):
    from semidec.carriers import rebuild

    return rebuild(term.descriptor)


def test_criterion_4_census():
    reports = {}
    for n in (2, 3):
        for spec in ("2", "3"):
            reports[(n, spec)] = verify_census(n, _ring(spec))
    assert len(cached_family("T*", 2, "3")) == 12
    assert len(cached_family("T*", 3, "2")) == 8
    assert len(cached_family("PT*", 2, "3")) == 6
    assert len(cached_family("UT*", 2, "2")) == 2
    assert reports[(3, "2")]["T"]["census"] == [1, 3]
    assert reports[(2, "3")]["T"]["depth"] == 2
    assert reports[(2, "3")]["UT"]["depth"] == 1
    assert reports[(3, "3")]["T"]["depth"] == 3
    _report("4 depth census", "T/UT/PT over Z_2 and Z_3 at degrees 2 and 3")


def test_criterion_5_structure_cross_checks():
    violations = 0
    for kind, n, spec in [("T", 2, "2"), ("T", 2, "3"), ("UT", 3, "2")]:
        m = cached_family(kind, n, spec)
        violations += greens_vs_multiplication_orbits(m)
        violations += regularity_three_ways(m, _ring(spec))
    t2 = cached_family("T", 2, "3")
    scalars = [t2.identity, t2.index[((2, 0), (0, 2))]]
    violations += projective_quotient_respects_structure(t2, scalars)
    assert violations == 0
    _report("5 structure cross-checks", "zero violations")


def test_criterion_6_combinator_soundness():
    z2, z3 = make_prime_field(2), make_prime_field(3)
    c2 = transformation_closure([(1, 0)], label="C_2")
    semilattice = u1()
    checks = [
        times_to_wreath(semilattice, semilattice),
        times_to_wreath(c2, semilattice),
        times_to_wreath(cached_family("AS*", 1, "3"), c2),
        interchange(semilattice, semilattice, semilattice, semilattice),
        interchange(c2, semilattice, semilattice, semilattice),
        absorb(semilattice, semilattice, semilattice),
        augmentation(cached_family("AS*", 1, "3")),
        group_with_zero(z3),
        group_with_zero(z2),
        lift_left(search_division(semilattice, direct_product(c2, semilattice)), semilattice),
        lift_right(search_division(semilattice, direct_product(c2, semilattice)), semilattice),
    ]
    assert all(w.verified for w in checks)
    aug = augmentation(cached_family("AS*", 1, "2"))
    assert aug.verified and aug.closure_size == 6
    _report("6 combinator soundness", f"{len(checks) + 1} witnesses verified, augmentation closure 6")


def test_criterion_7_negative_controls():
    z2 = make_prime_field(2)
    w = induction_step(2, z2)
    (blob,) = expand_document(document_to_json([w]))
    blob["pairs"][0][-1], blob["pairs"][1][-1] = blob["pairs"][1][-1], blob["pairs"][0][-1]
    (tampered,) = read_document(certificate_document(blob))
    with pytest.raises(NotFunctional):
        verify(tampered)

    c2 = transformation_closure([(1, 0)], label="C_2")
    assert search_division(u1(), c2) is None

    add = [[i ^ j for j in range(4)] for i in range(4)]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 2], [0, 3, 2, 2]]
    with pytest.raises(AxiomViolation) as err:
        make_from_tables(add, mul, 0, 1)
    assert err.value.law == "multiplicative-associativity"
    assert len(err.value.counterexample) == 3
    _report("7 negative controls", "tampered certificate, impossible division, bad table")


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_criterion_7_tampered_bundle_fails_in_fresh_process(tmp_path, optimize):
    # the verdict must not rest on asserts, which python -O strips
    (blob,) = expand_document(document_to_json([induction_step(2, make_prime_field(2))]))
    blob["pairs"][0][-1], blob["pairs"][1][-1] = blob["pairs"][1][-1], blob["pairs"][0][-1]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(certificate_document(blob)))
    proc = run_cli(["verify", str(path)], optimize)
    assert proc.returncode == 1, proc.stderr
    assert "FAILED NotFunctional" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_criterion_8_deterministic_certificates(tmp_path):
    outputs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        proc = run_cli(["decompose", "--pipeline", "field", "--n", "2", "--ring", "zp:3", "--cert", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert "group_length=1" in proc.stdout
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    _report("8 determinism", f"two fresh runs byte-identical ({len(outputs[0])} bytes)")
