import hashlib
import json
import random
import re

import numpy as np
import pytest

import semidec.decomp as decomp
from conftest import (_ring, cached_field_plan, cached_ring_plan, certificate_document, expand_document, read_document,
                      run_cli, run_python)
from oracles import depth_analysis
from semidec.carriers import CHILDREN, STEP_FIELDS
from semidec.decomp import check_scaling_group_embedding, induction_step, verify_census
from semidec.errors import (CensusMismatch, DimensionMismatch, DimensionTooSmall, FieldRequired, InvalidSpec,
                            PipelineCheckFailed)
from semidec.families import family
from semidec.monoid import Monoid, greens, is_aperiodic, is_group, maximal_subgroup
from semidec.witness import document_to_json, verify


def test_induction_example_values(z2, fam):
    w = induction_step(2, z2)
    t2 = fam("T", 2, "2")
    s = ((1, 1), (0, 1))
    target = w.image_submonoid().elements[w.preimages()[t2.index[s]]]
    (table, top_block), scalar = target
    assert top_block == fam("T", 1, "2").index[((1,),)]
    assert scalar == ((1,),)
    as1 = fam("AS", 1, "2")
    ident_map, shift_map = as1.index[(0, 1)], as1.index[(1, 0)]
    assert table == (ident_map, shift_map)  # slot X=0 fixes, slot X=1 translates


@pytest.mark.parametrize(
    "n,ring_spec,expected",
    [(2, "2", 8), (2, "3", 27), (2, "bool", 8), (3, "2", 64)],
)
def test_induction_closures(n, ring_spec, expected, request):
    ring = request.getfixturevalue({"2": "z2", "3": "z3", "bool": "boolean"}[ring_spec])
    w = induction_step(n, ring)
    assert w.verified
    assert w.closure_size == expected


@pytest.mark.parametrize("n,ring_spec,expected", [(2, "2", 8), (2, "3", 27), (2, "bool", 8)])
def test_ring_pipeline_degree_two(ring_plan, n, ring_spec, expected):
    plan = ring_plan(n, ring_spec)
    assert plan.composite.verified
    assert plan.composite.closure_size == expected
    assert all(w.verified for w in plan.witnesses)
    assert plan.skeleton[-1].startswith("T_1")


def test_ring_pipeline_degree_three(ring_plan):
    plan = ring_plan(3, "2")
    assert all(w.verified for w in plan.witnesses)
    assert plan.composite.verified
    assert plan.composite.closure_size == 64
    assert plan.skeleton == ["AS_2(Z_2)", "AS_1(Z_2)", "T_1(Z_2)^3"]


def test_ring_pipeline_terms_tagged(ring_plan):
    plan = ring_plan(2, "2")
    names = [t.name for t in plan.terms]
    assert names == ["AS_1(Z_2)", "T_1(Z_2)^2"]
    assert plan.group_length is None


@pytest.mark.parametrize("n,ring_spec", [(2, "2"), (2, "3"), (3, "2")])
def test_field_pipeline_group_length(field_plan, n, ring_spec):
    plan = field_plan(n, ring_spec)
    assert plan.group_length == n - 1
    tags = [t.tag for t in plan.terms]
    assert all(tag in ("group", "aperiodic") for tag in tags)
    assert all(a != b for a, b in zip(tags, tags[1:]))


def test_field_pipeline_terms_z3(field_plan):
    plan = field_plan(2, "3")
    by_name = {t.name: t for t in plan.terms}
    inner = by_name["AS*_1(Z_3) x T*_1(Z_3)^2"]
    assert inner.tag == "group" and inner.order == 24
    assert by_name["(Z_3^1)~"].order == 4
    assert by_name["U_1^2"].order == 4


def test_field_pipeline_term_monoids_pass_predicates(field_plan, fam):
    plan = field_plan(3, "2")
    for term in plan.terms:
        if term.name.startswith("AS*") and "x" not in term.name:
            i = int(term.name.split("_")[1].split("(")[0])
            assert is_group(fam("AS*", i, "2"))
        if term.name.startswith("("):
            assert term.tag == "aperiodic"


def test_field_matches_ring_skeleton(field_plan, ring_plan):
    assert field_plan(2, "3").skeleton == ring_plan(2, "3").skeleton
    assert field_plan(3, "2").skeleton == ring_plan(3, "2").skeleton


def test_field_requires_field(boolean):
    with pytest.raises(FieldRequired):
        decomp.field_pipeline(2, boolean)


@pytest.mark.parametrize("m,n,ring_spec", [(1, 2, "2"), (1, 2, "3"), (1, 3, "2"), (2, 3, "2")])
def test_scaling_group_embeddings(m, n, ring_spec, request):
    ring = request.getfixturevalue({"2": "z2", "3": "z3"}[ring_spec])
    check_scaling_group_embedding(m, n, ring)


def test_argument_checks_are_typed(z2, boolean):
    # typed errors, not asserts, which python -O strips
    with pytest.raises(DimensionTooSmall, match="induction_step needs degree >= 2"):
        induction_step(1, z2)
    for pipeline in (decomp.ring_pipeline, decomp.field_pipeline):
        with pytest.raises(DimensionTooSmall, match="pipeline needs degree >= 2"):
            pipeline(1, z2)
    with pytest.raises(DimensionMismatch):
        check_scaling_group_embedding(2, 2, z2)
    with pytest.raises(FieldRequired):
        check_scaling_group_embedding(1, 2, boolean)


def test_scaling_group_embedding_failure_is_typed(z2, monkeypatch):
    # T*_2's products answer a * b = a, so the block compare sees a non-homomorphism
    t_star = family("T*", 2, z2)
    monkeypatch.setattr(t_star, "products", lambda rows, cols: np.broadcast_to(np.asarray(rows)[:, None],
                                                                               (len(rows), len(cols))))
    with pytest.raises(PipelineCheckFailed, match="multiplicative"):
        check_scaling_group_embedding(1, 2, z2)


def test_term_tag_check_survives_optimize(tmp_path):
    # with asserts stripped, a term whose tag predicate fails still stops
    # the pipeline with a typed error instead of writing a plan
    plan = tmp_path / "plan.json"
    proc = run_cli(["decompose", "--pipeline", "field", "--n", "2", "--ring", "zp:2", "--plan", str(plan)],
                   optimize=True, prelude="import semidec.decomp\nsemidec.decomp.is_group = lambda m: False")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: PipelineCheckFailed: term tag: "), proc.stderr
    assert "is a group" in proc.stderr
    assert not plan.exists() and proc.stdout == ""


def test_witnesses_reverify_from_json(field_plan):
    plan = field_plan(2, "2")
    for w in [plan.composite, plan.witnesses[0], plan.witnesses[-1]]:
        (restored,) = read_document(document_to_json([w]))
        verify(restored)
        assert restored.closure_size == w.closure_size


GATE_PIPELINES = [("field", 3, "2"), ("field", 2, "3"), ("field", 3, "3"), ("ring", 3, "2"), ("ring", 2, "bool")]
GATE_IDS = [f"{pipeline} n={n} {spec}" for pipeline, n, spec in GATE_PIPELINES]


def _gate_document(pipeline, n, spec):
    plan = (cached_field_plan if pipeline == "field" else cached_ring_plan)(n, spec)
    witnesses = plan.witnesses + ([plan.composite] if plan.composite is not None else [])
    return witnesses, json.loads(json.dumps(document_to_json(plan.witnesses, plan.composite)))


@pytest.mark.parametrize("pipeline, n, spec", GATE_PIPELINES, ids=GATE_IDS)
def test_document_states_each_descriptor_once(pipeline, n, spec):
    # no two entries of either table are equal, nor two descriptor entries
    # but for their labels, no entry holds a descriptor written out, every
    # child points to an earlier entry, every step entry's descriptor field
    # into the table, every certificate into both tables, and every step
    # entry is referenced.  From degree 3 on, the field pipeline lifts its
    # top-level replacement on the chain's own traced left monoid.
    witnesses, document = _gate_document(pipeline, n, spec)
    entries, steps = document["descriptors"], document["steps"]
    for table in (entries, steps):
        keys = [json.dumps(entry, sort_keys=True) for entry in table]
        assert len(set(keys)) == len(keys)
    unlabelled = [json.dumps({k: v for k, v in entry.items() if k != "label"}, sort_keys=True) for entry in entries]
    assert len(set(unlabelled)) == len(unlabelled)
    if pipeline == "field" and n >= 3:
        (top_lift,) = [w for w in witnesses if w.label.startswith("lift_right(")]
        (chain_lift,) = [w for w in witnesses if w.label.startswith(f"lift_left(T_{n - 1}(")]
        assert top_lift.source is chain_lift.source

    def points_below(ref, bound):
        return type(ref) is int and 0 <= ref < bound

    for i, entry in enumerate(entries):
        for field, value in entry.items():
            if field in CHILDREN[entry["kind"]]:
                assert points_below(value, i), (i, field)
            else:
                assert not (isinstance(value, dict) and "kind" in value), (i, field)
    for step in steps:
        refs = [v for k, v in step.items() if k in STEP_FIELDS] + list(step.get("restrict", {}).values())
        assert all(points_below(ref, len(entries)) for ref in refs), step
        assert not any(isinstance(v, dict) and "kind" in v for v in step.values()), step
    certificates = document["certificates"] + ([document["composite"]] if "composite" in document else [])
    referenced = set()
    for cert in certificates:
        target = cert["target"] if "target" in cert else entries[cert["image"]]["carrier"]
        assert all(points_below(ref, len(entries)) for ref in (cert["source"], target)), cert["label"]
        assert all(points_below(ref, len(steps)) for ref in cert["steps"]), cert["label"]
        referenced.update(cert["steps"])
    assert referenced == set(range(len(steps)))


# (closure size, pair count) of each certificate, the composite last, the
# sha256 of the compact sorted-key document, and that of its descriptor and
# step tables: a change that keeps every proof keeps the first and the last,
# and one that reorders, drops or alters a certificate does not.  The tables
# hash as they did when every certificate stated its target and pairs.
PINNED_DOCUMENTS = {
    ("field", 3, "2"): (
        [(8, 4), (8, 4), (64, 7), (64, 7), (64, 7), (64, 7), (16, 5), (64, 7), (6, 4), (20, 8), (160, 7), (2, 2),
         (8, 4), (8, 4), (8, 4), (6, 3), (6, 3), (6, 3), (16, 5), (32, 6), (32, 6), (48, 6), (48, 6), (48, 6),
         (48, 6), (64, 7)],
        "6dd49be379410f6beff8b988b69d3eceb4e01966d676bb2b63210ce3355b0a7c",
        "ca121a1194cae0d7bcf04834129135e9ca1ab4f08dcbceab8f6aef37683d74a2",
    ),
    ("field", 2, "3"): (
        [(27, 6), (27, 6), (114, 9), (126, 6), (4, 3), (16, 5), (16, 5), (16, 5), (168, 6), (456, 8), (168, 6),
         (96, 7), (144, 8), (144, 8), (672, 8), (672, 8), (672, 8), (672, 8), (27, 6)],
        "2017b4fc98dfd62466bd81a50d21ec723a1b389a5a33f5f3f94e47d2911491bb",
        "51fbed5f55d62a21736f65fe265ebc5e029e5792c5cf38815ddfce7ff4d9b1bc",
    ),
    ("ring", 2, "bool"): (
        [(8, 4), (8, 4), (8, 4)],
        "fa47863d9fb16701360f0eb7acb30cc3370ffb060c97f7ad8544c793c054b101",
        "76824821ce86b121ebc4df55ca7e5252667cea0e8ce26d27b74c12297808a5b1",
    ),
}


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("pipeline, n, spec", list(PINNED_DOCUMENTS),
                         ids=[f"{pipeline} n={n} {spec}" for pipeline, n, spec in PINNED_DOCUMENTS])
def test_pipeline_certificates_are_pinned(pipeline, n, spec):
    plan = (cached_field_plan if pipeline == "field" else cached_ring_plan)(n, spec)
    document = document_to_json(plan.witnesses, plan.composite)
    shapes = [(cert["verdict"]["closure_size"], len(cert["pairs"] if "pairs" in cert else cert["sources"]))
              for cert in document["certificates"] + [document["composite"]]]
    tables = _sha256([document["descriptors"], document["steps"]])
    assert (shapes, _sha256(document), tables) == PINNED_DOCUMENTS[pipeline, n, spec]


@pytest.mark.parametrize("pipeline, n, spec", GATE_PIPELINES, ids=GATE_IDS)
def test_expanded_document_is_the_in_memory_witnesses(pipeline, n, spec):
    # expanding the descriptor and step references gives each witness's
    # source, target and steps, and the witnesses read back write the same
    # document
    witnesses, document = _gate_document(pipeline, n, spec)
    expanded = expand_document(document)
    assert len(expanded) == len(witnesses)
    restored = read_document(document)
    for w, cert, r in zip(witnesses, expanded, restored):
        in_memory = json.loads(json.dumps([w.source.descriptor(), w.target.descriptor(), w.steps]))
        assert [cert["source"], cert["target"], cert["steps"]] == in_memory, w.label
        # a witness read back holds its steps' descriptors nested, as in memory
        assert r.steps == in_memory[2], w.label
    for r in restored:
        verify(r)
    composite = restored.pop() if "composite" in document else None
    assert json.loads(json.dumps(document_to_json(restored, composite))) == document


# the sha256 of the field n=3 zp:2 document with every certificate stating its
# target and pairs, as documents were written before certificates named their images
FULL_FORM_SHA256 = "3c54a8752a83d13ba992ef325c381012e7e49077319a1d580ea4450c5da7adb0"


@pytest.mark.parametrize("seed", [1, 2])
def test_images_do_not_depend_on_certificate_order(tmp_path, capsys, seed):
    # the benchmark's recheck shuffles a bundle's certificates by a seed; an
    # image names a descriptor entry, not a certificate, so every certificate
    # still verifies with its stored closure size.  Written out in the full
    # form, the document is the one earlier versions wrote, and it verifies
    # with the same output.
    from semidec.cli import main

    _, document = _gate_document("field", 3, "2")
    shuffled = json.loads(json.dumps(document))
    random.Random(seed).shuffle(shuffled["certificates"])
    certificates = shuffled["certificates"] + [shuffled["composite"]]
    assert [c["label"] for c in certificates] != [c["label"] for c in document["certificates"]]
    assert any("image" in c for c in certificates)
    for cert, w in zip(certificates, read_document(shuffled), strict=True):
        assert verify(w).closure_size == cert["verdict"]["closure_size"], w.label

    full = certificate_document(*expand_document(document))
    *written, composite = full["certificates"]
    full.update(certificates=written, composite=composite)
    assert not any("image" in c for c in written + [composite])
    assert _sha256(full) == FULL_FORM_SHA256
    outputs = []
    for name, payload in (("image.json", document), ("full.json", full)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].count(": verified closure=") == 26


def test_depth_analysis_comparisons(fam):
    out = depth_analysis(fam("T", 2, "3"))
    assert out["depth_report"].depth == 2
    assert out["comparison"] == {
        "depth_decomposition_group_length": 2,
        "pipeline_group_length": 1,
        "depth_suboptimal": True,
    }
    out = depth_analysis(fam("T", 2, "2"))
    assert out["depth_report"].depth == 1
    assert out["comparison"]["depth_suboptimal"] is False


def test_depth_analysis_ut3(fam):
    out = depth_analysis(fam("UT", 3, "2"))
    rep = out["depth_report"]
    assert rep.depth == 2
    assert out["comparison"] == {
        "depth_decomposition_group_length": 2,
        "pipeline_group_length": 2,
        "depth_suboptimal": False,
    }
    assert rep.census == (1, 3)
    assert out["k_terms"][0]["subgroup_orders"] == [8]
    assert out["k_terms"][1]["subgroup_orders"] == [2, 2, 2]


def test_census_z2(z2):
    rep = verify_census(3, z2)
    assert rep["T"]["census"] == [1, 3]
    assert rep["T"]["subgroup_orders_per_depth"] == [8, 2]
    assert rep["UT"]["depth"] == 2
    rep = verify_census(2, z2)
    assert rep["UT"]["subgroup_orders_per_depth"] == [2]


def test_census_z3(z3):
    rep = verify_census(2, z3)
    assert rep["T"]["depth"] == 2
    assert rep["T"]["subgroup_orders_per_depth"] == [12, 2]
    assert rep["PT"]["depth"] == 1
    assert rep["PT"]["subgroup_orders_per_depth"] == [6]


def test_census_mismatch_detected(z3, monkeypatch):
    # force a wrong unit-group family for UT and expect the census to object
    monkeypatch.setitem(decomp._CENSUS_STARS, "UT", "T*")
    with pytest.raises(CensusMismatch):
        verify_census(2, z3, kinds=("UT",))


def test_census_rejects_non_field_pt(boolean):
    with pytest.raises(FieldRequired):
        verify_census(2, boolean, kinds=("PT",))


def test_census_rejects_an_unknown_kind_before_building(z3, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"built {args[:2]}")

    monkeypatch.setattr(decomp, "family", refuse)
    with pytest.raises(InvalidSpec, match="'T\\*'"):
        verify_census(2, z3, kinds=("T", "T*"))


def test_census_detects_the_opposite_subgroup(z3, monkeypatch):
    # the opposite of a group is isomorphic to it, so only the explicit
    # restriction map can tell T*_2(Z_3)'s transposed table from its own
    def opposite(m, e):
        sub = maximal_subgroup(m, e)
        return Monoid(sub.elements, sub.identity_value, table=sub.table_array().T, label=sub.label)

    monkeypatch.setattr(decomp, "maximal_subgroup", opposite)
    with pytest.raises(CensusMismatch, match=r"T_2\(Z_3\): class \d+ at depth 0: .* is not multiplicative"):
        verify_census(2, z3, kinds=("T",))


def test_census_reaches_z13():
    # T*_2(Z_13) has 1,872 elements; the restriction map checks it as one block
    rep = verify_census(2, _ring("13"))
    assert rep == {
        "T": {"order": 2197, "depth": 2, "census": [1, 2], "subgroup_orders_per_depth": [1872, 12]},
        "UT": {"order": 52, "depth": 1, "census": [1], "subgroup_orders_per_depth": [13]},
        "PT": {"order": 184, "depth": 1, "census": [1], "subgroup_orders_per_depth": [156]},
    }


def test_census_past_a_lowered_table_bound_is_unchanged(z3, request):
    # the H-classes and quotients of the census multiply through their base,
    # and the restriction maps are checked along the star families' generators
    z5 = _ring("5")
    expected = [verify_census(3, z3), verify_census(2, z5)]
    request.getfixturevalue("lowered_bound")
    assert [verify_census(3, z3), verify_census(2, z5)] == expected


def test_subgroups_and_quotients_past_a_lowered_bound_match_the_tabled(fam, z3, request):
    from semidec.carriers import rebuild
    from semidec.families import MatrixCarrier, _scalar_unit_indices
    from semidec.monoid import quotient_by_central_units

    t3 = fam("T", 3, "3")
    scalars = _scalar_unit_indices(t3, z3)
    diagonal = [e for e in greens(t3).idempotents if all(v in (0, 1) for v in np.diag(t3.elements[e]))]
    tabled = [maximal_subgroup(t3, e) for e in diagonal] + [quotient_by_central_units(t3, scalars)[0]]
    request.getfixturevalue("lowered_bound")
    base = Monoid(t3.elements, t3.identity_value, carrier=MatrixCarrier(z3, 3))
    untabled = [maximal_subgroup(base, e) for e in diagonal] + [quotient_by_central_units(base, scalars)[0]]
    assert base._table is None and max(len(m) for m in tabled) > 64
    for old, new in zip(tabled, untabled):
        assert (new._table is None) == (len(new) > 64), new.label
        assert new.elements == old.elements and np.array_equal(new.table_array(), old.table_array()), new.label
    unit_group = tabled[diagonal.index(t3.identity)]
    for old in (unit_group, tabled[-1]):  # the unit group and the quotient, each from its descriptor
        new = rebuild(old.descriptor())
        assert new._table is None and new.elements == old.elements, old.label


def test_census_mismatch_survives_optimize():
    # the verdict rests on explicit checks, not asserts, so ``python -O`` keeps it
    script = (
        "import semidec.decomp as decomp\n"
        "from semidec.errors import CensusMismatch\n"
        "from semidec.semiring import make_prime_field\n"
        "decomp._CENSUS_STARS['UT'] = 'T*'\n"
        "try:\n"
        "    decomp.verify_census(2, make_prime_field(3), kinds=('UT',))\n"
        "except CensusMismatch as exc:\n"
        "    print('CensusMismatch:', exc)\n"
    )
    proc = run_python(["-c", script], optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert re.match(r"CensusMismatch: UT_2\(Z_3\): class \d+ at depth 0: .* not a bijection", proc.stdout), proc.stdout
