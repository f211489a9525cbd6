import json
import time

import pytest

from conftest import certificate_document, expand_document, read_document, run_cli, run_python
from semidec.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_writes_monoid(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, _ = run(["family", "--kind", "T", "--n", "2", "--ring", "zp:3", "--out", str(out)], capsys)
    assert code == 0
    assert "order=27" in stdout
    payload = json.loads(out.read_text())
    assert payload["size"] == 27
    assert len(payload["elements"]) == 27
    assert "table" in payload


def test_analyze_reports(tmp_path, capsys):
    mon = tmp_path / "m.json"
    run(["family", "--kind", "T", "--n", "2", "--ring", "zp:2", "--out", str(mon)], capsys)
    rep = tmp_path / "rep.json"
    dot = tmp_path / "j.dot"
    code, stdout, _ = run(["analyze", str(mon), "--out", str(rep), "--dot", str(dot)], capsys)
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["greens"]["j_classes"] == 5
    assert payload["depth"]["depth"] == 1
    assert dot.read_text().startswith("digraph")


def test_decompose_field_prints_group_length(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    plan = tmp_path / "plan.json"
    code, stdout, _ = run(
        ["decompose", "--pipeline", "field", "--n", "2", "--ring", "zp:2",
         "--cert", str(cert), "--plan", str(plan)],
        capsys,
    )
    assert code == 0
    assert "group_length=1" in stdout
    bundle = json.loads(cert.read_text())
    assert bundle["plan"]["group_length"] == 1
    assert len(bundle["certificates"]) >= 10


def test_verify_bundle_ok_and_corrupted(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["decompose", "--pipeline", "ring", "--n", "2", "--ring", "zp:2", "--cert", str(cert)], capsys)
    code, stdout, _ = run(["verify", str(cert)], capsys)
    assert code == 0
    assert "verified" in stdout

    bundle = json.loads(cert.read_text())
    target = bundle["certificates"][0]
    target["pairs"][0][-1], target["pairs"][1][-1] = target["pairs"][1][-1], target["pairs"][0][-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    code, stdout, _ = run(["verify", str(bad)], capsys)
    assert code == 1
    assert "NotFunctional" in stdout


def _t2_file(tmp_path, capsys):
    mon = tmp_path / "m.json"
    run(["family", "--kind", "T", "--n", "2", "--ring", "zp:2", "--out", str(mon)], capsys)
    return mon, json.loads(mon.read_text())


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_analyze_rejects_non_associative_table(tmp_path, capsys, optimize):
    mon, payload = _t2_file(tmp_path, capsys)
    table, e = payload["table"], payload["identity"]
    x, y = [v for v in range(len(table)) if v != e][:2]
    table[x][y] = (table[x][y] + 1) % len(table)
    mon.write_text(json.dumps(payload))
    proc = run_cli(["analyze", str(mon)], optimize)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: InvalidMonoid:") and "not associative" in proc.stderr


USAGE_ERRORS = {
    "ring pipeline degree 1": (["decompose", "--pipeline", "ring", "--n", "1", "--ring", "zp:2"], "DimensionTooSmall"),
    "field pipeline degree 1": (["decompose", "--pipeline", "field", "--n", "1", "--ring", "zp:2"],
                                "DimensionTooSmall"),
    "family degree 0": (["family", "--kind", "T", "--n", "0", "--ring", "zp:2"], "DimensionTooSmall"),
    "unknown ring": (["family", "--kind", "T", "--n", "2", "--ring", "foo"], "InvalidSpec"),
    "prime not an integer": (["family", "--kind", "T", "--n", "2", "--ring", "zp:x"], "InvalidSpec"),
    "prime not prime": (["decompose", "--pipeline", "ring", "--n", "2", "--ring", "zp:4"], "NotPrime"),
    "projective family over bool": (["family", "--kind", "PT", "--n", "2", "--ring", "bool"], "FieldRequired"),
    "field pipeline over bool": (["decompose", "--pipeline", "field", "--n", "2", "--ring", "bool"],
                                 "FieldRequired"),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_2(case, optimize):
    argv, error = USAGE_ERRORS[case]
    proc = run_cli(argv, optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {error}: "), proc.stderr


Z2_TABLE = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}

RING_FILES = {
    "no mul": ({key: Z2_TABLE[key] for key in ("add", "zero", "one")}, "InvalidSpec"),
    "ragged": (dict(Z2_TABLE, add=[[0, 1], [1]]), "InvalidSpec"),
    "entry not an integer": (dict(Z2_TABLE, mul=[[0, 0], [0, "x"]]), "InvalidSpec"),
    "not an object": ([[0, 1], [1, 0]], "InvalidSpec"),
    "zero not additive": (dict(Z2_TABLE, zero=1, one=0), "AxiomViolation"),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("case", list(RING_FILES))
def test_ring_file_errors_exit_2(tmp_path, case, optimize):
    table, error = RING_FILES[case]
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(table))
    proc = run_cli(["family", "--kind", "T", "--n", "2", "--ring", f"table:{ring}"], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {error}: "), proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_ring_file_nested_past_the_recursion_limit_exit_2(tmp_path, optimize):
    ring = tmp_path / "deep.json"
    ring.write_text("[" * 200_000)
    proc = run_cli(["family", "--kind", "T", "--n", "2", "--ring", f"table:{ring}"], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: InvalidSpec: ring file "), proc.stderr


def _unreadable_argv(command: str, path: str) -> list[str]:
    return {
        "verify": ["verify", path],
        "analyze": ["analyze", path],
        "search": ["search", "--source", path, "--target", path],
        "export": ["export", path, "--format", "json"],
        "table:": ["family", "--kind", "T", "--n", "2", "--ring", f"table:{path}"],
    }[command]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("kind", ["not UTF-8", "directory"])
@pytest.mark.parametrize("command", ["verify", "analyze", "search", "export", "table:"])
def test_unreadable_input_file_exit_2(tmp_path, command, kind, optimize):
    # bytes that are not UTF-8 text, or a directory, are usage errors and not tracebacks
    path = tmp_path
    if kind == "not UTF-8":
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x80")
    proc = run_cli(_unreadable_argv(command, str(path)), optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_analyze_unknown_report_exit_2(tmp_path, optimize):
    mon = tmp_path / "m.json"
    assert run_cli(["family", "--kind", "T", "--n", "2", "--ring", "zp:2", "--out", str(mon)]).returncode == 0
    proc = run_cli(["analyze", str(mon), "--report", "greens,gren"], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: InvalidSpec: unknown report 'gren'"), proc.stderr


def _entry_out_of_range(payload):
    payload["table"][1][2] = len(payload["table"])


def _float_entry(payload):
    payload["table"][1][2] = 1.5


def _row_missing(payload):
    payload["table"].pop()


def _identity_row_reversed(payload):
    payload["table"][payload["identity"]].reverse()


def _identity_index_out_of_range(payload):
    payload["identity"] = 99


def _no_table(payload):
    del payload["table"]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("entry", ["n", 65536, -1], ids=["order", "past uint16", "negative"])
def test_table_entry_outside_the_elements_exit_2(tmp_path, capsys, entry, optimize):
    # tables are uint16, so an entry is range-checked before the cast: none may wrap onto an element
    mon, payload = _t2_file(tmp_path, capsys)
    payload["table"][1][2] = len(payload["table"]) if entry == "n" else entry
    mon.write_text(json.dumps(payload))
    proc = run_cli(["analyze", str(mon)], optimize)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: InvalidMonoid: ") and "table entry out of range 0..7" in proc.stderr


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_entry_out_of_range, "out of range"),
        (_float_entry, "array of element indices"),
        (_row_missing, "array of element indices"),
        (_identity_row_reversed, "identity is not two-sided"),
        (_identity_index_out_of_range, "identity index 99"),
        (_no_table, "array of element indices"),
    ],
    ids=["range", "entry type", "shape", "identity", "identity index", "no table"],
)
def test_monoid_file_checked_before_analysis(tmp_path, capsys, corrupt, message):
    mon, payload = _t2_file(tmp_path, capsys)
    corrupt(payload)
    mon.write_text(json.dumps(payload))
    for argv in (["analyze", str(mon)], ["search", "--source", str(mon), "--target", str(mon)]):
        code, stdout, stderr = run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: InvalidMonoid:") and message in stderr


def _hex_key(value):
    """An element in the earlier monoid-file format: the hex of its bytes written as nested parentheses."""
    return json.dumps(value, separators=(",", ":")).replace("[", "(").replace("]", ")").encode().hex()


def _nested(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


def _set_element(i, value):
    def corrupt(payload):
        payload["elements"][i] = value
    return corrupt


MALFORMED_MONOIDS = {
    "not an object": lambda payload: [payload],
    "elements not a list": lambda payload: dict(payload, elements={"0": payload["elements"][0]}),
    "elements missing": lambda payload: {k: v for k, v in payload.items() if k != "elements"},
    "identity missing": lambda payload: {k: v for k, v in payload.items() if k != "identity"},
    "identity not an int": lambda payload: dict(payload, identity=str(payload["identity"])),
    "earlier hex file": lambda payload: dict(payload, elements=[_hex_key(v) for v in payload["elements"]]),
    "bad hex": _set_element(1, "28zz"),
    "non-int token": _set_element(1, [[0, "x"], [0, 1]]),
    "boolean": _set_element(1, True),
    "boolean entry": _set_element(1, [[True, False], [0, 1]]),
    "duplicate elements": lambda payload: dict(payload, elements=[payload["elements"][0], *payload["elements"][:-1]]),
    # json parses 900 levels; decoding them as a value passes the default recursion limit of 1000
    "nested past the recursion limit": _set_element(1, _nested(900)),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("case", list(MALFORMED_MONOIDS))
def test_malformed_monoid_file_exit_2(tmp_path, capsys, case, optimize):
    mon, payload = _t2_file(tmp_path, capsys)
    mon.write_text(json.dumps(MALFORMED_MONOIDS[case](payload)))
    for argv in (["analyze", str(mon)], ["search", "--source", str(mon), "--target", str(mon)]):
        proc = run_cli(argv, optimize)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: InvalidMonoid: "), proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_json_nested_past_the_recursion_limit_exit_2(tmp_path, optimize):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (["verify", str(deep)], ["analyze", str(deep)], ["export", str(deep), "--format", "json"]):
        proc = run_cli(argv, optimize)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: invalid JSON: "), proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_family_file_round_trips_through_analyze(tmp_path, fam, optimize):
    from semidec.keys import value_json
    from semidec.monoid import from_json

    mon = tmp_path / "m.json"
    proc = run_cli(["family", "--kind", "T", "--n", "2", "--ring", "zp:3", "--out", str(mon)], optimize)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(mon.read_text())
    t2 = fam("T", 2, "3")
    assert payload["elements"] == [value_json(v) for v in t2.elements]
    back = from_json(payload)
    assert back.elements == t2.elements and (back.table_array() == t2.table_array()).all()
    proc = run_cli(["analyze", str(mon)], optimize)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[0])
    assert (report["label"], report["order"]) == (t2.label, 27)


def test_search_not_found(tmp_path, capsys):
    u1_file = tmp_path / "u1.json"
    c2_file = tmp_path / "c2.json"
    run(["family", "--kind", "U1", "--n", "1", "--ring", "zp:2", "--out", str(u1_file)], capsys)
    from semidec.families import transformation_closure
    from semidec.monoid import to_json

    c2_file.write_text(json.dumps(to_json(transformation_closure([(1, 0)], label="C_2"))))
    code, stdout, _ = run(["search", "--source", str(u1_file), "--target", str(c2_file)], capsys)
    assert code == 1
    assert "NotFound" in stdout
    code, stdout, _ = run(["search", "--source", str(c2_file), "--target", str(c2_file)], capsys)
    assert code == 0
    assert "found" in stdout


def test_search_out_needs_provenance_that_rebuilds(tmp_path, capsys):
    u1_file, t1_file = tmp_path / "u1.json", tmp_path / "t1.json"
    run(["family", "--kind", "U1", "--n", "1", "--ring", "zp:2", "--out", str(u1_file)], capsys)
    run(["family", "--kind", "T", "--n", "1", "--ring", "zp:2", "--out", str(t1_file)], capsys)
    found = tmp_path / "found.json"
    code, stdout, _ = run(["search", "--source", str(u1_file), "--target", str(t1_file), "--out", str(found)],
                          capsys)
    assert code == 0 and "found" in stdout
    code, stdout, _ = run(["verify", str(found)], capsys)
    assert code == 0 and "verified" in stdout

    payload = json.loads(t1_file.read_text())
    bare, other = dict(payload), dict(payload)
    del bare["provenance"]
    other["provenance"] = {"kind": "family", "family": "U1"}  # same order, other element values
    for broken, message in ((bare, "provenance does not rebuild"), (other, "rebuilds to another monoid")):
        t1_file.write_text(json.dumps(broken))
        out = tmp_path / "not-written.json"
        code, stdout, stderr = run(["search", "--source", str(u1_file), "--target", str(t1_file),
                                    "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: InvalidMonoid: ") and message in stderr, stderr
        assert not out.exists()


def test_fresh_process_search_out_then_verify(tmp_path):
    u1_file, t1_file, found = tmp_path / "u1.json", tmp_path / "t1.json", tmp_path / "found.json"
    for kind, path in (("U1", u1_file), ("T", t1_file)):
        proc = run_cli(["family", "--kind", kind, "--n", "1", "--ring", "zp:2", "--out", str(path)])
        assert proc.returncode == 0, proc.stderr
    proc = run_cli(["search", "--source", str(u1_file), "--target", str(t1_file), "--out", str(found)])
    assert proc.returncode == 0 and "result=found" in proc.stdout, proc.stderr
    document = json.loads(found.read_text())
    assert sorted(document) == ["certificates", "descriptors", "steps"] and len(document["certificates"]) == 1
    proc = run_cli(["verify", str(found)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("certificate 0 (") and ": verified closure=" in proc.stdout


def test_export_formats(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    run(["decompose", "--pipeline", "field", "--n", "2", "--ring", "zp:2", "--plan", str(plan)], capsys)
    code, stdout, _ = run(["export", str(plan), "--format", "text"], capsys)
    assert code == 0
    assert "group_length=1" in stdout
    assert "aperiodic" in stdout
    # dot export needs a depth report, not a plan
    code, _, stderr = run(["export", str(plan), "--format", "dot"], capsys)
    assert code == 1
    assert "UnsupportedFormat" in stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["decompose", "--pipeline", "nonsense", "--n", "2", "--ring", "zp:2"])
    assert err.value.code == 2


def test_env_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEMIDEC_LIMIT", "4")
    code, _, stderr = run(["family", "--kind", "T", "--n", "2", "--ring", "zp:3", "--out", str(tmp_path / "x.json")], capsys)
    assert code == 1
    assert "SizeLimitExceeded" in stderr


def test_env_limit_not_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEMIDEC_LIMIT", "abc")
    with pytest.raises(SystemExit) as err:
        main(["verify", str(tmp_path / "cert.json")])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert [line for line in stderr.splitlines() if "error:" in line] == [
        "semidec verify: error: argument --limit: invalid int value: 'abc'"
    ]
    assert "Traceback" not in stderr


def test_verify_truncated_json(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["decompose", "--pipeline", "ring", "--n", "2", "--ring", "zp:2", "--cert", str(cert)], capsys)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(cert.read_text()[:100])
    code, stdout, stderr = run(["verify", str(truncated)], capsys)
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: invalid JSON:")


def test_fresh_process_decompose_then_verify(tmp_path):
    cert = tmp_path / "cert.json"
    proc = run_cli(["decompose", "--pipeline", "ring", "--n", "2", "--ring", "zp:2", "--cert", str(cert)])
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["verify", str(cert)])
    assert proc.returncode == 0, proc.stderr
    assert "verified" in proc.stdout


def test_fresh_process_decompose_then_verify_under_optimize(tmp_path):
    # with asserts stripped, the field bundle is written and re-checked in full:
    # one verified line for each of its 18 certificates and for the composite
    cert = tmp_path / "cert.json"
    proc = run_cli(["decompose", "--pipeline", "field", "--n", "2", "--ring", "zp:2", "--cert", str(cert)],
                   optimize=True)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["verify", str(cert)], optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(": verified closure=") == 18 + 1, proc.stdout


@pytest.fixture(scope="module")
def sound_bundle(tmp_path_factory):
    cert = tmp_path_factory.mktemp("bundle") / "cert.json"
    assert main(["decompose", "--pipeline", "ring", "--n", "2", "--ring", "zp:2", "--cert", str(cert)]) == 0
    return cert


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("limit", ["0", "-5", "env"])
@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_limit_below_one_is_a_usage_error(sound_bundle, monkeypatch, command, limit, optimize):
    # a limit below 1 would fail every closure, even of a sound certificate,
    # as SizeLimitExceeded; it is refused before any command runs
    argv = {"verify": ["verify", str(sound_bundle)],
            "decompose": ["decompose", "--pipeline", "ring", "--n", "2", "--ring", "zp:2"]}[command]
    if limit == "env":
        monkeypatch.setenv("SEMIDEC_LIMIT", "0")
        limit = "0"
    else:
        argv += ["--limit", limit]
    proc = run_cli(argv, optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        f"semidec: error: argument --limit: must be at least 1, not {limit}"
    ]


_LAZY = ("import atexit, sys\n"
         "atexit.register(lambda: print('loaded', [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules],"
         " file=sys.stderr))")


def test_fresh_process_loads_neither_numpy_ma_nor_numpy_random():
    # numpy imports both lazily, at a cost in start-up time and memory per
    # process; neither a decompose nor a census needs them
    proc = run_cli(["decompose", "--pipeline", "field", "--n", "2", "--ring", "zp:2"], prelude=_LAZY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["loaded []"]
    census = ("from semidec.decomp import verify_census\nfrom semidec.semiring import make_prime_field\n"
              "verify_census(2, make_prime_field(2))")
    proc = run_python(["-c", f"{_LAZY}\n{census}"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["loaded []"]


def test_analyze_highlights_all_essential_classes(tmp_path, capsys):
    mon = tmp_path / "m.json"
    run(["family", "--kind", "T", "--n", "2", "--ring", "zp:3", "--out", str(mon)], capsys)
    dot = tmp_path / "j.dot"
    run(["analyze", str(mon), "--dot", str(dot)], capsys)
    # units class plus the two rank-one classes with non-trivial subgroups
    assert dot.read_text().count("peripheries=2") == 3


_DEPTH = {"j_class_count": 2, "class_sizes": [1, 3], "essential": [0], "order_pairs": [[1, 0]]}
MALFORMED_REPORTS = {
    "list text": ([3], "text"),
    "string text": ("x", "text"),
    "string dot": ("x", "dot"),
    "terms not a list": ({"terms": 5}, "text"),
    "term not an object": ({"terms": [5]}, "text"),
    "term without tag": ({"terms": [{"name": "U_1", "order": 2}]}, "text"),
    "bool order": ({"terms": [{"name": "U_1", "tag": "aperiodic", "order": True}]}, "text"),
    "empty list dot": ([], "dot"),
    "depth not an object": ({"depth": 5}, "dot"),
    "class count mismatch": ({"depth": dict(_DEPTH, j_class_count=3)}, "dot"),
    "class sizes not ints": ({"depth": dict(_DEPTH, class_sizes=[1, "3"])}, "dot"),
    "essential past the count": ({"depth": dict(_DEPTH, essential=[2])}, "dot"),
    "order pair past the count": ({"depth": dict(_DEPTH, order_pairs=[[5, 0]])}, "dot"),
    "order pair not a pair": ({"depth": dict(_DEPTH, order_pairs=[1])}, "dot"),
    "malformed depth in text": ({"depth": dict(_DEPTH, essential=[-1])}, "text"),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("case", list(MALFORMED_REPORTS))
def test_export_malformed_report_exit_2(tmp_path, case, optimize):
    # the report's shape is checked in full before it is rendered
    payload, fmt = MALFORMED_REPORTS[case]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    proc = run_cli(["export", str(path), "--format", fmt], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: InvalidReport: "), proc.stderr


def test_export_renders_a_well_formed_depth(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"depth": _DEPTH}))
    proc = run_cli(["export", str(path), "--format", "dot"])
    assert proc.returncode == 0, proc.stderr
    assert "J0 -> J1;" in proc.stdout and 'J0 [label="J0 (size 1)", style="bold"' in proc.stdout


def test_dot_from_analyze_matches_export(tmp_path, capsys):
    mon = tmp_path / "m.json"
    run(["family", "--kind", "T", "--n", "2", "--ring", "zp:3", "--out", str(mon)], capsys)
    rep = tmp_path / "rep.json"
    dot = tmp_path / "j.dot"
    run(["analyze", str(mon), "--out", str(rep), "--dot", str(dot)], capsys)
    exported = tmp_path / "export.dot"
    code, _, _ = run(["export", str(rep), "--format", "dot", "--out", str(exported)], capsys)
    assert code == 0
    assert exported.read_bytes() == dot.read_bytes()
    assert dot.read_text().count("peripheries=2") == 3


@pytest.fixture(scope="module")
def split_certificate():
    """The degree-2 split over Z_2: a product carrier over a wreath context."""
    from semidec.decomp import induction_step
    from semidec.semiring import make_prime_field
    from semidec.witness import document_to_json

    (cert,) = expand_document(document_to_json([induction_step(2, make_prime_field(2))]))
    return cert


# A pair is one int row: the target row [f_0, f_1, a, c] of a value ((f, a), c)
# of (AS_1(Z_2) wr T_1(Z_2)) x T_1(Z_2), then the index of a T_2(Z_2) element;
# |AS_1(Z_2)| = 4, |T_1(Z_2)| = 2 and |T_2(Z_2)| = 8.


def _foreign_source_value(cert):
    cert["pairs"][0][-1] = [[5, 5], [5, 5]]


def _string_value(cert):
    cert["pairs"][0][-1] = "x"


def _unknown_descriptor_kind(cert):
    cert["source"]["kind"] = "bogus"


def _unknown_builtin_ring(cert):
    cert["source"]["ring"]["builtin"] = "bogus"


def _non_prime_ring(cert):
    cert["source"]["ring"]["p"] = 4


def _no_pairs(cert):
    del cert["pairs"]


def _foreign_top_value(cert):
    cert["pairs"][0][0] = 7


def _foreign_base_value(cert):
    cert["pairs"][0][2] = 7


def _short_wreath_table(cert):
    del cert["pairs"][0][1]


def _extra_component(cert):
    cert["pairs"][0].append([[0]])


def _ring_axiom_broken(cert):
    cert["source"]["ring"] = {"table": dict(Z2_TABLE, zero=1, one=0)}


# index corruptions of a row [f_0, f_1, a, ...] that starts with a value of
# AS_1(Z_2) wr T_1(Z_2); numpy would wrap the negative ones


def _negative_top_index(row):
    row[0] = -1


def _top_index_past_end(row):
    row[0] = 4


def _base_index_past_end(row):
    row[2] = 2


def _negative_base_index(row):
    row[2] = -1


def _huge_top_index(row):
    row[0] = 2**70


def _value_tuple_entry(row):
    row[0] = [0, 1]  # the identity map of AS_1(Z_2) as a value, not an index


INDEX_CORRUPTIONS = [_negative_top_index, _top_index_past_end, _base_index_past_end, _negative_base_index,
                     _huge_top_index, _value_tuple_entry]
INDEX_IDS = ["negative top index", "top index past end", "base index past end", "negative base index",
             "huge top index", "value tuple entry"]


# corruptions that only the row form has: entries JSON can hold but a row
# of int32 indices cannot, rows of the wrong width, and source indices


def _bool_entry(row):
    row[0] = True  # as an int, 1 would be a top index


def _float_entry(row):
    row[0] = float(row[0])


def _int32_overflow(row):
    row[0] = 2**31


def _row_short(row):
    row.pop()


def _row_long(row):
    row.append(0)


def _negative_source_index(row):
    row[-1] = -1


def _source_index_past_end(row):
    row[-1] = 8


ROW_CORRUPTIONS = [_bool_entry, _float_entry, _int32_overflow, _row_short, _row_long, _negative_source_index,
                   _source_index_past_end]
ROW_IDS = ["bool entry", "float entry", "int past int32", "row short", "row long", "source index -1",
           "source index past end"]


def _nested_pair(cert):
    # the first pair of this certificate as earlier versions wrote it: the
    # target value and the source matrix as nested values
    cert["pairs"][0] = [[[[2, 2], 1], [[1]]], [[1, 0], [0, 1]]]


def _in_first_pair(corrupt):
    def apply(cert):
        corrupt(cert["pairs"][0])

    return apply


def _wreath_top(cert):
    cert["target"]["left"]["top"] = json.loads(json.dumps(cert["target"]["left"]))


def _product_top(cert):
    cert["target"]["left"]["top"] = json.loads(json.dumps(cert["target"]))


def _close_source(cert, generators, identity):
    cert["source"] = {"kind": "close", "carrier": cert["source"], "generators": generators,
                      "identity": identity, "label": "closed source"}


def _close_identity_not_two_sided(cert):
    # all of T_2(Z_2), with its zero matrix (element 0) named as the identity;
    # a row of T_2(Z_2) is one element index
    _close_source(cert, [[pair[-1]] for pair in cert["pairs"]], [0])


def _close_identity_outside(cert):
    # the closure of one idempotent (element 3), with a unitriangular matrix
    # that moves it (element 7) named as the identity
    _close_source(cert, [[3]], [7])


def _h_class_of_non_idempotent(cert):
    # the "maximal subgroup" of element 7 of T_2(Z_2), which is not idempotent
    from semidec.keys import value_json
    from semidec.monoid import greens

    t2 = _t2z2()
    assert 7 not in greens(t2).idempotents
    cert["source"] = {"kind": "h_class_group", "base": cert["source"], "idempotent": value_json(t2.elements[7])}


def _non_central_quotient(cert):
    # T_2(Z_2) by its unit group {1, [[1, 1], [0, 1]]}, which does not commute
    # with the idempotent [[1, 0], [0, 0]]
    from semidec.keys import value_json

    units = [((1, 0), (0, 1)), ((1, 1), (0, 1))]
    cert["source"] = {"kind": "quotient_central", "base": cert["source"], "subgroup": [value_json(u) for u in units]}


def _t2z2():
    from semidec.families import FamilySpec, build_family
    from semidec.semiring import make_prime_field

    return build_family(FamilySpec("T", 2, make_prime_field(2)))


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("corrupt, detail", [(_h_class_of_non_idempotent, "NotIdempotent: element 7 is not idempotent"),
                                             (_non_central_quotient, "NotCentral: ")],
                         ids=["h-class of a non-idempotent", "quotient by a non-central subgroup"])
def test_descriptor_that_cannot_be_rebuilt_exit_2(tmp_path, split_certificate, corrupt, detail, optimize):
    # a source descriptor whose rebuild refuses its own arguments is a
    # malformed certificate, like any other descriptor that rebuilds to no monoid
    bad = json.loads(json.dumps(split_certificate))
    corrupt(bad)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(certificate_document(split_certificate, bad)))
    proc = run_cli(["verify", str(path)], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")], proc.stderr
    assert proc.stderr.startswith(CERTIFICATE_ERROR + detail), proc.stderr
    assert proc.stdout.startswith("certificate 0 (") and len(proc.stdout.splitlines()) == 1


def _pair_by_pair(obj) -> str:
    """The first bad pair's message, from checking one row at a time."""
    import numpy as np

    from semidec.carriers import Descriptors

    table = Descriptors()
    source, target = table.monoid(table.intern(obj["source"])), table.carrier(table.intern(obj["target"]))
    width = target.width
    identity = np.array([target.to_row(target.identity_value)], dtype=np.int32)
    for k, row in enumerate(obj["pairs"]):
        if not (type(row) is list and len(row) == width + 1
                and all(type(x) is int and -2**31 <= x < 2**31 for x in row)):
            return f"pair {k}: not a list of {width + 1} int32 integers"
        if not 0 <= row[-1] < len(source):
            return f"pair {k}: {row[-1]} is not an element index of {source.label}"
        value = np.array([row[:width]], dtype=np.int32)
        try:
            fixed = (target.mul_rows(value, identity)[0, 0] == value[0]).all()
        except IndexError:
            fixed = False
        if not fixed:
            return f"pair {k}: {row[:width]!s:.80} is not a value of {target.label}"
    raise AssertionError("no bad pair")


def _foreign_source(row):
    row[-1] = 8


@pytest.mark.parametrize("corruptions", [
    [(1, _negative_top_index), (2, _top_index_past_end)],
    [(1, _top_index_past_end), (2, _negative_top_index)],
    [(2, _negative_base_index), (3, _huge_top_index)],
    [(3, _value_tuple_entry), (1, _base_index_past_end)],
    [(2, _top_index_past_end), (1, _foreign_source)],
    [(1, _negative_top_index), (0, _foreign_source)],
    [(3, _foreign_source), (2, _huge_top_index)],
    [(3, _bool_entry), (2, _negative_base_index)],
    [(1, _row_short), (2, _foreign_source)],
], ids=["wrapped then out of range", "out of range then wrapped", "wrapped base then overflow",
        "tuple entry after base past end", "source before index", "source first", "overflow before source",
        "bool after wrapped base", "short row before source"])
def test_target_check_names_the_first_bad_pair(split_certificate, corruptions):
    # with several bad pairs, the error names the first of them and its reason
    from semidec.errors import InvalidCertificate

    bad = json.loads(json.dumps(split_certificate))
    for k, corrupt in corruptions:
        corrupt(bad["pairs"][k])
    with pytest.raises(InvalidCertificate) as err:
        read_document(certificate_document(bad))
    assert str(err.value) == _pair_by_pair(bad)


# where each malformed certificate is refused: the second certificate, at its
# first pair or as a whole, or the descriptor table before any certificate
CERTIFICATE_ERROR = "error: InvalidCertificate: certificate 1: "
PAIR_ERROR = CERTIFICATE_ERROR + "pair 0: "
TABLE_ERROR = "error: InvalidCertificate: descriptor table: ValueError: descriptor "


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "corrupt, error",
    [(_foreign_source_value, PAIR_ERROR), (_string_value, PAIR_ERROR), (_unknown_descriptor_kind, TABLE_ERROR),
     (_unknown_builtin_ring, CERTIFICATE_ERROR), (_non_prime_ring, CERTIFICATE_ERROR), (_no_pairs, CERTIFICATE_ERROR),
     (_foreign_top_value, PAIR_ERROR), (_foreign_base_value, PAIR_ERROR), (_short_wreath_table, PAIR_ERROR),
     (_extra_component, PAIR_ERROR), (_wreath_top, CERTIFICATE_ERROR), (_product_top, CERTIFICATE_ERROR),
     (_close_identity_not_two_sided, CERTIFICATE_ERROR), (_close_identity_outside, CERTIFICATE_ERROR),
     (_ring_axiom_broken, CERTIFICATE_ERROR),
     *((_in_first_pair(corrupt), PAIR_ERROR) for corrupt in INDEX_CORRUPTIONS + ROW_CORRUPTIONS),
     (_nested_pair, PAIR_ERROR)],
    ids=["source value", "string value", "descriptor kind", "builtin ring", "ring not prime", "no pairs",
         "top value", "base value", "table length", "extra component", "wreath top", "product top",
         "close identity inside", "close identity outside", "ring axiom", *INDEX_IDS, *ROW_IDS, "nested pair"],
)
def test_malformed_certificate_exit_2(tmp_path, split_certificate, corrupt, error, optimize):
    bad = json.loads(json.dumps(split_certificate))
    corrupt(bad)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(certificate_document(split_certificate, bad)))
    proc = run_cli(["verify", str(path)], optimize)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(error), proc.stderr
    if error == TABLE_ERROR:
        assert proc.stdout == ""
    else:
        assert proc.stdout.startswith("certificate 0 (") and len(proc.stdout.splitlines()) == 1
    if corrupt in (_close_identity_not_two_sided, _close_identity_outside):
        assert "identity" in proc.stderr, proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("corrupt", INDEX_CORRUPTIONS, ids=INDEX_IDS)
def test_malformed_close_generator_exit_2(tmp_path, split_certificate, corrupt, optimize):
    # the split certificate over the closure of its own target values: with
    # sound generators it verifies; a generator off the wreath carrier, paired
    # as it stands, is refused before the closure could multiply it.  The
    # distinct generators are the closure's first elements, so pair k's
    # target row is [k].
    closed = json.loads(json.dumps(split_certificate))
    closed["target"] = {"kind": "close", "carrier": closed["target"], "label": "closed target",
                        "generators": [row[:-1] for row in closed["pairs"]]}
    closed["pairs"] = [[k, row[-1]] for k, row in enumerate(closed["pairs"])]
    bad = json.loads(json.dumps(closed))
    corrupt(bad["target"]["generators"][1])
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(certificate_document(closed, bad)))
    proc = run_cli(["verify", str(path)], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.startswith("certificate 0 (") and ": verified closure=8" in proc.stdout
    assert len(proc.stdout.splitlines()) == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: InvalidCertificate: certificate 1: "), proc.stderr
    assert " generator 1: " in proc.stderr, proc.stderr


def _first_parent(document) -> dict:
    """The first table entry with a child descriptor, and the name of that field."""
    from semidec.carriers import CHILDREN

    for entry in document["descriptors"]:
        for field in CHILDREN.get(entry["kind"], ()):
            if field in entry:
                return entry, field
    raise AssertionError("no entry has a child")


def _forward_child(document):
    entry, field = _first_parent(document)
    entry[field] = document["descriptors"].index(entry) + 1


def _self_child(document):
    entry, field = _first_parent(document)
    entry[field] = document["descriptors"].index(entry)


def _bool_child(document):
    entry, field = _first_parent(document)
    entry[field] = True


def _source_out_of_range(document):
    document["certificates"][0]["source"] = len(document["descriptors"])


def _negative_source(document):
    document["certificates"][0]["source"] = -1


def _bool_source(document):
    document["certificates"][0]["source"] = True


def _string_target(document):
    document["certificates"][0]["target"] = "0"


def _step_out_of_range(document):
    # a step entry whose descriptor field names no descriptor
    document["steps"].append({"kind": "lift_left", "top": len(document["descriptors"])})


def _step_not_an_object(document):
    document["steps"].append(5)


def _step_kind_not_a_string(document):
    document["steps"].append({"kind": 3})


def _restrict_not_an_object(document):
    document["steps"].append({"kind": "lift_right", "base": 0, "restrict": [0, 1]})


def _repeated_step(document):
    document["steps"].append(dict(document["steps"][0]))


def _bool_step_field(document):
    document["steps"].append({"kind": "lift_left", "top": False})


def _step_reference_out_of_range(document):
    document["certificates"][0]["steps"] = [len(document["steps"])]


def _negative_step_reference(document):
    document["certificates"][0]["steps"] = [-1]


def _bool_step_reference(document):
    document["certificates"][0]["steps"] = [False]


def _inline_step(document):
    # a step object where its index belongs, as earlier versions wrote it
    cert = document["certificates"][0]
    cert["steps"] = [document["steps"][ref] for ref in cert["steps"]]


def _no_step_table(document):
    del document["steps"]


def _nested_source(document):
    from conftest import expand_descriptor

    cert = document["certificates"][0]
    cert["source"] = expand_descriptor(document["descriptors"], cert["source"])


def _entry_not_an_object(document):
    document["descriptors"].append(5)


def _repeated_entry(document):
    document["descriptors"].append(dict(document["descriptors"][0]))


def _unknown_kind_unreached(document):
    # no certificate names it, and the table pass still refuses its kind
    document["descriptors"].append({"kind": "bogus", "left": 99})


# the tables are checked as a whole before any certificate is read
REFERENCE_ERROR = "error: InvalidCertificate: certificate 0: ValueError: descriptor reference "
STEP_TABLE_ERROR = "error: InvalidCertificate: step table: ValueError: step "
STEP_REFERENCE_ERROR = "error: InvalidCertificate: certificate 0: ValueError: step reference "
DOCUMENT_ERROR = "error: InvalidCertificate: not a certificate document"


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "corrupt, error",
    [(_forward_child, TABLE_ERROR), (_self_child, TABLE_ERROR), (_bool_child, TABLE_ERROR),
     (_entry_not_an_object, TABLE_ERROR), (_repeated_entry, TABLE_ERROR), (_unknown_kind_unreached, TABLE_ERROR),
     (_source_out_of_range, REFERENCE_ERROR), (_negative_source, REFERENCE_ERROR), (_bool_source, REFERENCE_ERROR),
     (_string_target, REFERENCE_ERROR), (_step_out_of_range, STEP_TABLE_ERROR), (_nested_source, REFERENCE_ERROR),
     (_step_not_an_object, STEP_TABLE_ERROR), (_step_kind_not_a_string, STEP_TABLE_ERROR),
     (_restrict_not_an_object, STEP_TABLE_ERROR), (_repeated_step, STEP_TABLE_ERROR),
     (_bool_step_field, STEP_TABLE_ERROR), (_step_reference_out_of_range, STEP_REFERENCE_ERROR),
     (_negative_step_reference, STEP_REFERENCE_ERROR), (_bool_step_reference, STEP_REFERENCE_ERROR),
     (_inline_step, STEP_REFERENCE_ERROR), (_no_step_table, DOCUMENT_ERROR)],
    ids=["forward child", "self child", "bool child", "entry not an object", "repeated entry", "unknown kind",
         "source out of range", "negative source", "bool source", "string target", "step out of range",
         "nested source", "step not an object", "step kind not a string", "restrict not an object",
         "repeated step", "bool step field", "step reference out of range", "negative step reference",
         "bool step reference", "inline step", "no step table"],
)
def test_bad_descriptor_reference_exit_2(tmp_path, split_certificate, corrupt, error, optimize):
    # a child must name an earlier entry, a step entry's fields any entry,
    # and a certificate any entry and any step entry, by an int
    document = certificate_document(split_certificate)
    corrupt(document)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(document))
    proc = run_cli(["verify", str(path)], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(error), proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_earlier_bundle_format_exit_2(tmp_path, split_certificate, optimize):
    # a bundle with nested descriptors, as earlier versions wrote, and a bare certificate
    for payload in ({"certificates": [split_certificate]}, split_certificate):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(payload))
        proc = run_cli(["verify", str(path)], optimize)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: InvalidCertificate: not a certificate document"), proc.stderr


def _family(kind: str, n: int, p: int) -> dict:
    return {"kind": "family", "family": kind, "n": n, "ring": {"builtin": "zp", "p": p}}


def _doubling(kind: str, leaf: dict, length: int) -> list:
    """``leaf`` and ``length`` entries of ``kind``, each with the entry before as both factors."""
    return [leaf, *({"kind": kind, "left": i, "right": i} for i in range(length))]


ORDER_ERROR = (1, "error: SizeLimitExceeded: size limit 100000 exceeded: ")
EXPANSION_ERROR = (2, TABLE_ERROR)
ONE_ELEMENT = {"kind": "transformation_close", "generators": [[0]]}
OVERSIZED_SOURCES = {
    # 5 ** 10 elements, refused by the family build
    "family T_4(Z_5)": ([_family("T", 4, 5)], "source", ORDER_ERROR),
    # 729 ** 2 = 531,441 elements
    "T_3(Z_3) squared": ([_family("T", 3, 3), {"kind": "product", "left": 0, "right": 0}], "source", ORDER_ERROR),
    # each entry squares the order of the one before: 8, 64, 4096, then 4096 ** 2
    "doubling chain": (_doubling("product", _family("T", 2, 2), 3), "source", ORDER_ERROR),
    # the order stays 1, but each entry's label and elements double: 2 ** 40 leaves
    "one-element doubling chain": (_doubling("product", ONE_ELEMENT, 40), "source", EXPANSION_ERROR),
    # a carrier chain lists no elements, but its label and rows double
    "carrier doubling chain": (_doubling("product_carrier", _family("T", 2, 2), 40), "target", EXPANSION_ERROR),
    # 6,001 elements, past the table bound; a constants monoid is always tabled
    "constants past the table bound": ([{"kind": "family", "family": "constants", "points": 6000}], "source",
                                       (1, "error: SizeLimitExceeded: size limit 4096 exceeded: ")),
}


@pytest.mark.parametrize("case", list(OVERSIZED_SOURCES))
def test_oversized_source_descriptor_is_refused(tmp_path, case):
    # a product past the limit fails before listing its elements, as a family
    # does; a table entry that expands past the limit is refused on read
    entries, role, (code, error) = OVERSIZED_SOURCES[case]
    cert = {"label": case, "source": 0, "target": 0, "pairs": [], "steps": []}
    cert[role] = len(entries) - 1
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"descriptors": entries, "steps": [], "certificates": [cert]}))
    start = time.monotonic()
    proc = run_cli(["verify", str(path)])
    assert time.monotonic() - start < 30
    assert proc.returncode == code and proc.stdout == "", proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(error), proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_projective_source_past_the_table_bound_is_refused(tmp_path, optimize):
    # PT_5(Z_2) would have 32,768 orbits of T_5(Z_2): one descriptor entry
    # must not make verify multiply about 1.07 G pairs of representatives
    cert = {"label": "PT_5(Z_2)", "source": 0, "target": 0, "pairs": [], "steps": []}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"descriptors": [_family("PT", 5, 2)], "steps": [], "certificates": [cert]}))
    start = time.monotonic()
    proc = run_cli(["verify", str(path)], optimize)
    assert time.monotonic() - start < 30
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: SizeLimitExceeded: size limit 4096 exceeded: quotient T_5(Z_2)/central "), \
        proc.stderr


@pytest.mark.parametrize("corrupt", INDEX_CORRUPTIONS, ids=INDEX_IDS)
def test_close_descriptor_refuses_identity_off_the_carrier(split_certificate, corrupt):
    from semidec.carriers import Descriptors, rebuild

    carrier = split_certificate["target"]["left"]
    table = Descriptors()
    wreath = table.carrier(table.intern(carrier))
    identity = list(wreath.to_row(wreath.identity_value))
    desc = {"kind": "close", "carrier": carrier, "generators": [identity], "identity": identity}
    assert len(rebuild(desc)) == 1
    bad = json.loads(json.dumps(desc))
    corrupt(bad["identity"])
    with pytest.raises(ValueError, match=r"identity 0: "):
        rebuild(bad)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("row", [[15625, 1], [-1, 1]], ids=["lower triangular", "degree two"])
def test_tableless_target_rejects_foreign_values(tmp_path, row, optimize):
    # T_3(Z_5) has 15,625 elements, past the table bound, and its row is one
    # element index.  A value that is not one of them, such as a lower
    # triangular or a degree-two matrix, has no index; what a pair can state
    # instead is an index that names no element, past the end or negative.
    # Neither is a value of the target, even where numpy would wrap the
    # negative one onto an element that the identity fixes.
    ring = {"builtin": "zp", "p": 5}
    cert = {
        "label": "foreign target value",
        "source": {"kind": "family", "family": "T", "n": 1, "ring": ring},
        "target": {"kind": "family", "family": "T", "n": 3, "ring": ring},
        "pairs": [row],
        "steps": [],
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_document(cert)))
    proc = run_cli(["verify", str(path)], optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: InvalidCertificate: certificate 0: pair 0: "), proc.stderr
    assert "is not a value of T_3(Z_5)" in proc.stderr, proc.stderr


def test_optimized_round_trip_is_byte_identical(tmp_path):
    # over Z_3 the field pipeline composes its innermost assembly end to end too
    for ring in ("zp:2", "zp:3"):
        outputs = {}
        for optimize in (False, True):
            plan, cert = tmp_path / f"plan-{ring}-{optimize}.json", tmp_path / f"cert-{ring}-{optimize}.json"
            proc = run_cli(["decompose", "--pipeline", "field", "--n", "2", "--ring", ring,
                            "--plan", str(plan), "--cert", str(cert)], optimize)
            assert proc.returncode == 0, proc.stderr
            outputs[optimize] = (plan.read_bytes(), cert.read_bytes())
        assert outputs[True] == outputs[False], ring
        proc = run_cli(["verify", str(tmp_path / f"cert-{ring}-True.json")], optimize=True)
        assert proc.returncode == 0, proc.stderr
        count = len(json.loads(outputs[True][1])["certificates"]) + 1
        assert proc.stdout.count(": verified closure=") == count, ring
