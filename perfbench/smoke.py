"""Smoke test of the benchmark itself, at tiny size.

Usage, from the root of a checkout: python3 perfbench/smoke.py

Runs every workload at the smoke size (``decompose --pipeline field --n 2
--ring zp:2``, ``verify`` of that bundle, ``verify_census(2, Z_2)``),
untraced and traced, and asserts that no operation failed and that every
metric named in BENCHMARK.json and perfbench/catalog.json is printed with
its unit.  Then it tampers with the ``induction_step(2, Z_2)`` certificate
of the bundle as acceptance criterion 7 does, swapping the source values
of its first two pairs, and asserts that ``recheck`` counts every
operation on it as failed: a verifier that stops checking cannot pass the
benchmark.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SMOKE, SMOKE_SIZE, Recheck

INDUCTION_LABEL = "T_2(Z_2) split at degree 1"


class TamperedRecheck(Recheck):
    def prepare(self, bundle: dict, seed: int) -> None:
        super().prepare(bundle, seed)
        for certificate in bundle["certificates"]:
            if certificate["label"] == INDUCTION_LABEL:
                pairs = certificate["pairs"]
                pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]
                return
        raise AssertionError(f"no {INDUCTION_LABEL!r} certificate in the bundle")


def _printed_units(lines: list[str]) -> dict[str, str]:
    units = {}
    for line in lines:
        if not line.startswith("#"):
            name, _value, unit = line.split("  #")[0].split()
            units[name] = unit
    return units


def main() -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalog = json.loads((run.PERFBENCH / "catalog.json").read_text(encoding="utf-8"))
    documented = {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["per_layer"]}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert documented.get(metric["name"]) == metric["unit"], f"catalog lacks {metric}"
    assert [w["name"] for w in benchmark["workloads"]] == list(SMOKE)
    layer_names = {m["name"] for m in benchmark["per_layer"]}
    assert layer_names == {m["name"] for m in catalog["per_layer"]}

    for name, make in SMOKE.items():
        workload = make()
        for trace in (False, True):
            result = run.run(workload, seed=1, seconds=0, trace=trace, min_ops=1)
            lines = run.report_lines(workload, result)
            assert not result.failures, (name, trace, result.failures)
            printed = _printed_units(lines)
            wanted = {m["name"] for m in catalog["end_to_end"]} | (layer_names if trace else set())
            for metric in wanted:
                assert printed.get(metric) == documented[metric], (name, trace, metric, printed.get(metric))
            final = json.loads(run.result_line(result, trace))
            expected = layer_names if trace else {m["name"] for m in benchmark["end_to_end"]}
            assert set(final["metrics"]) == expected, (name, trace, set(final["metrics"]) ^ expected)
            assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
            print(f"ok {name} trace={int(trace)}: {final['attempted']} operations", flush=True)

    tampered = TamperedRecheck(*SMOKE_SIZE)
    result = run.run(tampered, seed=1, seconds=0, trace=False, min_ops=2)
    assert result.attempted == 2 and len(result.failures) == 2, result.failures
    assert all("NotFunctional" in reason for reason in result.failures), result.failures
    assert not json.loads(run.result_line(result, False))["correct"]
    print(f"ok tampered recheck: {result.failures[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
