"""The benchmark's own smoke run passes on this checkout.

``perfbench/smoke.py`` runs every benchmark workload at a tiny size,
untraced and traced through the probes, and checks that a tampered
certificate fails ``recheck``.  A change to the witness layer can break
either: the probes read ``len(w.pairs)`` and wrap ``verify`` by its ``w``
keyword.  The script writes only the ``.perfbench_work/`` scratch folder,
and no bytecode next to ``perfbench/``.  A traced run of the census and of
``decompose`` must record the spans of the layers each one runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_exits_0():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("operation,spans", [
    (["census", "2", "2"], {"decomp.census", "monoid.greens"}),
    (["cli", "decompose", "--pipeline", "field", "--n", "2", "--ring", "zp:2"],
     {"decomp.pipeline", "witness.construct", "witness.verify", "monoid.greens"}),
], ids=["census", "certify"])
def test_traced_run_records_the_layer_spans(tmp_path, operation, spans):
    # the probes rebind names in the modules loaded at install, so a layer
    # that a function imports when it runs is traced like one imported at load
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), *operation],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    recorded = {name for name, *_ in json.loads(trace.read_text(encoding="utf-8"))["spans"]}
    assert spans <= recorded, spans - recorded
