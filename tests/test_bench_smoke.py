"""The benchmark's own smoke run passes on this checkout.

``perfbench/smoke.py`` runs every benchmark workload at a tiny size,
untraced and traced through the probes, and checks that a tampered
certificate fails ``recheck``.  A change to the witness layer can break
either: the probes read ``len(w.pairs)`` and wrap ``verify`` by its ``w``
keyword.  The script writes only the ``.perfbench_work/`` scratch folder,
and no bytecode next to ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_exits_0():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
