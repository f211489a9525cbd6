"""Run one semidec operation in this process with the per-layer probes installed.

Usage: python perfbench/traced.py TRACE_OUT cli ARG...    # semidec.cli.main([ARG...])
       python perfbench/traced.py TRACE_OUT census N P    # census.main([N, P])

Prints what the untraced operation prints and exits with its code, so the
same output checks apply.  Spans stay in memory and are written to
TRACE_OUT once, when the operation ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import probes


def main(argv: list[str]) -> int:
    out, kind, *rest = argv
    tracer = probes.Tracer()
    probes.install(tracer)
    try:
        if kind == "cli":
            import semidec.cli

            return semidec.cli.main(rest)
        if kind == "census":
            import census

            return census.main(rest)
        raise SystemExit(f"unknown operation kind {kind!r}")
    finally:
        sys.stdout.flush()
        Path(out).write_text(json.dumps(tracer.to_json()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
