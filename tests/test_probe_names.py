"""Every name that the benchmark's probes wrap exists in ``semidec``.

``perfbench/probes.py`` wraps functions, methods and counters by name, and
its ``install`` fails on a missing one, which fails every traced benchmark
operation.  Reading its tables here turns a refactor that drops or renames
a wrapped name into one failing test.  The file is only read and compiled,
never imported, so no bytecode is written next to it.
"""

import importlib
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _probe_tables() -> dict:
    namespace: dict = {"__name__": "probe_tables"}
    exec(compile(PROBES.read_text(encoding="utf-8"), str(PROBES), "exec"), namespace)
    return namespace


TABLES = _probe_tables()
NAMES = sorted(
    {(mod, func) for mod, func, _ in TABLES["FUNCTION_SPANS"]}
    | {("witness", name) for name in TABLES["COMBINATORS"]}
    | {(mod, f"{cls}.{method}") for mod, cls, method, _ in TABLES["METHOD_SPANS"]}
    | {(mod, f"{cls}.{method}") for mod, cls, method, _, _ in TABLES["COUNTERS"]}
    | {(TABLES["WREATH_MUL"][0], ".".join(TABLES["WREATH_MUL"][1:]))}
)


def test_probe_tables_name_every_module():
    assert {mod for mod, _ in NAMES} <= set(TABLES["MODULES"])
    assert len(NAMES) > 30


@pytest.mark.parametrize("mod,name", NAMES, ids=[f"{mod}.{name}" for mod, name in NAMES])
def test_wrapped_name_resolves(mod, name):
    target = importlib.import_module(f"semidec.{mod}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)
