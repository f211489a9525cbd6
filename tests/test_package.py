"""The package's import surface: each entry point loads only the layers it runs.

``semidec/__init__.py`` resolves its public names on first use, and the
census half of ``decomp`` and the ``verify`` command import no layer they
never call.  What a fresh interpreter loads is read from ``-X importtime``,
which names every module as it is imported.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

import semidec
from conftest import run_cli, run_python

README = Path(__file__).resolve().parent.parent / "README.md"


def _loaded(args, optimize: bool = False) -> set[str]:
    """The ``semidec`` submodules a fresh interpreter imports running ``args``."""
    proc = run_python(["-X", "importtime", *args], optimize)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(re.findall(r"^import time:.*\|\s+(semidec\.\w+)$", proc.stderr, flags=re.M))


def test_importing_the_package_loads_no_submodule():
    assert _loaded(["-c", "import semidec"]) == set()


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_the_census_loads_no_witness_layer(optimize):
    script = ("from semidec.decomp import verify_census\nfrom semidec.semiring import make_prime_field\n"
              "verify_census(2, make_prime_field(3))")
    assert _loaded(["-c", script], optimize) == {
        "semidec.decomp", "semidec.errors", "semidec.families", "semidec.keys", "semidec.monoid",
        "semidec.semiring"}


def test_verify_loads_no_pipeline(ring_plan, tmp_path):
    from semidec.witness import document_to_json

    plan = ring_plan(2, "2")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(document_to_json(plan.witnesses, plan.composite)), encoding="utf-8")
    assert run_cli(["verify", str(bundle)]).returncode == 0
    loaded = _loaded(["-m", "semidec.cli", "verify", str(bundle)])
    assert "semidec.witness" in loaded and "semidec.decomp" not in loaded


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_family_loads_no_witness_layer(tmp_path, optimize):
    loaded = _loaded(["-m", "semidec.cli", "family", "--kind", "T", "--n", "2", "--ring", "zp:3",
                      "--out", str(tmp_path / "t2.json")], optimize)
    assert "semidec.families" in loaded
    assert not loaded & {"semidec.witness", "semidec.carriers", "semidec.wreath"}


def test_every_public_name_resolves_to_its_defining_module():
    for name, module in semidec._MODULE_OF.items():
        namespace: dict = {}
        exec(f"from semidec import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"semidec.{module}"), name), name
    assert list(semidec._MODULE_OF) == semidec.__all__
    assert set(semidec.__all__) <= set(dir(semidec))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        semidec.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from semidec import no_such_name", {})


def test_the_readme_quick_tour_runs():
    code = re.search(r"## Library quick tour.*?```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[:2] == ["(1, 2)", "1"]
