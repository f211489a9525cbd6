import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from semidec.carriers import CHILDREN, STEP_FIELDS, Descriptors
from semidec.families import FamilySpec, build_family
from semidec.semiring import make_boolean_semiring, make_prime_field


SRC = str(Path(__file__).parent.parent / "src")


def run_cli(args, optimize: bool = False, prelude: str = "") -> subprocess.CompletedProcess:
    """Run ``semidec`` in a fresh interpreter; ``optimize`` adds ``-O``, which strips asserts.

    A ``prelude`` is Python source run in that interpreter before the CLI's
    ``main``, for example to patch a module the command uses.
    """
    entry = ["-c", f"{prelude}\nimport sys\nfrom semidec.cli import main\nsys.exit(main(sys.argv[1:]))"] \
        if prelude else ["-m", "semidec.cli"]
    return run_python([*entry, *args], optimize)


def run_python(args, optimize: bool = False) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` with ``src`` on its path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), *args],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )


def certificate_document(*certificates) -> dict:
    """A certificate document of certificates whose descriptors and steps
    are written out nested, interned as the writer interns them; a
    certificate's other fields, and any field a corruption removed, stay as
    they are."""
    table = Descriptors()
    out = []
    for cert in certificates:
        cert = dict(cert)
        for key in ("source", "target"):
            if key in cert:
                cert[key] = table.intern(cert[key])
        if "steps" in cert:
            cert["steps"] = [table.intern_step(step) for step in cert["steps"]]
        out.append(cert)
    return {"descriptors": table.entries, "steps": table.steps, "certificates": out}


def read_document(document: dict) -> list:
    """The witnesses of a document after a JSON round trip, unverified, the composite last."""
    from semidec.witness import document_from_json, witness_from_json

    table, certificates = document_from_json(json.loads(json.dumps(document)))
    return [witness_from_json(obj, table) for obj in certificates]


def expand_descriptor(entries: list, ref: int) -> dict:
    """Entry ``ref`` of a descriptor table with every child written out, a fresh copy."""
    desc = dict(entries[ref])
    for field in CHILDREN.get(desc["kind"], ()):
        if field in desc:
            desc[field] = expand_descriptor(entries, desc[field])
    return desc


def expand_document(document: dict) -> list[dict]:
    """The certificates of a document, the composite last, with their
    descriptors and steps written out nested, as they were before the tables,
    and each certificate that names its image as its target and pairs."""
    entries = document["descriptors"]

    def expand_step(ref):
        step = document["steps"][ref]
        out = {k: expand_descriptor(entries, v) if k in STEP_FIELDS else v for k, v in step.items()}
        if "restrict" in step:
            out["restrict"] = {k: expand_descriptor(entries, v) for k, v in step["restrict"].items()}
        return out

    def pairs_form(cert):
        if "image" not in cert:
            return cert
        image = entries[cert["image"]]
        out = {k: v for k, v in cert.items() if k not in ("image", "sources")}
        return dict(out, target=image["carrier"],
                    pairs=[row + [s] for row, s in zip(image["generators"], cert["sources"], strict=True)])

    certificates = document["certificates"] + ([document["composite"]] if "composite" in document else [])
    return [dict(cert, source=expand_descriptor(entries, cert["source"]),
                 target=expand_descriptor(entries, cert["target"]),
                 steps=[expand_step(step) for step in cert["steps"]]) for cert in map(pairs_form, certificates)]


@lru_cache(maxsize=None)
def _ring(spec: str):
    if spec == "bool":
        return make_boolean_semiring()
    return make_prime_field(int(spec))


def cached_family(kind: str, n: int, ring_spec: str):
    return build_family(FamilySpec(kind, n, _ring(ring_spec)))


@pytest.fixture(scope="session")
def z2():
    return _ring("2")


@pytest.fixture(scope="session")
def z3():
    return _ring("3")


@pytest.fixture(scope="session")
def boolean():
    return _ring("bool")


@pytest.fixture(scope="session")
def fam():
    return cached_family


@pytest.fixture
def lowered_bound(request, monkeypatch):
    """``TABLE_BOUND`` at 64, or at the bound a test passes by parametrising
    this fixture indirectly, and an empty family cache, so every monoid past
    it is built untabled for the test; returns the bound."""
    import semidec.families
    import semidec.monoid

    bound = getattr(request, "param", 64)
    monkeypatch.setattr(semidec.monoid, "TABLE_BOUND", bound)
    monkeypatch.setattr(semidec.families, "_FAMILIES", {})
    return bound


@lru_cache(maxsize=None)
def cached_ring_plan(n: int, ring_spec: str):
    from semidec.decomp import ring_pipeline

    return ring_pipeline(n, _ring(ring_spec))


@lru_cache(maxsize=None)
def cached_field_plan(n: int, ring_spec: str):
    from semidec.decomp import field_pipeline

    return field_pipeline(n, _ring(ring_spec))


@pytest.fixture(scope="session")
def ring_plan():
    return cached_ring_plan


@pytest.fixture(scope="session")
def field_plan():
    return cached_field_plan
