import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
