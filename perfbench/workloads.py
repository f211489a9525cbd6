"""The benchmark's workloads: what each sets up, runs and checks.

Every operation is a fresh child process, the way a user runs semidec:
``argv`` follows the interpreter for the untraced run and ``traced`` follows
``perfbench/traced.py TRACE_OUT`` for the traced one.  ``check`` returns
``None`` when the output is right and a reason otherwise.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PERFBENCH = Path(__file__).resolve().parent

# (n, p) of the smoke-size operations: the warm-up of every workload, and
# the whole of perfbench/smoke.py
SMOKE_SIZE = (2, 2)


class SetupError(RuntimeError):
    """The workload could not be prepared, so nothing can be measured."""


@dataclass
class Outcome:
    """What one finished child left behind."""

    code: int | None  # exit code, None when it was killed at its deadline
    stdout: str


@dataclass
class Operation:
    argv: list[str]
    traced: list[str]
    check: Callable[[Outcome], str | None]
    outputs: list[Path] = field(default_factory=list)  # files it writes

    def clear(self) -> None:
        """Remove earlier outputs, so a stale file cannot pass the check."""
        for path in self.outputs:
            path.unlink(missing_ok=True)


def _exit_problem(outcome: Outcome) -> str | None:
    if outcome.code is None:
        return "timed out"
    if outcome.code != 0:
        return f"exit code {outcome.code}"
    return None


def _decompose_argv(n: int, p: int, plan: Path, cert: Path) -> list[str]:
    return ["-m", "semidec.cli", "decompose", "--pipeline", "field", "--n", str(n),
            "--ring", f"zp:{p}", "--plan", str(plan), "--cert", str(cert)]


def _load_bundle(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# Spawns a child ``[python, *argv]`` in the checkout and returns its Outcome.
Spawn = Callable[[list[str]], Outcome]


class Workload:
    name = ""
    command = ""  # the user-level command one operation stands for; catalog.json says why

    def setup(self, work: Path, seed: int, spawn: Spawn) -> None:
        """Prepare inputs in the empty directory ``work``; timed as setup_s."""
        outcome = spawn(["-c", "import semidec.cli"])
        if outcome.code != 0:
            raise SetupError("semidec does not import")

    def warmup(self, work: Path) -> list[list[str]]:
        """Untimed commands run once before timing; their results are discarded."""
        raise NotImplementedError

    def operation(self, work: Path) -> Operation:
        raise NotImplementedError


class Certify(Workload):
    name = "certify"
    command = "semidec decompose --pipeline field --n {n} --ring zp:{p} --plan P --cert C"

    def __init__(self, n: int, p: int, certificates: int):
        self.n, self.p, self.certificates = n, p, certificates
        self.command = self.command.format(n=n, p=p)

    def warmup(self, work: Path) -> list[list[str]]:
        return [_decompose_argv(*SMOKE_SIZE, work / "warm-plan.json", work / "warm-cert.json")]

    def operation(self, work: Path) -> Operation:
        plan, cert = work / "plan.json", work / "cert.json"
        argv = _decompose_argv(self.n, self.p, plan, cert)

        def check(outcome: Outcome) -> str | None:
            problem = _exit_problem(outcome)
            if problem:
                return problem
            lines = outcome.stdout.splitlines()
            for expected in (f"group_length={self.n - 1}", "composite_verified=True"):
                if expected not in lines:
                    return f"stdout lacks {expected!r}"
            if not plan.is_file() or not cert.is_file():
                return "plan or bundle not written"
            bundle = _load_bundle(cert)
            count = len(bundle.get("certificates", []))
            if count != self.certificates or "composite" not in bundle:
                return f"bundle has {count} certificates, expected {self.certificates} plus a composite"
            return None

        return Operation(argv, ["cli", *argv[2:]], check, [plan, cert])


_VERIFIED = re.compile(r"^certificate (\d+) \((.*)\): verified closure=(\d+)$")


class Recheck(Workload):
    name = "recheck"
    command = "semidec verify C  (C written by the certify command, certificates shuffled by the seed)"

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p
        self.expected: list[int] = []

    def prepare(self, bundle: dict, seed: int) -> None:
        """Permute the certificates by the seed; the composite stays last."""
        random.Random(seed).shuffle(bundle["certificates"])

    def setup(self, work: Path, seed: int, spawn: Spawn) -> None:
        plan, path = work / "plan.json", work / "bundle.json"
        outcome = spawn(_decompose_argv(self.n, self.p, plan, path))
        if outcome.code != 0 or not path.is_file():
            raise SetupError(f"decompose --n {self.n} --ring zp:{self.p} did not write a bundle")
        plan.unlink()
        bundle = _load_bundle(path)
        self.prepare(bundle, seed)
        path.write_text(json.dumps(bundle, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        certificates = bundle["certificates"] + [bundle["composite"]]
        self.expected = [c["verdict"]["closure_size"] for c in certificates]

    def warmup(self, work: Path) -> list[list[str]]:
        # the warm-up bundle is written by the first command, then verified
        plan, cert = work / "warm-plan.json", work / "warm-bundle.json"
        return [_decompose_argv(*SMOKE_SIZE, plan, cert), ["-m", "semidec.cli", "verify", str(cert)]]

    def operation(self, work: Path) -> Operation:
        argv = ["-m", "semidec.cli", "verify", str(work / "bundle.json")]
        expected = list(self.expected)

        def check(outcome: Outcome) -> str | None:
            problem = _exit_problem(outcome)
            if problem:
                return problem
            seen = {}
            for line in outcome.stdout.splitlines():
                match = _VERIFIED.match(line)
                if match:
                    seen[int(match.group(1))] = int(match.group(3))
            if seen != dict(enumerate(expected)):
                return f"verified {len(seen)} of {len(expected)} certificates with the stored closure sizes"
            return None

        return Operation(argv, ["cli", *argv[2:]], check)


class Census(Workload):
    name = "census"
    command = "verify_census({n}, Z_{p}) over T, UT and PT in a fresh process"

    def __init__(self, n: int, p: int, expected: dict):
        self.n, self.p, self.expected = n, p, expected
        self.command = self.command.format(n=n, p=p)

    def warmup(self, work: Path) -> list[list[str]]:
        return [[str(PERFBENCH / "census.py"), *map(str, SMOKE_SIZE)]]

    def operation(self, work: Path) -> Operation:
        args = [str(self.n), str(self.p)]

        def check(outcome: Outcome) -> str | None:
            problem = _exit_problem(outcome)
            if problem:
                return problem
            lines = outcome.stdout.strip().splitlines()
            try:
                report = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                return "no census report on stdout"
            got = {
                kind: {key: entry.get(key) for key in ("order", "depth", "census")}
                for kind, entry in report.items()
            }
            if got != self.expected:
                return f"census report {got} differs from {self.expected}"
            return None

        return Operation([str(PERFBENCH / "census.py"), *args], ["census", *args], check)


def _census(t: tuple, ut: tuple, pt: tuple) -> dict:
    return {
        kind: {"order": order, "depth": depth, "census": census}
        for kind, (order, depth, census) in (("T", t), ("UT", ut), ("PT", pt))
    }


# certify: 25 witnesses of the field pipeline at n=3 over Z_2, plus the composite
# census: known constants of T_3, UT_3 and PT_3 over Z_3
FULL = {
    "certify": lambda: Certify(3, 2, certificates=25),
    "recheck": lambda: Recheck(3, 2),
    "census": lambda: Census(3, 3, _census((729, 3, [1, 3, 3]), (216, 2, [1, 3]), (365, 2, [1, 3]))),
}

# the same workloads at the smoke size, for perfbench/smoke.py: 18 witnesses at
# n=2 over Z_2, and T_2, UT_2, PT_2 over Z_2 all of order 8 and depth 1
SMOKE = {
    "certify": lambda: Certify(*SMOKE_SIZE, certificates=18),
    "recheck": lambda: Recheck(*SMOKE_SIZE),
    "census": lambda: Census(*SMOKE_SIZE, _census((8, 1, [1]), (8, 1, [1]), (8, 1, [1]))),
}
