"""The semidec benchmark: certify, recheck and census, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {certify,recheck,census} --seed N \\
        --seconds S --trace {0,1}

Load is a closed loop with one client.  This process starts one operation
at a time as a child process and waits for it with ``os.wait4``, which
gives the child's wall time, peak RSS and CPU time.  Interpreter start and
the numpy import are paid by every operation, as a user pays them on every
CLI call.  Before timing, the workload is set up (``SETUPS`` times, each
from an empty directory, reported as the median ``setup_s``) and one
warm-up operation at the smoke size runs and is discarded, so that
byte-compilation and cold file caches are not timed.  Timed operations
then run until at least ``MIN_OPS`` have finished and ``--seconds`` have
passed.  Every operation's output is checked; a failed one is counted and
kept in the samples.

With ``--trace 1`` the run also makes ``TRACED_OPS`` operations under
``perfbench/traced.py`` and reports the per-layer metrics of
``probes.summarize`` plus ``proc.cpu_s`` and ``trace.overhead_s``.  The
seed only permutes the certificates of the bundle that ``recheck`` reads.

Every line but the last is a report line ``name value unit``, or a
``#`` comment; the last line is the JSON result.  perfbench/catalog.json
says why each workload was chosen and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import probes
from workloads import FULL, Outcome, SetupError, Workload

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORK = ROOT / ".perfbench_work"

SETUPS = 3
MIN_OPS = 3
TRACED_OPS = 1
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "output_bytes")


@dataclass
class Sample:
    outcome: Outcome
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    output_bytes: int  # stdout plus the files the operation writes
    stderr: str


class Runner:
    """Starts one child at a time in the checkout and waits for it."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def spawn(self, argv: list[str]) -> Sample:
        """Run ``python argv...``; kill it at the run's deadline."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Sample(Outcome(None, ""), 0.0, 0.0, 0.0, 0, "run deadline passed")
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = killed.is_set() and os.WIFSIGNALED(status)
        stdout = out_path.read_bytes()
        return Sample(
            Outcome(None if timed_out else proc.returncode, stdout.decode("utf-8", "replace")),
            wall,
            usage.ru_maxrss / 1024,  # KiB on Linux
            usage.ru_utime + usage.ru_stime,
            len(stdout),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def outcome(self, argv: list[str]) -> Outcome:
        return self.spawn(argv).outcome


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout's own git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


@dataclass
class Result:
    metrics: dict  # end-to-end name -> (value, unit)
    layers: dict  # per-layer name -> (value, unit), empty when not traced
    notes: dict  # name -> detail shown on the report line
    attempted: int
    failures: list[str]
    env: dict


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS) -> Result:
    """Set up, warm up, time operations and, with ``trace``, trace some."""
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "commit": _commit(),
        "seed": seed,
        "loadavg_1m_before": os.getloadavg()[0],
    }
    work = WORK / workload.name
    runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)

    setup_times = []
    for _ in range(1 if trace else SETUPS):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload.setup(work, seed, runner.outcome)
        setup_times.append(time.perf_counter() - start)

    for argv in workload.warmup(work):
        runner.spawn(argv)

    op = workload.operation(work)
    samples: list[Sample] = []
    failures: list[str] = []

    def attempt(argv: list[str]) -> tuple[Sample, str | None]:
        op.clear()
        sample = runner.spawn(argv)
        problem = op.check(sample.outcome)
        if problem:
            last = (sample.stderr.strip() or sample.outcome.stdout.strip()).splitlines()[-1:]
            failures.append(": ".join([problem, *last]))
        return sample, problem

    start = time.monotonic()
    while len(samples) < min_ops or time.monotonic() - start < seconds:
        sample, _ = attempt(op.argv)
        sample.output_bytes += sum(path.stat().st_size for path in op.outputs if path.exists())
        samples.append(sample)
        if sample.outcome.code is None:
            break

    walls = [s.wall_s for s in samples]
    q1, q3 = _quartiles(walls)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "output_bytes": (statistics.median(s.output_bytes for s in samples), "bytes"),
        "failed_ratio": (len(failures) / len(samples), "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"median of n={len(walls)}; p25 {q1!r}, p75 {q3!r}",
        "failed_ratio": f"{len(failures)} failed of {len(samples)} attempted",
    }
    attempted = len(samples)

    layers: dict = {}
    if trace:
        traces, traced_walls = [], []
        for k in range(TRACED_OPS):
            trace_path = work / f"trace-{k}.json"
            trace_path.unlink(missing_ok=True)
            sample, problem = attempt([str(PERFBENCH / "traced.py"), str(trace_path), *op.traced])
            attempted += 1
            traced_walls.append(sample.wall_s)
            if trace_path.is_file():
                traces.append(probes.summarize(json.loads(trace_path.read_text(encoding="utf-8"))))
            elif not problem:
                failures.append("the traced operation wrote no trace")
        for name, (_, unit) in (traces[0] if traces else {}).items():
            layers[name] = (statistics.median(t[name][0] for t in traces), unit)
        layers["proc.cpu_s"] = (statistics.median(s.cpu_s for s in samples), "s")
        layers["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s"
        )
        notes["proc.cpu_s"] = "median CPU time of the untraced operations"
        notes["trace.overhead_s"] = f"median traced wall of n={len(traced_walls)} minus median wall_s"

    env["loadavg_1m_after"] = os.getloadavg()[0]
    shutil.rmtree(work, ignore_errors=True)
    return Result(metrics, layers, notes, attempted, failures, env)


def report_lines(workload: Workload, result: Result) -> list[str]:
    lines = [
        f"# workload {workload.name}: {workload.command}",
        f"# env {json.dumps(result.env, sort_keys=True)}",
    ]
    for name, (value, unit) in {**result.metrics, **result.layers}.items():
        note = result.notes.get(name)
        lines.append(f"{name} {json.dumps(value)} {unit}" + (f"  # {note}" if note else ""))
    lines.extend(f"# failed: {reason}" for reason in result.failures)
    return lines


def result_line(result: Result, trace: bool) -> str:
    """The JSON result: per-layer metrics when traced, else the end-to-end ones."""
    metrics = result.layers if trace else {name: result.metrics[name] for name in END_TO_END}
    return json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def _terminate(signum, frame):
    # SystemExit unwinds through Runner.spawn, which kills and reaps the child
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semidec" / "cli.py").is_file():
        print(f"perfbench: no semidec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = FULL[args.workload]()
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: set-up of {workload.name} failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(workload, result)))
    print(result_line(result, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
