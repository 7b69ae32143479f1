"""Benchmark harness for the clockproc command line.

Run one workload at one seed and print every end-to-end metric::

    python3 bench/run.py --workload conditions-n14 --seed 20260822 --seconds 5 --trace 0

or its per-layer metrics from a traced pass (``--trace 1``), or every
workload once at small budgets as a smoke check of the harness (``--quick``;
its numbers are not comparable with full runs).

The harness runs real ``python -m clockproc.cli <subcommand>`` child
processes from ``src/`` of the checkout, one at a time, with the BLAS pool
pinned to one thread and ``--threads 2``.  It measures each child from
outside (wall clock, and CPU time and peak RSS from ``wait4``), checks its
``manifest.json`` and exit code, and hashes its data files: every CLI run of
one harness run at one master seed must reproduce the first one's bytes,
whether the runs are timed repetitions or the traced run and the run at the
other thread count of a traced pass.  A workload whose cost depends on the
sampled environment sweeps several master seeds derived from ``--seed`` in
each repetition.  ``README.md`` beside this file lists the workloads and
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run environment, the verdicts and every repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

DEFAULT_SEED = 20260822  # the shipped master seed
SETUP_SAMPLES = 5
THREADS = 2  # --threads; 2 = nproc of the reference machine
RUN_BUDGET_S = 170.0  # a run must end within 180 s; children past this are killed
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EXIT_STATUS = {0: "pass", 2: "warn", 3: "fail"}
STATUS_RANK = {"pass": 0, "warn": 1, "fail": 2}


@dataclass(frozen=True)
class Workload:
    """One ``clockproc`` subcommand on one config document (minus the seed)."""

    command: str
    config: dict
    quick: dict  # the config ``--quick`` uses instead
    sweep: int = 1  # master seeds, hence environments, per repetition


# the shipped (t, s) pairs, ratios t/(t+s) from 0.2 to 0.8, at a fifth of the horizon
SHORT_TS_GRID = [[0.2, 0.8], [0.2, 7 / 15], [0.2, 0.3], [0.2, 0.2], [0.2, 2 / 15], [0.2, 0.05]]

WORKLOADS = {
    "conditions-n14": Workload("conditions", {}, {"budgets": {"samples": 2000}}),
    "conditions-n20": Workload(
        "conditions",
        {"model": {"n": 20}, "budgets": {"samples": 5000}},
        {"model": {"n": 20}, "budgets": {"samples": 500}, "grids": {"v_grid": [1.0, 10.0, 100.0]}},
    ),
    # the sampled environment sets the walk length, so one repetition
    # sweeps several environments and the metrics are medians over them;
    # the shipped ts_grid at a fifth of its horizon keeps each walk short
    # enough that no single environment's deep traps dominate (see README.md)
    "aging-n14": Workload(
        "aging",
        {"model": {"n": 14}, "budgets": {"replicas": 1000}, "grids": {"ts_grid": SHORT_TS_GRID}},
        {"model": {"n": 14}, "budgets": {"replicas": 200}, "grids": {"ts_grid": SHORT_TS_GRID}},
        sweep=9,
    ),
    "subordinator-defaults": Workload("subordinator", {}, {"budgets": {"samples": 4000}}),
}


def sweep_seeds(seed: int, count: int) -> list[int]:
    """The master seeds of one repetition; disjoint for distinct ``seed``."""
    return [(seed * count + k) % (1 << 64) for k in range(count)]


class BenchError(RuntimeError):
    """The harness cannot produce a result (missing source, broken tracing)."""


@dataclass
class Child:
    """One finished child process, measured from outside."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class Invocation:
    """One CLI run and what its output directory held."""

    seed: int
    threads: int
    traced: bool
    child: Child
    problems: list[str] = field(default_factory=list)
    verdicts: dict[str, str] = field(default_factory=dict)
    digest: str | None = None
    output_bytes: int = 0
    spans: dict | None = None

    def record(self) -> dict:
        return {
            "seed": self.seed,
            "threads": self.threads,
            "traced": self.traced,
            "wall_s": self.child.wall_s,
            "cpu_s": self.child.cpu_s,
            "peak_rss_mb": self.child.rss_mb,
            "exit_code": self.child.code,
            "digest": self.digest,
            "problems": self.problems,
        }


def spawn(argv: list[str], stderr_path: Path, timeout: float) -> Child:
    """Run ``argv`` from the checkout root and reap it with ``wait4``.

    A child still running after ``timeout`` seconds is killed.
    """
    if timeout <= 0:
        raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s exhausted")
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    with open(stderr_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read()
        if killed.is_set() and proc.returncode < 0:
            text += f"\nkilled at the run budget of {RUN_BUDGET_S:.0f} s\n"
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        code=proc.returncode,
        stderr=text,
    )


def check_source_path(child: Child) -> None:
    """The child names the clockproc it imported on a ``clockproc:`` line."""
    expected = (SOURCE / "clockproc" / "__init__.py").resolve()
    named = [line[len("clockproc: "):] for line in child.stderr.splitlines() if line.startswith("clockproc: ")]
    if not named or Path(named[-1]).resolve() != expected:
        raise BenchError(f"child did not import clockproc from {SOURCE}: {child.stderr.strip()[-500:]}")


def data_digest(outdir: Path) -> tuple[str, int]:
    """SHA-256 over the data files (all but manifest.json, whose config
    records --out and --threads) and the byte count of every file."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(outdir.iterdir()):
        content = path.read_bytes()
        total += len(content)
        if path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + content + b"\0")
    return digest.hexdigest(), total


def inspect(run: Invocation, outdir: Path, command: str) -> None:
    """Fill in verdicts, digest and problems from one CLI output directory."""
    code = run.child.code
    if code not in EXIT_STATUS:
        run.problems.append(f"exit code {code}: {run.child.stderr.strip()[-300:]}")
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        run.problems.append(f"no readable manifest.json: {exc}")
        return
    config = manifest.get("config", {})
    if manifest.get("command") != command:
        run.problems.append(f"manifest command {manifest.get('command')!r}")
    if config.get("seeds", {}).get("master_seed") != run.seed or config.get("threads") != run.threads:
        run.problems.append("manifest config does not record the requested seed and threads")
    verdicts = manifest.get("verdicts", {})
    statuses = {name: entry.get("status") for name, entry in verdicts.items()}
    if not statuses or any(s not in STATUS_RANK for s in statuses.values()):
        run.problems.append(f"malformed verdicts {statuses}")
        return
    worst = max(statuses.values(), key=STATUS_RANK.__getitem__)
    if manifest.get("overall") != worst or EXIT_STATUS.get(code) != worst:
        run.problems.append(f"overall {manifest.get('overall')!r}, worst {worst!r}, exit {code}")
    for artifact in manifest.get("artifacts", []):
        if not (outdir / artifact["file"]).is_file():
            run.problems.append(f"artifact {artifact['file']} missing")
    run.verdicts = {name: s for name, s in statuses.items() if not name.startswith("_")}
    run.digest, run.output_bytes = data_digest(outdir)


class Harness:
    """The children of one harness run, in one scratch directory."""

    def __init__(self, name: str, workload: Workload, seed: int, quick: bool) -> None:
        self.name = name
        self.workload = workload
        self.seeds = sweep_seeds(seed, workload.sweep)
        RUNS_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS_DIR))
        self.config = workload.quick if quick else workload.config
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.runs: list[Invocation] = []
        self.setups: list[Child] = []
        self.reference: dict[int, str | None] = {}  # master seed -> first data digest
        self._count = 0
        self._deadline = time.monotonic() + RUN_BUDGET_S

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    def _next(self) -> int:
        self._count += 1
        return self._count

    def _remaining(self) -> float:
        return self._deadline - time.monotonic()

    def setup(self) -> Child:
        # subordinator builds no environment; the others build the one of a sweep seed
        config = "-" if self.workload.command == "subordinator" else str(self.config_path)
        seed = self.seeds[len(self.setups) % len(self.seeds)]
        child = spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), "setup", config, str(seed)],
            self.dir / f"setup-{self._next()}.err",
            self._remaining(),
        )
        if child.code != 0:
            raise BenchError(f"setup child exited {child.code}: {child.stderr.strip()[-500:]}")
        check_source_path(child)
        self.setups.append(child)
        return child

    def cli(self, seed: int, threads: int = THREADS, traced: bool = False) -> Invocation:
        index = self._next()
        outdir = self.dir / f"out-{index}"
        cli_args = [
            self.workload.command,
            "--config", str(self.config_path),
            "--seed", str(seed),
            "--out", str(outdir),
            "--threads", str(threads),
        ]
        spans_path = self.dir / f"spans-{index}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "trace", str(spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "clockproc.cli"]
        child = spawn(argv + cli_args, self.dir / f"cli-{index}.err", self._remaining())
        run = Invocation(seed, threads, traced, child)
        if traced:
            if not spans_path.is_file():
                raise BenchError(f"traced pass failed: {run.child.stderr.strip()[-500:]}")
            check_source_path(run.child)
            run.spans = json.loads(spans_path.read_text())
        inspect(run, outdir, self.workload.command)
        # determinism gate: every run must reproduce the data files of the
        # first run at its seed
        reference = self.reference.setdefault(seed, run.digest)
        if run.digest != reference:
            run.problems.append(f"data digest {run.digest} differs from the first run's {reference}")
        shutil.rmtree(outdir, ignore_errors=True)
        self.runs.append(run)
        return run

    def timed(self, seconds: float) -> list[list[Invocation]]:
        """Untraced repetitions, each one run per sweep seed, until
        ``seconds`` have passed (at least one)."""
        repetitions = []
        start = time.perf_counter()
        while not repetitions or time.perf_counter() - start < seconds:
            repetitions.append([self.cli(seed) for seed in self.seeds])
        return repetitions

    def outcome(self) -> tuple[bool, int, int]:
        failed = sum(1 for run in self.runs if run.problems)
        return failed == 0, len(self.runs) + len(self.setups), failed


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_environment(seed: int, quick: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN,
        "threads": THREADS,
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "comparable": not quick,
    }


def verdict_counts(run: Invocation) -> dict[str, int]:
    statuses = list(run.verdicts.values())
    return {status: statuses.count(status) for status in STATUS_RANK}


def end_to_end(harness: Harness, seconds: float) -> dict:
    """Medians over every timed CLI run of every repetition, so over the
    sweep seeds' environments too."""
    for _ in range(SETUP_SAMPLES):
        harness.setup()
    runs = [run.child for sweep in harness.timed(seconds) for run in sweep]
    return {
        "wall_s": (statistics.median(c.wall_s for c in runs), "s"),
        "setup_s": (statistics.median(c.wall_s for c in harness.setups), "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in runs), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in runs), "MB"),
    }


# unit of each per-layer metric, by name suffix
def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("speedup"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def traced_pass(harness: Harness) -> dict:
    """At the first sweep seed: one traced run at ``--threads 2``, then one
    untraced run at ``--threads 1``.

    A third, untraced run at ``--threads 2`` would take
    subordinator-defaults past the 180 s a run may last, so the tracing
    overhead is measured inside the traced child instead (see ``child.py``).
    """
    seed = harness.seeds[0]
    traced = harness.cli(seed, traced=True)
    serial = harness.cli(seed, threads=1)
    metrics = layer_metrics(traced.spans)
    counts = verdict_counts(traced)
    metrics.update(
        {
            "parallel.speedup": serial.child.wall_s / traced.child.wall_s,
            "cli.output_bytes": traced.output_bytes,
            "cli.verdict_fail": counts["fail"],
            "cli.verdict_warn": counts["warn"],
        }
    )
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def report(harness: Harness, environment: dict) -> dict:
    first = next((run for run in harness.runs if run.verdicts), None)
    return {
        "workload": harness.name,
        "command": harness.workload.command,
        "config": harness.config,
        "seeds": harness.seeds,
        "environment": environment,
        "verdicts": first.verdicts if first else {},
        "verdict_counts": verdict_counts(first) if first else {},
        "setup_s": [child.wall_s for child in harness.setups],
        "runs": [run.record() for run in harness.runs],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    harness = Harness(name, WORKLOADS[name], seed, quick)
    try:
        metrics = traced_pass(harness) if trace else end_to_end(harness, seconds)
        correct, attempted, failed = harness.outcome()
        detail = report(harness, run_environment(seed, quick))
    finally:
        harness.close()
    for metric, (value, unit) in metrics.items():
        print(f"{name:24s} {metric:38s} {value:>16.6g} {unit}")
    print(json.dumps({"report": detail}, sort_keys=True))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="clockproc master seed")
    parser.add_argument(
        "--seconds", type=float, default=1.0,
        help="repeat the timed run until this long has passed, at least once (--trace 0 only)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke check: each workload (or --workload) once, small budgets, traced; not comparable",
    )
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must lie in [0, 2^64)")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if not (SOURCE / "clockproc" / "cli.py").is_file():
            raise BenchError(f"no clockproc source under {SOURCE}")
        if not args.quick:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = [run_workload(name, args.seed, 0.0, True, quick=True) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {
        "quick": True,
        "comparable": False,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
