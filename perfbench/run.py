#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pebilliards CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tangency-survey --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run generates a round of CLI operations from the seed, then repeats
that round until `--seconds` have passed (and at least MIN_OPS operations
were attempted).  Each operation is one in-process call of
`pebilliards.cli.main`; only that call is timed, and scaled to the
machine's speed of the moment by a calibration kernel timed between
operations (`scaled`); the latency percentiles are taken over every
untraced execution's scaled time.  The first round's outputs are checked against
independent computations; later rounds must reproduce the first round's
bytes.  With `--trace 0` the run also times SETUP_REPEATS fresh
interpreters between rounds and reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced rounds (at least three,
untraced first) and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys "correct", "attempted",
"failed" and "metrics".  See README.md.
"""

from __future__ import annotations

import os

# Single-threaded numerics, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"

#: Fresh interpreters timed per untraced run for setup_s, spread evenly
#: over the run; the median of their scaled times is reported.
SETUP_REPEATS = 8

#: Reference time of `calibration_kernel`, in seconds: about its time on the
#: machine of README.md's figures in its faster phase.  Times are reported as
#: they would read at that speed.
KERNEL_REF_S = 0.002

#: A run attempts at least this many operations, so every operation runs in
#: at least three rounds (a round holds 19-41) and at least ten executions lie
#: beyond op_p90_ms.
MIN_OPS = 100

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "confocal.tangency_parameters.calls": "count",
    "confocal.tangency_parameters.p50_us": "us",
    "confocal.self_ms": "ms",
    "confocal.roots": "count",
    "confocal.near_pole_discards": "count",
    "confocal.cleared_polynomial.calls": "count",
    "billiard.bounces": "count",
    "billiard.us_per_bounce": "us",
    "billiard.self_ms": "ms",
    "billiard.quarantines": "count",
    "billiard.drift_over_1e-9": "count",
    "pecore.raystates": "count",
    "cli.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "lorentz_oval.chord_step.calls": "count",
    "lorentz_oval.chord_step.p50_us": "us",
    "lorentz_oval.self_ms": "ms",
    "lorentz_oval.chord_steps_per_periodic": "count",
    "lorentz_oval.chord_steps_per_derivative": "count",
    "lorentz_oval.build_accelerating_table.p50_ms": "ms",
    "lorentz_oval.coordinate_extrema.scans": "count",
    "verify.commutation_sweep.self_ms": "ms",
    "verify.bracket_samples_per_s": "samples/s",
    "verify.gradient_bytes": "bytes",
    "verify.drift_report.self_ms": "ms",
    "untraced.wall_s": "s",
    "traced.wall_s": "s",
    "trace.overhead_pct": "%",
}

#: Metrics of verify.commutation_sweep, which only integral-sweeps runs.
#: BENCHMARK.json does not list that workload, so they are reported on it
#: alone rather than as constant zeros on the others.
SWEEP_ONLY = ("verify.commutation_sweep.self_ms", "verify.bracket_samples_per_s", "verify.gradient_bytes")


def calibration_kernel() -> float:
    """Fixed work of the program's kind, ~2 ms: a Python float loop, small
    float64 and longdouble array steps and scalar brentq solves.  It calls no
    program code, so a change to the program does not change its time."""
    s = 0.0
    for i in range(4000):
        s += math.sqrt(i + 1.0) * 1e-3
    a = np.linspace(0.5, 2.0, 48)
    ld = a.astype(np.longdouble)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0) - 0.5
        ld = np.sqrt(ld * ld + 1) - ld * 0.25
        s += float(a @ a) + float(np.sum(ld))
    for k in range(12):
        s += brentq(lambda t: np.cos(t) - 0.05 * k - 0.2 * t, -1.0, 3.0, xtol=1e-14)
    return s


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A time scaled to the reference speed by the kernel times around it.

    The CPU of the machine these figures were taken on changes speed by up
    to 2x, for seconds to minutes at a time (README.md), and everything
    running on it slows alike.  Timed right before and after an operation,
    the kernel measures the speed the operation ran at; over 60-100 rounds
    of one process, scaled round times spread 4-6% where raw ones spread
    22-27%.
    """
    return seconds * KERNEL_REF_S / (0.5 * (kernel_before + kernel_after))


def time_setup() -> float:
    """Scaled wall time of one fresh interpreter importing pebilliards.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pebilliards.cli"
    before = time_kernel()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    return scaled(elapsed, before, time_kernel())


def digest_dir(path: Path) -> tuple[str, int]:
    """Digest of every file's name and bytes in an output directory, and their total size."""
    h = hashlib.sha256()
    total = 0
    for f in sorted(path.iterdir()) if path.is_dir() else ():
        data = f.read_bytes()
        total += len(data)
        h.update(f.name.encode() + b"\0" + data)
    return h.hexdigest(), total


def round_time(rounds: list[dict]) -> float:
    """Median over the given rounds of one round's scaled time."""
    return statistics.median(sum(r["latencies"]) for r in rounds)


class Runner:
    """Runs one workload's round repeatedly and judges every operation."""

    def __init__(self, cli, ops, layers=None):
        self.cli = cli
        self.ops = ops
        self.layers = layers
        self.first: list[tuple] | None = None  # per op: (rc, digest, problems)
        self.unexpected: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict] = []

    def _judge(self, op, rc) -> list[str]:
        if isinstance(rc, str):
            return [rc]
        try:
            return op.check(rc, op.out)
        except Exception as exc:  # a malformed or missing output file
            return [f"output check raised {type(exc).__name__}: {exc}"]

    def run_round(self, traced: bool) -> None:
        if traced:
            self.layers.begin_round()
        latencies = []
        failed = 0
        written = 0
        current = []
        kernel = time_kernel()
        for i, op in enumerate(self.ops):
            unprepared = None
            if self.first is None and op.prepare is not None:
                try:
                    op.prepare()
                except (OSError, ValueError, KeyError) as exc:  # an earlier operation's output is missing
                    unprepared = f"no input: {type(exc).__name__}: {exc}"
            if traced:
                self.layers.tracer.op = len(self.rounds) * len(self.ops) + i
            # Every execution writes into a fresh directory, as a user's run would.
            shutil.rmtree(op.out, ignore_errors=True)
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except Exception as exc:
                rc = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            kernel_after = time_kernel()
            latencies.append(scaled(elapsed, kernel, kernel_after))
            kernel = kernel_after
            digest, nbytes = digest_dir(op.out)
            written += nbytes
            if self.first is None:
                problems = [unprepared] if unprepared else self._judge(op, rc)
            else:
                rc0, digest0, problems = self.first[i]
                if (rc, digest) != (rc0, digest0):
                    problems = problems + [f"output differs from the first round (exit {rc})"]
            current.append((rc, digest, problems))
            if problems:
                failed += 1
                fault = op.known_fault
                if fault is None or any(not p.startswith(fault) for p in problems):
                    self.unexpected.append(f"{op.label}: {'; '.join(problems)}")
        if traced:
            self.layers.end_round()
        if self.first is None:
            self.first = current
        self.attempted += len(self.ops)
        self.failed += failed
        self.rounds.append({"traced": traced, "latencies": latencies, "bytes": written})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))

    from pebilliards import cli
    from tracing import LayerReport, Tracer
    from workloads import WORKLOADS

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        stats = Counter()
        ops = WORKLOADS[name](seed, work, stats)
        layers = LayerReport(Tracer()) if trace else None
        runner = Runner(cli, ops, layers)
        setup_times: list[float] = []
        start = time.perf_counter()
        while True:
            runner.run_round(traced=trace and len(runner.rounds) % 2 == 1)
            elapsed = time.perf_counter() - start
            due = len(setup_times) * seconds / SETUP_REPEATS
            if not trace and len(setup_times) < SETUP_REPEATS and elapsed >= due:
                setup_times.append(time_setup())
            done = time.perf_counter() - start >= seconds
            if trace:
                done = done and len(runner.rounds) >= 3
            else:
                done = done and runner.attempted >= MIN_OPS
            if done:
                break
        while not trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in runner.rounds if not r["traced"]]
    if trace:
        # Round 0 runs cold and is left out of the overhead comparison.
        untraced_wall = round_time(untraced[1:])
        traced_wall = round_time([r for r in runner.rounds if r["traced"]])
        metrics = layers.metrics()
        metrics["billiard.drift_over_1e-9"] = stats["drift_over_1e-9"]
        metrics["cli.bytes_written"] = runner.rounds[0]["bytes"]
        metrics["untraced.wall_s"] = untraced_wall
        metrics["traced.wall_s"] = traced_wall
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        units = {k: u for k, u in PER_LAYER_UNITS.items() if name == "integral-sweeps" or k not in SWEEP_ONLY}
        trace_file = TRACE_DIR / f"{name}-seed{seed}.json"
        layers.tracer.write(trace_file, {"workload": name, "seed": seed, "ops": [op.label for op in ops]})
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        times = [t for r in untraced for t in r["latencies"]]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": round_time(untraced),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_p90_ms": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    print(
        f"workload {name}, seed {seed}: {len(runner.rounds)} rounds of {len(ops)} operations, "
        f"{runner.attempted} attempted, {runner.failed} failed"
    )
    if stats["drift_over_1e-9"]:
        print(f"  orbits over the conservation limits (drift fault): {stats['drift_over_1e-9']} per round")
    for problem in runner.unexpected[:10]:
        print(f"  unexpected failure: {problem}", file=sys.stderr)
    for key, unit in units.items():
        print(f"  {key:46s} {metrics[key]:14.6g} {unit}")
    return {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload, each in a fresh process, followed by one summary table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':18s} {'attempted':>9s} {'failed':>6s} correct")
    for name, res in results.items():
        print(f"{name:18s} {res['attempted']:9d} {res['failed']:6d} {res['correct']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pebilliards" / "cli.py").is_file():
        print(f"no pebilliards sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
