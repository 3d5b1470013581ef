"""Run one benchmark workload through the adt CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Operations call ``adt.cli.main(argv)`` in this one process, one
after another (a closed loop with one client), on documents generated from
``--seed``.  Input generation and output checks sit outside the timed
interval.  Times are wall times scaled to a reference host speed (see
clock.py); the raw wall times go to the line before the result.  The last
line of stdout is one JSON object: end-to-end metrics with ``--trace 0``;
with ``--trace 1``, per-layer metrics from a traced pass, with as many
untraced operations interleaved to give the tracing overhead.  Exit status
is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from clock import timed
from workloads import WORKLOADS, Result, Workload, make_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
SETUPS = 3  # set-up repetitions; setup_s is their median
RSS_MIN_OPS = 8  # peak RSS is read after the first whole cycles covering this many ops
TAIL_BEYOND = 10  # op_tail_ms: the latency with this many samples above it
DEADLINE_FACTOR = 4  # the timed loop ends by this many times --seconds of real time


def import_adt():
    """Import adt afresh from src/ (a new intern table, nothing cached)."""
    for name in [m for m in sys.modules if m == "adt" or m.startswith("adt.")]:
        del sys.modules[name]
    cli = importlib.import_module("adt.cli")
    if Path(cli.__file__).resolve().parent != SRC / "adt":
        raise ImportError(f"adt was imported from {cli.__file__}, not from {SRC}")
    return cli


class Bench:
    """One workload's operations: seeded inputs, runs and checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, cli):
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.inputs = work / "in"
        self.out = work / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.reference = None
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)

    def make(self, stream: str, index: int):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        return make_op(self.workload, self.seed, stream, index, self.inputs, self.out)

    def run(self, op) -> list:
        """Run the operation's command lines, stopping at the first failure."""
        outcome = []
        for argv in op.calls:
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc = f"raised {type(exc).__name__}: {exc}"
            outcome.append((argv, rc, stdout.getvalue()))
            if rc != 0:
                break
        return outcome

    def check(self, op, outcome, stream: str, index: int):
        try:
            result = self.workload.check(op, outcome)
        except Exception as exc:  # a malformed artifact fails the operation
            result = Result([f"check raised {type(exc).__name__}: {exc}"], {})
        if stream == "main" and self.reference and index < len(self.reference):
            if not result.problems and result.record != self.reference[index]:
                result.problems.append(f"differs from the recorded reference: {result.record}")
        return result

    def bytes_out(self, outcome) -> int:
        written = sum(p.stat().st_size for p in self.out.iterdir())
        return written + sum(len(text.encode("utf-8")) for _, _, text in outcome)


class Tally:
    """Latencies, failures and deferred checks of the operations run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.latencies: list = []  # scaled seconds
        self.wall: list = []  # raw wall seconds
        self.failures: list = []
        self.deferred: list = []  # (op label, deferred check input)
        self.attempted = 0

    def add(self, label: str, result, wall: float | None = None, scaled: float | None = None) -> None:
        """Count one operation; set-up operations pass no times."""
        self.attempted += 1
        if wall is not None:
            self.wall.append(wall)
            self.latencies.append(scaled)
        if result.problems:
            self.failures.append((label, result.problems))
        elif result.deferred is not None:
            self.deferred.append((label, result.deferred))

    def finish(self) -> None:
        labels = [label for label, _ in self.deferred]
        problems = self.workload.finish([item for _, item in self.deferred])
        self.failures.extend((label, p) for label, p in zip(labels, problems) if p)
        self.deferred = []


def setup(workload: Workload, seed: int, work: Path, index: int):
    """Import adt, write a warm-up operation's documents and run it.
    Returns (bench, warm-up outcome, wall seconds, scaled seconds)."""

    def prepare():
        bench = Bench(workload, seed, work, import_adt())
        op = bench.make(f"setup{index}", 0)
        return bench, op, bench.run(op)

    (bench, op, outcome), wall, scaled = timed(prepare)
    return bench, bench.check(op, outcome, "setup", 0), wall, scaled


def cycle_ops(workload: Workload, at_least: int) -> int:
    cycle = len(workload.variants)
    return -(-at_least // cycle) * cycle


def measure(bench: Bench, tally: Tally, seconds: float) -> float:
    """Closed loop over whole cycles of variants until the timed wall time
    reaches ``seconds``, or ``DEADLINE_FACTOR`` times that in real time has
    passed (only operations that fail fast get there).  Returns the peak
    RSS in MB after the first ``RSS_MIN_OPS`` operations, rounded up to
    whole cycles."""
    cycle = len(bench.workload.variants)
    rss_at = cycle_ops(bench.workload, RSS_MIN_OPS)
    deadline = time.monotonic() + DEADLINE_FACTOR * seconds
    rss_mb = None
    index = 0
    while True:
        op = bench.make("main", index)
        outcome, wall, scaled = timed(bench.run, op)
        tally.add(f"main/{index}", bench.check(op, outcome, "main", index), wall, scaled)
        index += 1
        if index == rss_at:
            rss_mb = peak_rss_mb()
        if index % cycle == 0 and index >= rss_at and (
                sum(tally.wall) >= seconds or time.monotonic() >= deadline):
            return rss_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[-1], 100.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_plain(workload: Workload, seed: int, seconds: float, work: Path) -> tuple:
    setups = [setup(workload, seed, work, i) for i in range(SETUPS)]
    bench = setups[-1][0]
    tally = Tally(workload)
    for i, (_, result, _, _) in enumerate(setups):
        tally.add(f"setup{i}", result)
    rss_mb = measure(bench, tally, seconds)
    tally.finish()
    lat, wall = tally.latencies, tally.wall
    tail_s, percentile = tail(lat)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "ok_frac": ((tally.attempted - len(tally.failures)) / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(s[3] for s in setups), "s"),
    }
    detail = {"ops": len(lat), "tail_percentile": percentile, "tail_samples_beyond": TAIL_BEYOND,
              "rss_after_ops": cycle_ops(workload, RSS_MIN_OPS),
              "wall_ops_per_s": len(wall) / sum(wall), "wall_p50_ms": 1000 * statistics.median(wall),
              "wall_setup_s": [s[2] for s in setups], "scaled_setup_s": [s[3] for s in setups]}
    return metrics, tally, detail


def run_traced(workload: Workload, seed: int, seconds: float, work: Path) -> tuple:
    bench, warm, _, _ = setup(workload, seed, work, 0)
    tally = Tally(workload)
    tally.add("setup0", warm)
    # A fixed op count (from --seconds, not from the clock) keeps every count
    # deterministic for a seed.
    cycles = max(1, round(seconds / (2 * workload.cycle_s)))
    ops = cycles * len(workload.variants)
    tracer = tracing.Tracer()
    untraced = Tally(workload)
    traced = Tally(workload)

    def run_traced_op(op, index):
        with tracer.root(index):
            return bench.run(op)

    for index in range(ops):
        op = bench.make("untraced", index)
        outcome, wall, scaled = timed(bench.run, op)
        untraced.add(f"untraced/{index}", bench.check(op, outcome, "untraced", index), wall, scaled)

        op = bench.make("traced", index)
        first = len(tracer.spans)
        tracer.install()
        outcome, wall, scaled = timed(run_traced_op, op, index)
        tracer.uninstall()
        tracer.absorb(first, bench.bytes_out(outcome), scaled / wall)
        traced.add(f"traced/{index}", bench.check(op, outcome, "traced", index), wall, scaled)
    for part in (untraced, traced):
        part.finish()
        tally.attempted += part.attempted
        tally.failures += part.failures
    intern_live = len(importlib.import_module("adt.canonical")._INTERN)
    overhead = sum(traced.latencies) / sum(untraced.latencies) - 1
    metrics = tracing.layer_metrics(tracer, ops, overhead, intern_live)
    trace_file = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(trace_file)
    detail = {"ops_traced": ops, "traced_wall_s": sum(traced.wall),
              "untraced_wall_s": sum(untraced.wall), "spans": len(tracer.spans),
              "span_file": str(trace_file.relative_to(ROOT))}
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adt" / "cli.py").is_file():
        print(f"error: no adt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        runner = run_traced if args.trace else run_plain
        metrics, tally, detail = runner(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    detail.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "failures": tally.failures[:5],
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
