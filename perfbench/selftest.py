"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. The same seed yields byte-identical input documents; another seed
   yields different ones.
2. An injected wrong ``Fraction`` (plain cost + 1/8 in plain_distance,
   adapted cost + 1/8 in nested_coupling) fails every operation it touches.
3. In a traced pass, span self times are non-negative and sum to the
   traced wall time, and the stage problems read from the traced distance
   tables agree with the size counts computed from the inputs.
4. The default seed reproduces the recorded reference values.
Prints one line per test and exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
from fractions import Fraction

import run
import sizes
import tracing
from workloads import WORKLOADS


def expect(condition: bool, message: str) -> None:
    """Fail the current test; unlike ``assert``, also under ``python -O``."""
    if not condition:
        raise AssertionError(message)

def _documents(workload, seed: int, work) -> list:
    docs = []
    for index in range(len(workload.variants)):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run.make_op(workload, seed, "main", index, work, work)
        docs.append(sorted((p.name, p.read_bytes()) for p in work.iterdir()))
    return docs


def test_inputs(work) -> str:
    for workload in WORKLOADS.values():
        first = _documents(workload, 1, work / "a")
        again = _documents(workload, 1, work / "b")
        other = _documents(workload, 2, work / "c")
        expect(first == again, f"{workload.name}: seed 1 gave different bytes")
        expect(all(a != c for a, c in zip(first, other)), f"{workload.name}: seeds 1 and 2 collide")
    return "same seed, same bytes; other seed, other bytes"


@contextlib.contextmanager
def _injected(module, name: str, wrong):
    original = getattr(module, name)
    setattr(module, name, wrong(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _failed_ops(name: str, work, ops: int) -> int:
    workload = WORKLOADS[name]
    bench = run.Bench(workload, 7, work, sys.modules["adt.cli"])
    tally = run.Tally(workload)
    for index in range(ops):
        op = bench.make("inject", index)
        tally.add(str(index), bench.check(op, bench.run(op), "inject", index))
    tally.finish()
    return len(tally.failures)


def test_injection(work) -> str:
    cli = sys.modules["adt.cli"]
    plus = Fraction(1, 8)

    def wrong_plain(fn):
        return lambda a, b: fn(a, b) + plus

    def wrong_adapted(fn):
        def wrapper(a, b):
            value, table = fn(a, b)
            return value + plus, table
        return wrapper

    expect(_failed_ops("plain_distance", work, 3) == 0, "clean plain_distance ops failed")
    with _injected(cli, "wasserstein_paths", wrong_plain):
        expect(_failed_ops("plain_distance", work, 3) == 3, "wrong plain cost passed")
    with _injected(cli, "aw_distance", wrong_adapted):
        expect(_failed_ops("nested_coupling", work, 2) == 2, "wrong adapted cost passed")
    return "wrong plain and adapted costs are counted as failed"


def test_spans(work) -> str:
    for name in ("nested_coupling", "shared_family", "plain_distance"):
        workload = WORKLOADS[name]
        ops = len(workload.variants)
        bench = run.Bench(workload, 3, work, sys.modules["adt.cli"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for index in range(ops):
                op = bench.make("traced", index)
                first = len(tracer.spans)
                with tracer.root(index):
                    bench.run(op)
                tracer.absorb(first, 0, 1.0)
        finally:
            tracer.uninstall()
        selfs = tracer.self_times()
        wall = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.NAME] == "bench.op")
        expect(min(selfs) >= -1e-9, f"{name}: negative self time")
        expect(abs(sum(selfs) - wall) <= 1e-9 * max(wall, 1.0), f"{name}: self times do not sum to the wall")
        counts = tracer.counts
        expected = sizes.count(workload, 3, "traced", ops, work / "sizes")
        expect(counts.terminal_problems / counts.stage_problems == expected["stage_terminal_share"],
               f"{name}: traced terminal share differs from the size count")
        expect(counts.stage_problems == expected["stage_problems"], f"{name}: stage problem count differs")
    return "self times sum to the traced wall; traced stage counts match the size counts"


def test_reference(work) -> str:
    failed = 0
    for name, workload in WORKLOADS.items():
        bench = run.Bench(workload, run.DEFAULT_SEED, work / name, sys.modules["adt.cli"])
        expect(bench.reference, f"{name}: no recorded reference")
        tally = run.Tally(workload)
        for index in range(len(bench.reference)):
            op = bench.make("main", index)
            tally.add(str(index), bench.check(op, bench.run(op), "main", index))
        tally.finish()
        failed += len(tally.failures)
    expect(failed == 0, f"{failed} operations differ from the reference")
    return "default seed reproduces the recorded values"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.import_adt()
    work = run.ROOT / ".perfbench_work" / "selftest"
    status = 0
    try:
        for test in (test_inputs, test_injection, test_spans, test_reference):
            try:
                print(f"ok   {test.__name__}: {test(work)}")
            except AssertionError as exc:
                print(f"FAIL {test.__name__}: {exc}")
                status = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
