"""Ungated scaling ladder: the ROADMAP baseline instances, one step each.

    python3 perfbench/ladder.py [--cap SECONDS] [--seed N] [--out FILE]

Steps: ``adt distance`` on random-walk pairs (the symmetric +-1 walk from 0
against the +-1/2 walk) for N = 4..8, on seeded bushy pairs with (N, width)
in (3, 6), (4, 5), (3, 10), and ``adt fixture --n 4`` at k = 12 and 60.
Each step runs in this process under a wall-time cap (SIGALRM); a step that
hits the cap is recorded as a timeout with the time spent, never dropped.
Per step the JSON output holds the exit code, the wall time (unscaled), the
exact values, the input sizes and the traced self time of each wrapped
function.  Nothing here is part of the gated benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class StepTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise StepTimeout


def walk(steps: int, step: Fraction) -> gen.Tree:
    """Symmetric +-step random walk from 0, natural filtration."""
    nodes: dict = {}

    def build(t: int, value: Fraction, path: str) -> str:
        nid = "w" + path
        node = gen.Node(t, value)
        nodes[nid] = node
        if t < steps:
            node.children = [(build(t + 1, value + step, path + "u"), Fraction(1, 2)),
                             (build(t + 1, value - step, path + "d"), Fraction(1, 2))]
        return nid

    return gen.Tree(steps, nodes, [(build(1, Fraction(0), "r"), Fraction(1))])


def steps(seed: int) -> list:
    """(name, kind, data) per step: kind "distance" with a pair of trees,
    or "fixture" with its k."""
    out = []
    for n in range(4, 9):
        out.append((f"walk_N{n}", "distance", (walk(n, Fraction(1)), walk(n, Fraction(1, 2)))))
    for n, width in ((3, 6), (4, 5), (3, 10)):
        rng = random.Random(f"{seed}/ladder/bushy/{n}x{width}")
        out.append((f"bushy_N{n}_w{width}", "distance", (gen.bushy(rng, n, width), gen.bushy(rng, n, width))))
    for k in (12, 60):
        out.append((f"fixture_n4_k{k}", "fixture", k))
    return out


def machine() -> dict:
    info = {"python": platform.python_version(), "cpus": os.cpu_count(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else None
    except OSError:
        info["cpu_model"] = None
    return info


def run_step(cli, name: str, kind: str, data, work: Path, cap: float) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    if kind == "fixture":
        argv = ["fixture", "--n", "4", "--k", str(data), "--out", str(out)]
        row = {"step": name, "k": data}
    else:
        left, right = data
        paths = []
        for side, tree in (("left", left), ("right", right)):
            path = work / f"{side}.json"
            path.write_bytes(tree.to_bytes())
            paths.append(str(path))
        argv = ["distance", *paths, "--out", str(out)]
        row = {"step": name, "nodes": [left.size(), right.size()],
               "paths": [len(left.path_law()), len(right.path_law())]}
    tracer = tracing.Tracer()
    tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        with tracer.root(0), contextlib.redirect_stdout(io.StringIO()):
            row["exit"] = cli.main(argv)
        row["status"] = "ok"
    except StepTimeout:
        row["status"] = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        row["wall_s"] = time.perf_counter() - start
        tracer.uninstall()
    row["cap_s"] = cap
    # ot_solve is keyed by its caller, which tells stage LPs from plain ones.
    self_times: dict = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span[tracing.NAME]
        if name == "transport.ot_solve" and span[tracing.PARENT] >= 0:
            name += " in " + tracer.spans[span[tracing.PARENT]][tracing.NAME]
        self_times[name] = self_times.get(name, 0.0) + own
    row["self_s"] = dict(sorted(self_times.items()))
    if row["status"] == "ok":
        artifact = out / ("fixture.json" if kind == "fixture" else "distance.json")
        doc = json.loads(artifact.read_text(encoding="utf-8"))
        if kind == "fixture":
            row["values"] = {"w1": doc["w1"].get("exact"), "ot_value": (doc["ot_value"] or {}).get("exact")}
        else:
            row["values"] = {"adapted": doc["adapted"]["power"]["exact"],
                             "plain": doc["plain"]["power"]["exact"]}
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=float, default=60.0, help="wall-time cap per step, seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import adt.cli as cli

    work = ROOT / ".perfbench_work" / f"ladder-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for name, kind, data in steps(args.seed):
            rows.append(run_step(cli, name, kind, data, work, args.cap))
            print(f"{name}: {rows[-1]['status']} in {rows[-1]['wall_s']:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps({"machine": machine(), "seed": args.seed, "steps": rows}, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
