"""Exact size counts of the documents the benchmark generates.

    python3 perfbench/sizes.py [--seed N] [--stream main] [--cycles K]

For the first K cycles of operations of each workload this prints, as JSON,
the nodes and leaves of every document, the canonical atoms per level, the
stage problems the adapted-distance recursion must solve (one per pair of
same-time atoms below the last level, plus the root) with their shape
histogram, the share of them between two terminal-atom laws, the share whose
atom pair was already solved earlier in the same run, and the shapes of the
plain path-space problems.  Canonical atoms are computed here, without adt,
so the counts describe the inputs and not the program under test.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, Workload, make_op

ROOT = Path(__file__).resolve().parent.parent


class Atoms:
    """Hash-consed nested atoms: an atom is (value, law over atom ids)."""

    def __init__(self):
        self._ids: dict = {}
        self.laws: list = []

    def _atom(self, value, law: dict) -> int:
        key = (value, tuple(sorted(law.items())))
        if key not in self._ids:
            self._ids[key] = len(self.laws)
            self.laws.append(key[1])
        return self._ids[key]

    def form(self, tree) -> tuple:
        """(time-1 law as a sorted tuple, reachable atom ids per level)."""
        atom_of: dict = {}
        for nid in sorted(tree.nodes, key=lambda n: -tree.nodes[n].time):
            node = tree.nodes[nid]
            law: dict = {}
            for cid, q in node.children:
                law[atom_of[cid]] = law.get(atom_of[cid], 0) + q
            atom_of[nid] = self._atom(node.value, law)
        top: dict = {}
        for cid, p in tree.roots:
            top[atom_of[cid]] = top.get(atom_of[cid], 0) + p
        levels = [set(top)]
        while len(levels) < tree.steps:
            levels.append({child for atom in levels[-1] for child, _ in self.laws[atom]})
        return tuple(sorted(top.items())), levels


def count(workload: Workload, seed: int, stream: str, ops: int, work: Path) -> dict:
    atoms = Atoms()
    solved: set = set()
    shapes: Counter = Counter()
    plain_shapes: Counter = Counter()
    rows = []
    problems = terminal = repeats = 0
    work.mkdir(parents=True, exist_ok=True)
    for index in range(ops):
        op = make_op(workload, seed, stream, index, work, work)
        trees, adapted, plain = workload.inputs(op)
        forms = {id(tree): atoms.form(tree) for tree in trees}
        for left, right in adapted:
            (top_a, levels_a), (top_b, levels_b) = forms[id(left)], forms[id(right)]
            steps = len(levels_a)
            stage = [((top_a, top_b), len(top_a), len(top_b), steps == 1)]
            for t in range(steps - 1):
                stage += [((a, b), len(atoms.laws[a]), len(atoms.laws[b]), t == steps - 2)
                          for a in levels_a[t] for b in levels_b[t]]
            for key, m, n, last in stage:
                problems += 1
                terminal += last
                repeats += key in solved
                solved.add(key)
                shapes[f"{m}x{n}"] += 1
        for left, right in plain:
            plain_shapes[f"{len(left.path_law())}x{len(right.path_law())}"] += 1
        rows.append({
            "nodes": [tree.size() for tree in trees],
            "leaves": [len(tree.leaves()) for tree in trees],
            "atoms_per_level": [[len(level) for level in forms[id(tree)][1]] for tree in trees],
        })
    return {
        "ops": ops,
        "stage_problems": problems,
        "stage_terminal_share": terminal / problems if problems else 0.0,
        "stage_repeat_share": repeats / problems if problems else 0.0,
        "stage_shapes": dict(sorted(shapes.items())),
        "plain_shapes": dict(sorted(plain_shapes.items())),
        "per_op": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--stream", default="main")
    parser.add_argument("--cycles", type=int, default=2)
    args = parser.parse_args(argv)
    work = ROOT / ".perfbench_work" / "sizes"
    try:
        out = {name: count(w, args.seed, args.stream, args.cycles * len(w.variants), work)
               for name, w in WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    json.dump({"seed": args.seed, "stream": args.stream, "workloads": out}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
