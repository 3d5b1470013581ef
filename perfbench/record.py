"""Record the exact outputs the default seed must reproduce.

    python3 perfbench/record.py

Runs the first operations of every workload at the default seed (as many
as every timed run completes before it may stop) and writes their checked
values and digests to reference.json.  A timed run at the default seed then
fails any operation whose values differ.  Re-record only when a change is
meant to alter an exact output, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_adt()
    reference = {}
    for name, workload in WORKLOADS.items():
        work = run.ROOT / ".perfbench_work" / f"record-{name}"
        try:
            bench = run.Bench(workload, run.DEFAULT_SEED, work, cli)
            bench.reference = None
            records = []
            for index in range(run.cycle_ops(workload, run.RSS_MIN_OPS)):
                op = bench.make("main", index)
                result = bench.check(op, bench.run(op), "main", index)
                problems = result.problems or (workload.finish([result.deferred])[0]
                                               if result.deferred else [])
                if problems:
                    print(f"{name} op {index} failed: {problems}", file=sys.stderr)
                    return 1
                records.append(result.record)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reference[name] = records
        print(f"{name}: {len(records)} operations", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
