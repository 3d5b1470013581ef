"""Spans around adt's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function by a wrapper in the module
namespace its callers look it up in (a function imported into several
modules is wrapped in each), and ``uninstall`` puts the originals back.
While an operation runs, every wrapped call appends a span
``[name, start, end, parent, op, payload]`` to an in-memory list; the list is
written out once, after the run.  ``payload`` keeps the arguments and result
of the calls whose sizes feed a per-layer count; ``absorb`` turns them into
counts after each operation, outside the timed interval, and drops them.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

_NAMESPACES = ("cli", "canonical", "transport", "couplings", "skorokhod")

# (module, attribute, span name).  "Class.method" attributes wrap a method.
TARGETS = (
    ("adt.cli", "main", "cli.main"),
    ("adt.cli", "load_tree_file", "process_model.load"),
    ("adt.couplings", "load_tree", "process_model.load"),
    ("adt.transport", "law_on_paths", "process_model.law_on_paths"),
    *((f"adt.{ns}", "information_process", "canonical.information_process") for ns in _NAMESPACES),
    ("adt.canonical", "CanonicalForm.digest", "canonical.digest"),
    ("adt.cli", "digest_tree", "canonical.digest_tree"),
    ("adt.canonical", "digest_tree", "canonical.digest_tree"),
    ("adt.cli", "canonical_tree", "canonical.canonical_tree"),
    ("adt.cli", "hk_equivalent", "canonical.hk_equivalent"),
    # convergence_report imports aw_distance from adt.transport when called.
    ("adt.cli", "aw_distance", "transport.aw_distance"),
    ("adt.transport", "aw_distance", "transport.aw_distance"),
    ("adt.cli", "wasserstein_paths", "transport.wasserstein_paths"),
    ("adt.transport", "ot_solve", "transport.ot_solve"),
    ("adt.cli", "load_coupling", "couplings.load_coupling"),
    ("adt.cli", "assemble_optimal_coupling", "couplings.assemble"),
    ("adt.cli", "check_bicausal", "couplings.check_bicausal"),
    ("adt.cli", "convergence_report", "skorokhod.convergence_report"),
    ("adt.skorokhod", "quantile_map", "skorokhod.quantile_map"),
    ("adt.skorokhod", "lp_distance", "skorokhod.lp_distance"),
    ("adt.skorokhod", "max_pointwise_gap", "skorokhod.max_pointwise_gap"),
)

# Spans whose arguments and result feed a count.
_PAYLOAD = frozenset({
    "process_model.load", "canonical.information_process", "transport.aw_distance",
    "transport.ot_solve", "couplings.assemble",
})

NAME, START, END, PARENT, OP, PAYLOAD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None  # id of the running operation; None records nothing
        self._stack: list = []
        self._saved: list = []
        self._wrappers: dict = {}
        self.counts = Counts()
        self.speed: dict = {}  # op id -> scaled seconds per wall second

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in _PAYLOAD
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if keep:
                span[PAYLOAD] = (args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            key = (id(original), name)
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrappers[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def root(self, op_id):
        """Context manager: a ``bench.op`` span around one whole operation."""
        return _Root(self, op_id)

    def absorb(self, first: int, bytes_out: int, speed: float) -> None:
        """Fold the payloads of spans[first:] (one operation) into counts
        and keep the operation's time scale (see clock.py)."""
        self.speed[self.spans[first][OP]] = speed
        self.counts.absorb(self.spans, first, bytes_out)

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": [s[:PAYLOAD] for s in self.spans]}, handle)


class _Root:
    def __init__(self, tracer: Tracer, op_id):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self):
        tracer = self.tracer
        tracer.op = self.op_id
        self.span = ["bench.op", 0.0, 0.0, -1, self.op_id, None]
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.span)
        self.span[START] = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span[END] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.op = None
        return False


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Counts:
    """Sizes and counts read from span payloads."""

    def __init__(self):
        self.stage_calls = self.stage_cells = self.stage_bits = self.stage_repeats = 0
        self.stage_problems = self.terminal_problems = 0
        self.plain_calls = self.plain_cells = self.plain_bits = 0
        self.loads = self.nodes_parsed = 0
        self.canon_calls = self.atoms_reachable = 0
        self.support_pairs = self.bytes_out = 0
        self._seen_lps: set = set()

    def absorb(self, spans: list, first: int, bytes_out: int) -> None:
        self.bytes_out += bytes_out
        for span in spans[first:]:
            payload, span[PAYLOAD] = span[PAYLOAD], None
            if payload is None:
                continue
            args, result = payload
            name = span[NAME]
            if name == "transport.ot_solve":
                self._lp(spans[span[PARENT]][NAME], args, result)
            elif name == "transport.aw_distance":
                levels = result[1].levels
                # one stage problem per atom pair below the last level, plus the root
                self.stage_problems += sum(len(level) for level in levels[:-1]) + 1
                self.terminal_problems += len(levels[-2]) if len(levels) > 1 else 1
            elif name == "process_model.load":
                self.loads += 1
                self.nodes_parsed += result.size()
            elif name == "canonical.information_process":
                self.canon_calls += 1
                self.atoms_reachable += _reachable(result.form)
            elif name == "couplings.assemble":
                self.support_pairs += len(result.weights)

    def _lp(self, parent: str, args, result) -> None:
        mu, nu, cost = args[:3]
        bits = max(_bits(x) for x in (*mu, *nu, *(c for row in cost for c in row), result[0]))
        cells = len(mu) * len(nu)
        if parent == "transport.wasserstein_paths":
            self.plain_calls += 1
            self.plain_cells += cells
            self.plain_bits = max(self.plain_bits, bits)
            return
        if parent != "transport.aw_distance":
            return
        key = (tuple(mu), tuple(nu), tuple(tuple(row) for row in cost))
        self.stage_repeats += key in self._seen_lps
        self._seen_lps.add(key)
        self.stage_calls += 1
        self.stage_cells += cells
        self.stage_bits = max(self.stage_bits, bits)


def _reachable(form) -> int:
    seen: set = set()
    frontier = [atom for atom, _ in form.law]
    while frontier:
        atom = frontier.pop()
        if atom not in seen:
            seen.add(atom)
            frontier.extend(child for child, _ in atom.law)
    return len(seen)


# Per-layer time metric -> (span name whose self times it sums, and the
# caller span it must sit under, or None for any).
_SELF_TIMES = {
    "transport.stage_lp_s": ("transport.ot_solve", "transport.aw_distance"),
    "transport.nested_self_s": ("transport.aw_distance", None),
    "transport.plain_lp_s": ("transport.ot_solve", "transport.wasserstein_paths"),
    "transport.plain_build_s": ("transport.wasserstein_paths", None),
    "process_model.law_on_paths_s": ("process_model.law_on_paths", None),
    "process_model.load_s": ("process_model.load", None),
    "canonical.information_process_s": ("canonical.information_process", None),
    "canonical.digest_s": ("canonical.digest", None),
    "canonical.canonical_tree_s": ("canonical.canonical_tree", None),
    "couplings.assemble_s": ("couplings.assemble", None),
    "couplings.check_s": ("couplings.check_bicausal", None),
    "couplings.load_s": ("couplings.load_coupling", None),
    "skorokhod.quantile_map_s": ("skorokhod.quantile_map", None),
    "skorokhod.lp_distance_s": ("skorokhod.lp_distance", None),
    "skorokhod.grid_gap_s": ("skorokhod.max_pointwise_gap", None),
    "cli.self_s": ("cli.main", None),
}


def layer_metrics(tracer: Tracer, ops: int, overhead: float, intern_live: int) -> dict:
    """Per-layer metrics of a traced pass of ``ops`` operations.  Times are
    self times in scaled seconds per operation; counts are per operation
    unless they are a maximum, a share or a table size."""
    spans, selfs = tracer.spans, tracer.self_times()
    totals: dict = {}
    for span, own in zip(spans, selfs):
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        for key in {(span[NAME], None), (span[NAME], parent)}:
            totals[key] = totals.get(key, 0.0) + own * tracer.speed[span[OP]]
    c = tracer.counts
    out = {name: (totals.get(key, 0.0) / ops, "s/op") for name, key in _SELF_TIMES.items()}
    out.update({
        "transport.stage_lp_calls": (c.stage_calls / ops, "count/op"),
        "transport.stage_lp_cells": (c.stage_cells / ops, "count/op"),
        "transport.stage_lp_max_bits": (c.stage_bits, "bits"),
        "transport.stage_lp_terminal_share": (_share(c.terminal_problems, c.stage_problems), "ratio"),
        "transport.stage_lp_repeat_share": (_share(c.stage_repeats, c.stage_calls), "ratio"),
        "transport.plain_lp_calls": (c.plain_calls / ops, "count/op"),
        "transport.plain_lp_cells": (c.plain_cells / ops, "count/op"),
        "transport.plain_lp_max_bits": (c.plain_bits, "bits"),
        "process_model.load_calls": (c.loads / ops, "count/op"),
        "process_model.nodes_parsed": (c.nodes_parsed / ops, "count/op"),
        "canonical.information_process_calls": (c.canon_calls / ops, "count/op"),
        "canonical.atoms_reachable": (c.atoms_reachable / ops, "count/op"),
        "canonical.intern_live": (intern_live, "count"),
        "couplings.support_pairs": (c.support_pairs / ops, "count/op"),
        "cli.bytes_out": (c.bytes_out / ops, "B/op"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
