"""Finite filtered processes as probability trees with exact arithmetic.

A process is represented by a tree whose level-``t`` nodes are the atoms of
the time-``t`` sigma-algebra.  Each node carries the value of the process on
that atom plus a free-form ``info`` label; edges carry exact rational
transition probabilities.  A virtual time-0 root holds the time-1
distribution, so the time-1 sigma-algebra need not be trivial.

All probabilities are ``fractions.Fraction`` instances and all values are
rational vectors parsed from fixed-precision decimal strings, so every
derived quantity that is rational in the inputs is computed exactly.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from fractions import Fraction
from numbers import Rational

from .errors import ConfigMismatchError, DocumentError, TreeValidationError

__all__ = [
    "MetricConfig",
    "TreeNode",
    "FilteredTree",
    "DiscreteMeasure",
    "load_tree",
    "load_tree_file",
    "path_cost",
    "path_distance",
    "law_on_paths",
    "parse_probability",
    "parse_value_entry",
    "format_fraction",
    "default_value_decimals",
]

DEFAULT_VALUE_DECIMALS = 12
VALUE_DECIMALS_ENV = "ADT_VALUE_DECIMALS"


def default_value_decimals() -> int:
    """Precision used for decimal value strings, overridable via the environment."""
    raw = os.environ.get(VALUE_DECIMALS_ENV)
    if raw is None:
        return DEFAULT_VALUE_DECIMALS
    try:
        decimals = int(raw)
    except ValueError as exc:
        raise DocumentError(f"{VALUE_DECIMALS_ENV} must be an integer, got {raw!r}") from exc
    if decimals < 0:
        raise DocumentError(f"{VALUE_DECIMALS_ENV} must be nonnegative, got {decimals}")
    return decimals


def parse_probability(raw) -> Fraction:
    """Parse an exact probability from 'a/b', a decimal string, or an integer."""
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        text = raw.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"cannot parse probability {raw!r}") from exc
    raise DocumentError(f"probabilities must be strings or integers, got {type(raw).__name__}")


def parse_value_entry(raw, decimals: int) -> Fraction:
    """Parse one value coordinate.

    Decimal strings are quantized to ``decimals`` places (banker's rounding)
    and then converted exactly; 'a/b' strings bypass quantization so grids
    like thirds survive a round trip.
    """
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raw = repr(raw)
    if not isinstance(raw, str):
        raise DocumentError(f"value coordinates must be strings or numbers, got {type(raw).__name__}")
    text = raw.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"cannot parse value coordinate {raw!r}") from exc
    try:
        quantum = Decimal(1).scaleb(-decimals)
        # a quiet NaN quantizes to itself and fails only as a Fraction
        return Fraction(Decimal(text).quantize(quantum, rounding=ROUND_HALF_EVEN))
    except (InvalidOperation, ValueError) as exc:
        raise DocumentError(f"cannot parse value coordinate {raw!r}") from exc


def format_fraction(value: Fraction, decimals: int) -> str:
    """Render a rational as a decimal string when exact at the given precision,
    falling back to 'a/b'."""
    scaled = value * Fraction(10) ** decimals
    if scaled.denominator == 1:
        dec = Decimal(scaled.numerator).scaleb(-decimals)
        return format(dec.normalize() if decimals else dec, "f")
    return f"{value.numerator}/{value.denominator}"


def _memoized(parse):
    """``parse`` run once per distinct string; one memo serves one document."""
    cached = functools.cache(parse)
    return lambda raw: cached(raw) if type(raw) is str else parse(raw)


def _integers(values):
    """``(ints, scale)`` with ``ints[k] == values[k] * scale``, ``scale`` the
    lcm of the denominators, when every value is rational; otherwise
    ``(values, None)``."""
    if not all(issubclass(t, Rational) for t in set(map(type, values))):
        return values, None
    scale = math.lcm(*{x.denominator for x in values})
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _require_unit_sum(weights, message) -> None:
    """Raise ``TreeValidationError(message(total))`` unless ``weights`` sum
    to exactly 1.  Rational weights are added as integers; the ``Fraction``
    total is built only for the message."""
    ints, scale = _integers(weights)
    if sum(ints) != (scale or 1):
        raise TreeValidationError(message(sum(weights, Fraction(0))))


def _integer_field(raw, message: str) -> int:
    """An integer document field: an int, a whole float or a string ``int``
    reads.  A bool, a non-whole or non-finite number, or anything else
    raises DocumentError with ``message``."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise DocumentError(message)
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise DocumentError(message) from exc


def _order_field(raw) -> Fraction:
    """The config's cost order p: an int, a finite float read through its
    repr, or a string ``Fraction`` reads; anything else raises DocumentError."""
    if isinstance(raw, (int, float, str, Fraction)) and not isinstance(raw, bool):
        try:
            return Fraction(Decimal(repr(raw))) if isinstance(raw, float) else Fraction(raw)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass  # inf, NaN or an unreadable string
    raise DocumentError(f"config p must be a cost order (a number or 'a/b'), got {raw!r}")


def _is_object(raw) -> bool:
    """A JSON object: a dict, or any other mapping."""
    return type(raw) is dict or isinstance(raw, Mapping)


def _is_array(raw) -> bool:
    """A JSON array: a list, or any other sequence but a string."""
    return type(raw) is list or (isinstance(raw, Sequence) and not isinstance(raw, (str, bytes)))


def _json_object(document, kind: str, keys) -> Mapping:
    """A document, parsed or as JSON text, checked to be an object with ``keys``."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"malformed JSON: {exc}") from exc
    if not _is_object(document):
        raise DocumentError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in document:
            raise DocumentError(f"{kind} document is missing key {key!r}")
    return document


@dataclass(frozen=True)
class MetricConfig:
    """Shape and metric of the path space: ``num_steps`` time points, values in
    d-dimensional space, and the order ``p`` of the per-step norm.

    ``p == 0`` selects the weak mode, where the path cost is the 1-norm sum
    truncated at 1 and no powers or roots are applied anywhere.
    """

    num_steps: int
    dim: int
    order: Fraction
    value_decimals: int = DEFAULT_VALUE_DECIMALS

    def __post_init__(self):
        if self.num_steps < 1:
            raise TreeValidationError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.dim < 1:
            raise TreeValidationError(f"dim must be >= 1, got {self.dim}")
        order = Fraction(self.order)
        object.__setattr__(self, "order", order)
        if order != 0 and order < 1:
            raise TreeValidationError(f"order must be 0 (weak) or >= 1, got {order}")
        if self.value_decimals < 0:
            raise TreeValidationError("value_decimals must be nonnegative")

    @property
    def is_weak(self) -> bool:
        return self.order == 0

    @property
    def exact_costs(self) -> bool:
        """True when stage costs are rational in the inputs (weak or integer order)."""
        return self.is_weak or self.order.denominator == 1

    def same_shape(self, other: "MetricConfig") -> bool:
        return (
            self.num_steps == other.num_steps
            and self.dim == other.dim
            and self.order == other.order
        )

    def require_same_shape(self, other: "MetricConfig", context: str) -> None:
        if not self.same_shape(other):
            raise ConfigMismatchError(
                f"{context}: configurations disagree "
                f"((N={self.num_steps}, d={self.dim}, p={self.order}) vs "
                f"(N={other.num_steps}, d={other.dim}, p={other.order}))"
            )

    def step_cost(self, x: Sequence[Fraction], y: Sequence[Fraction]):
        """Cost contribution of one time step: the per-step norm raised to ``p``.

        For the p-norm this collapses to a plain coordinate sum of |dx|^p,
        exact whenever p is an integer.  Weak mode uses the untruncated
        1-norm; truncation of the total is the caller's job.
        """
        if self.is_weak or self.order == 1:
            return sum(abs(a - b) for a, b in zip(x, y))
        if self.order.denominator == 1:
            p = self.order.numerator
            return sum(abs(a - b) ** p for a, b in zip(x, y))
        p = float(self.order)
        return sum(abs(float(a - b)) ** p for a, b in zip(x, y))

    def step_distance(self, x: Sequence[Fraction], y: Sequence[Fraction]):
        """Plain per-step distance (the p-norm itself, no power)."""
        if self.is_weak or self.order == 1:
            return sum(abs(a - b) for a, b in zip(x, y))
        if self.dim == 1:
            return abs(x[0] - y[0])
        cost = self.step_cost(x, y)
        return float(cost) ** (1.0 / float(self.order))

    def root_cost(self, cost):
        """Map an accumulated cost (sum of step costs) to the path distance."""
        if self.is_weak:
            return min(cost, Fraction(1))
        if self.order == 1:
            return cost
        return float(cost) ** (1.0 / float(self.order))

    def to_document(self) -> dict:
        return {
            "N": self.num_steps,
            "d": self.dim,
            "p": str(self.order),
            "value_decimals": self.value_decimals,
        }

    @classmethod
    def from_document(cls, doc: Mapping) -> "MetricConfig":
        if not _is_object(doc):
            raise DocumentError("config must be an object")
        for key in ("N", "d", "p"):
            if key not in doc:
                raise DocumentError(f"config is missing key {key!r}")
        num_steps = _integer_field(doc["N"], "config N and d must be integers")
        dim = _integer_field(doc["d"], "config N and d must be integers")
        order = _order_field(doc["p"])
        decimals = _integer_field(
            doc.get("value_decimals", default_value_decimals()),
            "config value_decimals must be an integer",
        )
        return cls(num_steps=num_steps, dim=dim, order=order, value_decimals=decimals)


@dataclass(frozen=True)
class TreeNode:
    """One atom of the filtration at its ``time``, carrying the process value
    on that atom and the child transition probabilities."""

    node_id: str
    time: int
    value: tuple[Fraction, ...]
    info: str
    children: tuple[tuple[str, Fraction], ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure with exact rational weights."""

    atoms: tuple
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.weights):
            raise TreeValidationError("measure atoms and weights differ in length")
        if len(set(self.atoms)) != len(self.atoms):
            raise TreeValidationError("measure atoms must be distinct")
        for w in self.weights:
            if w < 0:
                raise TreeValidationError(f"measure weight {w} is negative")
        _require_unit_sum(self.weights, lambda total: f"measure weights sum to {total}, expected 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, Fraction]]) -> "DiscreteMeasure":
        """Aggregate (atom, weight) pairs, merging duplicates and dropping zeros.
        Atoms are sorted in their natural order for a canonical layout."""
        merged: dict = {}
        for atom, weight in pairs:
            merged[atom] = merged.get(atom, Fraction(0)) + weight
        items = [(a, w) for a, w in merged.items() if w != 0]
        items.sort(key=lambda item: item[0])
        return cls(atoms=tuple(a for a, _ in items), weights=tuple(w for _, w in items))

    def as_dict(self) -> dict:
        return dict(zip(self.atoms, self.weights))

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(zip(self.atoms, self.weights))

    def __len__(self) -> int:
        return len(self.atoms)


class FilteredTree:
    """Validated probability tree representing a filtered process.

    Construction checks every structural invariant and precomputes parent
    links, level lists, and unconditional node probabilities.  Instances are
    treated as immutable after construction.
    """

    def __init__(
        self,
        config: MetricConfig,
        nodes: Mapping[str, TreeNode],
        root_children: Sequence[tuple[str, Fraction]],
    ):
        self.config = config
        self._nodes = dict(nodes)
        self.root_children = tuple((cid, Fraction(p)) for cid, p in root_children)
        self._validate()
        self._index()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        cfg = self.config
        if not self.root_children:
            raise TreeValidationError("tree has no time-1 nodes")
        for node_id, node in self._nodes.items():
            if node.node_id != node_id:
                raise TreeValidationError(
                    f"node table key {node_id!r} disagrees with node id {node.node_id!r}",
                    node_id,
                )
            if not (1 <= node.time <= cfg.num_steps):
                raise TreeValidationError(
                    f"node {node_id!r} has time {node.time}, outside 1..{cfg.num_steps}",
                    node_id,
                )
            if len(node.value) != cfg.dim:
                raise TreeValidationError(
                    f"node {node_id!r} has a {len(node.value)}-dimensional value, expected {cfg.dim}",
                    node_id,
                )
            for c in node.value:
                if type(c) is not Fraction and not isinstance(c, Rational):
                    raise TreeValidationError(
                        f"node {node_id!r} has value coordinate {c!r}; it must be rational", node_id
                    )
            if node.is_leaf != (node.time == cfg.num_steps):
                raise TreeValidationError(
                    f"node {node_id!r} at time {node.time} "
                    + ("has no children" if node.is_leaf else "has children")
                    + f"; leaves must sit exactly at time {cfg.num_steps}",
                    node_id,
                )
        self._check_edges("the root", 0, self.root_children)
        for node in self._nodes.values():
            if node.children:
                self._check_edges(f"node {node.node_id!r}", node.time, node.children)

    def _check_edges(self, owner: str, time: int, edges: Sequence[tuple[str, Fraction]]) -> None:
        labels = set()
        for k, (cid, prob) in enumerate(edges, 1):
            child = self._nodes.get(cid)
            if child is None:
                raise TreeValidationError(f"{owner} references unknown node {cid!r}")
            if child.time != time + 1:
                raise TreeValidationError(
                    f"{owner} at time {time} has child {cid!r} at time {child.time}",
                    cid,
                )
            if type(prob) is not Fraction and not isinstance(prob, Rational):
                raise TreeValidationError(
                    f"{owner} carries probability {prob!r} on child {cid!r}; it must be rational", cid
                )
            if prob <= 0:
                raise TreeValidationError(
                    f"{owner} carries probability {prob} on child {cid!r}; must be positive",
                    cid,
                )
            labels.add((child.value, child.info))
            if len(labels) < k:  # hashes each label once
                raise TreeValidationError(
                    f"{owner} has two children with value {_fmt_value(child.value)} "
                    f"and info {child.info!r}",
                    cid,
                )
        _require_unit_sum([p for _, p in edges], lambda total: f"child probabilities sum to {total} at {owner}")

    # -- indexing ----------------------------------------------------------

    def _index(self) -> None:
        """Parent links, levels, document order and unconditional
        probabilities from one pre-order walk, which also rejects the first
        node with two parents and any node with none."""
        cfg = self.config
        levels: list[list[str]] = [[] for _ in range(cfg.num_steps + 1)]
        parents: dict[str, str | None] = {}
        probs: dict[str, Fraction] = {}
        stack = [(cid, p, None) for cid, p in reversed(self.root_children)]
        while stack:
            node_id, prob, parent = stack.pop()
            if node_id in parents:
                raise TreeValidationError(f"node {node_id!r} has more than one parent", node_id)
            node = self._nodes[node_id]
            levels[node.time].append(node_id)
            parents[node_id] = parent
            probs[node_id] = prob
            for cid, q in reversed(node.children):
                stack.append((cid, prob * q, node_id))
        if len(parents) < len(self._nodes):
            unreachable = min(set(self._nodes) - set(parents))
            raise TreeValidationError(f"node {unreachable!r} is not reachable from the root", unreachable)
        self._levels = [tuple(ids) for ids in levels]
        self._parent = parents
        self._prob = probs
        self._order = tuple(parents)
        leaves = [probs[leaf] for leaf in self._levels[cfg.num_steps]]
        _require_unit_sum(leaves, lambda total: f"leaf probabilities sum to {total}, expected 1")

    # -- accessors ---------------------------------------------------------

    def node(self, node_id: str) -> TreeNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[TreeNode]:
        """Nodes in depth-first document order."""
        return (self._nodes[n] for n in self._order)

    def level(self, time: int) -> tuple[str, ...]:
        return self._levels[time]

    def leaves(self) -> tuple[str, ...]:
        return self._levels[self.config.num_steps]

    def parent(self, node_id: str) -> str | None:
        """Parent node id, or None for time-1 nodes."""
        return self._parent[node_id]

    def children(self, node_id: str | None) -> tuple[tuple[str, Fraction], ...]:
        """Child edges of a node; ``None`` addresses the virtual root."""
        if node_id is None:
            return self.root_children
        return self._nodes[node_id].children

    def prob(self, node_id: str) -> Fraction:
        """Unconditional probability of the atom represented by the node."""
        return self._prob[node_id]

    def value_path(self, node_id: str) -> tuple[tuple[Fraction, ...], ...]:
        """Values along the ancestor chain from time 1 through the node."""
        return tuple(self._nodes[n].value for n in self.node_path(node_id))

    def node_path(self, node_id: str) -> tuple[str, ...]:
        chain = []
        cursor: str | None = node_id
        while cursor is not None:
            chain.append(cursor)
            cursor = self.parent(cursor)
        chain.reverse()
        return tuple(chain)

    def size(self) -> int:
        return len(self._nodes)

    def with_config(self, config: MetricConfig) -> "FilteredTree":
        """Same tree under a different metric configuration (shape must agree)."""
        if config.num_steps != self.config.num_steps or config.dim != self.config.dim:
            raise ConfigMismatchError(
                "cannot rebind configuration: N or d disagrees with the tree"
            )
        return FilteredTree(config, self._nodes, self.root_children)

    def with_values(self, dim: int, value_of: Callable[[TreeNode], tuple]) -> "FilteredTree":
        """Same nodes, edges and probabilities, each node's value replaced by
        the ``dim``-vector ``value_of(node)``; the result is validated anew."""
        nodes = {node.node_id: replace(node, value=value_of(node)) for node in self.nodes()}
        return FilteredTree(replace(self.config, dim=dim), nodes, self.root_children)

    # -- serialization -----------------------------------------------------

    def to_document(self) -> dict:
        decimals = self.config.value_decimals
        return {
            "config": self.config.to_document(),
            "root_children": [
                {"id": cid, "prob": str(p)} for cid, p in self.root_children
            ],
            "nodes": [
                {
                    "id": node.node_id,
                    "time": node.time,
                    "value": [format_fraction(v, decimals) for v in node.value],
                    "info": node.info,
                    "children": [{"id": cid, "prob": str(p)} for cid, p in node.children],
                }
                for node in self.nodes()
            ],
        }


def _fmt_value(value: tuple[Fraction, ...]) -> str:
    return "(" + ", ".join(str(v) for v in value) + ")"


def load_tree(document) -> FilteredTree:
    """Build a validated FilteredTree from a parsed document or JSON string.

    Raises DocumentError for malformed documents and TreeValidationError,
    naming the offending node, for structural violations.
    """
    document = _json_object(document, "tree", ("config", "nodes", "root_children"))
    config = MetricConfig.from_document(document["config"])
    raw_nodes = document["nodes"]
    if not _is_array(raw_nodes):
        raise DocumentError("'nodes' must be an array")
    parse_value = _memoized(lambda raw: parse_value_entry(raw, config.value_decimals))
    parse_prob = _memoized(parse_probability)
    nodes: dict[str, TreeNode] = {}
    for raw in raw_nodes:
        node = _parse_node(raw, parse_value, parse_prob)
        if node.node_id in nodes:
            raise TreeValidationError(f"duplicate node id {node.node_id!r}", node.node_id)
        nodes[node.node_id] = node
    root_children = _parse_edges(document["root_children"], "root_children", parse_prob)
    return FilteredTree(config, nodes, root_children)


def load_tree_file(path) -> FilteredTree:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DocumentError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise DocumentError(f"cannot read tree document {path}: {exc}") from exc
    return load_tree(document)


def _parse_node(raw, parse_value, parse_prob) -> TreeNode:
    if not _is_object(raw):
        raise DocumentError("each node must be an object")
    for key in ("id", "time", "value"):
        if key not in raw:
            raise DocumentError(f"node is missing key {key!r}: {raw!r}")
    node_id = raw["id"]
    if not isinstance(node_id, str) or not node_id:
        raise DocumentError(f"node id must be a non-empty string, got {node_id!r}")
    time = _integer_field(raw["time"], f"node {node_id!r} has a non-integer time")
    value_raw = raw["value"]
    if not _is_array(value_raw):
        raise DocumentError(f"node {node_id!r} value must be an array of coordinates")
    value = tuple(parse_value(v) for v in value_raw)
    info = raw.get("info", "")
    if not isinstance(info, str):
        raise DocumentError(f"node {node_id!r} info must be a string")
    children = _parse_edges(raw.get("children", []), f"children of node {node_id!r}", parse_prob)
    return TreeNode(node_id, time, value, info, children)


def _parse_edges(raw, context: str, parse_prob) -> tuple[tuple[str, Fraction], ...]:
    if not _is_array(raw):
        raise DocumentError(f"{context} must be an array")
    edges = []
    for entry in raw:
        if not _is_object(entry) or "id" not in entry or "prob" not in entry:
            raise DocumentError(f"{context}: each edge needs 'id' and 'prob'")
        cid = entry["id"]
        if not isinstance(cid, str) or not cid:
            raise DocumentError(f"{context}: edge id must be a non-empty string")
        edges.append((cid, parse_prob(entry["prob"])))
    return tuple(edges)


# -- walks ------------------------------------------------------------------
# Every stage-by-stage walk runs as a loop, so the horizon is bounded by
# memory and never by the interpreter's recursion limit.


def _postorder(roots: Sequence, children) -> Iterator[tuple[object, Sequence]]:
    """Depth-first walk of a finite DAG with an explicit stack.

    ``roots`` and ``children(node)`` are sequences of ``(node, weight)``
    edges.  Yields every node reachable from ``roots`` once, as
    ``(node, children(node))``, in the order a recursive walk would finish
    the nodes, so each child comes before its parents.  ``children`` is
    called once per node, in the order a recursive walk would first reach
    the nodes (pre-order).
    """
    seen = set()
    # a frame is a node, its edges and the iterator over the edges not yet
    # followed; the bottom frame stands for the roots
    stack = [(None, roots, iter(roots))]
    while stack:
        node, edges, rest = stack[-1]
        for child, _ in rest:
            if child not in seen:
                seen.add(child)
                kids = children(child)
                if kids:
                    stack.append((child, kids, iter(kids)))
                    break
                yield child, kids
        else:
            stack.pop()
            if stack:
                yield node, edges


def _unfold(config: MetricConfig, roots: Sequence, children, describe) -> FilteredTree:
    """Unfold a structure into a filtered tree with an explicit stack.

    ``roots`` and ``children(item)`` are sequences of ``(item, probability)``
    edges; items at time ``config.num_steps`` are leaves.
    ``describe(item, time, k)`` returns ``(node_id, value, info)`` for the
    k-th node (from 1) in pre-order, the order a recursive unfold numbers
    its nodes in.
    """
    built: list = []
    root_edges: list = []
    stack = [(item, p, 1, root_edges) for item, p in reversed(roots)]
    while stack:
        item, p, time, siblings = stack.pop()
        node_id, value, info = describe(item, time, len(built) + 1)
        siblings.append((node_id, p))
        kids: list = []
        built.append((node_id, time, value, info, kids))
        if time < config.num_steps:
            stack.extend((child, q, time + 1, kids) for child, q in reversed(children(item)))
    nodes = {
        node_id: TreeNode(node_id, time, value, info, tuple(kids))
        for node_id, time, value, info, kids in built
    }
    return FilteredTree(config, nodes, root_edges)


def path_cost(
    x: Sequence[Sequence[Fraction]],
    y: Sequence[Sequence[Fraction]],
    config: MetricConfig,
):
    """Accumulated cost between two value paths.

    For order p >= 1 this is the sum over time of per-step norms raised to p
    (so the p-th power of the path distance).  In weak mode it is the 1-norm
    sum truncated at 1.
    """
    if len(x) != config.num_steps or len(y) != config.num_steps:
        raise ConfigMismatchError(
            f"paths have lengths {len(x)} and {len(y)}, expected {config.num_steps}"
        )
    total = sum(config.step_cost(a, b) for a, b in zip(x, y))
    if config.is_weak:
        return min(total, Fraction(1))
    return total


def path_distance(
    x: Sequence[Sequence[Fraction]],
    y: Sequence[Sequence[Fraction]],
    config: MetricConfig,
):
    """Path distance: the p-th root of ``path_cost`` (identity for p in {0, 1})."""
    return config.root_cost(path_cost(x, y, config))


def law_on_paths(tree: FilteredTree) -> DiscreteMeasure:
    """Push the tree measure forward to the space of value paths.

    Info labels are marginalized away: distinct leaves with identical value
    paths pool their probability.
    """
    pairs = [(tree.value_path(leaf), tree.prob(leaf)) for leaf in tree.leaves()]
    return DiscreteMeasure.from_pairs(pairs)
