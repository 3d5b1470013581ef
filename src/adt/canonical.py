"""Canonical forms of filtered processes via hash-consed nested atoms.

The backward recursion replaces each tree node by the pair (current value,
law of the successor pair), with structurally equal results shared through
an intern table.  Equality of the resulting top-level laws is a complete
test for probabilistic equivalence of filtered processes: it holds exactly
when the adapted transport distance vanishes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import ConfigMismatchError, NotMarkovError, TreeValidationError
from .process_model import (
    DiscreteMeasure,
    FilteredTree,
    MetricConfig,
    TreeNode,
    _postorder,
    _unfold,
)

__all__ = [
    "NestedAtom",
    "CanonicalForm",
    "InformationResult",
    "information_process",
    "canonical_tree",
    "hk_equivalent",
    "digest_tree",
    "is_self_aware",
    "self_aware_lift",
    "markov_lift",
    "is_markov",
    "is_lipschitz_markov",
    "LipschitzMarkovReport",
    "self_contained_check",
    "admits_adapted_map",
    "subtree_process",
    "atom_level_ranks",
]


class NestedAtom:
    """Interned node of the nested-structure space.

    ``value`` is the process value on the atom; ``law`` is the successor
    distribution as a tuple of (atom, weight) pairs in canonical order,
    empty exactly for terminal atoms.  Identity equals structural equality
    thanks to interning, so atoms may be compared and hashed at pointer
    speed.  The ``sort_key`` induces a total order used everywhere a
    deterministic arrangement of atoms is needed.
    """

    __slots__ = ("value", "law", "uid", "_key", "__weakref__")

    def __init__(self, value: tuple[Fraction, ...], law: tuple[tuple["NestedAtom", Fraction], ...], uid: int):
        self.value = value
        self.law = law
        self.uid = uid
        self._key = None

    @property
    def is_terminal(self) -> bool:
        return not self.law

    @property
    def sort_key(self):
        if self._key is None:
            self._key = (self.value, tuple((child.sort_key, w) for child, w in self.law))
        return self._key

    def __repr__(self):
        head = ",".join(str(v) for v in self.value)
        if not self.law:
            return f"atom({head})"
        return f"atom({head};{len(self.law)} succ)"


# Weak values: an atom leaves the table once no live tree, form or table
# holds it.  Identity across live trees still holds, because a live atom
# keeps its whole successor structure alive through ``law`` and the keys
# hold child uids, not atoms.
_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()
_UID_COUNTER = [0]


def _intern(value: tuple[Fraction, ...], law_pairs: Iterable[tuple[NestedAtom, Fraction]]) -> NestedAtom:
    """Return the unique atom with the given value and successor law."""
    merged: dict[NestedAtom, Fraction] = {}
    for child, weight in law_pairs:
        merged[child] = merged.get(child, Fraction(0)) + weight
    law = tuple(sorted(merged.items(), key=lambda item: item[0].sort_key))
    key = (value, tuple((child.uid, w) for child, w in law))
    with _INTERN_LOCK:
        atom = _INTERN.get(key)
        if atom is None:
            _UID_COUNTER[0] += 1
            atom = NestedAtom(value, law, _UID_COUNTER[0])
            _INTERN[key] = atom
    return atom


@dataclass(frozen=True)
class CanonicalForm:
    """Law of the time-1 nested structure: the canonical form of a process."""

    config: MetricConfig
    law: tuple[tuple[NestedAtom, Fraction], ...]

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(
            atoms=tuple(a for a, _ in self.law),
            weights=tuple(w for _, w in self.law),
        )

    def levels(self) -> list[tuple[NestedAtom, ...]]:
        """Reachable atoms per time step (index 0 = time 1), canonically sorted."""
        out: list[tuple[NestedAtom, ...]] = []
        current = sorted({a for a, _ in self.law}, key=lambda a: a.sort_key)
        while current:
            out.append(tuple(current))
            nxt = {child for atom in current for child, _ in atom.law}
            current = sorted(nxt, key=lambda a: a.sort_key)
        return out

    def same_structure(self, other: "CanonicalForm") -> bool:
        return self.law == other.law

    def digest(self) -> str:
        """Stable content hash, independent of intern table state and node ids.

        Atoms are numbered in the order a depth-first walk from the top law
        first finishes them, children before parents."""
        index: dict[NestedAtom, int] = {}
        atom_repr: list = []
        for atom, law in _postorder(self.law, lambda a: a.law):
            index[atom] = len(atom_repr)
            atom_repr.append([[str(v) for v in atom.value], [(index[c], str(w)) for c, w in law]])
        top = [(index[a], str(w)) for a, w in self.law]
        payload = json.dumps(
            {
                "N": self.config.num_steps,
                "d": self.config.dim,
                "atoms": atom_repr,
                "law": top,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class InformationResult:
    """Canonical form of a tree plus the node-to-atom assignment it came from."""

    form: CanonicalForm
    node_atom: dict[str, NestedAtom]


def information_process(tree: FilteredTree) -> InformationResult:
    """Backward recursion assigning every node its nested atom.

    Terminal nodes map to value-only atoms; an interior node maps to its
    value paired with the weighted law of its children's atoms.  Interning
    merges nodes that generate identical conditional future structure.
    """
    cfg = tree.config
    node_atom: dict[str, NestedAtom] = {}
    for t in range(cfg.num_steps, 0, -1):
        for node_id in tree.level(t):
            node = tree.node(node_id)
            if node.is_leaf:
                atom = _intern(node.value, ())
            else:
                atom = _intern(
                    node.value,
                    ((node_atom[cid], p) for cid, p in node.children),
                )
            node_atom[node_id] = atom
    merged: dict[NestedAtom, Fraction] = {}
    for cid, p in tree.root_children:
        atom = node_atom[cid]
        merged[atom] = merged.get(atom, Fraction(0)) + p
    law = tuple(sorted(merged.items(), key=lambda item: item[0].sort_key))
    return InformationResult(form=CanonicalForm(config=cfg, law=law), node_atom=node_atom)


def atom_level_ranks(form: CanonicalForm) -> list[dict[NestedAtom, int]]:
    """Rank of every reachable atom within its level, in canonical order."""
    return [{atom: i for i, atom in enumerate(level)} for level in form.levels()]


def canonical_tree(form: CanonicalForm) -> FilteredTree:
    """Unfold a canonical form into a filtered tree.

    Each node corresponds to one chain of atoms, so shared structure is
    duplicated exactly as far as the filtration requires and no further;
    the result never has more nodes than any tree producing ``form``.
    Node info labels expose the per-level canonical rank of the atom.
    """
    ranks = atom_level_ranks(form)
    return _unfold(
        form.config,
        form.law,
        lambda atom: atom.law,
        lambda atom, time, k: (f"c{time}.{k}", atom.value, f"a{ranks[time - 1][atom]}"),
    )


def hk_equivalent(a: FilteredTree, b: FilteredTree) -> bool:
    """Probabilistic equivalence of two filtered processes.

    Exact structural equality of canonical forms; no tolerance is involved.
    """
    a.config.require_same_shape(b.config, "hk_equivalent")
    return information_process(a).form.same_structure(information_process(b).form)


def digest_tree(tree: FilteredTree) -> str:
    return information_process(tree).form.digest()


# -- conditional-law checks -------------------------------------------------


def _future_paths(tree: FilteredTree, label: Callable[[TreeNode], object]) -> dict[str, dict]:
    """Per node, the conditional law of the future label path strictly
    after it, built level by level from the leaves up."""
    laws: dict[str, dict[tuple, Fraction]] = {}
    for t in range(tree.config.num_steps, 0, -1):
        for node_id in tree.level(t):
            node = tree.node(node_id)
            law = {} if node.children else {(): Fraction(1)}
            for cid, p in node.children:
                child_label = label(tree.node(cid))
                for path, w in laws[cid].items():
                    key = (child_label,) + path
                    law[key] = law.get(key, Fraction(0)) + p * w
            laws[node_id] = law
    return laws


def _prefix_groups(tree: FilteredTree, time: int, state: Callable[[TreeNode], object]) -> dict:
    groups: dict[tuple, list[str]] = {}
    for node_id in tree.level(time):
        prefix = tuple(state(tree.node(n)) for n in tree.node_path(node_id))
        groups.setdefault(prefix, []).append(node_id)
    return groups


def _conditionally_determined(
    tree: FilteredTree,
    state: Callable[[TreeNode], object],
    label: Callable[[TreeNode], object],
) -> tuple[bool, tuple | None]:
    """Check that the conditional future label law given the full filtration
    only depends on the state prefix.  Returns (ok, witness)."""
    laws = _future_paths(tree, label)
    for t in range(1, tree.config.num_steps + 1):
        for prefix, members in _prefix_groups(tree, t, state).items():
            reference = laws[members[0]]
            for other in members[1:]:
                if laws[other] != reference:
                    return False, (t, members[0], other)
    return True, None


def is_self_aware(tree: FilteredTree) -> bool:
    """True when the conditional law of the path given the filtration is a
    function of the value history alone, at every time."""
    ok, _ = _conditionally_determined(
        tree, state=lambda n: n.value, label=lambda n: n.value
    )
    return ok


def self_contained_check(tree: FilteredTree, labels: Mapping[str, object]) -> tuple[bool, tuple | None]:
    """Check that the filtration generated by an adapted label process is
    conditionally independent of the ambient filtration given itself.

    ``labels`` maps every node id to the label of the sub-process on that
    atom.  Returns (ok, witness); the witness names (time, node, node) for
    the first pair whose conditional future label laws disagree despite an
    identical label history.
    """
    missing = [n.node_id for n in tree.nodes() if n.node_id not in labels]
    if missing:
        raise TreeValidationError(
            f"labels missing for node {missing[0]!r}", missing[0]
        )
    return _conditionally_determined(
        tree,
        state=lambda n: labels[n.node_id],
        label=lambda n: labels[n.node_id],
    )


# -- lifts -------------------------------------------------------------------


def _rank_decorated(tree: FilteredTree, decorate) -> FilteredTree:
    """Rebuild the tree with node values mapped through ``decorate(node, ranks)``."""
    res = information_process(tree)
    ranks = atom_level_ranks(res.form)
    nodes = {}
    dim = None
    for node in tree.nodes():
        rank = ranks[node.time - 1][res.node_atom[node.node_id]]
        value = decorate(tree, node, rank)
        if dim is None:
            dim = len(value)
        nodes[node.node_id] = replace(node, value=value)
    return FilteredTree(replace(tree.config, dim=dim), nodes, tree.root_children)


def self_aware_lift(tree: FilteredTree) -> FilteredTree:
    """Append the canonical rank of each node's nested atom to its value.

    The decorated process reveals its own conditional future structure, so
    the result always passes ``is_self_aware``, and it is the smallest such
    decoration: any other value decoration with that property factors onto
    it through an adapted map.
    """
    def decorate(t: FilteredTree, node: TreeNode, rank: int):
        return node.value + (Fraction(rank),)

    return _rank_decorated(tree, decorate)


def markov_lift(tree: FilteredTree) -> FilteredTree:
    """Decorate each value with the full value-and-rank history.

    Layout per node at time t: current value (d slots), value history
    padded with zeros to N*d slots, rank history padded with -1 to N slots.
    The decorated value determines the node's atom and its whole past, so
    the lifted process is Markov in its value.
    """
    res = information_process(tree)
    ranks = atom_level_ranks(res.form)
    cfg = tree.config
    n, d = cfg.num_steps, cfg.dim
    rank_path: dict[str, tuple[int, ...]] = {}
    nodes = {}
    for node in tree.nodes():
        parent = tree.parent(node.node_id)
        prior = rank_path[parent] if parent else ()
        chain = prior + (ranks[node.time - 1][res.node_atom[node.node_id]],)
        rank_path[node.node_id] = chain
        history = [v for value in tree.value_path(node.node_id) for v in value]
        history += [Fraction(0)] * (n * d - len(history))
        rank_slots = [Fraction(r) for r in chain] + [Fraction(-1)] * (n - len(chain))
        value = node.value + tuple(history) + tuple(rank_slots)
        nodes[node.node_id] = replace(node, value=value)
    return FilteredTree(replace(cfg, dim=d + n * d + n), nodes, tree.root_children)


# -- markov property ----------------------------------------------------------


def _one_step_kernel(tree: FilteredTree, node_id: str) -> dict[tuple, Fraction]:
    kernel: dict[tuple, Fraction] = {}
    for cid, p in tree.node(node_id).children:
        value = tree.node(cid).value
        kernel[value] = kernel.get(value, Fraction(0)) + p
    return kernel


def is_markov(tree: FilteredTree) -> bool:
    """True when one-step conditional value laws depend only on the current
    value, i.e. conditioning on the filtration and on the value agree."""
    for t in range(1, tree.config.num_steps):
        groups: dict[tuple, dict[tuple, Fraction] | None] = {}
        for node_id in tree.level(t):
            value = tree.node(node_id).value
            kernel = _one_step_kernel(tree, node_id)
            seen = groups.get(value)
            if seen is None:
                groups[value] = kernel
            elif seen != kernel:
                return False
    return True


@dataclass(frozen=True)
class LipschitzMarkovReport:
    ok: bool
    max_ratio: Fraction | float
    witness: tuple | None


def is_lipschitz_markov(
    tree: FilteredTree,
    bound: Fraction,
    state_metric: Callable | None = None,
    kernel_metric: Callable | None = None,
) -> LipschitzMarkovReport:
    """Check the kernel Lipschitz property of a Markov value process.

    For every time t and every pair of distinct time-t values x, x', the
    1-Wasserstein distance between the one-step kernels at x and x' must be
    at most ``bound`` times the distance between x and x'.  Metrics default
    to the per-step norm of the tree's configuration; both hooks receive
    (time, value, value) so callers can substitute a structural metric.

    Returns the worst observed ratio together with a witness pair.  Raises
    NotMarkovError when kernels are not a function of the value.
    """
    from .transport import _worst_ratio  # local import to keep module layers acyclic

    if not is_markov(tree):
        raise NotMarkovError("is_lipschitz_markov requires a Markov value process")
    cfg = tree.config
    if state_metric is None:
        state_metric = lambda t, x, y: cfg.step_distance(x, y)
    if kernel_metric is None:
        kernel_metric = lambda t, x, y: cfg.step_distance(x, y)

    def pairs():
        for t in range(1, cfg.num_steps):
            kernels: dict[tuple, dict[tuple, Fraction]] = {}
            for node_id in tree.level(t):
                value = tree.node(node_id).value
                if value not in kernels:
                    kernels[value] = _one_step_kernel(tree, node_id)
            for x, y in itertools.combinations(kernels, 2):
                yield (
                    (t, x, y),
                    sorted(kernels[x].items()),
                    sorted(kernels[y].items()),
                    lambda a, b: kernel_metric(t + 1, a, b),
                    state_metric(t, x, y),
                )

    max_ratio, witness, exceeded = _worst_ratio(pairs(), Fraction(bound))
    return LipschitzMarkovReport(ok=not exceeded, max_ratio=max_ratio, witness=witness)


# -- adapted maps and subtrees -------------------------------------------------


def admits_adapted_map(source: FilteredTree, target: FilteredTree) -> bool:
    """Whether the target decoration is an adapted function of the source one.

    Both trees must decorate the same underlying structure (same node ids,
    edges, and probabilities).  The map exists exactly when, level by level,
    the source value history determines the target value.
    """
    src_ids = {n.node_id for n in source.nodes()}
    dst_ids = {n.node_id for n in target.nodes()}
    if src_ids != dst_ids or source.root_children != target.root_children:
        raise ConfigMismatchError("adapted-map check requires decorations of one tree")
    for node_id in src_ids:
        if source.node(node_id).children != target.node(node_id).children:
            raise ConfigMismatchError("adapted-map check requires decorations of one tree")
    for t in range(1, source.config.num_steps + 1):
        assignment: dict[tuple, tuple] = {}
        for node_id in source.level(t):
            prefix = source.value_path(node_id)
            image = target.node(node_id).value
            seen = assignment.get(prefix)
            if seen is None:
                assignment[prefix] = image
            elif seen != image:
                return False
    return True


def subtree_process(tree: FilteredTree, node_id: str) -> FilteredTree:
    """The conditional process strictly below a node, re-anchored at time 1."""
    node = tree.node(node_id)
    cfg = tree.config
    remaining = cfg.num_steps - node.time
    if remaining < 1:
        raise TreeValidationError(
            f"node {node_id!r} is terminal; no subtree process remains", node_id
        )
    nodes: dict[str, TreeNode] = {}
    stack = [cid for cid, _ in node.children]
    while stack:
        n = tree.node(stack.pop())
        nodes[n.node_id] = replace(n, time=n.time - node.time)
        stack.extend(cid for cid, _ in n.children)
    return FilteredTree(replace(cfg, num_steps=remaining), nodes, node.children)
