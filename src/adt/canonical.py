"""Canonical forms of filtered processes via hash-consed nested atoms.

The backward recursion replaces each tree node by the pair (current value,
law of the successor pair), with structurally equal results shared through
an intern table.  Equality of the resulting top-level laws is a complete
test for probabilistic equivalence of filtered processes: it holds exactly
when the adapted transport distance vanishes.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import ConfigMismatchError, TreeValidationError
from .process_model import (
    FilteredTree,
    MetricConfig,
    TreeNode,
    _integers,
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
    speed.
    """

    __slots__ = ("value", "law", "uid", "__weakref__")

    def __init__(self, value: tuple[Fraction, ...], law: tuple[tuple["NestedAtom", Fraction], ...], uid: int):
        self.value = value
        self.law = law
        self.uid = uid

    @property
    def is_terminal(self) -> bool:
        return not self.law

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


def _rank(atoms: Iterable[NestedAtom], below: Mapping[NestedAtom, int]) -> dict[NestedAtom, int]:
    """Canonical rank of each distinct atom among same-level ``atoms``,
    keyed in rank order; ``below`` ranks the next level.

    Atoms compare by value, then by successor law as a sequence of (rank of
    successor, weight) pairs.  By induction from the terminal level this is
    the order of whole nested structures, value first and then successor
    law, so the order of two atoms does not depend on which others are
    ranked with them, and no comparison looks more than one level down.
    """
    distinct = list(set(atoms))
    d = len(distinct[0].value)
    # values compare as ints over one common denominator, in C
    ints, _ = _integers([v for atom in distinct for v in atom.value])
    key = {a: (ints[k * d:k * d + d], tuple((below[c], w) for c, w in a.law)) for k, a in enumerate(distinct)}
    return {atom: k for k, atom in enumerate(sorted(distinct, key=key.__getitem__))}


def _law(pairs: Iterable[tuple[NestedAtom, Fraction]], ranks: Mapping[NestedAtom, int]):
    """Merge (atom, weight) pairs into a law listed in the canonical order
    ``ranks`` of their level."""
    merged: dict[NestedAtom, Fraction] = {}
    for atom, weight in pairs:
        merged[atom] = merged[atom] + weight if atom in merged else weight
    return tuple(sorted(merged.items(), key=lambda item: ranks[item[0]]))


def _intern(value: tuple[Fraction, ...], law_pairs: Iterable, ranks: Mapping[NestedAtom, int]) -> NestedAtom:
    """Return the unique atom with the given value and successor law;
    ``ranks`` ranks the successors' level."""
    law = _law(law_pairs, ranks)
    # ints hash and compare in C, Fractions in Python
    key = (tuple((v.numerator, v.denominator) for v in value),
           tuple((child.uid, w.numerator, w.denominator) for child, w in law))
    with _INTERN_LOCK:
        atom = _INTERN.get(key)
        if atom is None:
            _UID_COUNTER[0] += 1
            atom = NestedAtom(value, law, _UID_COUNTER[0])
            _INTERN[key] = atom
    return atom


@dataclass(frozen=True)
class CanonicalForm:
    """Law of the time-1 nested structure: the canonical form of a process.

    ``ranks[t-1]`` is the canonical rank of every reachable time-t atom,
    keyed in rank order; it is fixed when the form is built.
    """

    config: MetricConfig
    law: tuple[tuple[NestedAtom, Fraction], ...]
    ranks: tuple[dict[NestedAtom, int], ...] = field(compare=False, repr=False)

    def levels(self) -> list[tuple[NestedAtom, ...]]:
        """Reachable atoms per time step (index 0 = time 1), in canonical order."""
        return [tuple(level) for level in self.ranks]

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
    node_atom, ranks = _intern_levels(
        [tree.level(t) for t in range(1, tree.config.num_steps + 1)],
        lambda node_id: tree.node(node_id).value,
        lambda node_id: tree.node(node_id).children,
    )
    law = _law(((node_atom[cid], p) for cid, p in tree.root_children), ranks[0])
    form = CanonicalForm(config=tree.config, law=law, ranks=ranks)
    return InformationResult(form=form, node_atom=node_atom)


def _intern_levels(levels, value_of: Callable, children_of: Callable):
    """Intern items level by level from the last, ranking each level as
    soon as it is interned.  ``levels[t-1]`` lists the time-t items and
    ``children_of(item)`` gives (item, weight) pairs one level down.
    Returns the atom of every item and the ranks per level."""
    image: dict = {}
    ranks: list[dict[NestedAtom, int]] = []
    below: dict[NestedAtom, int] = {}
    for level in reversed(levels):
        for item in level:
            image[item] = _intern(value_of(item), ((image[c], w) for c, w in children_of(item)), below)
        below = _rank((image[item] for item in level), below)
        ranks.append(below)
    return image, tuple(reversed(ranks))


def _mapped_atoms(form: CanonicalForm, value_map: Callable) -> dict[NestedAtom, NestedAtom]:
    """Each reachable atom of ``form`` mapped to the atom with values passed
    through ``value_map``, re-interned level by level from the last."""
    return _intern_levels(form.ranks, lambda atom: value_map(atom.value), lambda atom: atom.law)[0]


def atom_level_ranks(form: CanonicalForm) -> list[dict[NestedAtom, int]]:
    """Rank of every reachable atom within its level, in canonical order."""
    return list(form.ranks)


def canonical_tree(form: CanonicalForm) -> FilteredTree:
    """Unfold a canonical form into a filtered tree.

    Each node corresponds to one chain of atoms, so shared structure is
    duplicated exactly as far as the filtration requires and no further;
    the result never has more nodes than any tree producing ``form``.
    Node info labels expose the per-level canonical rank of the atom.
    """
    return _unfold(
        form.config,
        form.law,
        lambda atom: atom.law,
        lambda atom, time, k: (f"c{time}.{k}", atom.value, f"a{form.ranks[time - 1][atom]}"),
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
    after it, built level by level from the leaves up.  Paths are interned
    ints: 0 is the empty path, else (first label, id of the rest) has an id."""
    ids: dict[tuple, int] = {}
    laws: dict[str, dict[int, Fraction]] = {}
    for t in range(tree.config.num_steps, 0, -1):
        for node_id in tree.level(t):
            node = tree.node(node_id)
            law = {} if node.children else {0: Fraction(1)}
            for cid, p in node.children:
                child_label = label(tree.node(cid))
                for path, w in laws[cid].items():
                    key = ids.setdefault((child_label, path), len(ids) + 1)
                    law[key] = law.get(key, Fraction(0)) + p * w
            laws[node_id] = law
    return laws


def _conditionally_determined(
    tree: FilteredTree,
    state: Callable[[TreeNode], object],
    label: Callable[[TreeNode], object],
) -> tuple[bool, tuple | None]:
    """Check that the conditional future label law given the full filtration
    only depends on the state prefix.  Returns (ok, witness).  Prefixes are
    interned ints: (the parent's prefix id, the node's state) has an id."""
    laws = _future_paths(tree, label)
    ids: dict[tuple, int] = {}
    prefix: dict[str | None, int] = {None: 0}
    for t in range(1, tree.config.num_steps + 1):
        groups: dict[int, list[str]] = {}
        for node_id in tree.level(t):
            key = (prefix[tree.parent(node_id)], state(tree.node(node_id)))
            prefix[node_id] = ids.setdefault(key, len(ids) + 1)
            groups.setdefault(prefix[node_id], []).append(node_id)
        for members in groups.values():
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


def self_aware_lift(tree: FilteredTree) -> FilteredTree:
    """Append the canonical rank of each node's nested atom to its value.

    The decorated process reveals its own conditional future structure, so
    the result always passes ``is_self_aware``, and it is the smallest such
    decoration: any other value decoration with that property factors onto
    it through an adapted map.
    """
    res = information_process(tree)
    ranks = res.form.ranks
    return tree.with_values(
        tree.config.dim + 1,
        lambda node: node.value + (Fraction(ranks[node.time - 1][res.node_atom[node.node_id]]),),
    )


def markov_lift(tree: FilteredTree) -> FilteredTree:
    """Decorate each value with the full value-and-rank history.

    Layout per node at time t: current value (d slots), value history
    padded with zeros to N*d slots, rank history padded with -1 to N slots.
    The decorated value determines the node's atom and its whole past, so
    the lifted process is Markov in its value.
    """
    res = information_process(tree)
    ranks = res.form.ranks
    n, d = tree.config.num_steps, tree.config.dim

    def lifted(node):
        path = tree.node_path(node.node_id)
        pad = n - len(path)
        history = [v for m in path for v in tree.node(m).value] + [Fraction(0)] * (pad * d)
        rank_slots = [Fraction(ranks[t][res.node_atom[m]]) for t, m in enumerate(path)] + [Fraction(-1)] * pad
        return node.value + tuple(history) + tuple(rank_slots)

    return tree.with_values(d + n * d + n, lifted)


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
