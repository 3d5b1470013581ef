"""Seeded generators for the benchmark's input documents.

The generators build tree documents in the ``adt`` JSON format with plain
Python (no ``adt`` import), so the program under test only ever receives the
bytes written here.  Every generator takes a ``random.Random``; the caller
seeds it from a string, which ``random`` hashes with SHA-512, so a seed gives
the same documents on every interpreter and platform.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Values outside the generators' k/8 lattice range: a leaf moved here cannot
# coincide with any generated value.
OUTLIER = Fraction(100)


@dataclass
class Node:
    time: int
    value: Fraction
    info: str = ""
    children: list = field(default_factory=list)  # [(node_id, Fraction)]


@dataclass
class Tree:
    """A probability tree: ``nodes`` maps id -> Node, ``roots`` are the
    time-1 edges, ``steps`` is the horizon N."""

    steps: int
    nodes: dict
    roots: list

    def size(self) -> int:
        return len(self.nodes)

    def leaves(self) -> list:
        return [nid for nid, node in self.nodes.items() if node.time == self.steps]

    def leaf_paths(self) -> dict:
        """Leaf id -> (value path from time 1, unconditional probability)."""
        out: dict = {}
        stack = [(cid, p, ()) for cid, p in self.roots]
        while stack:
            nid, prob, prefix = stack.pop()
            node = self.nodes[nid]
            path = prefix + (node.value,)
            if not node.children:
                out[nid] = (path, prob)
            stack.extend((cid, prob * q, path) for cid, q in node.children)
        return out

    def path_law(self) -> dict:
        """Exact law of the value paths (leaves with equal paths pool mass)."""
        law: dict = {}
        for path, prob in self.leaf_paths().values():
            law[path] = law.get(path, Fraction(0)) + prob
        return law

    def order(self) -> list:
        """Node ids in depth-first document order."""
        out: list = []
        stack = [cid for cid, _ in reversed(self.roots)]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(cid for cid, _ in reversed(self.nodes[nid].children))
        return out

    def document(self) -> dict:
        return {
            "config": {"N": self.steps, "d": 1, "p": "1", "value_decimals": 12},
            "root_children": [{"id": cid, "prob": str(p)} for cid, p in self.roots],
            "nodes": [
                {
                    "id": nid,
                    "time": self.nodes[nid].time,
                    "value": [str(self.nodes[nid].value)],
                    "info": self.nodes[nid].info,
                    "children": [
                        {"id": cid, "prob": str(q)} for cid, q in self.nodes[nid].children
                    ],
                }
                for nid in self.order()
            ],
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.document(), separators=(",", ":")).encode("utf-8")


def _probs(rng: random.Random, width: int) -> list:
    weights = [rng.randint(1, 4) for _ in range(width)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def bushy(rng: random.Random, steps: int, width: int, dup_rate: float = 0.0) -> Tree:
    """One time-1 node; every interior node has ``width`` children with
    integer weights 1..4 and distinct values k/8, |k| <= 16.

    With ``dup_rate`` > 0 a child may instead copy its left sibling's whole
    subtree under a distinct info label, so canonicalization has nodes to
    merge.
    """
    nodes: dict = {}
    counter = [0]

    def new_id() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def build(time: int, value: Fraction) -> str:
        nid = new_id()
        node = Node(time, value)
        nodes[nid] = node
        if time < steps:
            values = [Fraction(k, 8) for k in rng.sample(range(-16, 17), width)]
            for k, (v, p) in enumerate(zip(values, _probs(rng, width))):
                if k and rng.random() < dup_rate:
                    cid = copy(node.children[-1][0], f"dup{k}")
                else:
                    cid = build(time + 1, v)
                node.children.append((cid, p))
        return nid

    def copy(src: str, info: str) -> str:
        old = nodes[src]
        nid = new_id()
        node = Node(old.time, old.value, info)
        nodes[nid] = node
        node.children = [(copy(cid, nodes[cid].info), q) for cid, q in old.children]
        return nid

    root = build(1, Fraction(rng.randint(-8, 8), 8))
    return Tree(steps, nodes, [(root, Fraction(1))])


def binomial(rng: random.Random, steps: int) -> Tree:
    """Recombining binomial model: one time-1 node, then ``steps`` - 1
    up/down moves with up/down sizes in eighths and up-probability in
    eighths, drawn once per tree.  Leaves are 2**(steps-1) distinct paths;
    the canonical form has t atoms at time t."""
    up = Fraction(rng.randint(1, 8), 8)
    down = -Fraction(rng.randint(1, 8), 8)
    q = Fraction(rng.randint(1, 7), 8)
    nodes: dict = {}
    counter = [0]

    def build(time: int, value: Fraction) -> str:
        counter[0] += 1
        nid = f"b{counter[0]}"
        node = Node(time, value)
        nodes[nid] = node
        if time < steps:
            node.children = [(build(time + 1, value + up), q),
                             (build(time + 1, value + down), 1 - q)]
        return nid

    root = build(1, Fraction(rng.randint(-8, 8), 8))
    return Tree(steps, nodes, [(root, Fraction(1))])


def relabelled(rng: random.Random, tree: Tree) -> Tree:
    """The same process under fresh node ids, renamed info labels and
    shuffled child order: equivalent to ``tree``."""
    names = list(tree.nodes)
    rng.shuffle(names)
    rename = {old: f"r{i}" for i, old in enumerate(names)}
    nodes = {}
    for old, node in tree.nodes.items():
        children = [(rename[cid], q) for cid, q in node.children]
        rng.shuffle(children)
        info = f"x{node.info}" if node.info else ""
        nodes[rename[old]] = Node(node.time, node.value, info, children)
    roots = [(rename[cid], p) for cid, p in tree.roots]
    return Tree(tree.steps, nodes, roots)


def perturbed(rng: random.Random, tree: Tree) -> Tree:
    """``tree`` with one leaf moved to a value no generator produces, so its
    path law, and hence its canonical form, differs."""
    leaf = rng.choice(tree.leaves())
    nodes = {nid: Node(n.time, n.value, n.info, list(n.children)) for nid, n in tree.nodes.items()}
    nodes[leaf].value = OUTLIER
    return Tree(tree.steps, nodes, list(tree.roots))


def shifted(tree: Tree, delta: Fraction, every: int = 3) -> tuple[Tree, Fraction]:
    """``tree`` with the leaf children of every ``every``-th time-(N-1) node
    (in document order) moved up by ``delta``, and the probability mass
    that moved.  Moving that mass back along the identity coupling is
    bicausal, so ``moved * delta`` bounds the adapted cost (p = 1)."""
    nodes = {nid: Node(n.time, n.value, n.info, list(n.children)) for nid, n in tree.nodes.items()}
    parents = [nid for nid in tree.order() if tree.nodes[nid].time == tree.steps - 1]
    probs = tree.leaf_paths()
    moved = Fraction(0)
    for parent in parents[::every]:
        for cid, _ in nodes[parent].children:
            nodes[cid].value += delta
            moved += probs[cid][1]
    return Tree(tree.steps, nodes, list(tree.roots)), moved

