"""Couplings of filtered processes: causality checks, optimal assembly,
product processes, geodesics, randomization extensions, and realization of a
coupling on another basis.

A coupling lives on pairs of leaves.  Causality in a given direction is the
conditional-independence property that the coupled partner's past carries no
information about one's own future beyond one's own past; it is verified by
exact rational comparisons over all finite atoms, so the verdicts carry no
tolerance.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from operator import mul
from dataclasses import dataclass, replace
from fractions import Fraction

from .canonical import NestedAtom, _mapped_atoms, information_process, self_aware_lift
from .errors import (
    ConfigMismatchError,
    DocumentError,
    GridResolutionError,
    NotBicausalError,
    SolverError,
    TreeValidationError,
)
from .process_model import (
    FilteredTree,
    MetricConfig,
    TreeNode,
    _is_array,
    _is_object,
    _integers,
    _json_object,
    _memoized,
    _unfold,
    load_tree,
    parse_probability,
    path_cost,
)
from .transport import NestedDistanceTable, _compile_paths

__all__ = [
    "PathCoupling",
    "CausalityReport",
    "BicausalReport",
    "check_causal",
    "check_bicausal",
    "assemble_optimal_coupling",
    "ProductTree",
    "product_process",
    "project_product",
    "pair_path_cost",
    "geodesic",
    "RandomizedExtension",
    "extend_with_randomization",
    "verify_extension",
    "verify_randomization_independence",
    "augmented_self_aware_lift",
    "TransferResult",
    "transfer",
    "check_transfer_grid",
    "load_coupling",
]


class PathCoupling:
    """Joint law on leaf pairs with exact marginal bookkeeping.

    The support is held as ints over one denominator D: ``_support`` maps
    each (left leaf, right leaf) pair, in the order given, to its positive
    weight times D, and ``_scale`` is D.  The constructor compiles
    ``weights`` once (D is the lcm of their denominators; zero weights are
    dropped and a negative one raises); ``load_coupling`` and
    ``assemble_optimal_coupling`` pass ints directly.  ``_probs`` holds each
    tree's node probabilities as ints over one denominator (``_node_ints``),
    against which marginals are checked on integers (``_validate_marginals``)
    and causality too (``check_causal``).  The public ``weights`` mapping of
    ``Fraction``s is built from the ints on first read.
    """

    def __init__(self, left: FilteredTree, right: FilteredTree, weights: Mapping):
        ints, scale = _integers([Fraction(w) for w in weights.values()])
        self._bind(left, right, dict(zip(weights, ints)), scale)

    @classmethod
    def _of_ints(cls, left: FilteredTree, right: FilteredTree, support: dict, scale: int) -> "PathCoupling":
        """The coupling with weight ``w / scale`` at each ``(l, r): w`` of ``support``."""
        pi = cls.__new__(cls)
        pi._bind(left, right, support, scale)
        return pi

    def _bind(self, left: FilteredTree, right: FilteredTree, support: dict, scale: int) -> None:
        left.config.require_same_shape(right.config, "PathCoupling")
        self.left = left
        self.right = right
        for (l, r), w in support.items():
            if w < 0:
                raise TreeValidationError(f"coupling weight at ({l!r}, {r!r}) is negative")
        self._support = {key: w for key, w in support.items() if w}
        self._scale = scale
        self._probs = (_node_ints(left), _node_ints(right))
        self._validate_marginals()

    @functools.cached_property
    def weights(self) -> dict[tuple[str, str], Fraction]:
        """The support as a ``Fraction`` mapping, in the order it was given."""
        scale = self._scale
        return {key: Fraction(w, scale) for key, w in self._support.items()}

    def __len__(self) -> int:
        """The number of support pairs."""
        return len(self._support)

    def _validate_marginals(self) -> None:
        """Each leaf's coupling mass, an int over D, against its probability
        in its tree, an int over that tree's denominator, by cross-products.
        Raises at the first pair naming an unknown leaf (left before right),
        then at the first mismatched leaf, left tree first, in level order."""
        mass_l, mass_r = (dict.fromkeys(tree.leaves(), 0) for tree in (self.left, self.right))
        for (l, r), w in self._support.items():
            if l not in mass_l:
                raise TreeValidationError(f"{l!r} is not a leaf of the left tree", l)
            if r not in mass_r:
                raise TreeValidationError(f"{r!r} is not a leaf of the right tree", r)
            mass_l[l] += w
            mass_r[r] += w
        scale = self._scale
        for side, tree, mass, (prob, d) in zip(
            ("left", "right"), (self.left, self.right), (mass_l, mass_r), self._probs
        ):
            for leaf, m in mass.items():
                if m * d != prob[leaf] * scale:
                    raise TreeValidationError(
                        f"{side} marginal mismatch at leaf {leaf!r}: "
                        f"{Fraction(m, scale)} vs {tree.prob(leaf)}",
                        leaf,
                    )

    def support_items(self) -> list[tuple[tuple[str, str], Fraction]]:
        return sorted(self.weights.items())

    def expected_cost(self):
        """Expected path cost under the coupling (the true path metric; in
        weak mode each path pair is truncated before averaging).

        Both trees' leaf paths are compiled by ``_compile_paths``, as plain
        transport compiles them, and the weights are the ints over D.  With
        exact costs each cell is an int over ``L**p`` (weak mode clips it at
        L) and the total is one ``Fraction``.  At non-integer orders the
        cells are the float path costs, added as the sum of
        ``w * path_cost`` adds them.
        """
        left, right = self.left, self.right
        rows_l, rows_r, unit, cost = _compile_paths(
            left.config,
            [left.value_path(leaf) for leaf in left.leaves()],
            [right.value_path(leaf) for leaf in right.leaves()],
        )
        row_l, row_r = dict(zip(left.leaves(), rows_l)), dict(zip(right.leaves(), rows_r))
        cells = [cost(row_l[l], row_r[r]) for l, r in self._support]
        weights, scale = self._support.values(), self._scale
        if unit is None:
            return sum((w / scale * c for w, c in zip(weights, cells)), 0.0)
        if left.config.is_weak:
            cells = [min(c, unit) for c in cells]
        return Fraction(sum(map(mul, weights, cells)), scale * unit)

    def to_document(self) -> dict:
        scale = self._scale
        return {
            "left_tree": self.left.to_document(),
            "right_tree": self.right.to_document(),
            "support": [
                {"left": l, "right": r, "weight": _ratio_text(w, scale)}
                for (l, r), w in sorted(self._support.items())
            ],
        }


def _node_ints(tree: FilteredTree) -> tuple[dict[str, int], int]:
    """``(ints, d)``: every node's probability as an int over ``d``, the lcm
    of the leaf probabilities' denominators (a node's probability is the sum
    of its leaves', so ``d`` is a multiple of every node's denominator)."""
    ids = [nid for t in range(1, tree.config.num_steps + 1) for nid in tree.level(t)]
    ints, d = _integers([tree.prob(nid) for nid in ids])
    return dict(zip(ids, ints)), d


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ints, without building the ``Fraction``."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def load_coupling(document) -> PathCoupling:
    """A coupling document's trees and support.  Each distinct weight string
    is parsed once; the weights are put over the lcm D of their
    denominators, and a repeated (left, right) pair's weights are added as
    ints over D."""
    document = _json_object(document, "coupling", ("left_tree", "right_tree", "support"))
    left = load_tree(document["left_tree"])
    right = load_tree(document["right_tree"])
    support = document["support"]
    if not _is_array(support):
        raise DocumentError("'support' must be an array")
    parse_weight = _memoized(parse_probability)
    keys, values = [], []
    for entry in support:
        if not _is_object(entry) or not ("left" in entry and "right" in entry and "weight" in entry):
            raise DocumentError("each support entry needs 'left', 'right', 'weight'")
        l, r = entry["left"], entry["right"]
        if not (isinstance(l, str) and l and isinstance(r, str) and r):
            raise DocumentError("support entry ids must be non-empty strings")
        keys.append((l, r))
        values.append(parse_weight(entry["weight"]))
    ints, scale = _integers(values)
    weights: dict[tuple[str, str], int] = {}
    for key, w in zip(keys, ints):
        weights[key] = weights[key] + w if key in weights else w
    return PathCoupling._of_ints(left, right, weights, scale)


# -- causality ----------------------------------------------------------------


@dataclass(frozen=True)
class CausalityReport:
    ok: bool
    witness: tuple[int, str, str] | None


@dataclass(frozen=True)
class BicausalReport:
    ok: bool
    left_to_right: CausalityReport
    right_to_left: CausalityReport


def _masses_up(masses: Mapping, up, n: int) -> list[dict]:
    """Masses keyed at time ``n`` carried up to time 1 (entry t-1 is time
    t): ``up`` maps a key one step up along the parent links, and masses
    whose keys meet there are added."""
    levels = [dict(masses)]
    for _ in range(n - 1):
        upper: dict = {}
        for key, w in levels[-1].items():
            key = up(key)
            upper[key] = upper[key] + w if key in upper else w
        levels.append(upper)
    levels.reverse()
    return levels


def check_causal(pi: PathCoupling, direction: str = "left_to_right") -> CausalityReport:
    """Exact conditional-independence test for causality in one direction.

    For ``left_to_right`` the right process may not anticipate the left one:
    conditionally on the left past at every time t, the full left path gives
    no extra information about right atoms at time t.  With ``fine(l, b)``
    the coupling mass of an own leaf l and an other node b at time t,
    ``coarse(a, b)`` that of l's time-t ancestor a and b, and P(x) the
    probability of x in its own tree, the test is the cross-product
    ``fine(l, b) * P(a) == coarse(a, b) * P(l)`` for every b met under a.
    It relies on ``PathCoupling``'s validated marginals: the coupling mass
    of an own node is P.  Masses are the coupling's ints over D and P the
    tree's ints over one denominator, so both sides are ints, compared
    exactly and without division.

    Returns the first violation as (time, own leaf, other node at that
    time), in the order of time ascending, then own leaf id, then other
    node id.
    """
    if direction == "left_to_right":
        own, other, support = pi.left, pi.right, pi._support
        prob = pi._probs[0][0]
    elif direction == "right_to_left":
        own, other = pi.right, pi.left
        support = {(r, l): w for (l, r), w in pi._support.items()}
        prob = pi._probs[1][0]
    else:
        raise SolverError(f"unknown direction {direction!r}")

    own_at = _ancestors(own, {l for l, _ in support})
    other_at = _ancestors(other, {r for _, r in support})
    leaves = sorted(own_at[-1])
    for t, own_t, other_t in zip(range(1, own.config.num_steps), own_at, other_at):
        fine: dict[tuple[str, str], int] = {}
        coarse: dict[tuple[str, str], int] = {}
        for (l, r), w in support.items():
            b = other_t[r]
            key = (l, b)
            fine[key] = fine.get(key, 0) + w
            key = (own_t[l], b)
            coarse[key] = coarse.get(key, 0) + w
        targets: dict[str, list[str]] = {}
        for a, b in sorted(coarse):
            targets.setdefault(a, []).append(b)
        for l in leaves:
            a = own_t[l]
            p_a, p_l = prob[a], prob[l]
            for b in targets[a]:
                if fine.get((l, b), 0) * p_a != coarse[a, b] * p_l:
                    return CausalityReport(ok=False, witness=(t, l, b))
    return CausalityReport(ok=True, witness=None)


def _ancestors(tree: FilteredTree, leaves) -> list[dict[str, str]]:
    """Entry t-1 maps each of ``leaves`` to its ancestor at time t, for
    t = 1..N (the last entry is the identity)."""
    levels = [{leaf: leaf for leaf in leaves}]
    for _ in range(tree.config.num_steps - 1):
        levels.append({leaf: tree.parent(x) for leaf, x in levels[-1].items()})
    levels.reverse()
    return levels


def check_bicausal(pi: PathCoupling) -> BicausalReport:
    lr = check_causal(pi, "left_to_right")
    rl = check_causal(pi, "right_to_left")
    return BicausalReport(ok=lr.ok and rl.ok, left_to_right=lr, right_to_left=rl)


# -- assembling the optimal coupling -------------------------------------------


def assemble_optimal_coupling(
    table: NestedDistanceTable, a: FilteredTree, b: FilteredTree
) -> PathCoupling:
    """Realize the table's stage-optimal plans as a coupling of the two trees.

    Atom-level plans are split proportionally over the tree children
    realizing each atom, which preserves marginals exactly and keeps the
    coupling bicausal; its expected path cost equals the table value.

    The walk runs on ints.  A node pair (u, v) at time t carries its mass as
    a reduced ratio num/den.  Its atoms' plan gives a child atom pair weight
    w / D_t, and their successor laws in ``table.compiled`` give each child
    atom mass m / D_t, so children cu, cv with tree probabilities q and r
    get ``num * w * q * r * D_t / (den * m_cu * m_cv)``, reduced by one gcd.
    Leaf pairs come out level by level in depth-first order, and reach
    ``PathCoupling`` as ints over the lcm of their denominators; no
    ``Fraction`` is built.
    """
    res_a, res_b = table.check_matches(a, b)
    comp = table.compiled
    atom_a, atom_b = res_a.node_atom, res_b.node_atom
    last = a.config.num_steps - 1
    leaves: dict[tuple[str, str], tuple[int, int]] = {}
    # node pairs of one level: ids, mass, the plan between the successor
    # laws of their atoms, and the atoms
    level = [(None, None, 1, 1, table.root_plan, *comp.roots)]
    for t in range(last + 1):
        d = comp.scales[t]
        nxt = []
        for u, v, num, den, plan, x, y in level:
            mass_a, mass_b = dict(comp.laws[x]), dict(comp.laws[y])
            share = {(p, q): w.numerator * (d // w.denominator) for p, q, w in plan}
            cols = [
                (cv, atom_b[cv], r.numerator, r.denominator * mass_b[atom_b[cv]])
                for cv, r in b.children(v)
            ]
            for cu, q in a.children(u):
                x_u = atom_a[cu]
                row_num, row_den = num * q.numerator * d, den * q.denominator * mass_a[x_u]
                for cv, y_v, r_num, r_den in cols:
                    w = share.get((x_u, y_v))
                    if not w:
                        continue
                    w_num, w_den = row_num * w * r_num, row_den * r_den
                    g = math.gcd(w_num, w_den)
                    if t == last:
                        leaves[cu, cv] = w_num // g, w_den // g
                    else:
                        plan_uv = table.levels[t][x_u, y_v].plan
                        nxt.append((cu, cv, w_num // g, w_den // g, plan_uv, x_u, y_v))
        level = nxt
    scale = math.lcm(*{den for _, den in leaves.values()})
    support = {key: num * (scale // den) for key, (num, den) in leaves.items()}
    return PathCoupling._of_ints(a, b, support, scale)


# -- product process ------------------------------------------------------------


@dataclass(frozen=True)
class ProductTree:
    """A coupling realized as a filtered process on the pair space.

    ``tree`` carries concatenated values (left block then right block) under
    the product filtration; ``pairs`` maps its node ids back to the coupled
    node pairs.
    """

    tree: FilteredTree
    left: FilteredTree
    right: FilteredTree
    pairs: dict[str, tuple[str, str]]

    @property
    def base_dim(self) -> int:
        return self.left.config.dim


def product_process(pi: PathCoupling) -> ProductTree:
    """Build the product filtered process of a bicausal coupling.

    Nodes at time t are pairs of time-t atoms with positive joint mass;
    transition probabilities are the conditional coupling masses.  Inputs
    failing the bicausality check are rejected.
    """
    report = check_bicausal(pi)
    if not report.ok:
        bad = report.left_to_right if not report.left_to_right.ok else report.right_to_left
        raise NotBicausalError(
            f"coupling is not bicausal; witness (time, atom, atom): {bad.witness}"
        )
    left, right = pi.left, pi.right
    cfg = left.config

    def up(uv):
        return left.parent(uv[0]), right.parent(uv[1])

    mass = _masses_up(pi.weights, up, cfg.num_steps)
    order_l = {nid: k for t in range(1, cfg.num_steps + 1) for k, nid in enumerate(left.level(t))}
    order_r = {nid: k for t in range(1, cfg.num_steps + 1) for k, nid in enumerate(right.level(t))}

    def rank(uv):
        return order_l[uv[0]], order_r[uv[1]]

    ids: dict[tuple[str, str], str] = {}
    for t, level in enumerate(mass, 1):
        ids.update((uv, f"p{t}.{k}") for k, uv in enumerate(sorted(level, key=rank)))
    kids: dict[tuple[str, str], list[tuple[str, Fraction]]] = {uv: [] for uv in ids}
    for above, level in zip(mass, mass[1:]):
        for uv, w in level.items():
            kids[up(uv)].append((ids[uv], w / above[up(uv)]))

    nodes: dict[str, TreeNode] = {}
    for (u, v), pid in ids.items():
        node_u, node_v = left.node(u), right.node(v)
        # the info label carries the full pair identity so that slicing the
        # values (projections, interpolation) never merges distinct atoms
        nodes[pid] = TreeNode(
            node_id=pid,
            time=node_u.time,
            value=node_u.value + node_v.value,
            info=json.dumps([u, v]),
            children=tuple(sorted(kids[(u, v)])),
        )
    root = [(ids[uv], mass[0][uv]) for uv in sorted(mass[0], key=rank)]
    prod_cfg = replace(
        cfg,
        dim=2 * cfg.dim,
        value_decimals=max(cfg.value_decimals, right.config.value_decimals),
    )
    tree = FilteredTree(prod_cfg, nodes, root)
    return ProductTree(tree=tree, left=left, right=right, pairs={pid: uv for uv, pid in ids.items()})


def project_product(product: ProductTree, side: str) -> FilteredTree:
    """One coordinate process of a product tree, kept on the product basis
    (values are sliced; the filtration and info labels stay those of the pair)."""
    if side not in ("left", "right"):
        raise SolverError(f"side must be 'left' or 'right', got {side!r}")
    d = product.base_dim
    lo, hi = (0, d) if side == "left" else (d, 2 * d)
    return product.tree.with_values(d, lambda node: node.value[lo:hi])


def pair_path_cost(tree: FilteredTree, base_dim: int):
    """Expected path cost between the two coordinate blocks of a pair process."""
    cfg = tree.config
    if cfg.dim != 2 * base_dim:
        raise ConfigMismatchError(
            f"pair process has dimension {cfg.dim}, expected {2 * base_dim}"
        )
    base_cfg = replace(cfg, dim=base_dim)
    total = Fraction(0)
    for leaf in tree.leaves():
        path = tree.value_path(leaf)
        x = tuple(step[:base_dim] for step in path)
        y = tuple(step[base_dim:] for step in path)
        total += tree.prob(leaf) * path_cost(x, y, base_cfg)
    return total


# -- geodesics -------------------------------------------------------------------


def geodesic(product: ProductTree, lam) -> FilteredTree:
    """Convex interpolation between the two coordinate processes of an
    (optimal) product tree, at parameter ``lam`` in [0, 1].

    The interpolated process keeps the product filtration, so distances
    between interpolates scale linearly in the parameter gap.
    """
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise SolverError(f"interpolation parameter must lie in [0, 1], got {lam}")
    d = product.base_dim
    return product.tree.with_values(
        d, lambda node: tuple(a + lam * (b - a) for a, b in zip(node.value[:d], node.value[d:]))
    )


# -- randomized extensions --------------------------------------------------------


@dataclass(frozen=True)
class RandomizedExtension:
    """Base process on an enlarged basis carrying one independent uniform
    m-point coordinate per time step.

    ``node_map`` sends extension node ids to (base node id, digit chain).
    """

    base: FilteredTree
    m: int
    tree: FilteredTree
    node_map: dict[str, tuple[str, tuple[int, ...]]]


def extend_with_randomization(tree: FilteredTree, m: int) -> RandomizedExtension:
    """Adjoin an independent uniform grid coordinate at every time step.

    Values and their filtration embed unchanged; each original transition
    splits into ``m`` equally likely copies whose digit is recorded in the
    info label (the grid lives in the filtration, not in the value)."""
    _require_grid(m, 1)
    cfg = tree.config
    inv_m = Fraction(1, m)
    node_map: dict[str, tuple[str, tuple[int, ...]]] = {}

    def split(edges, chain):
        return [((cid, chain + (g,)), q * inv_m) for cid, q in edges for g in range(m)]

    def describe(item, time, k):
        base, ext_id = tree.node(item[0]), f"e{time}.{k}"
        node_map[ext_id] = item
        return ext_id, base.value, f"{base.info}|u{item[1][-1]}"

    ext_tree = _unfold(
        cfg,
        split(tree.root_children, ()),
        lambda item: split(tree.node(item[0]).children, item[1]),
        describe,
    )
    return RandomizedExtension(base=tree, m=m, tree=ext_tree, node_map=node_map)


def verify_extension(ext: RandomizedExtension) -> bool:
    """Exact check of the extension axioms: the base marginal is preserved
    node by node, and the joint law of (base path, grid path) is causal from
    the base toward the grid."""
    base, etree = ext.base, ext.tree
    mass: dict[str, Fraction] = {}
    for node in etree.nodes():
        base_id, _ = ext.node_map[node.node_id]
        mass[base_id] = mass.get(base_id, Fraction(0)) + etree.prob(node.node_id)
    for node in base.nodes():
        if mass.get(node.node_id, Fraction(0)) != base.prob(node.node_id):
            return False

    grid = _uniform_grid_tree(ext.m, base.config)
    weights: dict[tuple[str, str], Fraction] = {}
    for leaf in etree.leaves():
        base_leaf, chain = ext.node_map[leaf]
        key = (base_leaf, _grid_node_id(chain))
        weights[key] = weights.get(key, Fraction(0)) + etree.prob(leaf)
    try:
        joint = PathCoupling(base, grid, weights)
    except TreeValidationError:
        # the base marginal holds, so the grid marginal is not uniform
        return False
    return check_causal(joint, "left_to_right").ok


def _uniform_grid_tree(m: int, like: MetricConfig) -> FilteredTree:
    """The i.i.d. uniform digit process on {0, ..., m-1}^N."""
    inv_m = Fraction(1, m)

    def digits(chain):
        return [(chain + (g,), inv_m) for g in range(m)]

    return _unfold(
        replace(like, dim=1),
        digits(()),
        digits,
        lambda chain, time, k: (_grid_node_id(chain), (Fraction(chain[-1]),), ""),
    )


def _grid_node_id(chain: tuple[int, ...]) -> str:
    return "g" + "-".join(str(g) for g in chain)


def verify_randomization_independence(ext: RandomizedExtension) -> bool:
    """Check that each digit is uniform and exactly independent of the
    decorated base path together with the strictly earlier extension atoms."""
    etree = ext.tree
    lift = self_aware_lift(ext.base)
    lift_path: dict[str | None, tuple] = {None: ()}
    for node in lift.nodes():
        lift_path[node.node_id] = lift_path[lift.parent(node.node_id)] + (node.value,)
    inv_m = Fraction(1, ext.m)
    # masses keyed (decorated base path, extension node at time t) per time
    levels = _masses_up(
        {(lift_path[ext.node_map[leaf][0]], leaf): etree.prob(leaf) for leaf in etree.leaves()},
        lambda key: (key[0], etree.parent(key[1])),
        etree.config.num_steps,
    )
    for level in levels:
        joint: dict[tuple, Fraction] = {}
        marginal: dict[tuple, Fraction] = {}
        for (path, node), w in level.items():
            marg_key = (path, etree.parent(node))
            joint_key = marg_key + (ext.node_map[node][1][-1],)
            joint[joint_key] = joint.get(joint_key, Fraction(0)) + w
            marginal[marg_key] = marginal.get(marg_key, Fraction(0)) + w
        for key, w in marginal.items():
            for g in range(ext.m):
                if joint.get(key + (g,), Fraction(0)) != w * inv_m:
                    return False
    return True


def augmented_self_aware_lift(ext: RandomizedExtension) -> FilteredTree:
    """Self-aware decoration of the base, carried onto the extension and
    augmented with the grid digit: value = (base value, atom rank, digit)."""
    res = information_process(ext.base)
    ranks = res.form.ranks

    def lifted(node):
        base_id, chain = ext.node_map[node.node_id]
        return node.value + (Fraction(ranks[node.time - 1][res.node_atom[base_id]]), Fraction(chain[-1]))

    return ext.tree.with_values(ext.tree.config.dim + 2, lifted)


# -- transfer ---------------------------------------------------------------------


@dataclass(frozen=True)
class TransferResult:
    """Outcome of realizing a pair process on a randomized extension."""

    pair_tree: FilteredTree
    y_tree: FilteredTree
    required_m: int


def transfer(product: ProductTree, target: RandomizedExtension) -> TransferResult:
    """Realize the second coordinate of a pair process on another basis.

    The target's base must be equivalent to the pair's first coordinate
    process.  Walking the extension, the next pair atom is drawn from its
    conditional law given the realized first-coordinate atom by slicing the
    uniform digit into consecutive blocks (a conditional-quantile pick), so
    the construction is adapted, keeps the first coordinate pointwise
    unchanged, and reproduces the pair process's canonical form exactly.
    """
    base = target.base
    d = base.config.dim
    prod_tree = product.tree
    if prod_tree.config.dim != 2 * d or prod_tree.config.num_steps != base.config.num_steps:
        raise ConfigMismatchError(
            "transfer: product tree shape does not match the target base"
        )

    top_grouped, block_table, required = _conditional_blocks(prod_tree, d)
    res_base = information_process(base)
    top_marginal = {
        alpha: sum(bucket.values(), Fraction(0)) for alpha, bucket in top_grouped.items()
    }
    base_law = {atom: w for atom, w in res_base.form.law}
    if top_marginal != base_law:
        raise ConfigMismatchError(
            "transfer: target base is not equivalent to the first coordinate "
            "of the product process"
        )

    m = target.m
    _require_grid(m, required)

    def pick(block_list, digit: int) -> NestedAtom:
        cursor = 0
        for gamma, q in block_list:
            cursor += int(q * m)
            if digit < cursor:
                return gamma
        raise SolverError("digit fell outside all conditional blocks")

    etree = target.tree
    realized: dict[str, NestedAtom] = {}
    for node in etree.nodes():
        base_id, chain = target.node_map[node.node_id]
        alpha = res_base.node_atom[base_id]
        parent = etree.parent(node.node_id)
        gamma_parent = realized[parent] if parent else None
        digit = chain[-1]
        gamma = pick(block_table[gamma_parent][alpha], digit)
        if gamma.value[:d] != base.node(base_id).value:
            raise SolverError("transfer misaligned the first coordinate")
        realized[node.node_id] = gamma

    pair_nodes = {}
    for node in etree.nodes():
        base_id, chain = target.node_map[node.node_id]
        # label by (base node, digit): the atom identity on the extension,
        # which keeps siblings distinct however the values slice
        info = f"{base_id}|u{chain[-1]}"
        pair_nodes[node.node_id] = replace(node, value=realized[node.node_id].value, info=info)
    pair_cfg = replace(etree.config, dim=2 * d, value_decimals=prod_tree.config.value_decimals)
    pair_tree = FilteredTree(pair_cfg, pair_nodes, etree.root_children)
    y_tree = pair_tree.with_values(d, lambda node: node.value[d:])
    return TransferResult(pair_tree=pair_tree, y_tree=y_tree, required_m=required)


def check_transfer_grid(product: ProductTree, m: int) -> None:
    """Raise unless ``transfer`` can realize ``product`` on an ``m``-point
    grid.  Reads only the product's conditional laws, so a caller can reject
    ``m`` before building the extension, whose size grows like ``m**N``."""
    _require_grid(m, _conditional_blocks(product.tree, product.base_dim)[2])


def _conditional_blocks(prod_tree: FilteredTree, d: int):
    """``(top_grouped, block_table, required)`` of a pair process whose
    first ``d`` coordinates are the base: its top law grouped by projected
    atom, every conditional law the transfer walk could need keyed by the
    parent pair atom (None at the top), and the lcm of their denominators."""
    res_p = information_process(prod_tree)
    first_atom = _mapped_atoms(res_p.form, lambda value: value[:d])

    def pushed(law) -> dict[NestedAtom, dict[NestedAtom, Fraction]]:
        grouped: dict[NestedAtom, dict[NestedAtom, Fraction]] = {}
        for gamma, w in law:
            alpha = first_atom[gamma]
            bucket = grouped.setdefault(alpha, {})
            bucket[gamma] = bucket.get(gamma, Fraction(0)) + w
        return grouped

    def conditional_blocks(grouped):
        """Per projected atom: candidates in canonical order (the order of
        the law they were pushed from) with their conditional probabilities."""
        out = {}
        for alpha, bucket in grouped.items():
            alpha_mass = sum(bucket.values(), Fraction(0))
            out[alpha] = [(gamma, w / alpha_mass) for gamma, w in bucket.items()]
        return out

    top_grouped = pushed(res_p.form.law)
    block_table: dict[NestedAtom | None, dict] = {None: conditional_blocks(top_grouped)}
    for level in res_p.form.levels():
        for gamma in level:
            if not gamma.is_terminal:
                block_table[gamma] = conditional_blocks(pushed(gamma.law))

    required = 1
    for table in block_table.values():
        for block_list in table.values():
            for _, q in block_list:
                required = math.lcm(required, q.denominator)
    return top_grouped, block_table, required


def _require_grid(m: int, required: int) -> None:
    if m < 2:
        raise SolverError(f"grid size must be at least 2, got {m}")
    if m % required != 0:
        raise GridResolutionError(
            f"grid size {m} is too coarse: conditional laws need a multiple of {required}",
            required=required,
        )
