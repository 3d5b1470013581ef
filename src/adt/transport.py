"""Exact optimal transport and the adapted (nested) transport distance.

Transport problems are solved by one network simplex on integers:
``ot_solve`` scales rational weights and costs by the lcm of their
denominators, so the pivots compare plain ``int``s and the value is one
``Fraction`` at the end.  Pricing scans blocks of rows cyclically, and
Cunningham's leaving rule on a strongly feasible basis tree keeps the
method from cycling without tolerances; each pivot updates the tree only
on the subtree it moves.  Float costs (non-integer orders) run through the
same simplex with a small pricing tolerance.  Costs are priced on ints
from one compilation of the value paths (``_compile_paths``).  The adapted
distance between two filtered processes is a backward recursion over
pairs of canonical atoms, each pair one transport problem between two
successor laws; it runs on ints, and in one dimension the problems between
two terminal laws are solved by the monotone sweep instead of the simplex.
Its table keeps the two canonical forms it was solved on and doubles as
the certificate from which optimal bicausal couplings are assembled and
the sampling oracle composes its couplings.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .canonical import (
    CanonicalForm,
    InformationResult,
    NestedAtom,
    information_process,
)
from .errors import SolverError, StaleTableError
from .process_model import (
    DiscreteMeasure,
    FilteredTree,
    MetricConfig,
    _integers,
    _postorder,
    law_on_paths,
)
from .skorokhod import _overlap_laws

__all__ = [
    "TransportPlan",
    "ot_solve",
    "NestedDistanceTable",
    "StageEntry",
    "aw_distance",
    "wasserstein_paths",
    "random_bicausal_cost",
    "information_lift_contraction_ratio",
]


@dataclass(frozen=True)
class TransportPlan:
    """Support of a transport plan: (row, col, weight) triples, row-major."""

    num_rows: int
    num_cols: int
    support: tuple[tuple[int, int, Fraction], ...]

    def as_dict(self) -> dict:
        return {(i, j): w for i, j, w in self.support}

    def row_sums(self) -> list:
        sums = [Fraction(0)] * self.num_rows
        for i, _, w in self.support:
            sums[i] += w
        return sums

    def col_sums(self) -> list:
        sums = [Fraction(0)] * self.num_cols
        for _, j, w in self.support:
            sums[j] += w
        return sums

    def matches_marginals(self, mu: Sequence[Fraction], nu: Sequence[Fraction]) -> bool:
        return self.row_sums() == list(mu) and self.col_sums() == list(nu)


def _as_weights(marginal) -> list:
    if isinstance(marginal, DiscreteMeasure):
        return list(marginal.weights)
    return list(marginal)


def ot_solve(mu, nu, cost):
    """Solve the discrete transport problem exactly.

    ``mu`` and ``nu`` are weight sequences (or DiscreteMeasures) with equal
    totals; ``cost`` is a matrix indexed [row][col].  Returns
    ``(value, TransportPlan)``.  With rational costs (``int`` or
    ``Fraction``) the value and plan are exact; float costs fall back to a
    small pivot tolerance.

    Rational data is compiled to integers once: the weights are scaled by
    the lcm of their denominators D and the costs by the lcm of theirs.
    The simplex runs on plain ints, plan weights come back as
    ``Fraction(w, D)`` and the value is divided back once at the end.
    """
    a = _as_weights(mu)
    b = _as_weights(nu)
    rows = [list(r) for r in cost]
    if len(rows) != len(a) or any(len(r) != len(b) for r in rows):
        raise SolverError(
            f"cost matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not match "
            f"marginals of sizes {len(a)} and {len(b)}"
        )
    flat, cost_scale = _integers([c for r in rows for c in r])
    if min(flat, default=0) < 0:
        raise SolverError(f"negative cost {next(c for r in rows for c in r if c < 0)}")
    weights, weight_scale = _integers(a + b)
    if min(weights, default=0) < 0:
        raise SolverError("marginal weights must be nonnegative")
    supply, demand = weights[:len(a)], weights[len(a):]
    if sum(supply) != sum(demand):
        if weight_scale or abs(float(sum(a)) - float(sum(b))) > 1e-12:
            raise SolverError(f"marginal totals differ: {sum(a)} vs {sum(b)}")

    live_rows = [i for i, w in enumerate(supply) if w > 0]
    live_cols = [j for j, w in enumerate(demand) if w > 0]
    if not live_rows:
        return Fraction(0), TransportPlan(len(a), len(b), ())
    cells = [flat[i * len(b):(i + 1) * len(b)] for i in live_rows]
    if len(live_cols) < len(b):
        cells = [[row[j] for j in live_cols] for row in cells]

    basis = _simplex(
        [supply[i] for i in live_rows],
        [demand[j] for j in live_cols],
        cells,
        0 if cost_scale else 1e-12,
    )

    support = tuple(
        (live_rows[i], live_cols[j], Fraction(w, weight_scale) if weight_scale else w)
        for i, j, w in sorted(basis)
        if w > 0
    )
    if weight_scale and cost_scale:
        value = Fraction(sum(cells[i][j] * w for i, j, w in basis), weight_scale * cost_scale)
    else:
        value = sum((rows[i][j] * w for i, j, w in support), 0.0)
    return value, TransportPlan(len(a), len(b), support)


def _simplex(a, b, cost, tol):
    """Network simplex for the transportation problem; returns the basis as
    (row, col, mass) triples.

    Nodes are the rows 0..m-1 and the columns m..m+n-1.  The basis is a
    spanning tree rooted at row 0, kept as parent links: each other node x
    stores the basic cell that joins it to ``parent[x]``, that cell's mass
    ``flow[x]``, its depth and its potential (u_i for a row, v_j for a
    column, with u_0 = 0 and u_i + v_j = c_ij on every basic cell).

    Pricing scans blocks of whole rows, about sqrt(mn) cells but at least
    one row each, cyclically from where the last block ended; the most
    negative reduced cost c_ij - u_i - v_j of the first block that has one
    enters (ties: the first one scanned).  Its cycle runs up the parent
    links to the common ancestor (the apex).  The leaving cell is
    Cunningham's: of the cells that give up mass, the last one of least mass
    met going from the apex down to the entering row, across the entering
    cell and back up to the apex.  That keeps the tree strongly feasible,
    meaning every basic cell of zero mass hangs its row below its column, so
    every node can push mass up to the root.  A degenerate pivot then always
    cuts off the subtree that holds the entering row, lowering each of its
    u_i and raising each of its v_j, so sum(u) - sum(v) falls strictly: no
    basis repeats and the method cannot cycle.  The north-west start is
    strongly feasible because it advances the row when a row and a column
    run out together, so its only zero cells hang a row below a column.

    A pivot re-roots the cut-off subtree at the entering cell's end and
    updates parent links, depths and potentials on that subtree only.
    """
    m, n = len(a), len(b)
    parent = [-1] * (m + n)
    flow = [0] * (m + n)
    depth = [0] * (m + n)
    children = [[] for _ in range(m + n)]
    u, v = [0] * m, [0] * n

    # north-west staircase from row 0: each cell links the node it reaches
    rem_a, rem_b = list(a), list(b)
    i = j = 0
    node, up = m, 0
    while True:
        w = min(rem_a[i], rem_b[j])
        rem_a[i] -= w
        rem_b[j] -= w
        parent[node], flow[node], depth[node] = up, w, depth[up] + 1
        children[up].append(node)
        if node < m:
            u[i] = cost[i][j] - v[j]
        else:
            v[j] = cost[i][j] - u[i]
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] == 0 and i < m - 1:
            i += 1
            node, up = i, m + j
        elif j < n - 1:
            j += 1
            node, up = m + j, i
        else:
            raise SolverError("degenerate basis lost connectivity")

    rows_per_block = max(1, round(math.sqrt(m / n)))
    cursor = 0
    max_pivots = 1000 * (m + n + 10)
    for _ in range(max_pivots):
        row = None
        priced = 0
        while row is None:
            if priced >= m:
                return [
                    (x, parent[x] - m, flow[x]) if x < m else (parent[x], x - m, flow[x])
                    for x in range(1, m + n)
                ]
            best = -tol
            for _ in range(rows_per_block):
                r = min(map(sub, cost[cursor], v)) - u[cursor]
                if r < best:
                    best, row = r, cursor
                cursor = cursor + 1 if cursor + 1 < m else 0
            priced += rows_per_block
            if row is not None:
                reduced = list(map(sub, cost[row], v))
                col = reduced.index(min(reduced))
                if parent[row] == m + col or parent[m + col] == row:
                    # a basic cell prices at exactly zero on integers; with
                    # float costs it can price a rounding error below -tol
                    row = None

        # walk both ends up to the apex; on the row side a row gives up
        # mass, on the column side a column does
        x, y = row, m + col
        row_side, col_side = [], []
        while x != y:
            if depth[x] > depth[y]:
                row_side.append(x)
                x = parent[x]
            else:
                col_side.append(y)
                y = parent[y]
        theta = leave = None
        for x in reversed(row_side):
            if x < m and (theta is None or flow[x] <= theta):
                theta, leave = flow[x], x
        for y in col_side:
            if y >= m and (theta is None or flow[y] <= theta):
                theta, leave = flow[y], y
        if theta:
            for x in row_side:
                flow[x] += -theta if x < m else theta
            for y in col_side:
                flow[y] += -theta if y >= m else theta

        # the cut-off subtree holds the entering end on the leaving side;
        # reverse the links from that end up to the leaving node
        if leave < m:
            stem, top = row_side[:row_side.index(leave) + 1], m + col
        else:
            stem, top = col_side[:col_side.index(leave) + 1], row
        mass = theta
        for x in stem:
            children[parent[x]].remove(x)
            children[top].append(x)
            parent[x], top = top, x
            flow[x], mass = mass, flow[x]
        stack = [stem[0]]
        while stack:
            x = stack.pop()
            up = parent[x]
            depth[x] = depth[up] + 1
            if x < m:
                u[x] = cost[x][up - m] - v[up - m]
            else:
                v[x - m] = cost[up][x - m] - u[up]
            stack.extend(children[x])
    raise SolverError("transport solver failed to terminate")


# -- nested distance -----------------------------------------------------------


@dataclass(frozen=True)
class StageEntry:
    """One table cell: accumulated cost for an atom pair and, below the last
    stage, the optimal plan between their successor laws."""

    cost: object
    plan: tuple[tuple[NestedAtom, NestedAtom, Fraction], ...] | None


@dataclass(frozen=True)
class NestedDistanceTable:
    """Backward-recursion table of the adapted distance.

    ``left`` and ``right`` are the canonical forms the table was solved on;
    ``levels[t-1]`` maps pairs of their time-t atoms to StageEntry and
    ``root_plan`` couples their laws.  ``truncated`` marks the weak-mode
    case where the reported value was clipped at 1.
    """

    config: MetricConfig
    left: CanonicalForm
    right: CanonicalForm
    levels: tuple
    root_value: object
    root_plan: tuple[tuple[NestedAtom, NestedAtom, Fraction], ...]
    truncated: bool

    def entry(self, time: int, left: NestedAtom, right: NestedAtom) -> StageEntry:
        return self.levels[time - 1][(left, right)]

    def check_matches(
        self, left: FilteredTree, right: FilteredTree
    ) -> tuple[InformationResult, InformationResult]:
        """Canonicalize both trees and check that the table was solved on
        them under their metric; returns the two results.  Atoms are
        interned, so comparing the laws by atom identity is exact."""
        res_a = information_process(left)
        res_b = information_process(right)
        if not (
            self.config.same_shape(left.config)
            and self.config.same_shape(right.config)
            and res_a.form.law == self.left.law
            and res_b.form.law == self.right.law
        ):
            raise StaleTableError(
                "distance table does not belong to these trees "
                "(canonical forms or cost order differ)"
            )
        return res_a, res_b


def _solve_laws(law_a, law_b, cost_of):
    """Transport between two (atom, weight) laws under ``cost_of(x, y)``;
    returns ``(value, plan)`` with the plan as (atom, atom, weight) triples."""
    atoms_a = [x for x, _ in law_a]
    atoms_b = [y for y, _ in law_b]
    value, plan = ot_solve(
        [w for _, w in law_a],
        [w for _, w in law_b],
        [[cost_of(x, y) for y in atoms_b] for x in atoms_a],
    )
    return value, tuple((atoms_a[i], atoms_b[j], w) for i, j, w in plan.support)


def _int_laws(laws):
    """The weights of all ``laws`` (sequences of (atom, weight) pairs) as
    ints over one scale D, the lcm of their denominators; returns
    ``(int_laws, D)``."""
    ints, scale = _integers([w for law in laws for _, w in law])
    weights = iter(ints)
    return [[(x, next(weights)) for x, _ in law] for law in laws], scale


def _over(scale: int):
    """``k -> Fraction(k, scale)``, built once per distinct int k: weights
    and costs repeat many times within one level."""
    return functools.cache(lambda k: Fraction(k, scale))


def aw_distance(a: FilteredTree, b: FilteredTree) -> tuple[object, NestedDistanceTable]:
    """Adapted transport cost between two filtered processes.

    Returns ``(value, table)`` where ``value`` is the optimal bicausal
    expected path cost (the p-th power of the distance; exact for integer
    p).  Each tree is canonicalized once, and the table keeps both forms.
    In weak mode the recursion runs on untruncated 1-norm stage costs and
    the final value is clipped at 1, mirroring the truncated path metric at
    the level of totals.

    Both forms are compiled to integers once.  Every value coordinate is an
    int over one scale L (``_compile_paths``), the time-t law weights of
    both forms are ints over D_t, the lcm of their denominators, and a
    level-t cost is an int over S_t = L^p * D_(t+1) * ... * D_N, turned into
    a ``Fraction`` once per table entry.  Each stage LP is then a positive
    multiple of the rational one, so ``ot_solve`` makes the same pivots, and
    plan weights come back as ``Fraction(w, D_t)``.  When d = 1 and both
    successor laws are terminal, the stage cost is convex in x - y, so the
    north-west corner of the value-sorted laws is optimal (Villani 2003,
    *Topics in Optimal Transportation*, ch. 2): ``_overlap_laws`` sweeps it
    without an LP.  That corner is the simplex's own start, and any pivot
    from an optimal start is degenerate, so the plan is the same.  At
    non-integer orders the same loop runs on float costs built from the
    same ints, bit-identical to ``step_cost``.
    """
    a.config.require_same_shape(b.config, "aw_distance")
    cfg = a.config
    form_a = information_process(a).form
    form_b = information_process(b).form
    levels_a = form_a.levels()
    levels_b = form_b.levels()
    n = cfg.num_steps
    atoms_a = [x for level in levels_a for x in level]
    atoms_b = [y for level in levels_b for y in level]
    rows_a, rows_b, unit, step_cost = _compile_paths(
        cfg, [(x.value,) for x in atoms_a], [(y.value,) for y in atoms_b]
    )
    # an atom in both forms gets one row: both sides share the scale L
    row_of = dict(zip(atoms_a, rows_a)) | dict(zip(atoms_b, rows_b))
    exact = unit is not None
    sweep = cfg.dim == 1
    below = None  # costs of the time t+1 pairs: ints over S_(t+1), or floats

    def solve(law_x, law_y, d, terminal):
        """Plan between two laws of ints over ``d``, with weights as ints,
        and its cost under ``below``."""
        if terminal and sweep:
            plan = list(_overlap_laws(law_x, law_y))
        else:
            _, lp = _solve_laws(law_x, law_y, lambda x, y: below[x, y])
            plan = [(x, y, w.numerator) for x, y, w in lp]
        return sum(below[x, y] * (w if exact else w / d) for x, y, w in plan), plan

    tables: list[dict] = [dict() for _ in range(n)]
    scale = 1  # S_t / L^p with exact costs
    for t in range(n, 0, -1):
        level_a, level_b = levels_a[t - 1], levels_b[t - 1]
        terminal = t == n - 1
        if t < n:
            laws, d = _int_laws([x.law for x in (*level_a, *level_b)])
            laws_a, laws_b = laws[:len(level_a)], laws[len(level_a):]
            # canonical order is value order at the last level: the sweep needs it
            assert not (terminal and sweep) or all(
                row_of[x] < row_of[y] for law in laws for (x, _), (y, _) in zip(law, law[1:])
            )
            if exact:
                scale *= d
            as_weight = _over(d)
        as_cost = _over(unit * scale) if exact else None
        costs, entries = {}, tables[t - 1]
        for i, alpha in enumerate(level_a):
            x = row_of[alpha]
            for j, beta in enumerate(level_b):
                cost = step_cost(x, row_of[beta]) * scale
                plan = None
                if t < n:
                    value, plan = solve(laws_a[i], laws_b[j], d, terminal)
                    cost += value
                    plan = tuple((u, v, as_weight(w)) for u, v, w in plan)
                costs[alpha, beta] = cost
                entries[alpha, beta] = StageEntry(cost=as_cost(cost) if exact else cost, plan=plan)
        below = costs
    (law_a, law_b), d = _int_laws([form_a.law, form_b.law])
    value, plan = solve(law_a, law_b, d, False)
    plan = tuple((u, v, Fraction(w, d)) for u, v, w in plan)
    if exact:
        value = Fraction(value, unit * scale * d)
    truncated = False
    if cfg.is_weak and value > 1:
        value = Fraction(1)
        truncated = True
    table = NestedDistanceTable(
        config=cfg,
        left=form_a,
        right=form_b,
        levels=tuple(tables),
        root_value=value,
        root_plan=plan,
        truncated=truncated,
    )
    return value, table


def wasserstein_paths(a: FilteredTree, b: FilteredTree):
    """Plain transport cost between the two path laws (filtrations ignored).

    Always a lower bound for ``aw_distance``.  Weak mode applies the
    truncated path metric to each path pair before solving, so the weak
    value is exact.  At integer orders and in weak mode the cost matrix is
    built on integers (see ``_plain_transport``) and the value is divided
    back once.
    """
    a.config.require_same_shape(b.config, "wasserstein_paths")
    value, _ = _plain_transport(law_on_paths(a), law_on_paths(b), a.config)
    return value


def _compile_paths(cfg: MetricConfig, paths_a, paths_b):
    """Value paths of two sides compiled for pricing.

    Every coordinate of both sides goes through one ``_integers`` call, with
    scale L, and each path (a sequence of points of ``cfg.dim`` coordinates)
    becomes one flat list of ints.  Returns ``(rows_a, rows_b, unit,
    cost)``.  With exact costs, ``cost(x, y)`` is the int sum of
    ``|s - t|**p`` over the coordinates of two rows (p = 1 in weak mode, no
    clipping), which is ``unit = L**p`` times the summed ``step_cost``.
    Otherwise ``unit`` is None and ``cost`` is the float sum of
    ``abs(d / L) ** p`` grouped step by step as ``path_cost`` groups it.
    Int true division is correctly rounded, so each term equals
    ``abs(float(s - t)) ** p`` and the sum is bit-identical.
    """
    paths = (*paths_a, *paths_b)
    coords = [c for path in paths for point in path for c in point]
    ints, scale = _integers(coords)
    if scale is None:  # float coordinates of a tree built in code: take their exact values
        ints, scale = _integers([Fraction(c) for c in coords])
    width = len(ints) // len(paths) if paths else 1
    rows = [ints[k:k + width] for k in range(0, len(ints), width)]
    if cfg.exact_costs:
        p = 1 if cfg.is_weak else cfg.order.numerator
        if p == 1:
            def cost(x, y):
                return sum(map(abs, map(sub, x, y)))
        else:
            def cost(x, y):
                return sum(abs(d) ** p for d in map(sub, x, y))
        unit = scale**p
    else:
        p, dim, unit = float(cfg.order), cfg.dim, None

        def cost(x, y):
            terms = [abs(d / scale) ** p for d in map(sub, x, y)]
            return sum(sum(terms[k:k + dim]) for k in range(0, len(terms), dim))
    return rows[:len(paths_a)], rows[len(paths_a):], unit, cost


def _plain_transport(law_a, law_b, cfg: MetricConfig):
    """``(value, plan)`` of optimal transport between two path laws under
    ``path_cost``.

    Both laws' paths are compiled by ``_compile_paths``.  With exact costs
    each cell is an int, weak mode clips it at L, and the matrix is ``L**p``
    times the ``path_cost`` matrix, so ``ot_solve`` makes the same pivots
    and returns the same plan; the value is divided by ``L**p`` once.  At
    non-integer orders the float matrix is bit-identical to the
    ``path_cost`` one.
    """
    rows_a, rows_b, unit, cost = _compile_paths(cfg, law_a.atoms, law_b.atoms)
    matrix = [[cost(x, y) for y in rows_b] for x in rows_a]
    if cfg.is_weak:
        matrix = [[min(c, unit) for c in row] for row in matrix]
    value, plan = ot_solve(law_a.weights, law_b.weights, matrix)
    return (value if unit is None else value / unit), plan


# -- compositional coupling oracle ----------------------------------------------


def random_bicausal_cost(table: NestedDistanceTable, seed: int, samples: int) -> list:
    """Expected path costs of ``samples`` bicausal couplings between the two
    canonical forms of ``table``, built by stage composition: a plan between
    the canonical laws at the top, then a plan between successor laws for
    every matched atom pair.

    Sample 0 composes the table's stage-optimal plans (its cost equals the
    adapted distance), sample 1 composes independent product plans, and the
    remainder are random transport vertices.  Every value is an upper bound
    for ``aw_distance``.  Nothing is canonicalized or solved again.

    Stage costs are compiled by ``_integers``, as ``ot_solve`` compiles
    its problems.  When they are rational (integer p and weak mode) the
    walk runs on plain ints: probabilities are integers over D, the lcm of
    all law denominators; plan weights are integers over S = D*D; stage
    costs are integers over V, the lcm of their denominators.  A level-t
    cost is an integer over V * S^(N-t), and one ``Fraction`` is built per
    sample.  Weak-mode costs are clipped at 1, as in ``aw_distance``, so
    the bound stays valid.

    Otherwise (non-integer p) the costs are floats and only approximate:
    stage costs are floats and each integer plan weight w enters as w / S,
    with no S^N scaling, which would overflow a float.
    """
    if samples < 1:
        raise SolverError("samples must be >= 1")
    cfg = table.config
    n = cfg.num_steps

    # the canonical laws are the successor laws of two value-less time-0
    # roots; they are local to this walk and never interned
    root = (NestedAtom((), table.left.law, 0), NestedAtom((), table.right.law, 0))
    levels = [{root: StageEntry(cost=0, plan=table.root_plan)}, *table.levels]
    atoms = {x for level in levels for pair in level for x in pair}

    scale_d = math.lcm(*(w.denominator for x in atoms for _, w in x.law))
    scale_s = scale_d * scale_d
    laws = {x: [(u, int(w * scale_d)) for u, w in x.law] for x in atoms}
    plans = {
        pair: [((u, v), int(w * scale_s)) for u, v, w in entry.plan]
        for level in levels[:-1]
        for pair, entry in level.items()
    }
    pairs = [(t, pair) for t, level in enumerate(levels) for pair in level]
    compiled, scale_v = _integers([cfg.step_cost(x.value, y.value) for _, (x, y) in pairs])
    exact = scale_v is not None
    stage = {
        pair: cost * scale_s ** (n - t) if exact else float(cost)
        for (t, pair), cost in zip(pairs, compiled)
    }

    rng = random.Random(seed)
    results = []

    def product_plan(pair):
        x, y = pair
        return [((u, v), wu * wv) for u, wu in laws[x] for v, wv in laws[y]]

    def random_plan(pair):
        # weights enter scaled by D; the greedy then emits plans scaled by S
        x, y = pair
        return _random_vertex(
            [(u, w * scale_d) for u, w in laws[x]],
            [(v, w * scale_d) for v, w in laws[y]],
            rng,
        )

    for sample in range(samples):
        # plans are drawn in the pre-order of first visits, costs summed
        # children before parents
        plan_for = plans.get if sample == 0 else product_plan if sample == 1 else random_plan
        costs: dict = {}
        for pair, plan in _postorder([(root, 1)], lambda pair: plan_for(pair) if pair[0].law else ()):
            total = stage[pair]
            for child, w in plan:
                total += (w if exact else w / scale_s) * costs[child]
            costs[pair] = total
        total = costs[root]
        if exact:
            total = Fraction(total, scale_v * scale_s**n)
            if cfg.is_weak and total > 1:
                total = Fraction(1)
        results.append(total)
    return results


def _random_vertex(row_law, col_law, rng) -> list[tuple[tuple[object, object], int]]:
    """Random vertex of the transportation polytope via greedy filling along
    a shuffled cell order, as ((row, col), weight) pairs; all arithmetic on
    integers."""
    rem_rows = {i: w for i, w in row_law}
    rem_cols = {j: w for j, w in col_law}
    cells = [(i, j) for i in rem_rows for j in rem_cols]
    rng.shuffle(cells)
    out = []
    for i, j in cells:
        w = min(rem_rows[i], rem_cols[j])
        if w > 0:
            out.append(((i, j), w))
            rem_rows[i] -= w
            rem_cols[j] -= w
    return out


def information_lift_contraction_ratio(tree: FilteredTree):
    """Worst kernel-to-state distance ratio of the nested-structure chain.

    States are the tree's atoms under the nested metric; kernels are their
    successor laws.  The projection onto the next level is a contraction, so
    the ratio never exceeds 1; this computes it exactly (for p = 1) as a
    regression guard.
    """
    cfg = tree.config
    _, table = aw_distance(tree, tree)
    levels_a, levels_b = table.left.levels(), table.right.levels()

    def pairs():
        for t in range(1, cfg.num_steps):
            for alpha in levels_a[t - 1]:
                for beta in levels_b[t - 1]:
                    if alpha is not beta:
                        yield (
                            None, alpha.law, beta.law,
                            lambda x, y: _rooted(table.entry(t + 1, x, y).cost, cfg),
                            _rooted(table.entry(t, alpha, beta).cost, cfg),
                        )

    return _worst_ratio(pairs())[0]


def _worst_ratio(pairs, bound=math.inf):
    """Largest ratio of W1 between two kernels to the gap between their
    states, over ``(key, law, law, cost_of, gap)`` pairs.  Returns the
    ratio (0 if none), the key it was first reached at, and whether any
    ratio exceeded ``bound``; a zero gap with a nonzero W1 returns inf."""
    worst, witness, exceeded = Fraction(0), None, False
    for key, law_a, law_b, cost_of, gap in pairs:
        w1, _ = _solve_laws(law_a, law_b, cost_of)
        if gap == 0:
            if w1 != 0:
                return float("inf"), key, True
            continue
        ratio = w1 / gap if isinstance(w1, Fraction) and isinstance(gap, Fraction) \
            else float(w1) / float(gap)
        if ratio > worst:
            worst, witness = ratio, key
        exceeded = exceeded or ratio > bound
    return worst, witness, exceeded


def _rooted(cost, cfg: MetricConfig):
    if cfg.is_weak or cfg.order == 1:
        return cost
    return float(cost) ** (1.0 / float(cfg.order))
