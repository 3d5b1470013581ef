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
Both forms are compiled to integers once (``_compile_forms``); the table
keeps them, and is the certificate optimal couplings are assembled from.
One walk (``_composer``) prices couplings composed stage by stage: the
sampling oracle's and the quantile L^p distance's (north-west) ones.
The Lipschitz check of Markov kernels (``is_lipschitz_markov``) solves its
kernel W1 problems with the same simplex.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul, sub

from .canonical import (
    CanonicalForm,
    InformationResult,
    NestedAtom,
    _one_step_kernel,
    information_process,
    is_markov,
)
from .errors import NotMarkovError, SolverError, StaleTableError
from .process_model import (
    DiscreteMeasure,
    FilteredTree,
    MetricConfig,
    _integers,
    _postorder,
    law_on_paths,
)

__all__ = [
    "TransportPlan",
    "ot_solve",
    "NestedDistanceTable",
    "StageEntry",
    "aw_distance",
    "wasserstein_paths",
    "random_bicausal_cost",
    "LipschitzMarkovReport",
    "is_lipschitz_markov",
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
    case where the reported value was clipped at 1.  ``compiled`` is the
    integer compilation of the two forms that the table was solved on, and
    ``solved_on`` holds the two trees with their canonicalizations.
    """

    config: MetricConfig
    left: CanonicalForm
    right: CanonicalForm
    levels: tuple
    root_value: object
    root_plan: tuple[tuple[NestedAtom, NestedAtom, Fraction], ...]
    truncated: bool
    compiled: "_CompiledForms" = field(compare=False, repr=False)
    solved_on: tuple[tuple[FilteredTree, InformationResult], ...] = field(compare=False, repr=False)

    def entry(self, time: int, left: NestedAtom, right: NestedAtom) -> StageEntry:
        return self.levels[time - 1][(left, right)]

    def check_matches(
        self, left: FilteredTree, right: FilteredTree
    ) -> tuple[InformationResult, InformationResult]:
        """The two canonicalizations, when ``left`` and ``right`` are the tree
        objects the table was solved on; other trees, even equal copies or the
        same trees under another cost order, raise StaleTableError."""
        (a, res_a), (b, res_b) = self.solved_on
        if left is not a or right is not b:
            raise StaleTableError(
                "distance table does not belong to these trees: it is bound to "
                "the two tree objects passed to aw_distance"
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


@dataclass(frozen=True)
class LipschitzMarkovReport:
    ok: bool
    max_ratio: Fraction | float
    witness: tuple | None


def is_lipschitz_markov(tree: FilteredTree, bound: Fraction) -> LipschitzMarkovReport:
    """Check the kernel Lipschitz property of a Markov value process.

    For every time t and every pair of distinct time-t values x, x', the
    1-Wasserstein distance between the one-step kernels at x and x' must be
    at most ``bound`` times the distance between x and x'; both distances
    are the per-step norm of the tree's configuration.

    Returns the worst ratio (0 when there is no pair) with the first pair
    ``(t, x, x')`` that reaches it; a zero distance with a nonzero W1 gives
    ratio inf.  Raises NotMarkovError when kernels are not a function of
    the value.
    """
    if not is_markov(tree):
        raise NotMarkovError("is_lipschitz_markov requires a Markov value process")
    cfg = tree.config
    bound = Fraction(bound)
    worst, witness, exceeded = Fraction(0), None, False
    for t in range(1, cfg.num_steps):
        kernels: dict[tuple, list] = {}
        for node_id in tree.level(t):
            value = tree.node(node_id).value
            if value not in kernels:
                kernels[value] = sorted(_one_step_kernel(tree, node_id).items())
        for x, y in combinations(kernels, 2):
            w1, _ = _solve_laws(kernels[x], kernels[y], cfg.step_distance)
            gap = cfg.step_distance(x, y)
            if gap == 0:
                if w1 != 0:
                    return LipschitzMarkovReport(ok=False, max_ratio=float("inf"), witness=(t, x, y))
                continue
            ratio = w1 / gap if isinstance(w1, Fraction) and isinstance(gap, Fraction) \
                else float(w1) / float(gap)
            if ratio > worst:
                worst, witness = ratio, (t, x, y)
            exceeded = exceeded or ratio > bound
    return LipschitzMarkovReport(ok=not exceeded, max_ratio=worst, witness=witness)


def _overlap_laws(law_a, law_b):
    """Sweep two conditional laws sharing [0,1): yields (atom, atom, length)
    for each positive overlap, in order (the north-west corner rule)."""
    rest_b = iter(law_b)
    y, rem_b = None, 0
    for x, rem_a in law_a:
        while rem_a:
            if not rem_b:
                y, rem_b = next(rest_b, (None, None))
                if y is None:
                    return
                continue
            lam = min(rem_a, rem_b)
            yield x, y, lam
            rem_a -= lam
            rem_b -= lam


@dataclass(frozen=True)
class _CompiledForms:
    """Two canonical forms compiled to integers by ``_compile_forms``.

    ``roots`` are two zero-valued time-0 atoms whose laws are the forms'
    laws; they are never interned.  ``rows[x]`` is the value of atom x as
    ints over one scale L, priced by ``step_cost`` (see ``_compile_paths``).
    ``laws[x]`` is x's successor law as ints over ``scales[t]`` = D_t,
    t = ``level[x]`` (D_N = 1), and ``wide[x]`` is the same law as ints
    over D_t^2.  ``products[t]`` is D_t * ... * D_N.
    """

    roots: tuple[NestedAtom, NestedAtom]
    rows: dict
    unit: int | None
    step_cost: Callable
    level: dict
    laws: dict
    wide: dict
    scales: tuple[int, ...]
    products: tuple[int, ...]


def _compile_forms(cfg: MetricConfig, form_a: CanonicalForm, form_b: CanonicalForm) -> _CompiledForms:
    """The one integer compilation of a pair of canonical forms.  D_t is
    the lcm of the law denominators of the time-t atoms of both forms."""
    roots = tuple(NestedAtom((0,) * cfg.dim, form.law, 0) for form in (form_a, form_b))
    levels = [roots] + [la + lb for la, lb in zip(form_a.levels(), form_b.levels())]
    atoms = [x for level in levels for x in level]
    rows, _, unit, step_cost = _compile_paths(cfg, [(x.value,) for x in atoms], ())
    rows = dict(zip(atoms, rows))
    level_of, laws, wide, scales = {}, {}, {}, []
    for t, level in enumerate(levels):
        ints, d = _integers([w for x in level for _, w in x.law])
        weights = iter(ints)
        for x in level:
            level_of[x] = t
            laws[x] = law = [(u, next(weights)) for u, _ in x.law]
            wide[x] = [(u, w * d) for u, w in law]
        scales.append(d)  # 1 for the terminal atoms, which have no laws
    products = tuple(accumulate(reversed(scales), mul))[::-1]
    return _CompiledForms(roots, rows, unit, step_cost, level_of, laws, wide, tuple(scales), products)


def _over(scale: int):
    """``k -> Fraction(k, scale)``, built once per distinct int k: weights
    and costs repeat many times within one level."""
    return functools.cache(lambda k: Fraction(k, scale))


def aw_distance(a: FilteredTree, b: FilteredTree) -> tuple[object, NestedDistanceTable]:
    """Adapted transport cost between two filtered processes.

    Returns ``(value, table)`` where ``value`` is the optimal bicausal
    expected path cost (the p-th power of the distance; exact for integer
    p).  Each tree is canonicalized once; the table keeps both results.
    In weak mode the recursion runs on untruncated 1-norm stage costs and
    the final value is clipped at 1, mirroring the truncated path metric at
    the level of totals.

    Both forms are compiled to integers once (``_compile_forms``), and the
    table keeps the compilation.  Every value coordinate is an int over one
    scale L, the successor-law weights of the time-t atoms are ints over
    D_t, and a level-t cost is an int over S_t = L^p * D_t * ... * D_(N-1),
    turned into a ``Fraction`` once per table entry.  Each stage LP is then
    a positive multiple of the rational one, so ``ot_solve`` makes the same
    pivots, and plan weights come back as ``Fraction(w, D_t)``.  When d = 1
    and both successor laws are terminal, the stage cost is convex in
    x - y, so the north-west corner of the value-sorted laws is optimal
    (Villani 2003, *Topics in Optimal Transportation*, ch. 2):
    ``_overlap_laws`` sweeps it without an LP.  That corner is the
    simplex's own start, and any pivot from an optimal start is degenerate,
    so the plan is the same.  A law with one atom leaves one feasible plan,
    the north-west one, so such stages, the root's too, are swept in any d.
    At non-integer orders the same loop runs on float costs built from the
    same ints, bit-identical to ``step_cost``.
    """
    a.config.require_same_shape(b.config, "aw_distance")
    cfg = a.config
    res_a, res_b = information_process(a), information_process(b)
    form_a, form_b = res_a.form, res_b.form
    levels_a, levels_b = form_a.levels(), form_b.levels()
    n = cfg.num_steps
    comp = _compile_forms(cfg, form_a, form_b)
    rows, laws, unit, step_cost = comp.rows, comp.laws, comp.unit, comp.step_cost
    exact = unit is not None
    sweep = cfg.dim == 1
    below = None  # costs of the time t+1 pairs: ints over S_(t+1), or floats

    def solve(law_x, law_y, d, terminal):
        """Plan between two laws of ints over ``d``, with weights as ints,
        and its cost under ``below``."""
        if (terminal and sweep) or len(law_x) == 1 or len(law_y) == 1:
            plan = list(_overlap_laws(law_x, law_y))
        else:
            _, lp = _solve_laws(law_x, law_y, lambda x, y: below[x, y])
            plan = [(x, y, w.numerator) for x, y, w in lp]
        return sum(below[x, y] * (w if exact else w / d) for x, y, w in plan), plan

    tables: list[dict] = [dict() for _ in range(n)]
    for t in range(n, 0, -1):
        level_a, level_b = levels_a[t - 1], levels_b[t - 1]
        terminal = t == n - 1
        scale = comp.products[t] if exact else 1  # S_t / L^p
        if t < n:
            d = comp.scales[t]
            # canonical order is value order at the last level: the sweep needs it
            assert not (terminal and sweep) or all(
                rows[x] < rows[y] for z in (*level_a, *level_b) for (x, _), (y, _) in zip(z.law, z.law[1:])
            )
            as_weight = _over(d)
        as_cost = _over(unit * scale) if exact else None
        costs, entries = {}, tables[t - 1]
        for alpha in level_a:
            x = rows[alpha]
            for beta in level_b:
                cost = step_cost(x, rows[beta]) * scale
                plan = None
                if t < n:
                    value, plan = solve(laws[alpha], laws[beta], d, terminal)
                    cost += value
                    plan = tuple((u, v, as_weight(w)) for u, v, w in plan)
                costs[alpha, beta] = cost
                entries[alpha, beta] = StageEntry(cost=as_cost(cost) if exact else cost, plan=plan)
        below = costs
    d = comp.scales[0]
    value, plan = solve(*(laws[x] for x in comp.roots), d, False)
    plan = tuple((u, v, Fraction(w, d)) for u, v, w in plan)
    if exact:
        value = Fraction(value, unit * comp.products[0])
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
        compiled=comp,
        solved_on=((a, res_a), (b, res_b)),
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


def _composer(comp: _CompiledForms):
    """``cost(plan_of)``: expected path cost of the coupling composed from
    ``plan_of(pair)``, a plan between the laws of a reachable atom pair as
    ((u, v), w) edges, w an int over D_t^2.  Plans are drawn in the
    pre-order of first visits and costs summed children before parents: an
    int over L^p * products[t]^2 and one ``Fraction`` at the end, or at
    non-integer orders floats adding w / D_t^2 * cost in plan order.
    Stage costs are priced once per composer."""
    exact = comp.unit is not None
    squares = [p * p if exact else 1 for p in comp.products]
    divisors = [1 if exact else d * d for d in comp.scales]
    stage: dict = {}  # pair -> (stage cost, D_t^2)

    def price(pair):
        x, y = pair
        t = comp.level[x]
        stage[pair] = found = (comp.step_cost(comp.rows[x], comp.rows[y]) * squares[t], divisors[t])
        return found

    def cost(plan_of):
        costs: dict = {}
        for pair, plan in _postorder([(comp.roots, 1)], lambda pair: plan_of(pair) if pair[0].law else ()):
            total, d = stage.get(pair) or price(pair)
            for child, w in plan:
                total += (w if exact else w / d) * costs[child]
            costs[pair] = total
        total = costs[comp.roots]
        return Fraction(total, comp.unit * squares[0]) if exact else total

    return cost


def random_bicausal_cost(table: NestedDistanceTable, seed: int, samples: int) -> list:
    """Expected path costs of ``samples`` bicausal couplings between the two
    canonical forms of ``table``, built by stage composition: a plan between
    the canonical laws at the top, then a plan between successor laws for
    every matched atom pair.

    Sample 0 composes the table's stage-optimal plans (its cost equals the
    adapted distance), sample 1 composes independent product plans, and the
    remainder are random transport vertices.  Every value is an upper bound
    for ``aw_distance``.  Nothing is canonicalized or solved again.

    ``_composer`` prices them on the table's compilation, with plan weights
    as ints over D_t^2: exact at integer p and in weak mode, floats at
    non-integer p.  Weak-mode costs are clipped at 1, as in ``aw_distance``,
    so the bound stays valid.
    """
    if samples < 1:
        raise SolverError("samples must be >= 1")
    comp = table.compiled
    cost, rng = _composer(comp), random.Random(seed)

    def optimal_plan(pair):
        t = comp.level[pair[0]]
        plan = table.levels[t - 1][pair].plan if t else table.root_plan
        return [((u, v), w.numerator * (comp.scales[t] ** 2 // w.denominator)) for u, v, w in plan]

    def product_plan(pair):
        x, y = pair
        return [((u, v), wu * wv) for u, wu in comp.laws[x] for v, wv in comp.laws[y]]

    def random_plan(pair):
        return _random_vertex(comp.wide[pair[0]], comp.wide[pair[1]], rng)

    costs = map(cost, [optimal_plan, product_plan, *[random_plan] * (samples - 2)][:samples])
    return [min(c, Fraction(1)) for c in costs] if table.config.is_weak else list(costs)


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
