"""Exact optimal transport and the adapted (nested) transport distance.

The solver is a transportation simplex over exact rationals: Bland's rule
makes it terminate without tolerances, and for integer cost orders every
reported value is an exact ``Fraction``.  The adapted distance between two
filtered processes is computed by a backward recursion over pairs of
canonical atoms; its table doubles as the certificate from which optimal
bicausal couplings are assembled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    law_on_paths,
    path_cost,
)

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
    ``(value, TransportPlan)``.  With rational costs the value and plan are
    exact; float costs fall back to a small pivot tolerance.
    """
    a = _as_weights(mu)
    b = _as_weights(nu)
    rows = [list(r) for r in cost]
    if len(rows) != len(a) or any(len(r) != len(b) for r in rows):
        raise SolverError(
            f"cost matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not match "
            f"marginals of sizes {len(a)} and {len(b)}"
        )
    for r in rows:
        for c in r:
            if c < 0:
                raise SolverError(f"negative cost {c}")
    if any(w < 0 for w in a) or any(w < 0 for w in b):
        raise SolverError("marginal weights must be nonnegative")
    if sum(a) != sum(b):
        exact = all(isinstance(w, Fraction) for w in a + b)
        if exact or abs(float(sum(a)) - float(sum(b))) > 1e-12:
            raise SolverError(f"marginal totals differ: {sum(a)} vs {sum(b)}")

    live_rows = [i for i, w in enumerate(a) if w > 0]
    live_cols = [j for j, w in enumerate(b) if w > 0]
    if not live_rows:
        return Fraction(0), TransportPlan(len(a), len(b), ())
    sub_a = [a[i] for i in live_rows]
    sub_b = [b[j] for j in live_cols]
    sub_cost = [[rows[i][j] for j in live_cols] for i in live_rows]
    exact = all(isinstance(c, Fraction) for row in sub_cost for c in row)
    tol = Fraction(0) if exact else 1e-12

    masses = _simplex(sub_a, sub_b, sub_cost, tol)

    value = sum(
        (sub_cost[i][j] * w for (i, j), w in masses.items() if w != 0),
        Fraction(0) if exact else 0.0,
    )
    support = tuple(
        sorted(
            (live_rows[i], live_cols[j], w)
            for (i, j), w in masses.items()
            if w > 0
        )
    )
    return value, TransportPlan(len(a), len(b), support)


def _simplex(a, b, cost, tol):
    """Transportation simplex with Bland's rule; returns the basic masses."""
    m, n = len(a), len(b)
    masses: dict[tuple[int, int], Fraction] = {}
    basis: set[tuple[int, int]] = set()

    # northwest corner start
    i = j = 0
    rem_a = list(a)
    rem_b = list(b)
    while i < m and j < n:
        w = min(rem_a[i], rem_b[j])
        masses[(i, j)] = w
        basis.add((i, j))
        rem_a[i] -= w
        rem_b[j] -= w
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    max_pivots = 1000 * (m + n + 10)
    for _ in range(max_pivots):
        u, v = _potentials(m, n, cost, basis)
        entering = None
        for i in range(m):
            for j in range(n):
                if (i, j) in basis:
                    continue
                if cost[i][j] - u[i] - v[j] < -tol:
                    entering = (i, j)
                    break
            if entering:
                break
        if entering is None:
            return masses
        cycle = _basis_cycle(entering, basis)
        # odd positions give up mass
        theta = None
        leaving = None
        for pos in range(1, len(cycle), 2):
            cell = cycle[pos]
            w = masses.get(cell, Fraction(0))
            if theta is None or w < theta or (w == theta and cell < leaving):
                theta, leaving = w, cell
        for pos, cell in enumerate(cycle):
            delta = theta if pos % 2 == 0 else -theta
            masses[cell] = masses.get(cell, Fraction(0)) + delta
        basis.add(entering)
        basis.remove(leaving)
        del masses[leaving]
    raise SolverError("transport solver failed to terminate")


def _potentials(m, n, cost, basis):
    """Dual variables solving u_i + v_j = c_ij on the basis tree."""
    u = [None] * m
    v = [None] * n
    adj_row: dict[int, list[int]] = {}
    adj_col: dict[int, list[int]] = {}
    for i, j in basis:
        adj_row.setdefault(i, []).append(j)
        adj_col.setdefault(j, []).append(i)
    u[0] = cost[0][0] * 0  # zero of the cost's arithmetic type
    stack = [("r", 0)]
    while stack:
        kind, idx = stack.pop()
        if kind == "r":
            for j in adj_row.get(idx, ()):
                if v[j] is None:
                    v[j] = cost[idx][j] - u[idx]
                    stack.append(("c", j))
        else:
            for i in adj_col.get(idx, ()):
                if u[i] is None:
                    u[i] = cost[i][idx] - v[idx]
                    stack.append(("r", i))
    return u, v


def _basis_cycle(entering, basis):
    """The unique cycle created by adding ``entering`` to the basis tree,
    listed as cells starting with ``entering`` and alternating +/- positions."""
    ei, ej = entering
    # path from row ei to col ej through basis edges
    adj: dict = {}
    for i, j in basis:
        adj.setdefault(("r", i), []).append(("c", j))
        adj.setdefault(("c", j), []).append(("r", i))
    start, goal = ("r", ei), ("c", ej)
    prev = {start: None}
    queue = [start]
    while queue:
        current = queue.pop(0)
        if current == goal:
            break
        for nxt in adj.get(current, ()):
            if nxt not in prev:
                prev[nxt] = current
                queue.append(nxt)
    if goal not in prev:
        raise SolverError("degenerate basis lost connectivity")
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()  # row ei ... col ej alternating
    cells = [entering]
    for k in range(len(path) - 1):
        a, bnode = path[k], path[k + 1]
        if a[0] == "r":
            cells.append((a[1], bnode[1]))
        else:
            cells.append((bnode[1], a[1]))
    return cells


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

    ``levels[t-1]`` maps pairs of time-t atoms to StageEntry; ``root_plan``
    couples the two canonical laws.  ``truncated`` marks the weak-mode case
    where the reported value was clipped at 1.
    """

    config: MetricConfig
    left_digest: str
    right_digest: str
    levels: tuple
    root_value: object
    root_plan: tuple[tuple[NestedAtom, NestedAtom, Fraction], ...]
    truncated: bool

    def entry(self, time: int, left: NestedAtom, right: NestedAtom) -> StageEntry:
        return self.levels[time - 1][(left, right)]

    def check_matches(self, left: FilteredTree, right: FilteredTree) -> None:
        from .canonical import digest_tree

        if digest_tree(left) != self.left_digest or digest_tree(right) != self.right_digest:
            raise StaleTableError(
                "distance table does not belong to these trees (canonical digests differ)"
            )


def _plan_on_atoms(plan: TransportPlan, left_atoms, right_atoms):
    return tuple(
        (left_atoms[i], right_atoms[j], w) for i, j, w in plan.support
    )


def aw_distance(a: FilteredTree, b: FilteredTree) -> tuple[object, NestedDistanceTable]:
    """Adapted transport cost between two filtered processes.

    Returns ``(value, table)`` where ``value`` is the optimal bicausal
    expected path cost (the p-th power of the distance; exact for integer
    p).  In weak mode the recursion runs on untruncated 1-norm stage costs
    and the final value is clipped at 1, mirroring the truncated path
    metric at the level of totals.
    """
    a.config.require_same_shape(b.config, "aw_distance")
    cfg = a.config
    res_a = information_process(a)
    res_b = information_process(b)
    return _aw_from_forms(cfg, res_a.form, res_b.form)


def _aw_from_forms(cfg: MetricConfig, form_a: CanonicalForm, form_b: CanonicalForm):
    levels_a = form_a.levels()
    levels_b = form_b.levels()
    n = cfg.num_steps
    tables: list[dict] = [dict() for _ in range(n)]
    for t in range(n, 0, -1):
        table = tables[t - 1]
        below = tables[t] if t < n else None
        for alpha in levels_a[t - 1]:
            for beta in levels_b[t - 1]:
                stage = cfg.step_cost(alpha.value, beta.value)
                if t == n:
                    table[(alpha, beta)] = StageEntry(cost=stage, plan=None)
                    continue
                succ_a = [atom for atom, _ in alpha.law]
                succ_b = [atom for atom, _ in beta.law]
                cost = [
                    [below[(x, y)].cost for y in succ_b] for x in succ_a
                ]
                value, plan = ot_solve(
                    [w for _, w in alpha.law], [w for _, w in beta.law], cost
                )
                table[(alpha, beta)] = StageEntry(
                    cost=stage + value, plan=_plan_on_atoms(plan, succ_a, succ_b)
                )
    top_a = [atom for atom, _ in form_a.law]
    top_b = [atom for atom, _ in form_b.law]
    cost = [[tables[0][(x, y)].cost for y in top_b] for x in top_a]
    value, plan = ot_solve(
        [w for _, w in form_a.law], [w for _, w in form_b.law], cost
    )
    truncated = False
    if cfg.is_weak and value > 1:
        value = Fraction(1)
        truncated = True
    table = NestedDistanceTable(
        config=cfg,
        left_digest=form_a.digest(),
        right_digest=form_b.digest(),
        levels=tuple(tables),
        root_value=value,
        root_plan=_plan_on_atoms(plan, top_a, top_b),
        truncated=truncated,
    )
    return value, table


def wasserstein_paths(a: FilteredTree, b: FilteredTree):
    """Plain transport cost between the two path laws (filtrations ignored).

    Always a lower bound for ``aw_distance``.  Weak mode applies the
    truncated path metric to each path pair before solving, so the weak
    value is exact.
    """
    a.config.require_same_shape(b.config, "wasserstein_paths")
    cfg = a.config
    law_a = law_on_paths(a)
    law_b = law_on_paths(b)
    cost = [
        [path_cost(x, y, cfg) for y in law_b.atoms] for x in law_a.atoms
    ]
    value, _ = ot_solve(law_a.weights, law_b.weights, cost)
    return value


# -- compositional coupling oracle ----------------------------------------------


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def random_bicausal_cost(
    a: FilteredTree, b: FilteredTree, seed: int, samples: int
) -> list:
    """Expected path costs of ``samples`` bicausal couplings built by stage
    composition: a plan between the canonical laws at the top, then a plan
    between successor laws for every matched atom pair.

    Sample 0 composes the stage-optimal plans (its cost equals the adapted
    distance exactly), sample 1 composes independent product plans, and the
    remainder are random transport vertices.  Every value is an exact upper
    bound for ``aw_distance``; in weak mode costs follow the same clipped
    convention as ``aw_distance`` so the bound stays valid.
    """
    if samples < 1:
        raise SolverError("samples must be >= 1")
    a.config.require_same_shape(b.config, "random_bicausal_cost")
    cfg = a.config
    value, table = aw_distance(a, b)
    form_a = information_process(a).form
    form_b = information_process(b).form
    if not cfg.exact_costs:
        return _random_costs_float(cfg, form_a, form_b, table, seed, samples)

    levels_a = form_a.levels()
    levels_b = form_b.levels()
    n = cfg.num_steps

    # Integer rescaling: all probabilities become integers over D, plans over
    # S = D*D, stage costs over V.  The recursion then runs on plain ints.
    denoms = [w.denominator for _, w in form_a.law] + [w.denominator for _, w in form_b.law]
    for levels in (levels_a, levels_b):
        for level in levels:
            for atom in level:
                denoms.extend(w.denominator for _, w in atom.law)
    scale_d = _lcm(denoms)
    scale_s = scale_d * scale_d

    index_a = [{atom: k for k, atom in enumerate(level)} for level in levels_a]
    index_b = [{atom: k for k, atom in enumerate(level)} for level in levels_b]

    cost_denoms = []
    stage_int: list[dict] = []
    for t in range(1, n + 1):
        raw = {}
        for ia, alpha in enumerate(levels_a[t - 1]):
            for ib, beta in enumerate(levels_b[t - 1]):
                raw[(ia, ib)] = cfg.step_cost(alpha.value, beta.value)
        cost_denoms.extend(c.denominator for c in raw.values())
        stage_int.append(raw)
    scale_v = _lcm(cost_denoms)
    for t in range(n):
        stage_int[t] = {
            key: int(c * scale_v) for key, c in stage_int[t].items()
        }

    # successor laws as integer weights over D, indexed by next-level position
    def law_ints(levels, index, side_levels):
        out = []
        for t in range(n - 1):
            per_atom = []
            for atom in levels[t]:
                per_atom.append(
                    [(index[t + 1][child], int(w * scale_d)) for child, w in atom.law]
                )
            out.append(per_atom)
        return out

    laws_a = law_ints(levels_a, index_a, levels_a)
    laws_b = law_ints(levels_b, index_b, levels_b)
    top_a = [(index_a[0][atom], int(w * scale_d)) for atom, w in form_a.law]
    top_b = [(index_b[0][atom], int(w * scale_d)) for atom, w in form_b.law]

    # optimal stage plans from the table, rescaled to integers over S
    optimal_plans: list[dict] = [dict() for _ in range(n)]
    for t in range(1, n):
        for (alpha, beta), entry in table.levels[t - 1].items():
            cells = [
                (index_a[t][x], index_b[t][y], int(w * scale_s))
                for x, y, w in entry.plan
            ]
            optimal_plans[t - 1][(index_a[t - 1][alpha], index_b[t - 1][beta])] = cells
    optimal_top = [
        (index_a[0][x], index_b[0][y], int(w * scale_s)) for x, y, w in table.root_plan
    ]

    pow_s = [scale_s**k for k in range(n + 1)]
    rng = random.Random(seed)
    results = []
    denominator = scale_v * pow_s[n]

    for sample in range(samples):
        memo: list[dict] = [dict() for _ in range(n)]

        def plan_for(t, ia, ib, row_law, col_law):
            if sample == 0:
                return optimal_plans[t][(ia, ib)]
            if sample == 1:
                return [
                    (ra, cb, wa * wb) for ra, wa in row_law for cb, wb in col_law
                ]
            # weights enter scaled by D; the greedy then emits plans scaled by S
            return _random_vertex(
                [(ra, wa * scale_d) for ra, wa in row_law],
                [(cb, wb * scale_d) for cb, wb in col_law],
                rng,
            )

        def cost_at(t, ia, ib):
            # scaled by V * S^(n-1-t) ... with t zero-based time index
            key = (ia, ib)
            hit = memo[t].get(key)
            if hit is not None:
                return hit
            stage = stage_int[t][key] * pow_s[n - 1 - t]
            if t == n - 1:
                memo[t][key] = stage
                return stage
            total = stage
            for ja, jb, w in plan_for(
                t, ia, ib, laws_a[t][ia], laws_b[t][ib]
            ):
                if w:
                    total += w * cost_at(t + 1, ja, jb)
            memo[t][key] = total
            return total

        if sample == 0:
            top_plan = optimal_top
        elif sample == 1:
            top_plan = [(ra, cb, wa * wb) for ra, wa in top_a for cb, wb in top_b]
        else:
            top_plan = _random_vertex(
                [(ra, wa * scale_d) for ra, wa in top_a],
                [(cb, wb * scale_d) for cb, wb in top_b],
                rng,
            )
        total = 0
        for ia, ib, w in top_plan:
            if w:
                total += w * cost_at(0, ia, ib)
        sampled = Fraction(total, denominator)
        if cfg.is_weak and sampled > 1:
            sampled = Fraction(1)
        results.append(sampled)
    return results


def _random_vertex(row_law, col_law, rng) -> list[tuple[int, int, int]]:
    """Random vertex of the transportation polytope via greedy filling along
    a shuffled cell order; all arithmetic on integers."""
    rem_rows = {i: w for i, w in row_law}
    rem_cols = {j: w for j, w in col_law}
    cells = [(i, j) for i in rem_rows for j in rem_cols]
    rng.shuffle(cells)
    out = []
    for i, j in cells:
        w = min(rem_rows[i], rem_cols[j])
        if w > 0:
            out.append((i, j, w))
            rem_rows[i] -= w
            rem_cols[j] -= w
    return out


def _random_costs_float(cfg, form_a, form_b, table, seed, samples):
    """Float fallback for non-integer cost orders; plan weights stay exact."""
    n = cfg.num_steps
    rng = random.Random(seed)
    results = []
    for sample in range(samples):
        memo: dict = {}

        def stage_plan(t, law_a, law_b, optimal):
            # plan between two successor laws given as (atom, weight) tuples
            if sample == 0:
                return optimal
            if sample == 1:
                return [(x, y, wa * wb) for x, wa in law_a for y, wb in law_b]
            row = [(i, w) for i, (_, w) in enumerate(law_a)]
            col = [(j, w) for j, (_, w) in enumerate(law_b)]
            cells = _random_vertex(row, col, rng)
            return [(law_a[i][0], law_b[j][0], w) for i, j, w in cells]

        def cost_at(t, alpha, beta):
            key = (alpha, beta)
            if key in memo:
                return memo[key]
            total = float(cfg.step_cost(alpha.value, beta.value))
            if t < n:
                plan = stage_plan(
                    t, alpha.law, beta.law, table.entry(t, alpha, beta).plan
                )
                for x, y, w in plan:
                    total += float(w) * cost_at(t + 1, x, y)
            memo[key] = total
            return total

        top = stage_plan(0, form_a.law, form_b.law, table.root_plan)
        total = 0.0
        for x, y, w in top:
            total += float(w) * cost_at(1, x, y)
        results.append(total)
    return results


def information_lift_contraction_ratio(tree: FilteredTree):
    """Worst kernel-to-state distance ratio of the nested-structure chain.

    States are the tree's atoms under the nested metric; kernels are their
    successor laws.  The projection onto the next level is a contraction, so
    the ratio never exceeds 1; this computes it exactly (for p = 1) as a
    regression guard.
    """
    cfg = tree.config
    _, table = aw_distance(tree, tree)
    form = information_process(tree).form
    levels = form.levels()
    max_ratio = Fraction(0)
    for t in range(1, cfg.num_steps):
        level = levels[t - 1]
        succ_cost_cache: dict = {}
        for i in range(len(level)):
            for j in range(len(level)):
                if i == j:
                    continue
                alpha, beta = level[i], level[j]
                dz = _rooted(table.entry(t, alpha, beta).cost, cfg)
                succ_a = [atom for atom, _ in alpha.law]
                succ_b = [atom for atom, _ in beta.law]
                cost = [
                    [_rooted(table.entry(t + 1, x, y).cost, cfg) for y in succ_b]
                    for x in succ_a
                ]
                w1, _ = ot_solve(
                    [w for _, w in alpha.law], [w for _, w in beta.law], cost
                )
                if dz == 0:
                    if w1 != 0:
                        return float("inf")
                    continue
                ratio = w1 / dz if isinstance(w1, Fraction) and isinstance(dz, Fraction) \
                    else float(w1) / float(dz)
                if ratio > max_ratio:
                    max_ratio = ratio
    return max_ratio


def _rooted(cost, cfg: MetricConfig):
    if cfg.is_weak or cfg.order == 1:
        return cost
    return float(cost) ** (1.0 / float(cfg.order))
