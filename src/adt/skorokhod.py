"""Quantile representation of filtered processes on the unit cube.

A filtered process is realized as an adapted step function on [0,1]^N under
the product Lebesgue measure: at every stage the successor atoms of its
canonical form receive consecutive subintervals of [0,1] (in canonical atom
order) with lengths equal to their conditional probabilities.  Two processes
represented this way share one source of randomness, so their pathwise L^p
gap is computable exactly by sweeping the common interval refinement on
the pair's one integer compilation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .canonical import CanonicalForm, NestedAtom, information_process
from .couplings import assemble_optimal_coupling, pair_path_cost, product_process
from .errors import SolverError
from .process_model import (
    DiscreteMeasure,
    FilteredTree,
    MetricConfig,
    TreeNode,
    _postorder,
    _unfold,
    law_on_paths,
)
from . import transport  # aw_distance is looked up when called, so a wrapper set on it sees the calls
from .transport import _compile_forms, _composer, _overlap_laws, _plain_transport

__all__ = [
    "QuantileCell",
    "BoxPartition",
    "QuantileMap",
    "quantile_map",
    "evaluate",
    "pushforward_path_law",
    "induced_tree",
    "lp_distance",
    "max_pointwise_gap",
    "lp_representation_on_common_basis",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_report",
    "FixtureAnalysis",
    "FixtureResult",
    "non_coexistence_fixture",
]


@dataclass(frozen=True)
class QuantileCell:
    """One interval [lo, hi) at some stage, carrying the atom it realizes.

    Children partition [0, 1) afresh (each coordinate of the cube is spent on
    one stage), with lengths equal to the atom's conditional successor
    probabilities in canonical order.
    """

    atom: NestedAtom
    lo: Fraction
    hi: Fraction
    children: tuple["QuantileCell", ...]

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class BoxPartition:
    """Tree of interval cells mirroring the canonical process tree."""

    cells: tuple[QuantileCell, ...]

    def boxes(self) -> list[tuple[QuantileCell, ...]]:
        """Every box as its root-to-leaf chain of cells, in depth-first
        order; built level by level, expanding each level's chains in order."""
        chains = [(cell,) for cell in self.cells]
        while chains and chains[0][-1].children:
            chains = [chain + (child,) for chain in chains for child in chain[-1].children]
        return chains

    def breakpoints(self, num_steps: int) -> list[list[Fraction]]:
        """Per stage, the sorted union of all interval endpoints in use."""
        out, cells = [], self.cells
        for _ in range(num_steps):
            out.append(sorted({x for cell in cells for x in (cell.lo, cell.hi)}))
            cells = [child for cell in cells for child in cell.children]
        return out


@dataclass(frozen=True)
class QuantileMap:
    """Adapted step function on the unit cube realizing a canonical form."""

    config: MetricConfig
    form: CanonicalForm
    partition: BoxPartition

    @property
    def cells(self) -> tuple[QuantileCell, ...]:
        return self.partition.cells


def _cells_for_law(law, cells: dict) -> tuple[QuantileCell, ...]:
    """Consecutive cells for a law, given the child cells of each atom."""
    out = []
    cursor = Fraction(0)
    for atom, weight in law:
        hi = cursor + weight
        out.append(QuantileCell(atom=atom, lo=cursor, hi=hi, children=cells[atom]))
        cursor = hi
    if out and cursor != 1:
        raise SolverError(f"interval lengths sum to {cursor}, expected 1")
    return tuple(out)


def quantile_map(tree: FilteredTree) -> QuantileMap:
    """Quantile representation of a filtered process.

    The law of the step function under the product Lebesgue measure equals
    the canonical path law exactly, and the induced process on the cube
    (with the interval filtration) is equivalent to the source.
    """
    form = information_process(tree).form
    cells: dict[NestedAtom, tuple[QuantileCell, ...]] = {}
    for atom, law in _postorder(form.law, lambda a: a.law):
        cells[atom] = _cells_for_law(law, cells)
    cells = _cells_for_law(form.law, cells)
    return QuantileMap(config=tree.config, form=form, partition=BoxPartition(cells))


def evaluate(qmap: QuantileMap, point: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Value path of the step function at a point of [0,1]^N."""
    n = qmap.config.num_steps
    if len(point) != n:
        raise SolverError(f"point has {len(point)} coordinates, expected {n}")
    values = []
    cells = qmap.cells
    for t, raw in enumerate(point):
        u = Fraction(raw)
        if not 0 <= u <= 1:
            raise SolverError(f"coordinate {t + 1} is outside [0, 1]: {u}")
        # u == 1 joins the last box
        chosen = next((cell for cell in cells if cell.lo <= u < cell.hi), cells[-1])
        values.append(chosen.atom.value)
        cells = chosen.children
    return tuple(values)


def pushforward_path_law(qmap: QuantileMap) -> DiscreteMeasure:
    """Law of the step function under the product Lebesgue measure: each box
    carries its volume (product of interval lengths)."""
    return DiscreteMeasure.from_pairs(
        (
            tuple(cell.atom.value for cell in box),
            math.prod((cell.length for cell in box), start=Fraction(1)),
        )
        for box in qmap.partition.boxes()
    )


def induced_tree(qmap: QuantileMap) -> FilteredTree:
    """The process the quantile map induces on the cube, as a filtered tree:
    nodes are interval cells, info labels record the interval."""
    def edges(cells):
        return [(cell, cell.length) for cell in cells]

    return _unfold(
        qmap.config,
        edges(qmap.cells),
        lambda cell: edges(cell.children),
        lambda cell, time, k: (f"q{time}.{k}", cell.atom.value, f"[{cell.lo},{cell.hi})"),
    )


# -- exact L^p distance between representations --------------------------------


def _common_boxes(comp):
    """The boxes of the common refinement of a compiled pair (``_compile_forms``),
    in depth-first order, as (volume, midpoint, cost).

    At every stage t the two successor laws, ints over D_t, share [0, 1),
    and their overlaps (``_overlap_laws``) refine it.  ``volume`` is an int
    over D_0 * ... * D_(N-1), ``midpoint`` one (numerator, 2 * D_t) pair per
    stage, and ``cost`` the path cost summed stage by stage: an int over
    ``unit``, or at non-integer orders floats added as ``path_cost`` adds them.
    """
    rows, laws, step_cost = comp.rows, comp.laws, comp.step_cost
    stack = [(*comp.roots, 1, (), 0)]
    while stack:
        a, b, volume, point, cost = stack.pop()
        lo, below = 0, []
        denom = 2 * comp.scales[comp.level[a]]
        for x, y, lam in _overlap_laws(laws[a], laws[b]):
            box = volume * lam, point + ((2 * lo + lam, denom),), cost + step_cost(rows[x], rows[y])
            lo += lam
            if x.is_terminal:
                yield box
            else:
                below.append((x, y, *box))
        stack.extend(reversed(below))


def _lp(comp, cfg: MetricConfig):
    """Integral of the path cost under the shared coordinates: the north-west
    corner coupling in canonical order, composed stage by stage on the
    compiled ints (``_composer``).  In weak mode each path's cost is clipped
    at 1, so the common boxes are summed with their volumes instead
    (``_weak_walk``)."""
    if cfg.is_weak:
        return _weak_walk(comp)[0]
    return _composer(comp)(
        lambda pair: [((u, v), w) for u, v, w in _overlap_laws(comp.wide[pair[0]], comp.wide[pair[1]])]
    )


def _grid_max(comp, cfg: MetricConfig):
    """(gap, point) of the first largest path distance over the box midpoints."""
    if cfg.is_weak:
        return _weak_walk(comp)[1]
    gap = point = None
    for _, box, cost in _common_boxes(comp):
        box_gap = cfg.root_cost(cost if comp.unit is None else Fraction(cost, comp.unit))
        if point is None or box_gap > gap:
            gap, point = box_gap, box
    return _grid_point(gap, point)


def _weak_walk(comp):
    """Weak mode's ``(lp, (gap, point))`` from one walk of the common boxes.
    Each box's cost, an int over ``unit``, is clipped at ``unit`` (the path
    metric truncated at 1).  ``lp`` sums the clipped costs by volume; the
    gap is the first largest clipped cost, compared as ints."""
    unit, total, best, point = comp.unit, 0, -1, None
    for volume, box, cost in _common_boxes(comp):
        cost = min(cost, unit)
        total += volume * cost
        if cost > best:
            best, point = cost, box
    return Fraction(total, comp.products[0] * unit), _grid_point(Fraction(best, unit), point)


def _grid_point(gap, point):
    """``(gap, point)`` with the winning midpoint as ``Fraction``s."""
    if point is None:
        raise SolverError("gap diagnostic found no boxes (empty representation)")
    return gap, tuple(Fraction(n, d) for n, d in point)


def lp_distance(f: QuantileMap, g: QuantileMap):
    """Exact integral of the path cost between two quantile representations
    over the unit cube (p-th power of the L^p gap; for weak mode, the
    integral of the truncated distance).

    The shared uniform coordinates couple the two successor laws of every
    stage on [0,1) (``_lp``)."""
    f.config.require_same_shape(g.config, "lp_distance")
    return _lp(_compile_forms(f.config, f.form, g.form), f.config)


def max_pointwise_gap(f: QuantileMap, g: QuantileMap):
    """Largest path distance between the two step functions over the
    deterministic grid of refinement-box midpoints.

    Returns (gap, point), the first largest gap in depth-first box order;
    a diagnostic for pointwise closeness — finite data cannot certify
    almost-sure statements beyond this grid.
    """
    f.config.require_same_shape(g.config, "max_pointwise_gap")
    return _grid_max(_compile_forms(f.config, f.form, g.form), f.config)


def lp_representation_on_common_basis(a: FilteredTree, b: FilteredTree):
    """Optimal common-basis realization: solve the adapted distance, assemble
    the optimal coupling, and realize it as a pair process.

    Returns (product, cost) with cost the exact expected path cost of the
    pair — equal to the adapted transport value for orders p >= 1.
    """
    _, table = transport.aw_distance(a, b)
    coupling = assemble_optimal_coupling(table, a, b)
    product = product_process(coupling)
    cost = pair_path_cost(product.tree, a.config.dim)
    return product, cost


# -- convergence diagnostics -----------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    index: int
    aw: object
    lp: object
    grid_max: object


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    aw_converges: bool
    lp_converges: bool
    consistent: bool

    def to_csv(self) -> str:
        lines = ["n,aw_distance,lp_distance,grid_max"]
        for row in self.rows:
            lines.append(
                f"{row.index},{float(row.aw)!r},{float(row.lp)!r},{float(row.grid_max)!r}"
            )
        return "\n".join(lines) + "\n"


def _to_zero(values) -> bool:
    first, last = values[0], values[-1]
    return last == 0 or (first > 0 and last <= first / 8)


def convergence_report(sequence: Sequence[FilteredTree], limit: FilteredTree) -> ConvergenceReport:
    """Per sequence member: adapted distance to the limit, exact L^p gap of
    the quantile representations, and the pointwise grid diagnostic.  The
    last two are read off the compilation the distance table keeps.

    Flags whether the adapted and L^p columns decrease to zero together;
    they must, on families where either does.
    """
    if not sequence:
        raise SolverError("convergence report needs a nonempty sequence")
    cfg = limit.config
    rows = []
    for k, tree in enumerate(sequence, start=1):
        tree.config.require_same_shape(cfg, "convergence_report")
        value, table = transport.aw_distance(tree, limit)
        if cfg.is_weak:
            lp, (gap, _) = _weak_walk(table.compiled)
        else:
            lp, (gap, _) = _lp(table.compiled, cfg), _grid_max(table.compiled, cfg)
        rows.append(
            ConvergenceRow(
                index=k,
                aw=cfg.root_cost(value),
                lp=cfg.root_cost(lp),
                grid_max=gap,
            )
        )
    aw_ok = _to_zero([row.aw for row in rows])
    lp_ok = _to_zero([row.lp for row in rows])
    return ConvergenceReport(
        rows=tuple(rows),
        aw_converges=aw_ok,
        lp_converges=lp_ok,
        consistent=aw_ok == lp_ok,
    )


# -- the fixture where pathwise and per-step optimality cannot coexist -----------


@dataclass(frozen=True)
class FixtureAnalysis:
    n: int
    k: int
    aligned: bool
    segment: tuple[Fraction, Fraction]
    segment_mass: Fraction
    w1: Fraction
    lower_bound: Fraction
    diagonal_cost: Fraction
    perturbed_cost: Fraction
    strict_gap: bool
    ot_value: Fraction | None
    ot_plan_diagonal: bool | None
    union_fraction: Fraction
    union_covers: bool


@dataclass(frozen=True)
class FixtureResult:
    process: FilteredTree
    limit: FilteredTree
    analysis: FixtureAnalysis


def _harmonic(j: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, j + 1)), Fraction(0))


def _segment(n: int) -> tuple[Fraction, Fraction]:
    s = _harmonic(n - 1) % 1
    e = _harmonic(n) % 1
    return s, e


def _in_segment(x: Fraction, seg: tuple[Fraction, Fraction]) -> bool:
    s, e = seg
    if s < e:
        return s <= x < e
    return x >= s or x < e  # wrap-around (also covers the full circle s == e)


def _indicator_tree(k: int, seg: tuple[Fraction, Fraction] | None, decimals: int) -> FilteredTree:
    """Two-step process: uniform grid point on [0,1), then the indicator of a
    circular segment (zero everywhere when seg is None)."""
    cfg = MetricConfig(num_steps=2, dim=1, order=Fraction(1), value_decimals=decimals)
    nodes: dict[str, TreeNode] = {}
    root = []
    w = Fraction(1, k)
    for i in range(k):
        left = Fraction(i, k)
        mid = Fraction(2 * i + 1, 2 * k)
        hit = seg is not None and _in_segment(left, seg)
        leaf_id = f"c{i}.ind"
        nodes[leaf_id] = TreeNode(
            node_id=leaf_id,
            time=2,
            value=(Fraction(1 if hit else 0),),
            info="",
            children=(),
        )
        cell_id = f"c{i}"
        nodes[cell_id] = TreeNode(
            node_id=cell_id,
            time=1,
            value=(mid,),
            info="",
            children=((leaf_id, Fraction(1)),),
        )
        root.append((cell_id, w))
    return FilteredTree(cfg, nodes, tuple(root))


def non_coexistence_fixture(n: int, k: int) -> FixtureResult:
    """Grid discretization of the moving-segment family at index n.

    The processes are (grid point, indicator of the n-th circular segment)
    and its indicator-free limit.  The plain transport cost between them is
    the segment's grid mass exactly — every unit of indicator mass must pay
    one in the second coordinate, and the diagonal plan attains that — while
    any plan displacing a grid point pays strictly more.  That optimum is
    unique: moving path i to path j costs |m_i - m_j| + flip_i, every
    coupling pays the same total flip, and the move cost vanishes only on the
    diagonal, so every optimal plan is the diagonal one.  Sweeping n, the
    segments eventually cover the whole circle, which is why no single
    realization can be pathwise optimal for every n at once.
    """
    if n < 1:
        raise SolverError(f"fixture index must be >= 1, got {n}")
    if k < 4:
        raise SolverError(f"fixture grid must have at least 4 cells, got {k}")
    seg = _segment(n)
    decimals = 12
    process = _indicator_tree(k, seg, decimals)
    limit = _indicator_tree(k, None, decimals)

    grid = Fraction(1, k)
    member = [_in_segment(Fraction(i, k), seg) for i in range(k)]
    segment_mass = sum((grid for hit in member if hit), Fraction(0))
    aligned = (seg[0] * k).denominator == 1 and (seg[1] * k).denominator == 1

    # Any coupling must flip every unit of indicator mass (the limit has
    # none), at per-step cost 1 — an assignment-free lower bound.
    lower_bound = segment_mass

    def plan_cost(assignment: dict[int, int]) -> Fraction:
        total = Fraction(0)
        for i, j in assignment.items():
            move = abs(Fraction(2 * i + 1, 2 * k) - Fraction(2 * j + 1, 2 * k))
            flip = Fraction(1) if member[i] else Fraction(0)
            total += grid * (move + flip)
        return total

    diagonal_cost = plan_cost({i: i for i in range(k)})
    if diagonal_cost != lower_bound:
        raise SolverError("fixture internal accounting failed")
    w1 = diagonal_cost

    perturbed = {i: i for i in range(k)}
    perturbed[0], perturbed[1] = 1, 0
    perturbed_cost = plan_cost(perturbed)

    ot_value = None
    ot_plan_diagonal = None
    if k <= 80:
        mu = law_on_paths(process)
        nu = law_on_paths(limit)
        # every plan pays the same total flip and only the diagonal moves nothing
        ot_value, plan = _plain_transport(mu, nu, process.config)
        ot_plan_diagonal = all(
            mu.atoms[i][0] == nu.atoms[j][0] for i, j, _ in plan.support
        )

    union: set[int] = set()
    for j in range(2, n + 1):
        seg_j = _segment(j)
        union.update(i for i in range(k) if _in_segment(Fraction(i, k), seg_j))
    union_fraction = Fraction(len(union), k)

    analysis = FixtureAnalysis(
        n=n,
        k=k,
        aligned=aligned,
        segment=seg,
        segment_mass=segment_mass,
        w1=w1,
        lower_bound=lower_bound,
        diagonal_cost=diagonal_cost,
        perturbed_cost=perturbed_cost,
        strict_gap=perturbed_cost > w1,
        ot_value=ot_value,
        ot_plan_diagonal=ot_plan_diagonal,
        union_fraction=union_fraction,
        union_covers=union_fraction == 1,
    )
    return FixtureResult(process=process, limit=limit, analysis=analysis)
