"""Downstream functionals that are stable under the adapted distance:
optimal stopping (Snell recursion) and the Doob decomposition, each with a
stability report.

Payoffs are small arithmetic expressions over path coordinates, evaluated in
exact rational arithmetic (the language has no division), with a declared
Lipschitz constant that a sampler can spot-check.
"""

from __future__ import annotations

import ast
import decimal
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigMismatchError, ExpressionError, SolverError
from .process_model import FilteredTree
from .skorokhod import _to_zero
from .transport import aw_distance

__all__ = [
    "PayoffSpec",
    "LipschitzSample",
    "verify_lipschitz",
    "StoppingResult",
    "optimal_stopping",
    "StoppingStabilityReport",
    "stopping_stability_report",
    "DoobDecomposition",
    "doob",
    "decorated_with_drift",
    "DoobStabilityRow",
    "DoobStabilityReport",
    "doob_stability_report",
]


_ALLOWED_CALLS = ("min", "max", "abs")


def _fraction_constant(value) -> Fraction:
    if isinstance(value, bool):
        raise ExpressionError("boolean constants are not part of the language")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ExpressionError(f"constant {value!r} is out of range (too large for a float)")
        return Fraction(decimal.Decimal(repr(value)))
    raise ExpressionError(f"unsupported constant {value!r}")


class _Checker(ast.NodeVisitor):
    """Whitelist walk: +, -, *, min/max/abs, numeric constants, and
    coordinate names x<t> (d = 1) or x<t>_<i>."""

    def __init__(self, time: int, dim: int):
        self.time = time
        self.dim = dim

    def generic_visit(self, node):
        allowed = (
            ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Constant,
            ast.Name, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.USub, ast.UAdd,
        )
        if not isinstance(node, allowed):
            raise ExpressionError(
                f"construct {type(node).__name__} is not part of the payoff language"
            )
        super().generic_visit(node)

    def visit_Call(self, node: ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
            raise ExpressionError("only min, max and abs may be called")
        if node.keywords:
            raise ExpressionError("keyword arguments are not supported")
        if node.func.id == "abs" and len(node.args) != 1:
            raise ExpressionError("abs takes exactly one argument")
        if node.func.id in ("min", "max") and len(node.args) < 2:
            raise ExpressionError(f"{node.func.id} needs at least two arguments")
        for arg in node.args:
            self.visit(arg)

    def visit_Constant(self, node: ast.Constant):
        _fraction_constant(node.value)

    def visit_Name(self, node: ast.Name):
        if node.id in _ALLOWED_CALLS:
            return
        _parse_coordinate(node.id, self.time, self.dim)


def _parse_coordinate(name: str, time: int, dim: int) -> tuple[int, int]:
    """Resolve x<t> / x<t>_<i> to (time, coordinate index), bounds-checked."""
    if not name.startswith("x"):
        raise ExpressionError(f"unknown name {name!r} (coordinates look like x1 or x1_0)")
    body = name[1:]
    if "_" in body:
        t_part, _, i_part = body.partition("_")
    else:
        t_part, i_part = body, None
    if not t_part.isdigit() or (i_part is not None and not i_part.isdigit()):
        raise ExpressionError(f"malformed coordinate name {name!r}")
    t = int(t_part)
    if not 1 <= t <= time:
        raise ExpressionError(
            f"coordinate {name!r} refers to time {t}, but this payoff is for time {time}"
        )
    if i_part is None:
        if dim != 1:
            raise ExpressionError(
                f"coordinate {name!r} needs an index suffix for {dim}-dimensional values"
            )
        return t, 0
    i = int(i_part)
    if not 0 <= i < dim:
        raise ExpressionError(f"coordinate index {i} out of range for dimension {dim}")
    return t, i


def _evaluate(node: ast.AST, path: Sequence[Sequence[Fraction]], dim: int) -> Fraction:
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, path, dim)
    if isinstance(node, ast.Constant):
        return _fraction_constant(node.value)
    if isinstance(node, ast.Name):
        t, i = _parse_coordinate(node.id, len(path), dim)
        return path[t - 1][i]
    if isinstance(node, ast.UnaryOp):
        inner = _evaluate(node.operand, path, dim)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        left = _evaluate(node.left, path, dim)
        right = _evaluate(node.right, path, dim)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        raise ExpressionError("only +, - and * are supported")
    if isinstance(node, ast.Call):
        args = [_evaluate(arg, path, dim) for arg in node.args]
        fn = {"min": min, "max": max, "abs": abs}[node.func.id]
        return fn(*args)
    raise ExpressionError(f"cannot evaluate {type(node).__name__}")


class PayoffSpec:
    """One exercise payoff per time step, over the path seen so far.

    ``expressions[t-1]`` may reference coordinates x1 .. xt (suffix `_i` for
    vector values); ``lipschitz`` is the declared constant with respect to
    the accumulated 1-norm path distance.
    """

    def __init__(self, expressions: Sequence[str], lipschitz, dim: int = 1):
        if not expressions:
            raise ExpressionError("a payoff needs at least one expression")
        self.lipschitz = Fraction(lipschitz)
        if self.lipschitz <= 0:
            raise ExpressionError(f"Lipschitz constant must be positive, got {lipschitz}")
        self.dim = dim
        self.expressions = tuple(str(e).strip() for e in expressions)
        self._trees: list[ast.Expression] = []
        for t, text in enumerate(self.expressions, start=1):
            if not text:
                raise ExpressionError(f"payoff expression for time {t} is empty")
            try:
                parsed = ast.parse(text, mode="eval")
            except SyntaxError as exc:
                raise ExpressionError(
                    f"payoff expression for time {t} does not parse: {exc.msg}"
                ) from None
            _Checker(t, dim).visit(parsed)
            self._trees.append(parsed)

    @property
    def num_steps(self) -> int:
        return len(self.expressions)

    @classmethod
    def from_text(cls, text: str, num_steps: int, lipschitz, dim: int = 1) -> "PayoffSpec":
        """Semicolon-separated per-time expressions; one expression replicates."""
        parts = [part.strip() for part in text.split(";") if part.strip()]
        if len(parts) == 1:
            parts = parts * num_steps
        if len(parts) != num_steps:
            raise ExpressionError(
                f"payoff text has {len(parts)} expressions, expected {num_steps}"
            )
        return cls(parts, lipschitz, dim)

    @classmethod
    def current_value(cls, num_steps: int, lipschitz=1, dim: int = 1) -> "PayoffSpec":
        """The running-value payoff: exercise at t pays the (first) coordinate."""
        suffix = "" if dim == 1 else "_0"
        return cls([f"x{t}{suffix}" for t in range(1, num_steps + 1)], lipschitz, dim)

    def value(self, time: int, path: Sequence[Sequence[Fraction]]) -> Fraction:
        if not 1 <= time <= self.num_steps:
            raise ExpressionError(f"payoff has no expression for time {time}")
        if len(path) < time:
            raise ExpressionError(
                f"path of length {len(path)} is too short for time {time}"
            )
        return _evaluate(self._trees[time - 1], path[:time], self.dim)


@dataclass(frozen=True)
class LipschitzSample:
    ok: bool
    witness: tuple | None


def verify_lipschitz(payoff: PayoffSpec, *, samples: int = 200, seed: int = 0) -> LipschitzSample:
    """Spot-check the declared constant on random lattice path pairs:
    |f_t(x) - f_t(y)| must not exceed L times the accumulated 1-norm gap."""
    import random

    rng = random.Random(seed)
    n, d, L = payoff.num_steps, payoff.dim, payoff.lipschitz

    def random_path():
        return tuple(
            tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(d)) for _ in range(n)
        )

    for _ in range(samples):
        x, y = random_path(), random_path()
        gap = Fraction(0)
        for t in range(1, n + 1):
            gap += sum(abs(a - b) for a, b in zip(x[t - 1], y[t - 1]))
            diff = abs(payoff.value(t, x) - payoff.value(t, y))
            if diff > L * gap:
                return LipschitzSample(ok=False, witness=(t, x, y, diff, L * gap))
    return LipschitzSample(ok=True, witness=None)


# -- optimal stopping -------------------------------------------------------------


@dataclass(frozen=True)
class StoppingResult:
    value: Fraction
    rule: dict[str, str]
    node_values: dict[str, Fraction]


def optimal_stopping(tree: FilteredTree, payoff: PayoffSpec) -> StoppingResult:
    """Snell recursion over tree atoms: at each node the value is the larger
    of stopping now and the expected continuation; stopping decisions may use
    the full filtration (atoms, not just values), and ties stop.
    """
    cfg = tree.config
    if payoff.num_steps != cfg.num_steps:
        raise ExpressionError(
            f"payoff covers {payoff.num_steps} steps, tree has {cfg.num_steps}"
        )
    if payoff.dim != cfg.dim:
        raise ExpressionError(
            f"payoff expects dimension {payoff.dim}, tree has {cfg.dim}"
        )
    node_values: dict[str, Fraction] = {}
    rule: dict[str, str] = {}
    for t in range(cfg.num_steps, 0, -1):
        for node_id in tree.level(t):
            node = tree.node(node_id)
            stop_now = payoff.value(t, tree.value_path(node_id))
            cont = sum((q * node_values[cid] for cid, q in node.children), Fraction(0))
            if node.is_leaf or stop_now >= cont:
                node_values[node_id] = stop_now
                rule[node_id] = "stop"
            else:
                node_values[node_id] = cont
                rule[node_id] = "continue"
    total = sum((q * node_values[cid] for cid, q in tree.root_children), Fraction(0))
    return StoppingResult(value=total, rule=rule, node_values=node_values)


@dataclass(frozen=True)
class StoppingStabilityReport:
    value_left: Fraction
    value_right: Fraction
    gap: Fraction
    aw1: Fraction
    bound: Fraction
    ok: bool


def stopping_stability_report(
    a: FilteredTree, b: FilteredTree, payoff: PayoffSpec
) -> StoppingStabilityReport:
    """Check |v(a) - v(b)| <= L * adapted distance (order-1 configuration).

    A false verdict with a genuinely L-Lipschitz payoff is a library defect,
    never an acceptable outcome.
    """
    a.config.require_same_shape(b.config, "stopping_stability_report")
    if a.config.order != 1:
        raise ConfigMismatchError(
            f"the stopping stability bound is stated for order 1, got {a.config.order}"
        )
    va = optimal_stopping(a, payoff).value
    vb = optimal_stopping(b, payoff).value
    aw1, _ = aw_distance(a, b)
    gap = abs(va - vb)
    bound = payoff.lipschitz * aw1
    return StoppingStabilityReport(
        value_left=va,
        value_right=vb,
        gap=gap,
        aw1=aw1,
        bound=bound,
        ok=gap <= bound + Fraction(1, 10**9),
    )


# -- Doob decomposition ------------------------------------------------------------


@dataclass(frozen=True)
class DoobDecomposition:
    """Per-node split X = M + A with M a martingale and A predictable, A_1 = 0."""

    tree: FilteredTree
    martingale: dict[str, tuple[Fraction, ...]]
    predictable: dict[str, tuple[Fraction, ...]]

    def verify(self) -> bool:
        tree = self.tree
        zero = tuple(Fraction(0) for _ in range(tree.config.dim))
        for cid, _ in tree.root_children:
            if self.predictable[cid] != zero:
                return False
        for node in tree.nodes():
            m = self.martingale[node.node_id]
            a = self.predictable[node.node_id]
            if tuple(x + y for x, y in zip(m, a)) != node.value:
                return False
            if node.is_leaf:
                continue
            drift = self.predictable[node.children[0][0]]
            expect = [Fraction(0)] * tree.config.dim
            for cid, q in node.children:
                if self.predictable[cid] != drift:
                    return False  # predictable part must be parent-measurable
                for i, x in enumerate(self.martingale[cid]):
                    expect[i] += q * x
            if tuple(expect) != m:
                return False
        return True


def doob(tree: FilteredTree) -> DoobDecomposition:
    """Componentwise Doob decomposition: the predictable increment into each
    node is the conditional expected value change given its parent atom."""
    martingale: dict[str, tuple[Fraction, ...]] = {}
    predictable: dict[str, tuple[Fraction, ...]] = {}
    d = tree.config.dim
    # nodes in pre-order, so each parent's predictable part is known first
    a_next: dict[str | None, tuple[Fraction, ...]] = {None: tuple(Fraction(0) for _ in range(d))}
    for node in tree.nodes():
        a = predictable[node.node_id] = a_next[tree.parent(node.node_id)]
        martingale[node.node_id] = tuple(v - x for v, x in zip(node.value, a))
        drift = [Fraction(0)] * d
        for cid, q in node.children:
            child_value = tree.node(cid).value
            for i in range(d):
                drift[i] += q * (child_value[i] - node.value[i])
        a_next[node.node_id] = tuple(x + inc for x, inc in zip(a, drift))
    return DoobDecomposition(tree=tree, martingale=martingale, predictable=predictable)


def decorated_with_drift(decomp: DoobDecomposition) -> FilteredTree:
    """The process decorated with its predictable part: values (X_t, A_t)."""
    tree = decomp.tree
    return tree.with_values(2 * tree.config.dim, lambda node: node.value + decomp.predictable[node.node_id])


@dataclass(frozen=True)
class DoobStabilityRow:
    index: int
    aw: Fraction
    decorated_aw: Fraction


@dataclass(frozen=True)
class DoobStabilityReport:
    rows: tuple[DoobStabilityRow, ...]
    aw_converges: bool
    decorated_converges: bool
    consistent: bool

    def to_csv(self) -> str:
        lines = ["n,aw_distance,decorated_aw_distance"]
        for row in self.rows:
            lines.append(f"{row.index},{float(row.aw)!r},{float(row.decorated_aw)!r}")
        return "\n".join(lines) + "\n"


def doob_stability_report(
    sequence: Sequence[FilteredTree], limit: FilteredTree
) -> DoobStabilityReport:
    """Qualitative stability of the decomposition: when the adapted distance
    to the limit vanishes along the family, so does the adapted distance of
    the drift-decorated processes."""
    if not sequence:
        raise SolverError("doob stability report needs a nonempty sequence")
    cfg = limit.config
    limit_dec = decorated_with_drift(doob(limit))
    rows = []
    for k, tree in enumerate(sequence, start=1):
        tree.config.require_same_shape(cfg, "doob_stability_report")
        aw, _ = aw_distance(tree, limit)
        dec = decorated_with_drift(doob(tree))
        dec_aw, _ = aw_distance(dec, limit_dec)
        rows.append(
            DoobStabilityRow(
                index=k, aw=cfg.root_cost(aw), decorated_aw=cfg.root_cost(dec_aw)
            )
        )
    aw_ok = _to_zero([row.aw for row in rows])
    dec_ok = _to_zero([row.decorated_aw for row in rows])
    return DoobStabilityReport(
        rows=tuple(rows),
        aw_converges=aw_ok,
        decorated_converges=dec_ok,
        consistent=aw_ok == dec_ok,
    )
