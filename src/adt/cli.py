"""Command-line front end for the adapted-transport toolkit.

Every subcommand prints a short human summary to stdout and can write
machine-readable JSON/CSV artifacts with ``--out``.  Outputs are
deterministic: identical inputs, flags, and seed produce identical bytes.
Numbers are printed with their exactness status — exact rationals are never
silently rounded away.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .applications import (
    PayoffSpec,
    doob,
    optimal_stopping,
    verify_lipschitz,
)
from .canonical import (
    atom_level_ranks,
    canonical_tree,
    digest_tree,
    hk_equivalent,
    information_process,
    is_markov,
    is_self_aware,
    markov_lift,
    self_aware_lift,
)
from .couplings import (
    assemble_optimal_coupling,
    check_bicausal,
    check_transfer_grid,
    extend_with_randomization,
    geodesic,
    load_coupling,
    pair_path_cost,
    product_process,
    transfer,
)
from .errors import (
    AdtError,
    ConfigMismatchError,
    DocumentError,
    ExpressionError,
    GridResolutionError,
    NotBicausalError,
    NotMarkovError,
    SolverError,
    StaleTableError,
    TreeValidationError,
)
from .process_model import FilteredTree, load_tree_file
from .skorokhod import (
    convergence_report,
    non_coexistence_fixture,
    quantile_map,
)
from .transport import aw_distance, random_bicausal_cost, wasserstein_paths

DEFAULT_SEED = 1729

_EXIT_CODES = (
    (DocumentError, 3),
    (TreeValidationError, 4),
    (ConfigMismatchError, 5),
    (NotMarkovError, 7),
    (NotBicausalError, 8),
    (StaleTableError, 9),
    (GridResolutionError, 10),
    (ExpressionError, 11),
    (SolverError, 6),  # after its subclasses
)


def _exit_code(exc: AdtError) -> int:
    for cls, code in _EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1


# -- formatting helpers ----------------------------------------------------------


def _number_json(value) -> dict:
    if isinstance(value, Fraction):
        return {"exact": str(value), "decimal": repr(float(value)), "is_exact": True}
    return {"decimal": repr(float(value)), "is_exact": False}


def _number_text(value) -> str:
    if isinstance(value, Fraction):
        return f"{float(value)!r} (= {value}, exact)"
    return f"{float(value)!r} (approximate)"


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(args, name: str, content: str) -> None:
    """Write an artifact into --out, or echo it to stdout."""
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / name
        path.write_text(content, encoding="utf-8")
        print(f"wrote {path}")
    else:
        sys.stdout.write(content)


# -- tree loading with metric overrides -------------------------------------------


def _resolve_order(args) -> Fraction | None:
    if getattr(args, "weak", False):
        return Fraction(0)
    raw = getattr(args, "p", None)
    if raw is None:
        return None
    try:
        order = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"cannot parse cost order {raw!r}") from None
    if order < 1:
        raise DocumentError(f"cost order must be at least 1 (use --weak for order 0), got {raw}")
    return order


def _load(path: str, args) -> FilteredTree:
    tree = load_tree_file(path)
    order = _resolve_order(args)
    if order is None or order == tree.config.order:
        return tree
    return tree.with_config(replace(tree.config, order=order))


# -- distance table serialization ---------------------------------------------------


def _table_document(table) -> dict:
    ranks_a = atom_level_ranks(table.left)
    ranks_b = atom_level_ranks(table.right)
    levels = []
    for t, level in enumerate(table.levels, start=1):
        entries = []
        for (alpha, beta), entry in level.items():
            row = {
                "left": ranks_a[t - 1][alpha],
                "right": ranks_b[t - 1][beta],
                "cost": _number_json(entry.cost),
            }
            if entry.plan is not None:
                row["plan"] = [
                    [ranks_a[t][x], ranks_b[t][y], str(w)] for x, y, w in entry.plan
                ]
            entries.append(row)
        entries.sort(key=lambda row: (row["left"], row["right"]))
        levels.append(entries)
    return {
        "left_digest": table.left.digest(),
        "right_digest": table.right.digest(),
        "truncated": table.truncated,
        "root_value": _number_json(table.root_value),
        "root_plan": [
            [ranks_a[0][x], ranks_b[0][y], str(w)] for x, y, w in table.root_plan
        ],
        "levels": levels,
    }


# -- subcommand handlers --------------------------------------------------------------


def _cmd_validate(args) -> int:
    results = []
    for path in args.trees:
        tree = load_tree_file(path)
        digest = digest_tree(tree)
        print(
            f"ok: {path} (steps={tree.config.num_steps}, nodes={tree.size()}, "
            f"leaves={len(tree.leaves())}, digest={digest[:16]})"
        )
        results.append(
            {
                "path": str(path),
                "nodes": tree.size(),
                "leaves": len(tree.leaves()),
                "digest": digest,
            }
        )
    _emit(args, "validate.json", _dump({"trees": results}))
    return 0


def _cmd_distance(args) -> int:
    a = _load(args.left, args)
    b = _load(args.right, args)
    value, table = aw_distance(a, b)
    cfg = a.config
    plain = wasserstein_paths(a, b)
    print(f"order p = {cfg.order}{' (weak/truncated)' if cfg.is_weak else ''}")
    print(f"adapted cost (p-th power) = {_number_text(value)}")
    print(f"adapted distance = {_number_text(cfg.root_cost(value))}")
    print(f"plain cost (p-th power) = {_number_text(plain)}")
    print(f"plain distance = {_number_text(cfg.root_cost(plain))}")
    if table.truncated:
        print("note: weak-mode value clipped at 1")
    doc = {
        "p": str(cfg.order),
        "weak": cfg.is_weak,
        "adapted": {
            "power": _number_json(value),
            "distance": _number_json(cfg.root_cost(value)),
            "truncated": table.truncated,
        },
        "plain": {
            "power": _number_json(plain),
            "distance": _number_json(cfg.root_cost(plain)),
        },
    }
    if args.oracle_samples:
        sampled = random_bicausal_cost(table, seed=args.seed, samples=args.oracle_samples)
        best = min(sampled)
        agrees = best == value if isinstance(best, Fraction) and isinstance(
            value, Fraction
        ) else abs(float(best) - float(value)) <= 1e-9
        print(
            f"oracle: {len(sampled)} sampled couplings, min cost = {_number_text(best)}, "
            f"agreement = {agrees}"
        )
        doc["oracle"] = {
            "samples": len(sampled),
            "seed": args.seed,
            "min_cost": _number_json(best),
            "agrees": agrees,
        }
    _emit(args, "distance.json", _dump(doc))
    if args.emit_table:
        _emit(args, "table.json", _dump(_table_document(table)))
    if args.emit_plan:
        coupling = assemble_optimal_coupling(table, a, b)
        _emit(args, "plan.json", _dump(coupling.to_document()))
    return 0


def _cmd_wasserstein(args) -> int:
    a = _load(args.left, args)
    b = _load(args.right, args)
    cfg = a.config
    plain = wasserstein_paths(a, b)
    print(f"order p = {cfg.order}{' (weak/truncated)' if cfg.is_weak else ''}")
    print(f"plain cost (p-th power) = {_number_text(plain)}")
    print(f"plain distance = {_number_text(cfg.root_cost(plain))}")
    doc = {
        "p": str(cfg.order),
        "weak": cfg.is_weak,
        "plain": {
            "power": _number_json(plain),
            "distance": _number_json(cfg.root_cost(plain)),
        },
    }
    _emit(args, "wasserstein.json", _dump(doc))
    return 0


def _cmd_canonicalize(args) -> int:
    tree = _load(args.tree, args)
    res = information_process(tree)
    ctree = canonical_tree(res.form)
    digest = res.form.digest()
    print(f"digest = {digest}")
    print(f"canonical nodes = {ctree.size()} (source nodes = {tree.size()})")
    doc = {"digest": digest, "tree": ctree.to_document()}
    _emit(args, "canonical.json", _dump(doc))
    return 0


def _cmd_equivalent(args) -> int:
    a = _load(args.left, args)
    b = _load(args.right, args)
    same = hk_equivalent(a, b)
    print(f"equivalent: {'true' if same else 'false'}")
    _emit(args, "equivalent.json", _dump({"equivalent": same}))
    return 0


def _cmd_lift(args) -> int:
    tree = _load(args.tree, args)
    if args.kind == "self-aware":
        lifted = self_aware_lift(tree)
        check = is_self_aware(lifted)
        print(f"self-aware lift: dimension {tree.config.dim} -> {lifted.config.dim}")
        print(f"lift passes self-awareness check: {check}")
    else:
        lifted = markov_lift(tree)
        check = is_markov(lifted)
        print(f"markov lift: dimension {tree.config.dim} -> {lifted.config.dim}")
        print(f"lift passes markov check: {check}")
    _emit(args, f"lift-{args.kind}.json", _dump({"check": check, "tree": lifted.to_document()}))
    return 0


def _cmd_coupling(args) -> int:
    if args.check:
        try:
            text = Path(args.check).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DocumentError(f"cannot read coupling document {args.check}: {exc}") from exc
        coupling = load_coupling(text)
        report = check_bicausal(coupling)
        print(f"bicausal: {report.ok}")
        for name, side in (
            ("left->right", report.left_to_right),
            ("right->left", report.right_to_left),
        ):
            if side.ok:
                print(f"  causal {name}: ok")
            else:
                t, own, other = side.witness
                print(
                    f"  causal {name}: violated at time {t} "
                    f"(conditioning atom {own!r}, target atom {other!r})"
                )
        doc = {
            "bicausal": report.ok,
            "left_to_right": {
                "ok": report.left_to_right.ok,
                "witness": report.left_to_right.witness,
            },
            "right_to_left": {
                "ok": report.right_to_left.ok,
                "witness": report.right_to_left.witness,
            },
        }
        _emit(args, "coupling-check.json", _dump(doc))
        return 0

    a = _load(args.trees[0], args)
    b = _load(args.trees[1], args)
    value, table = aw_distance(a, b)
    coupling = assemble_optimal_coupling(table, a, b)
    cost = coupling.expected_cost()
    print(f"optimal coupling: {len(coupling)} support pairs")
    print(f"expected path cost = {_number_text(cost)}")
    print(f"matches adapted cost: {cost == value}")
    _emit(args, "coupling.json", _dump(coupling.to_document()))

    if args.transfer_m is not None:
        product = product_process(coupling)
        # reject a too-coarse grid before building the m**N-sized extension
        check_transfer_grid(product, args.transfer_m)
        ext = extend_with_randomization(a, args.transfer_m)
        result = transfer(product, ext)
        print(
            f"transfer onto grid m={args.transfer_m}: pair nodes = "
            f"{result.pair_tree.size()}, finest conditional denominator = {result.required_m}"
        )
        pair_cost = pair_path_cost(result.pair_tree, a.config.dim)
        print(f"pair cost on the new basis = {_number_text(pair_cost)}")
        _emit(
            args,
            "transfer.json",
            _dump(
                {
                    "m": args.transfer_m,
                    "required_m": result.required_m,
                    "pair_cost": _number_json(pair_cost),
                    "pair_tree": result.pair_tree.to_document(),
                    "second_marginal": result.y_tree.to_document(),
                }
            ),
        )
    return 0


def _cmd_geodesic(args) -> int:
    a = _load(args.left, args)
    b = _load(args.right, args)
    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"cannot parse interpolation parameter {args.lam!r}") from None
    value, table = aw_distance(a, b)
    coupling = assemble_optimal_coupling(table, a, b)
    product = product_process(coupling)
    tree = geodesic(product, lam)
    print(f"interpolate at {lam}: nodes = {tree.size()}")
    print(f"endpoint adapted cost = {_number_text(value)}")
    _emit(args, "geodesic.json", _dump({"lambda": str(lam), "tree": tree.to_document()}))
    return 0


def _cmd_quantile(args) -> int:
    tree = _load(args.tree, args)
    qmap = quantile_map(tree)
    n = tree.config.num_steps
    breaks = qmap.partition.breakpoints(n)
    boxes = [
        {
            "intervals": [[str(cell.lo), str(cell.hi)] for cell in box],
            "path": [[str(v) for v in cell.atom.value] for cell in box],
        }
        for box in qmap.partition.boxes()
    ]
    print(f"boxes = {len(boxes)}")
    for t, points in enumerate(breaks, start=1):
        print(f"breakpoints[{t}] = {', '.join(str(x) for x in points)}")
    doc = {
        "breakpoints": [[str(x) for x in points] for points in breaks],
        "boxes": boxes,
    }
    _emit(args, "quantile.json", _dump(doc))
    lines = ["box," + ",".join(
        f"lo{t},hi{t}" for t in range(1, n + 1)
    ) + "," + ",".join(f"value{t}" for t in range(1, n + 1))]
    for idx, box in enumerate(boxes):
        cells = ",".join(f"{lo},{hi}" for lo, hi in box["intervals"])
        vals = ",".join("|".join(v) for v in box["path"])
        lines.append(f"{idx},{cells},{vals}")
    _emit(args, "quantile.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_convergence(args) -> int:
    limit = _load(args.limit, args)
    sequence = [_load(path, args) for path in args.sequence]
    report = convergence_report(sequence, limit)
    print(f"adapted distances -> 0: {report.aw_converges}")
    print(f"quantile L^p gaps -> 0: {report.lp_converges}")
    print(f"consistent: {report.consistent}")
    _emit(args, "convergence.csv", report.to_csv())
    doc = {
        "aw_converges": report.aw_converges,
        "lp_converges": report.lp_converges,
        "consistent": report.consistent,
        "rows": [
            {
                "n": row.index,
                "aw": _number_json(row.aw),
                "lp": _number_json(row.lp),
                "grid_max": _number_json(row.grid_max),
            }
            for row in report.rows
        ],
    }
    _emit(args, "convergence.json", _dump(doc))
    return 0


def _cmd_stop(args) -> int:
    tree = _load(args.tree, args)
    try:
        lipschitz = Fraction(args.lipschitz)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"cannot parse Lipschitz constant {args.lipschitz!r}") from None
    payoff = PayoffSpec.from_text(args.payoff, tree.config.num_steps, lipschitz, tree.config.dim)
    sample = verify_lipschitz(payoff, seed=args.seed)
    result = optimal_stopping(tree, payoff)
    stops = sum(1 for v in result.rule.values() if v == "stop")
    print(f"value = {_number_text(result.value)}")
    print(f"rule: stop at {stops} of {len(result.rule)} nodes")
    print(f"declared Lipschitz constant spot-check: {'ok' if sample.ok else 'VIOLATED'}")
    doc = {
        "value": _number_json(result.value),
        "lipschitz_ok": sample.ok,
        "rule": {k: result.rule[k] for k in sorted(result.rule)},
        "node_values": {k: str(result.node_values[k]) for k in sorted(result.node_values)},
    }
    _emit(args, "stop.json", _dump(doc))
    return 0


def _cmd_doob(args) -> int:
    tree = _load(args.tree, args)
    decomp = doob(tree)
    print(f"decomposition verified: {decomp.verify()}")
    lines = ["node,time,coord,value,martingale,predictable"]
    for node in tree.nodes():
        for i in range(tree.config.dim):
            lines.append(
                f"{node.node_id},{node.time},{i},{node.value[i]},"
                f"{decomp.martingale[node.node_id][i]},{decomp.predictable[node.node_id][i]}"
            )
    _emit(args, "doob.csv", "\n".join(lines) + "\n")
    doc = {
        "martingale": {k: [str(x) for x in v] for k, v in sorted(decomp.martingale.items())},
        "predictable": {k: [str(x) for x in v] for k, v in sorted(decomp.predictable.items())},
    }
    _emit(args, "doob.json", _dump(doc))
    return 0


def _cmd_fixture(args) -> int:
    result = non_coexistence_fixture(args.n, args.k)
    an = result.analysis
    print(f"n = {an.n}, grid cells = {an.k}, aligned = {an.aligned}")
    print(f"segment = [{an.segment[0]}, {an.segment[1]}) (wrap-around), mass = {an.segment_mass}")
    print(f"plain distance = {_number_text(an.w1)}")
    print(
        f"one-cell perturbation cost = {_number_text(an.perturbed_cost)} "
        f"(strictly larger: {an.strict_gap})"
    )
    if an.ot_value is not None:
        print(
            f"solver cross-check = {_number_text(an.ot_value)}, "
            f"optimal plan diagonal in first coordinate: {an.ot_plan_diagonal}"
        )
    print(f"segments 2..n cover fraction {an.union_fraction} of the circle")
    doc = {
        "n": an.n,
        "k": an.k,
        "aligned": an.aligned,
        "segment": [str(an.segment[0]), str(an.segment[1])],
        "segment_mass": str(an.segment_mass),
        "w1": _number_json(an.w1),
        "lower_bound": str(an.lower_bound),
        "perturbed_cost": _number_json(an.perturbed_cost),
        "strict_gap": an.strict_gap,
        "ot_value": None if an.ot_value is None else _number_json(an.ot_value),
        "ot_plan_diagonal": an.ot_plan_diagonal,
        "union_fraction": str(an.union_fraction),
        "union_covers": an.union_covers,
        "process": result.process.to_document(),
        "limit": result.limit.to_document(),
    }
    _emit(args, "fixture.json", _dump(doc))
    return 0


# -- parser ------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", default=None, metavar="ORDER",
                     help="cost order: positive rational like 1, 2, 3/2")
    sub.add_argument("--weak", action="store_true",
                     help="weak mode: truncated first-order cost")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="seed for sampled cross-checks")
    sub.add_argument("--out", default=None, metavar="DIR",
                     help="directory for JSON/CSV artifacts (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adt",
        description="Adapted (causality-respecting) transport distances between "
        "finite filtered stochastic processes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="validate tree documents")
    p.add_argument("trees", nargs="+")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("distance", help="adapted and plain transport distances")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emit-plan", action="store_true",
                   help="also emit the assembled optimal coupling")
    p.add_argument("--emit-table", action="store_true",
                   help="also emit the stage table")
    p.add_argument("--oracle-samples", type=int, default=0, metavar="K",
                   help="cross-check against K sampled stagewise couplings")
    _add_common(p)
    p.set_defaults(handler=_cmd_distance)

    p = subs.add_parser("wasserstein", help="plain transport distance (filtrations ignored)")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(handler=_cmd_wasserstein)

    p = subs.add_parser("canonicalize", help="canonical form, digest, and minimal tree")
    p.add_argument("tree")
    _add_common(p)
    p.set_defaults(handler=_cmd_canonicalize)

    p = subs.add_parser("equivalent", help="decide equivalence (same canonical form)")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(handler=_cmd_equivalent)

    p = subs.add_parser("lift", help="decorate a process with information coordinates")
    p.add_argument("tree")
    p.add_argument("--kind", choices=("self-aware", "markov"), default="self-aware")
    _add_common(p)
    p.set_defaults(handler=_cmd_lift)

    p = subs.add_parser("coupling", help="check, assemble, or transfer couplings")
    p.add_argument("trees", nargs="*", metavar="TREE",
                   help="left and right tree files (for --assemble/--transfer)")
    p.add_argument("--check", metavar="COUPLING",
                   help="verify causality of a coupling document")
    p.add_argument("--transfer-m", type=int, default=None, metavar="M",
                   help="after assembling, realize the pair on the left tree's "
                        "m-point randomized extension")
    _add_common(p)
    p.set_defaults(handler=_cmd_coupling)

    p = subs.add_parser("geodesic", help="interpolate along an optimal coupling")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--lam", required=True, metavar="LAMBDA",
                   help="interpolation parameter in [0,1], e.g. 1/2")
    _add_common(p)
    p.set_defaults(handler=_cmd_geodesic)

    p = subs.add_parser("quantile", help="quantile representation on the unit cube")
    p.add_argument("tree")
    _add_common(p)
    p.set_defaults(handler=_cmd_quantile)

    p = subs.add_parser("convergence", help="distance columns for a family and its limit")
    p.add_argument("limit")
    p.add_argument("sequence", nargs="+")
    _add_common(p)
    p.set_defaults(handler=_cmd_convergence)

    p = subs.add_parser("stop", help="optimal stopping value and rule")
    p.add_argument("tree")
    p.add_argument("--payoff", required=True,
                   help="semicolon-separated expressions, e.g. 'x1; max(x1, x2)'")
    p.add_argument("--lipschitz", default="1",
                   help="declared Lipschitz constant of the payoff")
    _add_common(p)
    p.set_defaults(handler=_cmd_stop)

    p = subs.add_parser("doob", help="martingale/predictable decomposition")
    p.add_argument("tree")
    _add_common(p)
    p.set_defaults(handler=_cmd_doob)

    p = subs.add_parser("fixture", help="moving-segment fixture: plain distance "
                                        "small, pathwise matching impossible")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=60)
    _add_common(p)
    p.set_defaults(handler=_cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "coupling":
        if args.check is None and len(args.trees) != 2:
            parser.error("coupling needs either --check FILE or two tree files")
    try:
        return args.handler(args)
    except AdtError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream; not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
