"""Command-line front end.

Subcommands: construct (build and save designs), evaluate (information
matrix, connectedness, and loss metrics for a design file), bounds
(closed-form bound tables for one t and m), tables (the full bound
grids), and simulate (Monte Carlo dropout).  Reports are JSON (default)
or CSV with floats at 6 significant digits.

Exit codes: 0 success, 1 runtime or parse failure, 2 argument error,
3 diagnostic violation from simulate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import numpy as np

from . import construct as con
from .designs import (
    CrossoverDesign,
    _classify,
    _type_wm,
    check_tail,
    parse_design,
    parse_pattern,
    truncation,
    validate_ubrmd,
    write_design,
)
from .metrics import (
    ACriteria,
    against_plan,
    bounds_report,
    class_ab_ml,
    class_ab_spectrum,
    efficiency_bounds,
    efficiency_lower_bound,
    el_ab,
    extreme_ml,
    uml,
)
from .simulate import DropoutModel, check_seed, simulate

TABLE1_T = (5, 6, 7, 8, 9, 10)
TABLE2_T = (8, 9, 10, 11, 12, 16)
TABLE3 = ((5, "B"), (6, "A"), (7, "B"), (8, "A"), (9, "B"), (10, "A"))


def _f(x: float) -> float:
    """Round a float to 6 significant digits for reporting."""
    return float(f"{float(x):.6g}")


def _clean(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _f(float(obj))
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    return obj


def _flatten(obj: Any, prefix: str = "") -> list[tuple[str, Any]]:
    if isinstance(obj, dict):
        out: list[tuple[str, Any]] = []
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            out.extend(_flatten(v, key))
        return out
    if isinstance(obj, list):
        out = []
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}[{i}]"))
        return out
    return [(prefix, obj)]


def _emit(report: dict[str, Any], fmt: str, out_path: str | None) -> None:
    report = _clean(report)
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = ["key,value"]
        for key, value in _flatten(report):
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    _write(text, out_path)


def _write(text: str, out_path: str | None) -> None:
    """Write report text to the -o path, or to stdout when none is given."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_design(path: str) -> CrossoverDesign:
    try:
        with open(path) as fh:
            return parse_design(fh.read())
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise RuntimeError(f"{path}: {exc}") from exc


def cmd_construct(args: argparse.Namespace) -> int:
    sources: list[CrossoverDesign] = []
    try:
        if args.williams is not None:
            sources.append(con.williams_square(args.williams))
        if args.pair is not None:
            sources.append(con.williams_pair(args.pair))
        if args.extreme is not None:
            sources.append(con.extreme_design(args.extreme))
        for name in args.fixture or []:
            sources.append(con.fixture(name))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for path in args.union or []:
            sources.append(_load_design(path))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not sources:
        print("error: no construction source given", file=sys.stderr)
        return 2
    if len(sources) > 1 and args.union is None:
        print(
            "error: multiple sources need --union to combine them", file=sys.stderr
        )
        return 2
    try:
        design = con.union(sources) if len(sources) > 1 else sources[0]
        if args.reps is not None:
            if args.reps < 1:
                print("error: --reps must be >= 1", file=sys.stderr)
                return 2
            design = con.replicate(design, args.reps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = write_design(design)
    report = validate_ubrmd(design)
    summary_lines = [
        f"t={design.t} p={design.p} s={design.s} g={design.g}",
        f"uniform-balanced: {'yes' if report.ok else 'no'}",
    ]
    for failure in report.failures:
        summary_lines.append(f"  {failure}")
    if report.ok:
        summary_lines.append(f"classification: {_classify(design)}")
    # the summary goes wherever the design text does not
    _write(text, args.output)
    (sys.stdout if args.output else sys.stderr).write("\n".join(summary_lines) + "\n")
    return 0


def _spectrum_block(crit: ACriteria, b: int) -> dict[str, Any]:
    # eigenvalues within the rank threshold are structural zeros; their
    # roundoff digits would change with every change of arithmetic order
    return {
        "rank": crit.rank[b],
        "connected": crit.connected[b],
        "eigenvalues": [
            0.0 if abs(v) <= crit.threshold[b] else _f(v) for v in crit.eigenvalues[b]
        ],
        "h": crit.h[b],
        "trace_mp": crit.trace_mp[b],
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        design = _load_design(args.design)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.truncate is not None and not 1 <= args.truncate < design.p - 1:
        print(
            f"error: --truncate {args.truncate} out of range 1..{design.p - 2}",
            file=sys.stderr,
        )
        return 2
    validation = validate_ubrmd(design)
    report: dict[str, Any] = {
        "command": "evaluate",
        "design": args.design,
        "t": design.t,
        "p": design.p,
        "s": design.s,
        "g": design.g,
        "ubrmd": validation.ok,
        "classification": _classify(design) if validation.ok else "not-UBRMD",
    }
    try:
        rows: list[tuple[int, ...]] = []
        if args.pattern is not None:
            with open(args.pattern) as fh:
                pattern = parse_pattern(fh.read())
            pattern.check_against(design)
            rows.append(pattern.completion)
        elif args.truncate is not None:
            m = args.truncate
            rows.append(truncation(design, m).completion)
            report["m"] = m
        _, crit, losses, disconnected = against_plan(design, rows)
        report.update(_spectrum_block(crit, len(rows)))
        if args.pattern is not None:
            report["loss"], report["loss_disconnected"] = losses[1], disconnected[1]
        elif args.truncate is not None:
            report["ml"], report["ml_disconnected"] = losses[1], disconnected[1]
            applicable = validation.ok and design.t >= 2 * m + 2
            report["bounds_applicable"] = applicable
            if applicable:
                report["type_w"] = _type_wm(design, m).ok
                el, el_star = efficiency_bounds(design.t, m)
                report["uml"] = uml(design.t, m, star=False)
                report["uml_star"] = uml(design.t, m, star=True)
                report["el"] = el
                report["el_star"] = el_star
                if not disconnected[1] and design.g is not None:
                    report["eff_lower_bound"] = efficiency_lower_bound(
                        crit.trace_mp[1], design.t, m, design.g
                    )
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.format, args.output)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    t, m = args.t, args.m
    if m < 1:
        print(f"error: requires m >= 1, got m={m}", file=sys.stderr)
        return 2
    if t < 2 * m + 2:
        print(
            f"error: bounds require t >= 2m+2, got t={t} with m={m}",
            file=sys.stderr,
        )
        return 2
    b = bounds_report(t, m)
    report: dict[str, Any] = {
        "command": "bounds",
        "t": t,
        "m": m,
        "theta_l": b.theta_l,
        "theta_l_star": b.theta_l_star,
        "uml": b.uml,
        "uml_star": b.uml_star,
        "mtr": b.mtr,
        "el": b.el,
        "el_star": b.el_star,
        "condition_value": b.condition_value,
        "condition_satisfied": b.condition_satisfied,
        "t_star": b.t_star,
        "binding": "starred" if args.type_w else "plain",
    }
    if args.klass is not None:
        if m != 1:
            print(
                "error: --class applies to one-period dropout (m=1)",
                file=sys.stderr,
            )
            return 2
        report["class"] = args.klass
        report["spectrum"] = class_ab_spectrum(t, args.klass)
        if t >= 5:
            report["class_ml"] = class_ab_ml(t, args.klass)
            report["class_el"] = el_ab(t, args.klass)
            report["class_disconnected"] = False
        else:
            report["class_ml"] = 1.0
            report["class_disconnected"] = True
        report["extreme_ml"] = extreme_ml(t)
    _emit(report, args.format, args.output)
    return 0


def _table_grid(which: int) -> dict[str, Any]:
    if which == 1:
        ts, m = TABLE1_T, 1
    else:
        ts, m = TABLE2_T, 2
    if which in (1, 2):
        rows = {
            "UML": [uml(t, m, star=False) for t in ts],
            "UML_star": [uml(t, m, star=True) for t in ts],
            "EL": [efficiency_bounds(t, m)[0] for t in ts],
            "EL_star": [efficiency_bounds(t, m)[1] for t in ts],
        }
        header = {"table": which, "m": m, "t": list(ts)}
    else:
        ts = tuple(t for t, _ in TABLE3)
        rows = {
            "ML": [class_ab_ml(t, k) for t, k in TABLE3],
            "EL_AB": [el_ab(t, k) for t, k in TABLE3],
        }
        header = {
            "table": 3,
            "m": 1,
            "t": list(ts),
            "class": [k for _, k in TABLE3],
        }
    out = dict(header)
    out["rows"] = {
        name: {
            "value": values,
            "rounded": [round(v, 2) for v in values],
        }
        for name, values in rows.items()
    }
    return out


def cmd_tables(args: argparse.Namespace) -> int:
    grid = _table_grid(args.table)
    report: dict[str, Any] = {"command": "tables"}
    report.update(grid)
    if args.format == "csv":
        ts = grid["t"]
        lines = ["metric," + ",".join(f"t={t}" for t in ts)]
        if "class" in grid:
            lines.append("class," + ",".join(grid["class"]))
        for name, row in grid["rows"].items():
            lines.append(
                f"{name}," + ",".join(str(_f(v)) for v in row["value"])
            )
            lines.append(
                f"{name}_rounded," + ",".join(f"{v:.2f}" for v in row["rounded"])
            )
        _write("\n".join(lines) + "\n", args.output)
        return 0
    _emit(report, "json", args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        design = _load_design(args.design)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        hazards = tuple(float(tok) for tok in args.hazards.split(","))
    except ValueError:
        print(f"error: cannot parse hazards {args.hazards!r}", file=sys.stderr)
        return 2
    try:
        model = DropoutModel(m=args.m, hazards=hazards)
        check_seed(args.seed)
        check_tail(design, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    try:
        result = simulate(design, model, n=args.n, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report: dict[str, Any] = {
        "command": "simulate",
        "design": args.design,
        "m": args.m,
        "hazards": list(model.hazards),
        "n": args.n,
        "seed": args.seed,
        "mean_loss": result.mean_loss,
        "max_loss": result.max_loss,
        "quantiles": {f"p{int(100 * q)}": v for q, v in result.quantiles},
        "p_disconnect": result.p_disconnect,
        "ordering_violations": result.ordering_violations,
        "ml": result.ml,
        "ml_disconnected": result.ml_disconnected,
    }
    _emit(report, args.format, args.output)
    if result.ordering_violations > 0:
        print(
            f"warning: {result.ordering_violations} information-ordering "
            "violations detected",
            file=sys.stderr,
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xover",
        description="Crossover designs balanced for carryover effects, "
        "with dropout-robustness analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a design and write it out")
    p_con.add_argument("--williams", type=int, metavar="T")
    p_con.add_argument("--pair", type=int, metavar="T")
    p_con.add_argument("--extreme", type=int, metavar="T")
    p_con.add_argument(
        "--fixture", action="append", metavar="NAME", help=", ".join(con.FIXTURE_NAMES)
    )
    p_con.add_argument(
        "--union",
        nargs="*",
        metavar="FILE",
        help="combine all sources (and any design files given here)",
    )
    p_con.add_argument("--reps", type=int, metavar="K")
    p_con.add_argument("-o", "--output", metavar="PATH")
    p_con.set_defaults(func=cmd_construct)

    p_eval = sub.add_parser("evaluate", help="information metrics for a design file")
    p_eval.add_argument("design", metavar="FILE")
    group = p_eval.add_mutually_exclusive_group()
    group.add_argument("--truncate", type=int, metavar="M")
    group.add_argument("--pattern", metavar="FILE")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("-o", "--output", metavar="PATH")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds for one (t, m)")
    p_bounds.add_argument("--t", type=int, required=True)
    p_bounds.add_argument("--m", type=int, default=1)
    p_bounds.add_argument("--type-w", dest="type_w", action="store_true")
    p_bounds.add_argument("--class", dest="klass", choices=("A", "B"))
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.add_argument("-o", "--output", metavar="PATH")
    p_bounds.set_defaults(func=cmd_bounds)

    p_tab = sub.add_parser("tables", help="regenerate the bound tables")
    p_tab.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    p_tab.add_argument("--format", choices=("json", "csv"), default="json")
    p_tab.add_argument("-o", "--output", metavar="PATH")
    p_tab.set_defaults(func=cmd_tables)

    p_sim = sub.add_parser("simulate", help="Monte Carlo dropout simulation")
    p_sim.add_argument("design", metavar="FILE")
    p_sim.add_argument("--m", type=int, default=1)
    p_sim.add_argument("--hazards", required=True, metavar="H1,..,HM")
    p_sim.add_argument("--n", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.add_argument("-o", "--output", metavar="PATH")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except BrokenPipeError:  # pragma: no cover - piping to head etc.
        return 0


if __name__ == "__main__":
    sys.exit(main())
