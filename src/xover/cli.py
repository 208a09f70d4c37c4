"""Command-line front end.

Subcommands: construct (build and save designs), evaluate (information
matrix, connectedness, and loss metrics for a design file), bounds
(closed-form bound tables for one t and m), tables (the full bound
grids), and simulate (Monte Carlo dropout).  Reports are JSON (default)
or CSV with floats at 6 significant digits.

Subcommands raise; main alone reports a failure: exactly one line on
stderr, "error:" and the message, and nothing on stdout.  The one
exception is argparse's own usage errors (usage text, exit code 2).
Exit codes: 0 success, 1 runtime, parse or file failure, 2 argument
error, 3 diagnostic violation from simulate (a result: its warning line
follows the report).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from collections.abc import Iterator
from typing import Any

import numpy as np

from . import construct as con
from .designs import (
    CrossoverDesign,
    _is_type_wm,
    _pattern_row,
    _short_int,
    _short_token,
    check_tail,
    classify,
    parse_design,
    validate_ubrmd,
    write_design,
)
from .metrics import (
    ACriteria,
    _class_ab_losses,
    against_plan,
    bounds_report,
    class_ab_spectrum,
    efficiency_lower_bound,
    extreme_ml,
)
from .simulate import DropoutModel, check_n, check_seed, simulate

TABLE1_T = (5, 6, 7, 8, 9, 10)
TABLE2_T = (8, 9, 10, 11, 12, 16)
TABLE3 = ((5, "B"), (6, "A"), (7, "B"), (8, "A"), (9, "B"), (10, "A"))
# bounds --class reports all t-1 spectrum values, so its t is bounded
_MAX_CLASS_T = 10_000


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
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {out_path}: {exc}") from exc


def _read(path: str) -> str:
    """The text of an input file, its bytes decoded as UTF-8; a file that
    cannot be opened or read fails as "cannot read PATH: ...".  Line
    endings are left as they are: every reader splits lines with
    str.splitlines, which takes CRLF and CR as text mode's newlines do."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    return data.decode()


def _load_design(path: str) -> CrossoverDesign:
    try:
        return parse_design(_read(path))
    except ValueError as exc:
        raise RuntimeError(f"{path}: {exc}") from exc


class _ArgumentError(Exception):
    """A bad command-line argument; main reports it with exit code 2."""


@contextlib.contextmanager
def _arguments(message: str | None = None) -> Iterator[None]:
    """Mark a command's argument checks: a ValueError or OverflowError
    raised inside becomes an _ArgumentError, worded as message if given."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise _ArgumentError(message or str(exc)) from exc


def cmd_construct(args: argparse.Namespace) -> int:
    sources: list[CrossoverDesign] = []
    with _arguments():
        if args.williams is not None:
            sources.append(con.williams_square(args.williams))
        if args.pair is not None:
            sources.append(con.williams_pair(args.pair))
        if args.extreme is not None:
            sources.append(con.extreme_design(args.extreme))
        for name in args.fixture or []:
            sources.append(con.fixture(name))
    sources.extend(_load_design(path) for path in args.union or [])
    if not sources:
        raise _ArgumentError("no construction source given")
    if len(sources) > 1 and args.union is None:
        raise _ArgumentError("multiple sources need --union to combine them")
    design = con.union(sources) if len(sources) > 1 else sources[0]
    if args.reps is not None:
        with _arguments():
            design = con.replicate(design, args.reps)
    text = write_design(design)
    report = validate_ubrmd(design)
    summary_lines = [
        f"t={design.t} p={design.p} s={design.s} g={design.g}",
        f"uniform-balanced: {'yes' if report.ok else 'no'}",
    ]
    for failure in report.failures:
        summary_lines.append(f"  {failure}")
    if report.ok:
        summary_lines.append(f"classification: {classify(design)}")
    # the summary goes wherever the design text does not
    _write(text, args.output)
    (sys.stdout if args.output else sys.stderr).write("\n".join(summary_lines) + "\n")
    return 0


def _spectrum_block(crit: ACriteria, b: int) -> dict[str, Any]:
    # 0.0 leads for the constant vector's structural zero; contrast
    # eigenvalues within the rank threshold print 0.0, roundoff digits unshown
    return {
        "rank": crit.rank[b],
        "connected": crit.connected[b],
        "eigenvalues": [0.0]
        + [0.0 if abs(v) <= crit.threshold[b] else _f(v) for v in crit.eigenvalues[b]],
        "h": crit.h[b],
        "trace_mp": crit.trace_mp[b],
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    design = _load_design(args.design)
    if args.truncate is not None:
        with _arguments():
            check_tail(design, args.truncate)
    validation = validate_ubrmd(design)
    report: dict[str, Any] = {
        "command": "evaluate",
        "design": args.design,
        "t": design.t,
        "p": design.p,
        "s": design.s,
        "g": design.g,
        "ubrmd": validation.ok,
        "classification": classify(design),
    }
    # the (B, s) completion rows evaluated against the plan, B = 0 or 1
    rows = np.empty((0, design.s), dtype=np.int64)
    if args.pattern is not None:
        rows = _pattern_row(_read(args.pattern))[None]
    elif args.truncate is not None:
        m = args.truncate
        rows = np.full((1, design.s), design.p - m)
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
            report["type_w"] = _is_type_wm(design, m)
            b = bounds_report(design.t, m)
            report.update(uml=b.uml, uml_star=b.uml_star, el=b.el, el_star=b.el_star)
            if not disconnected[1]:
                report["eff_lower_bound"] = efficiency_lower_bound(
                    crit.trace_mp[1], design.t, m, design.g
                )
    _emit(report, args.format, args.output)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    t, m = args.t, args.m
    # the report's keys are BoundsReport's fields, in their order
    with _arguments():
        report: dict[str, Any] = {
            "command": "bounds",
            **dataclasses.asdict(bounds_report(t, m)),
            "binding": "starred" if args.type_w else "plain",
        }
    if args.klass is not None:
        if m != 1:
            raise _ArgumentError("--class applies to one-period dropout (m=1)")
        if t > _MAX_CLASS_T:
            raise _ArgumentError(f"--class requires t <= {_MAX_CLASS_T}, got a larger t")
        report["class"] = args.klass
        report["spectrum"] = spectrum = class_ab_spectrum(t, args.klass)
        if t >= 5:
            ml, el = _class_ab_losses(t, args.klass, spectrum)
            report["class_ml"] = ml
            report["class_el"] = el
            report["class_disconnected"] = False
        else:
            report["class_ml"] = 1.0
            report["class_disconnected"] = True
        report["extreme_ml"] = extreme_ml(t)
    _emit(report, args.format, args.output)
    return 0


def _table_grid(which: int) -> dict[str, Any]:
    """Table 1 or 2, the bounds of one bounds_report per t, or table 3,
    the exact losses of one _class_ab_losses call per (t, class)."""
    if which == 3:
        ts, klasses = zip(*TABLE3)
        out = {"table": 3, "m": 1, "t": list(ts), "class": list(klasses)}
        ml, el = zip(*(_class_ab_losses(t, k) for t, k in TABLE3))
        rows = {"ML": list(ml), "EL_AB": list(el)}
    else:
        ts, m = (TABLE1_T, 1) if which == 1 else (TABLE2_T, 2)
        out = {"table": which, "m": m, "t": list(ts)}
        bounds = [bounds_report(t, m) for t in ts]
        rows = {
            "UML": [b.uml for b in bounds],
            "UML_star": [b.uml_star for b in bounds],
            "EL": [b.el for b in bounds],
            "EL_star": [b.el_star for b in bounds],
        }
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
    design = _load_design(args.design)
    with _arguments(f"cannot parse hazards {args.hazards!r}"):
        hazards = tuple(float(tok) for tok in args.hazards.split(","))
    with _arguments():
        model = DropoutModel(m=args.m, hazards=hazards)
        check_seed(args.seed)
        check_tail(design, args.m)
        check_n(args.n)
    result = simulate(design, model, n=args.n, seed=args.seed)
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


def _integer(text: str) -> int:
    """The argparse type of every integer option: int, with a text it
    refuses echoed short (designs._short_token), so that argparse's
    error line stays short."""
    try:
        return int(text)
    except ValueError:
        message = f"invalid int value: {_short_token(text)}"
        raise argparse.ArgumentTypeError(message) from None


def _table_number(text: str) -> int:
    """The argparse type of tables --table: 1, 2 or 3, a larger integer
    echoed short."""
    n = _integer(text)
    if n not in (1, 2, 3):
        message = f"invalid choice: {_short_int(n)} (choose from 1, 2, 3)"
        raise argparse.ArgumentTypeError(message)
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xover",
        description="Crossover designs balanced for carryover effects, "
        "with dropout-robustness analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a design and write it out")
    p_con.add_argument("--williams", type=_integer, metavar="T")
    p_con.add_argument("--pair", type=_integer, metavar="T")
    p_con.add_argument("--extreme", type=_integer, metavar="T")
    p_con.add_argument(
        "--fixture", action="append", metavar="NAME", help=", ".join(con.FIXTURE_NAMES)
    )
    p_con.add_argument(
        "--union",
        nargs="*",
        metavar="FILE",
        help="combine all sources (and any design files given here)",
    )
    p_con.add_argument("--reps", type=_integer, metavar="K")
    p_con.add_argument("-o", "--output", metavar="PATH")

    p_eval = sub.add_parser("evaluate", help="information metrics for a design file")
    p_eval.add_argument("design", metavar="FILE")
    group = p_eval.add_mutually_exclusive_group()
    group.add_argument("--truncate", type=_integer, metavar="M")
    group.add_argument("--pattern", metavar="FILE")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("-o", "--output", metavar="PATH")

    p_bounds = sub.add_parser("bounds", help="closed-form bounds for one (t, m)")
    p_bounds.add_argument("--t", type=_integer, required=True)
    p_bounds.add_argument("--m", type=_integer, default=1)
    p_bounds.add_argument("--type-w", dest="type_w", action="store_true")
    p_bounds.add_argument("--class", dest="klass", choices=("A", "B"))
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.add_argument("-o", "--output", metavar="PATH")

    p_tab = sub.add_parser("tables", help="regenerate the bound tables")
    p_tab.add_argument("--table", type=_table_number, metavar="{1,2,3}", required=True)
    p_tab.add_argument("--format", choices=("json", "csv"), default="json")
    p_tab.add_argument("-o", "--output", metavar="PATH")

    p_sim = sub.add_parser("simulate", help="Monte Carlo dropout simulation")
    p_sim.add_argument("design", metavar="FILE")
    p_sim.add_argument("--m", type=_integer, default=1)
    p_sim.add_argument("--hazards", required=True, metavar="H1,..,HM")
    p_sim.add_argument("--n", type=_integer, default=10000)
    p_sim.add_argument("--seed", type=_integer, default=0)
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.add_argument("-o", "--output", metavar="PATH")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call of the process.
    Parsing leaves it unchanged, so every main call can reuse it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place a failure becomes output.

    The argument parser is built once per process and reused.  The
    subcommand's cmd_<name> function is looked up in this module when
    main runs, so a replacement installed on the module (a tracing
    wrapper, say) runs in its place.
    """
    args = _parser().parse_args(argv)
    try:
        return int(globals()[f"cmd_{args.command}"](args))
    except BrokenPipeError:  # pragma: no cover - piping to head etc.
        return 0
    except _ArgumentError as exc:
        message, code = str(exc), 2
    except (ValueError, RuntimeError, OSError) as exc:
        message, code = str(exc), 1
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
