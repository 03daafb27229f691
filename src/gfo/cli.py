"""Command-line front-end: parse -> check -> query -> report.

Exit codes are a stable contract: 0 clean, 1 violations found, 2 usage or
load failure.  JSON output is key-sorted, so identical inputs produce
byte-identical reports.  Set GFO_COLOR=1 for ANSI colors in human output.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
from functools import cache

from . import checker, dsl, functions, truthmakers  # noqa: F401  (last two: for the tracer only)
from .chrono import coord, coord_str, fmt_value
from .dsl import ParseError, parse_file
from .errors import GfoError
from .model import Model

HUMAN = "human"
JSON = "json"


def _red(text: str) -> str:
    return f"\x1b[31m{text}\x1b[0m" if os.environ.get("GFO_COLOR", "") == "1" else text


def _write(text: str) -> None:
    """Write ``text`` to stdout.  A reader that closes stdout early
    (``gfo dump big.gfo | head``) ends the output without a traceback: the
    rest goes to the null device, and the command still returns its verdict."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(payload) -> None:
    from .render import write_json  # the writer, and json, load on the first JSON output
    write_json(payload, _write)


def _emit_diagnostics(exc: ParseError, output_format: str) -> None:
    if output_format == JSON:
        _emit_json({"diagnostics": [d.to_json() for d in exc.diagnostics]})
    else:
        for diagnostic in exc.diagnostics:
            print(_red(str(diagnostic)), file=sys.stderr)


def _load(path: str, output_format: str) -> Model | None:
    """The model in ``path``, or None once the reason it cannot be loaded
    has been reported."""
    try:
        return parse_file(path)
    except ParseError as exc:
        _emit_diagnostics(exc, output_format)
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable, or not UTF-8
        print(f"gfo: cannot read {path}: {exc}", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _trajectory_changes(m: Model, p, tol: Fraction) -> list:
    """The change points of every trajectory of ``p``."""
    out = []
    for prop in sorted(p.trajectories):
        points = checker.detect_process_changes(m, p, prop, tol)
        out.append({"property": prop, "points": [coord_str(t) for t in points]})
    return out


def _check_report(path: str, m: Model, args) -> dict:
    violations = list(checker.check_disjointness(m))
    derived: list = []
    if args.complete:
        m, derived = checker.complete_integration(m, args.integration)
    for c in m.continuants.values():
        if not c.material:
            continue
        result = checker.check_integration(m, c, args.integration)
        if not isinstance(result, checker.IntegrationWitness):
            violations.extend(result)
    violations.extend(checker.check_presential_dependence(m))

    continuant_changes = []
    for cid in sorted(m.continuants):
        changes = checker.detect_continuant_changes(m, m.continuants[cid])
        continuant_changes.append({"id": cid, "changes": len(changes)})
    trajectory_changes = [
        {"id": pid, **entry}
        for pid in sorted(m.processes)
        for entry in _trajectory_changes(m, m.processes[pid], args.tol)
    ]

    violations = checker.sort_violations(violations)
    return {
        "path": path,
        "entities": m.entity_count(),
        "samples": m.sample_count(),
        "violations": [v.to_json() for v in violations],
        "derived_processes": derived,
        "changes": {
            "continuants": continuant_changes,
            "trajectories": trajectory_changes,
        },
    }


def run_check(args) -> int:
    reports = []
    for path in args.inputs:
        m = _load(path, args.format)
        if m is None:
            return 2
        reports.append(_check_report(path, m, args))
    code = 1 if any(r["violations"] for r in reports) else 0  # whether or not all output is read
    if args.format == JSON:
        total = sum(len(r["violations"]) for r in reports)
        _emit_json({"files": reports, "total_violations": total})
        return code
    lines = []
    for report in reports:
        lines.append(
            f"{report['path']}: {len(report['violations'])} violations, "
            f"{report['entities']} entities, {report['samples']} samples"
        )
        for v in report["violations"]:
            at = f" at {v['at']}" if "at" in v else ""
            subjects = ", ".join(v["subjects"])
            lines.append(_red(f"  {v['axiom']}: {subjects}{at}: {v['message']}"))
        for pid in report["derived_processes"]:
            lines.append(f"  derived process {pid}")
        for entry in report["changes"]["continuants"]:
            if entry["changes"]:
                lines.append(f"  changes: {entry['id']}: {entry['changes']} change point(s)")
        for entry in report["changes"]["trajectories"]:
            if entry["points"]:
                points = ", ".join(entry["points"])
                lines.append(f"  changes: {entry['id']}.{entry['property']}: at {points}")
    _write("".join(line + "\n" for line in lines))
    return code


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def _query_changes(m: Model, entity: str, tol: Fraction):
    if entity in m.continuants:
        changes = checker.detect_continuant_changes(m, m.continuants[entity])
        return [
            {
                "t1": coord_str(t1),
                "t2": coord_str(t2),
                "property": prop,
                "from": fmt_value(v1),
                "to": fmt_value(v2),
            }
            for t1, t2, prop, v1, v2 in changes
        ]
    if entity in m.processes:
        return _trajectory_changes(m, m.processes[entity], tol)
    raise GfoError(f"{entity!r} is not a continuant or process")


def run_query(args) -> int:
    m = _load(args.inputs[0], JSON)
    if m is None:
        return 2
    try:
        if args.changes is not None:
            result = _query_changes(m, args.changes, args.tol)
        else:
            from .query import answer  # the query parser and handlers load on first use
            result = answer(m, args)
    except ParseError as exc:
        _emit_diagnostics(exc, JSON)
        return 2
    except (GfoError, TypeError) as exc:
        print(f"gfo: {exc}", file=sys.stderr)
        return 2
    _emit_json(result)
    return 0


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------


def run_dump(args) -> int:
    m = _load(args.inputs[0], JSON)
    if m is None:
        return 2
    _emit_json(dsl.model_to_json(m))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> Fraction:
    try:
        value = coord(text)  # a rational literal of the grammar, as the lexer reads one
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational") from None
    if value < 0:
        raise argparse.ArgumentTypeError("tolerance must be non-negative")
    return value


@cache  # built once per process: a parser is a web of reference cycles
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfo",
        description="Load .gfo model files, verify the axioms, run queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify all axioms over the model(s)")
    check.add_argument("inputs", nargs="+", metavar="FILE")
    check.add_argument(
        "--complete",
        action="store_true",
        help="derive the missing integration process for material continuants",
    )
    check.add_argument(
        "--integration",
        choices=[checker.IDENTITY, checker.VALUATION],
        default=checker.IDENTITY,
        help="how exhibited presentials and process boundaries must agree",
    )
    check.add_argument(
        "--tol", type=_tolerance, default=coord(0), metavar="R",
        help="numeric discontinuity tolerance (a rational literal of the grammar)",
    )
    check.add_argument("--format", choices=[HUMAN, JSON], default=HUMAN)

    query = sub.add_parser("query", help="evaluate one query against a model")
    query.add_argument("inputs", nargs=1, metavar="FILE")
    which = query.add_mutually_exclusive_group(required=True)
    which.add_argument("--truthmakers", metavar="PROP")
    which.add_argument("--realizers", metavar="FUNCTION")
    which.add_argument("--realizations", metavar="FUNCTION")
    which.add_argument("--changes", metavar="ENTITY")
    which.add_argument("--classify", nargs=2, metavar=("PROPERTY", "PROCESS"))
    query.add_argument(
        "--tol", type=_tolerance, default=coord(0), metavar="R",
        help="numeric discontinuity tolerance for --changes on a process (a rational literal)",
    )

    dump = sub.add_parser("dump", help="print the canonical JSON store")
    dump.add_argument("inputs", nargs=1, metavar="FILE")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command makes no reference cycles: docs/semantics.md
    try:
        if args.command == "check":
            return run_check(args)
        if args.command == "query":
            return run_query(args)
        return run_dump(args)
    finally:
        if collecting:
            gc.enable()


def __getattr__(name: str):
    """``model_to_json``, as ``gfo.dsl`` loads it on first use."""
    if name == "model_to_json":
        return dsl.model_to_json
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def entry() -> int:
    """``main`` for a process that ends with the command: ``python -m gfo``
    and the ``gfo`` script.  Every object left is frozen out of the cyclic
    collector, so the exit collections scan none of them (docs/semantics.md)."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(entry())
