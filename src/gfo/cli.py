"""Command-line front-end: parse -> check -> query -> report.

Exit codes are a stable contract: 0 clean, 1 violations found, 2 usage or
load failure.  JSON output is key-sorted, so identical inputs produce
byte-identical reports.  Set GFO_COLOR=1 for ANSI colors in human output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from . import checker
from .chrono import coord, coord_str, fmt_value
from .dsl import NUMBER, ParseError, _tokenize, model_to_json, parse_file, parse_query
from .errors import GfoError
from .functions import _executed, is_actual_realization, is_actual_realizer
from .model import Model
from .truthmakers import classify_property_support, find_truthmakers

HUMAN = "human"
JSON = "json"


def _color_enabled() -> bool:
    return os.environ.get("GFO_COLOR", "") == "1"


def _red(text: str) -> str:
    return f"\x1b[31m{text}\x1b[0m" if _color_enabled() else text


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


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}  # looked up by identity only


def _json_parts(value, pad: str, out: list) -> None:
    """Append ``value`` as JSON to ``out``, one item a line, each line after
    ``pad``: a newline and the current indent."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    else:  # numbers and empty containers
        out.append(json.dumps(value))


def _emit_json(payload) -> None:
    """Write ``payload`` as ``print(json.dumps(payload, indent=2,
    sort_keys=True))`` would, in about half the time; differential tests in
    tests/test_cli.py pin the two together for payloads like gfo's: string
    keys; strings, numbers, booleans, None, lists and tuples as values.  A
    dict is written one entry at a time, so the parts held at once are
    those of its largest entry, not of the whole document."""
    if not (isinstance(payload, dict) and payload):
        _json_parts(payload, "\n", out := [])
        _write("".join(out) + "\n")
        return
    sep = "{\n  "
    for key, item in sorted(payload.items()):
        out = [sep + encode_basestring_ascii(key) + ": "]
        _json_parts(item, "\n  ", out)
        _write("".join(out))
        sep = ",\n  "
    _write("\n}\n")


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


def _query_truthmakers(m: Model, text: str):
    prop = parse_query(text, m)
    return [tm.to_json() for tm in find_truthmakers(m, prop)]


def _function(m: Model, fn_id: str):
    fn = m.functions.get(fn_id)
    if fn is None:
        raise GfoError(f"function {fn_id!r} is not declared")
    return fn


def _query_realizers(m: Model, fn_id: str):
    fn = _function(m, fn_id)
    return [x for x in m.index(_executed) if is_actual_realizer(x, fn, m)]


def _query_realizations(m: Model, fn_id: str):
    fn = _function(m, fn_id)
    out = []
    for pid in sorted(m.processes):
        record = is_actual_realization(m.processes[pid], fn, m)
        if record is not None:
            out.append(asdict(record))
    return out


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


def _query_classify(m: Model, prop_name: str, process_id: str):
    support = classify_property_support(prop_name, process_id, m)
    return {
        "property": prop_name,
        "process": process_id,
        "support": support.value,
    }


def run_query(args) -> int:
    m = _load(args.inputs[0], JSON)
    if m is None:
        return 2
    try:
        if args.truthmakers is not None:
            result = _query_truthmakers(m, args.truthmakers)
        elif args.realizers is not None:
            result = _query_realizers(m, args.realizers)
        elif args.realizations is not None:
            result = _query_realizations(m, args.realizations)
        elif args.changes is not None:
            result = _query_changes(m, args.changes, args.tol)
        else:
            result = _query_classify(m, args.classify[0], args.classify[1])
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
    _emit_json(model_to_json(m))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> Fraction:
    tokens = _tokenize(text, "--tol", diagnostics := [])
    if diagnostics or tokens[0].kind != NUMBER or tokens[0].text != text:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational")
    if tokens[0].value < 0:
        raise argparse.ArgumentTypeError("tolerance must be non-negative")
    return tokens[0].value


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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
