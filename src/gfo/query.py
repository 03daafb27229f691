"""The query sublanguage's parser and the answers of `gfo query`, loaded on
first use (docs/semantics.md, "Cold start").  ``answer`` calls the library
through module attributes, the names perfbench's tracer wraps."""

from __future__ import annotations

from . import dsl, functions, truthmakers
from .chrono import no_duration
from .dsl import _COORDINATE, EOF, NUMBER, ParseError, _Parser, _Positions, _shown, _Syntax, _lex
from .errors import GfoError
from .model import Model
from .truthmakers import AtTime, DuringSpan, FactProp, HoldsProp


def parse_query(text: str, m: Model | None = None):
    """Parse an elementary proposition.

    Forms: ``holds(subject, property, value)`` and ``fact relator(arg, ...)``
    with an optional time reference ``at <rational>`` or ``during [l, r]``
    and an optional trailing ``;``.  When a model is supplied, the property
    name of a ``holds`` proposition must be declared in it.  That check and
    the one for an empty ``during`` span are made only on a clean parse.
    """
    tokens, found = _lex(text)
    positions = _Positions(text, "<query>", tokens)
    parser = _Parser(tokens, positions, found)
    prop = None
    try:
        if parser.keyword("holds", "fact") == "holds":
            subject, prop_at, value = parser.holds_args()
            when = parser.pos
            fields = tokens[subject].text, tokens[prop_at].text, tokens[value].value
            prop = HoldsProp(*fields, _parse_time_ref(parser))
        else:
            relator, args = parser.relator_args()
            when = parser.pos
            patterns = tuple(tokens[i].value for i in args)
            prop = FactProp(tokens[relator].text, patterns, _parse_time_ref(parser))
        parser.end_block()
        tok = parser.tokens[parser.pos]
        if tok.kind != EOF:
            raise _Syntax(parser.pos, f"unexpected trailing input: {_shown(tok.text)}")
    except _Syntax as err:
        parser.report(err)
    if not found:  # a clean parse: the semantic checks
        if m is not None and type(prop) is HoldsProp and prop.prop not in m.property_defs:
            found.append((prop_at, "unknown-id", f"property {prop.prop!r} is not declared", 0))
        span = prop.time_ref
        if type(span) is DuringSpan and (message := no_duration(span.left, span.right)):
            found.append((when + 2, "zero-duration", message, 0))  # at l in `during [l, r]`
    if found:
        raise ParseError(positions.diagnostics(found))
    return prop


def _parse_time_ref(parser: _Parser):
    if parser.accept_word("at"):
        return AtTime(parser.tokens[parser.take(NUMBER, "a coordinate")].value)
    if parser.accept_word("during"):
        i, j = parser.shaped("[", _COORDINATE, ",", _COORDINATE, "]")
        return DuringSpan(parser.tokens[i].value, parser.tokens[j].value)
    return None


def answer(m: Model, args):
    """The answer to `gfo query` with ``--truthmakers``, ``--realizers``,
    ``--realizations`` or ``--classify``, as the JSON payload it prints."""
    if args.truthmakers is not None:
        prop = dsl.parse_query(args.truthmakers, m)
        return [tm.to_json() for tm in truthmakers.find_truthmakers(m, prop)]
    if args.classify is not None:
        prop_name, process_id = args.classify
        support = truthmakers.classify_property_support(prop_name, process_id, m)
        return {"property": prop_name, "process": process_id, "support": support.value}
    fn_id = args.realizers if args.realizers is not None else args.realizations
    fn = m.functions.get(fn_id)
    if fn is None:
        raise GfoError(f"function {fn_id!r} is not declared")
    if args.realizers is not None:
        return [x for x in m.index(functions._executed) if functions.is_actual_realizer(x, fn, m)]
    records = (functions.is_actual_realization(p, fn, m) for _, p in sorted(m.processes.items()))
    return [record.to_json() for record in records if record is not None]
