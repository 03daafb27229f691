"""Byte-identity pins for everything the kernel prints.

Each test renders a family of outputs, feeds the bytes to sha256 and
compares the digest with the one recorded below.  The families are the
corpus reports (`gfo check` human and JSON, completed valuation-mode JSON),
`gfo dump`, `serialize`, both renderings of seeded random stores built in
code, the corpus queries, every parse diagnostic (code,
file, line, column, length, message) over a fixed-seed set of corpus
mutations, a handful of malformed queries, the lexer's tokens and
diagnostics over fixed-seed random strings drawn from every lexical class,
and the linker's diagnostics over small hand-written sources that reach
each of its diagnostics from each place that can raise it.
Paths are repo-relative, so the digests do not depend on where the
checkout lives.

A refactor must leave every digest unchanged.  When an output change is
intended, print the new digests with
``PYTHONPATH=src python tests/test_golden.py`` and
say in the commit why the bytes moved.  Run that way, the file needs no
pytest and exits 1 when any digest differs from ``DIGESTS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
from pathlib import Path

from genmodels import random_full_model, random_realization_model
from gfo import cli
from gfo.dsl import ParseError, _Positions, _tokenize, parse, parse_file, parse_query, serialize

REPO = Path(__file__).resolve().parent.parent

CORPUS = sorted(f"corpus/{p.name}" for p in (REPO / "corpus").glob("*.gfo"))

MUTATION_SEED = 20261017
MUTATION_COUNT = 2000
# literals spliced in by the swap mutation, besides those of the file itself
LITERAL_POOL = ("0", "1", "-1", "1/2", "0.25", "1/0", "7", "x", "_", '"s"', "yes")
STRAY = ";{}()[],=@:->\"/\\#"
LITERAL = re.compile(r"-?\d+(?:[./]\d+)?|[A-Za-z_][A-Za-z0-9_-]*|\"[^\"\n]*\"")

# stores built in code hold plain Fractions and sets in generated order,
# which no parsed corpus file does
RENDER_SEED = 20261021
RENDER_COUNTS = ((random_full_model, 200), (random_realization_model, 100))

LEXER_SEED = 20261018
LEXER_COUNT = 5000
LEXER_MAX_LENGTH = 24
# one or two characters of every lexical class, whitespace and non-ASCII included
LEXER_ALPHABET = tuple('aZ_09-/."\\;{}()[]@:,=>#') + (" ", "\t", "\r", "\n", "\u00e9", "\xa0")

QUERIES = (
    "",
    "holds",
    "holds(",
    "holds(blood, position)",
    "holds(blood, nosuch, in_heart)",
    "holds(blood, position, in_heart) at",
    "holds(blood, position, in_heart) during [2, 1]",
    "holds(blood, position, in_heart) during [1/0, 2]",
    "fact position(blood, _",
    "fact position() at 0",
    "fact position(blood, _) extra",
    "fact (blood)",
    "maybe position(blood)",
    'fact position("s", 1);',
    "holds(blood, position, in_heart) at 0;",
    "fact position(blood, _) during [0, 3/2]",
)

# Lexically and syntactically clean sources, each after LINKER_BASE, that
# reach every linker diagnostic from every caller of the helper raising it.
LINKER_BASE = (
    "chronoid c = [0, 2];\n"
    "property hue : categorical { red, blue };\n"
    "property v : numeric nonisolated(1/2);\n"
    "presential a at c@0 { hue = red; }\n"
    "presential b at c@2;\n"
)
LINKER_CASES = (
    "chronoid c = [0, 3];",
    "property hue : numeric;",
    "function f { requires { fact r(_); } achieves { fact r(_); } }\n"
    "function f { requires { fact r(_); } achieves { fact r(_); } }",
    "presential a at c@0;",
    "process a extent c { boundary 0 -> a; boundary 2 -> b; }",
    "property w : numeric nonisolated(0);",
    "property w : numeric nonisolated(-1/2);",
    "chronoid z = [1, 1];",
    "chronoid z = [2, 1/2];",
    "presential x at c@3;",
    "presential x at nowhere@1;",
    "presential x at c@1 { nosuch = red; }",
    "presential x at c@1 { v = 1; }",
    "presential x at c@1 { hue = red; hue = blue; }",
    "presential x at c@1 { hue = green; }",
    "process p extent c { boundary 0 -> a; boundary 3 -> b; boundary 2 -> b; }",
    "process p extent c { boundary 0 -> a; boundary 0 -> a; boundary 2 -> b; }",
    "process p extent c { boundary 0 -> ghost; boundary 2 -> b; }",
    "process p extent c { boundary 0 -> p; boundary 2 -> b; }",
    "process p extent c { boundary 0 -> b; boundary 2 -> b; }",
    "process p extent c { boundary 0 -> a; }",
    "process p extent c;",
    "process p extent nowhere { boundary 0 -> a; }",
    "process p extent c { boundary 0 -> a; boundary 2 -> b; trajectory nosuch { 0 -> 1; } }",
    "process p extent c { boundary 0 -> a; boundary 2 -> b; trajectory hue { 0 -> red; } }",
    "process p extent c { boundary 0 -> a; boundary 2 -> b;\n"
    "  trajectory v { 0 -> 1; } trajectory v { 1 -> 2; } }",
    "process p extent c { boundary 0 -> a; boundary 2 -> b; trajectory v { 5/2 -> 1; } }",
    "process p extent c { boundary 0 -> a; boundary 2 -> b; trajectory v { 1 -> 1; 1 -> 2; } }",
    "process p extent c { boundary 0 -> a; boundary 2 -> b; trajectory v { 1 -> red; } }",
    "continuant k lifetime c { exhibits 0 -> a; exhibits -1 -> a; exhibits 2 -> b; }",
    "continuant k lifetime c { exhibits 0 -> a; exhibits 2 -> b; exhibits 2 -> b; }",
    "continuant k lifetime c { exhibits 0 -> a; exhibits 2 -> ghost; }",
    "continuant k lifetime c { exhibits 0 -> a; exhibits 2 -> k; }",
    "continuant k lifetime c { exhibits 0 -> a; exhibits 2 -> a; }",
    "continuant k lifetime c { exhibits 2 -> b; }",
    "continuant k lifetime nowhere;",
    "fact f = hue(a); situation s during c { contains f; }",
    "fact f = hue(a, red, blue); situation s during c { contains f; }",
    "fact f = hue(1/2, red); situation s during c { contains f; }",
    "fact f = hue(ghost, red); situation s during c { contains f; }",
    "fact f = hue(a, green); situation s during c { contains f; }",
    "fact f = hue(a, 1); situation s during c { contains f; }",
    "fact f = likes(a, 1); situation s during c { contains f; }",
    "fact f = likes(a, ghost); situation s during c { contains f; }",
    "fact f = likes(a, b);",
    "fact f = likes(a, b); fact g = likes(b, a); situation s during c { contains g; }",
    "situation s at c@3;",
    "situation s at nowhere@0;",
    "situation s during nowhere;",
    "situation s during c founded on ghost;",
    "situation s at c@0 founded on a;",
    "situation s during c { contains ghost; }",
    "situation s during c { contains a; }",
    "situation s during c { participant ghost; participant a; }",
    "function f { requires { } achieves { fact r(_); } }",
    "function f { requires { fact r(_); } achieves { } }",
    "function f { achieves { fact r(_); } }",
    "function f { label \"x\"; }",
    "function f individual { requires { fact r(_); } achieves { fact r(_); } }",
    "function f individual bearer ghost { requires { fact r(_); } achieves { fact r(_); } }",
    "function f bearer a { requires { fact r(_); } achieves { fact r(_); } }",
    "function f { requires { holds(a, nosuch, red); } achieves { fact r(_); } }",
    "function f { requires { fact r(_); } achieves { holds(a, hue, green); fact r(_); } }",
    "function f { requires { holds(ghost, hue, red); } achieves { fact r(_); } }",
    "function f { requires { fact r(_); } achieves { fact r(_); } fitem { nosuch = 1; } }",
    "function f { requires { fact r(_); } achieves { fact r(_); } fitem { hue = 2; } }",
    "process p extent c { boundary 0 -> a; boundary 2 -> b; }\nexe(ghost, p);",
    "exe(a, a);",
    "exe(a, ghost);",
    "situation s during c;\nrequirement-instance(ghost, s);",
    "function f { requires { fact r(_); } achieves { fact r(_); } }\ngoal-instance(f, ghost);",
    "function f { requires { fact r(_); } achieves { fact r(_); } }\ngoal-instance(f, a);",
    "function f { requires { fact r(_); } achieves { fact r(_); } }\n"
    "situation s during c;\nrequirement-instance(f, s);\ngoal-instance(f, s);",
)

DIGESTS = {
    "check-human": "a28d9e0c763b3e05e83bd03ee4e3cc35337445e288b9d2a345780c16c6f7556c",
    "check-json": "2d6a41f23d41b5640c58b863b4c8551c61d09a425e49bda3bd074fb8618c65b0",
    "check-complete-valuation-json": "da599de9a8f671431e32f401f07a80227d8609168349441eef600874b791cbde",
    "dump": "009f9693fded42f5ffecbead1ba9d73aa5e852aa823a439319e77eab2d113a6f",
    "serialize": "34d1b576b3134b1c54cdf740a0ace2d08bea1fe4f80367fa571ca8262103dc59",
    "query": "29bdf064e078658571bd1c28e383ae89822d86bb61a472ef1f2a8f0a1ac4809e",
    "mutations": "e803a973b834baf972efdd7a1ff58e739222a567eb1b3e3f2a1ad85840678ae9",
    "parse-query": "7796bf16770c973adc235efdf6f482ceefe2801f50802b5a13fafd1725d5ac56",
    "lexer": "448a60877c8fd89f99f2286f2067176f171185a06e3499dc10265b110da8df7b",
    "linker": "a945d2d049a142b531b1954a7322d7460d6e2f9d974431731db789b8f59438c1",
    "render": "1dd59fc863b3e72c57d02c400a221c54f2dfb6a66c8efbd54144590af2760f6e",
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(json.dumps(chunk, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return [list(argv), code, out.getvalue(), err.getvalue()]


def _diagnostics(exc: ParseError) -> list:
    return [
        [d.code, d.span.file, d.span.line, d.span.column, d.span.length, d.message]
        for d in exc.diagnostics
    ]


def _render(name: str) -> list:
    if name == "check-human":
        return [_cli("check", path) for path in CORPUS]
    if name == "check-json":
        return [_cli("check", path, "--format", "json") for path in CORPUS]
    if name == "check-complete-valuation-json":
        return [
            _cli("check", path, "--complete", "--integration=valuation", "--format", "json")
            for path in CORPUS
        ]
    if name == "dump":
        return [_cli("dump", path) for path in CORPUS]
    if name == "serialize":
        return [[path, serialize(parse_file(path))] for path in CORPUS]
    if name == "query":
        return _queries()
    if name == "mutations":
        return _mutations()
    if name == "lexer":
        return _lexer()
    if name == "linker":
        return _linker()
    if name == "render":
        return _render_built()
    return _parse_queries()


def _queries() -> list:
    out = []
    for path in CORPUS:
        m = parse_file(path)
        for fn in sorted(m.functions):
            out.append(_cli("query", path, "--realizations", fn))
            out.append(_cli("query", path, "--realizers", fn))
        for entity in sorted(m.continuants) + sorted(m.processes):
            out.append(_cli("query", path, "--changes", entity, "--tol", "1/2"))
        for fid in sorted(m.facts):
            fact = m.facts[fid]
            args = ", ".join("_" if i % 2 else str(a) for i, a in enumerate(fact.args))
            out.append(_cli("query", path, "--truthmakers", f"fact {fact.relator}({args})"))
            if fact.relator in m.property_defs:
                subject, value = fact.args
                text = f"holds({subject}, {fact.relator}, {value})"
                out.append(_cli("query", path, "--truthmakers", text))
        for prop in sorted(m.property_defs):
            for pid in sorted(m.processes)[:2]:
                out.append(_cli("query", path, "--classify", prop, pid))
    return out


def _render_built() -> list:
    rng = random.Random(RENDER_SEED)
    out = []
    for make, count in RENDER_COUNTS:
        for i in range(count):
            m = make(rng)
            dump = json.dumps(cli.model_to_json(m), indent=2, sort_keys=True)
            out.append([make.__name__, i, serialize(m), dump])
    return out


def _mutate(rng: random.Random, text: str) -> tuple:
    kind = rng.choice(("delete", "duplicate", "swap", "stray"))
    if kind == "delete":
        i = rng.randrange(len(text))
        return kind, text[:i] + text[i + rng.randint(1, 12):]
    if kind == "duplicate":
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        return kind, "\n".join(lines[: i + 1] + lines[i:])
    if kind == "swap":
        spans = [m.span() for m in LITERAL.finditer(text)]
        start, end = rng.choice(spans)
        if rng.random() < 0.5:
            a, b = rng.choice(spans)
            new = text[a:b]
        else:
            new = rng.choice(LITERAL_POOL)
        return kind, text[:start] + new + text[end:]
    i = rng.randrange(len(text) + 1)
    return kind, text[:i] + rng.choice(STRAY) + text[i:]


def _mutations() -> list:
    rng = random.Random(MUTATION_SEED)
    sources = {path: (REPO / path).read_text(encoding="utf-8") for path in CORPUS}
    out = []
    for n in range(MUTATION_COUNT):
        path = rng.choice(CORPUS)
        kind, text = _mutate(rng, sources[path])
        try:
            result = ["ok", serialize(parse(text, file=path))]
        except ParseError as exc:
            result = ["error", _diagnostics(exc)]
        out.append([n, path, kind, result])
    return out


def _parse_queries() -> list:
    m = parse_file("corpus/heart.gfo")
    out = []
    for text in QUERIES:
        for model in (None, m):
            try:
                result = ["ok", repr(parse_query(text, model))]
            except ParseError as exc:
                result = ["error", _diagnostics(exc)]
            out.append([text, model is not None, result])
    return out


def _lexer() -> list:
    rng = random.Random(LEXER_SEED)
    out = []
    for _ in range(LEXER_COUNT):
        length = rng.randint(0, LEXER_MAX_LENGTH)
        source = "".join(rng.choice(LEXER_ALPHABET) for _ in range(length))
        if "\\\n" in source:
            continue  # positions after an escaped newline are pinned in test_dsl.py
        diagnostics = []
        tokens = _tokenize(source, "<input>", diagnostics)
        spans = map(_Positions(source, "<input>", tokens).span, range(len(tokens)))
        out.append(
            [
                source,
                [[t.kind, t.text, str(t.value), s.line, s.column] for t, s in zip(tokens, spans)],
                [[d.code, d.span.line, d.span.column, d.span.length, d.message] for d in diagnostics],
            ]
        )
    return out


def _linker() -> list:
    out = []
    for case in LINKER_CASES:
        try:
            result = ["ok", serialize(parse(LINKER_BASE + case, file="linker.gfo"))]
        except ParseError as exc:
            result = ["error", _diagnostics(exc)]
        out.append([case, result])
    return out


def _check(name: str, monkeypatch) -> None:
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("GFO_COLOR", raising=False)
    assert _digest(_render(name)) == DIGESTS[name], f"{name} output changed"


def test_corpus_check_human_is_byte_identical(monkeypatch):
    _check("check-human", monkeypatch)


def test_corpus_check_json_is_byte_identical(monkeypatch):
    _check("check-json", monkeypatch)


def test_corpus_completed_valuation_check_is_byte_identical(monkeypatch):
    _check("check-complete-valuation-json", monkeypatch)


def test_corpus_dump_is_byte_identical(monkeypatch):
    _check("dump", monkeypatch)


def test_corpus_serialize_is_byte_identical(monkeypatch):
    _check("serialize", monkeypatch)


def test_built_store_renderings_are_byte_identical(monkeypatch):
    _check("render", monkeypatch)


def test_corpus_queries_are_byte_identical(monkeypatch):
    _check("query", monkeypatch)


def test_mutation_diagnostics_are_byte_identical(monkeypatch):
    _check("mutations", monkeypatch)


def test_malformed_query_diagnostics_are_byte_identical(monkeypatch):
    _check("parse-query", monkeypatch)


def test_lexer_tokens_and_diagnostics_are_byte_identical(monkeypatch):
    _check("lexer", monkeypatch)


def test_linker_diagnostics_are_byte_identical(monkeypatch):
    _check("linker", monkeypatch)


if __name__ == "__main__":
    os.chdir(REPO)
    os.environ.pop("GFO_COLOR", None)
    changed = []
    for key, expected in DIGESTS.items():
        digest = _digest(_render(key))
        print(f'    "{key}": "{digest}",')
        if digest != expected:
            changed.append(key)
    if changed:
        print(f"changed: {', '.join(changed)}", file=sys.stderr)
        sys.exit(1)
