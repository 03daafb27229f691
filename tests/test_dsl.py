import gc
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from genmodels import all_miss_model, random_full_model
from gfo import chrono, dsl
from gfo.chrono import Time, TimeBoundary, coord_str
from gfo.dsl import (
    DIAGNOSTIC_CODES,
    ParseError,
    Token,
    _Positions,
    _tokenize,
    parse,
    parse_file,
    parse_query,
    serialize,
)
from gfo.model import CATEGORICAL
from helpers import REPO, corpus_files, lines_run, split_statements
from test_golden import MUTATION_SEED, _mutate

sys.path.insert(0, str(REPO / "perfbench"))
import worlds  # noqa: E402

MINIMAL = """
chronoid c = [0,2];
presential m0 at c@0;
presential m1 at c@1;
presential m2 at c@2;
continuant John lifetime c {
  exhibits 0 -> m0;
  exhibits 1 -> m1;
  exhibits 2 -> m2;
}
"""


def codes_of(source: str) -> list:
    with pytest.raises(ParseError) as err:
        parse(source)
    return [d.code for d in err.value.diagnostics]


def test_parse_minimal_example():
    m = parse(MINIMAL)
    assert set(m.continuants) == {"John"}
    assert set(m.presentials) == {"m0", "m1", "m2"}
    assert sorted(m.continuants["John"].exhibit_map) == [0, 1, 2]


def test_parsed_numbers_and_coordinates_are_time():
    # the cached hash and direct comparisons live on chrono.Time; a parse
    # that fell back to plain Fractions would stay correct but lose them
    numbers = [tok.value for tok in _tokenize(MINIMAL, "<t>", []) if tok.kind == dsl.NUMBER]
    assert len(numbers) == 8 and {type(v) for v in numbers} == {Time}
    m = parse(MINIMAL)
    ch = m.chronoids["c"]
    assert type(ch.left) is Time and type(ch.right) is Time
    assert {type(t) for t in m.continuants["John"].exhibit_map} == {Time}
    assert {type(p.at.coordinate) for p in m.presentials.values()} == {Time}


def test_parse_zero_duration_chronoid():
    assert "zero-duration" in codes_of("chronoid c = [5,5];")


def test_parse_dangling_reference():
    source = MINIMAL.replace("exhibits 1 -> m1;", "exhibits 1 -> ghost;")
    assert "dangling-reference" in codes_of(source)


def test_concept_holds_must_name_a_declared_entity():
    source = (
        "property hue : categorical { red };\n"
        "function f { requires { holds(ghost, hue, red); } achieves { fact r(_); } }\n"
    )
    with pytest.raises(ParseError) as err:
        parse(source)
    [diag] = err.value.diagnostics
    assert (diag.code, diag.span.line, diag.span.column) == ("dangling-reference", 2, 31)
    assert diag.message == "'ghost' is not declared"


def test_parse_kind_conflict():
    source = MINIMAL + "\nprocess John extent c { boundary 0 -> m0; boundary 2 -> m2; }\n"
    assert "kind-conflict" in codes_of(source)


def test_parse_duplicate_id():
    source = MINIMAL + "\npresential m0 at c@0;\n"
    assert "duplicate-id" in codes_of(source)


def test_parse_bad_rational():
    assert "bad-rational" in codes_of("chronoid c = [1/0, 2];")


def bad_rationals(source: str) -> list:
    with pytest.raises(ParseError) as err:
        parse(source)
    return [
        (str(d.span), d.span.length, d.message)
        for d in err.value.diagnostics
        if d.code == "bad-rational"
    ]


def test_rational_literal_digit_bound():
    nines, ones = "9" * 299, "1" * 149
    m = parse(f"chronoid c = [-1/{nines}, 1{nines}]; chronoid d = [0, 0.{ones}];")
    assert (m.chronoids["c"].right, m.chronoids["d"].right) == (int(f"1{nines}"), Fraction(f"0.{ones}"))
    assert parse(serialize(m)) == m
    assert bad_rationals(f"chronoid c = [0, -{nines}/99];") == [
        ("<input>:1:18", 303, "'-9999999999999999999'... has 301 digits; a rational literal has at most 300")
    ]
    # 300 digits as a decimal, but 600 as the p/q that serialize would write
    assert bad_rationals(f"chronoid c = [0, 9.{nines}];") == [
        ("<input>:1:18", 301, "'9.999999999999999999'... has 600 digits as p/q; a rational literal has at most 300")
    ]
    assert bad_rationals(f"chronoid c = [0, 0.{ones}1];") == [
        ("<input>:1:18", 152, "'0.111111111111111111'... has 301 digits as p/q; a rational literal has at most 300")
    ]


def test_long_rational_literal_is_bad_under_any_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        found = bad_rationals(f"chronoid c = [0, {'9' * 5000}];")
    finally:
        sys.set_int_max_str_digits(limit)
    assert found == [
        ("<input>:1:18", 5000, "'99999999999999999999'... has 5000 digits; a rational literal has at most 300")
    ]


def test_digits_are_ascii():
    for digit in ("\u0663", "\u00b2"):  # ARABIC-INDIC DIGIT THREE, SUPERSCRIPT TWO
        with pytest.raises(ParseError) as err:
            parse(f"chronoid c = [0, {digit}];")
        first = err.value.diagnostics[0]
        assert (str(first.span), first.code) == ("<input>:1:18", "unexpected-token")
        assert first.message == f"unexpected character {digit!r}"


def test_parse_unknown_property():
    source = "chronoid c = [0,1]; presential x at c@0 { hue = red; } presential y at c@1;"
    assert "unknown-id" in codes_of(source)


def test_parse_out_of_extent():
    source = "chronoid c = [0,1]; presential x at c@7;"
    assert "out-of-extent" in codes_of(source)


def test_parse_missing_endpoint():
    source = (
        "chronoid c = [0,2]; presential m0 at c@0; presential m2 at c@2;"
        " continuant J lifetime c { exhibits 0 -> m0; }"
    )
    assert "missing-endpoint" in codes_of(source)


def test_parse_coordinate_mismatch():
    source = (
        "chronoid c = [0,2]; presential m0 at c@0; presential m2 at c@2;"
        " process P extent c { boundary 0 -> m0; boundary 2 -> m0; }"
    )
    codes = codes_of(source)
    assert "coordinate-mismatch" in codes


def test_parse_bad_value():
    source = (
        "chronoid c = [0,1]; property hue : categorical { red } isolated;"
        " presential x at c@0 { hue = green; } presential y at c@1;"
    )
    assert "bad-value" in codes_of(source)


def test_parse_orphan_fact():
    source = MINIMAL + "\nfact lonely = likes(John, John);\n"
    assert "orphan-fact" in codes_of(source)


def test_parse_empty_concept():
    source = MINIMAL + "\nfunction f { requires { } achieves { fact r(_); } }\n"
    assert "empty-concept" in codes_of(source)


def test_parse_exe_target_must_be_process():
    source = MINIMAL + "\nexe(m0, John);\n"
    assert "kind-conflict" in codes_of(source)


def test_parse_instance_requires_declared_function():
    source = MINIMAL + "\nsituation s at c@0;\nrequirement-instance(f_ghost, s);\n"
    assert "unknown-id" in codes_of(source)


def test_parse_individual_function_needs_bearer():
    source = MINIMAL + "\nfunction f individual { requires { fact r(_); } achieves { fact r(_); } }\n"
    assert "dangling-reference" in codes_of(source)


def test_parse_isolated_trajectory_conflict():
    source = (
        "chronoid c = [0,1]; property hue : categorical { red } isolated;"
        " presential a at c@0; presential b at c@1;"
        " process P extent c { boundary 0 -> a; boundary 1 -> b;"
        " trajectory hue { 0 -> red; } }"
    )
    assert "kind-conflict" in codes_of(source)


def test_parse_nonisolated_valuation_conflict():
    source = (
        "chronoid c = [0,1]; property v : numeric nonisolated(1/2);"
        " presential a at c@0 { v = 3; } presential b at c@1;"
    )
    assert "kind-conflict" in codes_of(source)


def test_all_diagnostics_carry_valid_spans():
    source = (
        "chronoid c = [5,5];\n"
        "presential x at c@9 ???\n"
        "fact broken = r();\n"
        "exhibits 1 -> ghost;\n"
    )
    lines = source.splitlines()
    with pytest.raises(ParseError) as err:
        parse(source, file="bad.gfo")
    assert err.value.diagnostics
    for d in err.value.diagnostics:
        assert d.code in DIAGNOSTIC_CODES
        assert d.span.file == "bad.gfo"
        assert 1 <= d.span.line <= len(lines)
        assert 1 <= d.span.column <= len(lines[d.span.line - 1]) + 1
        assert d.span.length >= 1


def test_parse_never_returns_partial_model():
    # first statement is fine, second is broken: no model either way
    source = "chronoid ok = [0,1];\nchronoid bad = [2,2];\n"
    with pytest.raises(ParseError):
        parse(source)


def test_serialize_normalizes_rationals():
    m = parse("chronoid c = [2/4, 6/4];\npresential a at c@0.75 immaterial;\npresential l at c@1/2;\npresential r at c@3/2;")
    text = serialize(m)
    assert "chronoid c = [1/2, 3/2];" in text
    assert "presential a at c@3/4 immaterial;" in text


def test_serialize_round_trip_on_corpus():
    for path in corpus_files():
        m = parse_file(path)
        again = parse(serialize(m), file=str(path))
        assert again == m, path
        assert serialize(again) == serialize(m), path


def test_parse_is_declaration_order_independent():
    base = parse_file(corpus_files()[0])
    text = serialize(base)
    statements = split_statements(text)
    rng = random.Random(11)
    for _ in range(5):
        rng.shuffle(statements)
        shuffled = "\n".join(statements) + "\n"
        assert serialize(parse(shuffled)) == text


def test_serialize_random_models_round_trip():
    rng = random.Random(101)
    for i in range(40):
        m = random_full_model(rng)
        text = serialize(m)
        again = parse(text)
        assert again == m, f"model #{i}"
        assert serialize(again) == text, f"model #{i}"


def test_comment_and_string_lexing():
    m = parse(
        'chronoid c = [0,1]; // trailing commentary\n'
        'presential a at c@0;\npresential b at c@1;\n'
        'function f { label "mix \\"gently\\""; label "line1\\nline2";'
        ' requires { fact r(_); } achieves { fact r(_); } }'
    )
    assert m.functions["f"].labels == frozenset({'mix "gently"', "line1\nline2"})
    assert serialize(parse(serialize(m))) == serialize(m)


def test_escaped_newline_in_string_counts_as_a_line():
    with pytest.raises(ParseError) as err:
        parse('function f { label "a\\\nb";\n oops }')
    [d] = err.value.diagnostics
    assert (str(d.span), d.span.length, d.code) == ("<input>:3:2", 4, "unexpected-token")
    assert d.message == "expected 'label', 'requires', 'achieves' or 'fitem', found 'oops'"


# pieces of multi-line sources: every token class, strings with an escaped
# newline or left open, CRLF line ends, comments (also as the last piece),
# unlexable characters and long runs of lines
LEXER_PIECES = (
    "a", "Zq_9", "x-y", "0", "1/2", "-3", "0.25", "1/0", "12/4", "->", ";", "{", "}",
    "(", ")", "[", "]", "@", ":", ",", "=", "-", "/", ".", "#", ">", "\\", '"',
    '"s"', '"a\\\nb"', '"x\\\r\ny"', '"\\\n\\\n"', '"open', '"esc\\',
    "// note", "//", "\n", "\r\n", "\r", " ", "\t", "\u00e9", "\xa0",
)


def _random_source(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 60)):
        if rng.random() < 0.05:
            parts.append(rng.choice(("\n", "\r\n")) * rng.randint(20, 400))
        else:
            parts.append(rng.choice(LEXER_PIECES))
        if rng.random() < 0.5:
            parts.append(" ")
    return "".join(parts)


def test_token_positions_agree_with_oracle_on_random_sources():
    rng = random.Random(20261021)
    for i in range(400):
        source = _random_source(rng)
        diagnostics = []
        tokens = _tokenize(source, "lex.gfo", diagnostics)
        assert all(type(tok) is Token for tok in tokens), f"source #{i}"
        spans = map(_Positions(source, "lex.gfo", tokens).span, range(len(tokens)))
        found = [(tok.kind, tok.text, tok.value, s.line, s.column) for tok, s in zip(tokens, spans)]
        expected = oracles.tokens(source, "lex.gfo")
        assert (found, diagnostics) == expected, f"source #{i}: {source!r}"


def _flat_source(n: int) -> str:
    """The benchmark's flat world of ``n`` presentials, about 3n declarations."""
    return worlds._flat_world(random.Random(3), n)[0]


def _with_line(source: str, line: int, text: str) -> str:
    """``source`` with ``text`` inserted so that it starts line ``line``."""
    lines = source.split("\n")
    return "\n".join(lines[: line - 1] + [text] + lines[line - 1 :])


def _found(source: str) -> list:
    with pytest.raises(ParseError) as err:
        parse(source)
    return [(d.code, d.span.line, d.span.column, d.span.length) for d in err.value.diagnostics]


def test_positions_hold_after_many_lines_and_dropped_tokens():
    """One fault of each layer planted deep in a world of ~3000 declarations
    is reported where it was planted, also after a bad run, which is a token
    of its own, so that every later token's index counts it."""
    world = _flat_source(1000)
    last = world.count("\n") + 1
    early = ("unexpected-token", 40, 3, 2)  # a bad run, which the parser does not report again
    cases = [
        (1500, "  chronoid q = [0, 1]; #%", [("unexpected-token", 1500, 24, 2)]),
        (1500, '  function q { label "open\n; }', [("unexpected-token", 1500, 22, 1)]),
        (2999, "chronoid q = [0, 1/0];", [("bad-rational", 2999, 18, 3)]),
        (2000, "   chronoid q = [0 1];", [("unexpected-token", 2000, 20, 1)]),
        # a repeated text shares one token, so each occurrence is found by its own index
        (
            2500,
            "presential twice at span0@1 { color = red; color = blue; }",
            [("duplicate-id", 2500, 44, 5)],
        ),
        (
            2600,
            "fact twin = alike(ghost, ghost);",
            [
                ("orphan-fact", 2600, 6, 4),
                ("dangling-reference", 2600, 19, 5),
                ("dangling-reference", 2600, 26, 5),
            ],
        ),
    ]
    for line, text, expected in cases:
        assert _found(_with_line(world, line, text)) == expected, text
    source = _with_line(_with_line(world, 2000, "   chronoid q = [0 1];"), 40, "  #%")
    assert _found(source) == [early, ("unexpected-token", 2001, 20, 1)]
    source = world + "presential q at nowhere@0;"
    assert _found(source) == [("dangling-reference", last, 17, 7)]


def test_a_load_makes_one_token_per_distinct_text():
    """Every occurrence of a text shares one token, whose position is its
    index in the list, so a load builds no token per occurrence."""
    sources = [path.read_text(encoding="utf-8") for path in corpus_files()]
    for source in [*sources, _flat_source(1000)]:
        tokens = _tokenize(source, "<input>", [])
        assert len({id(tok) for tok in tokens}) == len({tok.text for tok in tokens})
        assert len(tokens) > 2 * len({tok.text for tok in tokens})  # texts repeat


def _walked(monkeypatch) -> list:
    """The number of texts handed to each walk of ``_Positions``, in order."""
    walked = []
    walk = dsl._Positions.walk
    counted = lambda self, texts: walked.append(len(texts)) or walk(self, texts)  # noqa: E731
    monkeypatch.setattr(dsl._Positions, "walk", counted)
    return walked


def test_a_clean_load_counts_no_positions(monkeypatch):
    """Line and column are counted only for a diagnostic: no clean load
    walks a token text, and a load with many diagnostics walks each of the
    lexer's texts at most once, however many diagnostics there are."""
    walked = _walked(monkeypatch)
    for path in corpus_files():
        parse_file(path)
    parse(_flat_source(3000))
    parse_query("holds(blood, position, in_heart) during [0, 1]")
    assert walked == []
    faulty = [
        "chronoid c = [0 1];\n" * 200,  # parser
        "".join(f"presential p{i} at nowhere@0;\n" for i in range(200)),  # linker
        "chronoid c = [0 1]; #\n" * 200,  # lexer and parser
        "{" * 200,  # one open block
        ";" * 200 + "\n" + ";" * 200,  # two runs of stray ';'
    ]
    for source in faulty:
        walked.clear()
        _found(source)
        texts = dsl._LEXEME.findall(source)  # the end of input is the first empty one
        assert 0 < sum(walked) <= texts.index("") + 1, (source[:40], walked)


def _pair_source(n: int, line4: str) -> str:
    """The identity-mode pair world of ``n`` pairs with ``line4`` inserted as its line 4."""
    lines = worlds._pair_world(random.Random(7), n, complete=False)[0].split("\n")
    lines.insert(3, line4)
    return "\n".join(lines)


def test_a_linker_fault_is_located_by_a_walk_to_its_token(monkeypatch):
    """A linker diagnostic ends the load, so the walk that locates it stops
    at its token: one fault at line 4 of a pair world of n and of 4n pairs
    walks the same texts, where a walk of the file grows 4x."""
    walked, counts = _walked(monkeypatch), []
    for n in (50, 200):
        walked.clear()
        found = _found(_pair_source(n, "presential zz at nowhere@0;"))
        assert found == [("dangling-reference", 4, 18, 7)]
        counts.append(sum(walked))
    assert counts[0] == counts[1] > 0, counts


def test_a_lexer_or_parser_fault_is_located_by_a_walk_to_its_token(monkeypatch):
    """Each pass records its faults by token index, and the one walk that
    locates them all goes only as far as the last: one fault at line 4 of a
    pair world of n and of 4n pairs walks the same texts and is reported
    where it was planted, once: the parser skips a bad run as it skips a
    stray token."""
    walked = _walked(monkeypatch)
    cases = [
        ("#", [("unexpected-token", 4, 1, 1)]),
        ("1/0", [("bad-rational", 4, 1, 3)]),
        ('"x', [("unexpected-token", 4, 1, 1)]),
        ("presential zz at ;", [("unexpected-token", 4, 18, 1)]),
        ("# presential zz at ;", [("unexpected-token", 4, 1, 1)]),
    ]
    for line4, expected in cases:
        counts = []
        for n in (50, 200):
            walked.clear()
            assert _found(_pair_source(n, line4)) == expected, line4
            counts.append(sum(walked))
        assert counts[0] == counts[1] > 0, (line4, counts)


def test_positions_over_the_same_tokens_walk_alike():
    """Each ``_Positions`` walks from the start of its source, a bad run's
    token included, never from where another one over the same tokens got
    to: a second one, built after the first walked halfway, gives every
    token the same span."""
    source = _pair_source(50, "# presential zz at ;")
    tokens = _tokenize(source, "<input>", [])
    first = _Positions(source, "<input>", tokens)
    half = [*map(first.span, range(len(tokens) // 2))]
    spans = [*map(_Positions(source, "<input>", tokens).span, range(len(tokens)))]
    assert spans[: len(half)] == half and spans == [*map(first.span, range(len(tokens)))]
    zz = [tok.text for tok in tokens].index("zz")  # the first token past the bad run
    assert (spans[zz].line, spans[zz].column, spans[-1].line) == (4, 14, source.count("\n") + 1)


def test_parser_work_grows_with_the_declarations():
    """Parse guard: the lines of gfo the first pass runs over the flat world
    grow at most 4x (plus 0) when the world grows 4x, so no declaration costs
    more the more of them precede it."""
    counts = []
    for n in (250, 1000):
        source = _flat_source(n)
        tokens = _tokenize(source, "<input>", [])
        parser = dsl._Parser(tokens, _Positions(source, "<input>", tokens), [])
        counts.append(lines_run(parser.parse))
    assert 0 < counts[0] and counts[1] <= 4 * counts[0], counts


class _CountedPattern:
    """A compiled pattern that counts the searches made with it."""

    def __init__(self, pattern):
        self.pattern, self.searches = pattern, 0

    def __getattr__(self, name):
        self.searches += name in ("findall", "finditer", "match", "search", "fullmatch")
        return getattr(self.pattern, name)


def test_a_bad_run_and_a_syntax_error_after_it_are_located_by_one_lex(monkeypatch):
    """The lexer's walk to its faults also locates the tokens it keeps, and
    the parser's diagnostics reuse it: a long bad run followed by a syntax
    error is lexed once, and both are located where they stand."""
    lexeme = _CountedPattern(dsl._LEXEME)
    monkeypatch.setattr(dsl, "_LEXEME", lexeme)
    source = "chronoid c = [0, 1];\n" + "\u00e9-/\u00e9 " * 2000 + "\nchronoid d = [0 1];"
    runs = [("unexpected-token", 2, 1 + 5 * i, 4) for i in range(2000)]
    assert _found(source) == [*runs, ("unexpected-token", 3, 17, 1)]
    assert lexeme.searches == 1


def test_each_distinct_number_text_is_read_once_per_parse(monkeypatch):
    lines = ["chronoid c = [0, 4];", "property v : numeric nonisolated(1/2);"]
    for i in range(200):
        lines.append(f"presential p{i} at c@{i % 5};")
    samples = " ".join(f"{t} -> {t}/2;" for t in range(5))
    lines.append(f"process q extent c {{ boundary 0 -> p0; boundary 4 -> p4; trajectory v {{ {samples} }} }}")
    source = "\n".join(lines)
    numbers = [tok.text for tok in _tokenize(source, "<input>", []) if tok.kind == "number"]
    calls = []
    monkeypatch.setattr(dsl, "_rational", lambda text, read=dsl._rational: calls.append(text) or read(text))
    parse(source)
    assert len(numbers) > 20 * len(set(numbers))  # texts repeat heavily
    assert sorted(calls) == sorted(set(numbers))


def test_a_long_string_of_escapes_lexes_in_bounded_memory():
    """One string literal of 50,000 escapes is one token and one diagnostic.
    The lexer's repeats are possessive and keep no state per escape, so the
    load's peak stays within 20 bytes a character; with plain repeats it
    took about 106."""
    source = 'chronoid c = [0, 1]; "' + "\\x" * 50_000 + '"'
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(d.code, d.span.column) for d in err.value.diagnostics] == [("unexpected-token", 22)]
    assert peak < 20 * len(source)


def _boundary_source(n: int) -> str:
    """``all_miss_model`` at ``n`` (3 + i % 5 presentials at distinct
    coordinates of chronoid i, and a stray sharing one of them) with two
    presentic situations on each chronoid: at its left end, which a
    presential declares too, and at 1/8 past it, which none does."""
    m = all_miss_model(random.Random(11), n)
    lines = [serialize(m)]
    for ch in m.chronoids.values():
        lines.append(f"situation s_{ch.id} at {ch.id}@{coord_str(ch.left)};")
        lines.append(f"situation t_{ch.id} at {ch.id}@{coord_str(ch.left + Fraction(1, 8))};")
    return "\n".join(lines)


def test_a_load_builds_one_boundary_per_declared_coordinate(monkeypatch):
    """Link guard: a load builds one ``TimeBoundary`` per distinct
    (chronoid, coordinate) that its presentials and presentic situations
    declare, however many declarations share it.  The family grows in
    proportion from n to 4n, so the count grows at most 4x, plus 0."""
    built = []
    counted = lambda *args, **kwargs: built.append(1) or TimeBoundary(*args, **kwargs)  # noqa: E731
    monkeypatch.setattr(chrono, "TimeBoundary", counted)
    counts = []
    for n in (25, 100):
        source = _boundary_source(n)
        built.clear()
        m = parse(source)
        at = [s.extent for s in m.situations.values() if s.presentic]
        at += [p.at for p in m.presentials.values()]
        declared = {(b.owner, b.coordinate) for b in at}
        assert len(built) == len(declared) < len(at)  # declarations share coordinates
        counts.append(len(built))
    assert counts[1] <= 4 * counts[0]


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=999))
def test_rational_literals_round_trip(q):
    text = coord_str(q)
    assert Fraction(text) == q


def test_a_bad_token_gets_one_diagnostic():
    cases = (
        (parse, 'chronoid c = [0, 1] "x', "<input>:1:21: unexpected-token: unterminated string literal"),
        (parse, "chronoid c = 1/0;", "<input>:1:14: bad-rational: '1/0' is not a valid rational literal"),
        (parse_query, 'holds(blood, position, "x', "<query>:1:24: unexpected-token: unterminated string literal"),
    )
    for load, source, diagnostic in cases:
        with pytest.raises(ParseError) as err:
            load(source)
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]


def test_a_run_of_unlexable_characters_gets_one_diagnostic():
    with pytest.raises(ParseError) as err:
        parse("chronoid c = [0, 1]; " + "\u00e9" * 3000)
    [d] = err.value.diagnostics
    assert str(d) == "<input>:1:22: unexpected-token: unexpected characters 'éééééééééééééééééééé'..."
    assert d.span.length == 3000
    # a run ends where a blank, a comment or a token starts
    with pytest.raises(ParseError) as err:
        parse("chronoid c = [0, 1]; #.>\\ \u00e9\xa0\u00e9//x\n-#-1/2;")
    assert [(str(d), d.span.length) for d in err.value.diagnostics] == [
        ("<input>:1:22: unexpected-token: unexpected characters '#.>\\\\'", 4),
        ("<input>:1:27: unexpected-token: unexpected characters '\u00e9\\xa0\u00e9'", 3),
        ("<input>:2:1: unexpected-token: unexpected characters '-#'", 2),
    ]


def test_a_diagnostic_quotes_at_most_20_characters_of_a_token():
    x20, x30 = "x" * 20, "x" * 30
    cases = (
        (parse, f"{x30} c;", f"<input>:1:1: unexpected-token: expected a declaration keyword, found '{x20}'..."),
        (parse, f"chronoid c {x30}", f"<input>:1:12: unexpected-token: expected '=', found '{x20}'..."),
        (parse, f"chronoid c {x20}", f"<input>:1:12: unexpected-token: expected '=', found '{x20}'"),
        (parse_query, f"holds(b, p, v) {x30}", f"<query>:1:16: unexpected-token: unexpected trailing input: '{x20}'..."),
    )
    for load, source, diagnostic in cases:
        with pytest.raises(ParseError) as err:
            load(source)
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]


def test_a_diagnostic_code_must_be_registered():
    with pytest.raises(ValueError, match="unregistered diagnostic code: 'no-such-code'"):
        dsl.ParseDiagnostic(dsl.SourceSpan("<input>", 1, 1), "no-such-code", "boom")


def test_a_bad_rational_coordinate_gets_no_extent_check():
    cases = (
        ("chronoid c = [1, 2];\npresential p at c@1/0;", "<input>:2:19: bad-rational: '1/0' is not a valid rational literal"),
        ("chronoid c = [1, 2];\nsituation s at c@1/0;", "<input>:2:18: bad-rational: '1/0' is not a valid rational literal"),
    )
    for source, diagnostic in cases:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]
    # a coordinate that lexes is still checked
    assert codes_of("chronoid c = [1, 2];\npresential p at c@0;") == ["out-of-extent"]


def test_a_bad_rational_endpoint_gets_no_zero_duration():
    cases = (
        (parse, "chronoid c = [0, 1/0];", "<input>:1:18: bad-rational: '1/0' is not a valid rational literal"),
        (parse, "chronoid c = [1/0, 0];", "<input>:1:15: bad-rational: '1/0' is not a valid rational literal"),
        (parse_query, "holds(b, p, v) during [1, 1/0]", "<query>:1:27: bad-rational: '1/0' is not a valid rational literal"),
    )
    for load, source, diagnostic in cases:
        with pytest.raises(ParseError) as err:
            load(source)
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]
    # a well-formed empty interval is still reported
    assert codes_of("chronoid c = [1, 1/1];") == ["zero-duration"]


def test_a_bad_rational_value_drives_no_linker_check():
    cases = (
        ("property w : numeric nonisolated(1/0);", "<input>:1:34"),
        (
            "chronoid c = [1, 2];\npresential a at c@1;\npresential b at c@2;\n"
            "process p extent c { boundary 1 -> a; boundary 1/0 -> b; boundary 2 -> b; }",
            "<input>:4:48",
        ),
        (
            "chronoid c = [1, 2];\nproperty hue : categorical { red };\n"
            "presential a at c@1 { hue = 1/0; }",
            "<input>:3:29",
        ),
    )
    for source, at in cases:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert [str(d) for d in err.value.diagnostics] == [
            f"{at}: bad-rational: '1/0' is not a valid rational literal"
        ]


def test_a_rejected_chronoid_is_not_also_undeclared():
    source = "chronoid c = [1, 1]; presential a at c@1; process p extent c { boundary 1 -> a; }"
    with pytest.raises(ParseError) as err:
        parse(source)
    assert [str(d) for d in err.value.diagnostics] == [
        "<input>:1:15: zero-duration: chronoid 'c': [1, 1] has no duration"
    ]


def test_a_sample_under_an_undeclared_extent_is_still_checked_for_a_twin():
    source = (
        "chronoid c = [0, 1];\npresential a at c@0;\nproperty speed : numeric global;\n"
        "process p extent nowhere { boundary 0 -> a; boundary 0 -> a; "
        "trajectory speed { 0 -> 1; 0 -> 2; } }"
    )
    with pytest.raises(ParseError) as err:
        parse(source)
    assert [str(d) for d in err.value.diagnostics] == [
        "<input>:4:18: dangling-reference: chronoid 'nowhere' is not declared",
        "<input>:4:54: duplicate-id: boundary at 0 is declared twice",
        "<input>:4:89: duplicate-id: trajectory sample at 0 is declared twice",
    ]


def test_a_rejected_sample_target_still_occupies_its_endpoint():
    base = "chronoid c = [0, 2];\npresential a at c@0;\npresential b at c@2;\n"
    cases = (
        ("process p extent c { boundary 0 -> ghost; boundary 2 -> b; }",
         "<input>:4:36: dangling-reference: 'ghost' is not declared"),
        ("process p extent c { boundary 0 -> p; boundary 2 -> b; }",
         "<input>:4:36: kind-conflict: 'p' is a process, but a presential is required here"),
        ("continuant k lifetime c { exhibits 0 -> b; exhibits 2 -> b; }",
         "<input>:4:41: coordinate-mismatch: presential 'b' is at 2, not at 0"),
    )
    for decl, diagnostic in cases:
        with pytest.raises(ParseError) as err:
            parse(base + decl)
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]


def test_a_duplicated_presential_drives_no_check():
    """Neither record of a name declared twice is checked against, so the
    references that fit either one get no ``coordinate-mismatch``."""
    ball = (REPO / "corpus" / "ball.gfo").read_text(encoding="utf-8")
    cases = (
        (ball + "presential ball0 at roll@2 { color = blue; }\n",
         "<input>:33:12: duplicate-id: presential 'ball0' is declared twice"),
        ("presential ball3 at roll@1 { color = red; }\n" + ball,
         "<input>:13:12: duplicate-id: presential 'ball3' is declared twice"),
    )
    for source, diagnostic in cases:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]
    # a chronoid of the same name declared twice leaves the presential checked
    source = ball.replace("exhibits 1 -> ball1;", "exhibits 1 -> ball0;")
    with pytest.raises(ParseError) as err:
        parse(source + "chronoid ball0 = [0, 1];\nchronoid ball0 = [0, 1];\n")
    assert [str(d) for d in err.value.diagnostics] == [
        "<input>:16:17: coordinate-mismatch: presential 'ball0' is at 0, not at 1",
        "<input>:34:10: duplicate-id: chronoid 'ball0' is declared twice",
    ]


# a conflicting copy of each declaration of a store, ``{}`` its name, and the
# one diagnostic it gives; an individual's copy is one of another kind
_SITUATION_COPY = "chronoid zz_span = [0, 1]; situation {} during zz_span;"
CONFLICTING_COPIES = (
    ("chronoids", "chronoid {} = [1000, 1001];", "duplicate-id"),
    ("property_defs", "property {} : categorical {{ zz_fresh }} isolated;", "duplicate-id"),
    ("functions", "function {} {{ requires {{ fact zz_fresh(x); }} achieves {{ fact zz_fresh(x); }} }}",
     "duplicate-id"),
    *((store, _SITUATION_COPY, "kind-conflict") for store in ("presentials", "processes", "continuants", "facts")),
    ("situations", "chronoid zz_span = [0, 1]; presential {} at zz_span@0;", "kind-conflict"),
)


def test_a_name_declared_twice_drives_no_check():
    """A conflicting copy of each chronoid, property, function and entity of
    the corpus and of EVERY_KIND, put before the file and after it, gives its
    ``duplicate-id`` or ``kind-conflict`` and nothing else: neither record is
    checked against."""
    sources = dict.fromkeys(["duplicate-id", "kind-conflict"], 0)
    for path in [*corpus_files(), EVERY_KIND]:
        source = path.read_text(encoding="utf-8")
        m = parse(source)
        for store, copy, code in CONFLICTING_COPIES:
            for name in getattr(m, store):
                line = copy.format(name)
                for where, planted in (("first", f"{line}\n{source}"), ("last", f"{source}\n{line}\n")):
                    sources[code] += 1
                    assert codes_of(planted) == [code], (path.name, line, where)
    assert sources == {"duplicate-id": 76, "kind-conflict": 274}


_PLANTED = "zz_planted"  # a name no clean source declares
# the plants of each linker code in the corpus and EVERY_KIND
LINKER_PLANTS = {
    "bad-rational": 140, "bad-value": 37, "coordinate-mismatch": 33, "dangling-reference": 121,
    "empty-concept": 3, "missing-endpoint": 88, "orphan-fact": 7, "out-of-extent": 72,
    "unknown-id": 30, "zero-duration": 20,
}


def _linker_plants(source: str) -> list:
    """``(code, planted source, (line, column))`` for one fault planted at
    each site of each kind in the clean ``source``, found from the parser's
    records, so that a comment is no site: a sample's presential renamed
    (``dangling-reference``), a valuation's property renamed (``unknown-id``),
    a categorical value renamed (``bad-value``), an endpoint sample deleted
    (``missing-endpoint``), a presential moved to @1000 (``out-of-extent``), a
    chronoid's right set to its left (``zero-duration``), a fact's only
    ``contains`` deleted (``orphan-fact``), an inner sample moved to a fresh
    inner coordinate (``coordinate-mismatch``), a ``requires`` block emptied
    (``empty-concept``) and a sample coordinate set to 1/0 (``bad-rational``).
    The place is that of the token the fault is reported at."""
    m = parse(source)
    tokens, found = dsl._lex(source)
    positions = _Positions(source, "<input>", tokens)
    decls = dsl._Parser(tokens, positions, found).parse()
    positions.span(len(tokens) - 1)
    starts, plants = positions.starts, []

    def plant(code, first, last, text, at):
        """Tokens ``first`` to ``last`` replaced by ``text``; ``at`` is reported."""
        begin, end = starts[first], starts[last] + len(tokens[last].text)
        planted = source[:begin] + text + source[end:]
        offset = starts[at] if starts[at] <= begin else starts[at] + len(text) - (end - begin)
        place = (planted.count("\n", 0, offset) + 1, offset - planted.rfind("\n", 0, offset))
        plants.append((code, planted, place))

    def categorical(prop, value):
        if m.property_defs[tokens[prop].text].domain.kind == CATEGORICAL:
            plant("bad-value", value, value, _PLANTED, value)

    containing = {}  # fact name -> the indexes of its ``contains`` entries
    for record in decls:
        if record[0] == "situation":
            for fact in record[5]:
                containing.setdefault(tokens[fact].text, []).append(fact)
    for record in decls:
        kind, name = record[0], record[1]
        if kind == "chronoid":
            left, right = record[2:]
            plant("zero-duration", right, right, tokens[left].text, left)
        elif kind == "presential":
            plant("out-of-extent", record[3], record[3], "1000", record[3])
            for prop, value in record[5]:
                plant("unknown-id", prop, prop, _PLANTED, prop)
                categorical(prop, value)
        elif kind in ("process", "continuant"):
            if kind == "process":
                samples, extent = record[3], m.processes[tokens[name].text].extent
                for prop, points in record[4]:
                    for t, value in points:
                        plant("bad-rational", t, t, "1/0", t)
                        categorical(prop, value)
            else:
                samples, extent = record[4], m.continuants[tokens[name].text].lifetime
            grid = sorted(tokens[t].value for t, _ in samples)
            for t, target in samples:
                plant("dangling-reference", target, target, _PLANTED, target)
                plant("bad-rational", t, t, "1/0", t)
                at = tokens[t].value
                if at in (extent.left, extent.right):  # `keyword t -> target ;` deleted
                    plant("missing-endpoint", t - 1, t + 3, "", name)
                else:
                    fresh = (at + grid[grid.index(at) + 1]) / 2
                    plant("coordinate-mismatch", t, t, coord_str(fresh), target)
        elif kind == "fact":
            relator, args = record[2:]
            entries = containing.get(tokens[name].text, [])
            if len(entries) == 1:  # `contains fact ;` deleted
                plant("orphan-fact", entries[0] - 1, entries[0] + 1, "", name)
            if tokens[relator].text in m.property_defs and len(args) == 2:
                categorical(relator, args[1])
        elif kind == "function":
            requires, achieves, fitem = record[5:]
            for prop, value in fitem:
                categorical(prop, value)
            for item in (*requires, *achieves):
                if len(item) == 3:  # holds(entity, prop, value)
                    categorical(*item[1:])
            if requires:  # the block's `{`: before a first `fact relator` or `holds (entity`
                brace = requires[0][0] - (2 if len(requires[0]) == 2 else 3)
                close = next(i for i in range(brace, len(tokens)) if tokens[i].text == "}")
                plant("empty-concept", brace + 1, close - 1, "", name)
    return plants


def test_a_planted_linker_fault_is_reported_once_at_its_token():
    """One fault of each linker kind planted at every site of the corpus and
    of EVERY_KIND gives exactly its one diagnostic, at its own token."""
    sources = dict.fromkeys(sorted(LINKER_PLANTS), 0)
    for path in [*corpus_files(), EVERY_KIND]:
        for code, planted, (line, column) in _linker_plants(path.read_text(encoding="utf-8")):
            sources[code] += 1
            with pytest.raises(ParseError) as err:
                parse(planted)
            found = [(d.code, d.span.line, d.span.column) for d in err.value.diagnostics]
            assert found == [(code, line, column)], (path.name, code, line, column)
    assert sources == LINKER_PLANTS


def test_a_name_of_two_kinds_drives_no_check_in_either_order():
    """A name declared as a process and as a presential gets the one
    ``kind-conflict`` of its second record, whichever comes first: the
    exhibit that names it is checked against neither."""
    head = "chronoid c = [0, 1];\npresential a at c@0;\npresential b at c@1;\n"
    process, presential = "process x extent c { boundary 0 -> a; boundary 1 -> b; }", "presential x at c@0;"
    exhibits = "continuant k lifetime c { exhibits 0 -> x; exhibits 1 -> b; }"
    cases = (
        (process, presential, "<input>:5:12: kind-conflict: 'x' is already declared as a process, "
         "cannot also be a presential"),
        (presential, process, "<input>:5:9: kind-conflict: 'x' is already declared as a presential, "
         "cannot also be a process"),
    )
    for first, second, diagnostic in cases:
        with pytest.raises(ParseError) as err:
            parse(f"{head}{first}\n{second}\n{exhibits}\n")
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]


def test_each_record_of_a_name_declared_twice_is_checked():
    heart = (REPO / "corpus" / "heart.gfo").read_text(encoding="utf-8") + "\n"
    at = f"<input>:{heart.count(chr(10)) + 1}"  # the line appended to heart.gfo
    cases = (
        ("property p : numeric;\nproperty p : numeric nonisolated(0);",
         ["<input>:2:10: duplicate-id: property 'p' is declared twice",
          "<input>:2:34: bad-value: window radius must be strictly positive"]),
        ("chronoid c = [0, 1];\nchronoid c = [1, 1];",
         ["<input>:2:10: duplicate-id: chronoid 'c' is declared twice",
          "<input>:2:15: zero-duration: chronoid 'c': [1, 1] has no duration"]),
        (heart + "function f_pump bearer nobody { }",
         [f"{at}:10: duplicate-id: function 'f_pump' is declared twice",
          f"{at}:10: empty-concept: function 'f_pump' needs a non-empty 'achieves' block",
          f"{at}:10: empty-concept: function 'f_pump' needs a non-empty 'requires' block",
          f"{at}:24: dangling-reference: 'nobody' is not declared"]),
        # the fact's relator names a property declared twice: no value is checked against either
        ("property p : categorical { zz } isolated;\nproperty p : numeric;\nchronoid c = [0, 1];\n"
         "presential a at c@0;\nfact f = p(a, 3);\nsituation s during c { contains f; }",
         ["<input>:2:10: duplicate-id: property 'p' is declared twice"]),
    )
    for source, diagnostics in cases:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert [str(d) for d in err.value.diagnostics] == diagnostics


def test_recovery_skips_to_the_end_of_the_failing_declaration():
    cases = (
        (
            "process p extent c { boundary 0 -> ; boundary 1 -> b; }\nchronoid c = [0, 1]",
            ["<input>:1:36: unexpected-token: expected a presential name, found ';'",
             "<input>:2:20: unexpected-token: expected ';', found ''"],
        ),
        (
            "process p extent c { trajectory v { 0 -> ; 1 -> 2; } boundary 0 -> a; };\n"
            "property hue : categorical { red } nonisolated(x);\nfact f = r(a)",
            ["<input>:1:42: unexpected-token: expected a symbol or rational, found ';'",
             "<input>:2:48: unexpected-token: expected a window radius, found 'x'",
             "<input>:3:14: unexpected-token: expected ';', found ''"],
        ),
        (  # the stray '{' leaves the block open: the next line's keyword ends the skip
            "process p extent c { boundary 0 -> a; { boundary 2 -> b; }\n"
            "chronoid d = [0 1];\nchronoid e = [0 1];",
            ["<input>:1:39: unexpected-token: expected 'boundary' or 'trajectory', found '{'",
             "<input>:2:17: unexpected-token: expected ',', found '1'",
             "<input>:3:17: unexpected-token: expected ',', found '1'"],
        ),
        (  # an indented keyword is still skipped
            "process p extent c { boundary 0 -> a; {\n  chronoid d = [0 1];\n}\nchronoid e = [0 1];",
            ["<input>:1:39: unexpected-token: expected 'boundary' or 'trajectory', found '{'",
             "<input>:4:17: unexpected-token: expected ',', found '1'"],
        ),
        (  # after a stray token, or a stray run, the next line's keyword ends the skip
            "chronoid c = [0, 1];\nfoo\npresential p at c@ ;\nchronoid d = [0 1];",
            ["<input>:2:1: unexpected-token: expected a declaration keyword, found 'foo'",
             "<input>:3:20: unexpected-token: expected a coordinate, found ';'",
             "<input>:4:17: unexpected-token: expected ',', found '1'"],
        ),
        (
            "chronoid c = [0, 1];\nfoo bar\npresential p at c@ ;\nchronoid d = [0 1];",
            ["<input>:2:1: unexpected-token: expected a declaration keyword, found 'foo'",
             "<input>:3:20: unexpected-token: expected a coordinate, found ';'",
             "<input>:4:17: unexpected-token: expected ',', found '1'"],
        ),
        (  # a concept's `fact r(...)` item at column 1 is skipped; a `fact f =` is not
            "function f {\nlabel 1;\nrequires {\nfact r(_);\n}\nachieves { fact r(_); }\n}\n"
            "function g {\nlabel 2;\nrequires { holds(a, b, c); }\nfact h = r(a b);\n",
            ["<input>:2:7: unexpected-token: expected a string label, found '1'",
             "<input>:9:7: unexpected-token: expected a string label, found '2'",
             "<input>:11:14: unexpected-token: expected ')', found 'b'"],
        ),
        (  # a missing ';' at depth 0: the next line's keyword ends the skip
            "chronoid c = [0, 1]\npresential p at c@ ;\nchronoid d = [0 1];",
            ["<input>:2:1: unexpected-token: expected ';', found 'presential'",
             "<input>:2:20: unexpected-token: expected a coordinate, found ';'",
             "<input>:3:17: unexpected-token: expected ',', found '1'"],
        ),
        (  # the string swallows the ';': the property is parsed, not skipped to its '}'
            'chronoid "open = [0, 3];\n\nproperty color : categorical { blue, red } isolated;',
            ["<input>:1:10: unexpected-token: unterminated string literal"],
        ),
        (  # an unterminated string is a bad run, which the parser reads as no value
            (REPO / "corpus" / "functions_universal.gfo").read_text(encoding="utf-8").replace(
                'label "to boil water";', 'label "open  ;'
            ),
            ["<input>:65:9: unexpected-token: unterminated string literal"],
        ),
        (  # a missing ';' before a column-1 keyword: that keyword ends the skip
            "property hue : categorical { red } isolated\n"
            "process q extent c { boundary 0 -> a; }\nchronoid c = [0 1];",
            ["<input>:2:1: unexpected-token: expected ';', found 'process'",
             "<input>:3:17: unexpected-token: expected ',', found '1'"],
        ),
        (  # a bad run is skipped as a stray token is: the declaration after it is one error
            "chronoid c = [0, 1];\n# presential zz at ;",
            ["<input>:2:1: unexpected-token: unexpected character '#'"],
        ),
        (
            "chronoid c = [0, 1];\nfoo presential zz at ;",
            ["<input>:2:1: unexpected-token: expected a declaration keyword, found 'foo'"],
        ),
        (  # inside a declaration too: the lexer's diagnostic is the only one
            "presential p at c@0 { color = r#ed; }",
            ["<input>:1:32: unexpected-token: unexpected character '#'"],
        ),
        (  # a property's symbol list is skipped with the rest of the property
            "property color : categorical { red, , blue } isolated;",
            ["<input>:1:37: unexpected-token: expected a symbol, found ','"],
        ),
        (
            "property color : categorical { r#ed, blue } isolated;\nchronoid d = [0 1];",
            ["<input>:1:33: unexpected-token: unexpected character '#'",
             "<input>:2:17: unexpected-token: expected ',', found '1'"],
        ),
        (  # a ';' for the extent: the block's entries are skipped with it, not read as strays
            (REPO / "corpus" / "ball.gfo").read_text(encoding="utf-8").replace(
                "extent roll {", "extent ; {"
            ),
            ["<input>:21:26: unexpected-token: expected a chronoid name, found ';'"],
        ),
        (  # a ';' for a column-1 keyword is a stray token: the rest of its line is skipped
            "; q = [0, 1];\nchronoid c = [0, 1];",
            ["<input>:1:1: unexpected-token: expected a declaration keyword, found ';'"],
        ),
        (  # the cost of the layout rule: an error hides the later errors on its line
            "chronoid c = [0, 1]; chronoid d = [0 1]; chronoid e = [0 1];\nchronoid f = [0 1];",
            ["<input>:1:38: unexpected-token: expected ',', found '1'",
             "<input>:2:17: unexpected-token: expected ',', found '1'"],
        ),
    )
    for source, diagnostics in cases:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert [str(d) for d in err.value.diagnostics] == diagnostics


def test_a_stray_semicolon_is_a_stray_token():
    stray = "unexpected-token: expected a declaration keyword, found ';'"
    cases = (
        # one error of its own length, and the skip goes to the end of input
        (";;;;;;", [("<input>:1:1", 1)]),
        # or to the next declaration keyword at column 1, which is parsed
        (";\nproperty mode : categorical { off, on } global;", [("<input>:1:1", 1)]),
        (
            "property x : numeric; ;  ;\nproperty y : numeric;\n;\n ;",
            [("<input>:1:23", 1), ("<input>:3:1", 1)],
        ),
    )
    for source, expected in cases:
        with pytest.raises(ParseError) as err:
            parse(source)
        got = [(str(d), d.span.length) for d in err.value.diagnostics]
        assert got == [(f"{at}: {stray}", length) for at, length in expected], source


# not the golden MUTATION_SEED, so these edits are fresh inputs
POLICY_SEED = 20261019
LEXICAL_OR_SYNTAX = {"unexpected-token", "bad-rational"}


def test_a_file_with_a_lexical_or_syntax_error_gets_no_linker_diagnostics():
    rng = random.Random(POLICY_SEED)
    sources = {path.name: path.read_text(encoding="utf-8") for path in corpus_files()}
    broken = 0
    for _ in range(500):
        name = rng.choice(sorted(sources))
        kind, text = _mutate(rng, sources[name])
        try:
            parse(text, file=name)
        except ParseError as exc:
            codes = {d.code for d in exc.diagnostics}
            if codes & LEXICAL_OR_SYNTAX:
                broken += 1
                assert codes <= LEXICAL_OR_SYNTAX, (name, kind, [str(d) for d in exc.diagnostics])
    assert broken >= 100  # the edits reach the policy, not only clean or linker-only files


def test_parse_pauses_the_collector_and_restores_its_state(monkeypatch):
    seen = []
    lex = dsl._lex

    def watched(source):
        seen.append(gc.isenabled())
        return lex(source)

    monkeypatch.setattr(dsl, "_lex", watched)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            parse(MINIMAL)
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError):
                parse("chronoid c = [0 2];")
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4


def test_loading_makes_no_reference_cycles():
    """Pausing the collector in ``parse`` is sound only while a load, clean
    or failed, leaves no cyclic garbage for a collection to find."""
    rng = random.Random(MUTATION_SEED)
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in corpus_files()]
    texts = dict(sources)
    for n in range(300):
        name = rng.choice(sorted(texts))
        sources.append((f"{name} mutation {n}", _mutate(rng, texts[name])[1]))
    failed = 0
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for name, text in sources:
            try:
                parse(text, file=name)
            except ParseError:
                failed += 1
            assert gc.collect() == 0, name
    finally:
        if was:
            gc.enable()
    assert 0 < failed < len(sources)  # both the model and the diagnostic paths ran


# the fillers of the single-token-edit sweep: every punctuation, every keyword,
# one token of each other form, and "" for deleting the token
EDIT_FILLERS = (
    "->", "=", ";", ",", "(", ")", "{", "}", "[", "]", "@", ":",
    "chronoid", "property", "presential", "process", "continuant", "situation", "fact",
    "function", "exe", "requirement-instance", "goal-instance", "categorical", "numeric",
    "isolated", "nonisolated", "global", "at", "immaterial", "extent", "boundary",
    "trajectory", "lifetime", "exhibits", "during", "founded", "on", "contains",
    "participant", "conceptual", "universal", "individual", "bearer", "label", "requires",
    "achieves", "fitem", "holds",
    "name", "7", "3/4", "0.25", "-2", "1/0", "9" * 301, '"label"', '"open', "#", "",
)
# the twelve punctuations EDIT_FILLERS begins with, one token of each other
# class and deletion: the fillers of the tier-1 sweep of EVERY_KIND
FEW_FILLERS = (*EDIT_FILLERS[:12], "name", "7", '"label"', "#", "")
# a small clean source with every declaration keyword and optional part
EVERY_KIND = REPO / "tests" / "every_kind.gfo"


class _PerTokenParser(dsl._Parser):
    """The parser with its fixed-length entries and the presential head read
    one token at a time, without the whole tests of ``assignment``,
    ``sample``, ``member`` and ``presential``."""

    def presential(self) -> tuple:
        name = self.take(dsl.IDENT, "a presential name")
        self.keyword("at")
        chron = self.take(dsl.IDENT, "a chronoid name")
        self.take_punct("@")
        t = self.take(dsl.NUMBER, "a coordinate")
        material = not self.accept_word("immaterial")
        valuation = [self.assignment() for _ in self.entries()]
        return name, chron, t, material, valuation

    def assignment(self) -> tuple:
        prop = self.take(dsl.IDENT, "a property name")
        self.take_punct("=")
        value = self.take_value()
        self.end_simple()
        return prop, value

    def sample(self, kinds=(dsl.IDENT,)) -> tuple:
        t = self.take(dsl.NUMBER, "a coordinate")
        self.take_punct("->")
        if dsl.NUMBER in kinds:
            target = self.take_value()
        else:
            target = self.take(dsl.IDENT, "a presential name")
        self.end_simple()
        return t, target

    def member(self, what: str) -> int:
        i = self.take(dsl.IDENT, what)
        self.end_simple()
        return i


class _ComparedParser(dsl._Parser):
    """The parser, which on every parse also runs the per-token parser on
    the same tokens: both must give the same records and the same
    diagnostics."""

    def parse(self) -> list:
        lexed = list(self.diagnostics)
        decls = super().parse()
        other = _PerTokenParser(self.tokens, self.positions, lexed)
        assert (decls, self.diagnostics) == (other.parse(), other.diagnostics)
        return decls


def single_token_edits(path, fillers=EDIT_FILLERS) -> int:
    """Replace each token of the file at ``path`` by each of ``fillers`` in turn.
    Every edit loads to a model or to a ParseError, and to nothing else;
    every diagnostic lies inside the edited source, and every model is a
    ``serialize`` fixed point.  One edit has one cause, so it gets at most
    one ``unexpected-token``, with one exception: the lexer's ``unterminated
    string literal`` is not counted.  A planted ``"`` may pair with the
    opening quote of a label on its line, and leave the label's closing
    quote unterminated: the edit makes two faults, and the lexer reports the
    second however the parser recovers from the first.  Under
    ``_ComparedParser``, as the test and the CI run use it, every first pass
    also agrees with the per-token parser's.  Returns the number of edits."""
    source = path.read_text(encoding="utf-8")
    tokens = _tokenize(source, path.name, [])
    positions = _Positions(source, path.name, tokens)
    positions.span(len(tokens) - 1)  # the walk to the end of input
    edits = 0
    for tok, start in zip(tokens[:-1], positions.starts):
        for filler in fillers:
            edited = f"{source[:start]} {filler} {source[start + len(tok.text):]}"
            where = f"{path.name}: {tok.text!r} at {start} -> {filler!r}"
            edits += 1
            try:
                text = serialize(parse(edited, file="edit.gfo"))
            except ParseError as err:
                syntax = [d for d in err.diagnostics if d.code == "unexpected-token"
                          and d.message != "unterminated string literal"]
                assert len(syntax) <= 1, (where, [str(d) for d in syntax])
                # the offset each line starts at, then one past the end of input
                starts = [0, *(m.end() for m in re.finditer("\n", edited)), len(edited) + 1]
                for d in err.diagnostics:
                    line, column, length = d.span.line, d.span.column, d.span.length
                    assert 1 <= line < len(starts) and column >= 1, (where, str(d))
                    offset = starts[line - 1] + column - 1
                    assert offset < starts[line], (where, str(d))
                    assert offset + length <= len(edited) + 1, (where, str(d))
                continue
            assert serialize(parse(text)) == text, where
    return edits


def test_single_token_edits_of_a_small_file_raise_only_parse_errors(monkeypatch):
    """The sweep over one small file; CI runs it over the whole corpus."""
    monkeypatch.setattr(dsl, "_Parser", _ComparedParser)
    assert single_token_edits(REPO / "corpus" / "cat_crossing.gfo") > 6000


def test_single_token_edits_of_every_declaration_kind_raise_only_parse_errors(monkeypatch):
    """The sweep over EVERY_KIND with FEW_FILLERS; CI runs it with all of them."""
    monkeypatch.setattr(dsl, "_Parser", _ComparedParser)
    parse_file(EVERY_KIND)  # the slice itself loads clean
    texts = {tok.text for tok in _tokenize(EVERY_KIND.read_text(encoding="utf-8"), "", [])}
    # the 11 declaration keywords EDIT_FILLERS lists after the punctuations, and the options
    options = {"trajectory", "fitem", "holds", "founded", "label", "immaterial", "nonisolated"}
    assert texts >= {*EDIT_FILLERS[12:23], *options, "global"}
    assert single_token_edits(EVERY_KIND, FEW_FILLERS) > 3000


if __name__ == "__main__":  # the sweep over every corpus file and EVERY_KIND
    dsl._Parser = _ComparedParser
    for path in [*corpus_files(), EVERY_KIND]:
        print(f"{path.name}: {single_token_edits(path)} edits", flush=True)
