"""The `.gfo` declaration language: parser, diagnostics, canonical serializer.

The language is statement-oriented (``keyword name ... ;`` with braces for
maps) and resolved in two passes, so forward references are legal.  Parsing
either yields a model satisfying every structural invariant of the store,
or raises :class:`ParseError` carrying span-annotated diagnostics — never a
partial model.  Error recovery skips to the next ``;`` at brace depth zero,
so one run reports as many diagnostics as possible.

``serialize`` emits canonical text: declarations sorted by kind and id,
map entries sorted by coordinate, rationals normalized.  Parsing the
serialization of a model reproduces a store-equal model, and serialization
of a parse is invariant under declaration reordering of the source.

The full grammar is published in docs/grammar.md.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .chrono import Chronoid, TimeBoundary, coord_str, inner_boundary
from .errors import GfoError
from .functions import (
    CONCEPTUAL,
    FUNCTION_KINDS,
    INDIVIDUAL,
    FactPattern,
    FunctionSpec,
    PropertyConstraint,
    SituationConcept,
)
from .model import (
    CATEGORICAL,
    GLOBAL,
    ISOLATED,
    NON_ISOLATED,
    NUMERIC,
    Continuant,
    Fact,
    Model,
    Presential,
    Process,
    PropertyDef,
    Situation,
    Support,
    ValueDomain,
)
from .truthmakers import AtTime, DuringSpan, FactProp, HoldsProp

# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

DIAGNOSTIC_CODES = frozenset(
    {
        "unexpected-token",
        "unknown-id",
        "duplicate-id",
        "bad-rational",
        "dangling-reference",
        "kind-conflict",
        "zero-duration",
        "out-of-extent",
        "missing-endpoint",
        "coordinate-mismatch",
        "bad-value",
        "orphan-fact",
        "empty-concept",
    }
)


@dataclass(frozen=True)
class SourceSpan:
    """1-based line/column position with a length in characters."""

    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    code: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unregistered diagnostic code: {self.code!r}")

    def __str__(self) -> str:
        return f"{self.span}: {self.code}: {self.message}"

    def to_json(self) -> dict:
        return {
            "file": self.span.file,
            "line": self.span.line,
            "column": self.span.column,
            "length": self.span.length,
            "code": self.code,
            "message": self.message,
        }


class ParseError(GfoError):
    """Raised when a source cannot be loaded; carries all diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = sorted(
            diagnostics,
            key=lambda d: (d.span.file, d.span.line, d.span.column, d.code, d.message),
        )
        summary = "; ".join(str(d) for d in self.diagnostics[:3])
        if len(self.diagnostics) > 3:
            summary += f"; ... ({len(self.diagnostics)} total)"
        super().__init__(summary)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

IDENT = "ident"
NUMBER = "number"
STRING = "string"
PUNCT = "punct"
EOF = "eof"
BAD = "bad"

# digits in a rational literal and in the p/q text ``serialize`` writes for
# its value, which a decimal's may double; twice this stays under 640, the
# least int-to-str digit limit Python takes, so every literal, its canonical
# text and the midpoint of two of them print and parse under any setting
MAX_LITERAL_DIGITS = 300

# Whitespace and comments are a skip prefix of every match.  The last two
# alternatives match wherever the others do not, so the greedy prefix never
# backtracks and never hands a blank or a ``//`` to the catch-all.
_LEXEME = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*)*
    (?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)
      |(?P<number>-?[0-9]+(?:[./][0-9]+)?)
      |(?P<punct>->|[=;,(){}\[\]@:])
      |(?P<string>"(?P<body>(?:[^"\\\n]+|\\[\s\S]?)*)(?P<closed>")?)
      |(?P<eof>\Z)
      |(?P<bad>.))""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}


class Token(NamedTuple):
    kind: str
    text: str
    value: object
    line: int
    column: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.column, max(1, len(self.text)))


def _rational(text: str) -> tuple:
    """A number token's value, and the reason it is a bad rational or None."""
    short = len(text) <= MAX_LITERAL_DIGITS // 2  # then its p/q text fits too
    digits = 0 if short else sum(c.isdigit() for c in text)
    if digits > MAX_LITERAL_DIGITS:
        return Fraction(0), _overlong(text, f"{digits} digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        return Fraction(0), f"{text!r} is not a valid rational literal"
    digits = 0 if short else sum(c.isdigit() for c in coord_str(value))
    if digits > MAX_LITERAL_DIGITS:
        return Fraction(0), _overlong(text, f"{digits} digits as p/q")
    return value, None


def _overlong(text: str, count: str) -> str:
    return f"{text[:20]!r}... has {count}; a rational literal has at most {MAX_LITERAL_DIGITS}"


def _tokenize(source: str, file: str, diagnostics: list) -> list:
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    tokens = []
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        text, start = m[kind], m.start(kind)
        line = bisect_right(line_starts, start)
        column = start - line_starts[line - 1] + 1
        value, error = text, None
        if kind == NUMBER:
            value, error = _rational(text)
        elif kind == STRING:
            value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), m["body"])
            error = None if m["closed"] else "unterminated string literal"
        elif kind == BAD:
            error = f"unexpected character {text!r}"
        elif kind == EOF:
            tokens.append(Token(EOF, "", None, line, column))
            break  # a second, empty match at the end may follow this one
        if error:
            code, length = ("bad-rational", len(text)) if kind == NUMBER else ("unexpected-token", 1)
            diagnostics.append(ParseDiagnostic(SourceSpan(file, line, column, length), code, error))
        if kind != BAD:
            tokens.append(Token(kind, text, value, line, column))
    return tokens


# ---------------------------------------------------------------------------
# Raw declarations (first pass)
# ---------------------------------------------------------------------------


@dataclass
class _Chronoid:
    name: str
    name_span: SourceSpan
    left: Fraction
    left_span: SourceSpan
    right: Fraction
    right_span: SourceSpan


@dataclass
class _Property:
    name: str
    name_span: SourceSpan
    domain_kind: str
    symbols: list
    support_kind: str
    radius: Fraction | None
    radius_span: SourceSpan | None


@dataclass
class _Presential:
    name: str
    name_span: SourceSpan
    chron: str
    chron_span: SourceSpan
    t: Fraction
    t_span: SourceSpan
    material: bool
    valuation: list  # (prop, prop_span, value, value_span)


@dataclass
class _Process:
    name: str
    name_span: SourceSpan
    chron: str
    chron_span: SourceSpan
    boundaries: list  # (t, t_span, target, target_span)
    trajectories: list  # (prop, prop_span, [(t, t_span, value, value_span)])


@dataclass
class _Continuant:
    name: str
    name_span: SourceSpan
    chron: str
    chron_span: SourceSpan
    material: bool
    exhibits: list  # (t, t_span, target, target_span)


@dataclass
class _Situation:
    name: str
    name_span: SourceSpan
    mode: str  # "at" | "during"
    chron: str
    chron_span: SourceSpan
    t: Fraction | None
    t_span: SourceSpan | None
    founded: str | None
    founded_span: SourceSpan | None
    contains: list  # (fact id, span)
    participants: list  # (entity id, span)


@dataclass
class _Fact:
    name: str
    name_span: SourceSpan
    relator: str
    relator_span: SourceSpan
    args: list  # (value, span)


@dataclass
class _Function:
    name: str
    name_span: SourceSpan
    kind: str
    bearer: str | None
    bearer_span: SourceSpan | None
    labels: list
    req_items: list | None  # None when the block is missing
    goal_items: list | None
    fitem: list  # (prop, prop_span, value, value_span)


@dataclass
class _Exe:
    x: str
    x_span: SourceSpan
    p: str
    p_span: SourceSpan


@dataclass
class _Instance:
    which: str  # "requirement" | "goal"
    fn: str
    fn_span: SourceSpan
    sit: str
    sit_span: SourceSpan


class _Syntax(Exception):
    def __init__(self, span: SourceSpan, message: str):
        self.span = span
        self.message = message


def _one_of(words) -> str:
    """The keywords ``words`` as ``'a'``, ``'a' or 'b'``, ``'a', 'b' or 'c'``."""
    *rest, last = map(repr, words)
    return f"{', '.join(rest)} or {last}" if rest else last


class _Parser:
    def __init__(self, tokens: list, file: str, diagnostics: list):
        self.tokens = tokens
        self.file = file
        self.diagnostics = diagnostics
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def span(self, tok: Token) -> SourceSpan:
        return tok.span(self.file)

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == PUNCT and tok.text == text

    def expected(self, what: str) -> _Syntax:
        """The error for finding the next token where ``what`` was expected."""
        tok = self.peek()
        return _Syntax(self.span(tok), f"expected {what}, found {tok.text!r}")

    def accept_word(self, *words: str) -> str | None:
        """Consume and return one of ``words`` when it comes next."""
        tok = self.peek()
        if tok.kind == IDENT and tok.text in words:
            return self.advance().text
        return None

    def keyword(self, *words: str) -> str:
        """Consume one of ``words``; any other token is an error naming them all."""
        word = self.accept_word(*words)
        if word is None:
            raise self.expected(_one_of(words))
        return word

    def dispatch(self, handlers: dict):
        """Consume one keyword of ``handlers`` and run its handler; any other
        token is an error naming every keyword."""
        tok = self.peek()
        handler = handlers.get(tok.text) if tok.kind == IDENT else None
        if handler is None:
            raise self.expected(_one_of(handlers))
        self.advance()
        return handler()

    def take_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.expected(repr(text))
        return self.advance()

    def take_ident(self, what: str) -> Token:
        if self.peek().kind != IDENT:
            raise self.expected(what)
        return self.advance()

    def take_number(self, what: str = "a rational literal") -> Token:
        if self.peek().kind != NUMBER:
            raise self.expected(what)
        return self.advance()

    def take_value(self) -> Token:
        if self.peek().kind not in (IDENT, NUMBER):
            raise self.expected("a symbol or rational")
        return self.advance()

    def end_simple(self) -> None:
        self.take_punct(";")

    def end_block(self) -> None:
        # a ';' after '}' (or after a query) is permitted but not required
        if self.at_punct(";"):
            self.advance()

    # -- shared constructs -----------------------------------------------------

    def block(self, item) -> list:
        """``{ item* }``: what ``item`` parses for each entry."""
        self.take_punct("{")
        out = []
        while not self.at_punct("}"):
            out.append(item())
        self.take_punct("}")
        return out

    def body(self, item) -> list:
        """A declaration's end: ``;``, or a block with an optional ``;`` after it."""
        if not self.at_punct("{"):
            self.end_simple()
            return []
        out = self.block(item)
        self.end_block()
        return out

    def assignment(self) -> tuple:
        """``property = value ;`` as (prop, prop span, value, value span)."""
        prop = self.take_ident("a property name")
        self.take_punct("=")
        value = self.take_value()
        self.end_simple()
        return (prop.text, self.span(prop), value.value, self.span(value))

    def sample(self, take_target) -> tuple:
        """``rational -> target ;`` as (t, t span, target, target span)."""
        t = self.take_number("a coordinate")
        self.take_punct("->")
        target = take_target()
        self.end_simple()
        return (t.value, self.span(t), target.value, self.span(target))

    def presential_ref(self) -> Token:
        return self.take_ident("a presential name")

    def member(self, what: str) -> tuple:
        """``id ;`` as (id, span)."""
        tok = self.take_ident(what)
        self.end_simple()
        return (tok.text, self.span(tok))

    def relator_args(self) -> tuple:
        """``relator(value, ...)`` as the relator token and (value, span) pairs."""
        relator = self.take_ident("a relator name")
        self.take_punct("(")
        args = self.comma_list(self.take_value)
        self.take_punct(")")
        return relator, [(tok.value, self.span(tok)) for tok in args]

    def comma_list(self, take) -> list:
        """``item { , item }``: what ``take`` parses for each item."""
        out = [take()]
        while self.at_punct(","):
            self.advance()
            out.append(take())
        return out

    def holds_args(self) -> tuple:
        """``(entity, property, value)`` after ``holds``, as three tokens."""
        self.take_punct("(")
        entity = self.take_ident("an entity name")
        self.take_punct(",")
        prop = self.take_ident("a property name")
        self.take_punct(",")
        value = self.take_value()
        self.take_punct(")")
        return entity, prop, value

    def pair(self, first: str, second: str) -> tuple:
        """``(id, id) ;`` as two tokens."""
        self.take_punct("(")
        a = self.take_ident(first)
        self.take_punct(",")
        b = self.take_ident(second)
        self.take_punct(")")
        self.end_simple()
        return a, b

    def interval(self, what: str = "a rational literal") -> tuple:
        """``[rational, rational]`` as two tokens."""
        self.take_punct("[")
        left = self.take_number(what)
        self.take_punct(",")
        right = self.take_number(what)
        self.take_punct("]")
        return left, right

    # -- recovery --------------------------------------------------------------

    def sync(self) -> None:
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == EOF:
                return
            if tok.kind == PUNCT:
                if tok.text == "{":
                    depth += 1
                elif tok.text == "}":
                    if depth <= 1:
                        self.advance()
                        self.end_block()
                        return
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return
            self.advance()

    # -- statements --------------------------------------------------------------

    def parse(self) -> list:
        decls = []
        table = {
            "chronoid": self.chronoid,
            "property": self.property,
            "presential": self.presential,
            "process": self.process,
            "continuant": self.continuant,
            "situation": self.situation,
            "fact": self.fact,
            "function": self.function,
            "exe": self.exe,
            "requirement-instance": self.instance,
            "goal-instance": self.instance,
        }
        while self.peek().kind != EOF:
            tok = self.peek()
            handler = table.get(tok.text) if tok.kind == IDENT else None
            try:
                if handler is None:
                    self.advance()
                    raise _Syntax(
                        self.span(tok),
                        f"expected a declaration keyword, found {tok.text!r}",
                    )
                decls.append(handler())
            except _Syntax as err:
                self.diagnostics.append(
                    ParseDiagnostic(err.span, "unexpected-token", err.message)
                )
                self.sync()
        return decls

    def chronoid(self) -> _Chronoid:
        self.advance()
        name = self.take_ident("a chronoid name")
        self.take_punct("=")
        left, right = self.interval()
        self.end_simple()
        return _Chronoid(
            name.text,
            self.span(name),
            left.value,
            self.span(left),
            right.value,
            self.span(right),
        )

    def property(self) -> _Property:
        self.advance()
        name = self.take_ident("a property name")
        self.take_punct(":")
        domain_kind = self.keyword(CATEGORICAL, NUMERIC)
        symbols = []
        if domain_kind == CATEGORICAL:
            self.take_punct("{")
            symbols = [tok.text for tok in self.comma_list(self.symbol)]
            self.take_punct("}")
        support_kind = self.accept_word(ISOLATED, NON_ISOLATED, GLOBAL) or ISOLATED
        radius = None
        radius_span = None
        if support_kind == NON_ISOLATED:
            self.take_punct("(")
            radius_tok = self.take_number("a window radius")
            radius = radius_tok.value
            radius_span = self.span(radius_tok)
            self.take_punct(")")
        self.end_simple()
        return _Property(
            name.text,
            self.span(name),
            domain_kind,
            symbols,
            support_kind,
            radius,
            radius_span,
        )

    def symbol(self) -> Token:
        return self.take_ident("a symbol")

    def _time_point(self):
        chron = self.take_ident("a chronoid name")
        self.take_punct("@")
        t = self.take_number("a coordinate")
        return chron, t

    def presential(self) -> _Presential:
        self.advance()
        name = self.take_ident("a presential name")
        self.keyword("at")
        chron, t = self._time_point()
        material = not self.accept_word("immaterial")
        valuation = self.body(self.assignment)
        return _Presential(
            name.text,
            self.span(name),
            chron.text,
            self.span(chron),
            t.value,
            self.span(t),
            material,
            valuation,
        )

    def process(self) -> _Process:
        self.advance()
        name = self.take_ident("a process name")
        self.keyword("extent")
        chron = self.take_ident("a chronoid name")
        boundaries = []
        trajectories = []
        items = {
            "boundary": lambda: boundaries.append(self.sample(self.presential_ref)),
            "trajectory": lambda: trajectories.append(self.trajectory()),
        }
        self.body(lambda: self.dispatch(items))
        return _Process(
            name.text, self.span(name), chron.text, self.span(chron), boundaries, trajectories
        )

    def trajectory(self) -> tuple:
        prop = self.take_ident("a property name")
        samples = self.block(lambda: self.sample(self.take_value))
        return (prop.text, self.span(prop), samples)

    def continuant(self) -> _Continuant:
        self.advance()
        name = self.take_ident("a continuant name")
        self.keyword("lifetime")
        chron = self.take_ident("a chronoid name")
        material = not self.accept_word("immaterial")
        items = {"exhibits": lambda: self.sample(self.presential_ref)}
        exhibits = self.body(lambda: self.dispatch(items))
        return _Continuant(
            name.text, self.span(name), chron.text, self.span(chron), material, exhibits
        )

    def situation(self) -> _Situation:
        self.advance()
        name = self.take_ident("a situation name")
        t = t_span = None
        mode = self.keyword("at", "during")
        if mode == "at":
            chron, t_tok = self._time_point()
            t, t_span = t_tok.value, self.span(t_tok)
        else:
            chron = self.take_ident("a chronoid name")
        founded = founded_span = None
        if self.accept_word("founded"):
            self.keyword("on")
            target = self.take_ident("a process name")
            founded, founded_span = target.text, self.span(target)
        contains = []
        participants = []
        items = {
            "contains": lambda: contains.append(self.member("a fact name")),
            "participant": lambda: participants.append(self.member("an entity name")),
        }
        self.body(lambda: self.dispatch(items))
        return _Situation(
            name.text,
            self.span(name),
            mode,
            chron.text,
            self.span(chron),
            t,
            t_span,
            founded,
            founded_span,
            contains,
            participants,
        )

    def fact(self) -> _Fact:
        self.advance()
        name = self.take_ident("a fact name")
        self.take_punct("=")
        relator, args = self.relator_args()
        self.end_simple()
        return _Fact(
            name.text, self.span(name), relator.text, self.span(relator), args
        )

    def function(self) -> _Function:
        self.advance()
        name = self.take_ident("a function name")
        kind = self.accept_word(*FUNCTION_KINDS) or CONCEPTUAL
        bearer = bearer_span = None
        if self.accept_word("bearer"):
            tok = self.take_ident("a bearer entity")
            bearer, bearer_span = tok.text, self.span(tok)
        labels = []
        concepts = {}  # "requires"/"achieves" -> items of the last such block
        fitem = []
        parts = {
            "label": lambda: labels.append(self.label()),
            "requires": lambda: concepts.update(requires=self.concept()),
            "achieves": lambda: concepts.update(achieves=self.concept()),
            "fitem": lambda: fitem.extend(self.block(self.assignment)),
        }
        self.block(lambda: self.dispatch(parts))
        self.end_block()
        return _Function(
            name.text,
            self.span(name),
            kind,
            bearer,
            bearer_span,
            labels,
            concepts.get("requires"),
            concepts.get("achieves"),
            fitem,
        )

    def label(self) -> str:
        if self.peek().kind != STRING:
            raise self.expected("a string label")
        tok = self.advance()
        self.end_simple()
        return tok.value

    def concept(self) -> list:
        items = {"fact": self.concept_fact, "holds": self.concept_holds}
        return self.block(lambda: self.dispatch(items))

    def concept_fact(self) -> tuple:
        relator, pats = self.relator_args()
        self.end_simple()
        return ("fact", relator.text, self.span(relator), pats)

    def concept_holds(self) -> tuple:
        entity, prop, value = self.holds_args()
        self.end_simple()
        return (
            "holds",
            entity.text,
            self.span(entity),
            prop.text,
            self.span(prop),
            value.value,
            self.span(value),
        )

    def exe(self) -> _Exe:
        self.advance()
        x, p = self.pair("an executor entity", "a process name")
        return _Exe(x.text, self.span(x), p.text, self.span(p))

    def instance(self) -> _Instance:
        keyword = self.advance()
        which = "requirement" if keyword.text == "requirement-instance" else "goal"
        fn, sit = self.pair("a function name", "a situation name")
        return _Instance(which, fn.text, self.span(fn), sit.text, self.span(sit))


# ---------------------------------------------------------------------------
# Linker (second pass)
# ---------------------------------------------------------------------------


class _Linker:
    def __init__(self, decls: list, diagnostics: list):
        self.decls = decls
        self.diagnostics = diagnostics
        self.prop_decls: dict = {}
        self.chron_decls: dict = {}
        self.entity_kinds: dict = {}  # name -> kind string (first declaration wins)
        self.fn_decls: dict = {}

    def diag(self, span: SourceSpan, code: str, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(span, code, message))

    # -- namespace registration ------------------------------------------------

    _ENTITY_KIND = {
        _Presential: "presential",
        _Process: "process",
        _Continuant: "continuant",
        _Situation: "situation",
        _Fact: "fact",
    }

    def register(self) -> None:
        namespaces = {
            _Property: ("property", self.prop_decls),
            _Chronoid: ("chronoid", self.chron_decls),
            _Function: ("function", self.fn_decls),
        }
        for decl in self.decls:
            if type(decl) in namespaces:
                noun, table = namespaces[type(decl)]
                if decl.name in table:
                    self.diag(
                        decl.name_span,
                        "duplicate-id",
                        f"{noun} {decl.name!r} is declared twice",
                    )
                else:
                    table[decl.name] = decl
            elif type(decl) in self._ENTITY_KIND:
                kind = self._ENTITY_KIND[type(decl)]
                prior = self.entity_kinds.get(decl.name)
                if prior is None:
                    self.entity_kinds[decl.name] = kind
                elif prior == kind:
                    self.diag(
                        decl.name_span,
                        "duplicate-id",
                        f"{kind} {decl.name!r} is declared twice",
                    )
                else:
                    self.diag(
                        decl.name_span,
                        "kind-conflict",
                        f"{decl.name!r} is already declared as a {prior}, "
                        f"cannot also be a {kind}",
                    )

    def decls_of(self, cls) -> list:
        return [decl for decl in self.decls if isinstance(decl, cls)]

    # -- reference helpers -------------------------------------------------------

    def resolve_entity(self, name: str, span: SourceSpan, kind: str | None = None):
        declared = self.entity_kinds.get(name)
        if declared is None:
            self.diag(span, "dangling-reference", f"{name!r} is not declared")
            return False
        if kind is not None and declared != kind:
            self.diag(
                span,
                "kind-conflict",
                f"{name!r} is a {declared}, but a {kind} is required here",
            )
            return False
        return True

    def resolve_chronoid(self, name: str, span: SourceSpan):
        ch = self.chronoids.get(name)
        if ch is None:
            self.diag(span, "dangling-reference", f"chronoid {name!r} is not declared")
        return ch

    def check_value(self, pdef: PropertyDef, value, span: SourceSpan) -> bool:
        if not pdef.domain.admits(value):
            self.diag(
                span,
                "bad-value",
                f"{str(fmt_value(value))!r} is not in the value domain of "
                f"property {pdef.name!r}",
            )
            return False
        return True

    def resolve_property(self, name: str, span: SourceSpan):
        pdef = self.property_defs.get(name)
        if pdef is None:
            self.diag(span, "unknown-id", f"property {name!r} is not declared")
        return pdef

    def resolve_value(self, prop, prop_span, value, value_span) -> bool:
        """Resolve a property name, then check the value it is given."""
        pdef = self.resolve_property(prop, prop_span)
        return pdef is not None and self.check_value(pdef, value, value_span)

    def new_sample(self, t, t_span, ch, seen, what: str) -> bool:
        """True when ``t`` lies in ``ch`` and is not in ``seen`` yet;
        otherwise reports why not."""
        if ch is not None and not ch.contains(t):
            self.diag(
                t_span,
                "out-of-extent",
                f"{coord_str(t)} lies outside [{coord_str(ch.left)}, "
                f"{coord_str(ch.right)}]",
            )
            return False
        if t in seen:
            self.diag(
                t_span, "duplicate-id", f"{what} at {coord_str(t)} is declared twice"
            )
            return False
        return True

    # -- stages --------------------------------------------------------------------

    def build_properties(self) -> None:
        self.property_defs = {}
        for decl in self.prop_decls.values():
            if decl.support_kind == NON_ISOLATED and decl.radius is not None:
                if decl.radius <= 0:
                    self.diag(
                        decl.radius_span,
                        "bad-value",
                        "window radius must be strictly positive",
                    )
            domain = ValueDomain(decl.domain_kind, frozenset(decl.symbols))
            self.property_defs[decl.name] = PropertyDef(
                name=decl.name,
                domain=domain,
                support=Support(decl.support_kind, decl.radius),
            )

    def build_chronoids(self) -> None:
        self.chronoids = {}
        for decl in self.chron_decls.values():
            if decl.left >= decl.right:
                self.diag(
                    decl.left_span,
                    "zero-duration",
                    f"chronoid {decl.name!r}: [{coord_str(decl.left)}, "
                    f"{coord_str(decl.right)}] has no duration",
                )
                continue
            self.chronoids[decl.name] = Chronoid(decl.name, decl.left, decl.right)

    def _boundary_at(self, decl_chron, chron_span, t, t_span):
        ch = self.resolve_chronoid(decl_chron, chron_span)
        if ch is None:
            return None
        if not ch.contains(t):
            self.diag(
                t_span,
                "out-of-extent",
                f"{coord_str(t)} lies outside chronoid {ch.id!r} "
                f"[{coord_str(ch.left)}, {coord_str(ch.right)}]",
            )
            return None
        return inner_boundary(ch, t)

    def build_presentials(self) -> None:
        self.presentials = {}
        for decl in self.decls_of(_Presential):
            boundary = self._boundary_at(
                decl.chron, decl.chron_span, decl.t, decl.t_span
            )
            valuation = {}
            for prop, prop_span, value, value_span in decl.valuation:
                pdef = self.resolve_property(prop, prop_span)
                if pdef is None:
                    continue
                if pdef.support.kind != ISOLATED:
                    self.diag(
                        prop_span,
                        "kind-conflict",
                        f"property {prop!r} has {pdef.support.kind} support and "
                        "cannot be valued at a single boundary",
                    )
                    continue
                if prop in valuation:
                    self.diag(
                        prop_span,
                        "duplicate-id",
                        f"property {prop!r} is valued twice on {decl.name!r}",
                    )
                    continue
                if self.check_value(pdef, value, value_span):
                    valuation[prop] = value
            if boundary is not None:
                self.presentials[decl.name] = Presential(
                    id=decl.name,
                    at=boundary,
                    valuation=valuation,
                    material=decl.material,
                )

    def _sample_map(self, decl, entries, ch, keyword: str) -> dict:
        out: dict = {}
        for t, t_span, target, target_span in entries:
            if not self.new_sample(t, t_span, ch, out, keyword):
                continue
            if not self.resolve_entity(target, target_span, kind="presential"):
                continue
            pres = self.presentials.get(target)
            if pres is not None and pres.at.coordinate != t:
                self.diag(
                    target_span,
                    "coordinate-mismatch",
                    f"presential {target!r} is at {coord_str(pres.at.coordinate)}, "
                    f"not at {coord_str(t)}",
                )
                continue
            out[t] = target
        if ch is not None:
            for endpoint in (ch.left, ch.right):
                if endpoint not in out:
                    self.diag(
                        decl.name_span,
                        "missing-endpoint",
                        f"{decl.name!r} has no {keyword} at the endpoint "
                        f"{coord_str(endpoint)}",
                    )
        return out

    def build_processes(self) -> None:
        self.processes = {}
        for decl in self.decls_of(_Process):
            ch = self.resolve_chronoid(decl.chron, decl.chron_span)
            boundary_map = self._sample_map(decl, decl.boundaries, ch, "boundary")
            trajectories: dict = {}
            for prop, prop_span, samples in decl.trajectories:
                pdef = self.resolve_property(prop, prop_span)
                if pdef is None:
                    continue
                if pdef.support.kind == ISOLATED:
                    self.diag(
                        prop_span,
                        "kind-conflict",
                        f"property {prop!r} has isolated support; its values live "
                        "on presentials, not trajectories",
                    )
                    continue
                if prop in trajectories:
                    self.diag(
                        prop_span,
                        "duplicate-id",
                        f"trajectory for {prop!r} is declared twice",
                    )
                    continue
                points: dict = {}
                for t, t_span, value, value_span in samples:
                    if not self.new_sample(t, t_span, ch, points, "trajectory sample"):
                        continue
                    if self.check_value(pdef, value, value_span):
                        points[t] = value
                trajectories[prop] = tuple(sorted(points.items()))
            if ch is not None:
                self.processes[decl.name] = Process(
                    id=decl.name,
                    extent=ch,
                    boundary_map=boundary_map,
                    trajectories=trajectories,
                )

    def build_continuants(self) -> None:
        self.continuants = {}
        for decl in self.decls_of(_Continuant):
            ch = self.resolve_chronoid(decl.chron, decl.chron_span)
            exhibit_map = self._sample_map(decl, decl.exhibits, ch, "exhibits")
            if ch is not None:
                self.continuants[decl.name] = Continuant(
                    id=decl.name,
                    lifetime=ch,
                    exhibit_map=exhibit_map,
                    material=decl.material,
                )

    def build_facts(self) -> None:
        self.facts = {}
        for decl in self.decls_of(_Fact):
            args = []
            ok = True
            pdef = self.property_defs.get(decl.relator)
            if pdef is not None:
                # property fact: (subject entity, literal value)
                if len(decl.args) != 2:
                    self.diag(
                        decl.relator_span,
                        "bad-value",
                        f"a property fact takes (subject, value); "
                        f"{decl.relator!r} got {len(decl.args)} argument(s)",
                    )
                    ok = False
                else:
                    subject, subject_span = decl.args[0]
                    value, value_span = decl.args[1]
                    if isinstance(subject, Fraction):
                        self.diag(
                            subject_span,
                            "bad-value",
                            "the subject of a property fact must be an entity",
                        )
                        ok = False
                    elif not self.resolve_entity(subject, subject_span):
                        ok = False
                    if not self.check_value(pdef, value, value_span):
                        ok = False
                    args = [subject, value]
            else:
                for value, span in decl.args:
                    if isinstance(value, Fraction):
                        self.diag(
                            span,
                            "bad-value",
                            "literal arguments are only allowed in property facts",
                        )
                        ok = False
                    elif not self.resolve_entity(value, span):
                        ok = False
                    args.append(value)
            if ok:
                self.facts[decl.name] = Fact(
                    id=decl.name, relator=decl.relator, args=tuple(args)
                )

    def build_situations(self) -> None:
        self.situations = {}
        used_facts = set()
        for decl in self.decls_of(_Situation):
            if decl.mode == "at":
                extent = self._boundary_at(
                    decl.chron, decl.chron_span, decl.t, decl.t_span
                )
            else:
                extent = self.resolve_chronoid(decl.chron, decl.chron_span)
            if decl.founded is not None:
                self.resolve_entity(decl.founded, decl.founded_span, kind="process")
            constituents = set()
            for fact, span in decl.contains:
                if self.resolve_entity(fact, span, kind="fact"):
                    constituents.add(fact)
                    used_facts.add(fact)
            participants = set()
            for entity, span in decl.participants:
                if self.resolve_entity(entity, span):
                    participants.add(entity)
            if extent is not None:
                self.situations[decl.name] = Situation(
                    id=decl.name,
                    extent=extent,
                    constituents=frozenset(constituents),
                    participants=frozenset(participants),
                    founded_on=decl.founded,
                )
        # facts are properties of processes only through situations; a fact
        # contained in no situation has nothing to be founded on
        for decl in self.decls_of(_Fact):
            if decl.name not in used_facts:
                self.diag(
                    decl.name_span,
                    "orphan-fact",
                    f"fact {decl.name!r} is not a constituent of any situation",
                )

    def _concept(self, fn_name: str, which: str, items: list | None, name_span):
        if not items:
            self.diag(
                name_span,
                "empty-concept",
                f"function {fn_name!r} needs a non-empty '"
                + ("requires" if which == "req" else "achieves")
                + "' block",
            )
            return None
        patterns = set()
        constraints = set()
        for item in items:
            if item[0] == "fact":
                _, relator, _relator_span, pats = item
                patterns.add(
                    FactPattern(relator=relator, args=tuple(v for v, _ in pats))
                )
            else:
                _, entity, _e_span, prop, prop_span, value, value_span = item
                if not self.resolve_value(prop, prop_span, value, value_span):
                    continue
                constraints.add(
                    PropertyConstraint(entity=entity, prop=prop, value=value)
                )
        if not patterns and not constraints:
            return None
        return SituationConcept(
            required_facts=frozenset(patterns),
            required_props=frozenset(constraints),
            name=f"{fn_name}.{which}",
        )

    def build_functions(self) -> None:
        self.functions = {}
        for decl in self.fn_decls.values():
            req = self._concept(decl.name, "req", decl.req_items, decl.name_span)
            goal = self._concept(decl.name, "goal", decl.goal_items, decl.name_span)
            if decl.kind == INDIVIDUAL and decl.bearer is None:
                self.diag(
                    decl.name_span,
                    "dangling-reference",
                    f"individual function {decl.name!r} must name a bearer",
                )
            if decl.bearer is not None:
                self.resolve_entity(decl.bearer, decl.bearer_span)
            fitem = []
            for prop, prop_span, value, value_span in decl.fitem:
                if self.resolve_value(prop, prop_span, value, value_span):
                    fitem.append((prop, value))
            if req is None or goal is None:
                continue
            self.functions[decl.name] = FunctionSpec(
                id=decl.name,
                req=req,
                goal=goal,
                labels=frozenset(decl.labels),
                fitem=tuple(sorted(fitem, key=lambda c: (c[0], str(c[1])))),
                kind=decl.kind,
                bearer=decl.bearer,
            )

    def build_assertions(self) -> None:
        self.exe = set()
        self.req_instances: dict = {}
        self.goal_instances: dict = {}
        for decl in self.decls:
            if isinstance(decl, _Exe):
                ok = self.resolve_entity(decl.x, decl.x_span)
                ok = self.resolve_entity(decl.p, decl.p_span, kind="process") and ok
                if ok:
                    self.exe.add((decl.x, decl.p))
            elif isinstance(decl, _Instance):
                if decl.fn not in self.fn_decls:
                    self.diag(
                        decl.fn_span,
                        "unknown-id",
                        f"function {decl.fn!r} is not declared",
                    )
                    continue
                if not self.resolve_entity(decl.sit, decl.sit_span, kind="situation"):
                    continue
                store = (
                    self.req_instances
                    if decl.which == "requirement"
                    else self.goal_instances
                )
                store.setdefault(decl.fn, set()).add(decl.sit)

    def link(self) -> Model | None:
        self.register()
        self.build_properties()
        self.build_chronoids()
        self.build_presentials()
        self.build_processes()
        self.build_continuants()
        self.build_facts()
        self.build_situations()
        self.build_functions()
        self.build_assertions()
        if self.diagnostics:
            return None
        return Model(
            chronoids=self.chronoids,
            presentials=self.presentials,
            processes=self.processes,
            continuants=self.continuants,
            situations=self.situations,
            facts=self.facts,
            property_defs=self.property_defs,
            functions=self.functions,
            exe_assertions=frozenset(self.exe),
            requirement_instances={
                fn: frozenset(sits) for fn, sits in self.req_instances.items()
            },
            goal_instances={
                fn: frozenset(sits) for fn, sits in self.goal_instances.items()
            },
        )


def parse(source: str, file: str = "<input>") -> Model:
    """Parse `.gfo` source into a validated model.

    Raises :class:`ParseError` with the full diagnostic list on any lexical,
    syntactic or structural problem; a returned model always satisfies the
    store invariants.
    """
    diagnostics: list = []
    tokens = _tokenize(source, file, diagnostics)
    decls = _Parser(tokens, file, diagnostics).parse()
    model = _Linker(decls, diagnostics).link()
    if diagnostics:
        raise ParseError(diagnostics)
    assert model is not None
    return model


def parse_file(path) -> Model:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read(), file=str(path))


# ---------------------------------------------------------------------------
# Canonical serializer
# ---------------------------------------------------------------------------


def fmt_value(value):
    """Canonical rendering of a value or argument, shared by ``serialize``
    and the JSON dump: rationals as ``p/q``, anything else unchanged."""
    return coord_str(value) if isinstance(value, Fraction) else value


def concept_items(concept) -> tuple:
    """The fact patterns and the property constraints of a concept, each in
    the canonical order shared by ``serialize`` and the JSON dump."""
    return (
        sorted(concept.required_facts, key=lambda p: (p.relator, tuple(map(str, p.args)))),
        sorted(concept.required_props, key=lambda c: (c.entity, c.prop, str(c.value))),
    )


def _args(values) -> str:
    return ", ".join(str(fmt_value(v)) for v in values)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _time_point_ref(boundary: TimeBoundary) -> str:
    return f"{boundary.owner}@{coord_str(boundary.coordinate)}"


def serialize(m: Model) -> str:
    """Canonical text for a model: sorted declarations, normalized rationals.

    ``parse(serialize(m))`` is store-equal to ``m``, and serialization is a
    fixed point: reparsing and reserializing reproduces the bytes.
    """
    out: list = []

    for name in sorted(m.property_defs):
        pdef = m.property_defs[name]
        if pdef.domain.kind == CATEGORICAL:
            domain = "categorical { " + ", ".join(sorted(pdef.domain.symbols)) + " }"
        else:
            domain = "numeric"
        support = pdef.support.kind
        if pdef.support.kind == NON_ISOLATED:
            support = f"{NON_ISOLATED}({coord_str(pdef.support.window_radius)})"
        out.append(f"property {name} : {domain} {support};")

    for name in sorted(m.chronoids):
        ch = m.chronoids[name]
        out.append(
            f"chronoid {name} = [{coord_str(ch.left)}, {coord_str(ch.right)}];"
        )

    for name in sorted(m.presentials):
        pres = m.presentials[name]
        head = f"presential {name} at {_time_point_ref(pres.at)}"
        if not pres.material:
            head += " immaterial"
        if pres.valuation:
            out.append(head + " {")
            for prop in sorted(pres.valuation):
                out.append(f"  {prop} = {fmt_value(pres.valuation[prop])};")
            out.append("}")
        else:
            out.append(head + ";")

    for name in sorted(m.processes):
        p = m.processes[name]
        out.append(f"process {name} extent {p.extent.id} {{")
        for t in sorted(p.boundary_map):
            out.append(f"  boundary {coord_str(t)} -> {p.boundary_map[t]};")
        for prop in sorted(p.trajectories):
            out.append(f"  trajectory {prop} {{")
            for t, value in sorted(p.trajectories[prop]):
                out.append(f"    {coord_str(t)} -> {fmt_value(value)};")
            out.append("  }")
        out.append("}")

    for name in sorted(m.continuants):
        c = m.continuants[name]
        head = f"continuant {name} lifetime {c.lifetime.id}"
        if not c.material:
            head += " immaterial"
        out.append(head + " {")
        for t in sorted(c.exhibit_map):
            out.append(f"  exhibits {coord_str(t)} -> {c.exhibit_map[t]};")
        out.append("}")

    for name in sorted(m.facts):
        fact = m.facts[name]
        out.append(f"fact {name} = {fact.relator}({_args(fact.args)});")

    for name in sorted(m.situations):
        s = m.situations[name]
        if s.presentic:
            head = f"situation {name} at {_time_point_ref(s.extent)}"
        else:
            head = f"situation {name} during {s.extent.id}"
        if s.founded_on is not None:
            head += f" founded on {s.founded_on}"
        if s.constituents or s.participants:
            out.append(head + " {")
            for fid in sorted(s.constituents):
                out.append(f"  contains {fid};")
            for entity in sorted(s.participants):
                out.append(f"  participant {entity};")
            out.append("}")
        else:
            out.append(head + ";")

    for name in sorted(m.functions):
        fn = m.functions[name]
        head = f"function {name}"
        if fn.kind != CONCEPTUAL:
            head += f" {fn.kind}"
        if fn.bearer is not None:
            head += f" bearer {fn.bearer}"
        out.append(head + " {")
        for label in sorted(fn.labels):
            out.append(f'  label "{_escape(label)}";')
        for keyword, concept in (("requires", fn.req), ("achieves", fn.goal)):
            out.append(f"  {keyword} {{")
            patterns, constraints = concept_items(concept)
            for pattern in patterns:
                out.append(f"    fact {pattern.relator}({_args(pattern.args)});")
            for pc in constraints:
                out.append(f"    holds({pc.entity}, {pc.prop}, {fmt_value(pc.value)});")
            out.append("  }")
        if fn.fitem:
            out.append("  fitem {")
            for prop, value in fn.fitem:
                out.append(f"    {prop} = {fmt_value(value)};")
            out.append("  }")
        out.append("}")

    for x, p in sorted(m.exe_assertions):
        out.append(f"exe({x}, {p});")
    for keyword, instances in (
        ("requirement-instance", m.requirement_instances),
        ("goal-instance", m.goal_instances),
    ):
        for fn in sorted(instances):
            for sit in sorted(instances[fn]):
                out.append(f"{keyword}({fn}, {sit});")

    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Query sublanguage
# ---------------------------------------------------------------------------


def parse_query(text: str, m: Model | None = None):
    """Parse an elementary proposition.

    Forms: ``holds(subject, property, value)`` and ``fact relator(arg, ...)``
    with an optional time reference ``at <rational>`` or ``during [l, r]``
    and an optional trailing ``;``.  When a model is supplied, the property
    name of a ``holds`` proposition must be declared in it.
    """
    diagnostics: list = []
    file = "<query>"
    tokens = _tokenize(text, file, diagnostics)
    parser = _Parser(tokens, file, diagnostics)
    prop = None
    try:
        if parser.keyword("holds", "fact") == "holds":
            subject, prop_name, value = parser.holds_args()
            time_ref = _parse_time_ref(parser, diagnostics)
            if m is not None and prop_name.text not in m.property_defs:
                diagnostics.append(
                    ParseDiagnostic(
                        parser.span(prop_name),
                        "unknown-id",
                        f"property {prop_name.text!r} is not declared",
                    )
                )
            prop = HoldsProp(
                subject=subject.text,
                prop=prop_name.text,
                value=value.value,
                time_ref=time_ref,
            )
        else:
            relator, args = parser.relator_args()
            time_ref = _parse_time_ref(parser, diagnostics)
            prop = FactProp(
                relator=relator.text,
                patterns=tuple(value for value, _ in args),
                time_ref=time_ref,
            )
        parser.end_block()
        tok = parser.peek()
        if tok.kind != EOF:
            raise _Syntax(
                parser.span(tok), f"unexpected trailing input: {tok.text!r}"
            )
    except _Syntax as err:
        diagnostics.append(ParseDiagnostic(err.span, "unexpected-token", err.message))
    if diagnostics:
        raise ParseError(diagnostics)
    return prop


def _parse_time_ref(parser: _Parser, diagnostics: list):
    if parser.accept_word("at"):
        t = parser.take_number("a coordinate")
        return AtTime(t.value)
    if parser.accept_word("during"):
        left, right = parser.interval("a coordinate")
        if left.value >= right.value:
            diagnostics.append(
                ParseDiagnostic(
                    parser.span(left),
                    "zero-duration",
                    f"[{coord_str(left.value)}, {coord_str(right.value)}] "
                    "has no duration",
                )
            )
        return DuringSpan(left.value, right.value)
    return None


__all__ = [
    "DIAGNOSTIC_CODES",
    "SourceSpan",
    "ParseDiagnostic",
    "ParseError",
    "parse",
    "parse_file",
    "serialize",
    "parse_query",
]
