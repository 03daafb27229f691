"""The `.gfo` declaration language: parser, diagnostics, canonical rendering.

The language is statement-oriented (``keyword name ... ;`` with braces for
maps) and resolved in two passes, so forward references are legal.  Parsing
either yields a model satisfying every structural invariant of the store,
or raises :class:`ParseError` carrying span-annotated diagnostics — never a
partial model.  Each pass records its faults by index into one token list,
a bad run's token included, and one walk locates them all at the end.  The
lexer and the parser report every error they can: recovery skips to the
next declaration keyword at column 1, past a bad run as past a stray
token, and goes on from there.  The linker (the second pass, link.py)
runs only on a clean parse, so none of its diagnostics follows from a
lexical or syntax error.  It too reports every fault it finds, and builds
every declaration as written; any diagnostic discards the model it built.

``model_to_json`` is the one canonical view of a store: map entries in
coordinate order, sets sorted, rationals normalized.  `gfo dump` prints it
as JSON and ``serialize`` as source text, declarations sorted by kind and
id.  Parsing the serialization of a model reproduces a store-equal model,
and serialization of a parse is invariant under reordering the source's
declarations and the entries inside its blocks.

The full grammar is published in docs/grammar.md.
"""

from __future__ import annotations

import gc
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .chrono import Time, TimeBoundary, coord_str, fmt_value, no_duration
from .errors import GfoError
from .functions import CONCEPTUAL, FUNCTION_KINDS
from .link import _Linker
from .model import CATEGORICAL, GLOBAL, ISOLATED, NON_ISOLATED, NUMERIC, Model
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
    """One fault found in a source: where it is, its code and its message."""

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

# Whitespace and comments are a skip prefix of every match (blanks, then
# comments each with the blanks after it), and the one group is the token:
# ``findall`` returns the token texts alone.  First characters tell the token
# classes apart (docs/grammar.md), so punctuation, the most frequent, comes
# first.  The last two alternatives match wherever the others do not, so the
# greedy prefix never backtracks and never hands a blank or a ``//`` to the
# catch-all.  A bad run goes on over every character at which no blank,
# comment or token starts: a stretch of characters no blank or token begins
# with, a '/' not followed by '/', a '-' followed by neither '>' nor a digit.
# The end of input is the one empty token; a second empty match may follow it.
# No repeat ever gives text back, so each is written possessive (``*+``,
# ``++``, ``?+``): a match keeps no state per repetition, and a string of
# many escapes costs no more memory than its text.
_SKIPPED = r"[ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+"
_LEXEME = _SKIPPED + r"""([=;,(){}\[\]@:]
    |[A-Za-z_][A-Za-z0-9_]*+(?:-[A-Za-z0-9_]++)*+
    |-?[0-9]++(?:[./][0-9]++)?+|->
    |"(?:[^"\\\n]++|\\[\s\S]?+)*+"?
    |\Z
    |.(?:[^ \t\r\n0-9A-Za-z_"=;,(){}\[\]@:/-]++|/(?!/)|-(?![0-9>]))*+)"""
_SKIPPED, _LEXEME = re.compile(_SKIPPED), re.compile(_LEXEME, re.VERBOSE)
_NEWLINE = re.compile("\n")
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}

# a token's class follows from its first character, and from its second
# after '-': '->', a negative number, or a bad run (docs/grammar.md)
_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", IDENT),
    **dict.fromkeys([*"0123456789", *(f"-{digit}" for digit in "0123456789")], NUMBER),
    **dict.fromkeys(["->", *"=;,(){}[]@:"], PUNCT),
    '"': STRING,
    "": EOF,
}


class Token:
    """A token's class, text and value."""

    __slots__ = ("kind", "text", "value")

    def __init__(self, kind: str, text: str, value):
        self.kind, self.text, self.value = kind, text, value


def _rational(text: str) -> tuple:
    """A number token's value, and the reason it is a bad rational or None."""
    short = len(text) <= MAX_LITERAL_DIGITS // 2  # then its p/q text fits too
    digits = 0 if short else sum(c.isdigit() for c in text)
    if digits > MAX_LITERAL_DIGITS:
        return Time(0), _overlong(text, f"{digits} digits")
    try:  # p/q is built from its int parts, an integer from its int, a decimal from its text
        p, _, q = text.partition("/")
        value = Time(text) if "." in text else Time(int(p), int(q)) if q else Time(int(p))
    except ZeroDivisionError:
        return Time(0), f"{text!r} is not a valid rational literal"
    digits = 0 if short else sum(c.isdigit() for c in coord_str(value))
    if digits > MAX_LITERAL_DIGITS:
        return Time(0), _overlong(text, f"{digits} digits as p/q")
    return value, None


def _overlong(text: str, count: str) -> str:
    return f"{_shown(text)} has {count}; a rational literal has at most {MAX_LITERAL_DIGITS}"


def _shown(text: str) -> str:
    """A token's text as a diagnostic quotes it: at most 20 characters, then '...'."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def _lexeme(text: str, faults: dict) -> Token:
    """The token of the text ``text``; a faulty text gets its diagnostic's
    ``(code, message, length)`` in ``faults``."""
    kind = _KINDS.get(text[:1]) or _KINDS.get(text[:2], BAD)
    value = text
    if kind == NUMBER:
        value, error = _rational(text)
        if error:
            faults[text] = ("bad-rational", error, len(text))
    elif kind == STRING:  # closed by a last '"' after an even run of backslashes
        body = text[1:-1]
        if len(text) < 2 or text[-1] != '"' or (len(body) - len(body.rstrip("\\"))) % 2:
            faults[text] = ("unexpected-token", "unterminated string literal", 1)
            return Token(BAD, text, text)  # no value: the parser rejects it as a bad run
        value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
    elif kind == BAD:
        error = f"unexpected character{'s' if len(text) > 1 else ''} {_shown(text)}"
        faults[text] = ("unexpected-token", error, len(text))
    return Token(kind, text, value)


def _lex(source: str) -> tuple:
    """The tokens of ``source``, token i for the lexer's text i, and the
    list of faults that every pass of a load adds to: one ``(token index,
    code, message, length)`` per faulty token, a length of 0 meaning the
    token's own."""
    texts = _LEXEME.findall(source)
    del texts[texts.index("") :]  # the end of input and what follows it
    faults: dict = {}  # text -> the fault each of its occurrences gets
    lexemes = {text: _lexeme(text, faults) for text in set(texts)}  # each text read once
    # every occurrence of a text shares its one Token: a position is an index
    tokens = list(map(lexemes.get, texts))
    tokens.append(Token(EOF, "", None))
    faulty = compress(range(len(texts)), map(faults.__contains__, texts)) if faults else ()
    return tokens, [(i, *faults[texts[i]]) for i in faulty]


def _tokenize(source: str, file: str, diagnostics: list) -> list:
    tokens, found = _lex(source)
    diagnostics += _Positions(source, file, tokens).diagnostics(found)
    return tokens


class _Positions:
    """Where the tokens of one source stand, found only when a diagnostic
    asks: a span walks the token texts on to its token, a line counts the
    newlines on to its offset and is a bisect.  Token i is the lexer's text
    i, so a fault at token k walks about k texts, however long the source."""

    def __init__(self, source: str, file: str, tokens: list):
        self.source, self.file, self.tokens = source, file, tokens
        self.starts, self.end = array("q"), 0  # each walked token's start, the last one's end
        self.newlines, self.counted = array("q"), 0  # the newlines before offset ``counted``

    def walk(self, texts: list) -> None:
        """Find the start offset of each of ``texts``, the lexer's next texts
        of the source, the end of input being the empty text.  A text starts
        where the lexer's own skip prefix of blanks and comments ends after
        the text before it, so each start is exact by construction."""
        source, starts, end, skipped = self.source, self.starts, self.end, _SKIPPED.match
        for text in texts:
            start = skipped(source, end).end()
            starts.append(start)
            end = start + len(text)
        self.end = end

    def span(self, index: int, length: int = 0) -> SourceSpan:
        """The span of ``tokens[index]``, or of ``length`` characters from its start."""
        if index >= len(self.starts):
            self.walk([tok.text for tok in self.tokens[len(self.starts) : index + 1]])
        offset = self.starts[index]
        if offset > self.counted:
            found = _NEWLINE.finditer(self.source, self.counted, offset)
            self.newlines.extend(map(re.Match.start, found))
            self.counted = offset
        line = bisect_left(self.newlines, offset)  # the newlines before the offset
        column = offset - (self.newlines[line - 1] + 1 if line else 0) + 1
        length = length or max(1, len(self.tokens[index].text))
        return SourceSpan(self.file, line + 1, column, length)

    def diagnostics(self, found: list) -> list:
        """A diagnostic per ``(index, code, message, length)``, at the token of that index."""
        return [ParseDiagnostic(self.span(i, n), code, msg) for i, code, msg, n in found]


# ---------------------------------------------------------------------------
# Records (first pass)
# ---------------------------------------------------------------------------

# The parser keeps one record per declaration, a tuple of its keyword and
# the indexes of the tokens it was parsed from: a name or reference is its
# identifier's index, a coordinate or value its literal's.
# Every occurrence of a text shares one Token, so the index is the position.
# The linker reads text and values off ``tokens[index]``, and builds a
# SourceSpan from an index only when it reports a diagnostic there.  Lists
# hold (prop, value) pairs for a valuation or fitem, (t, target) pairs for
# boundaries and exhibits, (prop, [(t, value)]) for trajectories.  A missing
# radius, bearer or ``founded on``, a situoid's t (it spans the whole
# chronoid) and the items of a missing requires or achieves block are None.
# Kinds, symbols, labels and ``material`` are values, not indexes:
#
#   ("chronoid", name, left, right)
#   ("property", name, domain kind, [symbol], support kind, radius)
#   ("presential", name, chronoid, t, material, valuation)
#   ("process", name, chronoid, boundaries, trajectories)
#   ("continuant", name, chronoid, material, exhibits)
#   ("situation", name, chronoid, t, founded on, [contained fact], [participant])
#   ("fact", name, relator, [arg])
#   ("function", name, kind, bearer, [label], requires items, achieves items, fitem)
#   ("exe", executor, process)
#   ("requirement-instance" or "goal-instance", function, situation)
#
# A concept's items are (relator, [arg]) pairs and (entity, prop, value) triples.


# parts of a shape for ``_Parser.shaped``: what a token is called, and the
# classes it may have
_VALUE, _COORDINATE = ("a symbol or rational", (IDENT, NUMBER)), ("a coordinate", (NUMBER,))
_PRESENTIAL, _CHRONOID = ("a presential name", (IDENT,)), ("a chronoid name", (IDENT,))


class _Syntax(Exception):
    def __init__(self, index: int, message: str):
        self.index = index
        self.message = message


def _one_of(words) -> str:
    """The keywords ``words`` as ``'a'``, ``'a' or 'b'``, ``'a', 'b' or 'c'``."""
    *rest, last = map(repr, words)
    return f"{', '.join(rest)} or {last}" if rest else last


class _Parser:
    def __init__(self, tokens: list, positions: _Positions, diagnostics: list):
        self.tokens = tokens
        self.positions = positions
        self.diagnostics = diagnostics  # the load's faults, the lexer's first: see _lex
        self.pos = 0
        # the tokens the lexer reported; a syntax error found at one of them
        # would only repeat it
        self.lexed = {fault[0] for fault in diagnostics}

    # -- token helpers -------------------------------------------------------

    # punctuation is tested by its text alone: a token's class follows from its
    # first character, so no other class has a punctuation text (docs/grammar.md)
    def at_punct(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def report(self, err: _Syntax) -> None:
        if err.index not in self.lexed:
            self.diagnostics.append((err.index, "unexpected-token", err.message, 0))

    def expected(self, what: str) -> _Syntax:
        """The error for finding the next token where ``what`` was expected."""
        found = _shown(self.tokens[self.pos].text)
        return _Syntax(self.pos, f"expected {what}, found {found}")

    def accept_word(self, *words: str) -> str | None:
        """Consume and return one of ``words`` when it comes next."""
        tok = self.tokens[self.pos]
        if tok.kind == IDENT and tok.text in words:
            self.pos += 1
            return tok.text
        return None

    def keyword(self, *words: str) -> str:
        """Consume one of ``words``; any other token is an error naming them all."""
        word = self.accept_word(*words)
        if word is None:
            raise self.expected(_one_of(words))
        return word

    def take_punct(self, text: str) -> None:
        if self.tokens[self.pos].text != text:
            raise self.expected(repr(text))
        self.pos += 1

    def take(self, kind: str, what: str) -> int:
        """Consume a token of ``kind`` and return its index; any other token
        is an error naming ``what``."""
        pos = self.pos
        if self.tokens[pos].kind != kind:
            raise self.expected(what)
        self.pos = pos + 1
        return pos

    def take_value(self) -> int:
        pos = self.pos
        if self.tokens[pos].kind not in (IDENT, NUMBER):
            raise self.expected("a symbol or rational")
        self.pos = pos + 1
        return pos

    def end_simple(self) -> None:
        self.take_punct(";")

    def end_block(self) -> None:
        # a ';' after '}' (or after a query) is permitted but not required
        if self.at_punct(";"):
            self.pos += 1

    # -- shared constructs -----------------------------------------------------

    def entries(self, words: tuple = (), body: bool = True):
        """Consume ``{ entry* }`` and yield once per entry; the caller reads
        the entry.  With ``words``, each entry begins with one of them, which
        is consumed and yielded; any other token is an error naming them all.
        A declaration's ``body`` may instead be ``;``, and may have a ``;``
        after its ``}``."""
        tokens = self.tokens
        if tokens[self.pos].text != "{":
            if not body:
                raise self.expected("'{'")
            self.end_simple()
            return
        self.pos += 1
        while (tok := tokens[self.pos]).text != "}":
            if words:
                if tok.kind != IDENT or tok.text not in words:
                    raise self.expected(_one_of(words))
                self.pos += 1
            yield tok.text
        self.pos += 1
        if body and tokens[self.pos].text == ";":  # end_block, in place
            self.pos += 1

    def shaped(self, *shape) -> tuple:
        """Consume the tokens of ``shape`` and return the indexes of its named
        parts.  A part is a punctuation or keyword text, or ``(what, kinds)``
        for one token of one of ``kinds``; the first token that breaks the
        shape is an error naming its part."""
        tokens, found = self.tokens, []
        for part in shape:
            pos = self.pos
            if type(part) is str:
                if tokens[pos].text != part:
                    raise self.expected(repr(part))
            elif tokens[pos].kind in part[1]:
                found.append(pos)
            else:
                raise self.expected(part[0])
            self.pos = pos + 1
        return tuple(found)

    # An entry or head of fixed length is tested whole first, reading each token
    # only after the one before it proved no EOF; only an entry that fails the
    # test is read by ``shaped``, which raises at the first token that breaks it.
    def assignment(self) -> tuple:
        """``property = value ;`` as two token indexes."""
        tokens, i = self.tokens, self.pos
        if (tokens[i].kind == IDENT and tokens[i + 1].text == "="
                and tokens[i + 2].kind in (IDENT, NUMBER) and tokens[i + 3].text == ";"):
            self.pos = i + 4
            return i, i + 2
        return self.shaped(("a property name", (IDENT,)), "=", _VALUE, ";")

    def sample(self, kinds=(IDENT,)) -> tuple:
        """``rational -> target ;`` as two token indexes; the target is a
        presential name, or any value when ``kinds`` holds NUMBER."""
        tokens, i = self.tokens, self.pos
        if (tokens[i].kind == NUMBER and tokens[i + 1].text == "->"
                and tokens[i + 2].kind in kinds and tokens[i + 3].text == ";"):
            self.pos = i + 4
            return i, i + 2
        return self.shaped(_COORDINATE, "->", _VALUE if NUMBER in kinds else _PRESENTIAL, ";")

    def member(self, what: str) -> int:
        """``id ;`` as the id's token index."""
        tokens, i = self.tokens, self.pos
        if tokens[i].kind == IDENT and tokens[i + 1].text == ";":
            self.pos = i + 2
            return i
        return self.shaped((what, (IDENT,)), ";")[0]

    def relator_args(self) -> tuple:
        """``relator(value, ...)`` as the relator's and the values' token indexes."""
        relator = self.take(IDENT, "a relator name")
        self.take_punct("(")
        args = self.comma_list(self.take_value)
        self.take_punct(")")
        return relator, args

    def comma_list(self, take) -> list:
        """``item { , item }``: what ``take`` parses for each item."""
        out = [take()]
        while self.at_punct(","):
            self.pos += 1
            out.append(take())
        return out

    def holds_args(self) -> tuple:
        """``(entity, property, value)`` after ``holds``, as three token indexes."""
        entity, prop = ("an entity name", (IDENT,)), ("a property name", (IDENT,))
        return self.shaped("(", entity, ",", prop, ",", _VALUE, ")")

    def pair(self, first: str, second: str) -> tuple:
        """``(id, id) ;`` as two token indexes."""
        return self.shaped("(", (first, (IDENT,)), ",", (second, (IDENT,)), ")", ";")

    # -- recovery --------------------------------------------------------------

    def sync(self, keywords) -> None:
        """Skip to the next of the declaration ``keywords`` at column 1, which
        ends the skip unconsumed and begins the next declaration, or to the
        end of input.  Nothing else ends it: the layout, not the tokens the
        error left, marks where a declaration begins.  A ``fact`` does so
        only as ``fact name =``, not as a concept's ``fact relator(...)`` item."""
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == EOF:
                return
            if tok.text in keywords and self.positions.span(self.pos).column == 1:
                after = self.tokens[self.pos + 2 : self.pos + 3]  # '=' in `fact name =`
                if tok.text != "fact" or (after and after[0].text == "="):
                    return
            self.pos += 1  # never past EOF, which ends the skip above

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
            "exe": lambda: self.pair("an executor entity", "a process name"),
            "requirement-instance": lambda: self.pair("a function name", "a situation name"),
            "goal-instance": lambda: self.pair("a function name", "a situation name"),
        }
        while self.tokens[self.pos].kind != EOF:
            tok = self.tokens[self.pos]
            handler = table.get(tok.text) if tok.kind == IDENT else None
            self.pos += 1  # the keyword, or the token that should have been one
            try:
                if handler is None:
                    raise _Syntax(
                        self.pos - 1, f"expected a declaration keyword, found {_shown(tok.text)}"
                    )
                decls.append((tok.text, *handler()))
            except _Syntax as err:
                self.report(err)
                self.sync(table)
        return decls

    def chronoid(self) -> tuple:
        literal = ("a rational literal", (NUMBER,))
        return self.shaped(_CHRONOID, "=", "[", literal, ",", literal, "]", ";")

    def property(self) -> tuple:
        name, = self.shaped(("a property name", (IDENT,)), ":")
        domain_kind = self.keyword(CATEGORICAL, NUMERIC)
        symbols = []
        if domain_kind == CATEGORICAL:
            self.take_punct("{")
            symbols = self.comma_list(lambda: self.tokens[self.take(IDENT, "a symbol")].text)
            self.take_punct("}")
        support_kind = self.accept_word(ISOLATED, NON_ISOLATED, GLOBAL) or ISOLATED
        radius = None
        if support_kind == NON_ISOLATED:
            self.take_punct("(")
            radius = self.take(NUMBER, "a window radius")
            self.take_punct(")")
        self.end_simple()
        return name, domain_kind, symbols, support_kind, radius

    def presential(self) -> tuple:
        tokens, i = self.tokens, self.pos  # the head ``name at chronoid @ t``, tested whole
        if (tokens[i].kind == IDENT and tokens[i + 1].text == "at"
                and tokens[i + 2].kind == IDENT and tokens[i + 3].text == "@"
                and tokens[i + 4].kind == NUMBER):
            self.pos = i + 5
            head = i, i + 2, i + 4
        else:
            head = self.shaped(_PRESENTIAL, "at", _CHRONOID, "@", _COORDINATE)
        material = not self.accept_word("immaterial")
        valuation = [self.assignment() for _ in self.entries()]
        return *head, material, valuation

    def process(self) -> tuple:
        name, chron = self.shaped(("a process name", (IDENT,)), "extent", _CHRONOID)
        boundaries = []
        trajectories = []
        for word in self.entries(("boundary", "trajectory")):
            if word == "boundary":
                boundaries.append(self.sample())
            else:
                trajectories.append(self.trajectory())
        return name, chron, boundaries, trajectories

    def trajectory(self) -> tuple:
        prop = self.take(IDENT, "a property name")
        samples = [self.sample((IDENT, NUMBER)) for _ in self.entries(body=False)]
        return prop, samples

    def continuant(self) -> tuple:
        name, chron = self.shaped(("a continuant name", (IDENT,)), "lifetime", _CHRONOID)
        material = not self.accept_word("immaterial")
        exhibits = [self.sample() for _ in self.entries(("exhibits",))]
        return name, chron, material, exhibits

    def situation(self) -> tuple:
        name = self.take(IDENT, "a situation name")
        t = None
        if self.keyword("at", "during") == "at":
            chron, t = self.shaped(_CHRONOID, "@", _COORDINATE)
        else:
            chron = self.take(IDENT, "a chronoid name")
        founded = None
        if self.accept_word("founded"):
            self.keyword("on")
            founded = self.take(IDENT, "a process name")
        contains = []
        participants = []
        for word in self.entries(("contains", "participant")):
            if word == "contains":
                contains.append(self.member("a fact name"))
            else:
                participants.append(self.member("an entity name"))
        return name, chron, t, founded, contains, participants

    def fact(self) -> tuple:
        name = self.take(IDENT, "a fact name")
        self.take_punct("=")
        relator, args = self.relator_args()
        self.end_simple()
        return name, relator, args

    def function(self) -> tuple:
        name = self.take(IDENT, "a function name")
        kind = self.accept_word(*FUNCTION_KINDS) or CONCEPTUAL
        bearer = None
        if self.accept_word("bearer"):
            bearer = self.take(IDENT, "a bearer entity")
        labels = []
        # "requires"/"achieves" -> items of the last such block, None without one
        concepts = dict.fromkeys(("requires", "achieves"))
        fitem = []
        for word in self.entries(("label", "requires", "achieves", "fitem"), body=False):
            if word == "label":
                labels.append(self.tokens[self.take(STRING, "a string label")].value)
                self.end_simple()
            elif word == "fitem":
                fitem += [self.assignment() for _ in self.entries(body=False)]
            else:
                concepts[word] = self.concept()
        self.end_block()  # a function has a block, never ';' alone
        return name, kind, bearer, labels, *concepts.values(), fitem

    def concept(self) -> list:
        items = []
        for word in self.entries(("fact", "holds"), body=False):
            items.append(self.relator_args() if word == "fact" else self.holds_args())
            self.end_simple()
        return items


def parse(source: str, file: str = "<input>") -> Model:
    """Parse `.gfo` source into a validated model.

    Raises :class:`ParseError` with the full diagnostic list on any lexical,
    syntactic or structural problem; a returned model always satisfies the
    store invariants.  The linker runs only on a clean parse, so a lexical
    or syntax error comes with no structural diagnostics.
    """
    collecting = gc.isenabled()
    gc.disable()  # a load makes no reference cycles: docs/semantics.md
    try:
        tokens, found = _lex(source)
        positions = _Positions(source, file, tokens)
        decls = _Parser(tokens, positions, found).parse()
        model = None if found else _Linker(decls, tokens, found).link()
        diagnostics = positions.diagnostics(found)  # every pass's faults, located at once
    finally:
        if collecting:
            gc.enable()
    if diagnostics:
        raise ParseError(diagnostics)
    return model


def parse_file(path) -> Model:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read(), file=str(path))


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------


def _extent_json(extent) -> dict:
    if isinstance(extent, TimeBoundary):
        return {
            "kind": "boundary",
            "chronoid": extent.owner,
            "coordinate": coord_str(extent.coordinate),
        }
    return {"kind": "chronoid", "chronoid": extent.id}


def _concept_json(concept) -> dict:
    patterns = sorted(concept.required_facts, key=lambda p: (p.relator, tuple(map(str, p.args))))
    constraints = sorted(concept.required_props, key=lambda c: (c.entity, c.prop, str(c.value)))
    return {
        "facts": [
            {"relator": p.relator, "args": [fmt_value(a) for a in p.args]}
            for p in patterns
        ],
        "holds": [
            {"entity": c.entity, "property": c.prop, "value": fmt_value(c.value)}
            for c in constraints
        ],
    }


def model_to_json(m: Model) -> dict:
    """The canonical view of the whole store: `gfo dump` prints it as JSON
    and ``serialize`` as source text.

    Every rendering choice is made here, once: rationals as ``p/q``, maps and
    trajectory samples in coordinate order, sets and concept items sorted.
    Only the order of the stores' own ids is left to the printer.
    """
    return {
        "chronoids": {
            cid: {"left": coord_str(ch.left), "right": coord_str(ch.right)}
            for cid, ch in m.chronoids.items()
        },
        "properties": {
            name: {
                "domain": pdef.domain.kind,
                "symbols": sorted(pdef.domain.symbols),
                "support": pdef.support.kind,
                "window_radius": fmt_value(pdef.support.window_radius),
            }
            for name, pdef in m.property_defs.items()
        },
        "presentials": {
            pid: {
                "at": _extent_json(pres.at),
                "material": pres.material,
                "valuation": {
                    prop: fmt_value(v) for prop, v in pres.valuation.items()
                },
            }
            for pid, pres in m.presentials.items()
        },
        "processes": {
            pid: {
                "extent": p.extent.id,
                "boundaries": {
                    coord_str(t): p.boundary_map[t] for t in sorted(p.boundary_map)
                },
                "trajectories": {
                    prop: [[coord_str(t), fmt_value(v)] for t, v in sorted(samples)]
                    for prop, samples in p.trajectories.items()
                },
            }
            for pid, p in m.processes.items()
        },
        "continuants": {
            cid: {
                "lifetime": c.lifetime.id,
                "material": c.material,
                "exhibits": {
                    coord_str(t): c.exhibit_map[t] for t in sorted(c.exhibit_map)
                },
            }
            for cid, c in m.continuants.items()
        },
        "facts": {
            fid: {"relator": f.relator, "args": [fmt_value(a) for a in f.args]}
            for fid, f in m.facts.items()
        },
        "situations": {
            sid: {
                "extent": _extent_json(s.extent),
                "founded_on": s.founded_on,
                "constituents": sorted(s.constituents),
                "participants": sorted(s.participants),
            }
            for sid, s in m.situations.items()
        },
        "functions": {
            fid: {
                "kind": fn.kind,
                "bearer": fn.bearer,
                "labels": sorted(fn.labels),
                "requires": _concept_json(fn.req),
                "achieves": _concept_json(fn.goal),
                "fitem": [[prop, fmt_value(v)] for prop, v in fn.fitem],
            }
            for fid, fn in m.functions.items()
        },
        "exe": sorted([list(pair) for pair in m.exe_assertions]),
        # the language cannot write an empty instance set, so the view has none
        "requirement_instances": {
            fn: sorted(sits) for fn, sits in m.requirement_instances.items() if sits
        },
        "goal_instances": {fn: sorted(sits) for fn, sits in m.goal_instances.items() if sits},
    }


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _args(values) -> str:
    return ", ".join(map(str, values))


def _block(head: str, lines: list) -> list:
    """``head;`` when ``lines`` is empty, else ``head {``, the lines, ``}``."""
    return [head + " {", *lines, "}"] if lines else [head + ";"]


def _at(extent: dict) -> str:
    return f"{extent['chronoid']}@{extent['coordinate']}"


def serialize(m: Model) -> str:
    """Canonical text for a model: the view of :func:`model_to_json` printed
    as source, declarations in kind and id order.

    ``parse(serialize(m))`` is store-equal to ``m``, and serialization is a
    fixed point: reparsing and reserializing reproduces the bytes.
    """
    view = model_to_json(m)
    out: list = []

    for name, prop in sorted(view["properties"].items()):
        domain = prop["domain"]
        if domain == CATEGORICAL:
            domain = "categorical { " + ", ".join(prop["symbols"]) + " }"
        support = prop["support"]
        if support == NON_ISOLATED:
            support += f"({prop['window_radius']})"
        out.append(f"property {name} : {domain} {support};")

    for name, ch in sorted(view["chronoids"].items()):
        out.append(f"chronoid {name} = [{ch['left']}, {ch['right']}];")

    for name, pres in sorted(view["presentials"].items()):
        head = f"presential {name} at {_at(pres['at'])}"
        if not pres["material"]:
            head += " immaterial"
        valuation = sorted(pres["valuation"].items())
        out += _block(head, [f"  {prop} = {value};" for prop, value in valuation])

    for name, p in sorted(view["processes"].items()):
        out.append(f"process {name} extent {p['extent']} {{")
        out += [f"  boundary {t} -> {target};" for t, target in p["boundaries"].items()]
        for prop, samples in sorted(p["trajectories"].items()):
            out.append(f"  trajectory {prop} {{")
            out += [f"    {t} -> {value};" for t, value in samples]
            out.append("  }")
        out.append("}")

    for name, c in sorted(view["continuants"].items()):
        head = f"continuant {name} lifetime {c['lifetime']}"
        if not c["material"]:
            head += " immaterial"
        out.append(head + " {")
        out += [f"  exhibits {t} -> {target};" for t, target in c["exhibits"].items()]
        out.append("}")

    for name, fact in sorted(view["facts"].items()):
        out.append(f"fact {name} = {fact['relator']}({_args(fact['args'])});")

    for name, s in sorted(view["situations"].items()):
        extent = s["extent"]
        if extent["kind"] == "boundary":
            head = f"situation {name} at {_at(extent)}"
        else:
            head = f"situation {name} during {extent['chronoid']}"
        if s["founded_on"] is not None:
            head += f" founded on {s['founded_on']}"
        members = [f"  contains {fid};" for fid in s["constituents"]]
        members += [f"  participant {entity};" for entity in s["participants"]]
        out += _block(head, members)

    for name, fn in sorted(view["functions"].items()):
        head = f"function {name}"
        if fn["kind"] != CONCEPTUAL:
            head += f" {fn['kind']}"
        if fn["bearer"] is not None:
            head += f" bearer {fn['bearer']}"
        out.append(head + " {")
        out += [f'  label "{_escape(label)}";' for label in fn["labels"]]
        for keyword in ("requires", "achieves"):
            concept = fn[keyword]
            out.append(f"  {keyword} {{")
            out += [f"    fact {p['relator']}({_args(p['args'])});" for p in concept["facts"]]
            out += [
                f"    holds({c['entity']}, {c['property']}, {c['value']});"
                for c in concept["holds"]
            ]
            out.append("  }")
        if fn["fitem"]:
            out.append("  fitem {")
            out += [f"    {prop} = {value};" for prop, value in fn["fitem"]]
            out.append("  }")
        out.append("}")

    out += [f"exe({x}, {p});" for x, p in view["exe"]]
    for keyword, key in (
        ("requirement-instance", "requirement_instances"),
        ("goal-instance", "goal_instances"),
    ):
        for fn, sits in sorted(view[key].items()):
            out += [f"{keyword}({fn}, {sit});" for sit in sits]

    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Query sublanguage
# ---------------------------------------------------------------------------


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
            prop = HoldsProp(
                subject=tokens[subject].text,
                prop=tokens[prop_at].text,
                value=tokens[value].value,
                time_ref=_parse_time_ref(parser),
            )
        else:
            relator, args = parser.relator_args()
            when = parser.pos
            prop = FactProp(
                relator=tokens[relator].text,
                patterns=tuple(tokens[i].value for i in args),
                time_ref=_parse_time_ref(parser),
            )
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
