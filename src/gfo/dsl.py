"""The `.gfo` declaration language: lexer, parser and diagnostics.

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

The canonical rendering (``model_to_json``, ``serialize``: render.py) and
the query parser (``parse_query``: query.py) load on first use of their
names here.  Parsing the serialization of a model reproduces a store-equal
model, and serialization of a parse is invariant under reordering the
source's declarations and the entries inside its blocks.

The full grammar is published in docs/grammar.md.
"""

from __future__ import annotations

import gc
import re
from array import array
from bisect import bisect_left
from itertools import compress

from .chrono import MAX_LITERAL_DIGITS, _rational, _shown  # noqa: F401  (a name of dsl)
from .errors import GfoError
from .link import _Linker
from .model import CATEGORICAL, CONCEPTUAL, FUNCTION_KINDS, GLOBAL, ISOLATED, NON_ISOLATED, NUMERIC
from .model import Model, Record

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


class SourceSpan(Record):
    """1-based line/column position with a length in characters."""

    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseDiagnostic(Record):
    """One fault found in a source: where it is, its code and its message."""

    span: SourceSpan
    code: str
    message: str

    def __new__(cls, span, code, message):  # refused before a field is set
        if code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unregistered diagnostic code: {code!r}")
        return object.__new__(cls)

    def __str__(self) -> str:
        return f"{self.span}: {self.code}: {self.message}"

    def to_json(self) -> dict:
        return {**self.span.to_json(), "code": self.code, "message": self.message}


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

    # punctuation is tested by its text alone: a token's class follows from its
    # first character, so no other class has a punctuation text (docs/grammar.md)
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
        if self.tokens[self.pos].text == ";":
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
        while self.tokens[self.pos].text == ",":
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


def __getattr__(name: str):
    """Import render.py or query.py on first use of a name it defines, and keep the name."""
    if name == "parse_query":
        from . import query as module
    elif name in ("model_to_json", "serialize"):
        from . import render as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value
