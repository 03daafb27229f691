"""Phenomenal-time substrate: chronoids, time boundaries, coincidence, parthood,
and :class:`Record`, on which every record and entity type of the kernel stands.

Time coordinates are exact rationals (``fractions.Fraction``).  All checks
downstream rely on decidable equality for coincidence and meeting tests, so
floats never enter the time layer; decimal literals are converted exactly.
Parsed numbers and :func:`coord` results are :class:`Time` values, which
equal, order, hash and repr as the ``Fraction`` of the same value but are
faster as keys and to compare; plain-Fraction stores take Fraction's path.

A chronoid is a connected time interval of strictly positive duration,
represented symbolically by its endpoints.  Boundary entities are
individuals, not numbers: two boundaries may coincide (occupy the same
coordinate) without being the same entity.  Inner boundaries are interned
per (chronoid, coordinate), so repeated queries return the same entity.  A
miss builds the boundary and inserts it with ``dict.setdefault``, which is
atomic, so of two racing misses both return the first entry.  Everything
else is immutable, which makes all time values safe to share between
concurrent tasks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter

from .errors import NotASubinterval, OutOfExtent, ZeroOrNegativeDuration

_set = object.__setattr__  # how __init__ fills a slot, as a frozen dataclass's does
_MISSING = object()  # no default given; as a parameter's default, call the field's factory


class field(dict):
    """A field's default or default factory and flags, as ``dataclasses.field`` takes them."""


def _as_tuple(names: list):
    """A getter of ``names``' values as a tuple; a one-field key is a 1-tuple, as a dataclass's."""
    get = attrgetter(*names)
    return get if len(names) > 1 else staticmethod(lambda record: (get(record),))


class _RecordType(type):
    """Makes a record class's annotations its slots and fields, and compiles its ``__init__``."""

    def __new__(mcls, name, bases, namespace):
        own = namespace.get("__annotations__", {})
        namespace["__slots__"] = (*namespace.get("__slots__", ()), *own)
        specs = {key: namespace.pop(key, _MISSING) for key in own}
        cls = super().__new__(mcls, name, bases, namespace)
        if not own:  # a subclass that declares no field keeps its base's
            return cls
        scope, params, body, compared, hashed = dict(_set=_set, _MISSING=_MISSING), [], [], [], []
        for key, spec in specs.items():
            if type(spec) is not field:
                specs[key] = spec = field() if spec is _MISSING else field(default=spec)
            scope[f"_d_{key}"] = spec.get("default_factory", spec.get("default"))
            if "default_factory" in spec:
                params.append(f"{key}=_MISSING")
                body.append(f"_set(self, {key!r}, _d_{key}() if {key} is _MISSING else {key})")
            else:
                params.append(f"{key}=_d_{key}" if "default" in spec else key)
                body.append(f"_set(self, {key!r}, {key})")
            compare, hash_flag = spec.get("compare", True), spec.get("hash")
            compared += [key] * compare
            hashed += [key] * (compare if hash_flag is None else hash_flag)  # unset: as compare
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), scope)
        cls.__init__, cls.__match_args__ = scope["__init__"], tuple(own)
        cls._fields = tuple((key, own[key], spec) for key, spec in specs.items())
        cls._values, cls._compared, cls._hashed = map(_as_tuple, (list(own), compared, hashed))
        cls._shown = tuple(key for key, spec in specs.items() if spec.get("repr", True))
        return cls


class _Twin:
    """``__dataclass_fields__``: a frozen dataclass twin's, made on first access."""

    def __get__(self, record, cls):
        from dataclasses import field as twin_field, make_dataclass
        fields = [(key, annotation, twin_field(**spec)) for key, annotation, spec in cls._fields]
        twin = make_dataclass(cls.__name__, fields, frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        return twin.__dataclass_fields__


class Record(metaclass=_RecordType):
    """The ``__init__``, ``==`` (same class only), hash, repr, write errors,
    copy and pickle of the frozen dataclass of the same fields.  A record
    class lists its fields as annotations, each with its default or
    :class:`field`; ``__slots__`` names anything else an instance holds."""

    __slots__ = ()
    __dataclass_fields__ = _Twin()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._hashed(self))

    def __repr__(self) -> str:
        shown = (f"{key}={getattr(self, key)!r}" for key in self._shown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value, write="assign to"):
        from dataclasses import FrozenInstanceError  # a refused write loads dataclasses itself
        raise FrozenInstanceError(f"cannot {write} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")

    def __reduce__(self):
        return type(self), self._values(self)

    def to_json(self) -> dict:
        """The fields by name: ``dataclasses.asdict`` of a record that holds no record."""
        return dict(zip(self.__match_args__, self._values(self)))

    def _replace(self, **changes):  # as dataclasses.replace
        return type(self)(**{**self.to_json(), **changes})


LEFT = "left"
RIGHT = "right"
INNER = "inner"

# digits in a rational literal and in the p/q text ``serialize`` writes for
# its value, which a decimal's may double; twice this stays under 640, the
# least int-to-str digit limit Python takes, so every literal, its canonical
# text and the midpoint of two of them print and parse under any setting
MAX_LITERAL_DIGITS = 300
_LITERAL = re.compile(r"-?[0-9]+(?:[./][0-9]+)?")  # a rational literal (docs/grammar.md)


class Time(Fraction):
    """An exact coordinate whose hash is computed once and whose comparisons
    with another ``Time`` cross-multiply without ``Fraction``'s type checks.
    Any other operand, and all arithmetic, take ``Fraction``'s methods."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # the first call
            self._hash = Fraction.__hash__(self)
        return self._hash

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __eq__(a, b):
        if type(b) is Time:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        if type(b) is Time:
            return a._numerator * b._denominator < b._numerator * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        if type(b) is Time:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        if type(b) is Time:
            return a._numerator * b._denominator > b._numerator * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        if type(b) is Time:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        return Fraction.__ge__(a, b)


def coord(value: int | str | Fraction) -> Time:
    """Coerce ints, Fractions and rational literals ('3/2', '-0.25') to an
    exact coordinate.  A string is read as the lexer reads a number token:
    any other text, a zero denominator, and a literal of more than
    MAX_LITERAL_DIGITS digits as written or as p/q raise ValueError."""
    if not isinstance(value, str):
        return Time(value)
    if not _LITERAL.fullmatch(value):
        raise ValueError(f"not a rational literal: {_shown(value)}")
    t, error = _rational(value)
    if error:
        raise ValueError(error)
    return t


def _rational(text: str) -> tuple:
    """A rational literal's value, and the reason it is a bad rational or None."""
    short = len(text) <= MAX_LITERAL_DIGITS // 2  # then its p/q text fits too
    digits = 0 if short else sum(map(str.isdigit, text))
    if digits > MAX_LITERAL_DIGITS:
        return Time(0), _overlong(text, f"{digits} digits")
    try:  # p/q is built from its int parts, an integer from its int, a decimal from its text
        p, _, q = text.partition("/")
        value = Time(text) if "." in text else Time(int(p), int(q)) if q else Time(int(p))
    except ZeroDivisionError:
        return Time(0), f"{text!r} is not a valid rational literal"
    digits = 0 if short else sum(map(str.isdigit, coord_str(value)))
    if digits > MAX_LITERAL_DIGITS:
        return Time(0), _overlong(text, f"{digits} digits as p/q")
    return value, None


def _overlong(text: str, count: str) -> str:
    return f"{_shown(text)} has {count}; a rational literal has at most {MAX_LITERAL_DIGITS}"


def _shown(text: str) -> str:
    """A text as a message quotes it: at most 20 characters, then '...'."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def coord_str(value: Fraction) -> str:
    """Canonical text form: plain integer when whole, 'p/q' otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fmt_value(value):
    """A value or argument as the canonical view holds it: rationals as
    ``p/q``, anything else unchanged."""
    if isinstance(value, str):  # the common case, and cheaper to test than the Fraction ABC
        return value
    return coord_str(value) if isinstance(value, Fraction) else value


def no_duration(l: Fraction, r: Fraction) -> str | None:
    """The message for a span [l, r] that has no duration (l >= r), else None."""
    return f"[{coord_str(l)}, {coord_str(r)}] has no duration" if l >= r else None


def _id_safe(value: Fraction) -> str:
    # '/' and leading '-' are not legal inside ids
    return coord_str(value).replace("-", "m").replace("/", "_")


class TimeBoundary(Record):
    """An instantaneous boundary entity of a chronoid."""

    id: str
    coordinate: Fraction
    owner: str  # owning chronoid id
    kind: str  # LEFT, RIGHT or INNER


class Chronoid(Record):
    """A connected time interval of strictly positive duration."""

    id: str
    left: Fraction
    right: Fraction
    _boundaries: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if message := no_duration(self.left, self.right):
            raise ZeroOrNegativeDuration(f"chronoid {self.id!r}: {message}")

    @property
    def duration(self) -> Fraction:
        return self.right - self.left

    def contains(self, t: Fraction) -> bool:
        return self.left <= t <= self.right

    def outside(self, t: Fraction) -> str:
        """The message for a coordinate ``t`` that this chronoid does not contain."""
        return (
            f"{coord_str(t)} lies outside chronoid {self.id!r} "
            f"[{coord_str(self.left)}, {coord_str(self.right)}]"
        )

    def same_extent(self, other: "Chronoid") -> bool:
        return self.left == other.left and self.right == other.right


def make_chronoid(
    left: int | str | Fraction, right: int | str | Fraction, id: str | None = None
) -> Chronoid:
    """Build a chronoid with the given exact endpoints.

    The left and right boundary entities are created lazily via
    :func:`inner_boundary` and cached on the chronoid.
    """
    l, r = coord(left), coord(right)
    name = id if id is not None else f"chr-{_id_safe(l)}-{_id_safe(r)}"
    return Chronoid(id=name, left=l, right=r)


def inner_boundary(ch: Chronoid, t: int | str | Fraction) -> TimeBoundary:
    """Return the boundary entity of ``ch`` at coordinate ``t``.

    Endpoints yield the chronoid's own left/right boundary entity; interior
    coordinates yield an inner boundary, interned so that repeated calls on
    the same (chronoid, coordinate) return the same entity.  A value equal to
    a coordinate hashes as it does, so it finds the entity interned there;
    a miss inserts with the atomic ``dict.setdefault``.
    """
    entity = ch._boundaries.get(t)
    if entity is not None:
        return entity
    if type(t) is not Time and not isinstance(t, Fraction):  # a parsed coordinate is a Time
        t = coord(t)
    left, right = ch.left, ch.right
    kind = INNER if left < t < right else LEFT if t == left else RIGHT if t == right else None
    if kind is None:
        raise OutOfExtent(ch.outside(t))
    n, d = t._numerator, t._denominator  # the id ends in coord_str(t), written from its parts
    entity = TimeBoundary(f"{ch.id}@{n}" if d == 1 else f"{ch.id}@{n}/{d}", t, ch.id, kind)
    return ch._boundaries.setdefault(t, entity)


def left_boundary(ch: Chronoid) -> TimeBoundary:
    return inner_boundary(ch, ch.left)


def right_boundary(ch: Chronoid) -> TimeBoundary:
    return inner_boundary(ch, ch.right)


def coincides(b1: TimeBoundary, b2: TimeBoundary) -> bool:
    """True iff the two boundary entities occupy the same coordinate.

    Coincidence is deliberately not restricted to boundaries of meeting or
    otherwise related chronoids; see docs/semantics.md.
    """
    return b1.coordinate == b2.coordinate


def meets(ch1: Chronoid, ch2: Chronoid) -> bool:
    """True iff ``ch1`` ends exactly where ``ch2`` begins."""
    return ch1.right == ch2.left


def temporal_part_chronoid(
    ch: Chronoid, l: int | str | Fraction, r: int | str | Fraction
) -> Chronoid:
    """Restrict ``ch`` to the subinterval [l, r] (improper parts allowed)."""
    l, r = coord(l), coord(r)
    if message := no_duration(l, r):
        raise ZeroOrNegativeDuration(message)
    if l < ch.left or r > ch.right:
        raise NotASubinterval(
            f"[{coord_str(l)}, {coord_str(r)}] is not a subinterval of "
            f"[{coord_str(ch.left)}, {coord_str(ch.right)}]"
        )
    return Chronoid(id=f"{ch.id}-part-{_id_safe(l)}-{_id_safe(r)}", left=l, right=r)
