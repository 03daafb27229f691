"""Phenomenal-time substrate: chronoids, time boundaries, coincidence, parthood.

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

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotASubinterval, OutOfExtent, ZeroOrNegativeDuration

LEFT = "left"
RIGHT = "right"
INNER = "inner"


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
    """Coerce ints, Fractions and strings ('3/2', '0.25') to an exact coordinate."""
    return Time(value)


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


@dataclass(frozen=True)
class TimeBoundary:
    """An instantaneous boundary entity of a chronoid."""

    id: str
    coordinate: Fraction
    owner: str  # owning chronoid id
    kind: str  # LEFT, RIGHT or INNER


@dataclass(frozen=True)
class Chronoid:
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
