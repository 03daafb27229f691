import copy
import operator
import pickle
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfo import chrono
from gfo.chrono import (
    INNER,
    LEFT,
    RIGHT,
    coincides,
    coord,
    coord_str,
    inner_boundary,
    left_boundary,
    make_chronoid,
    meets,
    right_boundary,
    temporal_part_chronoid,
)
from gfo.errors import NotASubinterval, OutOfExtent, ZeroOrNegativeDuration

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_make_chronoid_basic():
    ch = make_chronoid(0, 10)
    assert (ch.left, ch.right) == (Fraction(0), Fraction(10))
    assert left_boundary(ch).kind == LEFT
    assert right_boundary(ch).kind == RIGHT
    assert left_boundary(ch).id != right_boundary(ch).id


def test_make_chronoid_zero_duration():
    with pytest.raises(ZeroOrNegativeDuration):
        make_chronoid(5, 5)
    with pytest.raises(ZeroOrNegativeDuration):
        make_chronoid(6, 5)


def test_make_chronoid_exact_rationals():
    ch = make_chronoid(Fraction(1, 3), Fraction(2, 3))
    assert ch.left == Fraction(1, 3)
    assert ch.right == Fraction(2, 3)
    assert ch.duration == Fraction(1, 3)


def test_coord_parses_strings_exactly():
    assert coord("0.25") == Fraction(1, 4)
    assert coord("3/2") == Fraction(3, 2)
    assert coord_str(Fraction(2, 4)) == "1/2"
    assert coord_str(Fraction(-8, 4)) == "-2"


def test_inner_boundary_interning_and_kinds():
    ch = make_chronoid(0, 10)
    mid = inner_boundary(ch, 5)
    assert mid.kind == INNER
    assert inner_boundary(ch, 5) is mid and inner_boundary(ch, "5") is mid
    assert inner_boundary(ch, 0) is left_boundary(ch)
    with pytest.raises(OutOfExtent):
        inner_boundary(ch, 11)


def test_inner_boundary_interning_is_thread_safe():
    ch = make_chronoid(0, 1)
    coords = [Fraction(n, 64) for n in range(1, 64)]
    seen = []

    def worker():
        seen.append([inner_boundary(ch, t) for t in coords])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = seen[0]
    for result in seen[1:]:
        for a, b in zip(first, result):
            assert a is b



def test_of_two_racing_boundary_misses_both_return_the_first_entry(monkeypatch):
    """A second miss that inserts between the first's lookup and its insert
    wins: the first returns the entry already there, not its own."""
    ch, t = make_chronoid(0, 1), Fraction(1, 2)
    build, overtaken = chrono.TimeBoundary, []

    def overtaking(*args):
        if not overtaken:
            overtaken.append(None)  # the second miss builds without overtaking again
            overtaken[0] = inner_boundary(ch, t)
        return build(*args)

    monkeypatch.setattr(chrono, "TimeBoundary", overtaking)
    assert inner_boundary(ch, t) is overtaken[0] is inner_boundary(ch, t)

def test_coincides_examples():
    a = make_chronoid(0, 5)
    b = make_chronoid(5, 10)
    c = make_chronoid(0, 10)
    assert coincides(right_boundary(a), left_boundary(b))
    assert coincides(left_boundary(a), left_boundary(c))
    assert not coincides(right_boundary(a), right_boundary(c))


def test_meets_examples():
    assert meets(make_chronoid(0, 5), make_chronoid(5, 10))
    assert not meets(make_chronoid(0, 5), make_chronoid(6, 10))
    assert not meets(make_chronoid(0, 5), make_chronoid(4, 10))


def test_temporal_part_examples():
    ch = make_chronoid(0, 10)
    part = temporal_part_chronoid(ch, 2, 6)
    assert (part.left, part.right) == (Fraction(2), Fraction(6))
    improper = temporal_part_chronoid(ch, 0, 10)
    assert improper.same_extent(ch)
    assert improper.id != ch.id
    with pytest.raises(ZeroOrNegativeDuration):
        temporal_part_chronoid(ch, 4, 4)
    with pytest.raises(NotASubinterval):
        temporal_part_chronoid(ch, -1, 5)


def test_temporal_part_composition():
    ch = make_chronoid(0, 10)
    twice = temporal_part_chronoid(temporal_part_chronoid(ch, 1, 9), 2, 6)
    once = temporal_part_chronoid(ch, 2, 6)
    assert twice.same_extent(once)


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6))
def test_coincides_is_an_equivalence(pairs):
    boundaries = []
    for i, (a, b) in enumerate(pairs):
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        ch = make_chronoid(lo, hi, f"h{i}")
        boundaries += [left_boundary(ch), right_boundary(ch)]
    for x in boundaries:
        assert coincides(x, x)
    for x in boundaries:
        for y in boundaries:
            assert coincides(x, y) == coincides(y, x)
            for z in boundaries:
                if coincides(x, y) and coincides(y, z):
                    assert coincides(x, z)


@given(rationals, rationals, rationals)
def test_meets_implies_coinciding_boundaries(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    if lo == mid or mid == hi:
        return
    first = make_chronoid(lo, mid)
    second = make_chronoid(mid, hi)
    assert meets(first, second)
    assert coincides(right_boundary(first), left_boundary(second))


def _seeded_rationals(rng: random.Random, count: int) -> list:
    """Small and 300-digit rationals of both signs, zero and integers."""
    values = [Fraction(0), Fraction(1), Fraction(-1)]
    while len(values) < count:
        digits = rng.choice((2, 6, 300))
        num = rng.randint(-(10**digits), 10**digits)
        den = 1 if rng.random() < 0.25 else rng.randint(1, 10 ** rng.choice((2, 6, 300)))
        values.append(Fraction(num, den))
    return values


_COMPARISONS = (
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge
)


def test_coordinates_compare_and_hash_as_fractions():
    rng = random.Random(20261018)
    values = _seeded_rationals(rng, 2000)
    # neighbours, each value against itself, and an equal value built afresh
    pairs = [*zip(values, values[1:]), *zip(values, values)]
    pairs += [(x, Fraction(x.numerator * 3, x.denominator * 3)) for x in values[:500]]
    for x, y in pairs:
        tx, ty = coord(x), coord(y)
        k = y.numerator // y.denominator
        for op in _COMPARISONS:
            expected = op(x, y)
            assert op(tx, ty) == op(tx, y) == op(x, ty) == expected, (op, x, y)
            assert op(tx, k) == op(x, k) and op(k, tx) == op(k, x), (op, x, k)
        assert hash(tx) == hash(x) and hash(tx) == hash(x), x  # the second is cached
        if x.denominator == 1:
            assert hash(tx) == hash(x.numerator)
        assert len({tx, x, ty, y}) == len({x, y})


def test_coordinates_render_and_round_trip_as_fractions():
    rng = random.Random(20261019)
    for x in _seeded_rationals(rng, 2000):
        t = coord(x)
        assert (str(t), repr(t), coord_str(t)) == (str(x), repr(x), coord_str(x))
        hash(t)  # a cached hash must not leak into a copy
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
            assert type(copied) is type(t)
            assert copied == x and repr(copied) == repr(x) and hash(copied) == hash(x)
