from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from gfo.chrono import Chronoid, inner_boundary
from gfo.dsl import parse, parse_file, parse_query
from gfo.errors import MalformedTriple, UnknownEntity, UnknownProperty
from gfo.functions import FactPattern, FunctionSpec, SituationConcept, WILDCARD
from gfo.model import Fact, Model, Presential, Process, Situation, process_temporal_part
from gfo.truthmakers import (
    AtTime,
    DuringSpan,
    FactProp,
    HoldsProp,
    SupportClass,
    TruthMakerTriple,
    classify_property_support,
    find_truthmakers,
    functional_property,
    has_propositional_property,
    satisfies,
)
from helpers import CORPUS, lines_run


@pytest.fixture(scope="module")
def drinking():
    return parse_file(CORPUS / "drinking.gfo")


@pytest.fixture(scope="module")
def football():
    return parse_file(CORPUS / "football.gfo")


def test_satisfies_drinking_example(drinking):
    tm = TruthMakerTriple("drinking", "s_drink", "f_jb")
    assert satisfies(tm, FactProp("drinks", ("John", "beer")), drinking)
    assert not satisfies(tm, FactProp("drinks", ("Paul", "beer")), drinking)


def test_satisfies_rejects_malformed_triples(drinking):
    outside = TruthMakerTriple("drinking", "s_drink", "nonexistent")
    with pytest.raises(MalformedTriple):
        satisfies(outside, FactProp("drinks", ("John", "beer")), drinking)
    unfounded = TruthMakerTriple("john_proc", "s_drink", "f_jb")
    with pytest.raises(MalformedTriple):
        satisfies(unfounded, FactProp("drinks", ("John", "beer")), drinking)
    nowhere = TruthMakerTriple("drinking", "nosuch", "f_jb")
    with pytest.raises(MalformedTriple, match="unknown situation"):
        satisfies(nowhere, FactProp("drinks", ("John", "beer")), drinking)
    # only constructible programmatically: the linker resolves every constituent
    factless = replace(drinking, facts={})
    tm = TruthMakerTriple("drinking", "s_drink", "f_jb")
    with pytest.raises(MalformedTriple, match="unknown fact"):
        satisfies(tm, FactProp("drinks", ("John", "beer")), factless)


def test_satisfies_needs_the_property_of_a_holds_proposition(drinking):
    tm = TruthMakerTriple("drinking", "s_drink", "f_jb")
    with pytest.raises(UnknownProperty):
        satisfies(tm, HoldsProp("John", "nosuch", "beer"), drinking)


def test_satisfies_time_references(drinking):
    tm = TruthMakerTriple("drinking", "s_drink", "f_jb")
    prop = FactProp("drinks", ("John", "beer"))
    # s_drink is a situoid over [1, 2]
    assert satisfies(tm, replace(prop, time_ref=DuringSpan(Fraction(0), Fraction(10))), drinking)
    assert not satisfies(tm, replace(prop, time_ref=DuringSpan(Fraction(0), Fraction(3, 2))), drinking)
    assert not satisfies(tm, replace(prop, time_ref=AtTime(Fraction(3, 2))), drinking)


def test_find_truthmakers_exactly_one(drinking):
    triples = find_truthmakers(drinking, FactProp("drinks", ("John", "beer")))
    assert [
        (t.process, t.situation, t.fact) for t in triples
    ] == [("drinking", "s_drink", "f_jb")]
    assert find_truthmakers(drinking, FactProp("drinks", ("Paul", "beer"))) == []


def test_find_truthmakers_absent_relator(drinking):
    assert find_truthmakers(drinking, FactProp("eats", (WILDCARD,))) == []


def test_find_truthmakers_two_situations_same_process(drinking):
    second = Situation(
        id="s_drink2",
        extent=drinking.situations["s_drink"].extent,
        constituents=frozenset({"f_jb"}),
        participants=frozenset(),
        founded_on="drinking",
    )
    m2 = replace(drinking, situations={**drinking.situations, second.id: second})
    prop = FactProp("drinks", ("John", "beer"))
    expected = oracles.truthmaker_triples(m2, prop)
    assert len(expected) == 2
    got = [(t.process, t.situation, t.fact) for t in find_truthmakers(m2, prop)]
    assert got == expected


def test_find_truthmakers_monotone_under_unrelated_growth(drinking):
    prop = FactProp("drinks", ("John", "beer"))
    before = find_truthmakers(drinking, prop)
    noise = Situation(
        id="zzz_noise",
        extent=drinking.chronoids["evening"],
        constituents=frozenset(),
        participants=frozenset(),
        founded_on="john_proc",
    )
    m2 = replace(drinking, situations={**drinking.situations, noise.id: noise})
    after = find_truthmakers(m2, prop)
    assert set(before) <= set(after)


def test_holds_proposition_over_property_fact():
    heart = parse_file(CORPUS / "heart.gfo")
    triples = find_truthmakers(heart, HoldsProp("blood", "position", "in_heart"))
    assert [(t.situation, t.fact) for t in triples] == [("s_req", "f_start")]
    at0 = HoldsProp("blood", "position", "in_heart", AtTime(Fraction(0)))
    assert len(find_truthmakers(heart, at0)) == 1
    at1 = HoldsProp("blood", "position", "in_heart", AtTime(Fraction(1)))
    assert find_truthmakers(heart, at1) == []
    with pytest.raises(UnknownProperty):
        find_truthmakers(heart, HoldsProp("blood", "nope", "x"))


def test_has_propositional_property(football):
    prop = FactProp("shoots", ("player", "ball", "goalpost"))
    assert has_propositional_property("shooting", prop, football)
    assert not has_propositional_property("ball_proc", prop, football)
    with pytest.raises(UnknownEntity, match="^process 'nothing' is not declared$"):
        has_propositional_property("nothing", prop, football)
    with pytest.raises(TypeError, match="^'ball' is not a process; "):
        has_propositional_property("ball", prop, football)  # a continuant


def test_has_propositional_property_without_founded_situations(football):
    m2 = replace(
        football,
        situations={
            sid: replace(s, founded_on=None)
            for sid, s in football.situations.items()
        },
    )
    prop = FactProp("shoots", (WILDCARD, WILDCARD, WILDCARD))
    assert not has_propositional_property("shooting", prop, m2)


def test_classify_property_support_three_examples():
    ball = parse_file(CORPUS / "ball.gfo")
    beat = parse_file(CORPUS / "heartbeat.gfo")
    assert (
        classify_property_support("color", "ball_proc", ball)
        is SupportClass.PRESENTIC_ISOLATED
    )
    assert (
        classify_property_support("velocity", "ball_proc", ball)
        is SupportClass.PRESENTIC_NON_ISOLATED
    )
    assert (
        classify_property_support("ecg", "heart_activity", beat)
        is SupportClass.GLOBAL
    )
    with pytest.raises(UnknownProperty):
        classify_property_support("nope", "ball_proc", ball)
    with pytest.raises(UnknownEntity):
        classify_property_support("color", "nope", ball)
    with pytest.raises(TypeError, match="'ball' is not a process"):
        classify_property_support("color", "ball", ball)  # a continuant


def _realizing_model():
    ch = Chronoid("e", Fraction(0), Fraction(2))
    pres = {
        f"n{t}": Presential(f"n{t}", inner_boundary(ch, t), {}) for t in (0, 1, 2)
    }
    p = Process("full", ch, {Fraction(t): f"n{t}" for t in (0, 1, 2)})
    facts = {
        "f_begin": Fact("f_begin", "begin", ("n0",)),
        "f_done": Fact("f_done", "done", ("n2",)),
    }
    situations = {
        "s0": Situation("s0", inner_boundary(ch, 0), frozenset({"f_begin"}), frozenset(), "full"),
        "s2": Situation("s2", inner_boundary(ch, 2), frozenset({"f_done"}), frozenset(), "full"),
    }
    f = FunctionSpec(
        id="f_run",
        req=SituationConcept(frozenset({FactPattern("begin", (WILDCARD,))}), name="f_run.req"),
        goal=SituationConcept(frozenset({FactPattern("done", (WILDCARD,))}), name="f_run.goal"),
    )
    return Model(
        chronoids={"e": ch},
        presentials=pres,
        processes={"full": p},
        situations=situations,
        facts=facts,
        functions={"f_run": f},
    )


def test_functional_property_and_short_part():
    m = _realizing_model()
    f = m.functions["f_run"]
    assert functional_property("full", f, m)
    part = process_temporal_part(m.processes["full"], 0, 1)
    m2 = m.with_process(part)
    # the restriction ends before the goal situation exists
    assert not functional_property(part.id, f, m2)


def test_functional_property_rejects_presentials():
    m = _realizing_model()
    f = m.functions["f_run"]
    with pytest.raises(TypeError):
        functional_property("n0", f, m)
    with pytest.raises(UnknownEntity, match="^process 'nothing' is not declared$"):
        functional_property("nothing", f, m)


def test_functional_property_ignores_labels():
    m = _realizing_model()
    f = m.functions["f_run"]
    relabeled = replace(f, labels=frozenset({"completely different"}))
    assert functional_property("full", f, m) == functional_property("full", relabeled, m)


def _founded_chain(n: int) -> str:
    """``n`` processes p{i} over [i, i+1], each founding a situation at i
    with the fact stage(p{i}, a) or stage(p{i}, b), and a situoid over its
    extent with the fact stage(p{i}, b)."""
    lines = ["property stage : categorical { a, b } isolated;"]
    for i in range(n):
        lines += [
            f"chronoid g{i} = [{i}, {i + 1}];",
            f"presential e{i}a at g{i}@{i};",
            f"presential e{i}b at g{i}@{i + 1};",
            f"process p{i} extent g{i} {{ boundary {i} -> e{i}a; boundary {i + 1} -> e{i}b; }}",
            f"fact f{i} = stage(p{i}, {'ab'[i % 2]});",
            f"fact h{i} = stage(p{i}, b);",
            f"situation s{i} at g{i}@{i} founded on p{i} {{ contains f{i}; }}",
            f"situation u{i} during g{i} founded on p{i} {{ contains h{i}; }}",
        ]
    return "\n".join(lines) + "\n"


def test_a_truthmaker_search_reads_each_situation_and_fact_once():
    """The search walks the situations once and looks up each constituent
    fact: the lines of gfo run grow at most 4x (plus 0) when the founded
    chain grows 4x, for an unanchored, an ``at`` and a ``during``
    proposition.  A scan of the facts per constituent would grow 16x."""
    counts = []
    for n in (50, 200):
        m = parse(_founded_chain(n))
        texts = [
            "fact stage(_, a)", "fact stage(_, b) at 3", f"holds(p1, stage, b) during [0, {n}]"
        ]
        props = [parse_query(text, m) for text in texts]
        assert [len(find_truthmakers(m, prop)) for prop in props] == [n // 2, 1, 2]
        counts.append(lines_run(lambda: [find_truthmakers(m, prop) for prop in props]))
    assert 0 < counts[0] and counts[1] <= 4 * counts[0], counts
