import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import oracles
from genmodels import random_full_model, random_realization_model
from gfo.chrono import Chronoid
from gfo.dsl import parse_file
from gfo.errors import UnknownEntity, UnknownSituation, UnsampledTime
from gfo.functions import (
    WILDCARD,
    FactPattern,
    FunctionSpec,
    PropertyConstraint,
    SituationConcept,
    check_fitem,
    executes,
    is_actual_realization,
    is_actual_realizer,
    is_universal_realization,
    satisfies_concept,
)
from gfo.model import Fact, Model, Process, Situation
from helpers import CORPUS


@pytest.fixture(scope="module")
def heart():
    return parse_file(CORPUS / "heart.gfo")


@pytest.fixture(scope="module")
def kettle():
    return parse_file(CORPUS / "functions_universal.gfo")


def _concept(*, facts=(), props=(), name="t"):
    return SituationConcept(frozenset(facts), frozenset(props), name=name)


def test_satisfies_concept_fact_match(heart):
    concept = _concept(facts=[FactPattern("position", ("blood", "in_heart"))])
    assert satisfies_concept(heart.situations["s_req"], concept, heart)


def test_satisfies_concept_empty_situation_fails(heart):
    concept = _concept(facts=[FactPattern("position", ("blood", "in_heart"))])
    assert not satisfies_concept(heart.situations["s_goal"], concept, heart)


def test_satisfies_concept_wildcard(heart):
    concept = _concept(facts=[FactPattern("position", ("blood", WILDCARD))])
    assert satisfies_concept(heart.situations["s_req"], concept, heart)
    assert satisfies_concept(heart.situations["s_goal"], concept, heart)


def test_satisfies_concept_property_constraint(heart):
    fit = _concept(props=[PropertyConstraint("heart", "intact", "yes")])
    assert satisfies_concept(heart.situations["s_req"], fit, heart)
    # heart is not a participant of s_goal, so the constraint cannot hold
    assert not satisfies_concept(heart.situations["s_goal"], fit, heart)


def test_satisfies_concept_is_monotone(heart):
    concept = _concept(facts=[FactPattern("position", ("blood", "in_heart"))])
    s = heart.situations["s_req"]
    base = satisfies_concept(s, concept, heart)
    grown = Situation(
        id=s.id,
        extent=s.extent,
        constituents=s.constituents | {"f_goal"},
        participants=s.participants,
        founded_on=s.founded_on,
    )
    m2 = replace(heart, situations={**heart.situations, s.id: grown})
    assert base
    assert satisfies_concept(grown, concept, m2)


def test_actual_realization_heart_example(heart):
    record = is_actual_realization(
        heart.processes["blood-movement"], heart.functions["f_pump"], heart
    )
    assert record is not None
    assert record.requirement_situation == "s_req"
    assert record.goal_situation == "s_goal"


def test_actual_realization_fails_without_goal(heart):
    # heart_proc spans [-1, 2]; no qualifying situations sit at its endpoints
    assert (
        is_actual_realization(
            heart.processes["heart_proc"], heart.functions["f_pump"], heart
        )
        is None
    )


def test_actual_realization_picks_smallest_pair(kettle):
    m = kettle
    f = m.functions["f_boil"]
    # a second qualifying goal situation at the same coordinate
    extra = Situation(
        id="a_extra_goal",
        extent=m.situations["s_g1"].extent,
        constituents=m.situations["s_g1"].constituents,
        participants=m.situations["s_g1"].participants,
        founded_on="heating_one",
    )
    m2 = replace(m, situations={**m.situations, extra.id: extra})
    p = m2.processes["heating_one"]
    pairs = oracles.realization_pairs(m2, p, f)
    assert len(pairs) == 2
    record = is_actual_realization(p, f, m2)
    assert (record.requirement_situation, record.goal_situation) == min(pairs)


def test_universal_realization_cases(kettle):
    f = kettle.functions["f_boil"]
    ok, diags = is_universal_realization({"heating_one", "heating_two"}, f, kettle)
    assert ok and diags == []
    ok, diags = is_universal_realization({"heating_one"}, f, kettle)
    assert not ok
    assert any("s_r2" in d for d in diags)
    # a process whose left endpoint has no qualifying requirement situation
    mid = Process(
        "mid",
        Chronoid("midspan", Fraction(1), Fraction(5)),
        {Fraction(1): "kettle1", Fraction(5): "kettle5"},
    )
    m2 = kettle.with_process(mid)
    ok, diags = is_universal_realization({"mid"}, f, m2)
    assert not ok
    assert any("mid" in d and "not a realization" in d for d in diags)
    with pytest.raises(UnknownEntity, match="^process 'nosuch' is not declared$"):
        is_universal_realization({"heating_one", "nosuch"}, f, kettle)
    with pytest.raises(TypeError, match="^'kettle1' is not a process; "):
        is_universal_realization({"kettle1"}, f, kettle)  # a presential


def test_universal_realization_vacuous():
    day = Chronoid("d", Fraction(0), Fraction(1))
    concept = _concept(facts=[FactPattern("r", (WILDCARD,))])
    f = FunctionSpec(id="f", req=concept, goal=concept)
    m = Model(chronoids={"d": day}, functions={"f": f})
    ok, diags = is_universal_realization(set(), f, m)
    assert ok and diags == []


def test_executes(heart):
    assert executes("heart", "blood-movement", heart)
    assert not executes("veins", "blood-movement", heart)
    assert not executes("heart", "heart_proc", heart)
    with pytest.raises(UnknownEntity):
        executes("nobody", "blood-movement", heart)
    with pytest.raises(UnknownEntity):
        executes("heart", "nothing", heart)


def test_actual_realizer(heart):
    f = heart.functions["f_pump"]
    assert is_actual_realizer("heart", f, heart)
    assert not is_actual_realizer("blood", f, heart)
    assert not is_actual_realizer("veins", f, heart)
    with pytest.raises(UnknownEntity):
        is_actual_realizer("nobody", f, heart)


def test_realizer_law_by_brute_force(heart, kettle):
    # x is a realizer iff some executed process realizes the function
    for m in (heart, kettle):
        for f in m.functions.values():
            for x in sorted(m.presentials | m.processes | m.continuants):
                expected = any(
                    executor == x
                    and pid in m.processes
                    and is_actual_realization(m.processes[pid], f, m) is not None
                    for executor, pid in m.exe_assertions
                )
                assert is_actual_realizer(x, f, m) == expected


def test_realizer_requires_realizing_process(kettle):
    # the kettle executes both heatings, which do realize f_boil
    f = kettle.functions["f_boil"]
    assert is_actual_realizer("kettle", f, kettle)
    # an executor of only a non-realizing process is not a realizer
    mid = Process(
        "mid",
        Chronoid("midspan", Fraction(1), Fraction(5)),
        {Fraction(1): "kettle1", Fraction(5): "kettle5"},
    )
    m2 = replace(
        kettle.with_process(mid), exe_assertions=frozenset({("kettle", "mid")})
    )
    assert not is_actual_realizer("kettle", f, m2)


def test_check_fitem(heart):
    f = heart.functions["f_pump"]
    ok, unmet = check_fitem("heart", f, heart, 0)
    assert ok and unmet == []
    sick = FunctionSpec(
        id="f2", req=f.req, goal=f.goal, fitem=(("intact", "no"),)
    )
    ok, unmet = check_fitem("heart", sick, heart, 0)
    assert not ok and unmet == [("intact", "no")]
    empty = FunctionSpec(id="f3", req=f.req, goal=f.goal)
    assert check_fitem("blood", empty, heart, 1) == (True, [])
    with pytest.raises(UnsampledTime):
        check_fitem("heart", f, heart, Fraction(1, 2))


def test_fact_pattern_matching():
    fact = Fact("f", "drinks", ("John", "beer"))
    assert FactPattern("drinks", ("John", "beer")).matches(fact)
    assert FactPattern("drinks", (WILDCARD, "beer")).matches(fact)
    assert not FactPattern("drinks", ("Paul", "beer")).matches(fact)
    assert not FactPattern("drinks", ("John",)).matches(fact)
    assert not FactPattern("eats", ("John", "beer")).matches(fact)


def test_concept_requires_a_constraint():
    with pytest.raises(ValueError):
        SituationConcept(frozenset(), frozenset(), name="empty")


def test_satisfies_concept_unknown_situation(heart):
    foreign = Situation(
        id="elsewhere",
        extent=heart.chronoids["beat"],
        constituents=frozenset(),
        participants=frozenset(),
    )
    concept = _concept(facts=[FactPattern("position", (WILDCARD, WILDCARD))])
    with pytest.raises(UnknownSituation):
        satisfies_concept(foreign, concept, heart)


def test_executes_self_pair_undeclared(heart):
    assert not executes("heart", "heart", heart)


def test_situoid_constraint_checks_every_sample_inside():
    drinking = parse_file(CORPUS / "drinking.gfo")
    s = drinking.situations["s_drink"]  # situoid over [1, 2]
    # John's thirst is high at 1 and low at 2: neither value holds throughout
    high = _concept(props=[PropertyConstraint("John", "thirst", "high")])
    low = _concept(props=[PropertyConstraint("John", "thirst", "low")])
    assert not satisfies_concept(s, high, drinking)
    assert not satisfies_concept(s, low, drinking)


def test_situoid_constraint_vacuous_without_samples_inside():
    football = parse_file(CORPUS / "football.gfo")
    s = football.situations["s_shot"]  # situoid over [44, 45]
    # the player has no declared samples inside the shot window
    concept = _concept(
        facts=[FactPattern("shoots", (WILDCARD, WILDCARD, WILDCARD))],
        props=[PropertyConstraint("player", "thirst", "high")],
    )
    m2 = replace(
        football,
        property_defs={
            **football.property_defs,
            "thirst": parse_file(CORPUS / "drinking.gfo").property_defs["thirst"],
        },
    )
    assert satisfies_concept(s, concept, m2)


def test_constraints_on_non_individuals_never_hold(heart):
    # a situation listed as participant cannot present property values
    s = heart.situations["s_req"]
    grown = replace(s, participants=s.participants | {"s_goal"})
    m2 = replace(heart, situations={**heart.situations, s.id: grown})
    concept = _concept(props=[PropertyConstraint("s_goal", "intact", "yes")])
    assert not satisfies_concept(grown, concept, m2)


def _stores_reversed(m):
    """``m`` with every store dict rebuilt in reversed insertion order."""
    stores = {f.name: getattr(m, f.name) for f in fields(m)}
    return replace(
        m, **{k: dict(reversed(v.items())) for k, v in stores.items() if isinstance(v, dict)}
    )


def _realization_worlds():
    """200 random full worlds and 100 crowded realization worlds, each
    followed by its copy with every store in reversed insertion order."""
    rng = random.Random(20261021)
    for make, count in ((random_full_model, 200), (random_realization_model, 100)):
        for _ in range(count):
            m = make(rng)
            yield m
            yield _stores_reversed(m)


def _entity_ids(m):
    return sorted({*m.presentials, *m.processes, *m.continuants, *m.situations, *m.facts})


def test_realizations_and_realizers_agree_with_oracles_on_random_worlds():
    seen = Counter()
    for m in _realization_worlds():
        for f in m.functions.values():
            for pid, p in m.processes.items():
                pairs = oracles.realization_pairs(m, p, f)
                record = is_actual_realization(p, f, m)
                if pairs:
                    got = (record.process, record.requirement_situation, record.goal_situation)
                    assert got == (pid, *min(pairs))
                    seen["realization"] += 1
                    seen["several pairs"] += len(pairs) > 1
                else:
                    assert record is None
            expected = oracles.realizers(m, f)
            for x in _entity_ids(m):
                assert is_actual_realizer(x, f, m) == (x in expected), (f.id, x)
            seen["realizer"] += len(expected)
    assert min(seen.values()) > 500, seen  # every path was exercised


def test_concept_satisfaction_agrees_with_oracle_on_random_worlds():
    seen = Counter()
    for m in _realization_worlds():
        for s in m.situations.values():
            for f in m.functions.values():
                for concept in (f.req, f.goal):
                    got = satisfies_concept(s, concept, m)
                    assert got == oracles.concept_holds(m, s, concept), (s.id, concept)
                    if concept.required_props and not s.presentic:
                        seen["situoid", got] += 1
    assert min(seen[key] for key in (("situoid", True), ("situoid", False))) > 50, seen


def test_universal_realization_agrees_with_oracle_on_random_worlds():
    rng = random.Random(20261022)
    seen = Counter()
    for m in _realization_worlds():
        for f in m.functions.values():
            pairs = {pid: oracles.realization_pairs(m, p, f) for pid, p in m.processes.items()}
            realizing = sorted(pid for pid in pairs if pairs[pid])
            half = set(rng.sample(realizing, len(realizing) // 2))
            # the declared instances, and some that the realizing processes cover
            covered = sorted({pairs[pid][0][0] for pid in realizing})
            some = frozenset(rng.sample(covered, (len(covered) + 1) // 2))
            for instances in (m.requirement_instances.get(f.id, frozenset()), some):
                mf = replace(m, requirement_instances={**m.requirement_instances, f.id: instances})
                for members in (set(m.processes), set(realizing), half):
                    expected = oracles.universal_realization(mf, members, f)
                    assert is_universal_realization(members, f, mf) == expected
                    seen[expected[0], bool(instances)] += 1
    assert min(seen[True, True], seen[False, True]) > 50, seen
