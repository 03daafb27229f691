import copy
import importlib
import inspect
import pickle
import re
from dataclasses import MISSING, FrozenInstanceError, asdict, fields, is_dataclass, replace
from fractions import Fraction
from operator import attrgetter

import pytest

import gfo
import gfo.cli
from gfo.chrono import Chronoid, inner_boundary
from gfo.dsl import parse_file
from gfo.functions import executes
from gfo.errors import (
    NotASubinterval,
    OutOfExtent,
    OutOfLifetime,
    UnknownEntity,
    UnsampledTime,
    ZeroOrNegativeDuration,
)
from gfo.model import (
    Kind,
    Model,
    Presential,
    Process,
    classify,
    process_boundary,
    process_of,
    process_temporal_part,
    snapshot,
    valuation_at,
)
import record_twins
from helpers import CORPUS


@pytest.fixture(scope="module")
def heart():
    return parse_file(CORPUS / "heart.gfo")


def _three_sample_process(pid="P"):
    ch = Chronoid("e", Fraction(0), Fraction(2))
    presentials = {
        f"n{t}": Presential(f"n{t}", inner_boundary(ch, t), {}) for t in (0, 1, 2)
    }
    p = Process(pid, ch, {Fraction(t): f"n{t}" for t in (0, 1, 2)})
    m = Model(chronoids={"e": ch}, presentials=presentials, processes={pid: p})
    return m, p


def test_classify_corpus_entities(heart):
    assert classify("heart_a", heart) is Kind.PRESENTIAL
    assert classify("blood-movement", heart) is Kind.PROCESS
    assert classify("heart", heart) is Kind.CONTINUANT
    assert classify("s_req", heart) is Kind.SITUATION
    assert classify("f_start", heart) is Kind.FACT
    with pytest.raises(UnknownEntity):
        classify("nobody", heart)


def test_a_chronoid_id_names_no_individual(heart):
    """A declared chronoid is not an individual: every lookup of an
    individual by id says so, naming the id's role, instead of reading the
    id as undeclared."""
    lookups = [
        (lambda: classify("life", heart), "entity 'life'"),
        (lambda: executes("life", "heart_proc", heart), "executor 'life'"),
        (lambda: executes("heart", "life", heart), "process 'life'"),
        (lambda: process_of(heart, "life", "why"), "process 'life'"),
        (lambda: valuation_at(heart, "life", 0), "entity 'life'"),
    ]
    for lookup, named in lookups:
        with pytest.raises(TypeError, match=f"^{named} is a chronoid, not an individual$"):
            lookup()


def test_classify_is_total_and_unique(heart):
    for _, store in heart._kind_stores():
        for entity_id in store:
            assert len(heart.kinds_of(entity_id)) == 1


def test_classify_precedence_on_conflicted_store():
    # only constructible programmatically; the DSL rejects kind conflicts
    ch = Chronoid("e", Fraction(0), Fraction(2))
    pres = Presential("x", inner_boundary(ch, 0), {})
    p = Process("x", ch, {Fraction(0): "x", Fraction(2): "x"})
    m = Model(chronoids={"e": ch}, presentials={"x": pres}, processes={"x": p})
    assert m.kinds_of("x") == [Kind.PRESENTIAL, Kind.PROCESS]
    assert classify("x", m) is Kind.PRESENTIAL


def test_process_boundary_examples():
    m, p = _three_sample_process()
    assert process_boundary(p, 1, m).id == "n1"
    with pytest.raises(OutOfExtent):
        process_boundary(p, 3, m)
    with pytest.raises(UnsampledTime):
        process_boundary(p, Fraction(1, 2), m)


def test_snapshot_examples(heart):
    assert snapshot(heart.continuants["heart"], 0, heart).id == "heart_b"
    with pytest.raises(OutOfLifetime):
        snapshot(heart.continuants["heart"], 5, heart)
    with pytest.raises(UnsampledTime):
        snapshot(heart.continuants["heart"], Fraction(1, 2), heart)


def test_snapshot_of_a_sample_naming_no_declared_presential(heart):
    # only constructible programmatically: the linker resolves every exhibit
    c = heart.continuants["heart"]
    ghost = replace(c, exhibit_map={**c.exhibit_map, Fraction(0): "ghost"})
    with pytest.raises(UnknownEntity):
        snapshot(ghost, 0, heart)


def test_valuation_at_a_situation_is_none_and_at_an_unknown_id_an_error(heart):
    assert valuation_at(heart, "s_req", Fraction(0)) is None
    with pytest.raises(UnknownEntity):
        valuation_at(heart, "nobody", Fraction(0))


def test_snapshot_carries_the_valuation():
    cat = parse_file(CORPUS / "cat_crossing.gfo")
    mid = snapshot(cat.continuants["cat"], 2, cat)
    assert mid.valuation == {"location": "road", "whiskers": Fraction(24)}


def test_lookups_return_presentials_at_the_query_coordinate(heart):
    for c in heart.continuants.values():
        for t in c.exhibit_map:
            assert snapshot(c, t, heart).at.coordinate == t
    for p in heart.processes.values():
        for t in p.boundary_map:
            assert process_boundary(p, t, heart).at.coordinate == t


def test_process_temporal_part_restricts_maps():
    ch = Chronoid("e", Fraction(0), Fraction(10))
    presentials = {
        f"n{t}": Presential(f"n{t}", inner_boundary(ch, t), {})
        for t in (0, 2, 5, 6, 10)
    }
    p = Process(
        "P",
        ch,
        {Fraction(t): f"n{t}" for t in (0, 2, 5, 6, 10)},
        {"load": tuple((Fraction(t), Fraction(t)) for t in (0, 5, 10))},
    )
    part = process_temporal_part(p, 2, 6)
    assert sorted(part.boundary_map) == [Fraction(2), Fraction(5), Fraction(6)]
    assert part.trajectories == {"load": ((Fraction(5), Fraction(5)),)}
    assert part.extent.left == 2 and part.extent.right == 6


def test_process_temporal_part_improper_is_fresh():
    m, p = _three_sample_process()
    copy = process_temporal_part(p, 0, 2)
    assert copy.id != p.id
    assert copy.boundary_map == p.boundary_map


def test_process_temporal_part_composition_on_boundary_maps():
    ch = Chronoid("e", Fraction(0), Fraction(10))
    presentials = {
        f"n{t}": Presential(f"n{t}", inner_boundary(ch, t), {})
        for t in (0, 2, 4, 6, 10)
    }
    p = Process("P", ch, {Fraction(t): f"n{t}" for t in (0, 2, 4, 6, 10)})
    nested = process_temporal_part(process_temporal_part(p, 2, 6), 2, 6)
    direct = process_temporal_part(p, 2, 6)
    assert nested.boundary_map == direct.boundary_map
    assert nested.extent.same_extent(direct.extent)


def test_process_temporal_part_errors():
    m, p = _three_sample_process()
    with pytest.raises(NotASubinterval):
        process_temporal_part(p, 1, 1)
    with pytest.raises(NotASubinterval):
        process_temporal_part(p, 0, 3)
    with pytest.raises(UnsampledTime):
        process_temporal_part(p, Fraction(1, 2), 2)


def test_equal_boundary_maps_do_not_identify_processes():
    m, p = _three_sample_process("P1")
    twin = Process("P2", p.extent, dict(p.boundary_map))
    assert twin.boundary_map == p.boundary_map
    assert twin != p
    m2 = m.with_process(twin)
    assert classify("P1", m2) is Kind.PROCESS
    assert classify("P2", m2) is Kind.PROCESS
    assert len(m2.processes) == 2


# the package's export list, in order
PUBLIC = (
    "errors Chronoid TimeBoundary coord coord_str make_chronoid inner_boundary left_boundary"
    " right_boundary coincides meets temporal_part_chronoid Model Presential Process Continuant"
    " Fact Situation PropertyDef ValueDomain Support Kind classify process_boundary snapshot"
    " process_temporal_part Violation IntegrationWitness check_disjointness check_integration"
    " derive_process complete_integration check_presential_dependence detect_continuant_changes"
    " detect_process_changes FactPattern PropertyConstraint SituationConcept FunctionSpec"
    " RealizationRecord satisfies_concept is_actual_realization is_universal_realization executes"
    " is_actual_realizer check_fitem AtTime DuringSpan FactProp HoldsProp TruthMakerTriple"
    " SupportClass satisfies find_truthmakers has_propositional_property"
    " classify_property_support functional_property parse parse_file serialize parse_query"
    " ParseError ParseDiagnostic SourceSpan"
)
# names the modules once listed as their own exports, constants among them:
# each is imported from its module
MODULE_NAMES = {
    "model": "CATEGORICAL NUMERIC ISOLATED NON_ISOLATED GLOBAL Value ValueDomain Support"
             " PropertyDef Presential Process Continuant Fact Situation Kind Model classify"
             " process_boundary snapshot process_temporal_part valuation_at",
    "checker": "DISJOINTNESS INTEGRATION INTEGRATION_NO_PROCESS PRESENTIAL_DEPENDENCE"
               " REGISTERED_AXIOMS IDENTITY VALUATION Violation IntegrationWitness"
               " sort_violations check_disjointness check_integration derive_process"
               " complete_integration check_presential_dependence detect_continuant_changes"
               " detect_process_changes",
    "functions": "WILDCARD CONCEPTUAL UNIVERSAL INDIVIDUAL FUNCTION_KINDS FactPattern"
                 " PropertyConstraint SituationConcept FunctionSpec RealizationRecord"
                 " satisfies_concept is_actual_realization is_universal_realization executes"
                 " is_actual_realizer check_fitem",
    "truthmakers": "AtTime DuringSpan FactProp HoldsProp TruthMakerTriple SupportClass"
                   " satisfies find_truthmakers has_propositional_property"
                   " classify_property_support functional_property",
    "dsl": "DIAGNOSTIC_CODES SourceSpan ParseDiagnostic ParseError parse parse_file serialize"
           " parse_query",
}


def test_the_public_names_resolve():
    """``gfo.__all__`` is the public API, each name the object of the module
    that defines it; every name a module ever listed still imports from it."""
    assert gfo.__all__ == PUBLIC.split()
    for name in gfo.__all__:
        assert getattr(gfo, name) is not None, name
    for module, names in MODULE_NAMES.items():
        mod = importlib.import_module(f"gfo.{module}")
        for name in names.split():
            assert hasattr(mod, name), (module, name)
            if name in gfo.__all__:
                assert getattr(gfo, name) is getattr(mod, name), (module, name)
    # the names gfo.dsl loads on first use, and the cli's name for one of them
    render, query = importlib.import_module("gfo.render"), importlib.import_module("gfo.query")
    assert gfo.dsl.serialize is render.serialize
    assert gfo.dsl.parse_query is query.parse_query
    assert gfo.cli.model_to_json is gfo.dsl.model_to_json is render.model_to_json


F = Fraction
_BOUNDARY = gfo.TimeBoundary("c@0", F(0), "c", "left")
_CONCEPT = gfo.SituationConcept(
    frozenset({gfo.FactPattern("r", ("a", "_"))}), frozenset({gfo.PropertyConstraint("a", "p", "x")}),
    "f.req",
)
_OTHER_CONCEPT = gfo.SituationConcept(frozenset({gfo.FactPattern("s", ())}), frozenset(), "g.goal")

# every record and entity type, a value of each of its fields, and another
# value of each field
RECORD_VALUES = [
    (gfo.TimeBoundary, ("c@1", F(1), "c", "inner"), ("d@2", F(2), "d", "right")),
    (gfo.Chronoid, ("c", F(0), F(1), {}), ("d", F(-1), F(2), {F(0): _BOUNDARY})),
    (gfo.ValueDomain, ("categorical", frozenset({"x"})), ("numeric", frozenset())),
    (gfo.Support, ("nonisolated", F(1, 2)), ("global", None)),
    (gfo.PropertyDef, ("p", gfo.ValueDomain("numeric"), gfo.Support("isolated")),
     ("q", gfo.ValueDomain("categorical", frozenset({"x"})), gfo.Support("global"))),
    (gfo.Presential, ("a", _BOUNDARY, {"p": "x"}, True),
     ("b", gfo.TimeBoundary("d@2", F(2), "d", "right"), {"p": "y"}, False)),
    (gfo.Process, ("P", gfo.Chronoid("c", F(0), F(1)), {F(0): "a"}, {"v": ((F(0), F(1)),)}),
     ("Q", gfo.Chronoid("d", F(0), F(2)), {F(1): "b"}, {})),
    (gfo.Continuant, ("k", gfo.Chronoid("c", F(0), F(1)), {F(0): "a"}, True),
     ("l", gfo.Chronoid("d", F(0), F(2)), {}, False)),
    (gfo.Fact, ("f", "r", ("a", F(1))), ("g", "s", ())),
    (gfo.Situation, ("s", _BOUNDARY, frozenset({"f"}), frozenset({"a"}), "P"),
     ("t", gfo.Chronoid("c", F(0), F(1)), frozenset(), frozenset(), None)),
    (gfo.Model, (*({"x": i} for i in range(8)), frozenset({("x", "P")}), {"f": frozenset({"s"})}, {}),
     (*({} for _ in range(8)), frozenset(), {}, {"g": frozenset({"t"})})),
    (gfo.FactPattern, ("r", ("a", "_")), ("s", ("b",))),
    (gfo.PropertyConstraint, ("a", "p", "x"), ("b", "q", F(1))),
    (gfo.SituationConcept, (_CONCEPT.required_facts, _CONCEPT.required_props, "f.req"),
     (_OTHER_CONCEPT.required_facts, frozenset({gfo.PropertyConstraint("b", "q", "y")}), "g.goal")),
    (gfo.FunctionSpec, ("f", _CONCEPT, _CONCEPT, frozenset({"pump"}), (("p", "x"),), "conceptual", None),
     ("g", _OTHER_CONCEPT, _OTHER_CONCEPT, frozenset(), (), "individual", "heart")),
    (gfo.RealizationRecord, ("p", "s_req", "s_goal"), ("q", "t_req", "t_goal")),
    (gfo.AtTime, (F(3, 2),), (F(2),)),
    (gfo.DuringSpan, (F(0), F(1)), (F(-1), F(2))),
    (gfo.FactProp, ("r", ("a", "_"), None), ("s", (), gfo.AtTime(F(1)))),
    (gfo.HoldsProp, ("a", "p", "x", gfo.DuringSpan(F(0), F(1))), ("b", "q", F(1), None)),
    (gfo.TruthMakerTriple, ("p", "s", "f"), ("q", "t", "g")),
    (gfo.Violation, ("integration", ("c", "p"), "differ", F(1, 2)), ("disjointness", ("d",), "twice", None)),
    (gfo.IntegrationWitness, ("c", "p", (F(0), F(1))), ("d", "q", ())),
    (gfo.SourceSpan, ("world.gfo", 3, 7, 2), ("other.gfo", 4, 8, 1)),
    (gfo.ParseDiagnostic, (gfo.SourceSpan("world.gfo", 1, 1), "unknown-id", "boom"),
     (gfo.SourceSpan("other.gfo", 2, 2), "bad-value", "bang")),
]
# what dataclasses.fields tells of a field, its type aside
_FIELD = attrgetter("name", "default", "default_factory", "init", "repr", "hash", "compare", "kw_only")


def _refusal(write, target) -> str:
    with pytest.raises(FrozenInstanceError) as raised:
        write(target)
    return str(raised.value)


@pytest.mark.parametrize("cls, values, others", RECORD_VALUES, ids=[cls.__name__ for cls, *_ in RECORD_VALUES])
def test_a_record_behaves_as_its_frozen_dataclass(cls, values, others):
    """Every record and entity type is a ``model.Record``, built without
    generating code at import, yet it compares, hashes, prints, refuses
    writes, copies and answers ``dataclasses`` as its twin does: the frozen
    dataclass the class stands for (tests/record_twins.py)."""
    twin = getattr(record_twins, cls.__name__)
    names = [f.name for f in fields(twin)]
    record, model = cls(*values), twin(*values)
    assert record == cls(**dict(zip(names, values))) and cls.__match_args__ == twin.__match_args__
    assert (hash(record), repr(record)) == (hash(model), repr(model))
    assert record != model and record.__eq__(model) is NotImplemented
    subclass = type("Subclass", (cls,), {})  # the same fields and values, another class
    assert (record == subclass(*values)) is (model == type("Subclass", (twin,), {})(*values)) is False
    for i, other in enumerate(others):  # each field changed alone
        changed = (*values[:i], other, *values[i + 1 :])
        assert (cls(*changed) == record) is (twin(*changed) == model), names[i]
        assert (hash(cls(*changed)) == hash(record)) is (hash(twin(*changed)) == hash(model)), names[i]
        assert replace(record, **{names[i]: other}) == cls(*changed)
    for name in (*names, "undeclared"):
        for write in (lambda x: setattr(x, name, None), lambda x: delattr(x, name)):
            assert _refusal(write, record) == _refusal(write, model)
    assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    assert is_dataclass(cls) and is_dataclass(record) and asdict(record) == asdict(model)
    assert [*map(_FIELD, fields(record))] == [*map(_FIELD, fields(model))]
    if "to_json" not in vars(cls):  # a diagnostic and a violation write their own
        assert record.to_json() == dict(zip(names, values))
    # each instance a default factory serves gets a fresh dict of its own
    factories = [f.name for f in fields(twin) if f.default_factory is not MISSING]
    if factories:
        required = [v for v, f in zip(values, fields(twin)) if f.default is MISSING is f.default_factory]
        first, second = cls(*required), cls(*required)
        for name in factories:
            assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)


def test_a_record_keeps_its_defaults_and_checks():
    span = gfo.SourceSpan("world.gfo", 1, 2)
    assert span.length == 1 and gfo.Violation("integration", ("c",), "m").at is None
    with pytest.raises(ValueError, match="unregistered diagnostic code"):
        gfo.ParseDiagnostic(span, "no-such-code", "boom")
    with pytest.raises(ValueError, match="unregistered axiom name"):
        gfo.Violation("no-such-axiom", ("c",), "m")
    with pytest.raises(ZeroOrNegativeDuration, match=r"chronoid 'c': \[1, 1\] has no duration"):
        gfo.Chronoid("c", Fraction(1), Fraction(1))
    with pytest.raises(ValueError, match="concept 'empty' has no constraints"):
        gfo.SituationConcept(name="empty")


# one declared id of each individual kind in heart.gfo
HEART_IDS = {
    "continuant": "heart", "presential": "heart_b", "process": "blood-movement",
    "situation": "s_req", "fact": "f_start",
}
INDIVIDUALS = tuple(HEART_IDS)


def _law_calls(m):
    """(function, parameter) -> (the call with ``x`` there, the kinds it answers
    for, what a declared id of any other kind gives: TypeError, or False)."""
    f = m.functions["f_pump"]
    prop = gfo.FactProp("position", ("blood", "in_heart"))
    return {
        ("classify", "entity_id"): (lambda x: gfo.classify(x, m), INDIVIDUALS, None),
        ("executes", "x"): (lambda x: gfo.executes(x, "blood-movement", m), INDIVIDUALS, None),
        ("executes", "p"): (lambda x: gfo.executes("heart", x, m), ("process",), False),
        ("is_actual_realizer", "x"): (lambda x: gfo.is_actual_realizer(x, f, m), INDIVIDUALS, None),
        ("check_fitem", "bearer"): (
            lambda x: gfo.check_fitem(x, f, m, 0), ("continuant", "presential", "process"), TypeError
        ),
        ("has_propositional_property", "p"): (
            lambda x: gfo.has_propositional_property(x, prop, m), ("process",), TypeError
        ),
        ("classify_property_support", "p"): (
            lambda x: gfo.classify_property_support("position", x, m), ("process",), TypeError
        ),
        ("functional_property", "p"): (
            lambda x: gfo.functional_property(x, f, m), ("process",), TypeError
        ),
        ("is_universal_realization", "process_ids"): (
            lambda x: gfo.is_universal_realization([x], f, m), ("process",), TypeError
        ),
    }


# the str parameters of public functions that take no id of the store
NON_IDS = set("value left right id t l r role mode prop_name tol source file text".split())


def test_every_id_parameter_is_looked_up_by_role(heart):
    """Each id parameter of ``gfo.__all__`` answers an id of a kind it takes,
    raises UnknownEntity for an undeclared id and TypeError for a chronoid's,
    and for an individual of another kind either raises TypeError ("'x' is
    not a <kinds>; <why>") or answers its documented False."""
    calls = _law_calls(heart)
    for name in gfo.__all__:
        fn = getattr(gfo, name)
        if not inspect.isfunction(fn):
            continue
        for param in inspect.signature(fn).parameters.values():
            if isinstance(param.annotation, str) and re.search(r"\bstr\b", param.annotation):
                assert (name, param.name) in calls or param.name in NON_IDS, (name, param.name)
    for (name, param), (call, takes, other) in calls.items():
        assert param in inspect.signature(getattr(gfo, name)).parameters, (name, param)
        with pytest.raises(UnknownEntity, match=r"^[a-z]+ 'nobody' is not declared$"):
            call("nobody")
        with pytest.raises(TypeError, match=r"^[a-z]+ 'beat' is a chronoid, not an individual$"):
            call("beat")  # a chronoid of heart.gfo
        for kind, x in HEART_IDS.items():
            if kind in takes:
                assert call(x) is not None, (name, param, kind)
            elif other is False:
                assert call(x) is False, (name, param, kind)
            else:
                shape = rf"^'{x}' is not a [a-z, ]+; \S.*$"
                with pytest.raises(TypeError, match=shape):
                    call(x)
