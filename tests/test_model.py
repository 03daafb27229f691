import importlib
from dataclasses import replace
from fractions import Fraction

import pytest

import gfo
from gfo.chrono import Chronoid, inner_boundary
from gfo.dsl import parse_file
from gfo.errors import (
    NotASubinterval,
    OutOfExtent,
    OutOfLifetime,
    UnknownEntity,
    UnsampledTime,
)
from gfo.model import (
    Kind,
    Model,
    Presential,
    Process,
    classify,
    process_boundary,
    process_temporal_part,
    snapshot,
    valuation_at,
)
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
