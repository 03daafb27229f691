"""Elementary propositions, the satisfaction relation, truth-maker search.

A truth-maker is a triple (process, situation, fact): the situation is
founded on the process and the fact is one of its constituents.  An
elementary proposition is made true by such a triple when the fact matches
it and the situation's extent agrees with the proposition's time
reference.  An empty search result means the model contains no witness,
not that the proposition is false of the world.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import MalformedTriple, UnknownProperty
from .model import (
    GLOBAL,
    ISOLATED,
    NON_ISOLATED,
    Model,
    Situation,
    Value,
    process_of,
)
from .functions import FactPattern, FunctionSpec, is_actual_realization


@dataclass(frozen=True)
class AtTime:
    """A proposition's time reference: the one coordinate."""

    coordinate: Fraction


@dataclass(frozen=True)
class DuringSpan:
    """A proposition's time reference: the span [left, right]."""

    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class FactProp:
    """'relator(arg, ...)': made true by a matching constituent fact."""

    relator: str
    patterns: tuple  # ids, literal values or '_'
    time_ref: object = None  # an AtTime, a DuringSpan, or None: unanchored


@dataclass(frozen=True)
class HoldsProp:
    """'holds(subject, property, value)': made true by a property fact."""

    subject: str
    prop: str
    value: Value
    time_ref: object = None  # an AtTime, a DuringSpan, or None: unanchored


@dataclass(frozen=True)
class TruthMakerTriple:
    """A process, a situation founded on it, and one of its constituent facts."""

    process: str
    situation: str
    fact: str

    def to_json(self) -> dict:
        return {
            "process": self.process,
            "situation": self.situation,
            "fact": self.fact,
        }


class SupportClass(Enum):
    PRESENTIC_ISOLATED = "presenticIsolated"
    PRESENTIC_NON_ISOLATED = "presenticNonIsolated"
    GLOBAL = "global"


_SUPPORT_CLASS = {
    ISOLATED: SupportClass.PRESENTIC_ISOLATED,
    NON_ISOLATED: SupportClass.PRESENTIC_NON_ISOLATED,
    GLOBAL: SupportClass.GLOBAL,
}


def _extent_matches(s: Situation, time_ref) -> bool:
    if time_ref is None:
        return True
    if isinstance(time_ref, AtTime):
        return s.presentic and s.extent.coordinate == time_ref.coordinate
    # during: the situation's extent must lie inside the span, not merely
    # overlap it
    if s.presentic:
        return time_ref.left <= s.extent.coordinate <= time_ref.right
    return time_ref.left <= s.extent.left and s.extent.right <= time_ref.right


def satisfies(tm: TruthMakerTriple, prop, m: Model) -> bool:
    """True iff the triple makes the proposition true.

    Raises MalformedTriple when the triple violates foundedness or
    constituenthood — the relation never certifies ill-formed triples.
    """
    s = m.situations.get(tm.situation)
    if s is None:
        raise MalformedTriple(f"unknown situation {tm.situation!r}")
    if tm.process not in m.processes or s.founded_on != tm.process:
        raise MalformedTriple(
            f"situation {tm.situation!r} is not founded on process {tm.process!r}"
        )
    if tm.fact not in s.constituents:
        raise MalformedTriple(
            f"fact {tm.fact!r} is not a constituent of situation {tm.situation!r}"
        )
    fact = m.facts.get(tm.fact)
    if fact is None:
        raise MalformedTriple(f"unknown fact {tm.fact!r}")

    if not _extent_matches(s, prop.time_ref):
        return False
    return _fact_test(prop, m)(fact)


def _fact_test(prop, m: Model):
    """The predicate a constituent fact of ``m`` must pass to make ``prop`` true."""
    if isinstance(prop, HoldsProp):
        if prop.prop not in m.property_defs:
            raise UnknownProperty(prop.prop)
        # holds names its subject and value exactly: '_' is no wildcard there
        args = (prop.subject, prop.value)
        return lambda fact: fact.relator == prop.prop and fact.args == args
    return FactPattern(prop.relator, prop.patterns).matches


def find_truthmakers(m: Model, prop) -> list[TruthMakerTriple]:
    """All triples in the model that make the proposition true, in
    canonical (process, situation, fact) order."""
    matches = _fact_test(prop, m)
    out = []
    for sid, s in m.situations.items():
        # triples built here are founded and constituent by construction, so
        # satisfies() is not re-run on them; unknown processes and facts:
        # guard for hand-built stores only (docs/semantics.md, store invariants)
        if s.founded_on not in m.processes or not _extent_matches(s, prop.time_ref):
            continue
        for fid in s.constituents:
            fact = m.facts.get(fid)
            if fact is not None and matches(fact):
                out.append(TruthMakerTriple(process=s.founded_on, situation=sid, fact=fid))
    return sorted(out, key=lambda t: (t.process, t.situation, t.fact))


def has_propositional_property(p: str, prop, m: Model) -> bool:
    """True iff the process is a truth-maker for the proposition.  An id
    that is not a process raises as :func:`model.process_of` does."""
    process_of(m, p, "only processes are truth-makers")
    return any(tm.process == p for tm in find_truthmakers(m, prop))


def classify_property_support(prop_name: str, p: str, m: Model) -> SupportClass:
    """Three-level temporal classification of a process property.  An
    undeclared property raises UnknownProperty; an id that is not a process
    then raises as :func:`model.process_of` does."""
    pdef = m.property_defs.get(prop_name)
    if pdef is None:
        raise UnknownProperty(f"property {prop_name!r} is not declared")
    process_of(m, p, "only process properties are classified")
    return _SUPPORT_CLASS[pdef.support.kind]


def functional_property(p: str, f: FunctionSpec, m: Model) -> bool:
    """True iff the process realizes the function.

    A functional property is always global, never presentic; presentials
    bear no functional properties, so passing a non-process id is a type
    error at this interface, raised as :func:`model.process_of` does.
    """
    process = process_of(m, p, "only processes realize functions")
    return is_actual_realization(process, f, m) is not None
