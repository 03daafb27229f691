"""Every record and entity type as the frozen dataclass it stands for: the
field names, defaults, default factories and compare/hash/repr flags the
classes had as ``@dataclass(frozen=True)`` definitions, kept as the oracle
that ``tests/test_model.py`` holds each record to.  A twin has its record's
name, so the two print alike; it carries no checks, and no methods but the
dataclass's own."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from gfo import model


@dataclass(frozen=True)
class TimeBoundary:
    id: str
    coordinate: Fraction
    owner: str
    kind: str


@dataclass(frozen=True)
class Chronoid:
    id: str
    left: Fraction
    right: Fraction
    _boundaries: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class ValueDomain:
    kind: str
    symbols: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Support:
    kind: str
    window_radius: Fraction | None = None


@dataclass(frozen=True)
class PropertyDef:
    name: str
    domain: ValueDomain
    support: Support = model.Support("isolated")  # the record, as the default is


@dataclass(frozen=True)
class Presential:
    id: str
    at: TimeBoundary
    valuation: dict = field(default_factory=dict, hash=False)
    material: bool = True


@dataclass(frozen=True)
class Process:
    id: str
    extent: Chronoid
    boundary_map: dict = field(default_factory=dict, hash=False)
    trajectories: dict = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class Continuant:
    id: str
    lifetime: Chronoid
    exhibit_map: dict = field(default_factory=dict, hash=False)
    material: bool = True


@dataclass(frozen=True)
class Fact:
    id: str
    relator: str
    args: tuple


@dataclass(frozen=True)
class Situation:
    id: str
    extent: Chronoid | TimeBoundary
    constituents: frozenset = frozenset()
    participants: frozenset = frozenset()
    founded_on: str | None = None


@dataclass(frozen=True)
class Model:
    chronoids: dict = field(default_factory=dict, hash=False)
    presentials: dict = field(default_factory=dict, hash=False)
    processes: dict = field(default_factory=dict, hash=False)
    continuants: dict = field(default_factory=dict, hash=False)
    situations: dict = field(default_factory=dict, hash=False)
    facts: dict = field(default_factory=dict, hash=False)
    property_defs: dict = field(default_factory=dict, hash=False)
    functions: dict = field(default_factory=dict, hash=False)
    exe_assertions: frozenset = frozenset()
    requirement_instances: dict = field(default_factory=dict, hash=False)
    goal_instances: dict = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class FactPattern:
    relator: str
    args: tuple


@dataclass(frozen=True)
class PropertyConstraint:
    entity: str
    prop: str
    value: str | Fraction


@dataclass(frozen=True)
class SituationConcept:
    required_facts: frozenset = frozenset()
    required_props: frozenset = frozenset()
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    req: SituationConcept
    goal: SituationConcept
    labels: frozenset = frozenset()
    fitem: tuple = ()
    kind: str = "conceptual"
    bearer: str | None = None


@dataclass(frozen=True)
class RealizationRecord:
    process: str
    requirement_situation: str
    goal_situation: str


@dataclass(frozen=True)
class AtTime:
    coordinate: Fraction


@dataclass(frozen=True)
class DuringSpan:
    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class FactProp:
    relator: str
    patterns: tuple
    time_ref: object = None


@dataclass(frozen=True)
class HoldsProp:
    subject: str
    prop: str
    value: str | Fraction
    time_ref: object = None


@dataclass(frozen=True)
class TruthMakerTriple:
    process: str
    situation: str
    fact: str


@dataclass(frozen=True)
class Violation:
    axiom: str
    subjects: tuple
    message: str
    at: Fraction | None = None


@dataclass(frozen=True)
class IntegrationWitness:
    continuant: str
    process: str
    matched_samples: tuple


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    code: str
    message: str
