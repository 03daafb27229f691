"""Functions: conceptual structures, realizations, execution, realizers.

A function is a conceptual structure (labels, requirement concept, goal
concept, functional item).  A process is an actual realization of a
function when a presentic situation satisfying the requirement concept
coincides with its initial boundary and one satisfying the goal concept
coincides with its final boundary.  Execution is a primitive relation:
it is asserted in the model, never inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chrono import coord, coord_str
from .errors import UnknownEntity, UnknownSituation, UnsampledTime
from .model import (
    Fact,
    Model,
    Process,
    Situation,
    Value,
    process_of,
    sample_map,
    sample_valuation,
    valuation_at,
)

WILDCARD = "_"

CONCEPTUAL = "conceptual"
UNIVERSAL = "universal"
INDIVIDUAL = "individual"
FUNCTION_KINDS = (CONCEPTUAL, UNIVERSAL, INDIVIDUAL)


@dataclass(frozen=True)
class FactPattern:
    """A relator with argument slots; a slot is an id, a literal value, or
    the wildcard '_'."""

    relator: str
    args: tuple

    def matches(self, fact: Fact) -> bool:
        if fact.relator != self.relator or len(fact.args) != len(self.args):
            return False
        return all(
            slot == WILDCARD or slot == arg for slot, arg in zip(self.args, fact.args)
        )


@dataclass(frozen=True)
class PropertyConstraint:
    """Requires a participant to present a property value at the
    situation's time."""

    entity: str
    prop: str
    value: Value


@dataclass(frozen=True)
class SituationConcept:
    """A concept whose instances are situations; requires at least one
    fact pattern or property constraint.

    The name is a human label and does not enter equality.
    """

    required_facts: frozenset = frozenset()  # of FactPattern
    required_props: frozenset = frozenset()  # of PropertyConstraint
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.required_facts and not self.required_props:
            raise ValueError(f"concept {self.name!r} has no constraints")


@dataclass(frozen=True)
class FunctionSpec:
    """Conceptual structure of a function: labels, requirement and goal
    concepts, and the functional item (necessary bearer properties)."""

    id: str
    req: SituationConcept
    goal: SituationConcept
    labels: frozenset = frozenset()
    fitem: tuple = ()  # ((property name, required value), ...) sorted
    kind: str = CONCEPTUAL
    bearer: str | None = None


@dataclass(frozen=True)
class RealizationRecord:
    """Connects a process to the individual requirement and goal it links."""

    process: str
    requirement_situation: str
    goal_situation: str


# -- concept satisfaction ------------------------------------------------------


def _constraint_holds(m: Model, s: Situation, pc: PropertyConstraint) -> bool:
    if pc.entity not in s.participants:
        return False
    # only individuals with samples can present property values
    if not (
        pc.entity in m.presentials
        or pc.entity in m.continuants
        or pc.entity in m.processes
    ):
        return False
    samples = sample_map(m, pc.entity)
    if s.presentic:
        times = (s.extent.coordinate,)
    else:
        # situoid: the constraint must hold at every declared sample of the
        # participant inside the extent (vacuously true when there is none)
        times = [t for t in samples if s.extent.left <= t <= s.extent.right]
    for t in times:
        valuation = sample_valuation(m, samples, t)
        if valuation is None or valuation.get(pc.prop) != pc.value:
            return False
    return True


def satisfies_concept(s: Situation, c: SituationConcept, m: Model) -> bool:
    """True iff every required fact pattern matches a constituent fact and
    every property constraint holds for its participant at the situation's
    time.  Monotone in the situation's constituents."""
    if s.id not in m.situations:
        raise UnknownSituation(s.id)
    # guard for hand-built stores only (docs/semantics.md, store invariants)
    facts = [m.facts[fid] for fid in s.constituents if fid in m.facts]
    for pattern in c.required_facts:
        if not any(pattern.matches(f) for f in facts):
            return False
    for pc in c.required_props:
        if not _constraint_holds(m, s, pc):
            return False
    return True


# -- realization ---------------------------------------------------------------


def _presentic_situations(m: Model) -> dict:
    """Coordinate -> ids of the presentic situations there, in id order;
    read through ``m.index``, which builds it once per model."""
    index = {}
    for sid, s in sorted(m.situations.items()):
        if s.presentic:
            index.setdefault(s.extent.coordinate, []).append(sid)
    return index


def _executed(m: Model) -> dict:
    """Executor id -> ids of the processes asserted for it, both in id
    order; read through ``m.index``, which builds it once per model."""
    index = {}
    for x, pid in sorted(m.exe_assertions):
        index.setdefault(x, []).append(pid)
    return index


def _first_qualifying(m: Model, t: Fraction, concept: SituationConcept) -> str | None:
    """The smallest id of a presentic situation at ``t`` satisfying ``concept``."""
    for sid in m.index(_presentic_situations).get(t, ()):
        if satisfies_concept(m.situations[sid], concept, m):
            return sid
    return None


def is_actual_realization(p: Process, f: FunctionSpec, m: Model) -> RealizationRecord | None:
    """The realization record of ``p`` for ``f``, or None.

    The requirement situation must be presentic at a boundary coinciding
    with the process's initial boundary, the goal situation at its final
    boundary; when several situations qualify, the lexicographically
    smallest ids are chosen.
    """
    req_id = _first_qualifying(m, p.extent.left, f.req)
    goal_id = req_id and _first_qualifying(m, p.extent.right, f.goal)
    if goal_id is None:
        return None
    return RealizationRecord(p.id, req_id, goal_id)


def is_universal_realization(process_ids, f: FunctionSpec, m: Model):
    """Check a category of processes against ``f``.

    True iff every member realizes ``f`` and the members' realization
    records cover every declared requirement instance of ``f``.  Returns
    (verdict, diagnostics); diagnostics name non-realizing members and
    uncovered requirement instances.  A member that is not a process raises
    as :func:`model.process_of` does.
    """
    diagnostics = []
    covered = set()
    for pid in sorted(process_ids):
        p = process_of(m, pid, "only processes realize functions")
        record = is_actual_realization(p, f, m)
        if record is None:
            diagnostics.append(f"process {pid!r} is not a realization of {f.id!r}")
        else:
            covered.add(record.requirement_situation)
    for sid in sorted(m.requirement_instances.get(f.id, frozenset()) - covered):
        diagnostics.append(f"requirement instance {sid!r} is not covered")
    return (not diagnostics, diagnostics)


def executes(x: str, p: str, m: Model) -> bool:
    """The primitive execution relation: true iff (x, p) was asserted."""
    if not m.has_entity(x):
        raise UnknownEntity(x)
    if not m.has_entity(p):
        raise UnknownEntity(p)
    return (x, p) in m.exe_assertions


def is_actual_realizer(x: str, f: FunctionSpec, m: Model) -> bool:
    """True iff ``x`` executes some process that actually realizes ``f``."""
    if not m.has_entity(x):
        raise UnknownEntity(x)
    for pid in m.index(_executed).get(x, ()):
        p = m.processes.get(pid)
        # guard for hand-built stores only (docs/semantics.md, store invariants)
        if p is not None and is_actual_realization(p, f, m) is not None:
            return True
    return False


def check_fitem(bearer: str, f: FunctionSpec, m: Model, t: int | str | Fraction):
    """Check the bearer's valuation at ``t`` against the functional item.

    Returns (verdict, unmet constraints).
    """
    t = coord(t)
    valuation = valuation_at(m, bearer, t)  # raises UnknownEntity for foreign ids
    if valuation is None:
        raise UnsampledTime(
            f"{bearer!r} presents no snapshot or boundary at {coord_str(t)}"
        )
    unmet = [(prop, want) for prop, want in f.fitem if valuation.get(prop) != want]
    return (not unmet, unmet)
