"""Immutable entity store for processes, presentials, continuants and situations.

All entities are frozen dataclasses addressed by string ids.  The store
itself is built once (by the DSL loader or programmatically) and then only
read; the checking and query layers are pure functions over it.

Finite-sample semantics: processes and continuants carry finitely many
declared time samples, and every universally quantified check downstream
quantifies over declared samples only.  Presentials hold only
isolated-support property values; data for non-isolated and global
properties lives in process trajectories, since such values cannot be
pinned to a single boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .chrono import Chronoid, TimeBoundary, coord, coord_str, temporal_part_chronoid
from .errors import (
    NotASubinterval,
    OutOfExtent,
    OutOfLifetime,
    UnknownEntity,
    UnsampledTime,
)

# a property value: a categorical symbol or an exact numeric
Value = str | Fraction

CATEGORICAL = "categorical"
NUMERIC = "numeric"

ISOLATED = "isolated"
NON_ISOLATED = "nonisolated"
GLOBAL = "global"


@dataclass(frozen=True)
class ValueDomain:
    """The values a property takes: the symbols listed, or any rational."""

    kind: str  # CATEGORICAL or NUMERIC
    symbols: frozenset[str] = frozenset()

    def admits(self, value: Value) -> bool:
        if self.kind == NUMERIC:
            return isinstance(value, Fraction)
        return isinstance(value, str) and value in self.symbols


@dataclass(frozen=True)
class Support:
    """Temporal support of a property: determinable at a boundary, over a
    window, or only over the whole extent."""

    kind: str  # ISOLATED, NON_ISOLATED or GLOBAL
    window_radius: Fraction | None = None  # > 0, NON_ISOLATED only


@dataclass(frozen=True)
class PropertyDef:
    """A declared property: its name, value domain and temporal support."""

    name: str
    domain: ValueDomain
    support: Support = Support(ISOLATED)


@dataclass(frozen=True)
class Presential:
    """An individual wholly present at a single time boundary.

    Presentials cannot change; their valuation may contain isolated-support
    properties only.
    """

    id: str
    at: TimeBoundary
    valuation: dict = field(default_factory=dict, hash=False)  # property name -> Value
    material: bool = True


@dataclass(frozen=True)
class Process:
    """A temporally extended individual, never wholly present at a point.

    ``boundary_map`` holds the finitely sampled process boundaries
    (coordinate -> presential id); extent endpoints are always sampled.
    A process is not the sum of its boundaries: two distinct processes may
    carry identical boundary maps.
    """

    id: str
    extent: Chronoid
    boundary_map: dict = field(default_factory=dict, hash=False)  # Fraction -> presential id
    # property name -> ((coordinate, value), ...) sorted by coordinate
    trajectories: dict = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class Continuant:
    """An individual persisting through a lifetime, exhibiting one
    presential per declared sample point."""

    id: str
    lifetime: Chronoid
    exhibit_map: dict = field(default_factory=dict, hash=False)  # Fraction -> presential id
    material: bool = True


@dataclass(frozen=True)
class Fact:
    """A relator with arguments; a constituent of situations, itself neither
    true nor false.

    Arguments are entity ids, except in a property fact (relator equal to a
    declared property name) whose final argument is a literal value.
    """

    id: str
    relator: str
    args: tuple


@dataclass(frozen=True)
class Situation:
    """A coherent part of reality: presentic (at a boundary) or a situoid
    (over a chronoid), optionally founded on a process."""

    id: str
    extent: Chronoid | TimeBoundary
    constituents: frozenset = frozenset()  # fact ids
    participants: frozenset = frozenset()  # entity ids
    founded_on: str | None = None

    @property
    def presentic(self) -> bool:
        return isinstance(self.extent, TimeBoundary)


class Kind(Enum):
    CONTINUANT = "continuant"
    PRESENTIAL = "presential"
    PROCESS = "process"
    SITUATION = "situation"
    FACT = "fact"


@dataclass(frozen=True)
class Model:
    """The full declared world: time, individuals, situations, properties,
    functions and primitive execution assertions."""

    chronoids: dict = field(default_factory=dict, hash=False)
    presentials: dict = field(default_factory=dict, hash=False)
    processes: dict = field(default_factory=dict, hash=False)
    continuants: dict = field(default_factory=dict, hash=False)
    situations: dict = field(default_factory=dict, hash=False)
    facts: dict = field(default_factory=dict, hash=False)
    property_defs: dict = field(default_factory=dict, hash=False)
    functions: dict = field(default_factory=dict, hash=False)  # id -> FunctionSpec
    exe_assertions: frozenset = frozenset()  # (executor id, process id)
    requirement_instances: dict = field(default_factory=dict, hash=False)  # fn -> frozenset
    goal_instances: dict = field(default_factory=dict, hash=False)  # fn -> frozenset

    # -- lookups ------------------------------------------------------------

    def _kind_stores(self):
        return (
            (Kind.CONTINUANT, self.continuants),
            (Kind.PRESENTIAL, self.presentials),
            (Kind.PROCESS, self.processes),
            (Kind.SITUATION, self.situations),
            (Kind.FACT, self.facts),
        )

    def kinds_of(self, entity_id: str) -> list[Kind]:
        return [kind for kind, store in self._kind_stores() if entity_id in store]

    def has_entity(self, entity_id: str) -> bool:
        return any(entity_id in store for _, store in self._kind_stores())

    def has_id(self, name: str) -> bool:
        return self.has_entity(name) or name in self.chronoids

    def entity_count(self) -> int:
        return sum(len(store) for _, store in self._kind_stores())

    def sample_count(self) -> int:
        return sum(len(p.boundary_map) for p in self.processes.values()) + sum(
            len(c.exhibit_map) for c in self.continuants.values()
        )

    @cached_property
    def _indexes(self) -> dict:
        # not a field, so outside == and hash, and replace() copies start empty
        return {}

    def index(self, build, *args):
        """``build(self, *args)``: a lookup derived from this store, built on
        the first call with these arguments and kept with the model."""
        key = (build, *args)
        lookup = self._indexes.get(key)
        if lookup is None:
            lookup = self._indexes[key] = build(self, *args)
        return lookup

    def adopt_index(self, lookup, build, *args) -> None:
        """Keep ``lookup`` as this store's ``index(build, *args)`` unless that
        is built already: for a copy whose maker derives the lookup from the
        original's more cheaply than ``build`` would.  The maker vouches that
        it equals ``build(self, *args)``."""
        self._indexes.setdefault((build, *args), lookup)

    # -- persistence-free updates (copies; the store itself never mutates) --

    def with_process(self, *processes: Process) -> "Model":
        """A copy of the store with ``processes`` added, each replacing any
        process of its id, and each extent chronoid whose id is not yet
        declared.  One copy however many processes are added."""
        chronoids = dict(self.chronoids)
        for p in processes:
            chronoids.setdefault(p.extent.id, p.extent)
        added = {p.id: p for p in processes}
        return replace(self, chronoids=chronoids, processes={**self.processes, **added})

    def with_continuant(self, c: Continuant) -> "Model":
        chronoids = dict(self.chronoids)
        chronoids.setdefault(c.lifetime.id, c.lifetime)
        return replace(
            self, chronoids=chronoids, continuants={**self.continuants, c.id: c}
        )

    def with_presential(self, p: Presential) -> "Model":
        return replace(self, presentials={**self.presentials, p.id: p})


def classify(entity_id: str, m: Model) -> Kind:
    """Classify an id into exactly one of the five individual kinds.

    On a store where an id was (programmatically) declared under several
    kinds the first kind in the fixed order continuant, presential, process,
    situation, fact wins; the disjointness check reports the conflict.
    """
    for kind, store in m._kind_stores():
        if entity_id in store:
            return kind
    raise UnknownEntity(entity_id)


def process_of(m: Model, pid: str, why: str) -> Process:
    """The process ``pid`` names, for every function that takes a process id.
    Raises TypeError for another individual, ending its message with ``why``,
    and UnknownEntity for an undeclared id."""
    p = m.processes.get(pid)
    if p is None:
        if m.has_entity(pid):
            raise TypeError(f"{pid!r} is not a process; {why}")
        raise UnknownEntity(f"process {pid!r} is not declared")
    return p


def _declared_presential(m, owner, span, extent, sample, samples, t, outside):
    """The presential a sample map holds at the declared sample ``t``: the
    checked lookup behind :func:`snapshot` and :func:`process_boundary`.
    ``owner``, ``span`` and ``sample`` name the entity, its extent and its
    samples in the error raised; ``outside`` is raised for ``t`` outside."""
    t = coord(t)
    if not extent.contains(t):
        raise outside(f"{coord_str(t)} outside {span} of {owner}")
    pres_id = samples.get(t)
    if pres_id is None:
        raise UnsampledTime(f"{owner} has no declared {sample} at {coord_str(t)}")
    try:
        return m.presentials[pres_id]
    except KeyError:
        # guard for hand-built stores only (docs/semantics.md, store invariants)
        raise UnknownEntity(pres_id) from None


def process_boundary(p: Process, t: int | str | Fraction, m: Model) -> Presential:
    """The presential obtained by restricting ``p`` to the declared sample ``t``."""
    return _declared_presential(
        m, f"process {p.id!r}", "extent", p.extent, "boundary", p.boundary_map, t,
        OutOfExtent,
    )


def snapshot(c: Continuant, t: int | str | Fraction, m: Model) -> Presential:
    """The presential exhibited by ``c`` at the declared sample ``t``."""
    return _declared_presential(
        m, f"continuant {c.id!r}", "lifetime", c.lifetime, "snapshot", c.exhibit_map, t,
        OutOfLifetime,
    )


def process_temporal_part(
    p: Process, l: int | str | Fraction, r: int | str | Fraction
) -> Process:
    """Restrict a process to [l, r]; boundary map and trajectories are cut
    down to the window, yielding a fresh process individual."""
    l, r = coord(l), coord(r)
    if l >= r or l < p.extent.left or r > p.extent.right:
        raise NotASubinterval(
            f"[{coord_str(l)}, {coord_str(r)}] is not a proper time window inside "
            f"[{coord_str(p.extent.left)}, {coord_str(p.extent.right)}]"
        )
    for bound in (l, r):
        if bound not in p.boundary_map:
            raise UnsampledTime(
                f"process {p.id!r} has no declared boundary at {coord_str(bound)}"
            )
    part_extent = temporal_part_chronoid(p.extent, l, r)
    boundary_map = {t: v for t, v in p.boundary_map.items() if l <= t <= r}
    trajectories = {}
    for prop, samples in p.trajectories.items():
        kept = tuple((t, v) for t, v in samples if l <= t <= r)
        if kept:
            trajectories[prop] = kept
    return Process(
        id=part_extent.id.replace(f"{p.extent.id}-part", f"{p.id}-part", 1),
        extent=part_extent,
        boundary_map=boundary_map,
        trajectories=trajectories,
    )


def sample_map(m: Model, entity_id: str) -> dict:
    """Coordinate -> presential id for any individual: the exhibit map of a
    continuant, the boundary map of a process, the one location of a
    presential; empty for situations and facts.  Raises UnknownEntity for
    ids that are not individuals at all."""
    pres = m.presentials.get(entity_id)
    if pres is not None:
        return {pres.at.coordinate: entity_id}
    owner = m.continuants.get(entity_id)
    if owner is not None:
        return owner.exhibit_map
    owner = m.processes.get(entity_id)
    if owner is not None:
        return owner.boundary_map
    if m.has_entity(entity_id):
        return {}
    raise UnknownEntity(entity_id)


def sample_valuation(m: Model, samples: dict, t: Fraction) -> dict | None:
    """The valuation of the presential a sample map holds at ``t``; None
    when ``t`` is unsampled or the mapped presential is not declared (stores
    built in code only: see "Where store invariants are enforced" in
    docs/semantics.md)."""
    pres = m.presentials.get(samples.get(t))
    return pres.valuation if pres else None


def valuation_at(m: Model, entity_id: str, t: Fraction) -> dict | None:
    """The isolated-property valuation the entity presents at ``t``.

    Resolves continuants through their snapshot, processes through their
    boundary, presentials through themselves (when located at ``t``).
    Returns None when the entity carries no declared sample at ``t``;
    raises UnknownEntity for ids that are not individuals at all.
    """
    return sample_valuation(m, sample_map(m, entity_id), t)
