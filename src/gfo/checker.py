"""Axiom suite over a loaded model.

Four checks are implemented: pairwise disjointness of the individual
kinds, object-process integration (every material continuant is backed by
a process whose boundaries are the continuant's exhibited presentials,
with lifetime equal to the process extent), presential dependence (every
material presential is a process boundary), and change detection for
continuants and process trajectories.

Every check is a pure function of the immutable model and returns
violations as data.  Violation lists are deterministic: canonical order is
(axiom, subjects, time).  Integration can also be completed
constructively: :func:`derive_process` mints the process the axiom
asserts, and adding it to the model makes the check pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

from .chrono import coord, coord_str
from .errors import MalformedContinuant, UnknownProperty
from .model import CATEGORICAL, Continuant, Model, Process, sample_valuation

DISJOINTNESS = "disjointness"
INTEGRATION = "integration"
INTEGRATION_NO_PROCESS = "integration-no-process"
PRESENTIAL_DEPENDENCE = "presential-dependence"

REGISTERED_AXIOMS = frozenset(
    {DISJOINTNESS, INTEGRATION, INTEGRATION_NO_PROCESS, PRESENTIAL_DEPENDENCE}
)

IDENTITY = "identity"
VALUATION = "valuation"


@dataclass(frozen=True)
class Violation:
    axiom: str
    subjects: tuple
    message: str
    severity: str = "error"
    at: Fraction | None = None

    def __post_init__(self) -> None:
        if self.axiom not in REGISTERED_AXIOMS:
            raise ValueError(f"unregistered axiom name: {self.axiom!r}")
        if not self.subjects:
            raise ValueError("a violation needs at least one subject")

    def sort_key(self):
        # None sorts before any coordinate; message breaks the last ties
        has_at = self.at is not None
        return (
            self.axiom,
            self.subjects,
            has_at,
            self.at if has_at else Fraction(0),
            self.message,
        )

    def to_json(self) -> dict:
        out = {
            "axiom": self.axiom,
            "subjects": list(self.subjects),
            "message": self.message,
            "severity": self.severity,
        }
        if self.at is not None:
            out["at"] = coord_str(self.at)
        return out


@dataclass(frozen=True)
class IntegrationWitness:
    """A process certifying the integration axiom for one continuant.

    ``matched_samples`` is the full shared sample grid of the exhibit map
    and the boundary map.
    """

    continuant: str
    process: str
    matched_samples: tuple


def sort_violations(violations) -> list[Violation]:
    return sorted(violations, key=Violation.sort_key)


# -- disjointness ------------------------------------------------------------


def check_disjointness(m: Model) -> list[Violation]:
    """One violation per id declared under more than one individual kind."""
    # guard for hand-built stores only (docs/semantics.md, store invariants)
    out = []
    seen = set()
    for _, store in m._kind_stores():
        for entity_id in store:
            if entity_id in seen:
                continue
            seen.add(entity_id)
            kinds = m.kinds_of(entity_id)
            if len(kinds) > 1:
                names = " and ".join(k.value for k in kinds)
                out.append(
                    Violation(
                        axiom=DISJOINTNESS,
                        subjects=(entity_id,),
                        message=f"{entity_id!r} is declared as {names}",
                    )
                )
    return sort_violations(out)


# -- object-process integration ----------------------------------------------


def _presentials_match(m: Model, exhibited: str, bounded: str, mode: str) -> bool:
    if mode == IDENTITY:
        return exhibited == bounded
    a = m.presentials.get(exhibited)
    b = m.presentials.get(bounded)
    if a is None or b is None:
        # guard for hand-built stores only (docs/semantics.md, store invariants)
        return False
    return a.at.coordinate == b.at.coordinate and a.valuation == b.valuation


def _integration_mismatches(
    m: Model, c: Continuant, p: Process, mode: str
) -> list[Violation]:
    out = []
    subjects = (c.id, p.id)
    if not c.lifetime.same_extent(p.extent):
        out.append(
            Violation(
                axiom=INTEGRATION,
                subjects=subjects,
                message=(
                    f"lifetime [{coord_str(c.lifetime.left)}, {coord_str(c.lifetime.right)}] "
                    f"differs from extent [{coord_str(p.extent.left)}, {coord_str(p.extent.right)}]"
                ),
            )
        )
    exhibit_keys = set(c.exhibit_map)
    boundary_keys = set(p.boundary_map)
    for missing, times in (
        ("process boundary", exhibit_keys - boundary_keys),
        ("exhibited presential", boundary_keys - exhibit_keys),
    ):
        for t in sorted(times):
            out.append(
                Violation(
                    axiom=INTEGRATION,
                    subjects=subjects,
                    at=t,
                    message=f"no {missing} at {coord_str(t)}",
                )
            )
    for t in sorted(exhibit_keys & boundary_keys):
        if not _presentials_match(m, c.exhibit_map[t], p.boundary_map[t], mode):
            out.append(
                Violation(
                    axiom=INTEGRATION,
                    subjects=subjects,
                    at=t,
                    message=(
                        f"exhibited presential {c.exhibit_map[t]!r} and process boundary "
                        f"{p.boundary_map[t]!r} differ at {coord_str(t)}"
                    ),
                )
            )
    return out


def _integration_key(m: Model, extent, samples: dict, mode: str):
    """What an integrating process must share with a continuant: the extent
    endpoints and the samples, as presential ids or, in valuation mode, as
    (t, coordinate, valuation) triples.  None when valuation mode meets an
    undeclared presential, which matches nothing (see _presentials_match)."""
    if mode == IDENTITY:
        return extent.left, extent.right, frozenset(samples.items())
    triples = []
    for t, pres_id in samples.items():
        pres = m.presentials.get(pres_id)
        if pres is None:  # hand-built stores only (docs/semantics.md, store invariants)
            return None
        triples.append((t, pres.at.coordinate, frozenset(pres.valuation.items())))
    return extent.left, extent.right, frozenset(triples)


def _integration_index(m: Model, mode: str) -> dict:
    """Integration key -> smallest id of a process with that key; read
    through ``m.index``, which builds it once per model and mode."""
    index = {}
    for pid, p in sorted(m.processes.items()):
        key = _integration_key(m, p.extent, p.boundary_map, mode)
        if key is not None:
            index.setdefault(key, pid)
    return index


def _mismatch_count(m: Model, c: Continuant, p: Process, mode: str) -> int:
    """len(_integration_mismatches(m, c, p, mode)), without building them."""
    e, b = c.exhibit_map, p.boundary_map
    shared = e.keys() & b.keys()
    count = (not c.lifetime.same_extent(p.extent)) + len(e) + len(b) - 2 * len(shared)
    return count + sum(not _presentials_match(m, e[t], b[t], mode) for t in shared)


def check_integration(m: Model, c: Continuant, mode: str = IDENTITY):
    """Verify the integration axiom for one material continuant.

    Returns an :class:`IntegrationWitness` naming the smallest process id
    whose extent equals the lifetime and which has the identical sample grid
    and the same presential at every sample (entity identity by default;
    equal valuation under ``mode='valuation'``).  Otherwise returns the
    violation list of the closest candidate, or a single no-process
    violation when the model declares no process at all.
    """
    if not m.processes:
        return [
            Violation(
                axiom=INTEGRATION_NO_PROCESS,
                subjects=(c.id,),
                message=f"no declared process integrates continuant {c.id!r}",
            )
        ]
    key = _integration_key(m, c.lifetime, c.exhibit_map, mode)
    pid = m.index(_integration_index, mode).get(key)
    if pid is not None:
        return IntegrationWitness(c.id, pid, tuple(sorted(c.exhibit_map)))
    closest = min(
        m.processes.values(), key=lambda p: (_mismatch_count(m, c, p, mode), p.id)
    )
    return sort_violations(_integration_mismatches(m, c, closest, mode))


def derive_process(m: Model, c: Continuant) -> Process:
    """Mint the process the integration axiom asserts for ``c``.

    The derived process shares the continuant's lifetime chronoid and its
    exhibited presentials.  Its id is uniquified against the model, so
    deriving, adding, and deriving again yields two distinct process
    individuals with equal boundary maps.
    """
    keys = set(c.exhibit_map)
    # guard for hand-built stores only (docs/semantics.md, store invariants)
    if not keys or c.lifetime.left not in keys or c.lifetime.right not in keys:
        raise MalformedContinuant(
            f"continuant {c.id!r} lacks snapshots at its lifetime endpoints"
        )
    base = f"{c.id}-proc"
    pid, n = base, 2
    while m.has_id(pid):
        pid = f"{base}-{n}"
        n += 1
    return Process(id=pid, extent=c.lifetime, boundary_map=dict(c.exhibit_map))


def complete_integration(m: Model, mode: str = IDENTITY):
    """Derive a process for every material continuant that lacks one.

    Returns (augmented model, ids of derived processes).
    """
    index = dict(m.index(_integration_index, mode))
    derived = []
    for cid in sorted(m.continuants):
        c = m.continuants[cid]
        if not c.material:
            continue
        key = _integration_key(m, c.lifetime, c.exhibit_map, mode)
        if key in index:
            continue
        p = derive_process(m, c)
        m = m.with_process(p)
        derived.append(p.id)
        if key is not None:
            # a later continuant with the same key is witnessed by ``p``
            index[key] = p.id
    return m, derived


# -- presential dependence ----------------------------------------------------


def check_presential_dependence(m: Model) -> list[Violation]:
    """One violation per material presential no process declares as a boundary."""
    referenced = {
        pres_id for p in m.processes.values() for pres_id in p.boundary_map.values()
    }
    out = []
    for pres_id in sorted(m.presentials):
        pres = m.presentials[pres_id]
        if pres.material and pres_id not in referenced:
            out.append(
                Violation(
                    axiom=PRESENTIAL_DEPENDENCE,
                    subjects=(pres_id,),
                    at=pres.at.coordinate,
                    message=f"material presential {pres_id!r} is not a boundary of any process",
                )
            )
    return sort_violations(out)


# -- change detection ----------------------------------------------------------


def detect_continuant_changes(m: Model, c: Continuant) -> list[tuple]:
    """Diff consecutive snapshots of a continuant.

    Returns (t1, t2, property name, v1, v2) tuples for every isolated
    property whose value differs between neighbouring samples; a property
    present on one side only is reported against None.  An empty list means
    no change at the declared sample resolution — presentials themselves
    cannot change, so t1 < t2 always.
    """
    out = []
    keys = sorted(c.exhibit_map)
    for t1, t2 in pairwise(keys):
        v1 = sample_valuation(m, c.exhibit_map, t1) or {}
        v2 = sample_valuation(m, c.exhibit_map, t2) or {}
        for prop in sorted(set(v1) | set(v2)):
            a, b = v1.get(prop), v2.get(prop)
            if a != b:
                out.append((t1, t2, prop, a, b))
    return out


def detect_process_changes(
    m: Model,
    p: Process,
    prop_name: str,
    tol: int | str | Fraction = 0,
) -> list[Fraction]:
    """Midpoints of consecutive trajectory samples whose values differ.

    Categorical values differ on any inequality; numeric values on
    |v2 - v1| > tol.  Discontinuity is judged on the declared grid only, no
    interpolation.
    """
    tol = coord(tol)
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    pdef = m.property_defs.get(prop_name)
    if pdef is None:
        raise UnknownProperty(prop_name)
    samples = p.trajectories.get(prop_name)
    if samples is None:
        raise UnknownProperty(
            f"property {prop_name!r} has no trajectory on process {p.id!r}"
        )
    out = []
    for (t1, v1), (t2, v2) in pairwise(sorted(samples)):
        if pdef.domain.kind == CATEGORICAL:
            changed = v1 != v2
        else:
            changed = abs(v2 - v1) > tol
        if changed:
            out.append((t1 + t2) / 2)
    return out


__all__ = [
    "DISJOINTNESS",
    "INTEGRATION",
    "INTEGRATION_NO_PROCESS",
    "PRESENTIAL_DEPENDENCE",
    "REGISTERED_AXIOMS",
    "IDENTITY",
    "VALUATION",
    "Violation",
    "IntegrationWitness",
    "sort_violations",
    "check_disjointness",
    "check_integration",
    "derive_process",
    "complete_integration",
    "check_presential_dependence",
    "detect_continuant_changes",
    "detect_process_changes",
]
