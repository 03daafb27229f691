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

from fractions import Fraction
from itertools import combinations, pairwise
from operator import itemgetter

from .chrono import Time, coord, coord_str
from .errors import MalformedContinuant, UnknownProperty
from .model import CATEGORICAL, Continuant, Model, Process, Record

DISJOINTNESS = "disjointness"
INTEGRATION = "integration"
INTEGRATION_NO_PROCESS = "integration-no-process"
PRESENTIAL_DEPENDENCE = "presential-dependence"

REGISTERED_AXIOMS = frozenset(
    {DISJOINTNESS, INTEGRATION, INTEGRATION_NO_PROCESS, PRESENTIAL_DEPENDENCE}
)

IDENTITY = "identity"
VALUATION = "valuation"


class Violation(Record):
    """One axiom broken by the subjects, at a coordinate when it has one."""

    axiom: str
    subjects: tuple
    message: str
    at: Fraction | None = None

    def __new__(cls, axiom, subjects, message, at=None):  # refused before a field is set
        if axiom not in REGISTERED_AXIOMS:
            raise ValueError(f"unregistered axiom name: {axiom!r}")
        if not subjects:
            raise ValueError("a violation needs at least one subject")
        return object.__new__(cls)

    def sort_key(self):
        # None sorts before any coordinate; message breaks the last ties
        return self.axiom, self.subjects, self.at is not None, self.at or 0, self.message

    def to_json(self) -> dict:
        out = {**Record.to_json(self), "subjects": list(self.subjects), "severity": "error"}
        if out.pop("at") is not None:  # a violation with no coordinate has no "at"
            out["at"] = coord_str(self.at)
        return out


class IntegrationWitness(Record):
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
    stores = [store for _, store in m._kind_stores()]
    shared = set().union(*(a.keys() & b.keys() for a, b in combinations(stores, 2)))
    out = []
    for entity_id in shared:
        names = " and ".join(k.value for k in m.kinds_of(entity_id))
        out.append(Violation(DISJOINTNESS, (entity_id,), f"{entity_id!r} is declared as {names}"))
    return sort_violations(out)


# -- object-process integration ----------------------------------------------


def _presential_tokens(m: Model) -> dict:
    """Presential id -> its valuation-mode token (coordinate, valuation
    items); read through ``m.index``, so each token is built once per model."""
    return {
        pid: (pres.at.coordinate, frozenset(pres.valuation.items()))
        for pid, pres in m.presentials.items()
    }


def _sample_tokens(m: Model, mode: str):
    """What "the same presential" compares at each sample, as a function of
    a sample map (read at each of ``times`` when given): the presential id
    in identity mode, so the map itself, and its (coordinate, valuation) in
    valuation mode.  The one place that reads the integration mode; a
    caller converting many maps reads the token table once."""
    if mode == IDENTITY:
        return lambda samples, times=None: samples
    table = m.index(_presential_tokens)

    def tokens(samples: dict, times=None) -> dict:
        out = {}
        for t in samples if times is None else times:
            # guard for hand-built stores only (docs/semantics.md, store invariants):
            # an undeclared presential gets a fresh object, which equals nothing
            out[t] = table.get(samples[t]) or object()
        return out

    return tokens


def _integration_mismatches(m: Model, c: Continuant, p: Process, mode: str) -> list[Violation]:
    """One violation per mismatch: a differing extent, a sample on one side
    only, a shared sample whose tokens differ."""
    found = []
    if not c.lifetime.same_extent(p.extent):
        found.append((
            None,
            f"lifetime [{coord_str(c.lifetime.left)}, {coord_str(c.lifetime.right)}] "
            f"differs from extent [{coord_str(p.extent.left)}, {coord_str(p.extent.right)}]",
        ))
    tokens_of = _sample_tokens(m, mode)
    exhibited, bounded = tokens_of(c.exhibit_map), tokens_of(p.boundary_map)
    for t in exhibited.keys() | bounded.keys():
        if t not in bounded:
            found.append((t, f"no process boundary at {coord_str(t)}"))
        elif t not in exhibited:
            found.append((t, f"no exhibited presential at {coord_str(t)}"))
        elif exhibited[t] != bounded[t]:
            found.append((t, (
                f"exhibited presential {c.exhibit_map[t]!r} and process boundary "
                f"{p.boundary_map[t]!r} differ at {coord_str(t)}"
            )))
    return [Violation(INTEGRATION, (c.id, p.id), message, at=t) for t, message in found]


def _integration_key(extent, tokens: dict):
    """What an integrating process must share with a continuant: the extent
    endpoints and the sample tokens."""
    return extent.left, extent.right, frozenset(tokens.items())


def _integration_index(m: Model, mode: str) -> dict:
    """Integration key -> smallest id of a process with that key; read
    through ``m.index``, which builds it once per model and mode."""
    index, tokens_of = {}, _sample_tokens(m, mode)
    for pid, p in sorted(m.processes.items()):
        index.setdefault(_integration_key(p.extent, tokens_of(p.boundary_map)), pid)
    return index


def _sample_lookup(m: Model, mode: str) -> dict:
    """(coordinate, sample token) -> the processes with that boundary
    sample; read through ``m.index``, built on the first miss."""
    lookup, tokens_of = {}, _sample_tokens(m, mode)
    for p in m.processes.values():
        for item in tokens_of(p.boundary_map).items():
            lookup.setdefault(item, []).append(p)
    return lookup


def _mismatch_count(tokens_of, c: Continuant, exhibited: dict, p: Process) -> int:
    """len(_integration_mismatches(m, c, p, mode)) from the continuant's
    tokens and ``tokens_of = _sample_tokens(m, mode)``, without building
    them: [extent differs] + |E| + |B| - |shared times| - |shared (time,
    token) pairs|.  Only shared samples can match, so only they need a
    token."""
    b = p.boundary_map
    shared = exhibited.keys() & b.keys()
    bounded = tokens_of(b, shared)
    return (
        (not c.lifetime.same_extent(p.extent)) + len(exhibited) + len(b) - len(shared)
        - len(exhibited.items() & bounded.items())
    )


def _closest(m: Model, c: Continuant, exhibited: dict, processes, mode: str) -> tuple:
    """(fewest mismatches, smallest id of a process with that many) among
    ``processes``; the token table is read once for all of them."""
    tokens_of = _sample_tokens(m, mode)
    return min((_mismatch_count(tokens_of, c, exhibited, p), p.id) for p in processes)


def check_integration(m: Model, c: Continuant, mode: str = IDENTITY):
    """Verify the integration axiom for one material continuant.

    Returns an :class:`IntegrationWitness` naming the smallest process id
    whose extent equals the lifetime and which has the identical sample grid
    and the same presential at every sample (entity identity by default;
    equal valuation under ``mode='valuation'``).  Otherwise returns the
    violation list of the closest candidate, or a single no-process
    violation when the model declares no process at all.

    The closest candidate is searched among the processes that share a
    (time, token) pair with the continuant first.  A process sharing none
    has at least |E| mismatches (E the continuant's exhibit map), so their
    best is final when it is below |E|; otherwise every process is scored.
    """
    if not m.processes:
        message = f"no declared process integrates continuant {c.id!r}"
        return [Violation(INTEGRATION_NO_PROCESS, (c.id,), message)]
    exhibited = _sample_tokens(m, mode)(c.exhibit_map)
    pid = m.index(_integration_index, mode).get(_integration_key(c.lifetime, exhibited))
    if pid is not None:
        return IntegrationWitness(c.id, pid, tuple(sorted(c.exhibit_map)))
    lookup = m.index(_sample_lookup, mode)
    near = {p.id: p for item in exhibited.items() for p in lookup.get(item, ())}
    score, pid = _closest(m, c, exhibited, near.values(), mode) if near else (len(exhibited), None)
    if score >= len(exhibited):  # the worst case: a process sharing nothing may tie
        score, pid = _closest(m, c, exhibited, m.processes.values(), mode)
    return sort_violations(_integration_mismatches(m, c, m.processes[pid], mode))


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
        raise MalformedContinuant(f"continuant {c.id!r} lacks snapshots at its lifetime endpoints")
    base = f"{c.id}-proc"
    pid, n = base, 2
    while m.has_id(pid):
        pid = f"{base}-{n}"
        n += 1
    return Process(id=pid, extent=c.lifetime, boundary_map=dict(c.exhibit_map))


def complete_integration(m: Model, mode: str = IDENTITY):
    """Derive a process for every material continuant that lacks one.

    Returns (augmented model, ids of derived processes).  Every process is
    derived against ``m`` and the lot is added in one copy; their ids cannot
    collide, since stripping ``-proc`` or ``-proc-<n>`` gives back the
    continuant id.  The copy adopts ``m``'s integration index, extended by
    the derived keys, and its presential tokens, so checking it rebuilds
    neither.
    """
    index, tokens_of = dict(m.index(_integration_index, mode)), _sample_tokens(m, mode)
    derived = []
    for cid in sorted(m.continuants):
        c = m.continuants[cid]
        if not c.material:
            continue
        key = _integration_key(c.lifetime, tokens_of(c.exhibit_map))
        if key not in index:
            # a later continuant with the same key is witnessed by this process
            derived.append(derive_process(m, c))
            index[key] = derived[-1].id
    if not derived:
        return m, []
    completed = m.with_process(*derived)
    completed.adopt_index(index, _integration_index, mode)
    if mode == VALUATION:  # the presentials are m's own
        completed.adopt_index(m.index(_presential_tokens), _presential_tokens)
    return completed, [p.id for p in derived]


# -- presential dependence ----------------------------------------------------


def check_presential_dependence(m: Model) -> list[Violation]:
    """One violation per material presential no process declares as a boundary."""
    referenced = {pres_id for p in m.processes.values() for pres_id in p.boundary_map.values()}
    out = []
    for pres_id, pres in m.presentials.items():
        if pres.material and pres_id not in referenced:
            message = f"material presential {pres_id!r} is not a boundary of any process"
            out.append(Violation(PRESENTIAL_DEPENDENCE, (pres_id,), message, pres.at.coordinate))
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
    out, presentials = [], m.presentials
    t1 = v1 = None  # the previous sample and its valuation
    for t2, pid in sorted(c.exhibit_map.items(), key=itemgetter(0)):
        pres = presentials.get(pid)  # None in a store built in code only, as sample_valuation
        v2 = pres.valuation if pres else {}
        if v1 is not None and v1 != v2:
            for prop in sorted(v1.keys() | v2.keys()):
                a, b = v1.get(prop), v2.get(prop)
                if a != b:
                    out.append((t1, t2, prop, a, b))
        t1, v1 = t2, v2
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
    if type(tol) is not Time:  # the command line passes a Time already
        tol = coord(tol)
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    pdef = m.property_defs.get(prop_name)
    if pdef is None:
        raise UnknownProperty(prop_name)
    samples = p.trajectories.get(prop_name)
    if samples is None:
        raise UnknownProperty(f"property {prop_name!r} has no trajectory on process {p.id!r}")
    ordered = sorted(samples, key=itemgetter(0))  # guard for hand-built stores only
    if pdef.domain.kind == CATEGORICAL:
        changed = [(t1, t2) for (t1, v1), (t2, v2) in pairwise(ordered) if v1 != v2]
    else:  # |v2 - v1| > tol on integer parts: |c*b - a*d| * f > e*b*d for a/b, c/d, e/f
        e, f = tol.numerator, tol.denominator
        steps = pairwise([(t, v.numerator, v.denominator) for t, v in ordered])
        changed = [(t1, t2) for (t1, a, b), (t2, c, d) in steps if abs(c*b - a*d) * f > e * b * d]
    # each midpoint is one Fraction built from the coordinates' integer parts
    return [
        Fraction(t1.numerator * t2.denominator + t2.numerator * t1.denominator,
                 2 * t1.denominator * t2.denominator)
        for t1, t2 in changed
    ]
