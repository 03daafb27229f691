"""Random and exhaustive model builders shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

from gfo.chrono import Chronoid, inner_boundary, left_boundary, right_boundary
from gfo.functions import (
    CONCEPTUAL,
    FUNCTION_KINDS,
    INDIVIDUAL,
    WILDCARD,
    FactPattern,
    FunctionSpec,
    PropertyConstraint,
    SituationConcept,
)
from gfo.model import (
    CATEGORICAL,
    GLOBAL,
    ISOLATED,
    NON_ISOLATED,
    NUMERIC,
    Continuant,
    Fact,
    Model,
    Presential,
    Process,
    PropertyDef,
    Situation,
    Support,
    ValueDomain,
)


# ---------------------------------------------------------------------------
# Random continuants for the integration round-trip
# ---------------------------------------------------------------------------


def random_integration_model(rng: random.Random, index: int):
    """One material continuant with 2-10 samples and 1-4 isolated properties."""
    left = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
    width = Fraction(rng.randint(1, 24), rng.randint(1, 6))
    ch = Chronoid(f"life{index}", left, left + width)
    target = rng.randint(2, 10)
    grid = {ch.left, ch.right}
    guard = 0
    while len(grid) < target and guard < 200:
        guard += 1
        grid.add(ch.left + width * Fraction(rng.randint(1, 63), 64))
    props = {}
    for i in range(rng.randint(1, 4)):
        name = f"q{i}"
        props[name] = PropertyDef(
            name, ValueDomain(CATEGORICAL, frozenset({"hi", "lo", "mid"}))
        )
    presentials = {}
    exhibit_map = {}
    for t in sorted(grid):
        pid = f"snap{len(presentials)}"
        valuation = {name: rng.choice(("hi", "lo", "mid")) for name in sorted(props)}
        presentials[pid] = Presential(pid, inner_boundary(ch, t), valuation)
        exhibit_map[t] = pid
    cont = Continuant(f"cont{index}", ch, exhibit_map)
    m = Model(
        chronoids={ch.id: ch},
        presentials=presentials,
        continuants={cont.id: cont},
        property_defs=props,
    )
    return m, cont


def mutate_one_snapshot(m: Model, c: Continuant, rng: random.Random):
    """Point one exhibited sample at a fresh presential; returns the new
    model, continuant and the mutated coordinate."""
    t = rng.choice(sorted(c.exhibit_map))
    ch = c.lifetime
    fresh = Presential(f"{c.id}-mut", inner_boundary(ch, t), {})
    mutated = replace(c, exhibit_map={**c.exhibit_map, t: fresh.id})
    return m.with_presential(fresh).with_continuant(mutated), mutated, t


def all_miss_model(rng: random.Random, n: int) -> Model:
    """n continuant/process pairs in which every process misses its
    continuant by one boundary: the process of ``c<i>`` has shuffled id
    ``q<j>`` and a stray presential ``z<i>`` in place of one exhibited
    presential.  Every presential has its own value of ``v``, so in both
    integration modes each continuant's closest candidate is its own
    process, with one mismatch at the swapped sample.  Pair i has 3 + i % 5
    samples, so at n a multiple of 5 the stores grow in proportion to n."""
    v = PropertyDef("v", ValueDomain(NUMERIC))
    values = iter(rng.sample(range(1, 20 * n * 9), n * 9))
    order = list(range(n))
    rng.shuffle(order)
    chronoids, presentials, processes, continuants = {}, {}, {}, {}
    for i in range(n):
        left = Fraction(rng.randint(0, 20))
        length = 2 + i % 5
        inner = rng.sample(range(1, 4 * length), 1 + i % 5)
        times = sorted({left, left + length, *(left + Fraction(q, 4) for q in inner)})
        ch = Chronoid(f"k{i:04d}", left, left + length)
        chronoids[ch.id] = ch
        emap = {}
        for j, t in enumerate(times):
            pres = Presential(f"x{i:04d}_{j}", inner_boundary(ch, t), {"v": Fraction(next(values))})
            presentials[pres.id] = pres
            emap[t] = pres.id
        t = rng.choice(times)
        stray = Presential(f"z{i:04d}", inner_boundary(ch, t), {"v": Fraction(next(values))})
        presentials[stray.id] = stray
        continuants[f"c{i:04d}"] = Continuant(f"c{i:04d}", ch, emap)
        pid = f"q{order[i]:04d}"
        processes[pid] = Process(pid, ch, {**emap, t: stray.id})
    return Model(
        chronoids=chronoids, presentials=presentials, processes=processes,
        continuants=continuants, property_defs={"v": v},
    )


# ---------------------------------------------------------------------------
# Exhaustive integration family (the oracle-equivalence bed)
#
# "Entities" are the individuals the oracle quantifies over: one continuant
# plus up to two processes.  They draw their samples from a fixed pool of
# eight presentials (four coordinates x two variants), so every combination
# of extent mismatch, grid mismatch and per-sample mismatch occurs.
# ---------------------------------------------------------------------------

_GRIDS = ((0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3))


def _integration_pool():
    base = Chronoid("base", Fraction(0), Fraction(3))
    short = Chronoid("short", Fraction(0), Fraction(2))
    hue = PropertyDef("hue", ValueDomain(CATEGORICAL, frozenset({"a", "b"})))
    pool = {}
    presentials = {}
    for t in (0, 1, 2, 3):
        for v in "ab":
            pid = f"q{t}{v}"
            presentials[pid] = Presential(
                pid, inner_boundary(base, Fraction(t)), {"hue": v}
            )
            pool[(t, v)] = pid
    return base, short, hue, pool, presentials


def _process_variants(base, short, pool):
    variants = []
    for grid in _GRIDS:
        for assign in product("ab", repeat=len(grid)):
            pid = "P3-" + "".join(map(str, grid)) + "-" + "".join(assign)
            bmap = {Fraction(t): pool[(t, v)] for t, v in zip(grid, assign)}
            variants.append(Process(pid, base, bmap))
    for assign in product("ab", repeat=2):
        pid = "P2-02-" + "".join(assign)
        bmap = {Fraction(t): pool[(t, v)] for t, v in zip((0, 2), assign)}
        variants.append(Process(pid, short, bmap))
    return variants


def enumerate_integration_models():
    """Yield (model, continuant) over the full bounded family."""
    base, short, hue, pool, presentials = _integration_pool()
    variants = _process_variants(base, short, pool)
    process_sets = [()]
    process_sets += [(v,) for v in variants]
    process_sets += list(combinations(variants, 2))
    for grid in _GRIDS:
        for assign in product("ab", repeat=len(grid)):
            exhibit_map = {Fraction(t): pool[(t, v)] for t, v in zip(grid, assign)}
            cont = Continuant("C", base, exhibit_map)
            for procs in process_sets:
                m = Model(
                    chronoids={"base": base, "short": short},
                    presentials=presentials,
                    processes={p.id: p for p in procs},
                    continuants={"C": cont},
                    property_defs={"hue": hue},
                )
                yield m, cont


# ---------------------------------------------------------------------------
# Exhaustive truth-maker family
#
# One process over [0, 3] founding up to two situations whose constituents
# range over three facts (a unary, a binary, and a property fact).
# ---------------------------------------------------------------------------


def _truthmaker_base():
    day = Chronoid("day", Fraction(0), Fraction(3))
    col = PropertyDef("col", ValueDomain(CATEGORICAL, frozenset({"x", "y"})))
    a = Presential("a", inner_boundary(day, Fraction(0)), {})
    b = Presential("b", inner_boundary(day, Fraction(3)), {})
    proc = Process(
        "P", day, {Fraction(0): "a", Fraction(3): "b"}
    )
    facts = {
        "f1": Fact("f1", "r", ("a",)),
        "f3": Fact("f3", "s", ("a", "b")),
        "f4": Fact("f4", "col", ("a", "x")),
    }
    return day, col, {"a": a, "b": b}, proc, facts


def _situation_variants(day):
    extents = [
        inner_boundary(day, Fraction(0)),
        inner_boundary(day, Fraction(3)),
        day,
    ]
    fact_ids = ("f1", "f3", "f4")
    subsets = []
    for mask in range(8):
        subsets.append(frozenset(f for i, f in enumerate(fact_ids) if mask >> i & 1))
    variants = []
    n = 0
    for extent in extents:
        for founded in ("P", None):
            for constituents in subsets:
                variants.append((f"s{n}", extent, founded, constituents))
                n += 1
    return variants


def enumerate_truthmaker_models():
    """Yield models with zero, one or two situations from the variant pool."""
    day, col, presentials, proc, facts = _truthmaker_base()
    variants = _situation_variants(day)
    chosen = [()]
    chosen += [(v,) for v in variants]
    chosen += list(combinations(variants, 2))
    for combo in chosen:
        situations = {
            sid: Situation(sid, extent, constituents, frozenset(), founded)
            for sid, extent, founded, constituents in combo
        }
        yield Model(
            chronoids={"day": day},
            presentials=dict(presentials),
            processes={"P": proc},
            situations=situations,
            facts=dict(facts),
            property_defs={"col": col},
        )


# ---------------------------------------------------------------------------
# Random full models for the parser round-trip
# ---------------------------------------------------------------------------

_SYMBOLS = ("amber", "cobalt", "jade")
_RELATORS = ("binds", "greets", "near")
_LABELS = ("to carry", "to hold", "to mix")


def random_full_model(rng: random.Random) -> Model:
    """A structurally valid model exercising every declaration form."""
    chronoids = {}
    presentials = {}
    processes = {}
    continuants = {}
    situations = {}
    facts = {}
    props = {}
    functions = {}
    exe = set()
    req_instances = {}
    goal_instances = {}

    def frac():
        return Fraction(rng.randint(-24, 24), rng.randint(1, 8))

    for i in range(rng.randint(1, 3)):
        name = f"prop{i}"
        if rng.random() < 0.5:
            domain = ValueDomain(
                CATEGORICAL,
                frozenset(rng.sample(_SYMBOLS, rng.randint(1, len(_SYMBOLS)))),
            )
        else:
            domain = ValueDomain(NUMERIC)
        support = rng.choice(
            (
                Support(ISOLATED),
                Support(NON_ISOLATED, Fraction(1, rng.randint(1, 4))),
                Support(GLOBAL),
            )
        )
        props[name] = PropertyDef(name, domain, support)
    isolated = [p for p in props.values() if p.support.kind == ISOLATED]
    extended = [p for p in props.values() if p.support.kind != ISOLATED]

    def rand_value(pdef: PropertyDef):
        if pdef.domain.kind == NUMERIC:
            return frac()
        return rng.choice(sorted(pdef.domain.symbols))

    pools = {}
    for i in range(rng.randint(1, 2)):
        left = frac()
        ch = Chronoid(f"ch{i}", left, left + Fraction(rng.randint(1, 16), rng.randint(1, 4)))
        chronoids[ch.id] = ch
        grid = {ch.left, ch.right}
        for _ in range(rng.randint(0, 3)):
            grid.add(ch.left + ch.duration * Fraction(rng.randint(1, 7), 8))
        pool = {}
        for t in sorted(grid):
            ids = []
            for _ in range(rng.randint(1, 2)):
                pid = f"m{len(presentials)}"
                valuation = {
                    p.name: rand_value(p) for p in isolated if rng.random() < 0.6
                }
                presentials[pid] = Presential(
                    pid, inner_boundary(ch, t), valuation, material=rng.random() < 0.9
                )
                ids.append(pid)
            pool[t] = ids
        pools[ch.id] = pool

    for chid in sorted(pools):
        ch = chronoids[chid]
        pool = pools[chid]
        for _ in range(rng.randint(0, 2)):
            pid = f"P{len(processes)}"
            bmap = {}
            for t in sorted(pool):
                if t in (ch.left, ch.right) or rng.random() < 0.7:
                    bmap[t] = rng.choice(pool[t])
            trajectories = {}
            for pdef in extended:
                if rng.random() < 0.5:
                    samples = tuple(
                        (t, rand_value(pdef))
                        for t in sorted(pool)
                        if rng.random() < 0.8
                    )
                    if samples:
                        trajectories[pdef.name] = samples
            processes[pid] = Process(pid, ch, bmap, trajectories)
        for _ in range(rng.randint(0, 2)):
            cid = f"C{len(continuants)}"
            emap = {}
            for t in sorted(pool):
                if t in (ch.left, ch.right) or rng.random() < 0.7:
                    emap[t] = rng.choice(pool[t])
            continuants[cid] = Continuant(cid, ch, emap, material=rng.random() < 0.9)

    entity_ids = sorted(presentials) + sorted(processes) + sorted(continuants)
    prop_list = sorted(props.values(), key=lambda p: p.name)

    for i in range(rng.randint(0, 3)):
        fid = f"f{i}"
        if prop_list and rng.random() < 0.4:
            pdef = rng.choice(prop_list)
            facts[fid] = Fact(
                fid, pdef.name, (rng.choice(entity_ids), rand_value(pdef))
            )
        else:
            arity = rng.randint(1, 3)
            facts[fid] = Fact(
                fid,
                rng.choice(_RELATORS),
                tuple(rng.choice(entity_ids) for _ in range(arity)),
            )

    fact_ids = sorted(facts)
    for i in range(rng.randint(1, 3) if facts else rng.randint(0, 2)):
        sid = f"s{i}"
        chid = rng.choice(sorted(pools))
        ch = chronoids[chid]
        if rng.random() < 0.5:
            extent = inner_boundary(ch, rng.choice(sorted(pools[chid])))
        else:
            extent = ch
        founded = None
        if processes and rng.random() < 0.6:
            founded = rng.choice(sorted(processes))
        constituents = frozenset(f for f in fact_ids if rng.random() < 0.6)
        participants = frozenset(
            rng.choice(entity_ids) for _ in range(rng.randint(0, 2))
        )
        situations[sid] = Situation(sid, extent, constituents, participants, founded)
    held = {f for s in situations.values() for f in s.constituents}
    uncovered = set(fact_ids) - held
    if uncovered:
        if situations:
            sid = sorted(situations)[0]
            s = situations[sid]
            situations[sid] = replace(
                s, constituents=s.constituents | frozenset(uncovered)
            )
        else:
            chid = sorted(chronoids)[0]
            situations["s_hold"] = Situation(
                "s_hold", chronoids[chid], frozenset(uncovered), frozenset(), None
            )

    for i in range(rng.randint(0, 2)):
        fnid = f"fn{i}"

        def concept(which: str) -> SituationConcept:
            patterns = set()
            constraints = set()
            if facts and rng.random() < 0.7:
                fact = facts[rng.choice(fact_ids)]
                args = tuple(
                    a if rng.random() < 0.7 else WILDCARD for a in fact.args
                )
                patterns.add(FactPattern(fact.relator, args))
            if prop_list and (not patterns or rng.random() < 0.5):
                pdef = rng.choice(prop_list)
                constraints.add(
                    PropertyConstraint(
                        rng.choice(entity_ids), pdef.name, rand_value(pdef)
                    )
                )
            if not patterns and not constraints:
                patterns.add(FactPattern(_RELATORS[0], (WILDCARD,)))
            return SituationConcept(
                frozenset(patterns), frozenset(constraints), name=f"{fnid}.{which}"
            )

        kind = rng.choice(FUNCTION_KINDS)
        bearer = None
        if kind == INDIVIDUAL:
            if entity_ids:
                bearer = rng.choice(entity_ids)
            else:
                kind = CONCEPTUAL
        fitem = [
            (p.name, rand_value(p)) for p in isolated if rng.random() < 0.3
        ]
        functions[fnid] = FunctionSpec(
            id=fnid,
            req=concept("req"),
            goal=concept("goal"),
            labels=frozenset(rng.sample(_LABELS, rng.randint(0, 2))),
            fitem=tuple(sorted(fitem, key=lambda c: (c[0], str(c[1])))),
            kind=kind,
            bearer=bearer,
        )

    for _ in range(rng.randint(0, 2)):
        if entity_ids and processes:
            exe.add((rng.choice(entity_ids), rng.choice(sorted(processes))))
    for fnid in sorted(functions):
        if situations and rng.random() < 0.5:
            req_instances[fnid] = frozenset(
                rng.sample(sorted(situations), rng.randint(1, min(2, len(situations))))
            )
        if situations and rng.random() < 0.3:
            goal_instances[fnid] = frozenset([rng.choice(sorted(situations))])

    return Model(
        chronoids=chronoids,
        presentials=presentials,
        processes=processes,
        continuants=continuants,
        situations=situations,
        facts=facts,
        property_defs=props,
        functions=functions,
        exe_assertions=frozenset(exe),
        requirement_instances=req_instances,
        goal_instances=goal_instances,
    )


# ---------------------------------------------------------------------------
# Crowded realization worlds
# ---------------------------------------------------------------------------


def random_realization_model(rng: random.Random) -> Model:
    """Processes on a shared integer grid, several presentic situations at
    each grid coordinate and a few situoids, all drawn from a four-fact
    pool and a four-entity focus, so that many situations qualify for one
    concept at one coordinate; up to 40 exe pairs.  Ids are drawn at random,
    so no store's insertion order is its id order."""
    day = Chronoid("day", Fraction(0), Fraction(6))
    chronoids = {"day": day}
    hue = PropertyDef("hue", ValueDomain(CATEGORICAL, frozenset({"red", "blue"})))
    names = iter(rng.sample(range(1000), 120))
    presentials = {}
    for t in range(7):
        for _ in range(2):
            pid = f"m{next(names)}"
            presentials[pid] = Presential(
                pid, inner_boundary(day, t), {"hue": rng.choice(("red", "blue"))}
            )
    at = {t: [p for p, v in presentials.items() if v.at.coordinate == t] for t in range(7)}
    processes = {}
    for _ in range(rng.randint(3, 14)):
        a, b = sorted(rng.sample(range(7), 2))
        ch = chronoids.setdefault(f"c{a}_{b}", Chronoid(f"c{a}_{b}", Fraction(a), Fraction(b)))
        pid = f"P{next(names)}"
        processes[pid] = Process(pid, ch, {Fraction(t): rng.choice(at[t]) for t in (a, b)})
    inside = [t for t in range(1, 6) if rng.random() < 0.5]
    continuants = {
        "k": Continuant("k", day, {Fraction(t): rng.choice(at[t]) for t in (0, *inside, 6)})
    }
    focus = ["k", rng.choice(sorted(processes)), *rng.sample(sorted(presentials), 2)]
    facts = {
        f"f{i}": Fact(f"f{i}", relator, (arg,))
        for i, (relator, arg) in enumerate(product(("r", "q"), focus[:2]))
    }
    situations = {}

    def situation(extent):
        sid = f"s{next(names)}"
        constituents = frozenset(fid for fid in facts if rng.random() < 0.5)
        participants = frozenset(rng.sample(focus, rng.randint(0, 3)))
        situations[sid] = Situation(sid, extent, constituents, participants)

    for t in range(7):
        for _ in range(rng.randint(0, 4)):
            situation(inner_boundary(day, t))
    for _ in range(rng.randint(0, 3)):
        situation(rng.choice(sorted(chronoids.values(), key=lambda ch: ch.id)))
    patterns = [FactPattern("r", (WILDCARD,)), FactPattern("q", (WILDCARD,)), FactPattern("r", (focus[0],))]

    def concept(name):
        constraints = set()
        if rng.random() < 0.4:
            constraints.add(PropertyConstraint(rng.choice(focus), "hue", rng.choice(("red", "blue"))))
        return SituationConcept(frozenset([rng.choice(patterns)]), frozenset(constraints), name=name)

    functions = {}
    for i in range(rng.randint(1, 3)):
        functions[f"fn{i}"] = FunctionSpec(f"fn{i}", concept("req"), concept("goal"))
    presentic = sorted(sid for sid, s in situations.items() if s.presentic)
    requirement_instances = {
        fnid: frozenset(rng.sample(presentic, min(len(presentic), rng.randint(0, 3))))
        for fnid in functions
    }
    entities = sorted(presentials) + sorted(processes) + ["k"]
    exe = {(rng.choice(entities), rng.choice(sorted(processes))) for _ in range(rng.randint(5, 40))}
    return Model(
        chronoids=chronoids,
        presentials=presentials,
        processes=processes,
        continuants=continuants,
        situations=situations,
        facts=facts,
        property_defs={"hue": hue},
        functions=functions,
        exe_assertions=frozenset(exe),
        requirement_instances=requirement_instances,
    )


# ---------------------------------------------------------------------------
# Random boundary sets for the coincidence laws
# ---------------------------------------------------------------------------

_COORDS = sorted(
    {Fraction(n, d) for n in range(-4, 9) for d in (1, 2, 3)}
)


def random_boundary_set(rng: random.Random):
    """A handful of chronoids over a small coordinate pool (so coincidences
    actually happen) plus assorted boundary entities."""
    chronoids = []
    for i in range(rng.randint(1, 4)):
        l, r = sorted(rng.sample(_COORDS, 2))
        chronoids.append(Chronoid(f"b{i}", l, r))
    boundaries = []
    for ch in chronoids:
        boundaries.append(left_boundary(ch))
        boundaries.append(right_boundary(ch))
        inside = [t for t in _COORDS if ch.left <= t <= ch.right]
        for _ in range(rng.randint(0, 2)):
            boundaries.append(inner_boundary(ch, rng.choice(inside)))
    return chronoids, boundaries
