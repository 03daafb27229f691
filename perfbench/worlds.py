"""Seeded `.gfo` world generators with planted answers, one per workload.

Every request the benchmark sends is built here together with the verdict
it must produce.  The verdict is known by construction: it is derived from
the choices the generator made (which pairs lack a process, which boundary
was swapped, which stage value sits at which point), never by running gfo.
The same (workload, seed, slot) always yields byte-identical text.

World sizes are drawn log-uniformly but stratified: slot ``j`` of a pass
falls in stratum ``bitrev(j)`` of ``PASS`` equal-width strata of log size,
so every prefix of a pass covers the size range evenly and two seeds see
almost the same size distribution.  The seed moves the jitter inside each
stratum, the ids, the sample grids and the planted violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

PASS = 128  # slots per pass; a power of two so bit reversal permutes it
_PASS_BITS = PASS.bit_length() - 1

IDENTITY_CHECK = ["check", "--format", "json"]
COMPLETE_CHECK = ["check", "--complete", "--integration=valuation", "--format", "json"]


def fmt(x: Fraction) -> str:
    """Canonical rational text: ``3`` when whole, ``9/4`` otherwise."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass
class Request:
    """One closed-loop request: a world file, its CLI arguments and its verdict.

    ``args`` is the CLI argument list without the file; the file goes right
    after the subcommand.  ``kind`` selects how ``verdicts.check`` compares
    the output with ``expected``.
    """

    name: str
    text: str
    args: list
    kind: str  # "check", "query" or "dump"
    expected: object
    expected_code: int
    entities: int
    size: int

    def argv(self, path: str) -> list:
        return [self.args[0], path, *self.args[1:]]


def _bitrev(j: int) -> int:
    return int(format(j, f"0{_PASS_BITS}b")[::-1], 2)


def stratified_size(rng: random.Random, slot: int, lo: int, hi: int) -> int:
    """Log-uniform size in [lo, hi], stratified over the slots of a pass."""
    u = (_bitrev(slot % PASS) + rng.random()) / PASS
    return max(lo, min(hi, round(lo * (hi / lo) ** u)))


def _changes_at(samples) -> list:
    """Midpoints between consecutive (t, value) samples whose values differ."""
    return [
        fmt((t1 + t2) / 2)
        for (t1, v1), (t2, v2) in zip(samples, samples[1:])
        if v1 != v2
    ]


# ---------------------------------------------------------------------------
# pair worlds: continuant/process pairs (check-integrated, check-complete)
# ---------------------------------------------------------------------------


def _pair_world(rng: random.Random, n: int, complete: bool):
    """n continuant/process pairs with shuffled ids and planted defects.

    Identity mode (``complete=False``): every continuant has its process;
    a few processes get one boundary swapped for a stray presential, which
    plants one integration violation (continuant, process) and one
    presential-dependence violation for the abandoned presential.

    Completion mode (``complete=True``): about half the continuants have
    no process and get one derived; a few processes use twin presentials
    with equal valuations (a valuation match the identity rule would
    reject), which leaves the continuant's own presentials unreferenced;
    one process may be named ``<continuant>-proc`` so the derived id must
    be uniquified to ``-proc-2``.
    """
    out = [
        "property v : numeric isolated;",
        "property phase : categorical { hi, lo } global;",
    ]
    pairs = []
    for i in range(n):
        left = rng.randint(0, 20)
        length = rng.randint(2, 6)
        inner = sorted(
            rng.sample(range(1, 4 * length), rng.randint(3, 7) - 2)
        )
        times = [Fraction(left)] + [left + Fraction(q, 4) for q in inner]
        times.append(Fraction(left + length))
        pairs.append((f"c{i:04d}", f"k{i:04d}", times))

    total = sum(len(t) for _, _, t in pairs) * 2 + 8
    values = iter(rng.sample(range(1, 20 * total), total))
    order = list(range(n))
    rng.shuffle(order)
    process_of = {i: f"q{order[i]:04d}" for i in range(n)}

    missing, twins, swapped = set(), set(), {}
    if complete:
        missing = set(rng.sample(range(n), n // 2))
        covered = [i for i in range(n) if i not in missing]
        twins = set(rng.sample(covered, min(len(covered), rng.randint(0, 2))))
        if rng.random() < 0.5:
            victim = min(missing)
            host = rng.choice(covered)
            process_of[host] = f"c{victim:04d}-proc"
    else:
        for i in rng.sample(range(n), rng.randint(0, 3)):
            swapped[i] = rng.randrange(len(pairs[i][2]))

    entities = 0
    samples = 0
    violations = []
    continuant_changes = []
    trajectories = []
    blocks = []
    for i, (cid, chron, times) in enumerate(pairs):
        lines = [f"chronoid {chron} = [{fmt(times[0])}, {fmt(times[-1])}];"]
        pres = [f"x{i:04d}_{j}" for j in range(len(times))]
        vals = [next(values) for _ in times]
        for pid, t, value in zip(pres, times, vals):
            lines.append(f"presential {pid} at {chron}@{fmt(t)} {{ v = {value}; }}")
        lines.append(f"continuant {cid} lifetime {chron} {{")
        lines += [f"  exhibits {fmt(t)} -> {p};" for t, p in zip(times, pres)]
        lines.append("}")
        entities += 1 + len(pres)
        samples += len(times)
        continuant_changes.append((cid, len(times) - 1))

        if i not in missing:
            proc = process_of[i]
            bounds = list(pres)
            if i in twins:
                bounds = []
                for j, t in enumerate(times):
                    twin = f"y{i:04d}_{j}"
                    lines.append(f"presential {twin} at {chron}@{fmt(t)} {{ v = {vals[j]}; }}")
                    bounds.append(twin)
                    violations.append(("presential-dependence", (pres[j],), fmt(t)))
                entities += len(times)
            if i in swapped:
                j = swapped[i]
                stray = f"z{i:04d}"
                lines.append(
                    f"presential {stray} at {chron}@{fmt(times[j])} {{ v = {next(values)}; }}"
                )
                bounds[j] = stray
                entities += 1
                violations.append(("integration", (cid, proc), fmt(times[j])))
                violations.append(("presential-dependence", (pres[j],), fmt(times[j])))
            phases = [(t, rng.choice(("hi", "lo"))) for t in times]
            lines.append(f"process {proc} extent {chron} {{")
            lines += [f"  boundary {fmt(t)} -> {b};" for t, b in zip(times, bounds)]
            lines.append("  trajectory phase {")
            lines += [f"    {fmt(t)} -> {value};" for t, value in phases]
            lines.append("  }")
            lines.append("}")
            entities += 1
            samples += len(times)
            trajectories.append((proc, "phase", _changes_at(phases)))
        blocks.append("\n".join(lines))
    rng.shuffle(blocks)
    out += blocks

    derived = []
    taken = set(process_of.values())
    for i in sorted(missing):
        cid = pairs[i][0]
        pid = f"{cid}-proc" if f"{cid}-proc" not in taken else f"{cid}-proc-2"
        derived.append(pid)
        samples += len(pairs[i][2])
    violations.sort()
    expected = {
        "entities": entities + len(derived),
        "samples": samples,
        "violations": violations,
        "derived_processes": derived,
        "continuant_changes": continuant_changes,
        "trajectories": sorted(trajectories),
    }
    code = 1 if violations else 0
    return "\n".join(out) + "\n", expected, code, entities


def check_integrated(rng: random.Random, slot: int) -> Request:
    n = stratified_size(rng, slot, 16, 128)
    text, expected, code, entities = _pair_world(rng, n, complete=False)
    return Request(f"ci{slot:05d}.gfo", text, IDENTITY_CHECK, "check", expected, code, entities, n)


def check_complete(rng: random.Random, slot: int) -> Request:
    n = stratified_size(rng, slot, 16, 96)
    text, expected, code, entities = _pair_world(rng, n, complete=True)
    return Request(f"cc{slot:05d}.gfo", text, COMPLETE_CHECK, "check", expected, code, entities, n)


# ---------------------------------------------------------------------------
# realization chains (query-functions)
# ---------------------------------------------------------------------------

STAGES = ("a", "b", "c")
FUNCTIONS = {"f_ab": ("a", "b"), "f_bc": ("b", "c"), "f_ca": ("c", "a")}
# query kinds in proportion; slot j takes entry (j + j // 8) % 8, so within
# every 64 slots each entry meets each eighth of the size range once
QUERY_PATTERN = (
    "realizations", "realizers", "truthmakers", "realizations",
    "realizers", "changes", "realizations", "classify",
)


def _chain_world(rng: random.Random, n: int):
    """A chain of n processes p_i over [i, i+1] with founded situations.

    Point j carries situation s_j (and sometimes a second one, t_j) whose
    single fact is stage(worker, value); p_i realizes f_xy exactly when a
    situation at i has stage x and one at i+1 has stage y.  Sometimes a
    situoid u_i spans p_i's whole extent.
    """
    workers = max(2, n // 4)
    out = [
        "property stage : categorical { a, b, c } isolated;",
        "property v : numeric isolated;",
        "property load : numeric nonisolated(1);",
        "property mode : categorical { busy, idle } global;",
        f"chronoid line = [0, {n}];",
    ]
    for name, (req, goal) in FUNCTIONS.items():
        out.append(
            f'function {name} {{ label "{req} to {goal}"; '
            f"requires {{ fact stage(_, {req}); }} achieves {{ fact stage(_, {goal}); }} }}"
        )
    values = rng.sample(range(1, 10 * n + 10), 2 * workers)
    worker_changes = {}
    for k in range(workers):
        w = f"w{k:03d}"
        v0, v1 = values[2 * k], values[2 * k + 1]
        out.append(f"presential {w}s at line@0 {{ v = {v0}; }}")
        out.append(f"presential {w}e at line@{n} {{ v = {v1}; }}")
        out.append(f"continuant {w} lifetime line {{ exhibits 0 -> {w}s; exhibits {n} -> {w}e; }}")
        worker_changes[w] = [
            {"t1": "0", "t2": str(n), "property": "v", "from": str(v0), "to": str(v1)}
        ]
    entities = 3 * workers

    procs = [f"p{i:04d}" for i in range(n)]
    traj = {}
    for i, p in enumerate(procs):
        half = i + Fraction(1, 2)
        load = [(Fraction(i), rng.randint(0, 3)), (half, rng.randint(0, 3)), (Fraction(i + 1), rng.randint(0, 3))]
        mode = [(Fraction(i), rng.choice(("busy", "idle"))), (Fraction(i + 1), rng.choice(("busy", "idle")))]
        traj[p] = [
            {"property": "load", "points": _changes_at(load)},
            {"property": "mode", "points": _changes_at(mode)},
        ]
        out.append(f"chronoid g{i:04d} = [{i}, {i + 1}];")
        out.append(f"presential e{i:04d}a at g{i:04d}@{i};")
        out.append(f"presential e{i:04d}b at g{i:04d}@{i + 1};")
        out.append(
            f"process {p} extent g{i:04d} {{ boundary {i} -> e{i:04d}a; "
            f"boundary {i + 1} -> e{i:04d}b; "
            "trajectory load { " + " ".join(f"{fmt(t)} -> {x};" for t, x in load) + " } "
            "trajectory mode { " + " ".join(f"{fmt(t)} -> {x};" for t, x in mode) + " } }"
        )
    entities += 3 * n

    # situations: (sid, coordinate or (left, right), founding process, fact id)
    situations = []
    for j in range(n + 1):
        owner = procs[min(j, n - 1)]
        situations.append((f"s{j:04d}", j, owner, f"f{j:04d}"))
        if rng.random() < 0.5:
            situations.append((f"t{j:04d}", j, owner, f"h{j:04d}"))
    for i in range(n):
        if rng.random() < 0.25:
            situations.append((f"u{i:04d}", (i, i + 1), procs[i], f"r{i:04d}"))
    facts = {}
    for sid, extent, owner, fid in situations:
        worker = f"w{rng.randrange(workers):03d}"
        stage = rng.choice(STAGES)
        facts[fid] = (worker, stage)
        out.append(f"fact {fid} = stage({worker}, {stage});")
        where = f"at line@{extent}" if isinstance(extent, int) else f"during g{extent[0]:04d}"
        out.append(
            f"situation {sid} {where} founded on {owner} {{ contains {fid}; participant {worker}; }}"
        )
    entities += 2 * len(situations)

    executor_of = {p: f"w{rng.randrange(workers):03d}" for p in procs}
    for p in procs:
        out.append(f"exe({executor_of[p]}, {p});")
    rng.shuffle(out)

    at_point = {}
    for sid, extent, _, fid in situations:
        if isinstance(extent, int):
            at_point.setdefault(extent, []).append((sid, facts[fid][1]))
    realizations = {}
    for name, (req, goal) in FUNCTIONS.items():
        records = []
        for i, p in enumerate(procs):
            reqs = sorted(s for s, stage in at_point[i] if stage == req)
            goals = sorted(s for s, stage in at_point[i + 1] if stage == goal)
            if reqs and goals:
                records.append(
                    {"process": p, "requirement_situation": reqs[0], "goal_situation": goals[0]}
                )
        realizations[name] = records
    world = {
        "n": n,
        "procs": procs,
        "workers": workers,
        "situations": situations,
        "facts": facts,
        "executor_of": executor_of,
        "realizations": realizations,
        "trajectories": traj,
        "worker_changes": worker_changes,
    }
    return "\n".join(out) + "\n", world, entities


def _truthmaker_query(rng: random.Random, world: dict):
    """A proposition text and the triples that make it true."""
    n = world["n"]
    stage = rng.choice(STAGES)
    form = rng.randrange(3)
    if form == 0:
        worker = None
        text, ref = f"fact stage(_, {stage})", None
    elif form == 1:
        worker = f"w{rng.randrange(world['workers']):03d}"
        point = rng.randint(0, n)
        text, ref = f"fact stage({worker}, {stage}) at {point}", (point, point)
    else:
        worker = f"w{rng.randrange(world['workers']):03d}"
        lo = rng.randint(0, n - 1)
        hi = rng.randint(lo + 1, n)
        text, ref = f"holds({worker}, stage, {stage}) during [{lo}, {hi}]", (lo, hi)
    triples = []
    for sid, extent, owner, fid in world["situations"]:
        fact_worker, fact_stage = world["facts"][fid]
        if fact_stage != stage or (worker is not None and fact_worker != worker):
            continue
        if ref is not None:
            if isinstance(extent, int):
                inside = ref[0] <= extent <= ref[1]
            else:
                # an "at" reference needs a presentic situation
                inside = form == 2 and ref[0] <= extent[0] and extent[1] <= ref[1]
            if not inside:
                continue
        triples.append({"process": owner, "situation": sid, "fact": fid})
    triples.sort(key=lambda t: (t["process"], t["situation"], t["fact"]))
    return text, triples


def query_functions(rng: random.Random, slot: int) -> Request:
    n = stratified_size(rng, slot, 32, 256)
    text, world, entities = _chain_world(rng, n)
    kind = QUERY_PATTERN[(slot + slot // 8) % len(QUERY_PATTERN)]
    if kind == "realizations":
        fn = rng.choice(sorted(FUNCTIONS))
        args, expected = ["query", "--realizations", fn], world["realizations"][fn]
    elif kind == "realizers":
        fn = rng.choice(sorted(FUNCTIONS))
        realized = {r["process"] for r in world["realizations"][fn]}
        expected = sorted({world["executor_of"][p] for p in realized})
        args = ["query", "--realizers", fn]
    elif kind == "truthmakers":
        prop, expected = _truthmaker_query(rng, world)
        args = ["query", "--truthmakers", prop]
    elif kind == "changes":
        if rng.random() < 0.5:
            target = rng.choice(world["procs"])
            expected = world["trajectories"][target]
        else:
            target = f"w{rng.randrange(world['workers']):03d}"
            expected = world["worker_changes"][target]
        args = ["query", "--changes", target]
    else:
        prop, support = rng.choice(
            (("stage", "presenticIsolated"), ("load", "presenticNonIsolated"), ("mode", "global"))
        )
        target = rng.choice(world["procs"])
        args = ["query", "--classify", prop, target]
        expected = {"property": prop, "process": target, "support": support}
    return Request(f"qf{slot:05d}.gfo", text, args, "query", expected, 0, entities, n)


# ---------------------------------------------------------------------------
# flat worlds (load-dump)
# ---------------------------------------------------------------------------

COLORS = ("blue", "green", "red")


def _flat_world(rng: random.Random, n: int):
    """n presentials with valuations, about 1.5n facts and n/2 situations,
    and only two continuants and two processes.

    Returns the text and the canonical JSON store ``gfo dump`` must print,
    built from the generator's own records.
    """
    spans = 4
    store = {
        "chronoids": {},
        "properties": {
            "temp": {"domain": "numeric", "symbols": [], "support": "isolated", "window_radius": None},
            "color": {"domain": "categorical", "symbols": list(COLORS), "support": "isolated", "window_radius": None},
            "flow": {"domain": "numeric", "symbols": [], "support": "nonisolated", "window_radius": "1/2"},
        },
        "presentials": {},
        "processes": {},
        "continuants": {},
        "facts": {},
        "situations": {},
        "functions": {},
        "exe": [],
        "requirement_instances": {},
        "goal_instances": {},
    }
    out = [
        "property temp : numeric isolated;",
        "property color : categorical { red, green, blue } isolated;",
        "property flow : numeric nonisolated(1/2);",
    ]
    for k in range(spans):
        out.append(f"chronoid span{k} = [0, 8];")
        store["chronoids"][f"span{k}"] = {"left": "0", "right": "8"}

    by_span = {k: {} for k in range(spans)}  # coordinate -> presential ids
    for i in range(n):
        pid = f"r{i:05d}"
        k = rng.randrange(spans)
        t = Fraction(rng.randrange(0, 33), 4)
        temp = Fraction(rng.randint(-400, 400), rng.choice((1, 2, 3, 10)))
        color = rng.choice(COLORS)
        material = rng.random() < 0.9
        flag = "" if material else " immaterial"
        out.append(
            f"presential {pid} at span{k}@{fmt(t)}{flag} {{ temp = {fmt(temp)}; color = {color}; }}"
        )
        store["presentials"][pid] = {
            "at": {"kind": "boundary", "chronoid": f"span{k}", "coordinate": fmt(t)},
            "material": material,
            "valuation": {"temp": fmt(temp), "color": color},
        }
        by_span[k].setdefault(t, []).append(pid)

    # two continuants and two processes along span0 and span1
    for k in range(2):
        endpoints = []
        for t in (Fraction(0), Fraction(8)):
            pid = f"e{k}_{fmt(t)}"
            out.append(f"presential {pid} at span{k}@{fmt(t)} {{ temp = {k}; }}")
            store["presentials"][pid] = {
                "at": {"kind": "boundary", "chronoid": f"span{k}", "coordinate": fmt(t)},
                "material": True,
                "valuation": {"temp": str(k)},
            }
            endpoints.append((t, pid))
        middle = sorted(t for t in by_span[k] if 0 < t < 8)
        grid = endpoints[:1] + [(t, by_span[k][t][0]) for t in middle[:6]] + endpoints[1:]
        body = " ".join(f"exhibits {fmt(t)} -> {p};" for t, p in grid)
        out.append(f"continuant obj{k} lifetime span{k} {{ {body} }}")
        store["continuants"][f"obj{k}"] = {
            "lifetime": f"span{k}",
            "material": True,
            "exhibits": {fmt(t): p for t, p in grid},
        }
        flow = [(t, Fraction(rng.randint(0, 9))) for t in (Fraction(0), Fraction(4), Fraction(8))]
        bounds = " ".join(f"boundary {fmt(t)} -> {p};" for t, p in grid)
        samples = " ".join(f"{fmt(t)} -> {fmt(x)};" for t, x in flow)
        out.append(f"process run{k} extent span{k} {{ {bounds} trajectory flow {{ {samples} }} }}")
        store["processes"][f"run{k}"] = {
            "extent": f"span{k}",
            "boundaries": {fmt(t): p for t, p in grid},
            "trajectories": {"flow": [[fmt(t), fmt(x)] for t, x in flow]},
        }

    # situations at occupied points, each holding one to three facts
    fact_no = 0
    sit_no = 0
    for k in range(spans):
        for t in sorted(by_span[k]):
            members = by_span[k][t]
            for start in range(0, len(members), 2):
                group = members[start:start + 2]
                sid = f"s{sit_no:05d}"
                sit_no += 1
                fids = []
                for pid in group:
                    fid = f"g{fact_no:05d}"
                    fact_no += 1
                    color = store["presentials"][pid]["valuation"]["color"]
                    out.append(f"fact {fid} = color({pid}, {color});")
                    store["facts"][fid] = {"relator": "color", "args": [pid, color]}
                    fids.append(fid)
                if len(group) == 2:
                    fid = f"g{fact_no:05d}"
                    fact_no += 1
                    out.append(f"fact {fid} = near({group[0]}, {group[1]});")
                    store["facts"][fid] = {"relator": "near", "args": list(group)}
                    fids.append(fid)
                founded = f"run{k}" if k < 2 and rng.random() < 0.5 else None
                on = f" founded on {founded}" if founded else ""
                body = " ".join(f"contains {f};" for f in fids)
                body += " " + " ".join(f"participant {p};" for p in group)
                out.append(f"situation {sid} at span{k}@{fmt(t)}{on} {{ {body} }}")
                store["situations"][sid] = {
                    "extent": {"kind": "boundary", "chronoid": f"span{k}", "coordinate": fmt(t)},
                    "founded_on": founded,
                    "constituents": sorted(fids),
                    "participants": sorted(group),
                }

    out.append(
        'function paint { label "to paint"; requires { fact color(_, red); } '
        "achieves { fact color(_, blue); } fitem { temp = 20; } }"
    )
    out.append("exe(obj0, run0);")
    store["functions"]["paint"] = {
        "kind": "conceptual",
        "bearer": None,
        "labels": ["to paint"],
        "requires": {"facts": [{"relator": "color", "args": ["_", "red"]}], "holds": []},
        "achieves": {"facts": [{"relator": "color", "args": ["_", "blue"]}], "holds": []},
        "fitem": [["temp", "20"]],
    }
    store["exe"] = [["obj0", "run0"]]
    rng.shuffle(out)
    entities = sum(len(store[key]) for key in ("presentials", "processes", "continuants", "facts", "situations"))
    return "\n".join(out) + "\n", store, entities


def load_dump(rng: random.Random, slot: int) -> Request:
    n = stratified_size(rng, slot, 64, 512)
    text, store, entities = _flat_world(rng, n)
    return Request(f"ld{slot:05d}.gfo", text, ["dump"], "dump", store, 0, entities, n)


GENERATORS = {
    "check-integrated": check_integrated,
    "check-complete": check_complete,
    "query-functions": query_functions,
    "load-dump": load_dump,
}


def request(workload: str, seed: int, slot: int) -> Request:
    """The request in ``slot`` of a run of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{slot}")
    return GENERATORS[workload](rng, slot)


TRIVIAL_WORLD = """\
chronoid c = [0, 1];
presential m0 at c@0;
presential m1 at c@1;
continuant John lifetime c { exhibits 0 -> m0; exhibits 1 -> m1; }
process life extent c { boundary 0 -> m0; boundary 1 -> m1; }
"""
