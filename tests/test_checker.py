import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from genmodels import (
    all_miss_model,
    mutate_one_snapshot,
    random_full_model,
    random_integration_model,
)
from gfo import checker, cli
from gfo.checker import (
    DISJOINTNESS,
    IDENTITY,
    INTEGRATION,
    INTEGRATION_NO_PROCESS,
    PRESENTIAL_DEPENDENCE,
    VALUATION,
    IntegrationWitness,
    Violation,
    check_disjointness,
    check_integration,
    check_presential_dependence,
    complete_integration,
    derive_process,
    detect_continuant_changes,
    detect_process_changes,
    sort_violations,
)
from gfo.chrono import Chronoid, Time, inner_boundary
from gfo.dsl import parse, parse_file
from gfo.errors import MalformedContinuant, UnknownProperty
from gfo.model import (
    CATEGORICAL,
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
from helpers import CORPUS, REPO, lines_run

sys.path.insert(0, str(REPO / "perfbench"))
import worlds  # noqa: E402

# random worlds per oracle differential of integration and change points;
# `python tests/test_checker.py` runs those differentials on ten times as many
ORACLE_WORLDS = 200


@pytest.fixture(scope="module")
def heart():
    return parse_file(CORPUS / "heart.gfo")


@pytest.fixture()
def john():
    return parse_file(CORPUS / "john_incomplete.gfo")


def test_disjointness_clean_models(heart):
    assert check_disjointness(heart) == []
    assert check_disjointness(Model()) == []


def test_disjointness_flags_double_declaration():
    ch = Chronoid("e", Fraction(0), Fraction(1))
    pres = Presential("x", inner_boundary(ch, 0), {})
    cont = Continuant("x", ch, {Fraction(0): "x", Fraction(1): "x"})
    m = Model(chronoids={"e": ch}, presentials={"x": pres}, continuants={"x": cont})
    violations = check_disjointness(m)
    assert len(violations) == 1
    assert violations[0].axiom == "disjointness"
    assert violations[0].subjects == ("x",)


def _stand_in(store: str, entity_id: str):
    """An individual of the kind ``store`` holds, named ``entity_id``."""
    ch = Chronoid("e", Fraction(0), Fraction(1))
    return {
        "continuants": lambda: Continuant(entity_id, ch, {}),
        "presentials": lambda: Presential(entity_id, inner_boundary(ch, 0), {}),
        "processes": lambda: Process(entity_id, ch, {}),
        "situations": lambda: Situation(entity_id, ch),
        "facts": lambda: Fact(entity_id, "r", ()),
    }[store]()


def test_disjointness_agrees_with_oracle_on_planted_random_stores():
    """Random stores built in code, with 0-4 of their ids declared again
    under one or two more kinds: the violations, their order and their
    messages are the brute-force oracle's."""
    rng = random.Random(20261023)
    stores = [store for _, store in oracles.KIND_STORES]
    planted = {2: 0, 3: 0}
    for _ in range(200):
        m = random_full_model(rng)
        ids = sorted({eid for store in stores for eid in getattr(m, store)})
        changes = {store: dict(getattr(m, store)) for store in stores}
        for eid in rng.sample(ids, min(len(ids), rng.randint(0, 4))):
            free = [store for store in stores if eid not in changes[store]]
            for store in rng.sample(free, rng.randint(1, 2)):
                changes[store][eid] = _stand_in(store, eid)
        m = replace(m, **changes)
        violations = check_disjointness(m)
        expected = oracles.disjointness_violations(m)
        assert [(v.axiom, v.subjects, v.message) for v in violations] == [
            (DISJOINTNESS, (eid,), message) for eid, message in expected
        ]
        for _, message in expected:
            planted[message.count(" and ") + 1] += 1
    assert planted[2] > 100 and planted[3] > 50, planted


def test_integration_witness_on_consistent_corpus(heart):
    for cid in ("heart", "blood", "veins"):
        result = check_integration(heart, heart.continuants[cid])
        assert isinstance(result, IntegrationWitness)
        assert result.matched_samples == tuple(
            sorted(heart.continuants[cid].exhibit_map)
        )


def test_integration_mismatch_at_one_sample(john):
    p = derive_process(john, john.continuants["John"])
    m = john.with_process(p)
    c = m.continuants["John"]
    other = Presential("impostor", inner_boundary(c.lifetime, 1), {})
    mutated = replace(c, exhibit_map={**c.exhibit_map, Fraction(1): "impostor"})
    m = m.with_presential(other).with_continuant(mutated)
    result = check_integration(m, mutated)
    assert isinstance(result, list) and len(result) == 1
    assert result[0].axiom == INTEGRATION
    assert result[0].at == Fraction(1)
    assert set(result[0].subjects) == {"John", p.id}


def test_integration_no_process_agrees_with_oracle(john):
    c = john.continuants["John"]
    assert oracles.integration_candidates(john, c) == []
    result = check_integration(john, c)
    assert [v.axiom for v in result] == [INTEGRATION_NO_PROCESS]


def test_integration_valuation_mode():
    rng = random.Random(7)
    m, c = random_integration_model(rng, 0)
    p = derive_process(m, c)
    # twin presentials: same coordinates and valuations, fresh identities
    twins = {}
    presentials = dict(m.presentials)
    for t, pid in c.exhibit_map.items():
        src = m.presentials[pid]
        twin = Presential(f"{pid}-twin", src.at, dict(src.valuation))
        presentials[twin.id] = twin
        twins[t] = twin.id
    p = replace(p, boundary_map=twins)
    m = replace(m, presentials=presentials).with_process(p)
    strict = check_integration(m, c)
    assert isinstance(strict, list) and strict  # identity fails
    lax = check_integration(m, c, VALUATION)
    assert isinstance(lax, IntegrationWitness)


def _differential_worlds(seed, count):
    """``count`` random worlds, each followed by its completion with one
    snapshot of a material continuant pointed elsewhere."""
    rng = random.Random(seed)
    for _ in range(count):
        m = random_full_model(rng)
        yield m
        completed, _ = complete_integration(m)
        material = sorted(cid for cid, c in completed.continuants.items() if c.material)
        if material:
            c = completed.continuants[rng.choice(material)]
            yield mutate_one_snapshot(completed, c, rng)[0]


@pytest.mark.parametrize("mode", [IDENTITY, VALUATION])
def test_integration_agrees_with_oracles_on_random_worlds(mode):
    identity = mode == IDENTITY
    witnesses = violations = 0
    for m in _differential_worlds(20261020, ORACLE_WORLDS):
        for cid in sorted(m.continuants):
            c = m.continuants[cid]
            if not c.material:
                continue
            result = check_integration(m, c, mode)
            good = oracles.integration_candidates(m, c, identity)
            if good:
                assert isinstance(result, IntegrationWitness), cid
                assert result.process == good[0]
                witnesses += 1
            elif not m.processes:
                assert [v.axiom for v in result] == [INTEGRATION_NO_PROCESS]
            else:
                closest, count = oracles.integration_closest(m, c, identity)
                assert {v.subjects for v in result} == {(cid, closest)}
                assert len(result) == count
                violations += 1
    assert witnesses > 100 and violations > 100  # both paths were exercised


@pytest.mark.parametrize("mode", [IDENTITY, VALUATION])
def test_integration_misses_are_decided_by_the_bound_or_by_the_full_scan(monkeypatch, mode):
    """On the worlds of the oracle differential, every continuant without a
    witness is decided one of two ways: by one scan of the processes that
    share a (time, token) pair with it, whose best score is below |E|, or
    by a last scan of every process.  Both ways occur."""
    scans = []
    closest = checker._closest

    def counted(m, c, exhibited, processes, mode):
        processes = list(processes)
        result = closest(m, c, exhibited, processes, mode)
        scans.append((len(processes), result[0]))
        return result

    monkeypatch.setattr(checker, "_closest", counted)
    bound = fallback = 0
    for m in _differential_worlds(20261020, ORACLE_WORLDS):
        for cid in sorted(m.continuants):
            c = m.continuants[cid]
            scans.clear()
            if not c.material or isinstance(check_integration(m, c, mode), IntegrationWitness):
                continue
            if len(scans) == 1 and scans[0][1] < len(c.exhibit_map):
                bound += 1
            elif scans:
                assert scans[-1][0] == len(m.processes) and scans[-1][1] >= len(c.exhibit_map)
                fallback += 1
    assert bound > 0 and fallback > 0, (bound, fallback)


class _Touched(dict):
    """A store that adds the entries read from it to ``counter[0]``: one per
    lookup, every entry per walk."""

    def __init__(self, entries, counter):
        super().__init__(entries)
        self.counter = counter

    def __contains__(self, key):
        self.counter[0] += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.counter[0] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.counter[0] += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.counter[0] += len(self)
        return super().__iter__()

    def keys(self):
        self.counter[0] += len(self)
        return super().keys()

    def items(self):
        self.counter[0] += len(self)
        return super().items()

    def values(self):
        self.counter[0] += len(self)
        return super().values()


def _touches(m: Model, check) -> int:
    """Store entries ``check(m)`` reads."""
    counter = [0]
    stores = ("presentials", "processes", "continuants", "situations", "facts")
    check(replace(m, **{name: _Touched(getattr(m, name), counter) for name in stores}))
    return counter[0]


def _every_continuant(check):
    return lambda m: [check(m, c) for c in m.continuants.values()]


@pytest.mark.parametrize(
    "check",
    [check_disjointness, _every_continuant(detect_continuant_changes), check_presential_dependence],
)
def test_disjointness_and_change_detection_read_each_store_entry_a_few_times(check):
    """On the all-miss family the store entries read grow at most 4x (plus
    8) when the world grows 4x: disjointness intersects key sets, change
    detection looks up one valuation per sample, and presential dependence
    collects the boundaries of every process once.  A scan of a store per
    id or per sample would grow 16x."""
    small, large = (_touches(all_miss_model(random.Random(3), n), check) for n in (50, 200))
    assert 0 < small and large <= 4 * small + 8, (small, large)


@pytest.mark.parametrize("mode", [IDENTITY, VALUATION])
def test_an_all_miss_world_scores_each_continuant_against_its_own_process(monkeypatch, mode):
    """Every process of the all-miss family misses its continuant at one
    sample and shares no (time, token) pair with any other, so the bound
    decides every continuant after one exact score: at most n scores for n
    continuants, where scanning every candidate would make n**2."""
    scores = []
    original = checker._mismatch_count
    monkeypatch.setattr(
        checker, "_mismatch_count", lambda *args: scores.append(args[3].id) or original(*args)
    )
    n = 200
    m = all_miss_model(random.Random(3), n)
    own = {}
    for c in m.continuants.values():
        result = check_integration(m, c, mode)
        own[c.id] = {v.subjects for v in result}
        assert len(result) == 1
    assert len(scores) <= n
    closest = {cid: oracles.integration_closest(m, c, mode == IDENTITY)[0]
               for cid, c in m.continuants.items()}
    assert own == {cid: {(cid, pid)} for cid, pid in closest.items()}


@pytest.mark.parametrize("mode", [IDENTITY, VALUATION])
def test_check_complete_builds_the_integration_lookups_once(tmp_path, monkeypatch, capsys, mode):
    """Completion hands its extended integration index and its presential
    tokens to the completed store, so the check that follows rebuilds
    neither; the index it hands over equals a rebuild."""
    built = []
    for name in ("_integration_index", "_presential_tokens"):
        original = getattr(checker, name)
        monkeypatch.setattr(
            checker, name, lambda m, *args, name=name, f=original: built.append(name) or f(m, *args)
        )
    path = tmp_path / "complete.gfo"
    path.write_text(worlds._pair_world(random.Random(5), 60, complete=True)[0])
    cli.main(["check", str(path), "--complete", f"--integration={mode}", "--format", "json"])
    assert json.loads(capsys.readouterr().out)["files"][0]["derived_processes"]
    tokens = ["_presential_tokens"] if mode == VALUATION else []
    assert sorted(built) == ["_integration_index", *tokens]
    m = parse_file(path)
    completed, derived = complete_integration(m, mode)
    adopted = completed.index(checker._integration_index, mode)
    assert derived and adopted == checker._integration_index(completed, mode)
    assert adopted is not m.index(checker._integration_index, mode)


def test_completion_lets_a_derived_process_witness_a_later_continuant():
    ch = Chronoid("e", Fraction(0), Fraction(1))
    presentials = {
        "n0": Presential("n0", inner_boundary(ch, 0), {}),
        "n1": Presential("n1", inner_boundary(ch, 1), {}),
    }
    emap = {Fraction(0): "n0", Fraction(1): "n1"}
    twins = {cid: Continuant(cid, ch, dict(emap)) for cid in ("A", "B")}
    m = Model(chronoids={"e": ch}, presentials=presentials, continuants=twins)
    completed, derived = complete_integration(m)
    assert derived == ["A-proc"]
    for cid in ("A", "B"):
        witness = check_integration(completed, completed.continuants[cid])
        assert isinstance(witness, IntegrationWitness)
        assert witness.process == "A-proc"


def test_valuation_mode_matches_no_undeclared_presential():
    # a store built in code: C and P both map 1 to the undeclared "ghost"
    ch = Chronoid("e", Fraction(0), Fraction(1))
    m = Model(
        chronoids={"e": ch},
        presentials={"n0": Presential("n0", inner_boundary(ch, 0), {})},
        continuants={"C": Continuant("C", ch, {Fraction(0): "n0", Fraction(1): "ghost"})},
        processes={"P": Process("P", ch, {Fraction(0): "n0", Fraction(1): "ghost"})},
    )
    c = m.continuants["C"]
    assert check_integration(m, c) == IntegrationWitness("C", "P", (Fraction(0), Fraction(1)))
    lax = check_integration(m, c, VALUATION)
    assert [(v.subjects, v.at, v.message) for v in lax] == [
        (("C", "P"), Fraction(1),
         "exhibited presential 'ghost' and process boundary 'ghost' differ at 1")
    ]
    assert complete_integration(m, VALUATION)[1] == ["C-proc"]


def _adversarial_ids_world(taken_by):
    """Continuants a, a-proc, a-proc-2 and a-proc-2-proc, none integrated,
    and the id a-proc-3 taken by a process or a chronoid."""
    ch = Chronoid("e", Fraction(0), Fraction(1))
    chronoids, presentials, continuants = {"e": ch}, {}, {}
    for i, cid in enumerate(("a", "a-proc", "a-proc-2", "a-proc-2-proc")):
        emap = {}
        for t in (Fraction(0), Fraction(1)):
            pres = Presential(f"n{i}_{t}", inner_boundary(ch, t), {"v": Fraction(i)})
            presentials[pres.id] = pres
            emap[t] = pres.id
        continuants[cid] = Continuant(cid, ch, emap)
    processes = {}
    if taken_by == "process":
        processes["a-proc-3"] = Process("a-proc-3", ch, {Fraction(0): "n0_0"})
    else:
        chronoids["a-proc-3"] = Chronoid("a-proc-3", Fraction(0), Fraction(2))
    return Model(
        chronoids=chronoids, presentials=presentials, processes=processes,
        continuants=continuants,
        property_defs={"v": PropertyDef("v", ValueDomain(NUMERIC))},
    )


@pytest.mark.parametrize("mode", [IDENTITY, VALUATION])
def test_completion_equals_sequential_derivation(mode):
    derived = 0
    models = [_adversarial_ids_world("process"), _adversarial_ids_world("chronoid")]
    rng = random.Random(20261018)
    models += [random_full_model(rng) for _ in range(200)]
    for m in models:
        completed, ids = complete_integration(m, mode)
        assert (completed, ids) == oracles.complete_sequentially(m, mode)
        derived += len(ids)
    assert complete_integration(models[0], mode)[1] == [
        "a-proc-4", "a-proc-proc", "a-proc-2-proc-2", "a-proc-2-proc-proc"
    ]
    assert derived > 100  # the random worlds derive too


@pytest.mark.parametrize("mode", [IDENTITY, VALUATION])
def test_completion_copies_the_store_once(monkeypatch, mode):
    """One ``Model.with_process`` call per completion that derives anything,
    copying every process once: the entries it copies grow at most 4x (plus
    4) when the world grows 4x.  A copy per derived process would make n/2
    calls and copy about n**2/8 entries."""
    copies = []
    original = Model.with_process

    def counted(self, *processes):
        copies.append(len(self.processes) + len(processes))
        return original(self, *processes)

    monkeypatch.setattr(Model, "with_process", counted)
    copied = []
    for n in (100, 400):
        m = parse(worlds._pair_world(random.Random(5), n, complete=True)[0])
        copies.clear()
        completed, derived = complete_integration(m, mode)
        assert len(copies) == 1 and derived
        copied.append(copies[0])
        again, none = complete_integration(completed, mode)
        assert (again is completed, none, len(copies)) == (True, [], 1)  # no copy
    assert copied[1] <= 4 * copied[0] + 4


def test_derive_process_round_trip(john):
    p = derive_process(john, john.continuants["John"])
    m = john.with_process(p)
    result = check_integration(m, m.continuants["John"])
    assert isinstance(result, IntegrationWitness)
    assert result.process == p.id


def test_derive_process_requires_endpoint_samples():
    ch = Chronoid("e", Fraction(0), Fraction(2))
    pres = Presential("n0", inner_boundary(ch, 0), {})
    c = Continuant("C", ch, {Fraction(0): "n0"})
    m = Model(chronoids={"e": ch}, presentials={"n0": pres}, continuants={"C": c})
    with pytest.raises(MalformedContinuant):
        derive_process(m, c)


def test_derive_twice_yields_distinct_processes(john):
    first = derive_process(john, john.continuants["John"])
    m = john.with_process(first)
    second = derive_process(m, m.continuants["John"])
    assert first.id != second.id
    assert first.boundary_map == second.boundary_map


def test_presential_dependence_with_and_without_completion(john):
    violations = check_presential_dependence(john)
    assert [v.subjects[0] for v in violations] == ["m0", "m1", "m2"]
    completed, derived = complete_integration(john)
    assert derived == ["John-proc"]
    assert check_presential_dependence(completed) == []


def test_presential_dependence_ignores_immaterial():
    ch = Chronoid("e", Fraction(0), Fraction(1))
    ghost = Presential("ghost", inner_boundary(ch, 0), {}, material=False)
    m = Model(chronoids={"e": ch}, presentials={"ghost": ghost})
    assert check_presential_dependence(m) == []


def test_presential_dependence_agrees_with_oracle_on_random_worlds():
    """200 random worlds and their completions in both modes: the violations,
    their subjects, times and messages are the brute-force oracle's.  Many
    immaterial presentials bound no process, so a check that ignores
    ``material`` would report them too."""
    rng = random.Random(20261021)
    violations = unbound_immaterial = 0
    for _ in range(200):
        m = random_full_model(rng)
        bounds = {pid for p in m.processes.values() for pid in p.boundary_map.values()}
        unbound_immaterial += sum(
            not pres.material and pid not in bounds for pid, pres in m.presentials.items()
        )
        for world in (m, complete_integration(m)[0], complete_integration(m, VALUATION)[0]):
            got = check_presential_dependence(world)
            assert {v.axiom for v in got} <= {PRESENTIAL_DEPENDENCE}
            expected = oracles.presential_dependence_violations(world)
            assert [(v.subjects, v.at, v.message) for v in got] == expected
            violations += len(got)
    assert violations > 1000 and unbound_immaterial > 50, (violations, unbound_immaterial)


def _ball_like(values_by_t):
    ch = Chronoid("roll", Fraction(0), Fraction(1))
    color = PropertyDef("color", ValueDomain(CATEGORICAL, frozenset({"blue", "red"})))
    presentials = {}
    emap = {}
    for t, valuation in values_by_t.items():
        pid = f"b{t}"
        presentials[pid] = Presential(pid, inner_boundary(ch, t), valuation)
        emap[Fraction(t)] = pid
    c = Continuant("ball", ch, emap)
    m = Model(
        chronoids={"roll": ch},
        presentials=presentials,
        continuants={"ball": c},
        property_defs={"color": color},
    )
    return m, c


def test_continuant_changes_constant():
    m, c = _ball_like({0: {"color": "red"}, 1: {"color": "red"}})
    assert detect_continuant_changes(m, c) == []


def test_continuant_changes_flip():
    m, c = _ball_like({0: {"color": "red"}, 1: {"color": "blue"}})
    assert detect_continuant_changes(m, c) == [
        (Fraction(0), Fraction(1), "color", "red", "blue")
    ]


def test_continuant_changes_to_undefined_matches_oracle():
    m, c = _ball_like({0: {"color": "red"}, 1: {}})
    expected = oracles.continuant_change_pairs(m, c)
    assert expected == [(Fraction(0), Fraction(1), "color", "red", None)]
    assert detect_continuant_changes(m, c) == expected


def test_continuant_changes_agree_with_oracle_on_random_worlds():
    rng = random.Random(20261023)
    continuants = changes = 0
    for _ in range(ORACLE_WORLDS):
        m = random_full_model(rng)
        for cid, c in sorted(m.continuants.items()):
            expected = oracles.continuant_change_pairs(m, c)
            assert detect_continuant_changes(m, c) == expected, cid
            continuants += 1
            changes += len(expected)
    assert continuants >= 250 and changes >= 150, (continuants, changes)


def test_continuant_changes_never_pair_equal_times(heart):
    for c in heart.continuants.values():
        for t1, t2, *_ in detect_continuant_changes(heart, c):
            assert t1 < t2


def _trajectory_process(samples, domain_kind=CATEGORICAL):
    ch = Chronoid("run", Fraction(0), Fraction(10))
    if domain_kind == CATEGORICAL:
        domain = ValueDomain(CATEGORICAL, frozenset({"off", "on"}))
    else:
        domain = ValueDomain("numeric")
    prop = PropertyDef("w", domain, Support("global"))
    pres = {
        "r0": Presential("r0", inner_boundary(ch, 0), {}),
        "r1": Presential("r1", inner_boundary(ch, 10), {}),
    }
    p = Process(
        "P",
        ch,
        {Fraction(0): "r0", Fraction(10): "r1"},
        {"w": tuple((Fraction(t), v) for t, v in samples)},
    )
    m = Model(
        chronoids={"run": ch},
        presentials=pres,
        processes={"P": p},
        property_defs={"w": prop},
    )
    return m, p


def test_process_changes_constant_trajectory():
    m, p = _trajectory_process([(0, "on"), (5, "on"), (10, "on")])
    assert detect_process_changes(m, p, "w") == []


def test_process_changes_categorical_flip_midpoint():
    m, p = _trajectory_process([(3, "off"), (4, "on")])
    assert detect_process_changes(m, p, "w") == [Fraction(7, 2)]


def test_process_changes_tolerance_absorbs_slope():
    m, p = _trajectory_process([(0, Fraction(0)), (1, Fraction(1))], "numeric")
    assert detect_process_changes(m, p, "w", tol=2) == []
    assert detect_process_changes(m, p, "w", tol=0) == [Fraction(1, 2)]
    # a step equal to the tolerance is no change: steps of 1/2, 1/2 and 5/3
    values = [Fraction(1, 3), Fraction(-1, 6), Fraction(1, 3), 2]
    m, p = _trajectory_process(list(zip((0, 1, 3, 10), values)), "numeric")
    for tol in (Fraction(1, 2), "1/2", Time(1, 2)):
        assert detect_process_changes(m, p, "w", tol) == [Fraction(13, 2)]
    assert detect_process_changes(m, p, "w", Time(5, 3)) == []
    assert detect_process_changes(m, p, "w", Fraction(499, 1000)) == [Fraction(1, 2), 2, Fraction(13, 2)]
    with pytest.raises(ValueError, match="non-negative"):
        detect_process_changes(m, p, "w", tol=-1)


@pytest.mark.parametrize(
    "times",
    [
        (Fraction(-7, 3), Fraction(-1, 2), Fraction(1, 3)),  # negative
        (Fraction(2, 4), Fraction(6, 4), Fraction(9, 3)),  # not in lowest terms as written
        (-3, 0, 8),  # plain int
        (Time(-7, 4), Time(1, 6), Time(5)),  # parsed coordinates
    ],
)
def test_process_change_points_are_exact_midpoints(times):
    """Each change point equals (t1 + t2) / 2 and is a plain Fraction,
    whatever the type of the coordinates."""
    ch = Chronoid("run", Fraction(-10), Fraction(10))
    prop = PropertyDef("w", ValueDomain(CATEGORICAL, frozenset({"off", "on"})), Support("global"))
    p = Process("P", ch, {}, {"w": tuple(zip(times, ("off", "on", "off")))})
    m = Model(processes={"P": p}, property_defs={"w": prop})
    points = detect_process_changes(m, p, "w")
    assert points == [(t1 + t2) / 2 for t1, t2 in zip(times, times[1:])]
    assert [type(t) for t in points] == [Fraction, Fraction]


def test_process_changes_unknown_property():
    m, p = _trajectory_process([(0, "on"), (10, "on")])
    with pytest.raises(UnknownProperty):
        detect_process_changes(m, p, "nope")
    bare = replace(p, trajectories={})
    with pytest.raises(UnknownProperty):
        detect_process_changes(m, bare, "w")


def test_process_changes_walk_a_trajectory_once():
    """Change points come from one pass over a trajectory's samples in
    order: the lines of gfo run grow at most 4x (plus 0) when a numeric and
    a categorical trajectory grow from n to 4n samples, each value unlike
    the last.  A search among all samples for each sample's successor would
    grow 16x."""
    counts = []
    for n in (100, 400):
        times = [Fraction(10 * i, n) for i in range(n + 1)]
        numeric = _trajectory_process([(t, Fraction(i % 3)) for i, t in enumerate(times)], NUMERIC)
        flips = _trajectory_process([(t, ("off", "on")[i % 2]) for i, t in enumerate(times)])

        def changes(trajectories=(numeric, flips)):
            return [detect_process_changes(m, p, "w", 1) for m, p in trajectories]

        assert [len(points) for points in changes()] == [n // 3, n]  # drops from 2 to 0; flips
        counts.append(lines_run(changes))
    assert 0 < counts[0] and counts[1] <= 4 * counts[0], counts


def test_process_changes_agree_with_oracle_on_random_worlds():
    # tolerances: 0 and every distinct neighbour difference, where > and >= part
    rng = random.Random(20261022)
    runs = changes = numeric = 0
    for _ in range(ORACLE_WORLDS):
        m = random_full_model(rng)
        for p in m.processes.values():
            for prop, samples in p.trajectories.items():
                tols = {0}
                if m.property_defs[prop].domain.kind == NUMERIC:
                    values = [v for _, v in sorted(samples)]
                    tols |= {abs(b - a) for a, b in zip(values, values[1:])}
                    numeric += len(values) > 1
                for tol in sorted(tols):
                    expected = oracles.trajectory_change_points(m, p, prop, tol)
                    assert detect_process_changes(m, p, prop, tol) == expected, (p.id, prop, tol)
                    runs += 1
                    changes += len(expected)
    assert runs >= 300 and changes >= 300 and numeric >= 80, (runs, changes, numeric)


def test_violation_order_is_canonical(john):
    violations = []
    violations.extend(check_presential_dependence(john))
    result = check_integration(john, john.continuants["John"])
    violations.extend(result)
    ordered = sort_violations(violations)
    assert ordered == sort_violations(list(reversed(violations)))
    keys = [v.sort_key() for v in ordered]
    assert keys == sorted(keys)


def test_violation_rejects_unregistered_axiom():
    with pytest.raises(ValueError):
        Violation(axiom="not-an-axiom", subjects=("x",), message="boom")


def test_violation_needs_a_subject():
    with pytest.raises(ValueError, match="at least one subject"):
        Violation(axiom="integration", subjects=(), message="boom")


if __name__ == "__main__":  # the integration and change-point differentials on 10x the worlds
    ORACLE_WORLDS *= 10
    for mode in (IDENTITY, VALUATION):
        test_integration_agrees_with_oracles_on_random_worlds(mode)
    test_process_changes_agree_with_oracle_on_random_worlds()
    test_continuant_changes_agree_with_oracle_on_random_worlds()
    print(f"integration and change points agree with the oracles on {ORACLE_WORLDS} worlds each")
