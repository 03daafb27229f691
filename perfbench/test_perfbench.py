"""Tests of the benchmark itself: generators, verdict checker, span maths.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import verdicts  # noqa: E402
import worlds  # noqa: E402
from gfo import cli  # noqa: E402


def _serve(req, tmp_path):
    path = tmp_path / req.name
    path.write_text(req.text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(req.argv(str(path)))
    return code, out.getvalue()


def _first(workload, predicate, seed=11):
    for slot in range(64):
        req = worlds.request(workload, seed, slot)
        if predicate(req):
            return req
    raise AssertionError(f"no matching {workload} request in 64 slots")


def test_same_seed_gives_byte_identical_worlds():
    for workload in worlds.GENERATORS:
        for slot in (0, 1, 77):
            a = worlds.request(workload, 5, slot)
            b = worlds.request(workload, 5, slot)
            assert a.text == b.text
            assert a.args == b.args and a.expected == b.expected
        assert worlds.request(workload, 5, 1).text != worlds.request(workload, 6, 1).text


def test_sizes_are_stratified_over_a_pass():
    sizes = [
        worlds.stratified_size(random.Random(slot), slot, 16, 128)
        for slot in range(worlds.PASS // 2)
    ]
    # the first half pass already puts eight slots in each eighth of the
    # log range, up to rounding at the edges
    octiles = [0] * 8
    for n in sizes:
        octiles[min(7, int(8 * math.log(n / 16, 8)))] += 1
    assert all(6 <= count <= 10 for count in octiles), octiles


def test_planted_verdicts_hold_and_wrong_ones_are_rejected(tmp_path):
    req = _first("check-integrated", lambda r: r.expected["violations"] and r.size < 40)
    code, stdout = _serve(req, tmp_path)
    assert verdicts.check(req, code, stdout) == []

    report = json.loads(stdout)
    report["files"][0]["violations"].pop()
    report["total_violations"] -= 1
    assert verdicts.check(req, code, json.dumps(report))
    assert verdicts.check(req, 0, stdout)

    req = _first("check-complete", lambda r: r.size < 40)
    code, stdout = _serve(req, tmp_path)
    assert verdicts.check(req, code, stdout) == []
    report = json.loads(stdout)
    report["files"][0]["derived_processes"].reverse()
    report["files"][0]["derived_processes"][0] += "-x"
    assert verdicts.check(req, code, json.dumps(report))

    req = _first("query-functions", lambda r: r.args[1] == "--realizations" and r.expected)
    code, stdout = _serve(req, tmp_path)
    assert verdicts.check(req, code, stdout) == []
    assert verdicts.check(req, code, json.dumps(json.loads(stdout)[1:]))


def test_self_times_add_up_to_the_root_span(tmp_path):
    tracer = spans.Tracer()
    for slot, workload in enumerate(("check-complete", "query-functions", "load-dump")):
        req = worlds.request(workload, 3, 0)
        path = tmp_path / req.name
        path.write_text(req.text, encoding="utf-8")
        tracer.request = slot
        with spans.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
            tracer.call(spans.ROOT, cli.main, None, (req.argv(str(path)),), {})
    assert cli.parse_file.__module__ == "gfo.dsl"  # wrappers are removed again
    own = spans.self_times(tracer.spans)
    for slot in range(3):
        members = [i for i, s in enumerate(tracer.spans) if s[4] == slot]
        (root,) = [i for i in members if tracer.spans[i][3] == -1]
        duration = tracer.spans[root][2] - tracer.spans[root][1]
        assert abs(sum(own[i] for i in members) - duration) < 1e-9
        assert min(own[i] for i in members) > -1e-9
    names = {s[0] for s in tracer.spans}
    assert {"checker.completion", "model.with_process", "functions.realization"} <= names


def test_self_times_of_hand_made_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    made = [
        ["request", 0.0, 10.0, -1, 0, None],
        ["dsl.parse", 1.0, 4.0, 0, 0, 100],
        ["checker.completion", 5.0, 9.0, 0, 0, 2],
        ["model.with_process", 6.0, 7.0, 2, 0, None],
    ]
    assert spans.self_times(made) == [3.0, 3.0, 3.0, 1.0]
    metrics, shares = spans.summarize(made, {0: 50})
    assert metrics["dsl.parse_s"] == 3.0
    assert metrics["dsl.parse_bytes_per_s"] == 100 / 3.0
    assert metrics["checker.completion_s"] == 3.0
    assert metrics["checker.completion_derived"] == 2
    assert metrics["layers.covered_ratio"] == 0.7
    assert shares == {"checker.completion": 3.0, "dsl.parse": 3.0, "model.with_process": 1.0, "request": 3.0}


def test_benchmark_json_names_the_metrics_the_harness_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    metrics, _ = spans.summarize([["request", 0.0, 1.0, -1, 0, None]], {0: 1})
    metrics["trace_overhead_ratio"] = 1.0
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: spans.unit(name) for name in metrics
    }
    assert [w["name"] for w in bench["workloads"]] == list(worlds.GENERATORS)


def test_scaled_times_follow_the_probe_around_them():
    probes = [run.PROBE_REF_S] * 20 + [2 * run.PROBE_REF_S] * 20
    times = [1.0] * 40
    out = run.scaled(times, probes)
    assert out[0] == 1.0 and out[-1] == 0.5
