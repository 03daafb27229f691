import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest
from jsonschema import validate

import oracles
import test_golden as golden
from genmodels import all_miss_model, random_full_model
from gfo import checker, cli
from gfo.dsl import ParseError, parse, parse_file, serialize
from gfo.render import _json_parts
from helpers import CORPUS, REPO, SCHEMA, corpus_files, lines_run, run_cli

sys.path.insert(0, str(REPO / "perfbench"))
import worlds  # noqa: E402


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA.read_text())


def test_check_clean_model_exit_zero():
    code, out, _ = run_cli("check", str(CORPUS / "heart.gfo"))
    assert code == 0
    assert "0 violations" in out


def test_check_violating_model_exit_one():
    code, out, _ = run_cli("check", str(CORPUS / "john_incomplete.gfo"))
    assert code == 1
    assert "integration-no-process" in out


def test_check_complete_repairs_and_reports():
    code, out, _ = run_cli("check", str(CORPUS / "john_incomplete.gfo"), "--complete")
    assert code == 0
    assert "derived process" in out


def _pair_world(pairs: int, every: int) -> tuple[str, list]:
    """``pairs`` continuant/process pairs on one chronoid.  Every
    ``every``-th continuant lacks its process, and the next one's process
    ends on its neighbour's last presential.  Returns the text and the ids
    of the continuants without a witness."""
    lines = ["chronoid life = [0, 4];"]
    for i in range(pairs):
        lines.append(f"presential a{i} at life@0;")
        lines.append(f"presential b{i} at life@4;")
        lines.append(f"continuant C{i} lifetime life {{ exhibits 0 -> a{i}; exhibits 4 -> b{i}; }}")
        if i % every:
            last = f"b{i - 1}" if i % every == 1 else f"b{i}"
            lines.append(f"process P{i} extent life {{ boundary 0 -> a{i}; boundary 4 -> {last}; }}")
    return "\n".join(lines) + "\n", [f"C{i}" for i in range(pairs) if i % every < 2]


@pytest.mark.parametrize("complete", [False, True])
def test_check_scans_candidates_only_for_continuants_without_a_witness(
    tmp_path, monkeypatch, capsys, complete
):
    text, failing = _pair_world(2000, 100)
    path = tmp_path / "pairs.gfo"
    path.write_text(text)
    scanned = []
    original = checker._integration_mismatches

    def counted(m, c, p, mode):
        scanned.append(c.id)
        return original(m, c, p, mode)

    monkeypatch.setattr(checker, "_integration_mismatches", counted)
    argv = ["check", str(path), "--format", "json"] + ["--complete"] * complete
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)["files"][0]
    if complete:  # every failing continuant gets a derived process: a clean world
        assert (code, len(report["derived_processes"]), scanned) == (0, len(failing), [])
    else:
        assert (code, sorted(scanned)) == (1, sorted(failing))


@pytest.mark.parametrize(
    "argv",
    [
        ["dump", "heart.gfo"],
        ["check", "heart.gfo", "--format", "json"],
        ["check", "john_incomplete.gfo", "--complete", "--integration=valuation"],
        ["query", "heart.gfo", "--realizations", "f_pump"],
        ["query", "heart.gfo", "--changes", "nope"],
    ],
)
def test_an_in_process_request_leaves_no_cyclic_garbage(argv):
    argv = [argv[0], str(CORPUS / argv[1]), *argv[2:]]
    cli.main(argv)  # warm-up: module-level caches, the argument parser
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        cli.main(argv)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_no_command_makes_reference_cycles(tmp_path, capsys):
    """``cli.main`` pauses the collector for the whole command, which is
    sound only while no command, clean or failing, leaves cyclic garbage:
    with the collector off, ``gc.collect()`` finds nothing after any of
    these.  Only the argument parser's first build makes cycles, once."""
    faulty = tmp_path / "faulty.gfo"
    faulty.write_text("chronoid c = [0 1];\npresential p at nowhere@0;\n")
    heart, ball = str(CORPUS / "heart.gfo"), str(CORPUS / "ball.gfo")
    commands = [
        ["query", heart, "--truthmakers", "holds(blood, position, in_heart) during [0, 1]"],
        ["query", heart, "--realizers", "f_pump"],
        ["query", heart, "--realizations", "f_pump"],
        ["query", ball, "--changes", "ball"],
        ["query", ball, "--changes", "ball_proc"],
        ["query", ball, "--classify", "velocity", "ball_proc"],
        ["check", str(tmp_path / "missing.gfo")],
        ["check", str(faulty)],
        ["dump", str(faulty)],
        ["query", heart, "--truthmakers", "fact drinks(John"],
        ["query", ball, "--classify", "velocity", "ball"],
    ]
    for path in map(str, corpus_files()):
        commands += [
            ["check", path],
            ["check", path, "--format", "json"],
            ["check", path, "--complete"],
            ["check", path, "--complete", "--integration=valuation", "--format", "json"],
            ["dump", path],
        ]
    cli.build_arg_parser()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        heap = gc.get_objects()  # held, so no frozen object dies and the count below stays put
        gc.freeze()  # the heap so far: each collect below scans only what the commands make
        frozen = gc.get_freeze_count()
        for argv in commands:
            cli.main(argv)
            assert gc.collect() == 0, argv
            assert gc.get_freeze_count() == frozen, argv  # only cli.entry freezes
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    capsys.readouterr()


class _Walked(dict):
    """A store dict that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def items(self):
        self.walks += 1
        return super().items()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()


class _WalkedSet(frozenset):
    """A frozenset that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _realization_chain(n: int) -> str:
    """``n`` processes p{i} over [i, i+1], each realizing f through its own
    situations at i and i+1 and executed by its own presential."""
    lines = [
        "property stage : categorical { a, b } isolated;",
        "function f { requires { fact stage(_, a); } achieves { fact stage(_, b); } }",
    ]
    for i in range(n):
        lines += [
            f"chronoid g{i} = [{i}, {i + 1}];",
            f"presential e{i}a at g{i}@{i};",
            f"presential e{i}b at g{i}@{i + 1};",
            f"process p{i} extent g{i} {{ boundary {i} -> e{i}a; boundary {i + 1} -> e{i}b; }}",
            f"fact fa{i} = stage(p{i}, a);",
            f"fact fb{i} = stage(p{i}, b);",
            f"situation r{i} at g{i}@{i} {{ contains fa{i}; }}",
            f"situation s{i} at g{i}@{i + 1} {{ contains fb{i}; }}",
            f"exe(e{i}a, p{i});",
        ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("query, exe_walks", [("--realizations", 0), ("--realizers", 1)])
def test_function_queries_walk_the_situations_and_exe_pairs_once(
    tmp_path, monkeypatch, capsys, query, exe_walks
):
    path = tmp_path / "chain.gfo"
    path.write_text(_realization_chain(100))
    loaded = []

    def load(path):
        m = parse_file(path)
        loaded.append(
            replace(
                m,
                situations=_Walked(m.situations),
                exe_assertions=_WalkedSet(m.exe_assertions),
            )
        )
        return loaded[-1]

    monkeypatch.setattr(cli, "parse_file", load)
    assert cli.main(["query", str(path), query, "f"]) == 0
    answer = json.loads(capsys.readouterr().out)
    names = [a["process"] if isinstance(a, dict) else a for a in answer]
    assert (len(names), names) == (100, sorted(names))
    (m,) = loaded
    assert (m.situations.walks, m.exe_assertions.walks) == (1, exe_walks)


@pytest.mark.parametrize(
    "render", [serialize, lambda m: _json_parts(cli.model_to_json(m), "\n", [])]
)
def test_rendering_runs_a_few_lines_per_entry(render):
    """``serialize`` and the writer of ``gfo dump`` (``model_to_json``, then
    ``_json_parts``) render each entry once: the lines of gfo they run grow
    at most 4x (plus 0) when the all-miss family and the realization chain
    grow 4x; together they declare properties, chronoids, presentials,
    processes, continuants, facts, situations, a function and exe pairs.
    Building the view again for each declaration would grow 16x."""
    counts = []
    for n in (50, 200):
        m = parse(serialize(all_miss_model(random.Random(3), n)) + _realization_chain(n))
        counts.append(lines_run(lambda: render(m)))
    assert 0 < counts[0] and counts[1] <= 4 * counts[0], counts


def test_check_integration_mode_flag():
    code, _, _ = run_cli(
        "check", str(CORPUS / "heart.gfo"), "--integration=valuation"
    )
    assert code == 0
    code, _, _ = run_cli(
        "check", str(CORPUS / "heart.gfo"), "--integration", "nonsense"
    )
    assert code == 2


def test_check_json_is_schema_valid(schema):
    for path in corpus_files():
        code, out, _ = run_cli("check", str(path), "--format", "json")
        assert code in (0, 1)
        validate(json.loads(out), schema)


def test_check_json_multiple_inputs(schema):
    code, out, _ = run_cli(
        "check",
        str(CORPUS / "heart.gfo"),
        str(CORPUS / "ball.gfo"),
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    validate(report, schema)
    assert [f["path"] for f in report["files"]] == [
        str(CORPUS / "heart.gfo"),
        str(CORPUS / "ball.gfo"),
    ]


def test_check_unreadable_file_exit_two():
    code, _, err = run_cli("check", "no-such-file.gfo")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["check", "--format", "json"],
        ["dump"],
        ["query", "--realizations", "f"],
    ],
)
def test_a_file_that_is_not_utf8_exits_two_with_one_line(tmp_path, argv):
    bad = tmp_path / "latin1.gfo"
    bad.write_bytes(b"chronoid c = [0, 1];\xff")
    code, out, err = run_cli(*argv[:1], str(bad), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"gfo: cannot read {bad}: ") and err.count("\n") == 1, err


def test_check_multiple_inputs_fail_on_any_parse_error(tmp_path):
    bad = tmp_path / "bad.gfo"
    bad.write_text("presential x at nowhere@0;\n")
    code, _, err = run_cli("check", str(CORPUS / "heart.gfo"), str(bad))
    assert code == 2
    assert "dangling-reference" in err


def test_query_changes_on_presential_exit_two():
    code, _, err = run_cli(
        "query", str(CORPUS / "heart.gfo"), "--changes", "heart_a"
    )
    assert code == 2
    assert "heart_a" in err


def test_parse_failure_reports_diagnostics(tmp_path):
    bad = tmp_path / "bad.gfo"
    bad.write_text("chronoid c = [3,3];\n")
    code, _, err = run_cli("check", str(bad))
    assert code == 2
    assert "zero-duration" in err
    code, out, _ = run_cli("check", str(bad), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["diagnostics"][0]["code"] == "zero-duration"
    assert payload["diagnostics"][0]["line"] == 1


def test_dump_of_overlong_literal_exits_two(tmp_path):
    nines = "9" * 3000
    bad = tmp_path / "long.gfo"
    bad.write_text(f"chronoid c = [0, {nines}.{nines}];\n")
    code, out, err = run_cli("dump", str(bad))
    assert code == 2
    assert "bad-rational" in [d["code"] for d in json.loads(out)["diagnostics"]]
    assert "Traceback" not in err


def test_usage_error_exit_two():
    code, _, _ = run_cli("check")
    assert code == 2
    code, _, _ = run_cli("query", str(CORPUS / "heart.gfo"))
    assert code == 2


def test_query_realizers(tmp_path):
    code, out, _ = run_cli("query", str(CORPUS / "heart.gfo"), "--realizers", "f_pump")
    assert code == 0
    assert json.loads(out) == ["heart"]


def test_query_realizations():
    code, out, _ = run_cli(
        "query", str(CORPUS / "heart.gfo"), "--realizations", "f_pump"
    )
    assert code == 0
    assert json.loads(out) == [
        {
            "process": "blood-movement",
            "requirement_situation": "s_req",
            "goal_situation": "s_goal",
        }
    ]


def test_query_truthmakers():
    code, out, _ = run_cli(
        "query",
        str(CORPUS / "drinking.gfo"),
        "--truthmakers",
        "fact drinks(John, beer)",
    )
    assert code == 0
    assert json.loads(out) == [
        {"fact": "f_jb", "process": "drinking", "situation": "s_drink"}
    ]


def test_query_truthmakers_holds_form():
    code, out, _ = run_cli(
        "query",
        str(CORPUS / "heart.gfo"),
        "--truthmakers",
        "holds(blood, position, in_heart) at 0;",
    )
    assert code == 0
    assert json.loads(out) == [
        {"fact": "f_start", "process": "blood-movement", "situation": "s_req"}
    ]


def test_query_changes_empty_for_constant():
    code, out, _ = run_cli(
        "query", str(CORPUS / "john_paul.gfo"), "--changes", "John"
    )
    assert code == 0
    assert json.loads(out) == []


def test_query_changes_process_with_tolerance():
    code, out, _ = run_cli(
        "query", str(CORPUS / "trajectories.gfo"), "--changes", "pump_run", "--tol", "4"
    )
    assert code == 0
    assert json.loads(out) == [
        {"points": ["1", "5"], "property": "mode"},
        {"points": [], "property": "pressure"},
    ]


def test_query_classify():
    code, out, _ = run_cli(
        "query", str(CORPUS / "ball.gfo"), "--classify", "velocity", "ball_proc"
    )
    assert code == 0
    assert json.loads(out)["support"] == "presenticNonIsolated"


def test_query_malformed_proposition_exit_two():
    code, _, _ = run_cli(
        "query", str(CORPUS / "heart.gfo"), "--truthmakers", "fact drinks(John"
    )
    assert code == 2
    code, _, _ = run_cli(
        "query", str(CORPUS / "heart.gfo"), "--truthmakers", "holds(a, nosuch, b)"
    )
    assert code == 2


def test_query_unknown_function_exit_two():
    code, _, err = run_cli(
        "query", str(CORPUS / "heart.gfo"), "--realizers", "f_nothing"
    )
    assert code == 2
    assert "f_nothing" in err


def test_query_names_an_undeclared_function_and_a_missing_file(tmp_path, capsys):
    heart = str(CORPUS / "heart.gfo")
    assert cli.main(["query", heart, "--realizations", "nosuch"]) == 2
    assert capsys.readouterr() == ("", "gfo: function 'nosuch' is not declared\n")
    missing = tmp_path / "missing.gfo"
    assert cli.main(["query", str(missing), "--realizers", "f_pump"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"gfo: cannot read {missing}: "), err


def test_check_asks_no_process_of_an_immaterial_continuant(tmp_path, capsys):
    """Integration binds material continuants only: the same continuant
    without a process is a violation when material and none when immaterial."""
    hole = tmp_path / "hole.gfo"
    for material, code in (("", 1), (" immaterial", 0)):
        hole.write_text(
            "chronoid life = [0, 1];\n"
            "presential a at life@0 immaterial;\npresential b at life@1 immaterial;\n"
            f"continuant hole lifetime life{material} {{ exhibits 0 -> a; exhibits 1 -> b; }}\n"
        )
        assert cli.main(["check", str(hole)]) == code
        assert ("integration-no-process" in capsys.readouterr().out) == (code == 1)


def test_tol_takes_the_grammars_rational_literal_and_nothing_else(capsys):
    """``--tol`` reads a rational literal as the grammar does; any other
    text, exponents and signs included, is a usage error: exit 2, no traceback."""
    trajectories, heart = str(CORPUS / "trajectories.gfo"), str(CORPUS / "heart.gfo")
    for tol in ("4", "8/2", "4.00"):
        assert cli.main(["query", trajectories, "--changes", "pump_run", "--tol", tol]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"points": ["1", "5"], "property": "mode"},
            {"points": [], "property": "pressure"},
        ]
    texts = ["abc", "1e-3", "1e10000000", "+1", "1/0", " 4", "4;", "9" * 301]
    rejected = {tol: f"{tol!r} is not a rational" for tol in texts}
    rejected["-1/2"] = "tolerance must be non-negative"
    for tol, reason in rejected.items():
        with pytest.raises(SystemExit) as exit:
            cli.main(["check", f"--tol={tol}", heart])
        out, err = capsys.readouterr()
        assert (exit.value.code, out) == (2, "")
        assert err.endswith(f"argument --tol: {reason}\n"), err


def test_query_classify_names_what_is_not_declared(capsys):
    for pair, message in (
        (("nosuch", "ball_proc"), "property 'nosuch' is not declared"),
        (("velocity", "nosuch"), "process 'nosuch' is not declared"),
        # a declared entity of another kind is named as such, not as undeclared
        (("velocity", "ball"), "'ball' is not a process; only process properties are classified"),
    ):
        assert cli.main(["query", str(CORPUS / "ball.gfo"), "--classify", *pair]) == 2
        assert capsys.readouterr() == ("", f"gfo: {message}\n")


def test_query_classify_follows_the_support_table(tmp_path, capsys):
    """On 200 random worlds, every (property, process) pair is classified as
    the three-way table of docs/semantics.md says for the property's support."""
    rng = random.Random(20261021)
    path = tmp_path / "world.gfo"
    seen = set()
    for _ in range(200):
        m = random_full_model(rng)
        path.write_text(serialize(m), encoding="utf-8")
        for prop, pdef in sorted(m.property_defs.items()):
            for pid in sorted(m.processes):
                assert cli.main(["query", str(path), "--classify", prop, pid]) == 0
                support = oracles.SUPPORT_CLASSES[pdef.support.kind]
                answer = {"property": prop, "process": pid, "support": support}
                assert json.loads(capsys.readouterr().out) == answer
                seen.add(support)
    assert seen == set(oracles.SUPPORT_CLASSES.values())


def test_dump_is_deterministic():
    first = run_cli("dump", str(CORPUS / "rationals.gfo"))
    second = run_cli("dump", str(CORPUS / "rationals.gfo"))
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["chronoids"]["fine"] == {"left": "1/3", "right": "2/3"}
    assert payload["presentials"]["tick_a"]["valuation"] == {"level": "1/4"}


def test_color_env_toggles_ansi():
    plain = run_cli("check", str(CORPUS / "john_incomplete.gfo"))
    colored = run_cli(
        "check",
        str(CORPUS / "john_incomplete.gfo"),
        env_extra={"GFO_COLOR": "1"},
    )
    assert "\x1b[31m" not in plain[1]
    assert "\x1b[31m" in colored[1]


_EMIT_JSON = cli._emit_json  # the writer itself, should a test replace it in cli


def _written(payload) -> str:
    """What ``_emit_json`` writes to stdout for ``payload``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _EMIT_JSON(payload)
    return out.getvalue()


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_writer_matches_json_dumps_on_every_corpus_payload(monkeypatch):
    payloads = []
    emit = cli._emit_json

    def recorded(payload):
        payloads.append(payload)
        emit(payload)

    monkeypatch.setattr(cli, "_emit_json", recorded)
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("GFO_COLOR", raising=False)
    for name in ("check-json", "check-complete-valuation-json", "dump"):
        golden._render(name)
    queries = golden._queries()
    kinds = {argv[2] for argv, code, out, err in queries if out}
    assert kinds == {"--realizations", "--realizers", "--changes", "--truthmakers", "--classify"}
    rng = random.Random(golden.MUTATION_SEED)
    for _ in range(50):  # the diagnostics payload of a failed load
        try:
            parse(golden._mutate(rng, (CORPUS / "heart.gfo").read_text())[1])
        except ParseError as exc:
            payloads.append({"diagnostics": [d.to_json() for d in exc.diagnostics]})
    assert len(payloads) > 3 * len(golden.CORPUS) + 100
    for payload in payloads:
        assert _written(payload) == _dumps(payload)


# quotes, backslashes, control characters, DEL, non-ASCII, a line separator
# and a character outside the Basic Multilingual Plane
_JSON_TEXT = 'aZ09 _-/"\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'


def _random_payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(0 if depth < 4 else 4, 10)
    if kind == 0:
        return rng.choice(({}, []))
    if kind == 1:  # a list, or a tuple, which json also lays out as a list
        items = [_random_payload(rng, depth + 1) for _ in range(rng.randint(1, 4))]
        return items if rng.random() < 0.8 else tuple(items)
    if kind in (2, 3):
        return {
            "".join(rng.choices(_JSON_TEXT, k=rng.randint(0, 6))): _random_payload(rng, depth + 1)
            for _ in range(rng.randint(1, 4))
        }
    if kind < 6:
        return "".join(rng.choices(_JSON_TEXT, k=rng.randint(0, 8)))
    if kind == 6:
        return rng.choice((None, True, False))
    if kind == 7:  # negative, and up to 30 digits
        return rng.randint(-(10**30) + 1, 10**30 - 1)
    if kind == 8:
        return rng.choice((0, -1, 1, 10**29, -(10**29)))
    return rng.choice((0.0, -0.0, 1.5, -2.25e-7, 1e300))


def test_json_writer_matches_json_dumps_on_random_payloads():
    rng = random.Random(20261020)
    for n in range(1500):
        payload = {"payload": _random_payload(rng)} if n % 3 else _random_payload(rng)
        assert _written(payload) == _dumps(payload), payload


def test_the_json_writer_holds_one_store_of_a_dump_at_a_time(monkeypatch):
    """``gfo dump`` of 2000 presentials writes each store as it is rendered,
    so the writer's memory peak stays under 4 times the bytes it writes; a
    document joined whole peaks at 7 to 8 times.  The bytes are those of
    ``json.dumps``, compared by digest so that no copy of them is traced."""
    m = parse(worlds._flat_world(random.Random(1), 2000)[0])
    payload = cli.model_to_json(m)
    digest, written = hashlib.sha256(), []
    monkeypatch.setattr(cli, "_write", lambda text: digest.update(text.encode()) or written.append(len(text)))
    tracemalloc.start()
    try:
        cli._emit_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest.hexdigest() == hashlib.sha256(_dumps(payload).encode()).hexdigest()
    assert peak < 4 * sum(written), (peak, sum(written))
    assert len(written) == len(payload) + 1  # an entry a write, then the closing brace


def _closing_world(n: int, loads: bool) -> str:
    """A world whose check report, dump and ``--changes ball`` answer each
    exceed a 64 KiB pipe buffer: ``ball`` changes colour between each two of
    its n + 1 samples, and n more continuants have no process.  Unless ``loads``,
    those n continuants miss an endpoint, so the load fails with n
    diagnostics."""
    lines = [f"chronoid life = [0, {n}];", "property color : categorical { blue, red } isolated;"]
    lines += [f"presential p{k} at life@{k} {{ color = {('red', 'blue')[k % 2]}; }}" for k in range(n + 1)]
    lines.append("continuant ball lifetime life { " + " ".join(f"exhibits {k} -> p{k};" for k in range(n + 1)) + " }")
    end = f" exhibits {n} -> p{n};" if loads else ""
    lines += [f"continuant c{k} lifetime life {{ exhibits 0 -> p0;{end} }}" for k in range(n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, loads, verdict",
    [
        (["check", "--format", "json"], True, 1),
        (["check"], True, 1),
        (["query", "--changes", "ball"], True, 0),
        (["dump"], True, 0),
        (["dump"], False, 2),
    ],
)
def test_a_closed_stdout_ends_quietly_with_the_verdict(tmp_path, argv, loads, verdict):
    path = tmp_path / "world.gfo"
    path.write_text(_closing_world(1500, loads), encoding="utf-8")
    command = [sys.executable, "-m", "gfo", argv[0], str(path), *argv[1:]]
    env = dict(os.environ, GFO_COLOR="0")
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()  # the rest of the output no longer fits the pipe
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (verdict, b"")


def test_the_process_entry_answers_as_main_and_then_freezes_the_collector(capsys):
    """``python -m gfo`` runs ``cli.entry``: ``main``, whose output and exit
    code it keeps, and then ``gc.freeze()``, so that the interpreter's exit
    collections scan nothing (docs/semantics.md)."""
    argv = ["check", str(CORPUS / "heart.gfo"), "--format", "json"]
    code = cli.main(argv)
    expected = capsys.readouterr().out
    probe = "\n".join([
        "import gc, runpy, sys",
        f"sys.path.insert(0, {str(REPO / 'src')!r}); sys.argv = ['gfo', *{argv!r}]",
        "try:",
        "    runpy.run_module('gfo', run_name='__main__', alter_sys=True)",
        "except SystemExit as exit:",
        "    print(exit.code, gc.get_freeze_count() > 0, file=sys.stderr)",
    ])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO)
    assert (done.stdout, done.stderr) == (expected, f"{code} True\n")


def test_a_check_loads_no_rendering_query_parser_or_json():
    """A human-format `gfo check` runs no rendering, query parsing or JSON
    writing, so it imports neither render.py nor query.py nor ``json``; the
    first JSON check, dump and truth-maker query each import what they run,
    and no such first import leaves cyclic garbage.  None of the four loads
    ``dataclasses``.  ``-S`` keeps the interpreter's own ``site`` imports out."""
    heart = str(CORPUS / "heart.gfo")
    commands = [
        ["check", heart],
        ["check", heart, "--format", "json"],
        ["dump", heart],
        ["query", heart, "--truthmakers", "holds(blood, position, in_heart) during [0, 1]"],
    ]
    probe = "\n".join([
        "import gc, sys",
        f"sys.path.insert(0, {str(REPO / 'src')!r})",
        "from gfo import cli",
        "cli.build_arg_parser()  # its first build makes cycles, once",
        "gc.disable(); gc.collect()",
        f"for argv in {commands!r}:",
        "    cli.main(argv)",
        "    names = ('gfo.render', 'gfo.query', 'json', 'dataclasses')",
        "    loaded = [name for name in names if name in sys.modules]",
        "    print(*loaded, gc.collect(), file=sys.stderr)",
    ])
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    expected = ["0", "gfo.render json 0", "gfo.render json 0", "gfo.render gfo.query json 0"]
    assert (done.returncode, done.stderr.splitlines()) == (0, expected), done.stderr


# the gfo modules each entry loads (docs/semantics.md, "Cold start"): a check
# loads `functions` and `truthmakers` only for perfbench's tracer, which looks
# its functions up in the modules loaded
ENTRY_MODULES = {
    "import gfo": ("import gfo", "gfo"),
    "gfo.parse_file": ("import gfo; gfo.parse_file({heart!r})", "gfo chrono dsl errors link model"),
    "gfo check": (
        "sys.argv = ['gfo', 'check', {heart!r}]; from gfo.cli import entry; entry()",
        "gfo checker chrono cli dsl errors functions link model truthmakers",
    ),
}
CHECK_SOURCE_BYTES = 121_624  # what a cold check compiles, as docs/semantics.md states


@pytest.mark.parametrize("entry", ENTRY_MODULES)
def test_each_entry_loads_only_the_modules_it_runs(entry):
    """One fresh ``python -S`` per entry: ``import gfo`` loads no submodule,
    a load only the loader's, and a check exactly its ten modules, whose
    source bytes are the compile guard of a cold start."""
    code, expected = ENTRY_MODULES[entry]
    probe = "; ".join([
        f"import sys; sys.path.insert(0, {str(REPO / 'src')!r})",
        code.format(heart=str(CORPUS / "heart.gfo")),
        "print(*sorted(n for n in sys.modules if n == 'gfo' or n.startswith('gfo.')), file=sys.stderr)",
    ])
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    names = [name.partition(".")[2] or name for name in done.stderr.split()]
    assert names == expected.split(), done.stderr
    if entry == "gfo check":
        files = [REPO / "src" / "gfo" / f"{'__init__' if n == 'gfo' else n}.py" for n in names]
        assert sum(path.stat().st_size for path in files) <= CHECK_SOURCE_BYTES


def test_compiling_each_module_peaks_under_3_mb():
    """Without a bytecode cache every start compiles every module, and the
    compiler's memory peaks near 68 bytes per source byte, so the largest
    module sets a fresh start's high-water (docs/semantics.md, "Cold start")."""
    peaks = {}
    for path in sorted((REPO / "src" / "gfo").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(source, str(path), "exec", dont_inherit=True)
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 3_000_000, peaks


def test_importing_the_cli_loads_no_typing():
    """``typing``, ``dataclasses`` and the ``inspect`` that ``dataclasses``
    imports cost milliseconds of every fresh start, and gfo uses none of them
    on its own: a record loads ``dataclasses`` only when asked for its fields
    or refused a write.  ``-S`` keeps the interpreter's own ``site`` imports out."""
    names = ("typing", "dataclasses", "inspect")
    probe = f"import sys; import gfo.cli; print([n for n in {names!r} if n in sys.modules])"
    code = f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); {probe}"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
