"""gfo benchmark: seeded closed-loop requests against the gfo CLI.

Run from the root of a checkout (it loads gfo from ./src):

    python3 perfbench/run.py --workload check-integrated --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client on one thread issues one request at a time: a ``gfo.cli.main``
call made in-process with stdout captured, on a world file generated for
that request alone.  Every verdict is compared with the answer the
generator planted.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run of the same requests.  The last
line of stdout is one JSON object; the run exits 1 when any verdict is
wrong and 2 when gfo cannot be loaded.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import spans
import verdicts
import worlds

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench"  # generated worlds and span dumps, relative to ROOT

MIN_REQUESTS = 100  # so that ten samples lie beyond p90
MIN_TRACED = 32  # enough sizes for the slope fits
HARD_STOP_S = 120.0  # stop issuing requests here even below MIN_REQUESTS
SETUP_RUNS = 11
CROSS_CHECK_SLOTS = (0, 2, 4)  # strata 0, 32 and 16 of 128: small worlds
SUBPROCESS_TIMEOUT_S = 60
# On a shared virtual machine the interpreter's speed drifts by 20-40% over
# seconds to minutes, whatever the program does.  A fixed probe of gfo-free
# interpreter work runs before every request, and each request time is scaled
# by the median probe among its PROBE_WINDOW neighbours on either side to the
# speed at which the probe takes PROBE_REF_S.  Raw wall times are printed too.
PROBE_REF_S = 0.006
PROBE_WINDOW = 5
BARE_REF_S = 0.05  # CPU time of a bare interpreter start on a quiet host

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "entities_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_gfo():
    """Import gfo from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "gfo", "cli.py")):
        print(f"perfbench: no src/gfo under {ROOT}; run from a checkout root", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import gfo.cli
    import gfo.dsl

    return gfo.cli, gfo.dsl


def probe() -> float:
    """Seconds for one fixed slice of interpreter work that never touches
    gfo: dict and string building, Fraction arithmetic, sorting, JSON
    encoding and a plain integer loop."""
    start = time.perf_counter()
    table = {f"k{i * 7919 % 1009:04d}": Fraction(i, 7) + i for i in range(1000)}
    json.dumps(sorted((key, str(value)) for key, value in table.items()))
    total = 0
    for i in range(50_000):
        total += i
    return time.perf_counter() - start


def scaled(times, probes) -> list:
    """Each time at reference speed: divided by the median probe among its
    neighbours, times PROBE_REF_S."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out


def spawn(args) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run one fresh ``python <args>`` from the checkout root; returns the
    finished process, its CPU time (user + system) and its wall time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return done, after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime, wall


def measure_setup() -> tuple[float, list]:
    """Set-up time of a fresh ``python -m gfo check`` on a trivial world.

    Each start is paired with a bare ``python -c pass`` start just before
    it, and the median ratio of their CPU times is reported in units of
    BARE_REF_S.  The probe cannot scale a child process, which may run on
    the other core, and the pair's ratio cancels the host's drift.
    """
    path = os.path.join(WORK, "trivial.gfo")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(worlds.TRIVIAL_WORLD)
    ratios, cpus, bares, walls = [], [], [], []
    for _ in range(SETUP_RUNS):
        bare = spawn(["-c", "pass"])[1]
        done, cpu, wall = spawn(["-m", "gfo", "check", path])
        if done.returncode != 0:
            raise RuntimeError(f"trivial world check exited {done.returncode}: {done.stderr!r}")
        ratios.append(cpu / bare)
        cpus.append(cpu)
        bares.append(bare)
        walls.append(wall)
    note = (
        f"setup: median CPU {statistics.median(cpus):.4f} s against a bare start's "
        f"{statistics.median(bares):.4f} s; median wall {statistics.median(walls):.4f} s"
    )
    return statistics.median(ratios) * BARE_REF_S, [note]


class Client:
    """Issues requests in-process and checks each verdict."""

    def __init__(self, cli, dsl, workload: str, seed: int) -> None:
        self.cli, self.dsl = cli, dsl
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.problems: list = []

    def prepare(self, slot: int, seed=None):
        req = worlds.request(self.workload, self.seed if seed is None else seed, slot)
        path = os.path.join(WORK, req.name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(req.text)
        return req, path

    def warm_up(self) -> None:
        """One uncounted request, on a world of another seed."""
        self.send(*self.prepare(0, seed=-1 - self.seed))
        self.attempted, self.problems = 0, []

    def _serve(self, req, path):
        try:
            code = self.cli.main(req.argv(path))
        except SystemExit as exc:  # argparse exits where main would return
            code = exc.code
        if req.kind != "dump":
            return code, None
        # load-dump requests also make a library serialize -> parse round trip
        before = self.dsl.parse_file(path)
        return code, before == self.dsl.parse(self.dsl.serialize(before))

    def send(self, req, path, tracer=None):
        """One request, inside a root span when ``tracer`` is given; returns
        (seconds, stdout), or None when it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                if tracer is None:
                    code, same = self._serve(req, path)
                else:
                    code, same = tracer.call(spans.ROOT, self._serve, None, (req, path), {})
                seconds = time.perf_counter() - start
        except Exception:  # a crash is a failed request, not a failed harness
            self.problems.append(f"{req.name}: {traceback.format_exc(limit=3)}")
            return None
        problems = verdicts.check(req, code, out.getvalue())
        if same is False:
            problems.append("serialize -> parse round trip changed the store")
        if problems:
            self.problems.append(f"{req.name} {req.args}: {'; '.join(problems)}")
            return None
        return seconds, out.getvalue()


def _quantiles(values):
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def run_untraced(client: Client, seconds: float) -> tuple[dict, list]:
    """The closed loop: requests until ``seconds`` have passed and at least
    MIN_REQUESTS were sent, then the fresh-process cross-check."""
    setup_s, notes = measure_setup()
    client.warm_up()
    walls, probes, entities, outputs = [], [], 0, {}
    start = time.perf_counter()
    slot = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and slot >= MIN_REQUESTS):
            break
        req, path = client.prepare(slot)
        speed = probe()
        result = client.send(req, path)
        if result is not None:
            walls.append(result[0])
            probes.append(speed)
            entities += req.entities
            if slot in CROSS_CHECK_SLOTS:
                outputs[slot] = (req, path, result[1])
        slot += 1
    for slot, (req, path, stdout) in sorted(outputs.items()):
        done = spawn(["-m", "gfo", *req.argv(path)])[0]
        if done.returncode != req.expected_code or done.stdout != stdout.encode():
            client.problems.append(f"{req.name}: fresh process differs from in-process call")
    if len(walls) < 2:
        raise RuntimeError(f"only {len(walls)} requests succeeded")
    latencies = scaled(walls, probes)
    p50, p90 = _quantiles(latencies)
    wall_p50, wall_p90 = _quantiles(walls)
    notes += [
        f"{len(walls)} requests measured of {client.attempted} sent",
        f"fresh-process cross-check on {len(outputs)} requests",
        f"wall clock: p50 {wall_p50:.4f} s, p90 {wall_p90:.4f} s; median probe "
        f"{statistics.median(probes) * 1e3:.3f} ms (reference {PROBE_REF_S * 1e3:g} ms)",
    ]
    metrics = {
        "setup_s": setup_s,
        "request_p50_s": p50,
        "request_p90_s": p90,
        "entities_per_s": entities / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def run_traced(client: Client, seconds: float) -> tuple[dict, list]:
    """Each request once untraced and once traced, on the same file."""
    tracer = spans.Tracer()
    client.warm_up()
    plain = traced = 0.0
    sizes, probes = {}, []
    start = time.perf_counter()
    slot = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and slot >= MIN_TRACED):
            break
        req, path = client.prepare(slot)
        probes.append(probe())
        tracer.request = slot

        def send_traced():
            with spans.installed(tracer):
                return client.send(req, path, tracer)

        # alternate which copy goes first, so neither always meets cold caches
        if slot % 2:
            with_spans, without = send_traced(), client.send(req, path)
        else:
            without, with_spans = client.send(req, path), send_traced()
        if without is not None and with_spans is not None:
            plain += without[0]
            traced += with_spans[0]
            sizes[slot] = req.entities
        slot += 1
    if not sizes:
        raise RuntimeError("no traced request succeeded")
    kept = [s for s in tracer.spans if s[4] in sizes]
    metrics, shares = spans.summarize(kept, sizes, PROBE_REF_S / statistics.median(probes))
    metrics["trace_overhead_ratio"] = traced / plain if plain else 0.0
    dump = os.path.join(WORK, f"spans-{client.workload}-{client.seed}.jsonl")
    tracer.dump(dump)
    per_request = sum(shares.values())
    notes = [f"{len(sizes)} requests traced; spans in {dump}"]
    notes.append("self time per request by layer:")
    for name, s in sorted(shares.items(), key=lambda kv: -kv[1]):
        label = "other (argparse, harness, unwrapped code)" if name == spans.ROOT else name
        notes.append(f"  {label:44s} {s * 1e3:10.3f} ms  {100 * s / per_request:5.1f}%")
    return {k: (v, spans.unit(k)) for k, v in metrics.items()}, notes


def run_one(cli, dsl, workload: str, seed: int, seconds: float, trace: bool):
    client = Client(cli, dsl, workload, seed)
    if trace:
        metrics, notes = run_traced(client, seconds)
    else:
        metrics, notes = run_untraced(client, seconds)
    for note in notes:
        print(f"[{workload} seed={seed} trace={int(trace)}] {note}")
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {name} = {value:.6g} {unit}")
    failed = len(client.problems)
    print(f"[{workload}] error_ratio = {failed / max(client.attempted, 1):.6g}")
    for problem in client.problems[:10]:
        print(f"[{workload}] WRONG: {problem}")
    return client.attempted, failed, metrics


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each run in a process of its own
    so that none inherits another's peak RSS, caches or wrappers."""
    attempted = failed = 0
    result = {}
    for workload in worlds.GENERATORS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=HARD_STOP_S + 120,
            )
            lines = done.stdout.splitlines()
            if done.returncode not in (0, 1) or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode or 1
            print("\n".join(lines[:-1]))
            summary = json.loads(lines[-1])
            attempted += summary["attempted"]
            failed += summary["failed"]
            result.update({f"{workload}.{k}": v for k, v in summary["metrics"].items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*worlds.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli, dsl = load_gfo()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    os.makedirs(WORK, exist_ok=True)
    attempted, failed, metrics = run_one(cli, dsl, args.workload, args.seed, args.seconds, bool(args.trace))
    for name in os.listdir(WORK):
        if name.endswith(".gfo"):
            os.remove(os.path.join(WORK, name))
    correct = failed == 0 and attempted > 0
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
