"""Outside-in tracing of gfo's layers, and the per-layer metrics built on it.

The tracer wraps the public functions that gfo's modules call one another
through.  A wrapper replaces the function object in every gfo module
namespace that holds it (the defining module and each module that imported
the name), so a call made through either name opens a span.  Each span
records its name, start, end, parent span and request id; spans stay in
memory until the run ends.  Nothing inside ``src/gfo`` changes.

A layer's self time is its spans' duration minus the duration of their
direct child spans.  Calls are synchronous on one thread, so children never
overlap and the self times of one request add up to its root span.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager

ROOT = "request"  # span the harness opens around each request

# (defining module, function, layer, value recorded on the span)
TRACED = (
    ("gfo.cli", "run_check", "cli.run", None),
    ("gfo.cli", "run_query", "cli.run", None),
    ("gfo.cli", "run_dump", "cli.run", None),
    ("gfo.cli", "model_to_json", "cli.model_to_json", None),
    ("gfo.dsl", "parse_file", "dsl.parse", None),
    ("gfo.dsl", "parse", "dsl.parse", lambda args, result: len(args[0].encode())),
    ("gfo.dsl", "parse_query", "dsl.parse_query", None),
    ("gfo.dsl", "serialize", "dsl.serialize", None),
    ("gfo.checker", "check_disjointness", "checker.disjointness", None),
    (
        "gfo.checker",
        "check_integration",
        "checker.integration",
        lambda args, result: int(not isinstance(result, list)),  # 1 for a witness
    ),
    ("gfo.checker", "complete_integration", "checker.completion", lambda args, result: len(result[1])),
    ("gfo.checker", "check_presential_dependence", "checker.presential_dependence", None),
    ("gfo.checker", "detect_continuant_changes", "checker.changes", None),
    ("gfo.checker", "detect_process_changes", "checker.changes", None),
    ("gfo.functions", "is_actual_realization", "functions.realization", lambda args, result: int(result is not None)),
    ("gfo.functions", "is_actual_realizer", "functions.realizer", None),
    ("gfo.truthmakers", "find_truthmakers", "truthmakers.find", lambda args, result: len(result)),
)
NAMESPACES = ("gfo", "gfo.cli", "gfo.checker", "gfo.dsl", "gfo.functions", "gfo.truthmakers")

# per-layer metric -> layer whose mean self seconds per request it reports
SECONDS = {
    "dsl.parse_s": "dsl.parse",
    "dsl.serialize_s": "dsl.serialize",
    "cli.model_to_json_s": "cli.model_to_json",
    "cli.self_s": "cli.run",
    "checker.integration_s": "checker.integration",
    "checker.completion_s": "checker.completion",
    "model.with_process_s": "model.with_process",
    "checker.disjointness_s": "checker.disjointness",
    "checker.presential_dependence_s": "checker.presential_dependence",
    "checker.changes_s": "checker.changes",
    "functions.realization_s": "functions.realization",
    "functions.realizer_s": "functions.realizer",
    "truthmakers.find_s": "truthmakers.find",
}
# per-layer metric -> layer whose mean calls per request it reports
CALLS = {
    "checker.integration_calls": "checker.integration",
    "model.with_process_calls": "model.with_process",
    "functions.realization_calls": "functions.realization",
}
# per-layer metric -> layer whose recorded values it sums, per request or per call
VALUES_PER_REQUEST = {
    "checker.completion_derived": "checker.completion",
    "truthmakers.triples": "truthmakers.find",
}
VALUES_PER_CALL = {
    "checker.integration_witness_ratio": "checker.integration",
    "functions.realization_hit_ratio": "functions.realization",
}
# layers whose busy time is fitted against world size on a log-log scale
SLOPES = (
    "dsl.parse",
    "dsl.serialize",
    "cli.model_to_json",
    "checker.integration",
    "checker.completion",
    "functions.realization",
    "functions.realizer",
    "truthmakers.find",
)


class Tracer:
    """Collects spans: [name, start, end, parent index, request id, value]."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = None
        self._stack: list = []

    def call(self, name, fn, measure, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if measure is not None:
            span[5] = measure(args, result)
        return result

    def wrap(self, name, fn, measure=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, measure, args, kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request, value) in enumerate(self.spans):
                record = {"id": index, "parent": parent, "request": request, "name": name,
                          "start": start, "end": end}
                if value is not None:
                    record["value"] = value
                handle.write(json.dumps(record) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Route the calls in ``TRACED`` and ``Model.with_process`` through
    ``tracer`` until the block ends."""
    from gfo.model import Model

    restore = [(Model, "with_process", Model.with_process)]
    Model.with_process = tracer.wrap("model.with_process", Model.with_process)
    for module, attr, layer, measure in TRACED:
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(layer, original, measure)
        for namespace in NAMESPACES:
            mod = sys.modules[namespace]
            for name, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, name, original))
                    setattr(mod, name, wrapper)
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _slope(points) -> float:
    """Least-squares slope of log(busy) on log(size); 0.0 when the layer ran
    on fewer than three requests or on one size only."""
    points = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len(points) < 3:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def summarize(spans, sizes: dict, scale: float = 1.0) -> tuple[dict, dict]:
    """Per-layer metrics and the per-layer share of request time.

    ``sizes`` maps each traced request id to its world's entity count;
    ``scale`` converts measured seconds to reported seconds.  Returns
    (metrics by name, mean self seconds per request by layer, with the
    root's own time under ``ROOT``).
    """
    own = [s * scale for s in self_times(spans)]
    requests = len(sizes)
    seconds: dict = {}
    calls: dict = {}
    values: dict = {}
    busy: dict = {}  # (layer, request) -> self seconds
    total = 0.0
    for (name, start, end, _, request, value), self_s in zip(spans, own):
        seconds[name] = seconds.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if value is not None:
            values[name] = values.get(name, 0) + value
        busy[name, request] = busy.get((name, request), 0.0) + self_s
        if name == ROOT:
            total += (end - start) * scale

    metrics = {name: seconds.get(layer, 0.0) / requests for name, layer in SECONDS.items()}
    parse_s = seconds.get("dsl.parse", 0.0)
    metrics["dsl.parse_bytes_per_s"] = values.get("dsl.parse", 0) / parse_s if parse_s else 0.0
    metrics.update({name: calls.get(layer, 0) / requests for name, layer in CALLS.items()})
    metrics.update(
        {name: values.get(layer, 0) / requests for name, layer in VALUES_PER_REQUEST.items()}
    )
    metrics.update(
        {
            name: values.get(layer, 0) / calls[layer] if calls.get(layer) else 0.0
            for name, layer in VALUES_PER_CALL.items()
        }
    )
    for layer in SLOPES:
        points = [(sizes[r], busy.get((layer, r), 0.0)) for r in sizes]
        metrics[f"{layer}.slope"] = _slope(points)
    metrics["layers.covered_ratio"] = 1 - seconds.get(ROOT, 0.0) / total if total else 0.0
    shares = {name: s / requests for name, s in sorted(seconds.items())}
    return metrics, shares


def unit(metric: str) -> str:
    if metric.endswith("bytes_per_s"):
        return "B/s"
    if metric.endswith("_s"):
        return "s/req"
    if metric in CALLS or metric in VALUES_PER_REQUEST:
        return "count/req"
    return "ratio"
