"""Compare a request's exit code and stdout with its planted verdict."""

from __future__ import annotations

import json


def _check_report(report: dict) -> dict:
    """The parts of a one-file ``gfo check --format json`` report that the
    generators plant: subjects per axiom, derived ids, change points."""
    (file_report,) = report["files"]
    return {
        "entities": file_report["entities"],
        "samples": file_report["samples"],
        "violations": sorted(
            (v["axiom"], tuple(v["subjects"]), v.get("at"))
            for v in file_report["violations"]
        ),
        "derived_processes": file_report["derived_processes"],
        "continuant_changes": [
            (c["id"], c["changes"]) for c in file_report["changes"]["continuants"]
        ],
        "trajectories": [
            (t["id"], t["property"], t["points"])
            for t in file_report["changes"]["trajectories"]
        ],
    }


def check(request, code: int, stdout: str) -> list[str]:
    """Problems with one response; an empty list means the verdict is right."""
    if code != request.expected_code:
        return [f"exit code {code}, expected {request.expected_code}"]
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if request.kind == "check":
        if payload.get("total_violations") != len(request.expected["violations"]):
            return [f"total_violations {payload.get('total_violations')}"]
        got = _check_report(payload)
        return [
            f"{key}: got {got[key]!r}, planted {want!r}"
            for key, want in request.expected.items()
            if got[key] != want
        ]
    if payload != request.expected:
        return [f"{request.kind} output differs from the planted answer"]
    return []
