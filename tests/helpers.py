"""Shared test plumbing: corpus paths, CLI runner, statement splitter, line counter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import gfo

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
SCHEMA = REPO / "docs" / "check-report.schema.json"
GFO = os.path.dirname(gfo.__file__)


def corpus_files() -> list:
    files = sorted(CORPUS.glob("*.gfo"))
    assert len(files) >= 10, "corpus shrank below ten files"
    return files


def run_cli(*args: str, env_extra: dict | None = None):
    env = dict(os.environ, GFO_COLOR="0")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "gfo", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def split_statements(text: str) -> list:
    """Split canonical serializer output into top-level statements."""
    statements = []
    current = []
    depth = 0
    for line in text.splitlines():
        current.append(line)
        depth += line.count("{") - line.count("}")
        stripped = line.strip()
        if depth == 0 and (stripped.endswith(";") or stripped.endswith("}")):
            statements.append("\n".join(current))
            current = []
    assert not current, "unterminated trailing statement"
    return statements


def lines_run(call) -> int:
    """The lines of gfo's own modules that ``call()`` runs, each as often as
    it runs (a loop's line once per pass): a deterministic count of its work,
    in which a quadratic loop, comprehension or generator in gfo shows."""
    count = [0]

    def line(frame, event, arg):
        count[0] += event == "line"
        return line

    def enter(frame, event, arg):  # a new frame: its lines count if its code is gfo's
        return line if frame.f_code.co_filename.startswith(GFO) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count[0]
