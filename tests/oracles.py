"""Brute-force reference implementations used to cross-check the library.

Everything here re-derives its answer from the raw model data by exhaustive
enumeration; nothing calls the checking or query layers it verifies.
"""

from __future__ import annotations

import re
from fractions import Fraction

from gfo.chrono import TimeBoundary
from gfo.dsl import ParseDiagnostic, SourceSpan
from gfo.model import CATEGORICAL, Process
from gfo.truthmakers import AtTime, HoldsProp

WILDCARD = "_"


# the token classes of docs/grammar.md, "Lexical structure", in the order of
# its table; where none of them matches, a bad run starts
TOKEN_CLASSES = (
    ("ident", re.compile(r"[A-Za-z_][A-Za-z0-9_]*(-[A-Za-z0-9_]+)*")),
    ("number", re.compile(r"-?[0-9]+([./][0-9]+)?")),
    ("punct", re.compile(r"->|[=;,(){}\[\]@:]")),
    ("string", re.compile(r'"(?P<body>([^"\\\n]|\\[\s\S])*(\\\Z)?)(?P<closed>")?')),
)
BLANKS = " \t\r\n"
LITERAL_DIGITS = 300  # docs/grammar.md: a literal holds at most 300 digits
LIMIT = f"a rational literal has at most {LITERAL_DIGITS}"
ESCAPES = {"n": "\n", "t": "\t"}


def _skip(source, at):
    """The offset after the blanks and ``//`` comments from ``at`` on."""
    while True:
        while at < len(source) and source[at] in BLANKS:
            at += 1
        if not source.startswith("//", at):
            return at
        end = source.find("\n", at)
        at = len(source) if end < 0 else end


def _token_at(source, at):
    """``(kind, match)`` of the first class that matches at ``at``, or None."""
    for kind, pattern in TOKEN_CLASSES:
        fit = pattern.match(source, at)
        if fit:
            return kind, fit
    return None


def _literal(text):
    """A rational literal's value and the reason it is bad, or None."""
    digits = sum(c.isdigit() for c in text)
    if digits > LITERAL_DIGITS:
        return 0, f"{text[:20]!r}... has {digits} digits; {LIMIT}"
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        return 0, f"{text!r} is not a valid rational literal"
    digits = sum(c.isdigit() for c in str(value))  # the literal's canonical p/q text
    if digits > LITERAL_DIGITS:
        return 0, f"{text[:20]!r}... has {digits} digits as p/q; {LIMIT}"
    return value, None


def tokens(source, file):
    """``(tokens, diagnostics)`` of the lexer on ``source``: each token, a bad
    run's too (an unclosed string is one), as a ``(kind, text, value, line,
    column)`` tuple, its line counted from the newlines before it and its
    value computed afresh for every literal.

    It splits the source by docs/grammar.md alone: at each offset it skips
    blanks and comments, then takes the first class of the table that
    matches there; where none does, a bad run goes on up to the next blank,
    comment or token start."""
    out, diagnostics, at = [], [], 0
    while True:
        start = _skip(source, at)
        found = _token_at(source, start) if start < len(source) else ("eof", None)
        if found is None:
            at = start + 1
            while at < len(source) and not (
                source[at] in BLANKS or source.startswith("//", at) or _token_at(source, at)
            ):
                at += 1
            kind, text = "bad", source[start:at]
        else:
            kind, fit = found
            at = fit.end() if fit else start
            text = source[start:at]
        line = source.count("\n", 0, start) + 1
        column = start - (source.rfind("\n", 0, start) + 1) + 1
        value, error, code, length = text, None, "unexpected-token", len(text)
        if kind == "number":
            value, error = _literal(text)
            code = "bad-rational"
        elif kind == "string":
            value = re.sub(r"\\([\s\S])", lambda e: ESCAPES.get(e[1], e[1]), fit["body"])
            if fit["closed"] is None:  # a bad run, its value its text
                kind, value, error, length = "bad", text, "unterminated string literal", 1
        elif kind == "bad":
            plural = "s" if len(text) > 1 else ""
            error = f"unexpected character{plural} {text[:20]!r}" + ("..." if len(text) > 20 else "")
        elif kind == "eof":
            value = None
        if error:
            diagnostics.append(ParseDiagnostic(SourceSpan(file, line, column, length), code, error))
        out.append((kind, text, value, line, column))
        if kind == "eof":
            return out, diagnostics


# the five individual kinds, in the order a disjointness message names them
KIND_STORES = (
    ("continuant", "continuants"),
    ("presential", "presentials"),
    ("process", "processes"),
    ("situation", "situations"),
    ("fact", "facts"),
)


def disjointness_violations(m):
    """``(id, message)`` for every id declared under more than one
    individual kind, in id order, found by testing every id of every store
    against every store."""
    ids = {eid for _, store in KIND_STORES for eid in getattr(m, store)}
    out = []
    for eid in sorted(ids):
        kinds = [kind for kind, store in KIND_STORES if eid in list(getattr(m, store))]
        if len(kinds) > 1:
            out.append((eid, f"{eid!r} is declared as {' and '.join(kinds)}"))
    return out


def integration_candidates(m, c, identity=True):
    """Ids of processes that integrate continuant ``c``, by scanning every
    (process, sample) pair."""
    good = []
    for pid, p in m.processes.items():
        if p.extent.left != c.lifetime.left or p.extent.right != c.lifetime.right:
            continue
        if set(p.boundary_map) != set(c.exhibit_map):
            continue
        ok = True
        for t in c.exhibit_map:
            exhibited = c.exhibit_map[t]
            bounded = p.boundary_map[t]
            if identity:
                if exhibited != bounded:
                    ok = False
                    break
            else:
                pa = m.presentials.get(exhibited)
                pb = m.presentials.get(bounded)
                if (
                    pa is None
                    or pb is None
                    or pa.at.coordinate != pb.at.coordinate
                    or pa.valuation != pb.valuation
                ):
                    ok = False
                    break
        if ok:
            good.append(pid)
    return sorted(good)


def integration_closest(m, c, identity=True):
    """``(process id, mismatch count)`` of the process closest to
    integrating ``c``, smallest by (count, id); None without processes.

    A process scores one mismatch for a differing extent and one for every
    coordinate in the union of both sample grids where either side has no
    sample or the two presentials do not match.
    """
    best = None
    for pid, p in m.processes.items():
        count = int(
            p.extent.left != c.lifetime.left or p.extent.right != c.lifetime.right
        )
        for t in set(c.exhibit_map) | set(p.boundary_map):
            if t not in c.exhibit_map or t not in p.boundary_map:
                count += 1
                continue
            exhibited = c.exhibit_map[t]
            bounded = p.boundary_map[t]
            if identity:
                count += exhibited != bounded
            else:
                pa = m.presentials.get(exhibited)
                pb = m.presentials.get(bounded)
                count += (
                    pa is None
                    or pb is None
                    or pa.at.coordinate != pb.at.coordinate
                    or pa.valuation != pb.valuation
                )
        if best is None or (count, pid) < (best[1], best[0]):
            best = (pid, count)
    return best


def complete_sequentially(m, mode):
    """Completion one process at a time: for each material continuant, in
    id order, that no process of the growing model integrates, mint
    ``<cid>-proc`` (or the first free ``<cid>-proc-<n>``), add it with
    ``with_process`` and go on.  Returns (completed model, derived ids)."""
    derived = []
    for cid in sorted(m.continuants):
        c = m.continuants[cid]
        if not c.material or integration_candidates(m, c, mode == "identity"):
            continue
        pid, n = f"{cid}-proc", 2
        while m.has_id(pid):
            pid, n = f"{cid}-proc-{n}", n + 1
        m = m.with_process(Process(pid, c.lifetime, dict(c.exhibit_map)))
        derived.append(pid)
    return m, derived


def presential_dependence_violations(m):
    """``(subjects, at, message)`` for every material presential that is a
    boundary of no process, in id order, found by scanning every process's
    boundary map for each presential."""
    out = []
    for pid in sorted(m.presentials):
        pres = m.presentials[pid]
        bounded = any(pid in p.boundary_map.values() for p in m.processes.values())
        if pres.material and not bounded:
            message = f"material presential {pid!r} is not a boundary of any process"
            out.append(((pid,), pres.at.coordinate, message))
    return out


# the answer of `gfo query --classify` for each declared support: the
# three-way table of docs/semantics.md, "Truth-makers"
SUPPORT_CLASSES = {
    "isolated": "presenticIsolated",
    "nonisolated": "presenticNonIsolated",
    "global": "global",
}


def _time_ok(situation, time_ref) -> bool:
    if time_ref is None:
        return True
    presentic = isinstance(situation.extent, TimeBoundary)
    if isinstance(time_ref, AtTime):
        return presentic and situation.extent.coordinate == time_ref.coordinate
    if presentic:
        return time_ref.left <= situation.extent.coordinate <= time_ref.right
    return (
        time_ref.left <= situation.extent.left
        and situation.extent.right <= time_ref.right
    )


def truthmaker_triples(m, prop):
    """All satisfying (process, situation, fact) id triples over the full
    triple space."""
    out = []
    for pid in m.processes:
        for sid, s in m.situations.items():
            if s.founded_on != pid:
                continue
            for fid in s.constituents:
                fact = m.facts.get(fid)
                if fact is None:
                    continue
                if not _time_ok(s, prop.time_ref):
                    continue
                if isinstance(prop, HoldsProp):
                    ok = (
                        fact.relator == prop.prop
                        and len(fact.args) == 2
                        and fact.args == (prop.subject, prop.value)
                    )
                else:
                    ok = (
                        fact.relator == prop.relator
                        and len(fact.args) == len(prop.patterns)
                        and all(
                            pat == WILDCARD or pat == arg
                            for pat, arg in zip(prop.patterns, fact.args)
                        )
                    )
                if ok:
                    out.append((pid, sid, fid))
    return sorted(out)


def continuant_change_pairs(m, c):
    """Pairwise diff of the full valuation maps of consecutive snapshots."""
    keys = sorted(c.exhibit_map)
    out = []
    for i in range(len(keys) - 1):
        t1, t2 = keys[i], keys[i + 1]
        v1 = dict(m.presentials[c.exhibit_map[t1]].valuation)
        v2 = dict(m.presentials[c.exhibit_map[t2]].valuation)
        for prop in sorted(set(v1) | set(v2)):
            if v1.get(prop) != v2.get(prop):
                out.append((t1, t2, prop, v1.get(prop), v2.get(prop)))
    return out


def trajectory_change_points(m, p, prop, tol):
    """Midpoints of the neighbouring samples of ``prop`` on ``p`` whose values
    differ: any inequality for a categorical property, ``|v2 - v1| > tol``
    for a numeric one.  Two declared samples are neighbours when no declared
    sample lies strictly between them."""
    samples = p.trajectories[prop]
    categorical = m.property_defs[prop].domain.kind == CATEGORICAL
    out = []
    for t1, v1 in samples:
        for t2, v2 in samples:
            if t2 <= t1 or any(t1 < t < t2 for t, _ in samples):
                continue
            if (v1 != v2) if categorical else (abs(v2 - v1) > tol):
                out.append((t1 + t2) / 2)
    return sorted(out)


def concept_holds(m, s, concept) -> bool:
    """Whether situation ``s`` satisfies ``concept``: every fact pattern
    matches a constituent, and every property constraint holds for its
    participant at every declared sample of it in the situation's extent.
    A presentic situation's extent is its one coordinate; a situoid with no
    sample of the participant inside satisfies the constraint vacuously."""
    facts = [m.facts[fid] for fid in s.constituents if fid in m.facts]
    for pat in concept.required_facts:
        hit = False
        for fact in facts:
            if fact.relator != pat.relator or len(fact.args) != len(pat.args):
                continue
            if all(x == WILDCARD or x == y for x, y in zip(pat.args, fact.args)):
                hit = True
                break
        if not hit:
            return False
    for pc in concept.required_props:
        if pc.entity not in s.participants:
            return False
        if pc.entity in m.presentials:
            samples = {m.presentials[pc.entity].at.coordinate: pc.entity}
        elif pc.entity in m.continuants:
            samples = m.continuants[pc.entity].exhibit_map
        elif pc.entity in m.processes:
            samples = m.processes[pc.entity].boundary_map
        else:
            return False  # only individuals present property values
        if isinstance(s.extent, TimeBoundary):
            times = [s.extent.coordinate]
        else:
            times = [t for t in samples if s.extent.left <= t <= s.extent.right]
        for t in times:
            pres = m.presentials.get(samples.get(t))
            if pres is None or pres.valuation.get(pc.prop) != pc.value:
                return False
    return True


def realization_pairs(m, p, f):
    """All (requirement sid, goal sid) pairs that realize ``f`` on ``p``,
    lexicographically sorted."""
    pairs = []
    for req_sid, req in m.situations.items():
        if not isinstance(req.extent, TimeBoundary):
            continue
        if req.extent.coordinate != p.extent.left:
            continue
        if not concept_holds(m, req, f.req):
            continue
        for goal_sid, goal in m.situations.items():
            if not isinstance(goal.extent, TimeBoundary):
                continue
            if goal.extent.coordinate != p.extent.right:
                continue
            if not concept_holds(m, goal, f.goal):
                continue
            pairs.append((req_sid, goal_sid))
    return sorted(pairs)


def realizers(m, f):
    """Sorted ids of the executors of some declared process that has a
    realization pair for ``f``."""
    return sorted(
        {
            x
            for x, pid in m.exe_assertions
            if pid in m.processes and realization_pairs(m, m.processes[pid], f)
        }
    )


def universal_realization(m, process_ids, f):
    """``(verdict, diagnostics)`` for the category ``process_ids`` against
    ``f``: each member must have a realization pair, and the requirement
    situations of the members' smallest pairs must cover every declared
    requirement instance of ``f``."""
    diagnostics, covered = [], set()
    for pid in sorted(process_ids):
        pairs = realization_pairs(m, m.processes[pid], f)
        if pairs:
            covered.add(pairs[0][0])
        else:
            diagnostics.append(f"process {pid!r} is not a realization of {f.id!r}")
    for sid in sorted(m.requirement_instances.get(f.id, ())):
        if sid not in covered:
            diagnostics.append(f"requirement instance {sid!r} is not covered")
    return not diagnostics, diagnostics
