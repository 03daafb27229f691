"""Metamorphic laws over the corpus and random worlds.

For every model and in both integration modes, completing a completed
model derives nothing, the completed model survives serialize -> parse
unchanged, and every material continuant in it has an integration witness.
A random world built in code and its serialize -> parse twin answer every
check and query alike, although only the parsed twin's coordinates are
``chrono.Time`` values.  Shuffling the top-level declarations of a
source changes neither the parsed model nor any answer, and shuffling the
entries inside its blocks changes neither rendering.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from genmodels import random_full_model, random_realization_model
from gfo.checker import (
    IDENTITY,
    VALUATION,
    IntegrationWitness,
    check_integration,
    complete_integration,
    detect_continuant_changes,
    detect_process_changes,
)
from gfo.cli import model_to_json
from gfo.dsl import parse, parse_file, serialize
from gfo.functions import is_actual_realization
from helpers import corpus_files, split_statements

RANDOM_SEED = 20261019
RANDOM_WORLDS = 200


def _models():
    for path in corpus_files():
        yield str(path), parse_file(path)
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_WORLDS):
        yield f"random #{i}", random_full_model(rng)


@pytest.mark.parametrize("mode", [IDENTITY, VALUATION])
def test_completion_is_idempotent_reparses_and_integrates(mode):
    derived_total = 0
    for name, m in _models():
        completed, derived = complete_integration(m, mode)
        derived_total += len(derived)
        assert complete_integration(completed, mode)[1] == [], name
        assert parse(serialize(completed)) == completed, name
        for c in completed.continuants.values():
            if c.material:
                witness = check_integration(completed, c, mode)
                assert isinstance(witness, IntegrationWitness), (name, c.id)
    assert derived_total > 0  # the laws were tested on models completion changed


def _answers(m) -> list:
    """Every check and query answer of ``m``, in a fixed order."""
    out = [json.dumps(model_to_json(m), sort_keys=True)]  # as `gfo dump` emits it
    for mode in (IDENTITY, VALUATION):
        completed, derived = complete_integration(m, mode)
        out += [serialize(completed), derived]
        out += [check_integration(m, m.continuants[cid], mode) for cid in sorted(m.continuants)]
    for cid in sorted(m.continuants):
        out.append(detect_continuant_changes(m, m.continuants[cid]))
    for pid in sorted(m.processes):
        p = m.processes[pid]
        for prop in sorted(p.trajectories):
            for tol in (0, Fraction(1, 2)):
                out.append(detect_process_changes(m, p, prop, tol))
        for fid in sorted(m.functions):
            out.append(is_actual_realization(p, m.functions[fid], m))
    return out


def test_built_and_parsed_coordinates_give_the_same_answers():
    # the crowded realization worlds add realizations, which full worlds lack
    rng = random.Random(20261018)
    seen = Counter()
    for make, count in ((random_full_model, RANDOM_WORLDS), (random_realization_model, 100)):
        for i in range(count):
            built = make(rng)
            expected, got = _answers(built), _answers(parse(serialize(built)))
            assert got == expected, (make.__name__, i)
            assert repr(got) == repr(expected), (make.__name__, i)
            for answer in expected:
                seen[type(answer).__name__, bool(answer)] += 1
    assert min(seen.values()) >= 100, seen  # every kind of answer, empty and not


def test_declaration_order_changes_no_answer():
    """Reordering the top-level declarations of a source changes neither the
    parsed model nor any answer: a parsed store's dict order follows the
    source, so an answer that leaks store order fails here."""
    rng = random.Random(20261020)
    models = [(str(path), parse_file(path)) for path in corpus_files()]
    for make, count in ((random_full_model, RANDOM_WORLDS), (random_realization_model, 100)):
        models += [(f"{make.__name__} #{i}", make(rng)) for i in range(count)]
    for name, m in models:
        text = serialize(m)
        twin = parse(text)
        expected = _answers(twin)
        declarations = split_statements(text)
        for order in range(3):
            rng.shuffle(declarations)
            shuffled = parse("\n".join(declarations) + "\n")
            assert shuffled == twin, (name, order)
            got = _answers(shuffled)
            assert got == expected, (name, order)
            assert repr(got) == repr(expected), (name, order)


def _shuffled(lines: list, rng: random.Random) -> list:
    """The entries of canonical ``lines`` in a random order, and the entries
    inside every block among them too.  An entry is a line, or a line that
    opens a block with its entries and the line that closes it."""
    entries, i = [], 0
    while i < len(lines):
        line = lines[i]
        if line.endswith("{"):
            end = lines.index(line[: len(line) - len(line.lstrip())] + "}", i + 1)
            entries.append([line, *_shuffled(lines[i + 1 : end], rng), lines[end]])
            i = end + 1
        else:
            entries.append([line])
            i += 1
    rng.shuffle(entries)
    return [line for entry in entries for line in entry]


def test_entry_order_inside_blocks_changes_no_rendering():
    """Boundaries, trajectories and their samples, exhibits, valuations,
    situation members, function parts, concept items and fitem entries may
    come in any order: ``serialize`` and ``dump`` do not show it."""
    rng = random.Random(20261021)
    models = [(str(path), parse_file(path)) for path in corpus_files()]
    for make, count in ((random_full_model, RANDOM_WORLDS), (random_realization_model, 100)):
        models += [(f"{make.__name__} #{i}", make(rng)) for i in range(count)]
    for name, m in models:
        text = serialize(m)
        dump = json.dumps(model_to_json(m), sort_keys=True)
        for order in range(3):
            lines = []
            for declaration in split_statements(text):
                head, *rest = declaration.split("\n")
                lines += [head, *_shuffled(rest[:-1], rng), *rest[-1:]]
            shuffled = parse("\n".join(lines) + "\n")
            assert serialize(shuffled) == text, (name, order)
            assert json.dumps(model_to_json(shuffled), sort_keys=True) == dump, (name, order)
