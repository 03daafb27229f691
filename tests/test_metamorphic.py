"""Metamorphic laws of integration completion, over the corpus and random worlds.

For every model and in both integration modes, completing a completed
model derives nothing, the completed model survives serialize -> parse
unchanged, and every material continuant in it has an integration witness.
"""

import random

import pytest

from genmodels import random_full_model
from gfo.checker import IDENTITY, VALUATION, IntegrationWitness, check_integration, complete_integration
from gfo.dsl import parse, parse_file, serialize
from helpers import corpus_files

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
