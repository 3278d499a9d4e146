"""The seeded random generators draw exactly what they always drew.

Seeded suites (the acceptance criteria, `reproduce cor-half`) are pinned by
their seeds, so a change to how a generator is written must leave every
draw, and the order of its RNG calls, as it was.
"""

import hashlib
import json
import random

import pytest

from delegation_lab.instances import instance_to_json
from delegation_lab.random_instances import (
    random_free_outer_instance,
    random_matroid_outer_instance,
    random_partition_outer_instance,
    random_tiny_instance,
)

# sha256 of the canonical JSON list of the first 30 instances at seed 0
DRAWS = {
    random_free_outer_instance: (
        "6b5d69bc755c2b1b58c1938fee05788f50218c6f57515d5fce48cee7da7c00eb"
    ),
    random_partition_outer_instance: (
        "bc7bfdafc67d7ca9d99c0147eca411309b96adc982f2fcf3f3c48a7707f3d942"
    ),
    random_matroid_outer_instance: (
        "6c6e914addf1df9b01cfbc15600e0cdc03181b0f7f10914994c59e46eb646ca1"
    ),
    random_tiny_instance: (
        "29d47b5994cbb9b0c67b978c52d23833ea288c1a81b0f9d1155c9c00318f0521"
    ),
}


@pytest.mark.parametrize(
    "generator, digest", DRAWS.items(), ids=[g.__name__ for g in DRAWS]
)
def test_generator_draws_are_unchanged(generator, digest):
    rng = random.Random(0)
    drawn = [instance_to_json(generator(rng)) for _ in range(30)]
    blob = json.dumps(drawn, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
