"""Seeded random instance suites used by the verification runs.

Agent utilities are drawn strictly positive: with zero-utility outcomes an
adversarially tie-breaking agent may propose nothing, and no mechanism can
then be held to a fraction of the benchmark.  Principal utilities may be
zero.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .instances import Instance, UtilityAtom, make_instance
from .prophet import GreedyFamily, candidate_pair_sets, greedy_family
from .set_systems import FreeSystem, PartitionSystem, SetSystem, UniformSystem

_DENOMINATORS = (1, 2, 3, 4)


def _fraction(rng: random.Random, max_value: int, positive: bool) -> Fraction:
    den = rng.choice(_DENOMINATORS)
    low = 1 if positive else 0
    return Fraction(rng.randint(low, max_value * den), den)


def _support(
    rng: random.Random, size: int, max_value: int, positive_y: bool
) -> list[UtilityAtom]:
    weights = [rng.randint(1, 5) for _ in range(size)]
    total = sum(weights)
    return [
        UtilityAtom(
            x=_fraction(rng, max_value, positive=False),
            y=_fraction(rng, max_value, positive=positive_y),
            prob=Fraction(w, total),
        )
        for w in weights
    ]


def _elements(rng: random.Random, max_elements: int, min_elements: int) -> list[str]:
    n = rng.randint(min_elements, max_elements)
    return [f"e{i}" for i in range(1, n + 1)]


def random_free_outer_instance(
    rng: random.Random,
    max_elements: int = 4,
    max_support: int = 3,
    max_value: int = 10,
    positive_y: bool = True,
) -> Instance:
    """1-uniform inner constraint, no outer constraint."""
    elements = _elements(rng, max_elements, 1)
    ground = frozenset(elements)
    dists = {
        e: _support(rng, rng.randint(1, max_support), max_value, positive_y)
        for e in elements
    }
    return make_instance(
        elements, dists, FreeSystem(ground), UniformSystem(ground, 1)
    )


def _random_partition(rng: random.Random, elements: list[str]) -> PartitionSystem:
    shuffled = list(elements)
    rng.shuffle(shuffled)
    n_blocks = rng.randint(1, min(3, len(elements)))
    cuts = sorted(rng.sample(range(1, len(elements)), n_blocks - 1)) if n_blocks > 1 else []
    blocks = []
    start = 0
    for cut in cuts + [len(elements)]:
        blocks.append(frozenset(shuffled[start:cut]))
        start = cut
    caps = tuple(rng.randint(1, len(b)) for b in blocks)
    return PartitionSystem(frozenset(elements), tuple(blocks), caps)


def random_partition_outer_instance(
    rng: random.Random,
    max_elements: int = 4,
    max_support: int = 3,
    max_value: int = 10,
) -> Instance:
    """Partition-matroid outer constraint (at most 3 blocks), 1-uniform inner."""
    elements = _elements(rng, max_elements, 2)
    ground = frozenset(elements)
    dists = {
        e: _support(rng, rng.randint(1, max_support), max_value, True)
        for e in elements
    }
    return make_instance(
        elements, dists, _random_partition(rng, elements), UniformSystem(ground, 1)
    )


def random_matroid_outer_instance(
    rng: random.Random,
    max_elements: int = 4,
    max_support: int = 3,
    max_value: int = 10,
) -> Instance:
    """Uniform or partition matroid outer constraint, 1-uniform inner."""
    elements = _elements(rng, max_elements, 2)
    ground = frozenset(elements)
    dists = {
        e: _support(rng, rng.randint(1, max_support), max_value, True)
        for e in elements
    }
    outer: SetSystem
    if rng.random() < 0.5:
        outer = UniformSystem(ground, rng.randint(1, len(elements)))
    else:
        outer = _random_partition(rng, elements)
    return make_instance(elements, dists, outer, UniformSystem(ground, 1))


def random_greedy_family(rng: random.Random, instance: Instance) -> GreedyFamily:
    """Downward closure of a random sample of feasible realizable outcome sets."""
    candidates = candidate_pair_sets(instance)
    if not candidates:
        return greedy_family([], instance.inner)
    count = rng.randint(0, len(candidates))
    return greedy_family(rng.sample(candidates, count), instance.inner)


def random_tiny_instance(rng: random.Random, max_value: int = 10) -> Instance:
    """At most 3 realizable outcomes and 1-uniform inner: at most 8 policies."""
    n = rng.randint(1, 2)
    if n == 1:
        sizes = [rng.randint(1, 3)]
    else:
        sizes = rng.choice([[1, 1], [1, 2], [2, 1]])
    elements = [f"e{i}" for i in range(1, n + 1)]
    ground = frozenset(elements)
    dists = {
        e: _support(rng, size, max_value, positive_y=False)
        for e, size in zip(elements, sizes)
    }
    return make_instance(
        elements, dists, FreeSystem(ground), UniformSystem(ground, 1)
    )
