"""Downward-closed set systems over finite ground sets.

Five kinds are supported: uniform matroids, partition matroids, explicit
families (stored as the antichain of maximal feasible sets), intersections
of systems, and the free system in which every subset is feasible.  All
values are immutable after construction and every operation is pure.
Each kind states its feasibility rule once, as a test on element bitmasks
(`mask_test`): free always true, uniform popcount <= k, partition a popcount
per block mask, explicit m & M == m for a maximal M, intersection all parts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence


def _mask(ids: frozenset[str], order: Sequence[str]) -> int:
    return sum(1 << j for j, e in enumerate(order) if e in ids)


class SetSystem:
    """Feasibility oracle with a `ground` set; subclasses fix the family."""

    ground: frozenset[str]

    def is_feasible(self, subset: Iterable[str]) -> bool:
        s = frozenset(subset)
        if unknown := s - self.ground:
            raise ValueError(f"unknown element ids: {sorted(unknown)}")
        order, test = self._sorted_test
        return test(_mask(s, order))

    def mask_test(self, order: Sequence[str]) -> Callable[[int], bool]:
        """Feasibility of {order[j] : bit j of m set} as a test on m, `order`
        listing the ground; each kind states its rule here and nowhere else."""
        raise NotImplementedError

    @functools.cached_property
    def _sorted_test(self) -> tuple[list[str], Callable[[int], bool]]:
        order = sorted(self.ground)
        return order, self.mask_test(order)

    def restrict(self, subset: Iterable[str]) -> "SetSystem":
        """The same family intersected with the power set of `subset`."""
        raise NotImplementedError

    def _check_restriction(self, subset: Iterable[str]) -> frozenset[str]:
        s = frozenset(subset)
        if extra := s - self.ground:
            raise ValueError(f"restriction set not within ground: {sorted(extra)}")
        return s


@dataclass(frozen=True)
class FreeSystem(SetSystem):
    """Every subset of the ground set is feasible."""

    ground: frozenset[str]

    def mask_test(self, order: Sequence[str]) -> Callable[[int], bool]:
        return lambda m: True

    def restrict(self, subset: Iterable[str]) -> "FreeSystem":
        return FreeSystem(self._check_restriction(subset))


@dataclass(frozen=True)
class UniformSystem(SetSystem):
    """Sets of cardinality at most `k`."""

    ground: frozenset[str]
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("uniform rank k must be nonnegative")

    def mask_test(self, order: Sequence[str]) -> Callable[[int], bool]:
        return lambda m: m.bit_count() <= self.k

    def restrict(self, subset: Iterable[str]) -> "UniformSystem":
        return UniformSystem(self._check_restriction(subset), self.k)


@dataclass(frozen=True)
class PartitionSystem(SetSystem):
    """At most `caps[i]` elements from `blocks[i]`; blocks partition the ground."""

    ground: frozenset[str]
    blocks: tuple[frozenset[str], ...]
    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.caps):
            raise ValueError("one capacity per block required")
        if any(c < 0 for c in self.caps):
            raise ValueError("capacities must be nonnegative")
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty partition block")
            if block & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= block
        if seen != self.ground:
            raise ValueError("partition blocks must cover the ground set")

    def mask_test(self, order: Sequence[str]) -> Callable[[int], bool]:
        caps = [(_mask(b, order), c) for b, c in zip(self.blocks, self.caps)]
        return lambda m: all((m & b).bit_count() <= c for b, c in caps)

    def restrict(self, subset: Iterable[str]) -> "PartitionSystem":
        s = self._check_restriction(subset)
        blocks, caps = [], []
        for block, cap in zip(self.blocks, self.caps):
            cut = block & s
            if cut:
                blocks.append(cut)
                caps.append(cap)
        return PartitionSystem(s, tuple(blocks), tuple(caps))


def _antichain(sets: Iterable[Iterable[str]]) -> frozenset[frozenset]:
    """The maximal members of a family of sets."""
    pool = {frozenset(s) for s in sets}
    top = max(map(len, pool), default=0)  # no largest member lies within another
    return frozenset(s for s in pool if len(s) == top or not any(s < o for o in pool))


@dataclass(frozen=True)
class ExplicitSystem(SetSystem):
    """Downward closure of an explicit antichain of maximal feasible sets;
    an empty antichain leaves only the empty set.  `maximal` may be given as
    any generating family: it is reduced to its maximal members when built."""

    ground: frozenset[str]
    maximal: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "maximal", _antichain(self.maximal))
        for s in self.maximal:
            extra = s - self.ground
            if extra:
                raise ValueError(f"maximal set outside ground: {sorted(extra)}")

    def mask_test(self, order: Sequence[str]) -> Callable[[int], bool]:
        maximal = [_mask(m, order) for m in self.maximal]
        return lambda m: not m or any(m & top == m for top in maximal)

    def restrict(self, subset: Iterable[str]) -> "ExplicitSystem":
        s = self._check_restriction(subset)
        return ExplicitSystem(s, (m & s for m in self.maximal))


@dataclass(frozen=True)
class IntersectionSystem(SetSystem):
    """Feasible iff feasible in every member system (same ground set)."""

    ground: frozenset[str]
    parts: tuple[SetSystem, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("intersection needs at least one part")
        for part in self.parts:
            if part.ground != self.ground:
                raise ValueError("intersection parts must share the ground set")

    def mask_test(self, order: Sequence[str]) -> Callable[[int], bool]:
        tests = [part.mask_test(order) for part in self.parts]
        return lambda m: all(test(m) for test in tests)

    def restrict(self, subset: Iterable[str]) -> "IntersectionSystem":
        s = self._check_restriction(subset)
        return IntersectionSystem(s, tuple(p.restrict(s) for p in self.parts))


def explicit_system(
    ground: Iterable[str], feasible: Iterable[Iterable[str]]
) -> ExplicitSystem:
    """Build an explicit system from any generating family (closed downward)."""
    return ExplicitSystem(frozenset(ground), feasible)


def _subsets(ground: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets, in increasing size then lexicographic order."""
    elems = sorted(ground)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield frozenset(combo)


def iter_feasible_sets(system: SetSystem) -> Iterator[frozenset[str]]:
    """All feasible subsets, in increasing size then lexicographic order."""
    return (s for s in _subsets(system.ground) if system.is_feasible(s))


def _checked_weights(
    system: SetSystem, weights: Mapping[str, Fraction | int]
) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for e in system.ground:
        if e not in weights:
            raise ValueError(f"weight missing for element {e!r}")
        w = Fraction(weights[e])
        if w < 0:
            raise ValueError(f"negative weight for element {e!r}")
        out[e] = w
    return out


def max_weight_feasible(
    system: SetSystem, weights: Mapping[str, Fraction | int]
) -> tuple[frozenset[str], Fraction]:
    """A maximum-weight feasible set and its weight.

    Uniform, partition and free systems are matroids, so the greedy rule
    (weight descending, element id ascending) is exact; an explicit system's
    optimum is the positive part of a maximal set; intersection systems fall
    back to exhaustive search.  Zero-weight elements are never included, and
    ties between optimal sets resolve to the smallest sorted id tuple.
    """
    w = _checked_weights(system, weights)
    positive = [e for e in system.ground if w[e] > 0]
    if isinstance(system, (UniformSystem, PartitionSystem, FreeSystem)):
        chosen: set[str] = set()
        for e in sorted(positive, key=lambda e: (-w[e], e)):
            if system.is_feasible(chosen | {e}):
                chosen.add(e)
        value = sum((w[e] for e in chosen), Fraction(0))
        return frozenset(chosen), value
    if isinstance(system, ExplicitSystem):
        candidates = (m.intersection(positive) for m in system.maximal)
    else:
        candidates = (s for s in _subsets(positive) if system.is_feasible(s))
    best_set: frozenset[str] = frozenset()
    best_value = Fraction(0)
    for s in candidates:
        value = sum((w[e] for e in s), Fraction(0))
        if value > best_value or (value == best_value and sorted(s) < sorted(best_set)):
            best_set, best_value = s, value
    return best_set, best_value


def set_system_to_json(system: SetSystem) -> dict:
    """JSON form; the ground set is carried by the enclosing instance."""
    if isinstance(system, FreeSystem):
        return {"kind": "free"}
    if isinstance(system, UniformSystem):
        return {"kind": "uniform", "k": system.k}
    if isinstance(system, PartitionSystem):
        pairs = sorted((sorted(b), c) for b, c in zip(system.blocks, system.caps))
        return {
            "kind": "partition",
            "blocks": [b for b, _ in pairs],
            "caps": [c for _, c in pairs],
        }
    if isinstance(system, ExplicitSystem):
        return {"kind": "explicit", "maximal": sorted(sorted(m) for m in system.maximal)}
    if isinstance(system, IntersectionSystem):
        return {
            "kind": "intersection",
            "parts": [set_system_to_json(p) for p in system.parts],
        }
    raise ValueError(f"unknown set system type {type(system)!r}")


def _int_from_json(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer")
    return value


def _ids_from_json(value, what: str) -> frozenset[str]:
    if not isinstance(value, list) or not all(isinstance(e, str) for e in value):
        raise ValueError(f"{what} must be a list of element ids")
    return frozenset(value)


def set_system_from_json(obj: dict, ground: Iterable[str]) -> SetSystem:
    g = frozenset(ground)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("set system must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "free":
        return FreeSystem(g)
    if kind == "uniform":
        return UniformSystem(g, _int_from_json(obj.get("k"), "uniform 'k'"))
    if kind == "partition":
        blocks = obj.get("blocks")
        caps = obj.get("caps")
        if not isinstance(blocks, list) or not isinstance(caps, list):
            raise ValueError("partition system needs 'blocks' and 'caps' lists")
        return PartitionSystem(
            g,
            tuple(_ids_from_json(b, "a partition block") for b in blocks),
            tuple(_int_from_json(c, "a partition cap") for c in caps),
        )
    if kind == "explicit":
        maximal = obj.get("maximal")
        if not isinstance(maximal, list):
            raise ValueError("explicit system needs a 'maximal' list")
        return explicit_system(
            g, (_ids_from_json(m, "an explicit maximal set") for m in maximal)
        )
    if kind == "intersection":
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ValueError("intersection system needs a nonempty 'parts' list")
        return IntersectionSystem(
            g, tuple(set_system_from_json(p, g) for p in parts)
        )
    raise ValueError(f"unknown set system kind {kind!r}")
