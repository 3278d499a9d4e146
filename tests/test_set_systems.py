import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegation_lab import set_systems
from delegation_lab.set_systems import (
    ExplicitSystem,
    FreeSystem,
    IntersectionSystem,
    PartitionSystem,
    UniformSystem,
    explicit_system,
    iter_feasible_sets,
    max_weight_feasible,
    set_system_from_json,
    set_system_to_json,
)

AB = frozenset({"a", "b"})


def powerset(elems):
    elems = sorted(elems)
    for r in range(len(elems) + 1):
        yield from itertools.combinations(elems, r)


def test_empty_set_always_feasible():
    assert UniformSystem(AB, 1).is_feasible(set())
    assert PartitionSystem(AB, (frozenset("a"), frozenset("b")), (1, 1)).is_feasible(set())
    assert explicit_system(AB, [["a"]]).is_feasible(set())
    assert ExplicitSystem(AB, frozenset()).is_feasible(set())


def test_uniform_cardinality_bound():
    system = UniformSystem(AB, 1)
    assert system.is_feasible({"a"})
    assert not system.is_feasible({"a", "b"})


def test_explicit_listed_set():
    system = explicit_system(AB, [[], ["a"], ["b"]])
    assert system.is_feasible({"a"})
    assert not system.is_feasible({"a", "b"})


def test_unknown_element_rejected():
    with pytest.raises(ValueError, match="unknown element"):
        UniformSystem(AB, 1).is_feasible({"z"})


def test_restrict_uniform():
    restricted = UniformSystem(AB, 1).restrict({"a"})
    assert restricted.ground == frozenset({"a"})
    assert restricted.is_feasible({"a"})


def test_restrict_identity_on_full_ground():
    system = PartitionSystem(AB, (frozenset("a"), frozenset("b")), (1, 0))
    restricted = system.restrict(AB)
    for combo in powerset(AB):
        assert restricted.is_feasible(combo) == system.is_feasible(combo)


def test_restrict_partition_against_definition():
    ground = frozenset({"a", "b", "c"})
    system = PartitionSystem(
        ground, (frozenset({"a", "b"}), frozenset({"c"})), (1, 1)
    )
    restricted = system.restrict({"a", "c"})
    # reference: restriction keeps exactly the feasible subsets of {a, c}
    for combo in powerset({"a", "c"}):
        assert restricted.is_feasible(combo) == system.is_feasible(combo)
    assert restricted.is_feasible({"a", "c"})


def test_restrict_outside_ground_rejected():
    with pytest.raises(ValueError, match="restriction"):
        UniformSystem(AB, 1).restrict({"a", "z"})


def test_max_weight_uniform_singleton():
    chosen, value = max_weight_feasible(UniformSystem(AB, 1), {"a": 2, "b": 1})
    assert chosen == frozenset({"a"})
    assert value == 2


def test_max_weight_all_zero_weights():
    for system in (UniformSystem(AB, 2), explicit_system(AB, [["a", "b"]])):
        chosen, value = max_weight_feasible(system, {"a": 0, "b": 0})
        assert chosen == frozenset()
        assert value == 0


def test_max_weight_intersection_brute_force_example():
    ground = frozenset({"a", "b", "c"})
    system = IntersectionSystem(
        ground,
        (
            UniformSystem(ground, 2),
            PartitionSystem(ground, (frozenset({"a", "b"}), frozenset({"c"})), (1, 1)),
        ),
    )
    weights = {"a": Fraction(3), "b": Fraction(2), "c": Fraction(2)}

    def feasible(combo):
        return len(combo) <= 2 and len(set(combo) & {"a", "b"}) <= 1

    best = max(
        (sum(weights[e] for e in combo), combo)
        for combo in powerset(ground)
        if feasible(combo)
    )
    assert best == (5, ("a", "c"))
    chosen, value = max_weight_feasible(system, weights)
    assert (chosen, value) == (frozenset({"a", "c"}), Fraction(5))


def test_max_weight_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative weight"):
        max_weight_feasible(UniformSystem(AB, 1), {"a": -1, "b": 0})


def test_max_weight_missing_weight_rejected():
    with pytest.raises(ValueError, match="missing"):
        max_weight_feasible(UniformSystem(AB, 1), {"a": 1})


@st.composite
def random_explicit(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ground = [f"e{i}" for i in range(n)]
    n_max = draw(st.integers(min_value=0, max_value=4))
    maximal = [
        draw(st.sets(st.sampled_from(ground), max_size=n)) for _ in range(n_max)
    ]
    return explicit_system(ground, maximal)


@settings(max_examples=80, deadline=None)
@given(random_explicit())
def test_explicit_families_are_downward_closed(system):
    for combo in powerset(system.ground):
        if system.is_feasible(combo):
            for sub in powerset(combo):
                assert system.is_feasible(sub)


@settings(max_examples=60, deadline=None)
@given(random_explicit(), st.randoms(use_true_random=False))
def test_restrict_agrees_with_original(system, rnd):
    keep = {e for e in system.ground if rnd.random() < 0.6}
    restricted = system.restrict(keep)
    for combo in powerset(keep):
        assert restricted.is_feasible(combo) == system.is_feasible(combo)


def _exhaustive_max_weight(system, weights):
    best_value, best_key = Fraction(0), ()
    for combo in powerset(system.ground):
        if not system.is_feasible(combo):
            continue
        pruned = tuple(e for e in combo if weights[e] > 0)
        value = sum((weights[e] for e in pruned), Fraction(0))
        if value > best_value or (value == best_value and pruned < best_key):
            best_value, best_key = value, pruned
    return frozenset(best_key), best_value


@pytest.mark.parametrize("seed", range(40))
def test_greedy_matches_exhaustive_on_matroids(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    ground = frozenset(f"e{i}" for i in range(n))
    if rng.random() < 0.5:
        system = UniformSystem(ground, rng.randint(0, n))
    else:
        elems = sorted(ground)
        rng.shuffle(elems)
        cut = rng.randint(1, n)
        blocks = [frozenset(elems[:cut])]
        if cut < n:
            blocks.append(frozenset(elems[cut:]))
        system = PartitionSystem(
            ground, tuple(blocks), tuple(rng.randint(0, len(b)) for b in blocks)
        )
    weights = {
        e: Fraction(rng.randint(0, 12), rng.choice([1, 2, 3])) for e in ground
    }
    assert max_weight_feasible(system, weights) == _exhaustive_max_weight(
        system, weights
    )


@pytest.mark.parametrize("seed", range(40))
def test_explicit_scan_matches_exhaustive(seed):
    # small weights, zeros included, so equal-weight optima are common
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    ground = [f"e{i}" for i in range(n)]
    members = [rng.sample(ground, rng.randint(0, n)) for _ in range(rng.randint(0, 5))]
    system = explicit_system(ground, members)
    weights = {e: Fraction(rng.randint(0, 3), rng.choice([1, 2])) for e in ground}
    assert max_weight_feasible(system, weights) == _exhaustive_max_weight(
        system, weights
    )


def test_explicit_scan_walks_no_subsets(monkeypatch):
    # 2^23 subsets would not finish; the scan reads the three maximal sets,
    # two of which tie at 12 and resolve to the smaller sorted id list
    def no_walk(ground):
        raise AssertionError("subset walk on an explicit system")

    monkeypatch.setattr(set_systems, "_subsets", no_walk)
    ground = [f"e{i:02d}" for i in range(24)]
    system = explicit_system(ground, [ground[:12], ground[12:], ground[::2]])
    weights = {e: Fraction(1) for e in ground}
    weights["e23"] = Fraction(0)
    chosen, value = max_weight_feasible(system, weights)
    assert (chosen, value) == (frozenset(ground[:12]), Fraction(12))


def test_intersection_feasibility_is_conjunction():
    ground = frozenset({"a", "b", "c"})
    parts = (
        UniformSystem(ground, 2),
        explicit_system(ground, [["a", "b"], ["c"]]),
    )
    system = IntersectionSystem(ground, parts)
    for combo in powerset(ground):
        assert system.is_feasible(combo) == all(
            p.is_feasible(combo) for p in parts
        )


def test_partition_validation():
    with pytest.raises(ValueError, match="cover"):
        PartitionSystem(AB, (frozenset("a"),), (1,))
    with pytest.raises(ValueError, match="disjoint"):
        PartitionSystem(AB, (AB, frozenset("b")), (1, 1))
    with pytest.raises(ValueError, match="one capacity"):
        PartitionSystem(AB, (AB,), (1, 2))


def test_iter_feasible_sets_uniform():
    sets = list(iter_feasible_sets(UniformSystem(AB, 1)))
    assert sets == [frozenset(), frozenset({"a"}), frozenset({"b"})]


@pytest.mark.parametrize(
    "system",
    [
        FreeSystem(AB),
        UniformSystem(AB, 1),
        PartitionSystem(AB, (frozenset("a"), frozenset("b")), (1, 0)),
        explicit_system(AB, [["a", "b"]]),
        IntersectionSystem(AB, (UniformSystem(AB, 1), FreeSystem(AB))),
    ],
)
def test_json_round_trip(system):
    encoded = set_system_to_json(system)
    decoded = set_system_from_json(encoded, sorted(AB))
    assert decoded.ground == system.ground
    assert list(iter_feasible_sets(decoded)) == list(iter_feasible_sets(system))
    assert set_system_to_json(decoded) == encoded


def test_json_rejects_bad_kind():
    with pytest.raises(ValueError, match="unknown set system kind"):
        set_system_from_json({"kind": "graphic"}, ["a"])


def _literal_feasible(system, s):
    """Each kind's rule stated on sets of ids, as the library stated it
    before its rules became mask tests."""
    if isinstance(system, FreeSystem):
        return True
    if isinstance(system, UniformSystem):
        return len(s) <= system.k
    if isinstance(system, PartitionSystem):
        return all(len(s & b) <= c for b, c in zip(system.blocks, system.caps))
    if isinstance(system, ExplicitSystem):
        return not s or any(s <= m for m in system.maximal)
    return all(_literal_feasible(part, s) for part in system.parts)


def _random_system(rng, ground, depth=0):
    elems = sorted(ground)
    kind = rng.choice(["free", "uniform", "partition", "explicit"] + ["intersection"] * (depth < 2))
    if kind == "free":
        return FreeSystem(ground)
    if kind == "uniform":
        return UniformSystem(ground, rng.randint(0, len(elems)))
    if kind == "partition":
        rng.shuffle(elems)
        cuts = sorted(rng.sample(range(1, len(elems)), rng.randint(0, len(elems) - 1)))
        blocks = [frozenset(elems[a:b]) for a, b in zip([0] + cuts, cuts + [len(elems)])]
        return PartitionSystem(ground, tuple(blocks), tuple(rng.randint(0, len(b)) for b in blocks))
    if kind == "explicit":
        members = [rng.sample(elems, rng.randint(0, len(elems))) for _ in range(rng.randint(0, 4))]
        return explicit_system(ground, members) if members else ExplicitSystem(ground, frozenset())
    parts = tuple(_random_system(rng, ground, depth + 1) for _ in range(rng.randint(1, 3)))
    return IntersectionSystem(ground, parts)


def test_mask_tests_match_is_feasible_in_any_element_order():
    rng = random.Random(5)
    ground = frozenset("abcde")
    corners = [
        UniformSystem(ground, 0),
        PartitionSystem(ground, (frozenset("ab"), frozenset("cde")), (0, 2)),
        ExplicitSystem(ground, frozenset()),
        IntersectionSystem(
            ground,
            (
                IntersectionSystem(ground, (UniformSystem(ground, 3), explicit_system(ground, ["abc", "cde"]))),
                PartitionSystem(ground, (frozenset("ace"), frozenset("bd")), (1, 1)),
            ),
        ),
    ]
    systems = corners + [_random_system(rng, frozenset("abcdef"[: rng.randint(1, 6)])) for _ in range(60)]
    kinds = {type(system).__name__ for system in systems}
    assert kinds == {"FreeSystem", "UniformSystem", "PartitionSystem", "ExplicitSystem", "IntersectionSystem"}
    for system in systems:
        for _ in range(4):
            order = sorted(system.ground)
            rng.shuffle(order)
            test = system.mask_test(order)
            for m in range(1 << len(order)):
                s = frozenset(e for j, e in enumerate(order) if m >> j & 1)
                assert test(m) == system.is_feasible(s) == _literal_feasible(system, s), (system, order, m)


def test_a_kind_stating_no_mask_test_raises():
    class NoRule(set_systems.SetSystem):
        ground = frozenset("ab")

    with pytest.raises(NotImplementedError):
        NoRule().mask_test(["a", "b"])
    with pytest.raises(NotImplementedError):
        NoRule().is_feasible({"a"})
