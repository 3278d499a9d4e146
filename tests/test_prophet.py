import importlib
import itertools
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from delegation_lab.delegation import build_threshold_policy
from delegation_lab.errors import CapacityError, Caps, UnsupportedError
from delegation_lab.instances import (
    UtilityAtom,
    coins2,
    enumerate_scenarios,
    make_instance,
    realizable_inner_sets,
    table1,
)
from delegation_lab.probing import optimal_adaptive_value
from delegation_lab.prophet import (
    best_greedy_family,
    candidate_pair_sets,
    evaluate_vs_almighty,
    gambler_report,
    greedy_family,
    samuel_cahn_threshold,
    scenario_table,
    score_family,
    threshold_family,
    threshold_totals,
)
from delegation_lab.random_instances import (
    random_free_outer_instance,
    random_greedy_family,
    random_matroid_outer_instance,
)
from delegation_lab.set_systems import (
    FreeSystem,
    IntersectionSystem,
    PartitionSystem,
    UniformSystem,
    explicit_system,
)

from conftest import one_uniform_instance
from literal_prophet import (
    literal_samuel_cahn_threshold,
    literal_threshold_policy,
    literal_vs_almighty,
)


def test_median_threshold_two_fair_coins():
    inst = coins2()
    # max distribution: P[max>=1] = 3/4, P[max<=1] = 1
    assert samuel_cahn_threshold(inst) == 1


def test_median_threshold_table1_below_half():
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        assert samuel_cahn_threshold(table1(eps)) == 1


def test_median_threshold_point_mass():
    inst = one_uniform_instance({"a": [(Fraction(7, 2), 0, 1)]})
    assert samuel_cahn_threshold(inst) == Fraction(7, 2)


def test_median_threshold_needs_pick_one_constraint():
    inst = coins2()
    relaxed = type(inst)(
        inst.elements, inst.atoms, inst.outer, UniformSystem(frozenset(inst.elements), 2)
    )
    with pytest.raises(UnsupportedError, match="1-uniform"):
        samuel_cahn_threshold(relaxed)


def test_median_threshold_matches_the_literal_fraction_median():
    rng = random.Random(13)
    for _ in range(150):
        inst = random_free_outer_instance(rng, max_value=3)
        assert samuel_cahn_threshold(inst) == literal_samuel_cahn_threshold(inst)
    for _ in range(150):
        inst, _ = _threshold_instance(rng)
        assert samuel_cahn_threshold(inst) == literal_samuel_cahn_threshold(inst)


def _threshold_instance(rng):
    """1 to 4 elements of 1 to 3 atoms, x drawn from a few values so that
    elements share x, often one element with two atoms of equal x and
    different y, a 1-uniform inner and a free, uniform or partition outer."""
    elements = [f"e{i}" for i in range(1, rng.randint(1, 4) + 1)]
    ground = frozenset(elements)
    xs = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    dists = {}
    for e in elements:
        weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        dists[e] = [
            UtilityAtom(rng.choice(xs), Fraction(i), Fraction(w, sum(weights)))
            for i, w in enumerate(weights)
        ]
    twin = rng.choice(elements)
    if len(dists[twin]) > 1 and rng.random() < 0.5:
        first, last = dists[twin][0], dists[twin][-1]
        dists[twin][-1] = UtilityAtom(first.x, first.y + 1, last.prob)
    kind = rng.choice(["free", "uniform", "partition"])
    if kind == "free":
        outer = FreeSystem(ground)
    elif kind == "uniform":
        outer = UniformSystem(ground, rng.randint(1, len(elements)))
    else:
        cut = rng.randint(1, len(elements))
        blocks = tuple(b for b in (frozenset(elements[:cut]), frozenset(elements[cut:])) if b)
        outer = PartitionSystem(ground, blocks, tuple(1 for _ in blocks))
    inner = UniformSystem(ground, 1)
    return make_instance(elements, dists, outer, inner), kind


def test_threshold_sweep_scores_every_cut_as_its_family():
    rng = random.Random(37)
    seen = Counter()
    for _ in range(150):
        inst, kind = _threshold_instance(rng)
        seen[kind] += 1
        xs = [a.x for support in inst.atoms for a in support]
        seen["shared x"] += len(set(xs)) < len(xs)
        seen["twin atoms"] += any(
            len({a.x for a in support}) < len(support) for support in inst.atoms
        )
        table = scenario_table(inst)
        unit = table.outcome_unit
        totals = threshold_totals(table)
        assert list(totals) == [int(x * unit) for x in sorted(set(xs))]
        for cut, gambler in totals.items():
            family = threshold_family(inst, Fraction(cut, unit))
            assert gambler_report(table, gambler) == score_family(family, table)
    assert min(seen.values()) >= 20, seen


def test_tuned_threshold_matches_the_literal_cut_loop():
    rng = random.Random(41)
    for _ in range(60):
        inst, _ = _threshold_instance(rng)
        assert build_threshold_policy(inst) == literal_threshold_policy(inst)
    for _ in range(20):
        inst = random_matroid_outer_instance(rng, max_elements=3)
        assert build_threshold_policy(inst) == literal_threshold_policy(inst)


def test_tuned_threshold_builds_only_the_winning_family(monkeypatch):
    # no cut's family is built through `threshold_family` or `greedy_family`:
    # the winner's is read off the scenario table, and it is the family that
    # `threshold_family` builds at the winning cut
    rng = random.Random(43)
    cases = [_threshold_instance(rng)[0] for _ in range(20)]
    expected = [threshold_family(inst, build_threshold_policy(inst)[1]) for inst in cases]

    def refuse(*args):
        raise AssertionError("a family was built for a cut")

    for module in ("delegation_lab.delegation", "delegation_lab.prophet"):
        for name in ("threshold_family", "greedy_family"):
            monkeypatch.setattr(importlib.import_module(module), name, refuse, raising=False)
    for inst, family in zip(cases, expected):
        policy, _, _ = build_threshold_policy(inst)
        assert policy.family == family


def test_threshold_family_membership():
    inst = table1(Fraction(1, 4))
    family = threshold_family(inst, Fraction(1))
    assert family.accepts(frozenset({("1", Fraction(4))}))
    assert family.accepts(frozenset({("2", Fraction(1))}))
    assert not family.accepts(frozenset({("1", Fraction(0))}))
    assert not family.accepts(
        frozenset({("1", Fraction(4)), ("2", Fraction(1))})
    )
    assert family.accepts(frozenset())


def test_gambler_two_fair_coins_exact():
    inst = coins2()
    family = threshold_family(inst, Fraction(1))
    report = evaluate_vs_almighty(inst, family)

    # independent check: enumerate the 4 scenarios and both orderings
    values = {e: {0: Fraction(0), 1: Fraction(1)} for e in inst.elements}
    gambler = Fraction(0)
    prophet = Fraction(0)
    for realization, prob in enumerate_scenarios(inst):
        per_order = []
        for order in itertools.permutations(inst.elements):
            taken = Fraction(0)
            for e in order:
                x = values[e][realization[e]]
                if x >= 1:
                    taken = x
                    break
            per_order.append(taken)
        gambler += prob * min(per_order)
        prophet += prob * max(values[e][realization[e]] for e in inst.elements)
    assert gambler == Fraction(3, 4)
    assert prophet == Fraction(3, 4)
    assert report.gambler_value == gambler
    assert report.prophet_value == prophet
    assert report.ratio == 1


def test_adversary_presents_cheap_outcome_first():
    inst = one_uniform_instance({"hi": [(2, 0, 1)], "lo": [(1, 0, 1)]})
    family = greedy_family(
        [[("hi", Fraction(2))], [("lo", Fraction(1))]], inst.inner
    )
    report = evaluate_vs_almighty(inst, family)
    assert report.gambler_value == 1
    assert report.prophet_value == 2
    assert report.ratio == Fraction(1, 2)


def test_empty_family_scores_zero():
    inst = coins2()
    family = greedy_family([], inst.inner)
    assert evaluate_vs_almighty(inst, family).gambler_value == 0


def test_gambler_never_beats_prophet():
    rng = random.Random(17)
    for _ in range(25):
        inst = random_free_outer_instance(rng, max_elements=3)
        family = random_greedy_family(rng, inst)
        report = evaluate_vs_almighty(inst, family)
        assert 0 <= report.gambler_value <= report.prophet_value


def literal_gambler_value(instance, family):
    """The almighty adversary as defined: for each scenario, the minimum of
    forced greedy over every ordering of the elements."""

    def forced_greedy(order, realized):
        accepted, total = frozenset(), Fraction(0)
        for e in order:
            candidate = accepted | {(e, realized[e])}
            if family.accepts(candidate):
                accepted, total = candidate, total + realized[e]
        return total

    value = Fraction(0)
    for realization, prob in enumerate_scenarios(instance):
        realized = {e: instance.dist(e)[realization[e]].x for e in instance.elements}
        value += prob * min(
            forced_greedy(order, realized)
            for order in itertools.permutations(instance.elements)
        )
    return value


def _reorderable_instance(rng):
    """1 to 4 elements with x = 0 atoms likely, and an inner constraint that
    admits multi-outcome sets: k-uniform with k >= 2, free, or partition."""
    elements = [f"e{i}" for i in range(1, rng.randint(1, 4) + 1)]
    ground = frozenset(elements)
    dists = {}
    for e in elements:
        weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        dists[e] = [
            UtilityAtom(
                Fraction(rng.randint(0, 3)), Fraction(i), Fraction(w, sum(weights))
            )
            for i, w in enumerate(weights)
        ]
    kind = rng.choice(["uniform", "free", "partition"])
    if kind == "uniform":
        inner = UniformSystem(ground, rng.randint(2, 4))
    elif kind == "free":
        inner = FreeSystem(ground)
    else:
        cut = rng.randint(0, len(elements))
        halves = (frozenset(elements[:cut]), frozenset(elements[cut:]))
        blocks = tuple(b for b in halves if b)
        caps = tuple(rng.randint(1, 2) for _ in blocks)
        inner = PartitionSystem(ground, blocks, caps)
    return make_instance(elements, dists, FreeSystem(ground), inner), kind


def test_adversary_equals_the_literal_minimum_over_orderings():
    rng = random.Random(4)
    seen = {"empty": 0, "multi": 0, "zero": 0, "uniform": 0, "free": 0, "partition": 0}
    for _ in range(320):
        instance, kind = _reorderable_instance(rng)
        candidates = candidate_pair_sets(instance)
        members = rng.sample(candidates, rng.randint(0, min(5, len(candidates))))
        family = greedy_family(members, instance.inner)
        seen[kind] += 1
        seen["empty"] += not family.maximal
        seen["multi"] += any(len(m) > 1 for m in family.maximal)
        seen["zero"] += any(x == 0 for m in family.maximal for _, x in m)
        report = evaluate_vs_almighty(instance, family)
        assert report.gambler_value == literal_gambler_value(instance, family)
    assert min(seen.values()) >= 20, seen


def _mixed_instance(rng):
    """1 to 4 elements with repeated x values, under a free, uniform or
    partition outer constraint and a uniform, free, partition, explicit or
    intersection inner constraint."""
    elements = [f"e{i}" for i in range(1, rng.randint(1, 4) + 1)]
    ground = frozenset(elements)
    dists = {}
    for e in elements:
        weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        dists[e] = [
            UtilityAtom(
                Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))),
                Fraction(i),
                Fraction(w, sum(weights)),
            )
            for i, w in enumerate(weights)
        ]

    def partition():
        cut = rng.randint(0, len(elements))
        halves = (frozenset(elements[:cut]), frozenset(elements[cut:]))
        blocks = tuple(b for b in halves if b)
        return PartitionSystem(ground, blocks, tuple(rng.randint(1, 2) for _ in blocks))

    def explicit():
        sets = [rng.sample(elements, rng.randint(0, len(elements))) for _ in range(3)]
        return explicit_system(ground, sets)

    outers = {
        "free": lambda: FreeSystem(ground),
        "uniform": lambda: UniformSystem(ground, rng.randint(1, 3)),
        "partition": partition,
    }
    inners = {
        "uniform": lambda: UniformSystem(ground, rng.randint(1, 3)),
        "free": lambda: FreeSystem(ground),
        "partition": partition,
        "explicit": explicit,
        "intersection": lambda: IntersectionSystem(
            ground, (explicit(), UniformSystem(ground, rng.randint(1, 2)))
        ),
    }
    outer_kind, inner_kind = rng.choice(list(outers)), rng.choice(list(inners))
    instance = make_instance(elements, dists, outers[outer_kind](), inners[inner_kind]())
    return instance, f"outer {outer_kind}", f"inner {inner_kind}"


def test_integer_reports_equal_the_literal_fraction_reports():
    rng = random.Random(29)
    seen = Counter()
    for _ in range(300):
        instance, outer_kind, inner_kind = _mixed_instance(rng)
        candidates = candidate_pair_sets(instance)
        seen[outer_kind] += 1
        seen[inner_kind] += 1
        adaptive = optimal_adaptive_value(instance).expected_value
        for _ in range(3):
            members = rng.sample(candidates, rng.randint(0, min(5, len(candidates))))
            family = greedy_family(members, instance.inner)
            seen["empty"] += not family.maximal
            seen["multi"] += any(len(m) > 1 for m in family.maximal)
            report = evaluate_vs_almighty(instance, family)
            assert report == literal_vs_almighty(instance, family)
            if outer_kind == "outer free":
                assert report.prophet_value == adaptive
    assert len(seen) == 10 and min(seen.values()) >= 30, seen


def test_adversary_scores_only_maximal_reachable_sets():
    # members {(a,1),(b,1)} and {(a,1),(b,2)}: whichever b realizes, {a}
    # alone is reachable but not maximal, so greedy always takes b as well
    inst = one_uniform_instance(
        {"a": [(1, 0, 1)], "b": [(1, 0, Fraction(1, 2)), (2, 1, Fraction(1, 2))]}
    )
    free = type(inst)(
        inst.elements, inst.atoms, inst.outer, FreeSystem(inst.inner.ground)
    )
    family = greedy_family(
        [
            [("a", Fraction(1)), ("b", Fraction(1))],
            [("a", Fraction(1)), ("b", Fraction(2))],
        ],
        free.inner,
    )
    assert evaluate_vs_almighty(free, family).gambler_value == Fraction(5, 2)
    assert literal_gambler_value(free, family) == Fraction(5, 2)


def test_symmetric_scenarios_give_symmetric_gambler_values():
    inst = coins2()
    family = threshold_family(inst, Fraction(1))

    def worst_case(realization):
        values = {e: inst.dist(e)[realization[e]].x for e in inst.elements}
        best = None
        for order in itertools.permutations(inst.elements):
            taken = Fraction(0)
            for e in order:
                if family.accepts(frozenset({(e, values[e])})):
                    taken = values[e]
                    break
            best = taken if best is None else min(best, taken)
        return best

    # swapping the two identically distributed elements leaves the value alone
    assert worst_case({"1": 1, "2": 0}) == worst_case({"1": 0, "2": 1})


def test_candidate_pair_sets_table1():
    inst = table1(Fraction(1, 2))
    assert candidate_pair_sets(inst) == [
        frozenset({("1", Fraction(0))}),
        frozenset({("1", Fraction(2))}),
        frozenset({("2", Fraction(1))}),
    ]


def test_best_family_two_fair_coins():
    inst = coins2()
    family, report = best_greedy_family(inst)
    assert report.ratio == 1
    assert report.gambler_value == Fraction(3, 4)


def test_best_family_single_element():
    inst = one_uniform_instance({"a": [(0, 0, Fraction(1, 2)), (3, 1, Fraction(1, 2))]})
    family, report = best_greedy_family(inst)
    assert report.ratio == 1


def test_best_family_table1_at_least_half():
    family, report = best_greedy_family(table1(Fraction(1, 2)))
    assert report.ratio >= Fraction(1, 2)


def test_family_cap():
    inst = coins2()
    with pytest.raises(CapacityError, match="lattice"):
        best_greedy_family(inst, Caps(family_sets=8))


def _three_atom_instance(n, inner):
    """n elements of three atoms each, free outer constraint."""
    ids = [f"e{i}" for i in range(n)]
    atoms = [UtilityAtom(Fraction(k), Fraction(k + 1), Fraction(1, 3)) for k in range(3)]
    ground = frozenset(ids)
    return make_instance(ids, {e: atoms for e in ids}, FreeSystem(ground), inner(ground))


def _refuse(*args, **kwargs):
    raise AssertionError("materialized before the cap was checked")


def test_orderings_cap_refuses_before_enumerating_scenarios(monkeypatch):
    # No cap bounds orderings, which the closed form never enumerates.  3^12
    # scenarios are within the scenarios cap; the 4^12 states of the
    # free-outer graph are not, and are refused before any move is asked for
    inst = _three_atom_instance(12, lambda ground: UniformSystem(ground, 1))
    family = threshold_family(inst, Fraction(1))
    monkeypatch.setattr(FreeSystem, "mask_test", _refuse)
    with pytest.raises(CapacityError) as err:
        evaluate_vs_almighty(inst, family)
    assert str(err.value) == f"probing DP exceeded {10**6} states"
    assert (err.value.cap, err.value.limit, err.value.reached) == (
        "dp_states",
        10**6,
        10**6 + 1,
    )
    # the scenarios cap is still checked first
    with pytest.raises(CapacityError) as err:
        evaluate_vs_almighty(inst, family, Caps(scenarios=3**12 - 1))
    assert err.value.cap == "scenarios"


def test_free_graph_states_are_capped_before_the_compile(monkeypatch):
    # 3 elements of 3 atoms: 27 scenarios pass their cap, but the free-outer
    # graph has 4^3 = 64 states
    inst = _three_atom_instance(3, lambda ground: UniformSystem(ground, 1))
    family = threshold_family(inst, Fraction(1))
    caps = Caps(scenarios=27, dp_states=63)
    assert evaluate_vs_almighty(inst, family, replace(caps, dp_states=64)) == (
        evaluate_vs_almighty(inst, family)
    )
    # refused from the state count: not even the root's moves are asked for
    monkeypatch.setattr(FreeSystem, "mask_test", _refuse)
    constrained = replace(inst, outer=UniformSystem(inst.outer.ground, 1))
    for instance in (inst, constrained):  # the latter's free-outer graph
        with pytest.raises(CapacityError) as err:
            evaluate_vs_almighty(instance, family, caps)
        assert str(err.value) == "probing DP exceeded 63 states"
        assert (err.value.cap, err.value.limit, err.value.reached) == (
            "dp_states",
            63,
            64,
        )
    # the scenarios cap still refuses before any compile
    prophet_module = importlib.import_module("delegation_lab.prophet")
    monkeypatch.setattr(prophet_module, "probing_graph", _refuse)
    with pytest.raises(CapacityError) as err:
        evaluate_vs_almighty(constrained, family, replace(caps, scenarios=26))
    assert (err.value.cap, err.value.limit) == ("scenarios", 26)


def test_a_constrained_outer_is_restricted_once_per_instance(monkeypatch):
    # one partition-outer instance scored against 10 families
    prophet_module = importlib.import_module("delegation_lab.prophet")
    original = prophet_module.restrict_instance
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(prophet_module, "restrict_instance", counted)
    ids = ["p1", "p2", "p3"]
    atoms = [UtilityAtom(Fraction(k), Fraction(k + 1), Fraction(1, 2)) for k in (1, 4)]
    ground = frozenset(ids)
    outer = PartitionSystem(ground, (frozenset(ids[:2]), frozenset(ids[2:])), (1, 1))
    inst = make_instance(
        ids, {e: atoms for e in ids}, outer, UniformSystem(ground, 1)
    )
    rng = random.Random(5)
    reports = [
        evaluate_vs_almighty(inst, random_greedy_family(rng, inst)) for _ in range(10)
    ]
    assert len(calls) == 1
    free = replace(inst, outer=FreeSystem(ground))
    rng = random.Random(5)
    assert reports == [
        evaluate_vs_almighty(free, random_greedy_family(rng, free)) for _ in range(10)
    ]


def test_best_family_scores_exactly_the_downward_closed_families(monkeypatch):
    # the lattice search against a literal one, which keeps a subset of the
    # candidates only when it holds every proper subset of every member
    prophet_module = importlib.import_module("delegation_lab.prophet")
    original = prophet_module.score_family
    scored = []

    def counted(family, table):
        scored.append(family)
        return original(family, table)

    monkeypatch.setattr(prophet_module, "score_family", counted)
    rng = random.Random(31)
    for _ in range(20):
        ids = [f"e{i}" for i in range(rng.randint(2, 3))]
        ground = frozenset(ids)
        dists = {
            e: [
                UtilityAtom(Fraction(rng.randint(0, 3)), Fraction(1), Fraction(1, m))
                for _ in range(m)
            ]
            for e, m in ((e, rng.randint(1, 2)) for e in ids)
        }
        inner = rng.choice([FreeSystem(ground), UniformSystem(ground, 2)])
        inst = make_instance(ids, dists, FreeSystem(ground), inner)
        candidates = candidate_pair_sets(inst)
        if len(candidates) > 10:
            continue
        literal = None
        closed = 0
        for mask in range(2 ** len(candidates)):
            members = {c for i, c in enumerate(candidates) if mask >> i & 1}
            if any(
                frozenset(sub) not in members
                for c in members
                for r in range(1, len(c))
                for sub in itertools.combinations(c, r)
            ):
                continue
            closed += 1
            family = greedy_family(members, inst.inner)
            report = literal_vs_almighty(inst, family)
            if literal is None or report.ratio > literal[1].ratio:
                literal = (family, report)
        scored.clear()
        assert best_greedy_family(inst) == literal
        assert len(scored) == closed


def test_family_cap_refuses_before_building_candidate_sets(monkeypatch):
    # free inner: sum over nonempty F of 3^|F| = 4^8 - 1 candidate sets, but
    # the count stops past 20 = the cap's bit length, at the 8 singletons
    inst = _three_atom_instance(8, FreeSystem)
    prophet_module = importlib.import_module("delegation_lab.prophet")
    monkeypatch.setattr(prophet_module, "candidate_pair_sets", _refuse)
    monkeypatch.setattr(prophet_module, "scenario_table", _refuse)
    with pytest.raises(CapacityError) as err:
        best_greedy_family(inst)
    assert str(err.value) == f"candidate family lattice at least 2^24 exceeds cap {10**6}"
    assert (err.value.cap, err.value.limit, err.value.reached) == (
        "family_sets",
        10**6,
        10**6 + 1,
    )


def test_family_cap_refuses_forty_free_elements_quickly():
    # 4^40 - 1 candidate sets: the count stops at the first few singletons
    inst = _three_atom_instance(40, FreeSystem)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="lattice at least 2") as err:
        best_greedy_family(inst)
    assert time.perf_counter() - start < 1
    assert err.value.cap == "family_sets"


def test_family_cap_refusal_is_quick_and_printable():
    # a 2^65535 lattice: neither built nor kept as `reached`, which would be
    # too long for str()
    inst = _three_atom_instance(8, FreeSystem)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as err:
        best_greedy_family(inst)
    assert time.perf_counter() - start < 1
    assert str(err.value.reached) == "1000001"


def _random_partition(rng, ground):
    """At most two blocks of a shuffled ground set, caps from 0 to full."""
    ids = rng.sample(sorted(ground), len(ground))
    cut = rng.randint(1, len(ids))
    blocks = tuple(frozenset(b) for b in (ids[:cut], ids[cut:]) if b)
    return PartitionSystem(ground, blocks, tuple(rng.randint(0, len(b)) for b in blocks))


def test_family_cap_counts_the_candidate_sets():
    rng = random.Random(43)
    inners = {
        "free": FreeSystem,
        "one-uniform": lambda ground: UniformSystem(ground, 1),
        "uniform": lambda ground: UniformSystem(ground, rng.randint(0, len(ground))),
        "explicit": lambda ground: explicit_system(
            ground,
            [rng.sample(sorted(ground), rng.randint(0, len(ground))) for _ in range(3)],
        ),
        "partition": lambda ground: _random_partition(rng, ground),
        "intersection": lambda ground: IntersectionSystem(
            ground, (_random_partition(rng, ground), UniformSystem(ground, rng.randint(0, 2)))
        ),
    }
    for _ in range(100):
        ids = [f"e{i}" for i in range(rng.randint(1, 4))]
        # x repeats across atoms, so the (element, x) projection merges some
        sizes = {e: rng.randint(1, 3) for e in ids}
        dists = {
            e: [
                UtilityAtom(Fraction(rng.randint(0, 2)), Fraction(k), Fraction(1, m))
                for k in range(m)
            ]
            for e, m in sizes.items()
        }
        for kind, make_inner in inners.items():
            ground = frozenset(ids)
            inner = make_inner(ground)
            # the gambler has no outer constraint, so an outer one changes
            # neither the count nor the candidate sets
            for outer in (FreeSystem(ground), UniformSystem(ground, 1)):
                inst = make_instance(ids, dists, outer, inner)
                # the lattice is refused from the count, before any set is
                # built; at cap 2^count - 1 the count's walk has to finish
                count = len(candidate_pair_sets(inst))
                cap = 2**count - 1
                with pytest.raises(CapacityError) as err:
                    best_greedy_family(inst, Caps(family_sets=cap))
                assert str(err.value) == (
                    f"candidate family lattice 2^{count} exceeds cap {cap}"
                ), kind
                projected = {
                    frozenset((o.element, o.x) for o in outcomes)
                    for outcomes in realizable_inner_sets(inst)
                }
                candidates = candidate_pair_sets(inst)
                assert set(candidates) == projected, kind
                # first occurrences on the proposal rows come in the lattice's order
                assert candidates == sorted(projected, key=lambda s: (len(s), sorted(s))), kind


def test_family_requires_feasible_members():
    inst = coins2()
    with pytest.raises(ValueError, match="not feasible"):
        greedy_family(
            [[("1", Fraction(1)), ("2", Fraction(1))]], inst.inner
        )
