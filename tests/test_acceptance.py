"""End-to-end verification suite.

One test per criterion; each prints a single pass/fail line.  All random
suites run on frozen seeds so results are reproducible, every comparison is
exact rational arithmetic, and the two decimal thresholds below are applied
exactly as stated next to them.
"""

import functools
import hashlib
import importlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from delegation_lab.delegation import (
    ThresholdPolicy,
    TieBreak,
    build_threshold_policy,
    compose_outer,
    evaluate_policy,
    policy_from_greedy,
)
from delegation_lab.instances import (
    Outcome,
    coins2,
    enumerate_scenarios,
    instance_to_json,
    realizable_inner_sets,
    scenario_count,
    table1,
    table2,
)
from delegation_lab.lottery import (
    evaluate_lottery_menu,
    lottery,
    lottery_menu,
    search_two_lottery_menus,
)
from delegation_lab.oracle import exact_delegation_gap
from delegation_lab.probing import best_nonadaptive_set, optimal_adaptive_value
from delegation_lab.prophet import (
    evaluate_vs_almighty,
    samuel_cahn_threshold,
    threshold_family,
)
from delegation_lab.random_instances import (
    random_free_outer_instance,
    random_greedy_family,
    random_matroid_outer_instance,
    random_partition_outer_instance,
    random_tiny_instance,
)

EPSILONS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3))
HALF = Fraction(1, 2)

# certified rational brackets of 1 - 1/e = 0.63212055882855767840...
GAP_LOWER = Fraction(632120558828557, 10**15)      # < 1 - 1/e
GAP_TRIGGER = Fraction(6321205588285577, 10**16)   # > 1 - 1/e
# certified rational floor of (1/2) * (1 - 1/e) = 0.31606027941427883920...
HALF_GAP_FLOOR = Fraction(3160602794142788, 10**16)
DECIMAL_TOL = Fraction(1, 10**9)

INSTANCE_SUITE_SEED = 1009
FAMILY_SEED = 77
COMPOSITION_SEED = 2027
TINY_SEED = 4021
ADAPTIVITY_SEED = 1789


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            suffix = f" [{detail}]" if detail else ""
            print(f"criterion {number} ({name}): PASS{suffix}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def half_policy_suite():
    rng = random.Random(INSTANCE_SUITE_SEED)
    return [random_free_outer_instance(rng) for _ in range(200)]


@criterion(1, "table1 reproduction")
def test_criterion_1_table1_reproduction():
    for eps in EPSILONS:
        inst = table1(eps)
        assert optimal_adaptive_value(inst).expected_value == 2 - eps
        assert exact_delegation_gap(inst).alpha_star == 1 / (2 - eps)
        low = Outcome("1", Fraction(0), Fraction(0))
        high = Outcome("1", 1 / eps, 1 - eps)
        anchor = Outcome("2", Fraction(1), Fraction(1))
        menu = lottery_menu(
            [
                lottery([({high}, Fraction(1))]),
                lottery([({anchor}, 1 - 2 * eps), ({low}, 2 * eps)]),
            ]
        )
        value = evaluate_lottery_menu(inst, menu).principal_value
        assert value == 2 - 3 * eps + 2 * eps**2
    return f"epsilons {', '.join(str(e) for e in EPSILONS)}"


@criterion(2, "table2 reproduction")
def test_criterion_2_table2_reproduction():
    for eps in EPSILONS:
        inst = table2(eps)
        gap = exact_delegation_gap(inst, TieBreak.PRINCIPAL_FAVORING)
        assert gap.alpha_star == 1 / (2 - eps)
        _, best = search_two_lottery_menus(
            inst, Fraction(1, 100), TieBreak.PRINCIPAL_FAVORING
        )
        # the grid maximum hits 1 exactly and therefore never exceeds it
        assert best.principal_value == 1
    return "grid 1/100, menus capped at the deterministic optimum"


@criterion(3, "half guarantee of tuned threshold policies")
def test_criterion_3_threshold_half_guarantee(half_policy_suite):
    min_alpha = None
    for inst in half_policy_suite:
        policy, _, _ = build_threshold_policy(inst)
        evaluation = evaluate_policy(inst, policy, TieBreak.ADVERSARIAL)
        assert evaluation.alpha >= HALF, instance_to_json(inst)
        min_alpha = (
            evaluation.alpha
            if min_alpha is None
            else min(min_alpha, evaluation.alpha)
        )
    return f"200 instances, min alpha {min_alpha}"


@criterion(4, "delegated value dominates the forced gambler")
def test_criterion_4_policy_dominates_gambler(half_policy_suite):
    family_rng = random.Random(FAMILY_SEED)
    checked = 0
    for inst in half_policy_suite:
        families = [threshold_family(inst, samuel_cahn_threshold(inst))]
        families += [random_greedy_family(family_rng, inst) for _ in range(20)]
        for family in families:
            gambler = evaluate_vs_almighty(inst, family).gambler_value
            value = evaluate_policy(
                inst,
                policy_from_greedy(family),
                TieBreak.ADVERSARIAL,
                benchmark=Fraction(1),
            ).principal_value
            assert value >= gambler, instance_to_json(inst)
            checked += 1
    return f"{checked} (instance, family) pairs"


def test_criterion_4_draws_the_same_families(half_policy_suite):
    # the candidate sets are built once per instance, not once per draw, and
    # every family drawn is the same: sha256 over each family's sorted
    # maximal sets as [element, x numerator, x denominator] triples
    candidates = importlib.import_module("delegation_lab.random_instances")._candidates
    candidates.cache_clear()
    family_rng = random.Random(FAMILY_SEED)
    digest = hashlib.sha256()
    for inst in half_policy_suite:
        for _ in range(20):
            family = random_greedy_family(family_rng, inst)
            members = sorted(
                sorted((e, x.numerator, x.denominator) for e, x in member)
                for member in family.maximal
            )
            digest.update(json.dumps(members).encode())
    assert candidates.cache_info().misses == len(half_policy_suite)
    assert digest.hexdigest() == (
        "19d766ad1aba6caf0ad60c55a8a55a6f02116b64a7e863914c1492b26ae27806"
    )


@criterion(5, "outer composition keeps its factor")
def test_criterion_5_composition():
    rng = random.Random(COMPOSITION_SEED)
    triggered = 0
    for _ in range(100):
        inst = random_partition_outer_instance(rng, max_elements=5)
        nonadaptive = best_nonadaptive_set(inst)
        policy, probe_set = compose_outer(inst)
        assert probe_set == nonadaptive.best_set
        evaluation = evaluate_policy(inst, policy, TieBreak.ADVERSARIAL)
        assert evaluation.alpha >= nonadaptive.ratio_to_adaptive * HALF, (
            instance_to_json(inst)
        )
        if nonadaptive.ratio_to_adaptive >= GAP_TRIGGER:
            triggered += 1
            # decimal threshold 0.3160... checked at 1e-9
            assert evaluation.alpha >= HALF_GAP_FLOOR - DECIMAL_TOL, (
                instance_to_json(inst)
            )
    return f"100 instances, constant clause on {triggered}"


@criterion(6, "oracle dominates constructive policies")
def test_criterion_6_oracle_consistency():
    rng = random.Random(TINY_SEED)
    for _ in range(50):
        inst = random_tiny_instance(rng)
        assert len(realizable_inner_sets(inst)) <= 3  # at most 8 policies
        assert scenario_count(inst) <= 16
        alpha_star = exact_delegation_gap(inst).alpha_star
        tau = samuel_cahn_threshold(inst)
        constructive = [
            build_threshold_policy(inst)[0],
            ThresholdPolicy(tau),
            policy_from_greedy(threshold_family(inst, tau)),
            compose_outer(inst)[0],
        ]
        for policy in constructive:
            assert evaluate_policy(inst, policy).alpha <= alpha_star, (
                instance_to_json(inst)
            )
    return "50 instances x 4 constructions"


@criterion(7, "prophet baseline on two fair coins")
def test_criterion_7_prophet_baseline():
    inst = coins2()
    family = threshold_family(inst, samuel_cahn_threshold(inst))
    report = evaluate_vs_almighty(inst, family)
    assert report.gambler_value == Fraction(3, 4)
    assert report.prophet_value == Fraction(3, 4)
    assert report.ratio == 1

    # independent adversary check over all 2 orderings x 4 scenarios
    scenarios = enumerate_scenarios(inst)
    orderings = list(itertools.permutations(inst.elements))
    assert len(scenarios) == 4 and len(orderings) == 2
    gambler = Fraction(0)
    for realization, prob in scenarios:
        per_order = []
        for order in orderings:
            taken = Fraction(0)
            for e in order:
                x = inst.dist(e)[realization[e]].x
                if x >= 1:
                    taken = x
                    break
            per_order.append(taken)
        gambler += prob * min(per_order)
    assert gambler == report.gambler_value
    return "gambler 3/4, prophet 3/4"


@criterion(8, "measured adaptivity gap clears 1 - 1/e")
def test_criterion_8_adaptivity_measurement():
    rng = random.Random(ADAPTIVITY_SEED)
    min_ratio = None
    nontrivial = 0
    for _ in range(100):
        inst = random_matroid_outer_instance(rng, max_elements=5)
        report = best_nonadaptive_set(inst)
        assert report.ratio_to_adaptive >= GAP_LOWER, instance_to_json(inst)
        if report.ratio_to_adaptive < 1:
            nontrivial += 1
        min_ratio = (
            report.ratio_to_adaptive
            if min_ratio is None
            else min(min_ratio, report.ratio_to_adaptive)
        )
    return f"100 instances, min ratio {min_ratio}, {nontrivial} below 1"
