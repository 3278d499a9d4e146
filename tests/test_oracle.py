import random
from fractions import Fraction

import pytest

from delegation_lab.delegation import (
    ThresholdPolicy,
    TieBreak,
    build_threshold_policy,
    evaluate_policy,
    policy_from_greedy,
)
from delegation_lab.errors import CapacityError, Caps
from delegation_lab.instances import UtilityAtom, make_instance, table1, table2
from delegation_lab.oracle import enumerate_policies, exact_delegation_gap
from delegation_lab.prophet import samuel_cahn_threshold, threshold_family
from delegation_lab.random_instances import random_tiny_instance
from delegation_lab.set_systems import ExplicitSystem, FreeSystem, UniformSystem

from conftest import one_uniform_instance


def test_policy_count_table1():
    inst = table1(Fraction(1, 2))
    assert sum(1 for _ in enumerate_policies(inst)) == 8


def test_policy_count_two_elements_mixed_supports():
    inst = one_uniform_instance(
        {"a": [(0, 1, Fraction(1, 2)), (2, 1, Fraction(1, 2))], "b": [(1, 1, 1)]}
    )
    assert sum(1 for _ in enumerate_policies(inst)) == 8


def test_policy_count_with_nothing_acceptable():
    ground = frozenset({"a"})
    inst = make_instance(
        ["a"],
        {"a": [UtilityAtom(Fraction(1), Fraction(1), Fraction(1))]},
        FreeSystem(ground),
        ExplicitSystem(ground, frozenset()),  # only the empty set is feasible
    )
    policies = list(enumerate_policies(inst))
    assert len(policies) == 1
    assert policies[0].acceptable == frozenset()


def test_candidate_cap():
    inst = table1(Fraction(1, 2))
    with pytest.raises(CapacityError, match="cap"):
        list(enumerate_policies(inst, Caps(policy_sets=2)))


def test_candidate_cap_stops_counting_at_the_cap():
    # free inner, three elements with three atoms each: 63 candidate sets
    atoms = [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3)), (2, 3, Fraction(1, 3))]
    ground = frozenset({"a", "b", "c"})
    inst = make_instance(
        sorted(ground),
        {e: [UtilityAtom(Fraction(x), Fraction(y), p) for x, y, p in atoms] for e in ground},
        FreeSystem(ground),
        FreeSystem(ground),
    )
    with pytest.raises(CapacityError, match=r"cap 1 \(count reached 2\)"):
        list(enumerate_policies(inst, Caps(policy_sets=1)))


def test_gap_table2_principal_favoring():
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        report = exact_delegation_gap(table2(eps), TieBreak.PRINCIPAL_FAVORING)
        assert report.alpha_star == 1 / (2 - eps)


def test_gap_table1():
    for eps in (Fraction(1, 10), Fraction(1, 4)):
        report = exact_delegation_gap(table1(eps))
        assert report.alpha_star == 1 / (2 - eps)
        assert report.policies_enumerated == 8


def test_gap_aligned_utilities():
    inst = one_uniform_instance(
        {"a": [(0, 0, Fraction(1, 2)), (3, 3, Fraction(1, 2))], "b": [(1, 1, 1)]}
    )
    report = exact_delegation_gap(inst)
    assert report.alpha_star == 1


def test_best_policy_alpha_matches_alpha_star():
    inst = table1(Fraction(1, 4))
    report = exact_delegation_gap(inst)
    evaluation = evaluate_policy(inst, report.best_policy)
    assert evaluation.alpha == report.alpha_star


def test_oracle_dominates_constructive_policies():
    rng = random.Random(71)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        oracle_alpha = exact_delegation_gap(inst).alpha_star
        tuned, _, _ = build_threshold_policy(inst)
        for policy in (
            tuned,
            policy_from_greedy(
                threshold_family(inst, samuel_cahn_threshold(inst))
            ),
            ThresholdPolicy(samuel_cahn_threshold(inst)),
        ):
            assert evaluate_policy(inst, policy).alpha <= oracle_alpha


def test_relabeled_instance_has_same_gap():
    rng = random.Random(73)
    for _ in range(8):
        inst = random_tiny_instance(rng)
        new_ids = {e: f"z{e}" for e in inst.elements}
        ground = frozenset(new_ids.values())
        renamed = make_instance(
            [new_ids[e] for e in inst.elements],
            {new_ids[e]: list(inst.dist(e)) for e in inst.elements},
            FreeSystem(ground),
            UniformSystem(ground, 1),
        )
        assert (
            exact_delegation_gap(inst).alpha_star
            == exact_delegation_gap(renamed).alpha_star
        )
