from dataclasses import fields
from fractions import Fraction

import pytest

from delegation_lab.cli import Caps
from delegation_lab.errors import CapacityError
from delegation_lab.instances import coins2, enumerate_scenarios, table1
from delegation_lab.oracle import enumerate_policies
from delegation_lab.probing import best_nonadaptive_set, optimal_adaptive_value
from delegation_lab.prophet import (
    best_greedy_family,
    evaluate_vs_almighty,
    threshold_family,
)

HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "refused, cap, limit, reached, message",
    [
        (lambda: enumerate_scenarios(coins2(), 3), "scenarios", 3, 4,
         "scenario count 4 exceeds cap 3"),
        (lambda: list(enumerate_policies(table1(HALF), 2)), "policy_sets", 2, 3,
         "inner-feasible outcome sets exceed cap 2 (count reached 3)"),
        (lambda: optimal_adaptive_value(table1(HALF), 2), "dp_states", 2, 3,
         "probing DP exceeded 2 states"),
        (lambda: best_nonadaptive_set(table1(HALF), set_cap=2), "outer_sets", 2, 3,
         "outer-feasible set count exceeds cap 2"),
        (lambda: evaluate_vs_almighty(coins2(), threshold_family(coins2(), 1), 7),
         "orderings", 7, 8, "orderings x scenarios = 8 exceeds cap 7"),
        (lambda: best_greedy_family(coins2(), family_cap=8), "family_sets", 8, 16,
         "candidate family lattice 2^4 exceeds cap 8"),
    ],
)
def test_capacity_errors_name_the_cap_its_limit_and_the_count(
    refused, cap, limit, reached, message
):
    with pytest.raises(CapacityError) as err:
        refused()
    assert str(err.value) == message
    assert (err.value.cap, err.value.limit, err.value.reached) == (cap, limit, reached)
    assert cap in {f.name for f in fields(Caps)}  # the --caps key that lifts it
