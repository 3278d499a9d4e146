import json
import random
from fractions import Fraction

import pytest

from delegation_lab.errors import CapacityError
from delegation_lab.instances import (
    Outcome,
    UtilityAtom,
    coins2,
    enumerate_scenarios,
    instance_to_json,
    is_inner_feasible_outcome_set,
    load_instance,
    outcomes_of,
    realizable_inner_sets,
    realizable_outcomes,
    table1,
    table2,
)
from delegation_lab.random_instances import random_free_outer_instance
from delegation_lab.set_systems import FreeSystem, UniformSystem

from conftest import one_uniform_instance


def test_atom_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        UtilityAtom(Fraction(-1), Fraction(0), Fraction(1))
    with pytest.raises(ValueError, match="probability"):
        UtilityAtom(Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(ValueError, match="probability"):
        UtilityAtom(Fraction(1), Fraction(0), Fraction(3, 2))


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        one_uniform_instance({"a": [(1, 1, Fraction(1, 2))]})


def test_duplicate_atoms_merge():
    inst = one_uniform_instance(
        {"a": [(1, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2))]}
    )
    assert inst.dist("a") == (UtilityAtom(Fraction(1), Fraction(1), Fraction(1)),)


def test_single_atom_single_scenario():
    inst = one_uniform_instance({"a": [(5, 0, 1)]})
    assert enumerate_scenarios(inst) == [({"a": 0}, Fraction(1))]


def test_table1_has_two_equiprobable_scenarios():
    inst = table1(Fraction(1, 2))
    scenarios = enumerate_scenarios(inst)
    assert len(scenarios) == 2
    assert [p for _, p in scenarios] == [Fraction(1, 2), Fraction(1, 2)]


def test_product_scenarios_sum_to_one():
    inst = one_uniform_instance(
        {
            "a": [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))],
            "b": [(0, 1, Fraction(1, 3)), (2, 1, Fraction(2, 3))],
            "c": [(0, 1, Fraction(1, 4)), (1, 1, Fraction(1, 4)), (2, 1, Fraction(1, 2))],
        }
    )
    scenarios = enumerate_scenarios(inst)
    assert len(scenarios) == 12
    assert sum(p for _, p in scenarios) == 1


def test_scenario_cap_names_product_size():
    inst = one_uniform_instance(
        {
            "a": [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))],
            "b": [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))],
        }
    )
    with pytest.raises(CapacityError, match="4"):
        enumerate_scenarios(inst, cap=3)


def test_outcomes_of_empty_probe_set():
    inst = table1(Fraction(1, 4))
    realization = {"1": 1, "2": 0}
    assert outcomes_of(inst, realization, set()) == frozenset()


def test_outcomes_of_table1_full_probe():
    eps = Fraction(1, 4)
    inst = table1(eps)
    jackpot = {"1": [i for i, a in enumerate(inst.dist("1")) if a.x > 0][0], "2": 0}
    assert outcomes_of(inst, jackpot, {"1", "2"}) == frozenset(
        {Outcome("1", 1 / eps, 1 - eps), Outcome("2", Fraction(1), Fraction(1))}
    )
    assert outcomes_of(inst, jackpot, {"2"}) == frozenset(
        {Outcome("2", Fraction(1), Fraction(1))}
    )


def test_outcomes_of_monotone_in_probe_set():
    rng = random.Random(3)
    inst = random_free_outer_instance(rng)
    for realization, _ in enumerate_scenarios(inst):
        small = set(inst.elements[: len(inst.elements) // 2])
        assert outcomes_of(inst, realization, small) <= outcomes_of(
            inst, realization, set(inst.elements)
        )


def test_inner_feasibility_of_outcome_sets():
    eps = Fraction(1, 4)
    inst = table1(eps)
    w1 = Outcome("1", 1 / eps, 1 - eps)
    w2 = Outcome("2", Fraction(1), Fraction(1))
    assert is_inner_feasible_outcome_set(inst, set())
    assert is_inner_feasible_outcome_set(inst, {w1})
    # two outcomes of the same element are never a valid selection
    assert not is_inner_feasible_outcome_set(
        inst, {w1, Outcome("1", Fraction(0), Fraction(0))}
    )
    # the pick-one inner constraint rejects the pair
    assert not is_inner_feasible_outcome_set(inst, {w1, w2})
    # off-support utilities are rejected
    assert not is_inner_feasible_outcome_set(
        inst, {Outcome("2", Fraction(7), Fraction(1))}
    )


def test_realizable_outcomes_table1():
    eps = Fraction(1, 3)
    assert realizable_outcomes(table1(eps)) == [
        Outcome("1", Fraction(0), Fraction(0)),
        Outcome("1", 1 / eps, 1 - eps),
        Outcome("2", Fraction(1), Fraction(1)),
    ]


def test_realizable_inner_sets_are_singletons_for_pick_one():
    inst = coins2()
    sets = realizable_inner_sets(inst)
    assert all(len(s) == 1 for s in sets)
    assert len(sets) == 4


def test_json_round_trip():
    inst = table2(Fraction(1, 3))
    encoded = instance_to_json(inst)
    decoded = load_instance(json.loads(json.dumps(encoded)))
    assert decoded == inst
    assert instance_to_json(decoded) == encoded


def test_json_schema_errors():
    with pytest.raises(ValueError, match="missing"):
        load_instance({"elements": []})
    with pytest.raises(ValueError, match="numerator, denominator"):
        load_instance(
            {
                "elements": [{"id": "a", "support": [{"x": 1, "y": [0, 1], "p": [1, 1]}]}],
                "outer": {"kind": "free"},
                "inner": {"kind": "uniform", "k": 1},
            }
        )
    with pytest.raises(ValueError, match="positive denominator"):
        load_instance(
            {
                "elements": [
                    {"id": "a", "support": [{"x": [1, 0], "y": [0, 1], "p": [1, 1]}]}
                ],
                "outer": {"kind": "free"},
                "inner": {"kind": "uniform", "k": 1},
            }
        )
    # set systems are parsed strictly: no strings split into ids, no
    # truncated or boolean integers
    elements = [
        {"id": e, "support": [{"x": [1, 1], "y": [1, 1], "p": [1, 1]}]}
        for e in ("1", "2")
    ]
    for outer, match in (
        ({"kind": "partition", "blocks": ["12"], "caps": [1]}, "list of element ids"),
        ({"kind": "partition", "blocks": [["1", "2"]], "caps": [1.9]}, "integer"),
        ({"kind": "uniform", "k": True}, "integer"),
        ({"kind": "explicit", "maximal": ["12"]}, "list of element ids"),
    ):
        with pytest.raises(ValueError, match=match):
            load_instance(
                {
                    "elements": elements,
                    "outer": outer,
                    "inner": {"kind": "uniform", "k": 1},
                }
            )


def test_builtin_tables_match_published_rows():
    eps = Fraction(1, 10)
    inst = table1(eps)
    assert inst.elements == ("1", "2")
    assert inst.dist("1") == (
        UtilityAtom(Fraction(0), Fraction(0), 1 - eps),
        UtilityAtom(Fraction(10), Fraction(9, 10), eps),
    )
    assert inst.dist("2") == (UtilityAtom(Fraction(1), Fraction(1), Fraction(1)),)
    assert isinstance(inst.outer, FreeSystem)
    assert isinstance(inst.inner, UniformSystem) and inst.inner.k == 1

    flip = table2(eps)
    assert flip.dist("1")[1].y == 0


def test_builtin_epsilon_validation():
    with pytest.raises(ValueError, match="epsilon"):
        table1(Fraction(2))
