import json
import random
from fractions import Fraction

import pytest

from delegation_lab.errors import CapacityError, Caps
from delegation_lab.instances import (
    Outcome,
    UtilityAtom,
    coins2,
    enumerate_scenarios,
    instance_to_json,
    is_inner_feasible_outcome_set,
    load_instance,
    make_instance,
    realizable_inner_sets,
    table1,
    table2,
)
from delegation_lab.set_systems import FreeSystem, UniformSystem

from conftest import one_uniform_instance
from literal_instances import literal_make_instance


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
        enumerate_scenarios(inst, Caps(scenarios=3))


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


def test_equal_outcomes_and_atoms_hash_alike():
    # ints, unreduced Fraction inputs and normalized Fractions are equal
    # values, so they must be one dict key
    forms = [(1, Fraction(1, 2)), (Fraction(2, 2), Fraction(2, 4)), (Fraction(1), Fraction(1, 2))]
    probs = [1, Fraction(3, 3), Fraction(1)]
    outcomes = [Outcome("e", x, y) for x, y in forms]
    atoms = [UtilityAtom(x, y, p) for (x, y), p in zip(forms, probs)]
    for group in (outcomes, atoms):
        assert all(value == group[0] for value in group)
        assert len({hash(value) for value in group}) == 1
        assert len(set(group)) == 1
    assert hash(UtilityAtom(0, 0, 1)) == hash(UtilityAtom(Fraction(0), Fraction(0, 5), Fraction(4, 4)))
    distinct = {Outcome("e", 1, 2), Outcome("e", 2, 1), Outcome("f", 1, 2), Outcome("e", 1, Fraction(2, 3))}
    assert len(distinct) == 4


def _any_form(rng, value):
    """`value` as itself, as an unreduced Fraction input or, when whole, an int."""
    forms = [value, Fraction(3 * value.numerator, 3 * value.denominator)]
    if value.denominator == 1:
        forms.append(value.numerator)
    return rng.choice(forms)


def _draw_dists(rng, elements):
    """Unsorted supports over a small value pool, so (x, y) atoms repeat;
    one draw in four breaks a support: an atom dropped (its sum falls short)
    or a heavy atom repeated (its merged probability exceeds 1)."""
    pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2, 3), Fraction(2)]
    dists = {}
    for e in elements:
        weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
        atoms = [
            UtilityAtom(_any_form(rng, rng.choice(pool)), _any_form(rng, rng.choice(pool)), Fraction(w, sum(weights)))
            for w in weights
        ]
        broken = rng.random()
        if broken < 0.1 and len(atoms) > 1:
            atoms.pop(rng.randrange(len(atoms)))
        elif broken < 0.25:
            atoms.append(UtilityAtom(atoms[0].x, atoms[0].y, Fraction(3, 4)))
            atoms.append(UtilityAtom(atoms[0].x, atoms[0].y, Fraction(3, 4)))
        rng.shuffle(atoms)
        dists[e] = atoms
    return dists


def test_make_instance_matches_the_fraction_merge():
    rng = random.Random(17)
    merged = failed = 0
    for _ in range(400):
        elements = [f"e{i}" for i in rng.sample(range(6), rng.randint(1, 4))]
        ground = frozenset(elements)
        dists = _draw_dists(rng, elements)
        args = (elements, dists, FreeSystem(ground), UniformSystem(ground, 1))
        try:
            expected = literal_make_instance(*args)
        except ValueError as err:
            failed += 1
            with pytest.raises(ValueError) as raised:
                make_instance(*args)
            assert str(raised.value) == str(err)
            continue
        inst = make_instance(*args)
        assert inst == expected and hash(inst) == hash(expected)
        assert instance_to_json(inst) == instance_to_json(expected)
        merged += sum(len(dists[e]) - len(inst.dist(e)) for e in elements)
    # the draws exercise both the merge and the refusals
    assert merged > 50 and failed > 50
