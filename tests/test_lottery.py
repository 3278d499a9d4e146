import random
from fractions import Fraction

import pytest

from delegation_lab.delegation import TieBreak, evaluate_policy
from delegation_lab.errors import UnsupportedError
from delegation_lab.instances import Outcome, table1, table2
from delegation_lab.lottery import (
    Lottery,
    agent_lottery_choice,
    evaluate_lottery_menu,
    lottery,
    lottery_menu,
    menu_from_json,
    menu_from_policy,
    menu_to_json,
    search_two_lottery_menus,
    validate_menu,
)
from delegation_lab.oracle import exact_delegation_gap
from delegation_lab.random_instances import random_greedy_family, random_tiny_instance
from delegation_lab.delegation import policy_from_greedy

from conftest import one_uniform_instance

EPS = Fraction(1, 4)


def _table1_menu(eps):
    w0 = Outcome("1", Fraction(0), Fraction(0))
    w1 = Outcome("1", 1 / eps, 1 - eps)
    w2 = Outcome("2", Fraction(1), Fraction(1))
    menu = lottery_menu(
        [
            lottery([({w1}, Fraction(1))]),
            lottery([({w2}, 1 - 2 * eps), ({w0}, 2 * eps)]),
        ]
    )
    return menu, (w0, w1, w2)


def test_agent_picks_jackpot_lottery_when_available():
    menu, (w0, w1, w2) = _table1_menu(EPS)
    jackpot_probe = frozenset({w1, w2})
    chosen, pair = agent_lottery_choice(menu, jackpot_probe)
    assert chosen is not None
    assert chosen.support() == frozenset({frozenset({w1})})
    assert pair == chosen.expected_values(jackpot_probe)


def test_agent_falls_back_to_mixed_lottery():
    menu, (w0, w1, w2) = _table1_menu(EPS)
    blank_probe = frozenset({w0, w2})
    chosen, pair = agent_lottery_choice(menu, blank_probe)
    assert chosen is not None
    assert chosen.support() == frozenset({frozenset({w2}), frozenset({w0})})
    assert pair == chosen.expected_values(blank_probe)


def test_empty_menu_yields_nothing():
    assert agent_lottery_choice(lottery_menu([]), frozenset()) == (None, (0, 0))


def test_each_lottery_is_scored_once_per_state(monkeypatch):
    # table1 has 6 probing states and the stated menu 2 lotteries: the stop
    # rule reuses the chosen lottery's values instead of scoring it again
    menu, _ = _table1_menu(EPS)
    original = Lottery.expected_values
    calls = []

    def counted(self, probed):
        calls.append(probed)
        return original(self, probed)

    monkeypatch.setattr(Lottery, "expected_values", counted)
    evaluate_lottery_menu(table1(EPS), menu)
    assert len(calls) == 12


def test_table1_menu_value_formula():
    for eps in (Fraction(1, 10), EPS, Fraction(1, 3)):
        inst = table1(eps)
        menu, _ = _table1_menu(eps)
        evaluation = evaluate_lottery_menu(inst, menu)
        assert evaluation.principal_value == 2 - 3 * eps + 2 * eps**2
        assert evaluation.alpha == (2 - 3 * eps + 2 * eps**2) / (2 - eps)


def test_point_mass_on_empty_set_scores_zero():
    inst = table1(EPS)
    menu = lottery_menu([lottery([(frozenset(), Fraction(1))])])
    assert evaluate_lottery_menu(inst, menu).principal_value == 0


def test_table2_two_lottery_values_match_parametrization():
    eps = Fraction(1, 3)
    inst = table2(eps)
    w0 = Outcome("1", Fraction(0), Fraction(0))
    w1 = Outcome("1", 1 / eps, Fraction(0))
    w2 = Outcome("2", Fraction(1), Fraction(1))
    for a, b in [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(3, 4), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 5)),
    ]:
        lot_a = lottery([({w2}, a), ({w0}, 1 - a)])
        lot_b = lottery([({w2}, b), ({w1}, 1 - b)])
        menu = lottery_menu([lot_a, lot_b])
        value = evaluate_lottery_menu(
            inst, menu, TieBreak.PRINCIPAL_FAVORING
        ).principal_value
        assert value == (1 if b >= a else a)
        assert value <= 1


def test_deterministic_policies_embed_as_point_mass_menus():
    rng = random.Random(61)
    for _ in range(12):
        inst = random_tiny_instance(rng)
        policy = policy_from_greedy(random_greedy_family(rng, inst))
        menu = menu_from_policy(inst, policy)
        for mode in (TieBreak.ADVERSARIAL, TieBreak.PRINCIPAL_FAVORING):
            direct = evaluate_policy(inst, policy, mode)
            embedded = evaluate_lottery_menu(inst, menu, mode)
            assert direct.principal_value == embedded.principal_value
            assert direct.agent_value == embedded.agent_value


def test_lottery_beats_deterministic_on_table1():
    for eps in (Fraction(1, 10), EPS, Fraction(1, 3)):
        inst = table1(eps)
        deterministic = exact_delegation_gap(inst).alpha_star
        menu, _ = _table1_menu(eps)
        randomized = evaluate_lottery_menu(inst, menu).alpha
        assert randomized - deterministic == (2 - 3 * eps + 2 * eps**2 - 1) / (2 - eps)
        assert randomized > deterministic


def test_duplicate_lotteries_collapse():
    w2 = Outcome("2", Fraction(1), Fraction(1))
    point = lottery([({w2}, Fraction(1))])
    menu = lottery_menu([point, point])
    assert len(menu.lotteries) == 1
    with pytest.raises(ValueError, match="same support"):
        lottery_menu(
            [
                lottery([({w2}, Fraction(1, 2)), (frozenset(), Fraction(1, 2))]),
                lottery([({w2}, Fraction(1, 3)), (frozenset(), Fraction(2, 3))]),
            ]
        )


def test_menu_validation_rejects_off_support_sets():
    inst = table1(EPS)
    menu = lottery_menu(
        [lottery([({Outcome("2", Fraction(5), Fraction(5))}, Fraction(1))])]
    )
    with pytest.raises(ValueError, match="inner-feasible"):
        validate_menu(inst, menu)


def test_search_finds_full_value_on_table2():
    inst = table2(Fraction(1, 2))
    menu, evaluation = search_two_lottery_menus(
        inst, Fraction(1, 100), TieBreak.PRINCIPAL_FAVORING
    )
    assert evaluation.principal_value == 1


def test_search_reaches_stated_value_on_table1():
    inst = table1(EPS)
    menu, evaluation = search_two_lottery_menus(inst, Fraction(1, 100))
    assert evaluation.principal_value >= 2 - 3 * EPS + 2 * EPS**2


def test_search_on_degenerate_instance_matches_benchmark():
    inst = one_uniform_instance({"r": [(3, 2, 1)], "d": [(1, 1, 1)]})
    menu, evaluation = search_two_lottery_menus(inst, Fraction(1, 10))
    assert evaluation.principal_value == evaluation.benchmark_value == 3


def test_search_shape_mismatch():
    inst = one_uniform_instance(
        {
            "a": [(0, 1, Fraction(1, 3)), (1, 1, Fraction(1, 3)), (2, 1, Fraction(1, 3))],
            "b": [(1, 1, 1)],
        }
    )
    with pytest.raises(UnsupportedError, match="two-lottery"):
        search_two_lottery_menus(inst, Fraction(1, 10))
    three = one_uniform_instance(
        {"a": [(1, 1, 1)], "b": [(1, 1, 1)], "c": [(1, 1, 1)]}
    )
    with pytest.raises(UnsupportedError, match="two elements"):
        search_two_lottery_menus(three, Fraction(1, 10))


def test_menu_json_round_trip():
    menu, _ = _table1_menu(EPS)
    encoded = menu_to_json(menu)
    decoded = menu_from_json(encoded)
    assert decoded == menu
    assert menu_to_json(decoded) == encoded
