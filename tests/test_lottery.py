import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import delegation_lab.delegation as delegation_module
import delegation_lab.lottery as lottery_module
from delegation_lab.delegation import TieBreak, evaluate_policy, materialize_policy
from delegation_lab.errors import CapacityError, Caps, UnsupportedError
from delegation_lab.instances import (
    Outcome,
    outcome_set_key,
    outcome_set_to_json,
    table1,
    table2,
)
from delegation_lab.lottery import (
    Lottery,
    LotteryMenu,
    agent_lottery_choice,
    evaluate_lottery_menu,
    lottery,
    lottery_menu,
    menu_from_json,
    menu_to_json,
    search_two_lottery_menus,
)
from delegation_lab.oracle import exact_delegation_gap
from delegation_lab.random_instances import random_greedy_family, random_tiny_instance
from delegation_lab.delegation import policy_from_greedy

from conftest import one_uniform_instance
from literal_lottery import literal_search

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


def test_each_lottery_is_compiled_once_per_evaluation(monkeypatch):
    # the stated menu is compiled once into outcome masks and scanned once;
    # no lottery is scored again at any of table1's 6 probing states
    menu, _ = _table1_menu(EPS)
    scored = []
    compiled = []
    scans = []
    original_scored = Lottery.expected_values
    original_compile = lottery_module.menu_offers
    original_scan = delegation_module.offer_stop_values

    def counted_scored(self, probed):
        scored.append(probed)
        return original_scored(self, probed)

    def counted_compile(graph, menu):
        compiled.append(menu)
        return original_compile(graph, menu)

    def counted_scan(graph, offers, mode):
        scans.append(offers)
        return original_scan(graph, offers, mode)

    monkeypatch.setattr(Lottery, "expected_values", counted_scored)
    monkeypatch.setattr(lottery_module, "menu_offers", counted_compile)
    monkeypatch.setattr(delegation_module, "offer_stop_values", counted_scan)
    evaluation = evaluate_lottery_menu(table1(EPS), menu)
    assert compiled == [menu]
    assert len(scans) == 1
    assert scored == []
    assert evaluation.principal_value == 2 - 3 * EPS + 2 * EPS**2


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


def menu_from_policy(instance, policy):
    """Point-mass embedding of a deterministic policy as a lottery menu."""
    return lottery_menu(
        lottery([(member, Fraction(1))])
        for member in sorted(
            materialize_policy(instance, policy), key=outcome_set_key
        )
    )


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


def test_a_lottery_is_canonical_when_it_is_built():
    w0 = Outcome("1", Fraction(0), Fraction(0))
    w2 = Outcome("2", Fraction(1), Fraction(1))
    atoms = ((frozenset({w2}), Fraction(1, 3)), (frozenset({w0}), Fraction(2, 3)))
    forward, reversed_ = Lottery(atoms), Lottery(atoms[::-1])
    assert forward == reversed_
    assert hash(forward) == hash(reversed_)
    assert lottery_menu([forward, reversed_]).lotteries == (forward,)
    (written,) = menu_to_json(LotteryMenu((reversed_,)))["lotteries"]
    # written in `outcome_set_key` order, not in the order it was given
    assert [item["set"] for item in written["atoms"]] == [
        outcome_set_to_json({w0}),
        outcome_set_to_json({w2}),
    ]


def _menu_with_atom_set(atom_set):
    anchor = Outcome("2", Fraction(1), Fraction(1))
    return lottery_menu(
        [
            lottery([({anchor}, Fraction(1))]),
            lottery([(atom_set, Fraction(1, 2)), (frozenset(), Fraction(1, 2))]),
        ]
    )


def test_menu_validation_rejects_off_support_sets():
    menu = _menu_with_atom_set({Outcome("2", Fraction(5), Fraction(5))})
    with pytest.raises(ValueError, match="lottery support .* is not an inner-feasible"):
        evaluate_lottery_menu(table1(EPS), menu)


@pytest.mark.parametrize(
    "atom_set",
    [
        pytest.param({Outcome("3", Fraction(1), Fraction(1))}, id="unknown-element"),
        pytest.param(
            {Outcome("1", Fraction(0), Fraction(0)), Outcome("1", 1 / EPS, 1 - EPS)},
            id="two-outcomes-of-one-element",
        ),
        pytest.param(
            {Outcome("1", 1 / EPS, 1 - EPS), Outcome("2", Fraction(1), Fraction(1))},
            id="inner-infeasible-pair",
        ),
    ],
)
def test_menu_validation_rejects_bad_atom_sets(atom_set):
    menu = _menu_with_atom_set(atom_set)
    with pytest.raises(ValueError, match="lottery support .* is not an inner-feasible"):
        evaluate_lottery_menu(table1(EPS), menu)


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


def test_fine_grid_still_misses_the_table1_optimum():
    # a known defect of the two-lottery grid, kept visible until an exact
    # menu optimum replaces it: the best 1/100 menus stay below 13/9 at
    # eps = 1/3 and below 85/49 at eps = 1/7
    for eps, found, optimum in [
        (Fraction(1, 3), Fraction(36, 25), Fraction(13, 9)),
        (Fraction(1, 7), Fraction(121, 70), Fraction(85, 49)),
    ]:
        _, evaluation = search_two_lottery_menus(
            table1(eps), Fraction(1, 100), TieBreak.PRINCIPAL_FAVORING
        )
        assert evaluation.principal_value == found < optimum == 2 - 2 * eps + eps**2


def test_search_on_degenerate_instance_matches_benchmark():
    inst = one_uniform_instance({"r": [(3, 2, 1)], "d": [(1, 1, 1)]})
    menu, evaluation = search_two_lottery_menus(inst, Fraction(1, 10))
    assert evaluation.principal_value == evaluation.benchmark_value == 3


def _risky_second(instance):
    """`instance` with its two elements listed in the other order."""
    return dataclasses.replace(
        instance, elements=instance.elements[::-1], atoms=instance.atoms[::-1]
    )


SEARCH_EPSILONS = [Fraction(1, k) for k in range(2, 10)] + [Fraction(2, 5), Fraction(3, 7)]
SMALL_GRIDS = [Fraction(1), Fraction(1, 2), Fraction(1, 9), Fraction(1, 10)]


def _assert_literal_search(instance, grid, mode):
    found = search_two_lottery_menus(instance, grid, mode)
    assert found == literal_search(instance, grid, mode)


@pytest.mark.parametrize("mode", list(TieBreak))
def test_search_equals_the_literal_search_on_the_tables(mode):
    for k, eps in enumerate(SEARCH_EPSILONS):
        for table in (table1, table2):
            instance = table(eps) if k % 2 else _risky_second(table(eps))
            for grid in SMALL_GRIDS:
                _assert_literal_search(instance, grid, mode)


@pytest.mark.parametrize(
    "instance, mode",
    [
        (table2(Fraction(1, 3)), TieBreak.PRINCIPAL_FAVORING),
        (_risky_second(table1(Fraction(1, 7))), TieBreak.LEXICOGRAPHIC),
    ],
)
def test_search_equals_the_literal_search_on_the_fine_grid(instance, mode):
    _assert_literal_search(instance, Fraction(1, 100), mode)


def test_search_equals_the_literal_search_on_degenerate_and_seeded_instances():
    # low == high: A_i and B_i share their key, every other pair a support
    degenerate = one_uniform_instance({"r": [(3, 2, 1)], "d": [(1, 1, 1)]})
    for instance in (degenerate, _risky_second(degenerate)):
        for mode in TieBreak:
            for grid in SMALL_GRIDS:
                _assert_literal_search(instance, grid, mode)
    # both elements deterministic, so every A_i and B_j share a support; x and
    # y in {0, 1, 2} give equal and zero agent utilities
    for xr, yr, xd, yd in itertools.product(range(3), repeat=4):
        instance = one_uniform_instance({"r": [(xr, yr, 1)], "d": [(xd, yd, 1)]})
        for ordered in (instance, _risky_second(instance)):
            for mode in TieBreak:
                for grid in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
                    _assert_literal_search(ordered, grid, mode)
    # few distinct values: x and y repeat across outcomes, so many menus tie
    # and the first strict best decides
    rng = random.Random(13)
    values = [0, Fraction(1, 2), 1, 2]
    for _ in range(80):
        risky = [
            (rng.choice(values), rng.choice(values), p)
            for p in rng.choice([[1], [Fraction(1, 2)] * 2, [Fraction(1, 4), Fraction(3, 4)]])
        ]
        dists = {"r": risky, "d": [(rng.choice(values), rng.choice(values), 1)]}
        if rng.random() < 0.5:
            dists = {"d": dists["d"], "r": risky}
        grid = Fraction(1, rng.randint(1, 5))
        for mode in TieBreak:
            _assert_literal_search(one_uniform_instance(dists), grid, mode)


def test_search_compiles_once_and_builds_only_the_winner(monkeypatch):
    calls = {"evaluate": [], "compile": 0, "distribution": 0, "lottery": 0, "menu": 0}
    evaluate = lottery_module.evaluate_lottery_menu
    compile_menu = lottery_module.menu_offers
    distribution = delegation_module.probe_distribution
    post_lottery = Lottery.__post_init__
    post_menu = LotteryMenu.__post_init__

    def counted_evaluate(instance, menu, *args):
        calls["evaluate"].append(menu)
        return evaluate(instance, menu, *args)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(lottery_module, "evaluate_lottery_menu", counted_evaluate)
    monkeypatch.setattr(lottery_module, "menu_offers", counted("compile", compile_menu))
    monkeypatch.setattr(
        delegation_module, "probe_distribution", counted("distribution", distribution)
    )
    monkeypatch.setattr(Lottery, "__post_init__", counted("lottery", post_lottery))
    monkeypatch.setattr(LotteryMenu, "__post_init__", counted("menu", post_menu))
    graph_cache = lottery_module.probing_graph
    # the state cap refuses before any lottery is built
    with pytest.raises(CapacityError):
        search_two_lottery_menus(table2(EPS), Fraction(1, 100), caps=Caps(dp_states=5))
    assert calls["lottery"] == calls["menu"] == 0
    graph_cache.cache_clear()
    menu, evaluation = search_two_lottery_menus(
        table2(EPS), Fraction(1, 100), TieBreak.PRINCIPAL_FAVORING
    )
    assert graph_cache.cache_info().misses == 1
    assert calls["evaluate"] == [] and calls["compile"] == 0
    assert calls["distribution"] == 0 and calls["menu"] == 1
    assert calls["lottery"] == 2
    assert evaluation.principal_value == 1
    # the probe distribution is built once, on first read
    assert evaluation.probe_distribution == evaluation.probe_distribution
    assert calls["distribution"] == 1


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


@pytest.mark.parametrize("element", [{"id": "1"}, ["1"], 1, None])
def test_menu_outcome_ids_must_be_strings(element):
    encoded = {
        "lotteries": [
            {"atoms": [{"set": [{"element": element, "x": [0, 1], "y": [0, 1]}], "p": [1, 1]}]}
        ]
    }
    with pytest.raises(ValueError, match="element ids must be strings"):
        menu_from_json(encoded)
