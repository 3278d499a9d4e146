import importlib
import inspect
import pkgutil
from dataclasses import fields
from fractions import Fraction

import pytest

import delegation_lab
from delegation_lab import cli, errors
from delegation_lab.delegation import (
    ThresholdPolicy,
    TieBreak,
    build_threshold_policy,
    compose_outer,
    evaluate_policy,
    materialize_policy,
)
from delegation_lab.errors import CapacityError, Caps
from delegation_lab.instances import Outcome, coins2, enumerate_scenarios, table1
from delegation_lab.lottery import (
    evaluate_lottery_menu,
    lottery,
    lottery_menu,
    search_two_lottery_menus,
)
from delegation_lab.oracle import exact_delegation_gap
from delegation_lab.probing import best_nonadaptive_set, optimal_adaptive_value
from delegation_lab.prophet import best_greedy_family, candidate_pair_sets

HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "refused, cap, limit, reached, message",
    [
        (lambda: enumerate_scenarios(coins2(), Caps(scenarios=3)), "scenarios", 3, 4,
         "scenario count 4 exceeds cap 3"),
        (lambda: exact_delegation_gap(table1(HALF), caps=Caps(policy_sets=2)), "policy_sets", 2, 3,
         "inner-feasible outcome sets exceed cap 2 (count reached 3)"),
        (lambda: optimal_adaptive_value(table1(HALF), Caps(dp_states=2)), "dp_states", 2, 3,
         "probing DP exceeded 2 states"),
        (lambda: best_greedy_family(coins2(), Caps(family_sets=8)), "family_sets", 8, 9,
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



MODE = TieBreak.ADVERSARIAL


def _anchor_menu():
    (anchor,) = table1(HALF).dist("2")
    return lottery_menu([lottery([({Outcome("2", anchor.x, anchor.y)}, 1)])])


def _composed(caps):
    return compose_outer(coins2(), caps)


# Each entry point that takes `caps`, with every cap it checks or forwards
# and the count it needs: coins2 has 4 scenarios, 9 probing states and a
# 2^4 family lattice; table1(1/2) has 6 probing states and 3 policy
# candidate sets.  Rows are keyed by a fixed number, which names
# the test case, so removing a row renames no other case.
FORWARDING = {
    0: (lambda caps: enumerate_scenarios(coins2(), caps), "scenarios", 4),
    1: (lambda caps: optimal_adaptive_value(coins2(), caps), "dp_states", 9),
    3: (lambda caps: best_nonadaptive_set(coins2(), caps), "dp_states", 9),
    5: (_composed, "scenarios", 4),
    6: (_composed, "dp_states", 9),
    8: (lambda caps: build_threshold_policy(coins2(), caps), "scenarios", 4),
    11: (lambda caps: best_greedy_family(coins2(), caps), "scenarios", 4),
    13: (lambda caps: best_greedy_family(coins2(), caps), "family_sets", 16),
    14: (
        lambda caps: evaluate_policy(coins2(), ThresholdPolicy(Fraction(1)), MODE, caps),
        "dp_states",
        9,
    ),
    16: (lambda caps: exact_delegation_gap(table1(HALF), MODE, caps), "policy_sets", 3),
    17: (lambda caps: exact_delegation_gap(table1(HALF), MODE, caps), "dp_states", 6),
    18: (
        lambda caps: evaluate_lottery_menu(table1(HALF), _anchor_menu(), MODE, caps),
        "dp_states",
        6,
    ),
    19: (
        lambda caps: search_two_lottery_menus(table1(HALF), HALF, MODE, caps),
        "dp_states",
        6,
    ),
    20: (
        lambda caps: materialize_policy(coins2(), ThresholdPolicy(Fraction(1)), caps),
        "dp_states",
        9,
    ),
    21: (lambda caps: candidate_pair_sets(coins2(), caps), "scenarios", 4),
    22: (lambda caps: candidate_pair_sets(coins2(), caps), "dp_states", 9),
}


@pytest.mark.parametrize(
    "call, key, needed",
    FORWARDING.values(),
    ids=[f"{i}-{key}" for i, (_, key, _) in FORWARDING.items()],
)
def test_every_entry_point_forwards_its_caps(call, key, needed):
    call(Caps(**{key: needed}))
    with pytest.raises(CapacityError) as err:
        call(Caps(**{key: needed - 1}))
    assert (err.value.cap, err.value.limit, err.value.reached) == (
        key,
        needed - 1,
        needed,
    )


def _library_modules():
    names = [m.name for m in pkgutil.iter_modules(delegation_lab.__path__)]
    return [delegation_lab] + [
        importlib.import_module(f"delegation_lab.{name}") for name in names
    ]


def test_caps_are_defined_once():
    assert cli.Caps is errors.Caps
    assert delegation_lab.Caps is errors.Caps
    for module in _library_modules():
        constants = [name for name in vars(module) if name.endswith("_CAP")]
        assert not constants, module.__name__
    # Only the internals that check one int take a bare cap; CapacityError's
    # `cap` holds a key's name, not a limit.
    found = set()
    for module in _library_modules():
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != (
                module.__name__
            ):
                continue
            if inspect.isclass(value):
                members = [
                    (f"{name}.{attr}", member)
                    for attr, member in vars(value).items()
                    if inspect.isfunction(member)
                    and (attr == "__init__" or not attr.startswith("_"))
                ]
            elif callable(value):
                members = [(name, value)]
            else:
                continue
            for qualname, member in members:
                for parameter in inspect.signature(member).parameters:
                    if parameter == "cap" or parameter.endswith("_cap"):
                        found.add((qualname, parameter))
    assert found == {
        ("probing_graph", "state_cap"),
        ("CapacityError.__init__", "cap"),
    }


def test_no_package_attribute_shadows_a_submodule():
    # `import delegation_lab.lottery as m` binds the package attribute, so a
    # re-export named like its submodule would hand out the wrong object
    for info in pkgutil.iter_modules(delegation_lab.__path__):
        module = importlib.import_module(f"delegation_lab.{info.name}")
        assert getattr(delegation_lab, info.name) is module, info.name
