import argparse
import importlib
import inspect
import json
import os
import pkgutil
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

import delegation_lab
from delegation_lab import cli, errors
from delegation_lab.delegation import (
    Policy,
    ThresholdPolicy,
    TieBreak,
    build_threshold_policy,
    compose_outer,
    evaluate_policy,
    materialize_policy,
    policy_from_json,
    policy_to_json,
)
from delegation_lab.errors import CapacityError, Caps, UnsupportedError
from delegation_lab.instances import (
    Instance,
    Outcome,
    UtilityAtom,
    builtin_instance,
    coins2,
    enumerate_scenarios,
    load_instance,
    make_instance,
    outcome_set_from_json,
    table1,
)
from delegation_lab.lottery import (
    Lottery,
    evaluate_lottery_menu,
    lottery,
    lottery_menu,
    menu_from_json,
    search_two_lottery_menus,
)
from delegation_lab.oracle import exact_delegation_gap
from delegation_lab.probing import (
    best_nonadaptive_set,
    nonadaptive_value,
    optimal_adaptive_value,
    probing_graph,
)
from delegation_lab.prophet import (
    best_greedy_family,
    candidate_pair_sets,
    greedy_family,
    samuel_cahn_threshold,
)
from delegation_lab.set_systems import (
    ExplicitSystem,
    FreeSystem,
    IntersectionSystem,
    SetSystem,
    UniformSystem,
    explicit_system,
    set_system_to_json,
)

HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "refused, cap, limit, reached, message",
    [
        (lambda: enumerate_scenarios(coins2(), Caps(scenarios=3)), "scenarios", 3, 4,
         "scenario count 4 exceeds cap 3"),
        (lambda: exact_delegation_gap(table1(HALF), caps=Caps(policy_sets=2)), "policy_sets", 2, 3,
         "inner-feasible outcome sets exceed cap 2 (count reached 3)"),
        (lambda: optimal_adaptive_value(table1(HALF), Caps(dp_states=2)), "dp_states", 2, 6,
         "probing DP states exceed cap 2 (count reached 6)"),
        (lambda: best_greedy_family(coins2(), Caps(family_sets=8)), "family_sets", 8, 16,
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
# candidate sets, and its grid at step 1/2 holds 9 menus' lanes at each of
# those 6 states.  Rows are keyed by a fixed number, which names
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
        54,
    ),
    20: (
        lambda caps: materialize_policy(coins2(), ThresholdPolicy(Fraction(1)), caps),
        "dp_states",
        9,
    ),
    21: (lambda caps: candidate_pair_sets(coins2(), caps), "scenarios", 4),
    22: (lambda caps: candidate_pair_sets(coins2(), caps), "dp_states", 9),
    23: (lambda caps: samuel_cahn_threshold(coins2(), caps), "scenarios", 4),
    24: (lambda caps: samuel_cahn_threshold(coins2(), caps), "dp_states", 9),
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


MATROID_OUTER = Path(__file__).resolve().parent / "golden" / "matroid_outer.instance.json"


def _matroid_outer():
    with open(MATROID_OUTER, encoding="utf-8") as fh:
        return load_instance(json.load(fh))


def test_the_state_cap_refuses_inside_the_compile():
    # a partition outer has no free-outer pre-check: the breadth-first loop
    # itself meets the 49th state
    probing_graph.cache_clear()
    assert optimal_adaptive_value(_matroid_outer(), Caps(dp_states=49)).state_count == 49
    probing_graph.cache_clear()
    with pytest.raises(CapacityError) as err:
        optimal_adaptive_value(_matroid_outer(), Caps(dp_states=48))
    assert str(err.value) == "probing DP states exceed cap 48 (count reached 49)"
    assert (err.value.cap, err.value.limit, err.value.reached) == ("dp_states", 48, 49)


def test_the_cli_exits_3_when_the_compile_meets_the_state_cap(capsys):
    probing_graph.cache_clear()
    argv = ["adaptivity", "--instance", str(MATROID_OUTER), "--caps", "dp_states=48"]
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "capacity error: probing DP states exceed cap 48 (count reached 49) [cap dp_states=48]\n"
    )


A, AB = frozenset("a"), frozenset("ab")
ATOM = UtilityAtom(Fraction(1), Fraction(1), Fraction(1))
SUPPORT = [{"x": [1, 1], "y": [1, 1], "p": [1, 1]}]


def _instance_json(elements=(("a", SUPPORT),), outer=None, inner=None):
    """An instance file's object: elements as (id, support) pairs."""
    return {
        "elements": [{"id": eid, "support": support} for eid, support in elements],
        "outer": outer or {"kind": "free"},
        "inner": inner or {"kind": "uniform", "k": 1},
    }


# One row per input-validation `raise` (and the first `return False` of
# `prophet._is_one_uniform`) that no other test reaches: (call, exception,
# message, argv).  argv is the command line that reaches the same site, or
# None when the CLI cannot; a dict or list in it is written to a JSON file
# whose path takes its place.  The CLI exits 2 with "error: <message>" as
# its last stderr line, or argparse's line (`PREFIXES`) for a flag value.
INSTANCE_NOT_OBJECT = []
ELEMENTS_NOT_LIST = {**_instance_json(), "elements": {}}
ELEMENT_WITHOUT_SUPPORT = {**_instance_json(), "elements": [{"id": "a"}]}
NUMERIC_ID = _instance_json(elements=((1, SUPPORT),))
EMPTY_SUPPORT = _instance_json(elements=(("a", []),))
SUPPORT_NOT_OBJECTS = _instance_json(elements=(("a", [1]),))
DUPLICATE_IDS = _instance_json(elements=(("a", SUPPORT), ("a", SUPPORT)))
OUTER_NOT_OBJECT = _instance_json(outer="free")
PARTITION_WITHOUT_LISTS = _instance_json(outer={"kind": "partition"})
EXPLICIT_WITHOUT_MAXIMAL = _instance_json(outer={"kind": "explicit"})
INTERSECTION_WITHOUT_PARTS = _instance_json(outer={"kind": "intersection", "parts": []})
NEGATIVE_RANK = _instance_json(inner={"kind": "uniform", "k": -1})
NEGATIVE_CAPACITY = _instance_json(outer={"kind": "partition", "blocks": [["a"]], "caps": [-1]})
EMPTY_BLOCK = _instance_json(outer={"kind": "partition", "blocks": [[]], "caps": [1]})
MAXIMAL_OUTSIDE_GROUND = _instance_json(outer={"kind": "explicit", "maximal": [["b"]]})
NO_ELEMENTS = _instance_json(elements=())
INFEASIBLE_ALONE = _instance_json(inner={"kind": "uniform", "k": 0})
POLICY_WITHOUT_KIND = {}
EXPLICIT_WITHOUT_LIST = {"kind": "explicit"}
UNKNOWN_KIND = {"kind": "y-threshold"}
MEMBER_NOT_LIST = {"kind": "explicit", "acceptable": ["a"]}
OUTCOME_WITHOUT_ELEMENT = {"kind": "explicit", "acceptable": [[{}]]}

REFUSALS = {
    "cli-epsilon": (
        lambda: cli._parse_fraction("abc"),
        argparse.ArgumentTypeError,
        "cannot parse rational 'abc': Invalid literal for Fraction: 'abc'",
        ["gap", "--builtin", "table1", "--epsilon", "abc"],
    ),
    "cli-count": (
        lambda: cli._positive_int("x"),
        argparse.ArgumentTypeError,
        "invalid int value: 'x'",
        ["reproduce", "cor-half", "--count", "x"],
    ),
    "cli-caps-pair": (
        lambda: cli._parse_caps("foo", Caps()),
        ValueError,
        "cap override 'foo' is not key=value",
        ["adaptivity", "--builtin", "coins2", "--caps", "foo"],
    ),
    "cli-caps-integer": (
        lambda: cli._parse_caps("dp_states=x", Caps()),
        ValueError,
        "cap 'dp_states' needs an integer, got 'x'",
        ["adaptivity", "--builtin", "coins2", "--caps", "dp_states=x"],
    ),
    "cli-not-json": (
        lambda: cli._read_json(os.devnull, "instance"),
        ValueError,
        "invalid instance JSON: Expecting value: line 1 column 1 (char 0)",
        ["adaptivity", "--instance", os.devnull],
    ),
    "instances-not-object": (
        lambda: load_instance(INSTANCE_NOT_OBJECT),
        ValueError,
        "instance must be a JSON object",
        ["adaptivity", "--instance", INSTANCE_NOT_OBJECT],
    ),
    "instances-elements-list": (
        lambda: load_instance(ELEMENTS_NOT_LIST),
        ValueError,
        "'elements' must be a list",
        ["adaptivity", "--instance", ELEMENTS_NOT_LIST],
    ),
    "instances-element-fields": (
        lambda: load_instance(ELEMENT_WITHOUT_SUPPORT),
        ValueError,
        "each element needs 'id' and 'support'",
        ["adaptivity", "--instance", ELEMENT_WITHOUT_SUPPORT],
    ),
    "instances-string-ids": (
        lambda: load_instance(NUMERIC_ID),
        ValueError,
        "element ids must be strings",
        ["adaptivity", "--instance", NUMERIC_ID],
    ),
    "instances-empty-support": (
        lambda: load_instance(EMPTY_SUPPORT),
        ValueError,
        "element 'a' needs a nonempty support list",
        ["adaptivity", "--instance", EMPTY_SUPPORT],
    ),
    "instances-atom-objects": (
        lambda: load_instance(SUPPORT_NOT_OBJECTS),
        ValueError,
        "support atoms must be objects",
        ["adaptivity", "--instance", SUPPORT_NOT_OBJECTS],
    ),
    "instances-unique-ids": (
        lambda: load_instance(DUPLICATE_IDS),
        ValueError,
        "element ids must be unique",
        ["adaptivity", "--instance", DUPLICATE_IDS],
    ),
    "instances-one-support-each": (
        lambda: Instance(("a",), (), FreeSystem(A), FreeSystem(A)),
        ValueError,
        "one support per element required",
        None,
    ),
    "instances-constraint-ground": (
        lambda: Instance(("a",), ((ATOM,),), FreeSystem(frozenset("b")), FreeSystem(A)),
        ValueError,
        "constraints must live on the instance elements",
        None,
    ),
    "instances-missing-distribution": (
        lambda: make_instance(["a"], {}, FreeSystem(A), FreeSystem(A)),
        ValueError,
        "missing distribution for element 'a'",
        None,
    ),
    "instances-known-elements": (
        lambda: nonadaptive_value(coins2(), ["3"]),
        ValueError,
        "probe set outside instance: ['3']",
        None,
    ),
    "instances-outcome-set-list": (
        lambda: outcome_set_from_json("a"),
        ValueError,
        "an outcome set must be a list of outcomes",
        ["eval-policy", "--builtin", "coins2", "--policy", MEMBER_NOT_LIST],
    ),
    "instances-outcome-fields": (
        lambda: outcome_set_from_json([{}]),
        ValueError,
        "outcomes need 'element', 'x' and 'y'",
        ["eval-policy", "--builtin", "coins2", "--policy", OUTCOME_WITHOUT_ELEMENT],
    ),
    "instances-builtin-epsilon": (
        lambda: builtin_instance("table1"),
        ValueError,
        "table1 needs an epsilon",
        ["adaptivity", "--builtin", "table1"],
    ),
    "instances-unknown-builtin": (
        lambda: builtin_instance("table3"),
        ValueError,
        "unknown builtin instance 'table3'",
        None,
    ),
    "set_systems-to-json": (
        lambda: set_system_to_json(SetSystem()),
        ValueError,
        "unknown set system type <class 'delegation_lab.set_systems.SetSystem'>",
        None,
    ),
    "set_systems-kind-field": (
        lambda: load_instance(OUTER_NOT_OBJECT),
        ValueError,
        "set system must be an object with a 'kind' field",
        ["adaptivity", "--instance", OUTER_NOT_OBJECT],
    ),
    "set_systems-partition-lists": (
        lambda: load_instance(PARTITION_WITHOUT_LISTS),
        ValueError,
        "partition system needs 'blocks' and 'caps' lists",
        ["adaptivity", "--instance", PARTITION_WITHOUT_LISTS],
    ),
    "set_systems-explicit-list": (
        lambda: load_instance(EXPLICIT_WITHOUT_MAXIMAL),
        ValueError,
        "explicit system needs a 'maximal' list",
        ["adaptivity", "--instance", EXPLICIT_WITHOUT_MAXIMAL],
    ),
    "set_systems-intersection-list": (
        lambda: load_instance(INTERSECTION_WITHOUT_PARTS),
        ValueError,
        "intersection system needs a nonempty 'parts' list",
        ["adaptivity", "--instance", INTERSECTION_WITHOUT_PARTS],
    ),
    "set_systems-uniform-rank": (
        lambda: UniformSystem(A, -1),
        ValueError,
        "uniform rank k must be nonnegative",
        ["adaptivity", "--instance", NEGATIVE_RANK],
    ),
    "set_systems-partition-capacity": (
        lambda: load_instance(NEGATIVE_CAPACITY),
        ValueError,
        "capacities must be nonnegative",
        ["adaptivity", "--instance", NEGATIVE_CAPACITY],
    ),
    "set_systems-empty-block": (
        lambda: load_instance(EMPTY_BLOCK),
        ValueError,
        "empty partition block",
        ["adaptivity", "--instance", EMPTY_BLOCK],
    ),
    "set_systems-maximal-ground": (
        lambda: load_instance(MAXIMAL_OUTSIDE_GROUND),
        ValueError,
        "maximal set outside ground: ['b']",
        ["adaptivity", "--instance", MAXIMAL_OUTSIDE_GROUND],
    ),
    "set_systems-intersection-parts": (
        lambda: IntersectionSystem(A, ()),
        ValueError,
        "intersection needs at least one part",
        None,
    ),
    "set_systems-intersection-ground": (
        lambda: IntersectionSystem(A, (FreeSystem(frozenset("b")),)),
        ValueError,
        "intersection parts must share the ground set",
        None,
    ),
    "lottery-grid-range": (
        lambda: search_two_lottery_menus(table1(HALF), Fraction(2)),
        ValueError,
        "grid step must lie in (0, 1]",
        ["reproduce", "prop-lottery-negative", "--grid", "2"],
    ),
    "lottery-grid-divides": (
        lambda: search_two_lottery_menus(table1(HALF), Fraction(2, 3)),
        ValueError,
        "grid step must divide 1 exactly",
        ["reproduce", "prop-lottery-negative", "--grid", "2/3"],
    ),
    "lottery-grid-one-uniform": (
        lambda: search_two_lottery_menus(
            make_instance("ab", {e: [ATOM] for e in "ab"}, FreeSystem(AB), FreeSystem(AB)), HALF
        ),
        UnsupportedError,
        "two-lottery search needs a 1-uniform inner constraint",
        None,
    ),
    "lottery-menu-object": (
        lambda: menu_from_json([]),
        ValueError,
        "menu must be an object with a 'lotteries' list",
        None,
    ),
    "lottery-atoms-list": (
        lambda: menu_from_json({"lotteries": [{}]}),
        ValueError,
        "each lottery needs an 'atoms' list",
        None,
    ),
    "lottery-atom-object": (
        lambda: menu_from_json({"lotteries": [{"atoms": [[]]}]}),
        ValueError,
        "each atom needs a 'set' list and probability 'p'",
        None,
    ),
    "lottery-sum": (
        lambda: lottery([(set(), HALF)]),
        ValueError,
        "lottery probabilities sum to 1/2, not 1",
        None,
    ),
    "lottery-positive": (
        lambda: lottery([(set(), 2), ({Outcome("1", Fraction(1), Fraction(1))}, -1)]),
        ValueError,
        "lottery atoms must carry positive probability",
        None,
    ),
    "lottery-duplicate-set": (
        lambda: Lottery(((frozenset(), HALF), (frozenset(), HALF))),
        ValueError,
        "duplicate outcome set within one lottery",
        None,
    ),
    "delegation-serialize-predicate": (
        lambda: policy_to_json(Policy()),
        ValueError,
        "predicate policies need an instance to serialize",
        None,
    ),
    "delegation-kind-field": (
        lambda: policy_from_json(POLICY_WITHOUT_KIND),
        ValueError,
        "policy must be an object with a 'kind' field",
        ["eval-policy", "--builtin", "coins2", "--policy", POLICY_WITHOUT_KIND],
    ),
    "delegation-explicit-list": (
        lambda: policy_from_json(EXPLICIT_WITHOUT_LIST),
        ValueError,
        "explicit policy needs an 'acceptable' list",
        ["eval-policy", "--builtin", "coins2", "--policy", EXPLICIT_WITHOUT_LIST],
    ),
    "delegation-policy-kind": (
        lambda: policy_from_json(UNKNOWN_KIND),
        ValueError,
        "unknown policy kind 'y-threshold'",
        ["eval-policy", "--builtin", "coins2", "--policy", UNKNOWN_KIND],
    ),
    "prophet-one-outcome-per-element": (
        lambda: greedy_family([[("a", Fraction(1)), ("a", Fraction(2))]], FreeSystem(A)),
        ValueError,
        "an acceptable set may carry one outcome per element",
        None,
    ),
    "prophet-nonnegative": (
        lambda: greedy_family([[("a", Fraction(-1))]], FreeSystem(A)),
        ValueError,
        "outcome values must be nonnegative",
        None,
    ),
    "prophet-no-elements": (
        # refused before the scenario table is counted
        lambda: samuel_cahn_threshold(load_instance(NO_ELEMENTS), Caps(scenarios=0)),
        UnsupportedError,
        "median threshold needs at least one element",
        ["prophet-check", "--instance", NO_ELEMENTS],
    ),
    "prophet-infeasible-alone": (
        lambda: samuel_cahn_threshold(load_instance(INFEASIBLE_ALONE), Caps(scenarios=0)),
        UnsupportedError,
        "median threshold needs a 1-uniform inner constraint",
        ["prophet-check", "--instance", INFEASIBLE_ALONE],
    ),
}

PREFIXES = {
    "cli-epsilon": "delegation-lab gap: error: argument --epsilon: ",
    "cli-count": "delegation-lab reproduce cor-half: error: argument --count: ",
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_input_refusals_name_what_is_wrong(case, tmp_path, capsys):
    call, error, message, argv = REFUSALS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
    if argv is None:
        return
    path = tmp_path / "input.json"
    for arg in argv:
        if not isinstance(arg, str):
            path.write_text(json.dumps(arg), encoding="utf-8")
    assert cli.run([arg if isinstance(arg, str) else str(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == PREFIXES.get(case, "error: ") + message


def test_an_explicit_system_reduces_its_family_when_built():
    # a member within another is reduced away when built, not refused
    assert ExplicitSystem(AB, frozenset({A, AB})) == explicit_system(AB, [A, AB])
    assert ExplicitSystem(AB, frozenset({A, AB})).maximal == {AB}


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
