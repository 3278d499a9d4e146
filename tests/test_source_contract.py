"""The library's source contract: stdlib only, and nothing floated.

Every number the library computes is an exact rational; the one float is
the six-place `approx` rendering of a reported rational.  Every site that
raises a `CapacityError` is found in the source and held to a quick
refusal.
"""

import ast
import dataclasses
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from delegation_lab.errors import CapacityError
from delegation_lab.instances import UtilityAtom, make_instance, table1
from delegation_lab.lottery import search_two_lottery_menus
from delegation_lab.oracle import exact_delegation_gap
from delegation_lab.probing import ProbingGraph, optimal_adaptive_value
from delegation_lab.prophet import best_greedy_family, scenario_table
from delegation_lab.set_systems import FreeSystem, UniformSystem

SOURCE = Path(__file__).resolve().parent.parent / "src" / "delegation_lab"
MODULES = sorted(SOURCE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_library_has_modules_to_check():
    assert {p.stem for p in MODULES} >= {"cli", "instances", "probing", "prophet"}


def test_every_import_is_relative_or_stdlib():
    outside = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append((path.name, node.lineno, name))
    assert outside == []


def _float_calls(tree):
    """(enclosing function, whether six-place formatted) per float(...) call."""
    calls = []

    def visit(node, function, formatted):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            calls.append((function, formatted))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.FormattedValue):
            spec = node.format_spec
            six_places = (
                isinstance(spec, ast.JoinedStr)
                and [getattr(v, "value", None) for v in spec.values] == [".6f"]
            )
            visit(node.value, function, six_places)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function, formatted)

    visit(tree, None, False)
    return calls


def test_the_only_float_is_the_six_place_rendering():
    found = {
        path.stem: calls for path in MODULES if (calls := _float_calls(_tree(path)))
    }
    assert found == {"cli": [("_rational", True)]}


def _names(tree):
    """Every identifier a module defines or uses: definitions, names,
    attributes, imports and whole-string constants (a `getattr` name)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


# Reference code: kept for the differential tests and the bench's tracer, and
# run by no command or library path
REFERENCE_ONLY = {
    "enumerate_scenarios",
    "realizable_inner_sets",
    "iter_feasible_sets",
    "max_weight_feasible",
    "_checked_weights",
    "_subsets",
    "nonadaptive_value",
    "_observed_value",
    "agent_best_response",
    "agent_lottery_choice",
    "expected_values",
    "prefer",
    "outcome_totals",
}


def _uses(tree, names):
    """(enclosing function, name) of every use of one of `names` as a name,
    an attribute or an import; an import at module level is no use."""
    found = []

    def visit(node, function):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias) and function is not None:
            name = node.name
        if name in names:
            found.append((function, name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_live_code_never_calls_reference_code():
    # every proposable outcome set is read off the compiled probing graph
    # (`ProbingGraph.proposals`), every value off its passes; a reference
    # name is used only inside another reference function
    defined = {
        node.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef)
    }
    assert REFERENCE_ONLY <= defined
    live = {}
    for path in MODULES:
        uses = [u for u in _uses(_tree(path), REFERENCE_ONLY) if u[0] not in REFERENCE_ONLY]
        if uses:
            live[path.stem] = uses
    assert live == {}


def _callers(tree, called):
    """The enclosing function of every call to a name or attribute `called`."""
    callers = []

    def visit(node, function):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == called:
                callers.append(function)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return callers


def test_units_are_taken_in_one_place():
    # each integer unit is one lcm: probability weights and canonical atom
    # keys (`instances`), the outcome unit (`probing`) and menu probabilities
    # (`lottery`); every other integer is read off these
    callers = {
        path.stem: found for path in MODULES if (found := _callers(_tree(path), "lcm"))
    }
    assert callers == {
        "instances": ["integer_probs", "make_instance"],
        "lottery": ["menu_offers"],
        "probing": ["outcome_unit"],
    }


def test_the_set_lattice_is_walked_in_one_place():
    # the probing compile and every lattice cap read one breadth-first walk
    # (`probing.lattice`): the graph's blocks, the proposal rows' count, the
    # family lattice's count and the 1-uniform test; no second walk comes back
    callers = {
        path.stem: found for path in MODULES if (found := _callers(_tree(path), "lattice"))
    }
    assert callers == {
        "oracle": ["exact_delegation_gap"],
        "probing": ["probing_graph"],
        "prophet": ["_is_one_uniform", "best_greedy_family"],
    }


def test_the_tie_rule_is_one_key_outside_the_literal_best_response():
    # the probing pass, the offer ranking and the lanes compare keys; only
    # the literal best-response walk asks `prefer`, and nothing sorts by a
    # comparison function
    callers = {
        path.stem: found for path in MODULES if (found := _callers(_tree(path), "prefer"))
    }
    assert callers == {"delegation": ["agent_best_response"]}
    using = [path.stem for path in MODULES if "cmp_to_key" in set(_names(_tree(path)))]
    assert using == []


def _called_attributes(tree):
    """The name of every attribute that is called, as in `x.name(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr


def test_the_probing_compile_asks_feasibility_on_masks():
    # outer moves and inner feasibility are bitmask tests (`mask_test`) on
    # the graph's element masks; no set of ids is built to ask `is_feasible`
    called = list(_called_attributes(_tree(SOURCE / "probing.py")))
    assert "mask_test" in called
    assert "is_feasible" not in called


def test_the_move_layout_is_read_in_probing_alone():
    # a block's (first, count, probed, scale, moves) and a move's (element,
    # first, stride, gap) layout are private to the compile and its passes;
    # the tests read them through `literal_probing.state_moves`,
    # `state_probed` and `state_scales`
    root = SOURCE.parent.parent
    readers = sorted(
        str(path.relative_to(root))
        for path in [*MODULES, *root.glob("tests/*.py"), *root.glob("bench/*.py")]
        if any(
            isinstance(node, ast.Attribute) and node.attr == "set_blocks"
            for node in ast.walk(_tree(path))
        )
    )
    assert readers == ["src/delegation_lab/probing.py", "tests/literal_probing.py"]


def test_the_probing_graph_stores_block_constants_once_per_block():
    # what is constant within a block (probed set, scale, moves, inner
    # feasibility) lives in `set_blocks`; per state the graph keeps only
    # what varies inside a block
    fields = [field.name for field in dataclasses.fields(ProbingGraph)]
    assert fields == ["instance", "set_blocks", "scale", "masks", "weights", "outcome_bits"]


def test_no_module_states_a_set_rule_beside_the_mask_tests():
    # each set-system kind states its rule once, as a mask test; `is_feasible`
    # asks the sorted mask test, and no `_feasible` rule on sets of ids is
    # defined or called
    naming = [path.stem for path in MODULES if "_feasible" in set(_names(_tree(path)))]
    assert naming == []


def _class_dispatches(function):
    """Each `type(...)` or `isinstance(...)` call inside `function`."""
    return [
        ast.unparse(node)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("type", "isinstance")
    ]


def test_each_reference_definition_asks_one_rule():
    # the max-weight reference is its definition, one search asking
    # `is_feasible`, so only the JSON writer asks a set system's class; the
    # best-response reference asks the one outcome-set rule that checks every
    # supplied outcome set, and no element rule beside it
    tree = _tree(SOURCE / "set_systems.py")
    kinds = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    dispatching = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if _called_name(node) == "type"
        or (_called_name(node) == "isinstance" and kinds & set(_names(node.args[1])))
    }
    assert dispatching == {"set_system_to_json"}
    delegation = _tree(SOURCE / "delegation.py")
    assert "agent_best_response" in _callers(delegation, "is_inner_feasible_outcome_set")
    assert "agent_best_response" not in _callers(delegation, "is_feasible")


def test_every_policy_kind_states_its_compile_and_no_compile_forks_on_kind():
    # the base compile asks `accepts`; only a greedy family states its own
    # compile (`accepted_proposals`, by its masks), and no path that compiles
    # or evaluates a policy asks its class; only the JSON writer and the
    # member validation, which read one kind's fields, do
    tree = _tree(SOURCE / "delegation.py")
    kinds = [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "accepted_proposals"
            for item in node.body
        )
    ]
    assert kinds == ["Policy", "GreedyFamilyPolicy"]
    compiling = {"accepted_proposals", "policy_offers", "materialize_policy", "evaluate_policy"}
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in compiling
    ]
    assert {f.name for f in functions} == compiling
    assert [d for f in functions for d in _class_dispatches(f)] == []


def test_one_class_holds_a_downward_closed_family_as_its_maximal_sets():
    # `ExplicitSystem` is the library's one antichain type: a gambler's
    # greedy family is an explicit system over (element, x) pairs
    holders = [
        (path.stem, node.name)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.AnnAssign) and ast.unparse(item.target) == "maximal"
            for item in node.body
        )
    ]
    assert holders == [("set_systems", "ExplicitSystem")]


def test_only_probing_decodes_a_lane_key():
    # a sweep's winning lane is read off by `Lanes.best`, which decodes only
    # the winner; no other module turns lane keys back into pairs
    decoding = [path.stem for path in MODULES if "pair" in set(_called_attributes(_tree(path)))]
    assert decoding == ["probing"]


def test_the_oracle_reads_alpha_star_off_its_sweep():
    # one path to alpha*: the oracle neither compiles the winner's offers
    # again nor solves them with the scalar evaluator
    names = set(_names(_tree(SOURCE / "oracle.py")))
    assert names & {"policy_offers", "agent_probe_values", "solve_probing"} == set()


def _written_keys(tree, keys):
    """(enclosing function, key) of every one of `keys` written as a string
    key of a dict display or stored by subscript."""
    found = []

    def visit(node, function):
        written = []
        if isinstance(node, ast.Dict):
            written = [getattr(k, "value", None) for k in node.keys]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            written = [getattr(node.slice, "value", None)]
        found.extend((function, k) for k in written if k in keys)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_cli_states_its_report_frame_once():
    # handlers return their own fields and (command, value, alpha) rows; the
    # frame (`_report`) writes every header and CSV row (the only rational
    # split outside `_rational`), the emitter (`_emit`, through `_rendered`)
    # renders every rational, and only `adaptivity` asks for the adaptive
    # optimum (the gap's benchmark is read off its `GapReport`)
    tree = _tree(SOURCE / "cli.py")
    assert _uses(tree, {"_rational"}) == [("_rendered", "_rational")]
    assert {f for f, _ in _uses(tree, {"_rendered"})} == {"_emit", "_rendered"}
    assert {f for f, _ in _uses(tree, {"numerator", "denominator"})} == {"_rational", "_report"}
    assert sorted(set(_written_keys(tree, {"command", "tie_break"}))) == [
        ("_report", "command"),
        ("_report", "tie_break"),
    ]
    assert _uses(tree, {"optimal_adaptive_value"}) == [
        ("_cmd_adaptivity", "optimal_adaptive_value")
    ]


def _called_name(expr):
    """The plain name `expr` calls, if it is a call of one."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id
    return None


def _capacity_raises():
    """(module, enclosing function, line) of every raise of a CapacityError:
    `raise CapacityError(...)`, or a raise of a call to a function of the
    same module that returns one."""
    sites = []
    for path in MODULES:
        tree = _tree(path)
        makers = {"CapacityError"} | {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(ret, ast.Return) and _called_name(ret.value) == "CapacityError"
                for ret in ast.walk(node)
            )
        }

        def visit(node, function):
            if isinstance(node, ast.Raise) and _called_name(node.exc) in makers:
                sites.append((path.stem, function, node.lineno))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return sites


def _instance(n, outer=FreeSystem, inner=FreeSystem):
    """n elements of three atoms each, the default caps far behind."""
    ids = [f"e{i}" for i in range(n)]
    atoms = [UtilityAtom(Fraction(k), Fraction(k + 1), Fraction(1, 3)) for k in range(3)]
    ground = frozenset(ids)
    return make_instance(ids, {e: atoms for e in ids}, outer(ground), inner(ground))


# Per function that raises a CapacityError, one refusal per raise in source
# order: its cap, and a call whose input is far past that cap at its default
REFUSALS = {
    # 3^40 scenarios
    ("instances", "check_scenario_cap"): [
        ("scenarios", lambda: scenario_table(_instance(40))),
    ],
    ("probing", "probing_graph"): [
        # 4^40 free-outer states, refused before the walk
        ("dp_states", lambda: optimal_adaptive_value(_instance(40))),
        # nearly as many states under an outer constraint the walk must ask
        (
            "dp_states",
            lambda: optimal_adaptive_value(_instance(40, lambda g: UniformSystem(g, 39))),
        ),
    ],
    # 4^40 - 1 proposal rows against a cap of 20, counted before any state
    # is built (4^40 states are past `dp_states` too)
    ("oracle", "exact_delegation_gap"): [
        ("policy_sets", lambda: exact_delegation_gap(_instance(40))),
    ],
    # a lattice of 2^(4^40 - 1) families
    ("prophet", "best_greedy_family"): [
        ("family_sets", lambda: best_greedy_family(_instance(40))),
    ],
    # (10^6 + 1)^2 grid menus' lanes at each of 6 states
    ("lottery", "search_two_lottery_menus"): [
        (
            "dp_states",
            lambda: search_two_lottery_menus(table1(Fraction(1, 2)), Fraction(1, 10**6)),
        ),
    ],
}


def test_every_capacity_refusal_costs_no_more_than_its_cap():
    # every cap is checked before the work it bounds: each raise site has a
    # case that is refused, from that site, in under a second
    sites = _capacity_raises()
    assert sorted({(m, f) for m, f, _ in sites}) == sorted(REFUSALS)
    for (module, function), cases in REFUSALS.items():
        lines = [line for m, f, line in sites if (m, f) == (module, function)]
        assert len(lines) == len(cases), (module, function)
        for line, (cap, refuse) in zip(lines, cases):
            start = time.perf_counter()
            with pytest.raises(CapacityError) as err:
                refuse()
            assert time.perf_counter() - start < 1, (module, function, line)
            assert err.value.cap == cap
            assert err.value.reached > err.value.limit
            raised = err.tb
            while raised.tb_next is not None:
                raised = raised.tb_next
            code = raised.tb_frame.f_code
            assert (Path(code.co_filename).stem, code.co_name, raised.tb_lineno) == (
                module,
                function,
                line,
            )
