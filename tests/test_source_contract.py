"""The library's source contract: stdlib only, and nothing floated.

Every number the library computes is an exact rational; the one float is
the six-place `approx` rendering of a reported rational.
"""

import ast
import sys
from pathlib import Path

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


def test_only_instances_names_the_literal_outcome_set_walk():
    # every proposable outcome set is read off the compiled probing graph
    # (`ProbingGraph.proposals`); the literal walk is a test reference
    naming = [
        path.stem
        for path in MODULES
        if "realizable_inner_sets" in set(_names(_tree(path)))
    ]
    assert naming == ["instances"]


def _prefer_callers(tree):
    """The enclosing function of every call to a name or attribute `prefer`."""
    callers = []

    def visit(node, function):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "prefer":
                callers.append(function)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return callers


def test_the_tie_rule_is_one_key_outside_the_literal_best_response():
    # the probing pass, the offer ranking and the lanes compare keys; only
    # the literal best-response walk asks `prefer`, and nothing sorts by a
    # comparison function
    callers = {
        path.stem: found for path in MODULES if (found := _prefer_callers(_tree(path)))
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


def test_every_policy_kind_states_its_compile_and_no_compile_forks_on_kind():
    # each policy kind compiles itself (`accepted_proposals`), and no path
    # that compiles or evaluates a policy asks its class; only the JSON
    # writer and the member validation, which read one kind's fields, do
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
    assert kinds == ["Policy", "ExplicitPolicy", "ThresholdPolicy", "GreedyFamilyPolicy"]
    compiling = {"accepted_proposals", "policy_offers", "materialize_policy", "evaluate_policy"}
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in compiling
    ]
    assert {f.name for f in functions} == compiling
    assert [d for f in functions for d in _class_dispatches(f)] == []
