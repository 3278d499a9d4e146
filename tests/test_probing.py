import dataclasses
import functools
import importlib
import random
from fractions import Fraction

import pytest

from delegation_lab.errors import CapacityError, Caps
from delegation_lab.instances import (
    UtilityAtom,
    enumerate_scenarios,
    make_instance,
    table1,
)
from delegation_lab.probing import (
    TieBreak,
    best_nonadaptive_set,
    nonadaptive_value,
    optimal_adaptive_value,
    probing_graph,
    solve_probing,
)
from delegation_lab.random_instances import (
    random_free_outer_instance,
    random_matroid_outer_instance,
)
from delegation_lab.set_systems import SetSystem, UniformSystem, iter_feasible_sets

from conftest import one_uniform_instance
from literal_probing import state_probed


def test_adaptive_value_on_table1():
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)):
        report = optimal_adaptive_value(table1(eps))
        assert report.expected_value == 2 - eps


def test_adaptive_value_single_deterministic_element():
    inst = one_uniform_instance({"a": [(5, 0, 1)]})
    assert optimal_adaptive_value(inst).expected_value == 5


def test_adaptive_value_two_fair_coins():
    inst = one_uniform_instance(
        {
            "a": [(0, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))],
            "b": [(0, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))],
        }
    )
    # independent check: expectation of the scenario-wise maximum
    expected = sum(
        prob * max(inst.dist(e)[r[e]].x for e in inst.elements)
        for r, prob in enumerate_scenarios(inst)
    )
    assert expected == Fraction(3, 4)
    assert optimal_adaptive_value(inst).expected_value == expected


def test_adaptive_policy_probes_everything_under_free_outer():
    inst = table1(Fraction(1, 2))
    report = optimal_adaptive_value(inst)
    graph = probing_graph(inst, Caps.dp_states)
    u_stops = [(u, u) for u in graph.observed_values]
    _, actions = solve_probing(graph, u_stops, TieBreak.LEXICOGRAPHIC)
    assert actions[0] is not None  # the root probes
    assert report.state_count == 6  # {}, {1}x2, {2}, {1,2}x2


def test_adaptive_dominates_every_fixed_probe_set():
    rng = random.Random(23)
    for _ in range(15):
        inst = random_matroid_outer_instance(rng, max_elements=3)
        adaptive = optimal_adaptive_value(inst).expected_value
        for probe_set in iter_feasible_sets(inst.outer):
            assert adaptive >= nonadaptive_value(inst, probe_set)


def test_free_outer_adaptive_equals_probe_everything():
    rng = random.Random(29)
    for _ in range(15):
        inst = random_free_outer_instance(rng, max_elements=3)
        assert optimal_adaptive_value(inst).expected_value == nonadaptive_value(
            inst, inst.elements
        )


def test_best_nonadaptive_free_outer_probes_everything():
    inst = table1(Fraction(1, 4))
    report = best_nonadaptive_set(inst)
    assert report.best_set == frozenset({"1", "2"})
    assert report.ratio_to_adaptive == 1


def test_best_nonadaptive_prefers_risky_element(risky_pair):
    ground = frozenset(risky_pair.elements)
    constrained = make_instance(
        risky_pair.elements,
        {e: list(risky_pair.dist(e)) for e in risky_pair.elements},
        UniformSystem(ground, 1),
        UniformSystem(ground, 1),
    )
    report = best_nonadaptive_set(constrained)
    assert report.best_set == frozenset({"r"})
    assert report.expected_value == Fraction(3, 2)


def test_single_feasible_probe_set_gives_ratio_one():
    inst = one_uniform_instance({"a": [(0, 1, Fraction(1, 2)), (4, 1, Fraction(1, 2))]})
    report = best_nonadaptive_set(inst)
    assert report.ratio_to_adaptive == 1


def test_nonadaptive_report_ratio_bounds():
    rng = random.Random(31)
    for _ in range(15):
        inst = random_matroid_outer_instance(rng, max_elements=3)
        report = best_nonadaptive_set(inst)
        assert 0 <= report.ratio_to_adaptive <= 1
        assert inst.outer.is_feasible(report.best_set)


def test_adaptive_state_cap():
    inst = table1(Fraction(1, 2))
    with pytest.raises(CapacityError, match="states"):
        optimal_adaptive_value(inst, Caps(dp_states=2))


class _CountingSystem(SetSystem):
    """`system`'s family, recording every set whose feasibility is asked."""

    def __init__(self, system):
        self.ground = system.ground
        self.system = system
        self.asked = []

    def mask_test(self, order):
        test = self.system.mask_test(order)

        def counted(m):
            self.asked.append(frozenset(e for j, e in enumerate(order) if m >> j & 1))
            return test(m)

        return counted


def test_u_is_one_integer_pass_per_graph(monkeypatch):
    # the adaptive DP and the fixed-set scores read u from one edge pass:
    # no max-weight search, inner feasibility once per distinct probed set
    probing_module = importlib.import_module("delegation_lab.probing")
    set_systems_module = importlib.import_module("delegation_lab.set_systems")
    original = set_systems_module.max_weight_feasible
    searches = []

    def counted_search(system, weights):
        searches.append(weights)
        return original(system, weights)

    for module in (probing_module, set_systems_module):
        monkeypatch.setattr(module, "max_weight_feasible", counted_search)
    descriptor = vars(probing_module.ProbingGraph)["observed_values"]
    assert isinstance(descriptor, functools.cached_property)
    passes = []

    def counted_pass(graph):
        passes.append(graph)
        return descriptor.func(graph)

    fresh = functools.cached_property(counted_pass)
    fresh.__set_name__(probing_module.ProbingGraph, "observed_values")
    monkeypatch.setattr(probing_module.ProbingGraph, "observed_values", fresh)
    rng = random.Random(37)
    for _ in range(10):
        base = random_matroid_outer_instance(rng, max_elements=4)
        inner = _CountingSystem(base.inner)
        inst = dataclasses.replace(base, inner=inner)
        probing_module.probing_graph.cache_clear()
        passes.clear()
        optimal_adaptive_value(inst)
        best_nonadaptive_set(inst)
        graph = probing_graph(inst, Caps.dp_states)
        assert searches == []
        assert passes == [graph]
        assert len(inner.asked) == len(set(inner.asked))
        assert set(inner.asked) <= {graph.element_set(p) for p in state_probed(graph)}


def test_fixed_sets_are_read_off_the_graph():
    # the fixed-set search scores the graph's distinct probed sets, so outer
    # feasibility is asked only by the compile, not over all 2^|E| subsets
    elements = [f"e{j}" for j in range(16)]
    ground = frozenset(elements)
    dists = {
        e: [UtilityAtom(Fraction(j + 1), Fraction(1), Fraction(1))]
        for j, e in enumerate(elements)
    }
    outer = _CountingSystem(UniformSystem(ground, 1))
    inst = make_instance(elements, dists, outer, UniformSystem(ground, 1))
    report = best_nonadaptive_set(inst)
    graph = probing_graph(inst, Caps.dp_states)
    assert report.best_set == {"e15"}
    assert len(graph) == 17
    assert len(outer.asked) <= len(set(state_probed(graph))) * len(elements)
