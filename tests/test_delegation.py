import dataclasses
import functools
import importlib
import itertools
import random
import sys
from fractions import Fraction

import pytest

from delegation_lab import probing
from delegation_lab.delegation import (
    ExplicitPolicy,
    GreedyFamilyPolicy,
    Policy,
    ThresholdPolicy,
    TieBreak,
    agent_best_response,
    build_threshold_policy,
    compose_outer,
    evaluate_policy,
    materialize_policy,
    policy_from_greedy,
    policy_offers,
    policy_from_json,
    policy_to_json,
    restrict_instance,
    validate_policy,
)
from delegation_lab.instances import (
    Outcome,
    UtilityAtom,
    coins2,
    enumerate_scenarios,
    is_inner_feasible_outcome_set,
    make_instance,
    outcome_set_key,
    outcome_totals,
    realizable_inner_sets,
    table1,
    table2,
)
from delegation_lab.probing import best_nonadaptive_set, optimal_adaptive_value, prefer
from delegation_lab.prophet import (
    GreedyFamily,
    candidate_pair_sets,
    evaluate_vs_almighty,
    samuel_cahn_threshold,
    scenario_table,
    score_family,
    threshold_family,
)
from delegation_lab.random_instances import (
    _random_partition,
    random_free_outer_instance,
    random_greedy_family,
    random_tiny_instance,
)
from delegation_lab.errors import Caps
from delegation_lab.set_systems import (
    FreeSystem,
    UniformSystem,
    explicit_system,
    iter_feasible_sets,
)

from conftest import one_uniform_instance
from literal_prophet import literal_threshold_policy


EPS = Fraction(1, 4)


def _table2_outcomes(eps=EPS):
    return (
        Outcome("1", Fraction(0), Fraction(0)),
        Outcome("1", 1 / eps, Fraction(0)),
        Outcome("2", Fraction(1), Fraction(1)),
    )


def test_agent_prefers_higher_agent_utility():
    inst = table2(EPS)
    w0, w1, w2 = _table2_outcomes()
    policy = ExplicitPolicy(frozenset({frozenset({w1}), frozenset({w2})}))
    probed = frozenset({w1, w2})
    assert agent_best_response(inst, policy, probed, TieBreak.ADVERSARIAL) == frozenset(
        {w2}
    )


def test_agent_with_empty_policy_proposes_nothing():
    inst = table2(EPS)
    _, w1, w2 = _table2_outcomes()
    policy = ExplicitPolicy(frozenset())
    assert (
        agent_best_response(inst, policy, frozenset({w1, w2}), TieBreak.ADVERSARIAL)
        == frozenset()
    )


def test_agent_indifference_follows_tie_mode():
    inst = table2(EPS)
    _, w1, w2 = _table2_outcomes()
    policy = ExplicitPolicy(frozenset({frozenset({w1})}))
    probed = frozenset({w1, w2})
    # y(w1) = 0 ties with the empty proposal
    assert agent_best_response(inst, policy, probed, TieBreak.ADVERSARIAL) == frozenset()
    assert agent_best_response(
        inst, policy, probed, TieBreak.PRINCIPAL_FAVORING
    ) == frozenset({w1})


def test_agent_never_proposes_unprobed_outcomes():
    inst = table2(EPS)
    _, w1, w2 = _table2_outcomes()
    policy = ExplicitPolicy(frozenset({frozenset({w1}), frozenset({w2})}))
    assert agent_best_response(
        inst, policy, frozenset({w2}), TieBreak.PRINCIPAL_FAVORING
    ) == frozenset({w2})


def literal_best_response(instance, policy, probed, mode):
    """The subset walk as first written: every subset of the probed outcomes
    is offered to the policy, then checked for inner feasibility."""
    best, best_pair = frozenset(), (Fraction(0), Fraction(0))
    ordered = sorted(probed, key=Outcome.key)
    for r in range(1, len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            subset = frozenset(combo)
            if not policy.accepts(subset):
                continue
            if not is_inner_feasible_outcome_set(instance, subset):
                continue
            pair = outcome_totals(subset)
            if prefer(pair, best_pair, mode):
                best, best_pair = subset, pair
    return best


def _best_response_case(rng):
    """A small instance with explicit, uniform or free inner constraint, and
    one policy of each kind; explicit policies need not be downward closed
    and may name sets that are not inner-feasible."""
    elements = [f"e{i}" for i in range(1, rng.randint(1, 4) + 1)]
    ground = frozenset(elements)
    dists = {}
    for e in elements:
        weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        dists[e] = [
            UtilityAtom(
                Fraction(rng.randint(0, 2)),
                Fraction(rng.randint(0, 2)),
                Fraction(w, sum(weights)),
            )
            for w in weights
        ]
    kind = rng.choice(["explicit", "uniform", "free"])
    if kind == "explicit":
        generators = [
            rng.sample(elements, rng.randint(0, len(elements))) for _ in range(2)
        ]
        inner = explicit_system(ground, generators)
    elif kind == "uniform":
        inner = UniformSystem(ground, rng.randint(1, 3))
    else:
        inner = FreeSystem(ground)
    instance = make_instance(elements, dists, FreeSystem(ground), inner)
    outcomes = [
        instance.outcome(e, i) for e in elements for i in range(len(instance.dist(e)))
    ]
    feasible = realizable_inner_sets(instance)
    acceptable = rng.sample(feasible, rng.randint(0, len(feasible)))
    acceptable += [
        frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes)))) for _ in range(2)
    ]
    policies = [
        ExplicitPolicy(frozenset(acceptable)),
        ThresholdPolicy(Fraction(rng.randint(0, 3))),
        policy_from_greedy(random_greedy_family(rng, instance)),
    ]
    return instance, kind, outcomes, policies


def test_best_response_equals_the_literal_subset_walk():
    rng = random.Random(11)
    seen = {"explicit": 0, "uniform": 0, "free": 0, "unknown": 0, "off-support": 0}
    for _ in range(150):
        instance, kind, outcomes, policies = _best_response_case(rng)
        seen[kind] += 1
        for _ in range(3):
            probed = set(rng.sample(outcomes, rng.randint(0, min(4, len(outcomes)))))
            if rng.random() < 0.3:
                probed.add(Outcome("unknown", Fraction(1), Fraction(3)))
                seen["unknown"] += 1
            if rng.random() < 0.3:
                probed.add(Outcome(instance.elements[0], Fraction(5), Fraction(3)))
                seen["off-support"] += 1
            probed = frozenset(probed)
            for policy in policies:
                for mode in TieBreak:
                    assert agent_best_response(
                        instance, policy, probed, mode
                    ) == literal_best_response(instance, policy, probed, mode)
    assert min(seen.values()) >= 20, seen


def test_evaluate_policy_table2_threshold():
    for eps in (Fraction(1, 10), EPS, Fraction(1, 3)):
        inst = table2(eps)
        evaluation = evaluate_policy(inst, ThresholdPolicy(Fraction(1)))
        assert evaluation.principal_value == 1
        assert evaluation.benchmark_value == 2 - eps
        assert evaluation.alpha == 1 / (2 - eps)


def test_aligned_utilities_reach_alpha_one():
    inst = one_uniform_instance(
        {
            "a": [(0, 0, Fraction(1, 2)), (2, 2, Fraction(1, 2))],
            "b": [(1, 1, 1)],
        }
    )
    evaluation = evaluate_policy(inst, ThresholdPolicy(Fraction(0)))
    assert evaluation.alpha == 1


def test_best_deterministic_policy_on_opposed_utilities():
    # element a pays the principal only; element b pays both
    inst = one_uniform_instance(
        {
            "a": [(2, 0, Fraction(1, 2)), (0, 0, Fraction(1, 2))],
            "b": [(1, 1, 1)],
        }
    )
    benchmark = optimal_adaptive_value(inst).expected_value
    assert benchmark == Fraction(3, 2)
    # independent oracle: check all 8 policies over the 3 realizable outcomes
    from delegation_lab.oracle import exact_delegation_gap

    report = exact_delegation_gap(inst, TieBreak.ADVERSARIAL)
    assert report.alpha_star == Fraction(2, 3)
    assert report.alpha_star * benchmark == 1


def test_policy_from_greedy_threshold_semantics():
    inst = table1(EPS)
    family = threshold_family(inst, Fraction(1))
    policy = policy_from_greedy(family)
    w1 = Outcome("1", 1 / EPS, 1 - EPS)
    w2 = Outcome("2", Fraction(1), Fraction(1))
    dud = Outcome("1", Fraction(0), Fraction(0))
    assert policy.accepts(frozenset({w1}))
    assert policy.accepts(frozenset({w2}))
    assert not policy.accepts(frozenset({dud}))
    assert policy.accepts(frozenset())
    # agent utility is never inspected: any y with an accepted x passes
    assert policy.accepts(frozenset({Outcome("1", 1 / EPS, Fraction(99))}))


def test_policy_from_empty_family_accepts_only_nothing():
    inst = table1(EPS)
    family = threshold_family(inst, Fraction(100))
    policy = policy_from_greedy(family)
    assert policy.accepts(frozenset())
    assert not policy.accepts(frozenset({Outcome("2", Fraction(1), Fraction(1))}))


def test_every_policy_kind_accepts_the_empty_proposal():
    # the `Policy` contract: the empty set is always acceptable, even to a
    # policy that accepts nothing else
    nothing = Outcome("1", Fraction(0), Fraction(0))
    policies = [
        ExplicitPolicy(frozenset()),
        ThresholdPolicy(Fraction(100)),
        GreedyFamilyPolicy(GreedyFamily(frozenset())),
    ]
    for policy in policies:
        assert policy.accepts(frozenset())
        assert not policy.accepts(frozenset({nothing}))


_OUTERS = {
    "free": lambda rng, ids: FreeSystem(frozenset(ids)),
    "uniform": lambda rng, ids: UniformSystem(frozenset(ids), rng.randint(1, len(ids))),
    "partition": lambda rng, ids: _random_partition(rng, ids),
}
_INNERS = {
    "1-uniform": lambda ids: UniformSystem(frozenset(ids), 1),
    "2-uniform": lambda ids: UniformSystem(frozenset(ids), 2),
    "free": lambda ids: FreeSystem(frozenset(ids)),
}


def _drawn_instance(rng, outer, inner):
    """1 to 4 elements of 1 to 3 equiprobable atoms, x in halves up to 6."""
    ids = [f"e{i}" for i in range(1, rng.randint(1, 4) + 1)]
    dists = {
        e: [
            UtilityAtom(Fraction(rng.randint(0, 12), 2), Fraction(rng.randint(1, 6)), p)
            for p in [Fraction(1, k)] * k
        ]
        for e in ids
        for k in [rng.randint(1, 3)]
    }
    return make_instance(ids, dists, _OUTERS[outer](rng, ids), _INNERS[inner](ids))


@pytest.mark.parametrize("inner", sorted(_INNERS))
@pytest.mark.parametrize("outer", sorted(_OUTERS))
def test_family_masks_filter_as_accepts_does(outer, inner):
    # a greedy family's offers, compiled from its outcome masks, are the
    # proposal rows its `accepts` takes, on the instance's graph and on its
    # scenario table; members may hold pairs off the support (an x the
    # element never takes, an unknown element)
    rng = random.Random(f"{outer}/{inner}")
    for _ in range(12):
        inst = _drawn_instance(rng, outer, inner)
        ids = list(inst.elements)
        candidates = candidate_pair_sets(inst)
        off = [(rng.choice(ids), Fraction(13)), ("zz", Fraction(1))]
        for _ in range(3):
            members = [
                set(c) | set(rng.sample(off, rng.randint(0, 1)))
                for c in rng.sample(candidates, rng.randint(0, len(candidates)))
            ]
            policy = GreedyFamilyPolicy(GreedyFamily(frozenset(map(frozenset, members))))
            for graph in (probing.probing_graph(inst, Caps().dp_states), scenario_table(inst)):
                expected = [
                    [(mask, y, x)]
                    for outcomes, mask, y, x in graph.proposals
                    if policy.accepts(outcomes)
                ]
                assert policy_offers(graph, policy) == (expected, graph.outcome_unit)


@pytest.mark.parametrize("inner", sorted(_INNERS))
@pytest.mark.parametrize("outer", sorted(_OUTERS))
def test_every_policy_kind_compiles_to_the_rows_accepts_takes(outer, inner):
    # each kind's own compile equals the `accepts` filter of `graph.proposals`:
    # thresholds at 0, above every x, on an x and off the 1/unit grid;
    # explicit members that are rows and members that are not (an outcome
    # off the support, random outcome sets, the empty set)
    rng = random.Random(f"kinds/{outer}/{inner}")
    for _ in range(12):
        inst = _drawn_instance(rng, outer, inner)
        off = Outcome(rng.choice(inst.elements), Fraction(13), Fraction(1))
        for graph in (probing.probing_graph(inst, Caps().dp_states), scenario_table(inst)):
            unit, rows, outcomes = graph.outcome_unit, graph.proposals, list(graph.outcome_bits)
            xs = [x for _, x in graph.outcome_values]
            x = rng.choice(xs)
            taus = [0, max(xs) + 1, x, 2 * x + 1, 2 * x - 1]
            policies = [ThresholdPolicy(Fraction(tau, unit)) for tau in taus[:3]]
            policies += [ThresholdPolicy(Fraction(tau, 2 * unit)) for tau in taus[3:]]
            for _ in range(3):
                members = [row[0] for row in rng.sample(rows, rng.randint(0, len(rows)))]
                members += [frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes))))]
                members += [frozenset({off}), frozenset({off, outcomes[0]}), frozenset()]
                policies.append(ExplicitPolicy(frozenset(members)))
            for policy in policies:
                expected = [row for row in rows if policy.accepts(row[0])]
                assert policy.accepted_proposals(graph) == expected


def test_a_greedy_subclass_that_restates_accepts_is_asked():
    # only `GreedyFamilyPolicy` itself is compiled from its family's masks
    asked = []

    class OnlyNothing(GreedyFamilyPolicy):
        def accepts(self, outcome_set):
            asked.append(outcome_set)
            return not outcome_set

    inst = table1(EPS)
    policy = OnlyNothing(threshold_family(inst, Fraction(0)))
    assert materialize_policy(inst, policy) == frozenset()
    assert len(asked) == 3  # one per proposable single outcome


def test_a_greedy_family_is_compiled_and_scored_without_hashing_a_fraction(monkeypatch):
    # once a graph's tables are built, a greedy family is compiled, scored
    # and evaluated in integers: its (element, x) pairs are looked up by
    # (element, numerator, denominator)
    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    rng = random.Random(29)
    for _ in range(20):
        inst = random_free_outer_instance(rng, max_elements=3)
        family = random_greedy_family(rng, inst)
        policy = GreedyFamilyPolicy(family)
        table = scenario_table(inst)
        report, evaluation = score_family(family, table), evaluate_policy(inst, policy)
        with monkeypatch.context() as patched:
            patched.setattr(Fraction, "__hash__", refuse)
            assert score_family(family, table) == report
            assert evaluate_policy(inst, policy) == evaluation


def test_table1_greedy_policy_beats_half():
    for eps in (Fraction(1, 10), EPS):
        inst = table1(eps)
        policy = policy_from_greedy(threshold_family(inst, Fraction(1)))
        evaluation = evaluate_policy(inst, policy)
        assert evaluation.principal_value == 1
        assert evaluation.principal_value >= Fraction(1, 2) * (2 - eps)


def test_greedy_policy_dominates_gambler_on_tables():
    inst = table1(EPS)
    family = threshold_family(inst, samuel_cahn_threshold(inst))
    gambler = evaluate_vs_almighty(inst, family).gambler_value
    evaluation = evaluate_policy(inst, policy_from_greedy(family))
    assert evaluation.principal_value >= gambler


def test_theorem_inequality_on_random_instances():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_free_outer_instance(rng, max_elements=3)
        benchmark = Fraction(1)  # irrelevant for the comparison
        families = [threshold_family(inst, samuel_cahn_threshold(inst))]
        families += [random_greedy_family(rng, inst) for _ in range(5)]
        for family in families:
            gambler = evaluate_vs_almighty(inst, family).gambler_value
            value = evaluate_policy(
                inst, policy_from_greedy(family), benchmark=benchmark
            ).principal_value
            assert value >= gambler


def test_principal_favoring_at_least_adversarial():
    rng = random.Random(43)
    for _ in range(12):
        inst = random_tiny_instance(rng)
        family = random_greedy_family(rng, inst)
        policy = policy_from_greedy(family)
        favoring = evaluate_policy(inst, policy, TieBreak.PRINCIPAL_FAVORING)
        adversarial = evaluate_policy(inst, policy, TieBreak.ADVERSARIAL)
        assert favoring.principal_value >= adversarial.principal_value
        assert favoring.agent_value == adversarial.agent_value


def test_agent_dp_beats_every_fixed_probe_set():
    rng = random.Random(47)
    for _ in range(10):
        inst = random_free_outer_instance(rng, max_elements=3)
        policy = policy_from_greedy(random_greedy_family(rng, inst))
        evaluation = evaluate_policy(inst, policy, benchmark=Fraction(1))
        scenarios = enumerate_scenarios(inst)
        for probe_set in iter_feasible_sets(inst.outer):
            fixed = sum(
                prob
                * sum(
                    (
                        o.y
                        for o in agent_best_response(
                            inst,
                            policy,
                            frozenset(
                                inst.outcome(e, realization[e]) for e in probe_set
                            ),
                            TieBreak.ADVERSARIAL,
                        )
                    ),
                    Fraction(0),
                )
                for realization, prob in scenarios
            )
            assert evaluation.agent_value >= fixed


def test_probe_distribution_sums_to_one():
    inst = table1(EPS)
    evaluation = evaluate_policy(inst, ThresholdPolicy(Fraction(1)))
    assert sum(evaluation.probe_distribution.values()) == 1


def test_evaluations_compare_their_probe_distributions():
    # the distribution is built on first read, and `==` still compares it:
    # the same values with every state stopping differ by it alone
    inst = table1(EPS)
    evaluation = evaluate_policy(inst, ThresholdPolicy(Fraction(1)))
    stopped = dataclasses.replace(evaluation, actions=[None] * len(evaluation.graph))
    assert stopped.probe_distribution == {frozenset(): 1}
    assert evaluation.probe_distribution != stopped.probe_distribution
    assert stopped != evaluation
    assert dataclasses.replace(evaluation) == evaluation


def test_restrict_instance_keeps_inner_structure():
    inst = table1(EPS)
    restricted = restrict_instance(inst, {"1"})
    assert restricted.elements == ("1",)
    assert isinstance(restricted.outer, FreeSystem)
    assert restricted.inner.is_feasible({"1"})


def test_compose_outer_free_outer_keeps_everything():
    inst = table1(EPS)
    policy, probe_set = compose_outer(inst)
    assert probe_set == frozenset({"1", "2"})


def test_compose_outer_risky_example(risky_pair):
    ground = frozenset(risky_pair.elements)
    from delegation_lab.instances import make_instance

    constrained = make_instance(
        risky_pair.elements,
        {e: list(risky_pair.dist(e)) for e in risky_pair.elements},
        UniformSystem(ground, 1),
        UniformSystem(ground, 1),
    )
    policy, probe_set = compose_outer(constrained)
    assert probe_set == frozenset({"r"})
    evaluation = evaluate_policy(constrained, policy)
    assert evaluation.principal_value >= Fraction(1, 2) * Fraction(3, 2)
    # the agent only probes the fixed set
    assert set(evaluation.probe_distribution) == {frozenset({"r"})}


def test_composition_chain_bound():
    rng = random.Random(53)
    from delegation_lab.random_instances import random_partition_outer_instance

    for _ in range(10):
        inst = random_partition_outer_instance(rng, max_elements=3)
        nonadaptive = best_nonadaptive_set(inst)
        policy, probe_set = compose_outer(inst)
        assert probe_set == nonadaptive.best_set
        evaluation = evaluate_policy(inst, policy)
        assert evaluation.alpha >= nonadaptive.ratio_to_adaptive * Fraction(1, 2)


def test_materialize_threshold_policy():
    inst = table1(Fraction(1, 2))
    acceptable = materialize_policy(inst, ThresholdPolicy(Fraction(1)))
    assert acceptable == frozenset(
        {
            frozenset({Outcome("1", Fraction(2), Fraction(1, 2))}),
            frozenset({Outcome("2", Fraction(1), Fraction(1))}),
        }
    )


def test_policy_json_round_trip():
    inst = table1(EPS)
    threshold = ThresholdPolicy(Fraction(1))
    encoded = policy_to_json(threshold)
    assert policy_from_json(encoded) == threshold

    explicit = ExplicitPolicy(materialize_policy(inst, threshold))
    encoded = policy_to_json(explicit)
    decoded = policy_from_json(encoded)
    assert decoded == explicit
    assert policy_to_json(decoded) == encoded


def test_validate_policy_rejects_off_support_members():
    inst = table1(EPS)
    bogus = ExplicitPolicy(
        frozenset({frozenset({Outcome("2", Fraction(9), Fraction(9))})})
    )
    with pytest.raises(ValueError, match="inner-feasible"):
        validate_policy(inst, bogus)


def test_build_threshold_policy_prefers_median_on_ties():
    inst = coins2()
    policy, cut, report = build_threshold_policy(inst)
    assert cut == samuel_cahn_threshold(inst) == 1
    assert report.gambler_value == Fraction(3, 4)


def test_build_threshold_policy_moves_off_blocked_median():
    # a large atom at the median forces the tuned cut above it
    inst = one_uniform_instance(
        {
            "a": [(0, 1, Fraction(7, 10)), (10, 1, Fraction(3, 10))],
            "b": [(1, 2, 1)],
        }
    )
    assert samuel_cahn_threshold(inst) == 1
    median_family = threshold_family(inst, Fraction(1))
    assert evaluate_vs_almighty(inst, median_family).ratio == Fraction(10, 37)
    policy, cut, report = build_threshold_policy(inst)
    assert cut == 10
    assert report.gambler_value == 3
    assert report.ratio == Fraction(30, 37)
    evaluation = evaluate_policy(inst, policy)
    assert evaluation.alpha >= Fraction(1, 2)


def test_the_tuned_policy_may_lose_to_the_gambler_when_y_is_zero():
    # "principal >= gambler" needs y > 0: an agent indifferent between its
    # one outcome (x = 2, y = 0) and proposing nothing proposes nothing
    # under adversarial and lexicographic ties
    ground = frozenset({"e1"})
    inst = make_instance(
        ["e1"],
        {"e1": [UtilityAtom(Fraction(2), Fraction(0), Fraction(1))]},
        FreeSystem(ground),
        UniformSystem(ground, 1),
    )
    assert inst == random_tiny_instance(random.Random(15))
    policy, cut, report = build_threshold_policy(inst)
    assert (cut, report.gambler_value) == (2, 2)
    principal = {mode: evaluate_policy(inst, policy, mode).principal_value for mode in TieBreak}
    assert principal == {
        TieBreak.ADVERSARIAL: 0,
        TieBreak.LEXICOGRAPHIC: 0,
        TieBreak.PRINCIPAL_FAVORING: 2,
    }


def test_threshold_cuts_share_one_scenario_table(monkeypatch):
    # count table requests, graph compiles and scenario-row builds, on a
    # cold graph cache
    delegation_module = importlib.import_module("delegation_lab.delegation")
    original = delegation_module.scenario_table
    requests = []

    def counted(*args):
        requests.append(args)
        return original(*args)

    descriptor = vars(probing.ProbingGraph)["full_probes"]
    assert isinstance(descriptor, functools.cached_property)
    builds = []

    def counted_rows(graph):
        builds.append(graph)
        return descriptor.func(graph)

    fresh = functools.cached_property(counted_rows)
    fresh.__set_name__(probing.ProbingGraph, "full_probes")
    monkeypatch.setattr(probing.ProbingGraph, "full_probes", fresh)
    rng = random.Random(71)
    for _ in range(40):
        inst = random_free_outer_instance(rng, max_elements=3)
        expected = literal_threshold_policy(inst)
        monkeypatch.setattr(delegation_module, "scenario_table", counted)
        probing.probing_graph.cache_clear()
        requests.clear()
        builds.clear()
        assert build_threshold_policy(inst) == expected
        assert len(requests) == 1
        assert probing.probing_graph.cache_info().misses == 1
        assert len(builds) == 1
        monkeypatch.setattr(delegation_module, "scenario_table", original)


def test_each_policy_is_compiled_once_per_evaluation(monkeypatch):
    # 3 elements of 2 atoms, free outer, 2-uniform inner: the nonempty
    # inner-feasible probing states are the 3 x 2 singles and the 3 x 4
    # pairs, and the policy is asked about each once, in one compile; no
    # state walks the proposal subsets
    ids = ["a", "b", "c"]
    atoms = [UtilityAtom(Fraction(k), Fraction(2 - k), Fraction(1, 2)) for k in range(2)]
    ground = frozenset(ids)
    inst = make_instance(
        ids, {e: atoms for e in ids}, FreeSystem(ground), UniformSystem(ground, 2)
    )
    asked = []

    class AskedPolicy(Policy):
        def accepts(self, outcome_set):
            asked.append(outcome_set)
            return len(outcome_set) == 1

    delegation_module = importlib.import_module("delegation_lab.delegation")
    compiled = []
    walked = []
    original_compile = delegation_module.policy_offers

    def counted_compile(graph, policy):
        compiled.append(policy)
        return original_compile(graph, policy)

    monkeypatch.setattr(delegation_module, "policy_offers", counted_compile)
    monkeypatch.setattr(
        delegation_module, "agent_best_response", lambda *args: walked.append(args)
    )
    policy = AskedPolicy()
    evaluation = evaluate_policy(inst, policy)
    assert compiled == [policy]
    assert walked == []
    expected = [
        frozenset(inst.outcome(e, i) for e, i in zip(chosen, choice))
        for r in (1, 2)
        for chosen in itertools.combinations(ids, r)
        for choice in itertools.product(range(2), repeat=r)
    ]
    assert len(expected) == 18
    assert sorted(asked, key=outcome_set_key) == sorted(expected, key=outcome_set_key)
    # the agent probes until it sees y = 2, then proposes that single
    assert evaluation.agent_value == Fraction(15, 8)


def test_a_second_evaluation_computes_no_outcome_totals_or_keys(monkeypatch):
    # the proposal table is built once per graph; a later policy on the same
    # instance only filters it
    atoms = [UtilityAtom(Fraction(k), Fraction(k + 1), Fraction(1, 3)) for k in range(3)]
    ground = frozenset("ab")
    inst = make_instance(
        ["a", "b"], {"a": atoms, "b": atoms}, FreeSystem(ground), FreeSystem(ground)
    )

    def refuse(*args, **kwargs):
        raise AssertionError("outcome totals or keys computed")

    def refuse_helpers(*helpers):
        for name, module in list(sys.modules.items()):
            if name.startswith("delegation_lab"):
                for helper in helpers:
                    if hasattr(module, helper):
                        monkeypatch.setattr(module, helper, refuse)

    # even the first evaluation, which builds the proposal table, sorts it
    # by integer keys
    probing.probing_graph.cache_clear()
    refuse_helpers("outcome_set_key")
    monkeypatch.setattr(Outcome, "key", refuse)
    first = evaluate_policy(inst, ThresholdPolicy(Fraction(1)))
    refuse_helpers("outcome_totals")
    second = evaluate_policy(inst, ThresholdPolicy(Fraction(2)))
    assert second.principal_value < first.principal_value
    assert evaluate_policy(inst, ThresholdPolicy(Fraction(1))) == first
