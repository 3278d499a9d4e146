import random
from collections import Counter
from fractions import Fraction

import pytest

from delegation_lab import delegation as delegation_module
from delegation_lab import oracle as oracle_module
from delegation_lab import probing as probing_module
from delegation_lab.delegation import (
    ExplicitPolicy,
    ThresholdPolicy,
    TieBreak,
    agent_probe_values,
    build_threshold_policy,
    evaluate_policy,
    policy_from_greedy,
)
from delegation_lab.errors import CapacityError, Caps
from delegation_lab.instances import (
    UtilityAtom,
    make_instance,
    realizable_inner_sets,
    table1,
    table2,
)
from delegation_lab.oracle import exact_delegation_gap
from delegation_lab.probing import probing_graph, probing_pass
from delegation_lab.prophet import samuel_cahn_threshold, threshold_family
from delegation_lab.random_instances import random_free_outer_instance, random_tiny_instance
from delegation_lab.set_systems import (
    ExplicitSystem,
    FreeSystem,
    PartitionSystem,
    UniformSystem,
)

from conftest import one_uniform_instance
from literal_oracle import literal_gap


def test_policy_count_table1():
    inst = table1(Fraction(1, 2))
    assert exact_delegation_gap(inst).policies_enumerated == 8


def test_policy_count_two_elements_mixed_supports():
    inst = one_uniform_instance(
        {"a": [(0, 1, Fraction(1, 2)), (2, 1, Fraction(1, 2))], "b": [(1, 1, 1)]}
    )
    assert exact_delegation_gap(inst).policies_enumerated == 8


def test_policy_count_with_nothing_acceptable():
    ground = frozenset({"a"})
    inst = make_instance(
        ["a"],
        {"a": [UtilityAtom(Fraction(1), Fraction(1), Fraction(1))]},
        FreeSystem(ground),
        ExplicitSystem(ground, frozenset()),  # only the empty set is feasible
    )
    report = exact_delegation_gap(inst)
    assert report.policies_enumerated == 1
    assert report.best_policy.acceptable == frozenset()


def test_candidate_cap():
    inst = table1(Fraction(1, 2))
    with pytest.raises(CapacityError, match="cap"):
        exact_delegation_gap(inst, caps=Caps(policy_sets=2))


def test_candidate_cap_reports_how_far_the_count_got():
    # free inner, three elements with three atoms each: 63 candidate sets,
    # but the count stops past the cap at the three singletons' 9 rows
    atoms = [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3)), (2, 3, Fraction(1, 3))]
    ground = frozenset({"a", "b", "c"})
    inst = make_instance(
        sorted(ground),
        {e: [UtilityAtom(Fraction(x), Fraction(y), p) for x, y, p in atoms] for e in ground},
        FreeSystem(ground),
        FreeSystem(ground),
    )
    with pytest.raises(CapacityError, match=r"cap 1 \(count reached 9\)") as err:
        exact_delegation_gap(inst, caps=Caps(policy_sets=1))
    assert (err.value.limit, err.value.reached) == (1, 9)


def test_gap_table2_principal_favoring():
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        report = exact_delegation_gap(table2(eps), TieBreak.PRINCIPAL_FAVORING)
        assert report.alpha_star == 1 / (2 - eps)


def test_gap_table1():
    for eps in (Fraction(1, 10), Fraction(1, 4)):
        report = exact_delegation_gap(table1(eps))
        assert report.alpha_star == 1 / (2 - eps)
        assert report.policies_enumerated == 8


def test_gap_aligned_utilities():
    inst = one_uniform_instance(
        {"a": [(0, 0, Fraction(1, 2)), (3, 3, Fraction(1, 2))], "b": [(1, 1, 1)]}
    )
    report = exact_delegation_gap(inst)
    assert report.alpha_star == 1


def test_best_policy_alpha_matches_alpha_star():
    inst = table1(Fraction(1, 4))
    report = exact_delegation_gap(inst)
    evaluation = evaluate_policy(inst, report.best_policy)
    assert evaluation.alpha == report.alpha_star


def test_oracle_dominates_constructive_policies():
    rng = random.Random(71)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        oracle_alpha = exact_delegation_gap(inst).alpha_star
        tuned, _, _ = build_threshold_policy(inst)
        for policy in (
            tuned,
            policy_from_greedy(
                threshold_family(inst, samuel_cahn_threshold(inst))
            ),
            ThresholdPolicy(samuel_cahn_threshold(inst)),
        ):
            assert evaluate_policy(inst, policy).alpha <= oracle_alpha


def test_relabeled_instance_has_same_gap():
    rng = random.Random(73)
    for _ in range(8):
        inst = random_tiny_instance(rng)
        new_ids = {e: f"z{e}" for e in inst.elements}
        ground = frozenset(new_ids.values())
        renamed = make_instance(
            [new_ids[e] for e in inst.elements],
            {new_ids[e]: list(inst.dist(e)) for e in inst.elements},
            FreeSystem(ground),
            UniformSystem(ground, 1),
        )
        assert (
            exact_delegation_gap(inst).alpha_star
            == exact_delegation_gap(renamed).alpha_star
        )


def _small_instance(rng, outer, inners):
    """2-3 elements of 1-2 atoms with x and y in {0, 1, 2}, so ties are
    common, under `outer` and one of `inners` (each built on the ground set).
    The literal oracle scores 2^n policies for n candidate sets, so a draw
    with more than 9 is drawn again."""
    while True:
        elements = [f"e{i}" for i in range(rng.randint(2, 3))]
        ground = frozenset(elements)
        dists = {}
        for e in elements:
            weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            dists[e] = [
                UtilityAtom(
                    Fraction(rng.randint(0, 2)),
                    Fraction(rng.randint(0, 2)),
                    Fraction(w, sum(weights)),
                )
                for w in weights
            ]
        inner = rng.choice(inners)(ground)
        instance = make_instance(elements, dists, outer(elements), inner)
        if len(realizable_inner_sets(instance)) <= 9:
            return instance


INNERS = [
    lambda ground: UniformSystem(ground, 1),
    lambda ground: UniformSystem(ground, 2),
    FreeSystem,
]


def test_oracle_matches_the_literal_oracle_on_free_outer_instances():
    rng = random.Random(29)
    for _ in range(30):
        inst = _small_instance(rng, lambda elements: FreeSystem(frozenset(elements)), INNERS)
        for mode in TieBreak:
            report = exact_delegation_gap(inst, mode)
            best_policy, alpha_star, count = literal_gap(inst, mode)
            assert (report.alpha_star, report.best_policy) == (alpha_star, best_policy)
            assert evaluate_policy(inst, report.best_policy, mode).alpha == alpha_star
            assert report.policies_enumerated == count
            assert count == 2 ** len(realizable_inner_sets(inst))


def test_oracle_matches_the_literal_oracle_under_outer_constraints():
    # outer-infeasible candidate sets can never be proposed: the oracle
    # scores fewer policies and must still pick the literal winner
    rng = random.Random(31)
    outers = {
        "uniform k=1, inner k=2": (
            lambda elements: UniformSystem(frozenset(elements), 1),
            [lambda ground: UniformSystem(ground, 2)],
        ),
        "uniform k=1": (lambda elements: UniformSystem(frozenset(elements), 1), INNERS),
        "uniform k=2": (lambda elements: UniformSystem(frozenset(elements), 2), INNERS),
        "partition": (
            lambda elements: PartitionSystem(
                frozenset(elements),
                (frozenset(elements[:1]), frozenset(elements[1:])),
                (1, 1),
            ),
            INNERS,
        ),
    }
    fewer = Counter()
    for name, (outer, inners) in outers.items():
        for _ in range(10):
            inst = _small_instance(rng, outer, inners)
            for mode in TieBreak:
                report = exact_delegation_gap(inst, mode)
                best_policy, alpha_star, count = literal_gap(inst, mode)
                assert (report.alpha_star, report.best_policy) == (
                    alpha_star,
                    best_policy,
                ), (name, mode)
                assert evaluate_policy(inst, report.best_policy, mode).alpha == alpha_star
                assert report.policies_enumerated <= count
                fewer[name] += report.policies_enumerated < count
    # every inner-feasible pair is outer-infeasible under outer k=1
    assert fewer["uniform k=1, inner k=2"] == 30, fewer
    assert fewer["uniform k=1"] and fewer["partition"], fewer


def _thirteen_row_draw():
    """The first draw of `random_free_outer_instance(random.Random(2),
    max_support=4)` with 13 proposal rows (4 elements, 300 states)."""
    rng = random.Random(2)
    while True:
        inst = random_free_outer_instance(rng, max_support=4)
        if len(probing_graph(inst, Caps.dp_states).proposals) == 13:
            return inst


def _no_solve(*args):
    raise AssertionError("alpha* is read off the sweep, not solved again")


def test_thirteen_row_draw_matches_the_scalar_evaluator_at_chunk_edges(monkeypatch):
    inst = _thirteen_row_draw()
    graph = probing_graph(inst, Caps.dp_states)
    rows, unit, scale = graph.proposals, graph.outcome_unit, graph.scale
    graph.adaptive  # the benchmark is solved once per graph, and cached
    chunks = []

    def recorded(graph, stops, lanes):
        roots, actions = probing_pass(graph, stops, lanes)
        chunks.append([lanes.pair(root, scale) for root in roots])
        return roots, actions

    monkeypatch.setattr(oracle_module, "probing_pass", recorded)
    for mode in TieBreak:
        chunks.clear()
        with monkeypatch.context() as solves:
            for module in (probing_module, delegation_module):
                solves.setattr(module, "solve_probing", _no_solve)
            report = exact_delegation_gap(inst, mode)
        assert report.alpha_star == Fraction(72731, 75185)
        assert report.policies_enumerated == 2**13
        lanes = [pair for chunk in chunks for pair in chunk]
        # one pass per chunk of equal size
        assert len(chunks) > 1 and len(lanes) == 2**13 == len(chunks) * len(chunks[0])
        # the winner is the first strictly best root principal, mask 7984
        principals = [principal for _, principal in lanes]
        winner = principals.index(max(principals))
        assert winner == 0b1111100110000
        assert report.best_policy == ExplicitPolicy(
            frozenset(row[0] for i, row in enumerate(rows) if winner >> i & 1)
        )
        size = len(chunks[0])
        for mask in (winner, 0, size - 1, size, 2**13 - size - 1, 2**13 - size, 2**13 - 1):
            offers = [[(m, y, x)] for i, (_, m, y, x) in enumerate(rows) if mask >> i & 1]
            evaluation = agent_probe_values(graph, offers, unit, mode)
            agent, principal = lanes[mask]
            assert Fraction(agent, unit * scale) == evaluation.agent_value, (mode, mask)
            assert Fraction(principal, unit * scale) == evaluation.principal_value, (mode, mask)
            if mask == winner:
                assert evaluation.alpha == report.alpha_star
