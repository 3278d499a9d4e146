"""The compiled integer probing graph against the literal Fraction DP.

Every stop rule the library solves (the adaptive u, deterministic policies
and lottery menus) is run through both `solve_probing` on the compiled
graph and the recursive state-key DP in `literal_probing`, under all three
tie modes; the root pair, every state's action and the probe distribution
must agree exactly.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegation_lab.delegation import (
    ExplicitPolicy,
    ThresholdPolicy,
    TieBreak,
    agent_best_response,
    evaluate_policy,
    offer_stop_values,
    policy_from_greedy,
    policy_offers,
)
from delegation_lab.errors import CapacityError, Caps
from delegation_lab.instances import (
    Instance,
    UtilityAtom,
    make_instance,
    outcome_totals,
    realizable_inner_sets,
    table1,
)
from delegation_lab.lottery import (
    LotteryMenu,
    agent_lottery_choice,
    evaluate_lottery_menu,
    lottery,
    menu_offers,
)
from delegation_lab.probing import (
    _observed_value,
    best_nonadaptive_set,
    nonadaptive_value,
    optimal_adaptive_value,
    probe_distribution,
    probing_graph,
    solve_probing,
)
from delegation_lab.prophet import candidate_pair_sets, greedy_family
from delegation_lab.set_systems import (
    FreeSystem,
    IntersectionSystem,
    PartitionSystem,
    UniformSystem,
    explicit_system,
    iter_feasible_sets,
)

from literal_probing import (
    literal_distribution,
    literal_solve,
    outcomes_at,
    state_observations,
)

MODES = list(TieBreak)


def state_outcomes(graph):
    """Each state's observed outcome set, from `state_observations`."""
    elements = graph.instance.elements
    return [
        outcomes_at(
            graph.instance,
            ([elements[j] for j, _ in observed], [i for _, i in observed]),
        )
        for observed in state_observations(graph)
    ]
VALUES = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3]))


@st.composite
def partitions(draw, ids):
    order = draw(st.permutations(ids))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1))) if len(ids) > 1 else [])
    blocks = [
        frozenset(order[a:b]) for a, b in zip([0] + cuts, cuts + [len(ids)])
    ]
    caps = tuple(draw(st.integers(0, len(b))) for b in blocks)
    return PartitionSystem(frozenset(ids), tuple(blocks), caps)


@st.composite
def outer_systems(draw, ids):
    ground = frozenset(ids)
    kind = draw(st.sampled_from(["free", "uniform", "partition", "explicit"]))
    if kind == "free":
        return FreeSystem(ground)
    if kind == "uniform":
        return UniformSystem(ground, draw(st.integers(0, len(ids))))
    if kind == "partition":
        return draw(partitions(ids))
    members = draw(st.lists(st.sets(st.sampled_from(ids)), max_size=4))
    return explicit_system(ground, members)


@st.composite
def inner_systems(draw, ids):
    """Every inner kind: the four outer kinds and explicit ∩ uniform."""
    ground = frozenset(ids)
    if draw(st.booleans()):
        return draw(outer_systems(ids))
    members = draw(st.lists(st.sets(st.sampled_from(ids)), max_size=4))
    return IntersectionSystem(
        ground,
        (
            explicit_system(ground, members),
            UniformSystem(ground, draw(st.integers(0, len(ids)))),
        ),
    )


@st.composite
def instances(draw):
    """1-4 elements of 1-3 atoms, listed in a drawn order, so graph order
    need not be `outcome_set_key` order.  Built directly rather than by
    `make_instance`, an element may keep two atoms with one (x, y) outcome."""
    ids = draw(st.permutations([f"e{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]))
    dists = {}
    for e in ids:
        weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        dists[e] = [
            UtilityAtom(draw(VALUES), draw(VALUES), Fraction(w, sum(weights)))
            for w in weights
        ]
    ground = frozenset(ids)
    outer = draw(outer_systems(ids))
    inner = draw(
        st.sampled_from(
            [UniformSystem(ground, 1), UniformSystem(ground, 2), FreeSystem(ground)]
        )
    )
    if draw(st.booleans()):
        return make_instance(ids, dists, outer, inner)
    for atoms in dists.values():
        if len(atoms) > 1 and draw(st.booleans()):
            atoms[-1] = UtilityAtom(atoms[0].x, atoms[0].y, atoms[-1].prob)
    return Instance(tuple(ids), tuple(tuple(dists[e]) for e in ids), outer, inner)


@st.composite
def policies(draw, instance):
    kind = draw(st.sampled_from(["explicit", "threshold", "greedy"]))
    if kind == "explicit":
        candidates = realizable_inner_sets(instance)
        members = draw(st.lists(st.sampled_from(candidates))) if candidates else []
        return ExplicitPolicy(frozenset(members))
    if kind == "threshold":
        return ThresholdPolicy(draw(VALUES))
    candidates = candidate_pair_sets(instance)
    members = draw(st.lists(st.sampled_from(candidates))) if candidates else []
    return policy_from_greedy(greedy_family(members, instance.inner))


@st.composite
def menus(draw, instance):
    """1-3 lotteries over realizable inner-feasible sets and the empty set.
    Atoms on sets the agent has not fully probed are stale and pay zero;
    some sets can never be probed under the outer constraint."""
    pool = [frozenset()] + realizable_inner_sets(instance)
    lotteries = []
    supports = set()
    for _ in range(draw(st.integers(1, 3))):
        sets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        weights = [draw(st.integers(1, 4)) for _ in sets]
        l = lottery((s, Fraction(w, sum(weights))) for s, w in zip(sets, weights))
        if l.support() not in supports:
            supports.add(l.support())
            lotteries.append(l)
    return LotteryMenu(tuple(lotteries))


def _state_key(graph, observed):
    """The literal DP's state key: sorted probed ids, aligned atom indices."""
    pairs = sorted((graph.instance.elements[j], i) for j, i in observed)
    return tuple(e for e, _ in pairs), tuple(i for _, i in pairs)


def _graph_actions(graph, actions):
    elements = graph.instance.elements
    return {
        _state_key(graph, observed): None if k is None else elements[moves[k][0]]
        for observed, moves, k in zip(state_observations(graph), graph.moves, actions)
    }


def _assert_same_dp(instance, stops, unit, literal_stop, mode):
    """The graph solve equals the literal DP: root, actions, distribution."""
    graph = probing_graph(instance, Caps.dp_states)
    root, actions = solve_probing(graph, stops, mode, unit)
    literal_root, literal_actions = literal_solve(instance, literal_stop, mode)
    assert root == literal_root
    assert _graph_actions(graph, actions) == literal_actions
    distribution = probe_distribution(graph, actions)
    assert distribution == literal_distribution(instance, literal_actions)
    assert sum(distribution.values()) == 1
    return root, distribution


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from(MODES))
def test_adaptive_u_matches_the_literal_dp(instance, mode):
    graph = probing_graph(instance, Caps.dp_states)

    def literal_u(state):
        u = _observed_value(instance, zip(*state))
        return u, u

    stops = [(u, u) for u in graph.observed_values]
    _assert_same_dp(instance, stops, graph.outcome_unit, literal_u, mode)
    report = optimal_adaptive_value(instance)
    literal_root, literal_actions = literal_solve(
        instance, literal_u, TieBreak.LEXICOGRAPHIC
    )
    assert report.expected_value == literal_root[0]
    _, actions = solve_probing(graph, stops, TieBreak.LEXICOGRAPHIC)
    assert _graph_actions(graph, actions) == literal_actions
    assert report.state_count == len(graph) == len(literal_actions)
    # the benchmark's own stop pairs (u, 0) make the same lexicographic choices
    zero_stops = [(u, 0) for u in graph.observed_values]
    assert solve_probing(graph, zero_stops, TieBreak.LEXICOGRAPHIC)[1] == actions


@settings(max_examples=150, deadline=None)
@given(st.data(), instances())
def test_graph_u_matches_the_max_weight_search(data, base):
    inner = data.draw(inner_systems(list(base.elements)))
    instance = dataclasses.replace(base, inner=inner)
    graph = probing_graph(instance, Caps.dp_states)
    for observed, mask, u in zip(
        state_observations(graph), graph.masks, graph.observed_values
    ):
        pairs = [(instance.elements[j], i) for j, i in observed]
        assert Fraction(u, graph.outcome_unit) == _observed_value(instance, pairs)
        assert mask == sum(1 << graph.outcome_bits[instance.outcome(e, i)] for e, i in pairs)


@settings(max_examples=100, deadline=None)
@given(st.data(), instances())
def test_proposals_are_the_realizable_inner_sets(data, base):
    # free outer: every nonempty inner-feasible outcome set is a state; the
    # elements are reordered, so graph order is not outcome-key order
    ids = data.draw(st.permutations(base.elements))
    instance = make_instance(
        ids,
        dict(zip(base.elements, base.atoms)),
        FreeSystem(frozenset(ids)),
        data.draw(inner_systems(ids)),
    )
    graph = probing_graph(instance, Caps.dp_states)
    assert [s for s, *_ in graph.proposals] == realizable_inner_sets(instance)
    unit = graph.outcome_unit
    for outcomes, mask, y, x in graph.proposals:
        assert mask == sum(1 << graph.outcome_bits[o] for o in outcomes)
        assert (Fraction(y, unit), Fraction(x, unit)) == outcome_totals(outcomes)


@settings(max_examples=150, deadline=None)
@given(st.data(), instances(), st.sampled_from(MODES))
def test_policies_match_the_literal_dp(data, instance, mode):
    policy = data.draw(policies(instance))

    def stop_values(outcomes):
        return outcome_totals(agent_best_response(instance, policy, outcomes, mode))

    graph = probing_graph(instance, Caps.dp_states)
    unit = graph.outcome_unit
    stops = [
        (int(agent * unit), int(principal * unit))
        for agent, principal in map(stop_values, state_outcomes(graph))
    ]
    root, distribution = _assert_same_dp(
        instance,
        stops,
        unit,
        lambda state: stop_values(outcomes_at(instance, state)),
        mode,
    )
    # the compiled offers score every state, reached or not, as the walk does
    offers, unit = policy_offers(graph, policy)
    for walk_mode in MODES:
        walked = (
            agent_best_response(instance, policy, outcomes, walk_mode)
            for outcomes in state_outcomes(graph)
        )
        assert offer_stop_values(graph, offers, walk_mode) == [
            (agent * unit, principal * unit)
            for agent, principal in map(outcome_totals, walked)
        ]
    evaluation = evaluate_policy(instance, policy, mode)
    assert (evaluation.agent_value, evaluation.principal_value) == root
    assert evaluation.probe_distribution == distribution


@settings(max_examples=150, deadline=None)
@given(st.data(), instances(), st.sampled_from(MODES))
def test_menus_match_the_literal_dp(data, instance, mode):
    menu = data.draw(menus(instance))
    graph = probing_graph(instance, Caps.dp_states)
    offers, unit = menu_offers(graph, menu)
    stops = offer_stop_values(graph, offers, mode)

    def literal_stop(state):
        return agent_lottery_choice(menu, outcomes_at(instance, state), mode)[1]

    root, distribution = _assert_same_dp(instance, stops, unit, literal_stop, mode)
    evaluation = evaluate_lottery_menu(instance, menu, mode)
    assert (evaluation.agent_value, evaluation.principal_value) == root
    assert evaluation.probe_distribution == distribution


@settings(max_examples=100, deadline=None)
@given(st.data(), instances(), st.sampled_from(MODES))
def test_compiled_menu_stop_value_is_the_agents_choice(data, instance, mode):
    menu = data.draw(menus(instance))
    graph = probing_graph(instance, Caps.dp_states)
    offers, unit = menu_offers(graph, menu)
    stops = offer_stop_values(graph, offers, mode)
    for outcomes, (agent, principal) in zip(state_outcomes(graph), stops):
        chosen = agent_lottery_choice(menu, outcomes, mode)[1]
        assert (Fraction(agent, unit), Fraction(principal, unit)) == chosen


@settings(max_examples=100, deadline=None)
@given(instances())
def test_best_nonadaptive_set_matches_the_literal_scores(instance):
    best = None
    for candidate in iter_feasible_sets(instance.outer):
        key = (nonadaptive_value(instance, candidate), len(candidate))
        order = tuple(sorted(candidate))
        if best is None or key > best[0] or (key == best[0] and order < best[1]):
            best = (key, order, candidate)
    report = best_nonadaptive_set(instance)
    assert report.best_set == best[2]
    assert report.expected_value == best[0][0]


def test_state_cap_admits_exactly_the_state_count():
    inst = table1(Fraction(1, 2))
    states = optimal_adaptive_value(inst).state_count
    assert states == 6
    assert optimal_adaptive_value(inst, Caps(dp_states=states)).state_count == states
    with pytest.raises(CapacityError, match=f"exceeded {states - 1} states") as err:
        optimal_adaptive_value(inst, Caps(dp_states=states - 1))
    assert (err.value.cap, err.value.limit, err.value.reached) == (
        "dp_states",
        states - 1,
        states,
    )
    with pytest.raises(CapacityError, match="probing DP exceeded 0 states"):
        optimal_adaptive_value(inst, Caps(dp_states=0))


def test_graph_is_shared_by_every_stop_rule_on_one_instance():
    inst = table1(Fraction(1, 3))
    graph = probing_graph(inst, Caps.dp_states)
    optimal_adaptive_value(inst)
    evaluate_policy(inst, ThresholdPolicy(Fraction(1)))
    assert probing_graph(inst, Caps.dp_states) is graph
    # the root comes first; every move leads to a later state
    for s, moves in enumerate(graph.moves):
        assert all(t > s for _, atoms in moves for _, t in atoms)
    assert graph.probed[0] == graph.masks[0] == 0


def _ranking_instance(rng):
    """1 to 3 elements of 1 to 3 atoms with y and x in {0, 1, 2}: zero-y
    outcomes and ties in y are common.  Free or 1-uniform outer, 1-uniform,
    2-uniform or free inner."""
    elements = [f"e{i}" for i in range(1, rng.randint(1, 3) + 1)]
    ground = frozenset(elements)
    dists = {}
    for e in elements:
        weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        dists[e] = [
            UtilityAtom(
                Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2)), Fraction(w, sum(weights))
            )
            for w in weights
        ]
    outer = rng.choice([FreeSystem(ground), UniformSystem(ground, 1)])
    inner = rng.choice([UniformSystem(ground, 1), UniformSystem(ground, 2), FreeSystem(ground)])
    return make_instance(elements, dists, outer, inner)


def test_ranked_point_masses_match_the_fold_at_every_state():
    rng = random.Random(53)
    seen = Counter()
    for _ in range(120):
        graph = probing_graph(_ranking_instance(rng), Caps.dp_states)
        if rng.random() < 0.5:
            candidates = realizable_inner_sets(graph.instance)
            members = rng.sample(candidates, rng.randint(0, len(candidates)))
            offers, _ = policy_offers(graph, ExplicitPolicy(frozenset(members)))
        else:
            # any masks, contained in some states or in none, any values
            offers = [
                [(rng.choice(graph.masks) | rng.choice((0, 1)), rng.randint(0, 2), rng.randint(0, 2))]
                for _ in range(rng.randint(0, 8))
            ]
        ys = [atoms[0][1] for atoms in offers]
        seen["zero y"] += 0 in ys
        seen["tie in y"] += any(y and ys.count(y) > 1 for y in ys)
        for mode in MODES:
            # a zero atom on mask 0 lies in every state and adds nothing, but
            # sends the same offers down the per-state ranking
            ranked = offer_stop_values(graph, [atoms + [(0, 0, 0)] for atoms in offers], mode)
            assert offer_stop_values(graph, offers, mode) == ranked
    assert min(seen.values()) >= 30, seen


def test_point_mass_and_two_atom_menus_match_the_fold():
    rng = random.Random(59)
    seen = Counter()
    for _ in range(80):
        graph = probing_graph(_ranking_instance(rng), Caps.dp_states)
        pool = [frozenset()] + realizable_inner_sets(graph.instance)
        sets = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        point_masses = [lottery([(s, 1)]) for s in sets]
        menus = [LotteryMenu(tuple(point_masses))]
        if len(pool) > 1:
            pair = rng.sample(pool, 2)
            mixed = lottery([(pair[0], Fraction(1, 3)), (pair[1], Fraction(2, 3))])
            menus.append(LotteryMenu((mixed, *(l for l in point_masses if l.support() != mixed.support()))))
        for menu in menus:
            offers, _ = menu_offers(graph, menu)
            seen[max(map(len, offers))] += 1
            for mode in MODES:
                ranked = offer_stop_values(graph, [atoms + [(0, 0, 0)] for atoms in offers], mode)
                assert offer_stop_values(graph, offers, mode) == ranked
    assert seen[1] >= 60 and seen[2] >= 60, seen
