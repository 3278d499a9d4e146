"""The compiled integer probing graph against the literal Fraction DP.

Every stop rule the library solves (the adaptive u, deterministic policies
and lottery menus) is run through both `solve_probing` on the compiled
graph and the recursive state-key DP in `literal_probing`, under all three
tie modes; the root pair, every state's action and the probe distribution
must agree exactly.
"""

import dataclasses
import itertools
import math
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
    x_values,
)
from delegation_lab.lottery import (
    LotteryMenu,
    agent_lottery_choice,
    evaluate_lottery_menu,
    lottery,
    menu_offers,
)
from delegation_lab import probing
from delegation_lab.probing import (
    AdaptiveValueReport,
    _observed_value,
    best_nonadaptive_set,
    lattice,
    nonadaptive_value,
    optimal_adaptive_value,
    probe_distribution,
    probing_graph,
    solve_probing,
)
from delegation_lab.prophet import _is_one_uniform, candidate_pair_sets, greedy_family
from delegation_lab.set_systems import (
    FreeSystem,
    IntersectionSystem,
    PartitionSystem,
    UniformSystem,
    explicit_system,
    iter_feasible_sets,
)

from literal_instances import outcome
from literal_probing import (
    literal_distribution,
    literal_solve,
    outcomes_at,
    state_moves,
    state_observations,
    state_probed,
    state_scales,
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
        for observed, moves, k in zip(state_observations(graph), state_moves(graph), actions)
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


@st.composite
def ground_admitting_outers(draw, ids):
    """Outer constraints that admit every element: free, uniform with k >= n,
    partition with caps at least the block sizes, explicit with the ground
    set as a member."""
    ground = frozenset(ids)
    kind = draw(st.sampled_from(["free", "uniform", "partition", "explicit"]))
    if kind == "free":
        return FreeSystem(ground)
    if kind == "uniform":
        return UniformSystem(ground, draw(st.integers(len(ids), len(ids) + 2)))
    if kind == "partition":
        blocks = draw(partitions(ids)).blocks
        caps = tuple(len(b) + draw(st.integers(0, 1)) for b in blocks)
        return PartitionSystem(ground, blocks, caps)
    members = draw(st.lists(st.sets(st.sampled_from(ids)), max_size=3))
    return explicit_system(ground, [ground, *members])


def _literal_benchmark(instance):
    """The literal DP's root value with (u, 0) stops, lexicographic ties."""
    (value, _), _ = literal_solve(
        instance, lambda state: (_observed_value(instance, zip(*state)), 0), TieBreak.LEXICOGRAPHIC
    )
    return value


@settings(max_examples=150, deadline=None)
@given(st.data(), instances())
def test_adaptive_is_the_prophet_where_the_outer_constraint_admits_every_element(data, base):
    # probing more never hurts: the closed form equals the DP it replaces
    outer = data.draw(ground_admitting_outers(list(base.elements)))
    instance = dataclasses.replace(base, outer=outer)
    graph = probing_graph(instance, Caps.dp_states)
    assert graph.full_probes
    stops = [(u, 0) for u in graph.observed_values]
    (value, _), _ = solve_probing(graph, stops, TieBreak.LEXICOGRAPHIC, graph.outcome_unit)
    assert graph.adaptive.expected_value == value == _literal_benchmark(instance)
    assert graph.adaptive.state_count == len(graph)


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
        assert mask == sum(1 << graph.outcome_bits[outcome(instance, e, i)] for e, i in pairs)


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


@settings(max_examples=150, deadline=None)
@given(instances())
def test_each_probed_set_is_one_block_of_literal_states(instance):
    # every state's arrays are the literal product of the atoms it observed;
    # a probed set's states are contiguous; moves probe the outer-feasible
    # next elements in element order, and every successor comes later
    graph = probing_graph(instance, Caps.dp_states)
    elements, atoms = instance.elements, instance.atoms
    qs = [math.lcm(*(a.prob.denominator for a in support)) for support in atoms]
    blocks, probed_sets, scales = {}, state_probed(graph), state_scales(graph)
    for s, (observed, moves) in enumerate(zip(state_observations(graph), state_moves(graph))):
        probed = {j for j, _ in observed}
        assert probed_sets[s] == sum(1 << j for j in probed)
        assert scales[s] == math.prod(q for j, q in enumerate(qs) if j not in probed)
        probability = math.prod(atoms[j][i].prob for j, i in observed)
        assert graph.weights[s] == probability * scales[0]
        bits = {graph.outcome_bits[outcome(instance, elements[j], i)] for j, i in observed}
        assert graph.masks[s] == sum(1 << b for b in bits)
        feasible = [
            j
            for j, e in enumerate(elements)
            if j not in probed
            and instance.outer.is_feasible({elements[i] for i in probed} | {e})
        ]
        assert [j for j, _ in moves] == feasible
        assert all(t > s for _, successors in moves for t in successors)
        blocks.setdefault(probed_sets[s], []).append(s)
    for probed, states in blocks.items():
        assert states == list(range(states[0], states[0] + len(states)))
        assert len(states) == math.prod(len(a) for j, a in enumerate(atoms) if probed >> j & 1)


def _refuse(*args, **kwargs):
    raise AssertionError("a state was built before the cap was checked")


GROUND = frozenset({"e1", "e2", "e3"})


@pytest.mark.parametrize(
    "outer, count",
    [
        # {}, 3 singles, the pairs {e1, e3} and {e2, e3}: 1 + 7 + 4 + 6
        (PartitionSystem(GROUND, (frozenset({"e1", "e2"}), frozenset({"e3"})), (1, 1)), 18),
        # {}, 3 singles, 3 pairs: 1 + 7 + 6 + 4 + 6
        (UniformSystem(GROUND, 2), 24),
    ],
)
def test_constrained_states_are_capped_before_any_state_is_built(outer, count, monkeypatch):
    # e1, e2, e3 of 2, 3, 2 atoms under a non-free outer constraint
    sizes = {"e1": 2, "e2": 3, "e3": 2}
    dists = {
        e: [UtilityAtom(Fraction(i), Fraction(i), Fraction(1, k)) for i in range(k)]
        for e, k in sizes.items()
    }
    inst = make_instance(list(sizes), dists, outer, UniformSystem(GROUND, 1))
    assert optimal_adaptive_value(inst).state_count == count
    assert optimal_adaptive_value(inst, Caps(dp_states=count)).state_count == count
    # the walk counts the states of each probed set: no outcome is built
    monkeypatch.setattr(probing, "Outcome", _refuse)
    with pytest.raises(CapacityError) as err:
        optimal_adaptive_value(inst, Caps(dp_states=count - 1))
    assert str(err.value) == f"probing DP exceeded {count - 1} states"
    assert (err.value.cap, err.value.limit, err.value.reached) == ("dp_states", count - 1, count)


def _no_pass(*args, **kwargs):
    raise AssertionError("a probing pass ran")


def _two_three_two(outer):
    """e1, e2, e3 of 2, 3, 2 atoms, x = 1, 3, 5, ... under `outer`, 1-uniform inner."""
    sizes = {"e1": 2, "e2": 3, "e3": 2}
    dists = {
        e: [UtilityAtom(Fraction(2 * i + 1), Fraction(i), Fraction(1, k)) for i in range(k)]
        for e, k in sizes.items()
    }
    return make_instance(list(sizes), dists, outer, UniformSystem(GROUND, 1))


HALVES = (frozenset({"e1", "e2"}), frozenset({"e3"}))
# outer constraints that admit every element of GROUND
ADMITTING = [
    FreeSystem(GROUND),
    UniformSystem(GROUND, 3),
    PartitionSystem(GROUND, HALVES, (2, 1)),
    explicit_system(GROUND, [GROUND]),
]


def test_the_benchmark_runs_no_pass_where_every_element_is_probed(monkeypatch):
    # a graph whose last block probes every element reads its benchmark off
    # the scenario rows; under a rank-1 outer constraint the pass still runs.
    # Each graph is compiled afresh, uncached
    expected = {outer: _literal_benchmark(_two_three_two(outer)) for outer in ADMITTING}
    rank_one = _two_three_two(UniformSystem(GROUND, 1))
    rank_one_value = _literal_benchmark(rank_one)
    assert rank_one_value < expected[FreeSystem(GROUND)]
    monkeypatch.setattr(probing, "probing_pass", _no_pass)
    for outer, value in expected.items():
        graph = probing_graph.__wrapped__(_two_three_two(outer), Caps.dp_states)
        assert graph.adaptive == AdaptiveValueReport(value, 36)
    with pytest.raises(AssertionError, match="a probing pass ran"):
        probing_graph.__wrapped__(rank_one, Caps.dp_states).adaptive
    monkeypatch.undo()
    graph = probing_graph.__wrapped__(rank_one, Caps.dp_states)
    assert graph.adaptive == AdaptiveValueReport(rank_one_value, 1 + 7)


@pytest.mark.parametrize("outer", ADMITTING[1:])
def test_an_outer_constraint_admitting_every_element_refuses_before_the_walk(outer, monkeypatch):
    # the pre-walk refusal asks the outer mask test of the full mask alone,
    # whatever the outer kind: prod(k_e + 1) = 36 states, with no walk
    monkeypatch.setattr(probing, "lattice", _refuse)
    with pytest.raises(CapacityError) as err:
        optimal_adaptive_value(_two_three_two(outer), Caps(dp_states=35))
    assert (err.value.cap, err.value.limit, err.value.reached) == ("dp_states", 35, 36)


KINDS = ("free", "uniform", "partition", "explicit", "intersection")


def _seeded_system(rng, ids, kind):
    """A set system of `kind` over `ids`, drawn from `rng`; empty `ids` allowed."""
    ground = frozenset(ids)
    if kind == "free":
        return FreeSystem(ground)
    if kind == "uniform":
        return UniformSystem(ground, rng.randint(0, len(ids)))
    if kind == "partition":
        order, cut = rng.sample(ids, len(ids)), rng.randint(0, len(ids))
        blocks = [frozenset(b) for b in (order[:cut], order[cut:]) if b]
        return PartitionSystem(ground, tuple(blocks), tuple(rng.randint(0, len(b)) for b in blocks))
    if kind == "explicit":
        return explicit_system(ground, [rng.sample(ids, rng.randint(0, len(ids))) for _ in range(3)])
    parts = (_seeded_system(rng, ids, "partition"), _seeded_system(rng, ids, "explicit"))
    return IntersectionSystem(ground, parts)


def _walked_total(sizes, feasible, limit=10**6):
    *_, (_, _, _, total) = lattice(sizes, feasible, limit)
    return total


def test_the_lattice_counts_the_graph_its_proposals_and_the_candidate_sets():
    # the one walk behind the compile and the three lattice caps counts what
    # each builds, the root included, under every outer and inner kind
    rng = random.Random(27)
    for _ in range(30):
        ids = [f"e{i}" for i in range(rng.randint(1, 4))]
        # x repeats across atoms, so some elements have fewer x values than atoms
        atom_counts = {e: rng.randint(1, 3) for e in ids}
        dists = {
            e: [UtilityAtom(Fraction(rng.randint(0, 2)), Fraction(k), Fraction(1, m)) for k in range(m)]
            for e, m in atom_counts.items()
        }
        for outer_kind, inner_kind in itertools.product(KINDS, KINDS):
            outer_system = _seeded_system(rng, ids, outer_kind)
            inst = make_instance(ids, dists, outer_system, _seeded_system(rng, ids, inner_kind))
            outer, inner = (s.mask_test(inst.elements) for s in (inst.outer, inst.inner))
            sizes = [len(support) for support in inst.atoms]
            graph = probing_graph(inst, Caps.dp_states)
            assert _walked_total(sizes, outer) == len(graph)
            both = lambda m: outer(m) and inner(m)
            assert _walked_total(sizes, both) == len(graph.proposals) + 1
            x_sizes = [len(x_values(inst, e)) for e in inst.elements]
            assert _walked_total(x_sizes, inner) == len(candidate_pair_sets(inst)) + 1
            # below the total, the walk stops at the first set that passes
            # the limit, every set before it within the limit, and each set
            # it yields is whole: its count and moves as in the full walk
            full = list(lattice(sizes, outer, len(graph)))
            for limit in range(len(graph)):
                *within, (_, _, _, passed) = walked = list(lattice(sizes, outer, limit))
                assert passed > limit
                assert all(total <= limit for *_, total in within)
                assert [w[:3] for w in walked] == [w[:3] for w in full[: len(walked)]]


def test_one_uniform_is_the_literal_rule():
    # every element feasible alone and no pair feasible, on systems of every
    # kind, the empty ground and the 1-uniform systems of each kind included
    rng = random.Random(28)
    for n in range(5):
        ids = [f"e{i}" for i in range(n)]
        ground = frozenset(ids)
        systems = [_seeded_system(rng, ids, kind) for kind in KINDS for _ in range(20)]
        systems += [UniformSystem(ground, 1), explicit_system(ground, [[e] for e in ids])]
        systems.append(PartitionSystem(ground, (ground,) if ids else (), (1,) if ids else ()))
        for system in systems:
            literal = all(system.is_feasible([e]) for e in ids) and not any(
                system.is_feasible(pair) for pair in itertools.combinations(ids, 2)
            )
            assert _is_one_uniform(system) == literal, system
        assert _is_one_uniform(UniformSystem(ground, 1))


def _mask_pair(mask):
    """An arbitrary (agent, principal) stop pair of an outcome mask, with
    many agent ties, so each tie rule decides some states."""
    return mask * 37 % 11, mask * 53 % 7


@pytest.mark.parametrize("mode", MODES)
def test_a_middle_stride_move_reaches_its_literal_successors(mode):
    # e1, e2, e3 of 2, 3, 2 atoms, free outer: the block {e1, e3} (4 states)
    # probes e2 with stride 2, so 1 < stride < count and a successor's
    # offset needs the gap between the strided runs
    x = {"e1": [1, 5], "e2": [2, 4, 7], "e3": [3, 8]}
    p = {"e1": [1, 2], "e2": [1, 2, 3], "e3": [1, 3]}
    dists = {
        e: [
            UtilityAtom(Fraction(v), Fraction(v * v % 5), Fraction(w, sum(p[e])))
            for v, w in zip(x[e], p[e])
        ]
        for e in x
    }
    instance = make_instance(list(x), dists, FreeSystem(GROUND), UniformSystem(GROUND, 1))
    graph = probing_graph(instance, Caps.dp_states)
    elements, observations, moves = instance.elements, state_observations(graph), state_moves(graph)

    def bit(j, i):
        return 1 << graph.outcome_bits[outcome(instance, elements[j], i)]

    probed_sets = state_probed(graph)
    middle = [s for s in range(len(graph)) if probed_sets[s] == 0b101]
    probes = [successors for s in middle for j, successors in moves[s] if j == 1]
    full = probed_sets.index(0b111)
    assert [t - full for t, _, _ in probes] == [0, 1, 6, 7]
    assert all(b - a == c - b == 2 for a, b, c in probes)
    for s in range(len(graph)):
        for j, successors in moves[s]:
            for i, t in enumerate(successors):
                assert observations[t] == tuple(sorted(observations[s] + ((j, i),)))
                assert graph.masks[t] == graph.masks[s] | bit(j, i)

    def literal_stop(state):
        mask = sum(bit(elements.index(e), i) for e, i in zip(*state))
        return tuple(map(Fraction, _mask_pair(mask)))

    stops = [_mask_pair(mask) for mask in graph.masks]
    _assert_same_dp(instance, stops, 1, literal_stop, mode)
    for observed, u in zip(observations, graph.observed_values):
        pairs = [(elements[j], i) for j, i in observed]
        assert Fraction(u, graph.outcome_unit) == _observed_value(instance, pairs)
    # probe e1, then e3, then e2 unless e3 drew its first atom
    def action(observed, state_moves):
        probed = [j for j, _ in observed]
        after = [j for j in (0, 2, 1) if j not in probed]
        if not after or (2, 0) in observed:
            return None
        return [j for j, _ in state_moves].index(after[0])

    actions = [action(observed, moves[s]) for s, observed in enumerate(observations)]
    literal_actions = {
        _state_key(graph, observed): None if k is None else elements[moves[s][k][0]]
        for s, (observed, k) in enumerate(zip(observations, actions))
    }
    distribution = probe_distribution(graph, actions)
    assert distribution == literal_distribution(instance, literal_actions)
    assert distribution == {frozenset({"e1", "e3"}): Fraction(1, 4), GROUND: Fraction(3, 4)}


def test_graph_is_shared_by_every_stop_rule_on_one_instance():
    inst = table1(Fraction(1, 3))
    graph = probing_graph(inst, Caps.dp_states)
    optimal_adaptive_value(inst)
    evaluate_policy(inst, ThresholdPolicy(Fraction(1)))
    assert probing_graph(inst, Caps.dp_states) is graph
    # the root comes first; every move leads to a later state
    for s, moves in enumerate(state_moves(graph)):
        assert all(t > s for _, successors in moves for t in successors)
    assert state_probed(graph)[0] == graph.masks[0] == 0


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
