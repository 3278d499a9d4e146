"""Stop keys and lanes (`probing.Lanes`) against the literal tie rule.

`prefer` is the tie rule's literal statement.  One lane's `>` on keys, the
lane-wise `merge` and `rank_offers` must all order (agent, principal) pairs
as it does, at the extremes of every lane, and a lane-packed `probing_pass`
must give every lane the root of its own one-lane pass.  `Lanes.best` must
pick the lane that decoding every lane and taking the first largest
principal picks.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from delegation_lab.errors import Caps
from delegation_lab.probing import (
    Lanes,
    TieBreak,
    prefer,
    probing_graph,
    probing_pass,
    rank_offers,
    solve_probing,
)
from delegation_lab.random_instances import random_free_outer_instance, random_tiny_instance

MODES = list(TieBreak)


def _packed(lanes, keys):
    return int.from_bytes(b"".join(k.to_bytes(lanes.size, "little") for k in keys), "little")


@st.composite
def lane_cases(draw):
    """(mode, bound, agent_top, challengers, incumbents): pairs in [0,
    agent_top] x [0, bound], drawn often from the extremes, equal agent
    values and equal pairs."""
    mode = draw(st.sampled_from(MODES))
    bound = draw(st.integers(0, 2**40))
    agent_top = draw(st.integers(0, 2**40))
    agents = st.one_of(st.sampled_from([0, agent_top]), st.integers(0, agent_top))
    principals = st.one_of(st.sampled_from([0, bound]), st.integers(0, bound))
    pairs = st.tuples(agents, principals)
    count = draw(st.integers(1, 9))
    challengers = draw(st.lists(pairs, min_size=count, max_size=count))
    incumbents = []
    for agent, principal in challengers:
        incumbents.append(
            draw(
                st.one_of(
                    st.just((agent, principal)),
                    st.tuples(st.just(agent), principals),
                    pairs,
                )
            )
        )
    return mode, bound, agent_top, challengers, incumbents


@settings(max_examples=150, deadline=None)
@given(lane_cases())
def test_keys_merge_and_rank_as_prefer(case):
    mode, bound, agent_top, challengers, incumbents = case
    lanes = Lanes(mode, bound, 1, agent_top, len(challengers))
    x, y = lanes.pack(challengers), lanes.pack(incumbents)
    assert all(0 <= key < 2 ** (lanes.width - 1) for key in x + y)
    merged = lanes.unpack(lanes.merge(_packed(lanes, x), _packed(lanes, y)))
    for i, (challenger, incumbent) in enumerate(zip(challengers, incumbents)):
        wins = prefer(challenger, incumbent, mode)
        assert (x[i] >> lanes.cut > y[i] >> lanes.cut) == wins
        assert merged[i] == (x[i] if wins else y[i])
        assert lanes.pair(x[i], 1) == challenger
        # the fold from the empty proposal keeps the first strict best
        first = None
        best = (0, 0)
        for k, pair in enumerate([incumbent, challenger]):
            if prefer(pair, best, mode):
                first, best = k, pair
        ranked = rank_offers([incumbent, challenger], mode)
        assert (ranked[0] if ranked else None) == first


def test_the_extremes_of_a_lane():
    # principal 0 and principal = bound, equal agents, agent_top with
    # principal 0: the widest key sits right under the guard bit
    for mode in MODES:
        for bound, agent_top in [(0, 0), (1, 0), (0, 1), (255, 255), (2**31 - 1, 2**33 + 5)]:
            corners = [(a, p) for a in (0, agent_top) for p in (0, bound)]
            for challenger in corners:
                count = len(corners)
                lanes = Lanes(mode, bound, 1, agent_top, count)
                x, y = lanes.pack([challenger] * count), lanes.pack(corners)
                merged = lanes.unpack(lanes.merge(_packed(lanes, x), _packed(lanes, y)))
                for i, incumbent in enumerate(corners):
                    expected = x[i] if prefer(challenger, incumbent, mode) else y[i]
                    assert merged[i] == expected, (mode, bound, agent_top, challenger, incumbent)
                    assert lanes.pair(merged[i], 1) in (challenger, incumbent)


def _graphs(rng):
    for _ in range(40):
        yield probing_graph(random_tiny_instance(rng), Caps.dp_states)
    for _ in range(10):
        yield probing_graph(random_free_outer_instance(rng, max_support=3), Caps.dp_states)


def test_every_lane_is_its_own_one_lane_pass():
    rng = random.Random(61)
    for graph in _graphs(rng):
        scale = graph.scale
        count = rng.randint(1, 12)
        rules = [
            [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(len(graph))]
            for _ in range(count)
        ]
        bound = max(p for rule in rules for _, p in rule)
        agent_top = max(a for rule in rules for a, _ in rule) * scale
        for mode in MODES:
            lanes = Lanes(mode, bound, scale, agent_top, count)
            keys = [lanes.pack(rule) for rule in rules]
            stops = [_packed(lanes, column) for column in zip(*keys)]
            roots, actions = probing_pass(graph, stops, lanes)
            if count > 1:
                assert actions == [None] * len(graph)
            for rule, root in zip(rules, roots):
                (agent, principal), _ = solve_probing(graph, rule, mode)
                assert Fraction(lanes.pair(root, scale)[0], scale) == agent
                assert Fraction(lanes.pair(root, scale)[1], scale) == principal
            assert lanes.best(roots, scale) == _first_largest(lanes, roots, scale)


def _first_largest(lanes, roots, scale):
    """(principal, index) of the first largest principal, every lane decoded."""
    principals = [lanes.pair(root, scale)[1] for root in roots]
    return max(principals), principals.index(max(principals))


def test_best_reads_off_the_first_largest_principal():
    rng = random.Random(67)
    cases = []
    for _ in range(200):
        bound, agent_top, scale = rng.randint(0, 40), rng.randint(0, 40), rng.randint(1, 12)
        count = rng.randint(1, 20)
        pairs = [(rng.randint(0, agent_top), rng.randint(0, bound)) for _ in range(count)]
        cases.append((bound, agent_top, scale, pairs))
    extremes = [(0, 0, 1), (1, 0, 1), (0, 1, 3), (7, 9, 5), (2**31 - 1, 2**33 + 5, 3)]
    for bound, top, scale in extremes:
        cases += [
            (bound, top, scale, [(top, bound)] * 6),  # every lane equal
            # ties at the largest principal; the first has the smaller agent value
            (bound, top, scale, [(0, 0), (top, 0), (0, bound), (top, bound), (0, bound)]),
            (bound, top, scale, [(top, 0), (0, 0), (top, 0)]),  # zero principal
        ]
    for mode in MODES:
        for bound, agent_top, scale, pairs in cases:
            # keys as a state of `scale` holds them
            lanes = Lanes(mode, bound, scale, agent_top * scale, len(pairs))
            roots = [key * scale for key in lanes.pack(pairs)]
            expected = _first_largest(lanes, roots, scale)
            assert lanes.best(roots, scale) == expected, (mode, bound, agent_top, scale, pairs)
            assert lanes.pair(roots[expected[1]], scale)[1] == max(p for _, p in pairs) * scale
