"""Ground-truth brute force over all deterministic policies on tiny instances.

A policy acts only through the sets the agent can propose, the rows of the
compiled probing graph (`ProbingGraph.proposals`), so every subset of the
rows is a stop rule of point-mass offers, and chunks of subsets are solved
side by side in one lane-packed `probing_pass`, whose winning lane gives
alpha* directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delegation import ExplicitPolicy, Policy, TieBreak
from .errors import CapacityError, Caps
from .instances import Instance
from .probing import Lanes, benchmark_ratio, lattice, probing_graph, probing_pass, rank_offers

LANE_BUDGET = 1 << 22  # bytes of stop keys: states x lanes in a chunk x lane size


@dataclass(frozen=True)
class GapReport:
    best_policy: Policy
    alpha_star: Fraction
    policies_enumerated: int
    principal_value: Fraction
    benchmark_value: Fraction


def exact_delegation_gap(
    instance: Instance,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    caps: Caps = Caps(),
) -> GapReport:
    """Max over all deterministic policies of the achieved fraction alpha.

    Policies are bitmasks over the proposal rows, whose count (the outer and
    inner tests' `lattice` less its root) `caps.policy_sets` bounds before
    any state is built.  They are solved in ascending chunks of 2 ** b masks,
    b as large as keeps states x lanes x lane bytes under `LANE_BUDGET`: lane
    i of the chunk from `base` is policy base + i, which stops at each state
    with the best-ranked (`rank_offers`) row it contains and sets.  The first
    strictly best root principal (`Lanes.best`) over `outcome_unit` * `scale`
    is the principal value, so alpha* is its `benchmark_ratio`; the winner is
    built as an `ExplicitPolicy` only for the report.
    """
    outer, inner = (s.mask_test(instance.elements) for s in (instance.outer, instance.inner))
    sizes, cap = [len(support) for support in instance.atoms], caps.policy_sets
    *_, (_, _, _, total) = lattice(sizes, lambda m: outer(m) and inner(m), cap + 1)
    if (count := total - 1) > cap:
        text = f"inner-feasible outcome sets exceed cap {cap} (count reached {count})"
        raise CapacityError(text, "policy_sets", cap, count)
    graph = probing_graph(instance, caps.dp_states)
    rows, scale = graph.proposals, graph.scale
    pairs = [(y, x) for _, _, y, x in rows]
    bound = max((x for _, x in pairs), default=0)
    agent_top = max((y for y, _ in pairs), default=0) * scale
    size = Lanes(mode, bound, scale, agent_top).size
    chunk_bits = min(count, max(0, (LANE_BUDGET // (len(graph) * size)).bit_length() - 1))
    lanes = Lanes(mode, bound, scale, agent_top, 1 << chunk_bits)
    every = (1 << lanes.count * lanes.width) - 1
    # lane i of every chunk sets row r < chunk_bits iff i does
    blocks = [bytes(size << r) + b"\xff" * (size << r) for r in range(chunk_bits)]
    patterns = [int.from_bytes(b * (lanes.count >> r + 1), "little") for r, b in enumerate(blocks)]
    empty, *packed = (k * lanes.one for k in lanes.pack([(0, 0), *pairs]))
    # worst first: the best row a lane sets is written last
    ranked = rank_offers(pairs, mode)[::-1]
    contained = [[r for r in ranked if rows[r][1] & seen == rows[r][1]] for seen in graph.masks]
    best = (-1, 0)
    for base in range(0, 2 ** count, lanes.count):
        chosen = patterns + [every * (base >> r & 1) for r in range(chunk_bits, count)]
        stops = []
        for state_rows in contained:
            stop = empty
            for r in state_rows:
                stop ^= (stop ^ packed[r]) & chosen[r]
            stops.append(stop)
        roots, _ = probing_pass(graph, stops, lanes)
        principal, i = lanes.best(roots, scale)
        if principal > best[0]:
            best = (principal, base + i)
    policy = ExplicitPolicy(frozenset(t for i, (t, *_) in enumerate(rows) if best[1] >> i & 1))
    value, benchmark = Fraction(best[0], graph.outcome_unit * scale), graph.adaptive.expected_value
    return GapReport(policy, benchmark_ratio(value, benchmark), 2**count, value, benchmark)
