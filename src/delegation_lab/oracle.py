"""Ground-truth brute force over all deterministic policies on tiny instances.

A policy acts only through the sets the agent can propose, the rows of the
compiled probing graph (`ProbingGraph.proposals`), so every subset of the
rows is scored as point-mass offers by the one policy evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delegation import ExplicitPolicy, Policy, TieBreak, agent_probe_values
from .errors import CapacityError, Caps
from .instances import Instance
from .probing import probing_graph


@dataclass(frozen=True)
class GapReport:
    best_policy: Policy
    alpha_star: Fraction
    policies_enumerated: int


def exact_delegation_gap(
    instance: Instance,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    caps: Caps = Caps(),
) -> GapReport:
    """Max over all deterministic policies of the achieved fraction alpha.

    Policies are walked as bitmasks over the proposal rows, whose count
    `caps.policy_sets` bounds before any policy is scored; the first
    strictly best wins, and only it is built as an `ExplicitPolicy`.
    """
    graph = probing_graph(instance, caps.dp_states)
    rows = graph.proposals
    count, cap = len(rows), caps.policy_sets
    if count > cap:
        text = f"inner-feasible outcome sets exceed cap {cap} (count reached {count})"
        raise CapacityError(text, "policy_sets", cap, count)
    unit = graph.outcome_unit
    offers = [[(mask, y, x)] for _, mask, y, x in rows]
    best_subset, best = 0, agent_probe_values(graph, [], unit, mode)
    for subset in range(1, 2 ** count):
        chosen = [offer for i, offer in enumerate(offers) if subset >> i & 1]
        evaluation = agent_probe_values(graph, chosen, unit, mode)
        if evaluation.alpha > best.alpha:
            best_subset, best = subset, evaluation
    policy = ExplicitPolicy(
        frozenset(row[0] for i, row in enumerate(rows) if best_subset >> i & 1)
    )
    return GapReport(policy, best.alpha, 2 ** count)
