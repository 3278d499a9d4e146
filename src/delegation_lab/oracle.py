"""Ground-truth brute force over all deterministic policies on tiny instances.

Policies are enumerated over realizable inner-feasible outcome sets only;
acceptable sets that can never be proposed cannot change agent behavior, so
nothing is lost.  Each policy is evaluated from scratch to keep the oracle
obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .delegation import (
    ExplicitPolicy,
    Policy,
    PolicyEvaluation,
    TieBreak,
    evaluate_policy,
)
from .instances import Instance, realizable_inner_sets
from .probing import DP_STATE_CAP, optimal_adaptive_value

POLICY_CANDIDATE_CAP = 20


@dataclass(frozen=True)
class GapReport:
    best_policy: Policy
    alpha_star: Fraction
    policies_enumerated: int


def enumerate_policies(
    instance: Instance, candidate_cap: int = POLICY_CANDIDATE_CAP
) -> Iterator[ExplicitPolicy]:
    """Every subset of the realizable acceptable-set candidates, exactly once."""
    candidates = realizable_inner_sets(instance, candidate_cap)
    for mask in range(2 ** len(candidates)):
        yield ExplicitPolicy(
            frozenset(c for i, c in enumerate(candidates) if mask >> i & 1)
        )


def exact_delegation_gap(
    instance: Instance,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    candidate_cap: int = POLICY_CANDIDATE_CAP,
    state_cap: int = DP_STATE_CAP,
    benchmark: Fraction | None = None,
) -> GapReport:
    """Max over all deterministic policies of the achieved fraction alpha.

    `benchmark` is the adaptive optimum, if already known.
    """
    if benchmark is None:
        benchmark = optimal_adaptive_value(instance, state_cap).expected_value
    best_policy: Policy | None = None
    best: PolicyEvaluation | None = None
    count = 0
    for policy in enumerate_policies(instance, candidate_cap):
        count += 1
        evaluation = evaluate_policy(
            instance, policy, mode, state_cap, benchmark=benchmark
        )
        if best is None or evaluation.alpha > best.alpha:
            best_policy, best = policy, evaluation
    assert best_policy is not None and best is not None
    return GapReport(best_policy, best.alpha, count)
