"""Deterministic single-proposal delegation mechanisms.

The principal commits to a family of acceptable outcome sets; the agent
probes adaptively under the outer constraint and proposes an acceptable
subset of what was probed, maximizing agent utility.  Ties, both in the
proposal and in the probing strategy, are resolved by a configurable rule;
the adversarial rule minimizes the principal's utility among agent-optimal
choices and is the conservative default.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .instances import (
    SCENARIO_CAP,
    Instance,
    Outcome,
    check_outcome_set,
    fraction_from_json,
    fraction_to_json,
    is_inner_feasible_outcome_set,
    known_elements,
    make_instance,
    outcome_set_from_json,
    outcome_set_to_json,
    outcome_totals,
    realizable_inner_sets,
)
from .probing import (
    DP_STATE_CAP,
    OUTER_SET_CAP,
    ROOT_STATE,
    StateKey,
    TieBreak,
    ValuePair,
    _with_probe,
    best_nonadaptive_set,
    optimal_adaptive_value,
    prefer,
    solve_probing,
)
from .prophet import (
    ORDERING_PRODUCT_CAP,
    GreedyFamily,
    ProphetReport,
    evaluate_vs_almighty,
    samuel_cahn_threshold,
    threshold_family,
)
from .set_systems import FreeSystem, feasibility_equal


class Policy:
    """Predicate over outcome sets; the empty set is always acceptable."""

    def accepts(self, outcome_set: frozenset[Outcome]) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitPolicy(Policy):
    acceptable: frozenset[frozenset[Outcome]]

    def accepts(self, outcome_set: frozenset[Outcome]) -> bool:
        return not outcome_set or outcome_set in self.acceptable


@dataclass(frozen=True)
class ThresholdPolicy(Policy):
    """Accept any single outcome whose principal value reaches `tau`."""

    tau: Fraction

    def accepts(self, outcome_set: frozenset[Outcome]) -> bool:
        if not outcome_set:
            return True
        if len(outcome_set) != 1:
            return False
        return next(iter(outcome_set)).x >= self.tau


@dataclass(frozen=True)
class GreedyFamilyPolicy(Policy):
    """Accept a set iff its (element, x) projection is in the family.

    Agent utilities are deliberately ignored, so the construction works
    even when the principal cannot observe them.
    """

    family: GreedyFamily

    def accepts(self, outcome_set: frozenset[Outcome]) -> bool:
        pairs = frozenset((o.element, o.x) for o in outcome_set)
        if len(pairs) != len(outcome_set):
            return False
        return self.family.accepts(pairs)


def policy_from_greedy(family: GreedyFamily) -> GreedyFamilyPolicy:
    """Translate a gambler acceptance family into a delegation policy."""
    return GreedyFamilyPolicy(family)


@dataclass(frozen=True)
class PolicyEvaluation:
    principal_value: Fraction
    agent_value: Fraction
    probe_distribution: Mapping[frozenset[str], Fraction]
    benchmark_value: Fraction
    alpha: Fraction


def agent_best_response(
    instance: Instance,
    policy: Policy,
    probed: frozenset[Outcome],
    mode: TieBreak = TieBreak.ADVERSARIAL,
) -> frozenset[Outcome]:
    """The agent's proposal from probed outcomes: argmax y, ties per mode.

    Candidates are the acceptable inner-feasible subsets of the probed
    outcomes plus the empty proposal, which is always available and worth
    zero to both parties.  They are walked in canonical order (by size,
    then outcome keys) and replace the incumbent only when `prefer` says
    so, which resolves remaining ties to the canonically smallest set.
    """
    best = frozenset()
    best_pair = (Fraction(0), Fraction(0))
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


def agent_probe_values(
    instance: Instance,
    stop_values: Callable[[frozenset[Outcome]], ValuePair],
    mode: TieBreak,
    state_cap: int = DP_STATE_CAP,
) -> tuple[ValuePair, Mapping[frozenset[str], Fraction]]:
    """The agent's probing DP (`solve_probing`) and its probe distribution.

    `stop_values` maps a probed outcome set to the (agent, principal) value
    pair realized if the agent stops there and proposes.  Returns the root
    value pair and the distribution of probed sets under the strategy.
    """

    def stop_rule(state: StateKey) -> ValuePair:
        return stop_values(
            frozenset(instance.outcome(e, i) for e, i in zip(*state))
        )

    root_pair, actions = solve_probing(instance, stop_rule, mode, state_cap)
    distribution: dict[frozenset[str], Fraction] = {}

    def walk(state: StateKey, prob: Fraction) -> None:
        action = actions[state]
        if action is None:
            probed = frozenset(state[0])
            distribution[probed] = distribution.get(probed, Fraction(0)) + prob
            return
        for i, atom in enumerate(instance.dist(action)):
            walk(_with_probe(state, action, i), prob * atom.prob)

    walk(ROOT_STATE, Fraction(1))
    return root_pair, distribution


def evaluate_stop_values(
    instance: Instance,
    stop_values: Callable[[frozenset[Outcome]], ValuePair],
    mode: TieBreak,
    state_cap: int,
    benchmark: Fraction | None,
) -> PolicyEvaluation:
    """Agent DP on `stop_values`, measured against the adaptive benchmark.

    The one evaluator behind policies and lottery menus.
    """
    (agent_value, principal_value), distribution = agent_probe_values(
        instance, stop_values, mode, state_cap
    )
    if benchmark is None:
        benchmark = optimal_adaptive_value(instance, state_cap).expected_value
    alpha = principal_value / benchmark if benchmark > 0 else Fraction(1)
    return PolicyEvaluation(
        principal_value=principal_value,
        agent_value=agent_value,
        probe_distribution=distribution,
        benchmark_value=benchmark,
        alpha=alpha,
    )


def evaluate_policy(
    instance: Instance,
    policy: Policy,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    state_cap: int = DP_STATE_CAP,
    benchmark: Fraction | None = None,
) -> PolicyEvaluation:
    """Expected principal utility against an exactly best-responding agent."""

    def stop_values(outcomes: frozenset[Outcome]) -> ValuePair:
        return outcome_totals(agent_best_response(instance, policy, outcomes, mode))

    return evaluate_stop_values(instance, stop_values, mode, state_cap, benchmark)


def restrict_instance(instance: Instance, subset: Iterable[str]) -> Instance:
    """Restriction to `subset` with a free outer constraint."""
    keep = known_elements(instance, subset, "restriction")
    elements = [e for e in instance.elements if e in keep]
    dists = {e: list(instance.dist(e)) for e in elements}
    return make_instance(
        elements,
        dists,
        FreeSystem(frozenset(elements)),
        instance.inner.restrict(keep),
    )


def compose_outer(
    instance: Instance,
    inner_builder: Callable[[Instance], Policy],
    set_cap: int = OUTER_SET_CAP,
    state_cap: int = DP_STATE_CAP,
    benchmark: Fraction | None = None,
    scenario_cap: int = SCENARIO_CAP,
) -> tuple[Policy, frozenset[str]]:
    """Fix the best nonadaptive probe set F, then delegate inside it.

    The returned policy only accepts outcomes of elements in F, so the
    agent has no incentive to probe anything else; F itself is feasible in
    the outer constraint by construction.  `benchmark` is the adaptive
    optimum, if already known (see `best_nonadaptive_set`).
    """
    report = best_nonadaptive_set(
        instance, set_cap, state_cap, benchmark, scenario_cap
    )
    restricted = restrict_instance(instance, report.best_set)
    return inner_builder(restricted), report.best_set


def build_threshold_policy(
    instance: Instance,
    product_cap: int = ORDERING_PRODUCT_CAP,
    scenario_cap: int = SCENARIO_CAP,
) -> tuple[Policy, Fraction, ProphetReport]:
    """Best single-threshold policy, certified against the almighty adversary.

    Candidate cuts are the median of the maximum followed by every other
    realizable value; each induces the family accepting single outcomes at
    or above the cut.  The cut whose forced-greedy gambler value is largest
    wins (ties keep the earlier candidate, so the median is preferred).
    With finite supports a single fixed cut can land on a large atom and
    lose more than half of the benchmark, which is why the cut is tuned by
    exact evaluation instead of pinned at the median.
    """
    median = samuel_cahn_threshold(instance)
    cuts = [median] + [
        x
        for x in sorted(
            {atom.x for support in instance.atoms for atom in support}
        )
        if x != median
    ]
    best: tuple[Fraction, GreedyFamily, ProphetReport] | None = None
    for cut in cuts:
        family = threshold_family(instance, cut)
        report = evaluate_vs_almighty(instance, family, product_cap, scenario_cap)
        if best is None or report.gambler_value > best[2].gambler_value:
            best = (cut, family, report)
    assert best is not None
    cut, family, report = best
    return policy_from_greedy(family), cut, report


def materialize_policy(
    instance: Instance, policy: Policy
) -> frozenset[frozenset[Outcome]]:
    """The acceptable realizable outcome sets (empty set left implicit)."""
    return frozenset(
        t for t in realizable_inner_sets(instance) if policy.accepts(t)
    )


def validate_policy(instance: Instance, policy: Policy) -> None:
    """Reject explicit policies with members outside the feasible outcome space."""
    if isinstance(policy, ExplicitPolicy):
        for member in policy.acceptable:
            check_outcome_set(instance, member, "policy member")


def symmetric_groups(instance: Instance) -> list[frozenset[str]]:
    """Maximal groups of elements interchangeable in law and constraints."""
    elems = list(instance.elements)
    parent = {e: e for e in elems}

    def find(e: str) -> str:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for a, b in itertools.combinations(elems, 2):
        if instance.dist(a) != instance.dist(b):
            continue
        swap = {e: e for e in elems}
        swap[a], swap[b] = b, a
        if not feasibility_equal(instance.inner, instance.inner.relabel(swap)):
            continue
        if not feasibility_equal(instance.outer, instance.outer.relabel(swap)):
            continue
        parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for e in elems:
        groups.setdefault(find(e), set()).add(e)
    return [frozenset(g) for g in groups.values() if len(g) > 1]


def _swap_outcome_sets(
    family: frozenset[frozenset[Outcome]], a: str, b: str
) -> frozenset[frozenset[Outcome]]:
    swap = {a: b, b: a}
    return frozenset(
        frozenset(
            Outcome(swap.get(o.element, o.element), o.x, o.y) for o in member
        )
        for member in family
    )


def is_symmetric_policy(instance: Instance, policy: Policy) -> bool:
    """Invariance of the materialized policy under all symmetric swaps.

    Transpositions generate every permutation within a symmetric group, so
    checking each pair suffices.
    """
    materialized = materialize_policy(instance, policy)
    for group in symmetric_groups(instance):
        for a, b in itertools.combinations(sorted(group), 2):
            if _swap_outcome_sets(materialized, a, b) != materialized:
                return False
    return True


# --- Policy JSON format ------------------------------------------------------


def policy_to_json(policy: Policy, instance: Instance | None = None) -> dict:
    if isinstance(policy, ThresholdPolicy):
        return {"kind": "x-threshold", "tau": fraction_to_json(policy.tau)}
    if isinstance(policy, ExplicitPolicy):
        acceptable = policy.acceptable
    elif instance is not None:
        acceptable = materialize_policy(instance, policy)
    else:
        raise ValueError("predicate policies need an instance to serialize")
    members = sorted(
        map(outcome_set_to_json, acceptable),
        key=lambda m: (len(m), [(o["element"], o["x"], o["y"]) for o in m]),
    )
    return {"kind": "explicit", "acceptable": members}


def policy_from_json(obj: dict) -> Policy:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("policy must be an object with a 'kind' field")
    if obj["kind"] == "x-threshold":
        return ThresholdPolicy(fraction_from_json(obj.get("tau"), "tau"))
    if obj["kind"] == "explicit":
        members = obj.get("acceptable")
        if not isinstance(members, list):
            raise ValueError("explicit policy needs an 'acceptable' list")
        acceptable = {outcome_set_from_json(member) for member in members}
        acceptable.discard(frozenset())
        return ExplicitPolicy(frozenset(acceptable))
    raise ValueError(f"unknown policy kind {obj['kind']!r}")
