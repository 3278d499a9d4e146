"""Deterministic single-proposal delegation mechanisms.

The principal commits to a family of acceptable outcome sets; the agent
probes adaptively under the outer constraint and proposes an acceptable
subset of what was probed, maximizing agent utility.  Ties, both in the
proposal and in the probing strategy, are resolved by a configurable rule;
the adversarial rule minimizes the principal's utility among agent-optimal
choices and is the conservative default.

Each policy kind compiles itself to the proposal rows it accepts on a
probing graph (`Policy.accepted_proposals`) in integers: explicit members by
outcome mask, a threshold by a cut on integer x, a greedy family by masks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import Caps
from .instances import (
    Instance,
    Outcome,
    check_outcome_set,
    fraction_from_json,
    fraction_to_json,
    is_inner_feasible_outcome_set,
    outcome_set_from_json,
    outcome_set_to_json,
    outcome_totals,
    restrict_instance,
)
from .probing import (
    ProbingGraph,
    Proposal,
    TieBreak,
    benchmark_ratio,
    best_nonadaptive_set,
    prefer,
    probe_distribution,
    probing_graph,
    rank_offers,
    solve_probing,
)
from .prophet import (
    GreedyFamily,
    ProphetReport,
    family_masks,
    gambler_report,
    samuel_cahn_threshold,
    scenario_table,
    threshold_totals,
)


class Policy:
    """Predicate over outcome sets; the empty set is always acceptable."""

    def accepts(self, outcome_set: frozenset[Outcome]) -> bool:
        raise NotImplementedError

    def accepted_proposals(self, graph: ProbingGraph) -> list[Proposal]:
        """The `graph.proposals` rows that this policy accepts, in order: here
        by asking `accepts` once per row, in each kind below on integers."""
        return [row for row in graph.proposals if self.accepts(row[0])]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "accepts" in vars(cls) and "accepted_proposals" not in vars(cls):
            # an inherited compile states the parent's rule, not this one
            cls.accepted_proposals = Policy.accepted_proposals


@dataclass(frozen=True)
class ExplicitPolicy(Policy):
    acceptable: frozenset[frozenset[Outcome]]

    def accepts(self, outcome_set: frozenset[Outcome]) -> bool:
        return not outcome_set or outcome_set in self.acceptable

    def accepted_proposals(self, graph: ProbingGraph) -> list[Proposal]:
        # the rows whose masks are members' masks; a member holding an
        # outcome off the graph is no row
        bits = graph.outcome_bits
        masks = {sum(1 << bits[o] for o in m) for m in self.acceptable if m <= bits.keys()}
        return [row for row in graph.proposals if row[1] in masks]


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

    def accepted_proposals(self, graph: ProbingGraph) -> list[Proposal]:
        # x / unit >= tau as x * tau.den >= tau.num * unit: exact off the grid
        den, bound = self.tau.denominator, self.tau.numerator * graph.outcome_unit
        return [row for row in graph.proposals if len(row[0]) == 1 and row[3] * den >= bound]


@dataclass(frozen=True)
class GreedyFamilyPolicy(Policy):
    """Accept a set iff its (element, x) projection is in the family.

    Agent utilities are deliberately ignored, so the construction works
    even when the principal cannot observe them.  The compile takes a row
    iff its mask lies within one of the family's outcome masks
    (`family_masks`, looked up by integer (element, x) keys): a proposal
    has one outcome per element, so that is `accepts`.
    """

    family: GreedyFamily

    def accepts(self, outcome_set: frozenset[Outcome]) -> bool:
        pairs = frozenset((o.element, o.x) for o in outcome_set)
        if len(pairs) != len(outcome_set):
            return False
        return self.family.accepts(pairs)

    def accepted_proposals(self, graph: ProbingGraph) -> list[Proposal]:
        masks = family_masks(self.family, graph)
        return [row for row in graph.proposals if any(row[1] & m == row[1] for m in masks)]


def policy_from_greedy(family: GreedyFamily) -> GreedyFamilyPolicy:
    """Translate a gambler acceptance family into a delegation policy."""
    return GreedyFamilyPolicy(family)


# An offer's atoms (outcome mask, p * y, p * x), integers over a shared unit;
# a deterministic proposal is one atom with p = 1.
Offer = list[tuple[int, int, int]]


@dataclass(frozen=True, eq=False)
class PolicyEvaluation:
    """An evaluation's values, and the agent's `actions` on `graph`, from
    which `probe_distribution` is built the first time it is read."""

    principal_value: Fraction
    agent_value: Fraction
    benchmark_value: Fraction
    alpha: Fraction
    graph: ProbingGraph = field(repr=False)
    actions: Sequence[int | None] = field(repr=False)

    @functools.cached_property
    def probe_distribution(self) -> Mapping[frozenset[str], Fraction]:
        return probe_distribution(self.graph, self.actions)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # every value, the probe distribution last: it may have to be built
        names = (
            "principal_value", "agent_value", "benchmark_value", "alpha", "probe_distribution"
        )
        return all(getattr(self, name) == getattr(other, name) for name in names)


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

    Outcomes not inner-feasible alone (unknown element, off-support, or an
    element infeasible alone) are dropped first: inner constraints are
    downward closed, so no candidate holds one.  Subsets must have distinct,
    inner-feasible elements before the policy is asked.

    Evaluations scan `policy_offers` instead; this walk is their test
    reference, and the benchmark's tracer wraps it by name.
    """
    best = frozenset()
    best_pair = (Fraction(0), Fraction(0))
    ordered = [
        o
        for o in sorted(probed, key=Outcome.key)
        if is_inner_feasible_outcome_set(instance, [o])
    ]
    for r in range(1, len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            elements = {o.element for o in combo}
            if len(elements) != r or not instance.inner.is_feasible(elements):
                continue
            subset = frozenset(combo)
            if not policy.accepts(subset):
                continue
            pair = outcome_totals(subset)
            if prefer(pair, best_pair, mode):
                best, best_pair = subset, pair
    return best


def offer_value(atoms: Offer, observed: int) -> tuple[int, int]:
    """An offer's (agent, principal) value at a state of `observed` outcome
    mask: the sum of the atoms whose masks lie within it."""
    agent = principal = 0
    for mask, y, x in atoms:
        if mask & observed == mask:
            agent += y
            principal += x
    return agent, principal


def offer_stop_values(
    graph: ProbingGraph, offers: Sequence[Offer], mode: TieBreak
) -> list[tuple[int, int]]:
    """The agent's best offer's (agent, principal) values at every state: the
    first of `rank_offers` on the offers' values there, or the empty
    proposal's (0, 0) when none beats it.

    Point-mass offers (every policy's) are ranked once instead, and each
    state takes the first one it contains: the same choice.
    """
    if any(len(atoms) != 1 for atoms in offers):
        stops = []
        for observed in graph.masks:
            pairs = [offer_value(atoms, observed) for atoms in offers]
            ranked = rank_offers(pairs, mode)
            stops.append(pairs[ranked[0]] if ranked else (0, 0))
        return stops
    ranked = [offers[i][0] for i in rank_offers([atoms[0][1:] for atoms in offers], mode)]
    stops = []
    for observed in graph.masks:
        for mask, y, x in ranked:
            if mask & observed == mask:
                stops.append((y, x))
                break
        else:
            stops.append((0, 0))
    return stops


def policy_offers(graph: ProbingGraph, policy: Policy) -> tuple[list[Offer], int]:
    """`policy` compiled into point-mass offers on `graph`, and their unit.

    Offers are the `Policy.accepted_proposals`, in `outcome_set_key` order,
    `agent_best_response`'s candidate order, so every tie resolves as there.
    """
    offers = [[(mask, y, x)] for _, mask, y, x in policy.accepted_proposals(graph)]
    return offers, graph.outcome_unit


def agent_probe_values(
    graph: ProbingGraph,
    offers: Sequence[Offer],
    unit: int,
    mode: TieBreak,
    benchmark: Fraction | None = None,
) -> PolicyEvaluation:
    """The one evaluator of policies and menus: the agent's probing DP
    against `offers` (in units of 1/`unit`), measured against the adaptive
    benchmark (`graph.adaptive` unless given)."""
    stops = offer_stop_values(graph, offers, mode)
    (agent_value, principal_value), actions = solve_probing(graph, stops, mode, unit)
    if benchmark is None:
        benchmark = graph.adaptive.expected_value
    return PolicyEvaluation(
        principal_value=principal_value,
        agent_value=agent_value,
        benchmark_value=benchmark,
        alpha=benchmark_ratio(principal_value, benchmark),
        graph=graph,
        actions=actions,
    )


def evaluate_policy(
    instance: Instance,
    policy: Policy,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    caps: Caps = Caps(),
    benchmark: Fraction | None = None,
) -> PolicyEvaluation:
    """Expected principal utility against an exactly best-responding agent.

    `benchmark` replaces the adaptive optimum as the denominator of alpha.
    """
    graph = probing_graph(instance, caps.dp_states)
    return agent_probe_values(graph, *policy_offers(graph, policy), mode, benchmark)


def compose_outer(
    instance: Instance, caps: Caps = Caps()
) -> tuple[Policy, frozenset[str]]:
    """Fix the best nonadaptive probe set F, then tune a threshold inside it.

    The returned policy only accepts outcomes of elements in F, so the
    agent has no incentive to probe anything else; F itself is feasible in
    the outer constraint by construction.
    """
    report = best_nonadaptive_set(instance, caps)
    restricted = restrict_instance(instance, report.best_set)
    return build_threshold_policy(restricted, caps)[0], report.best_set


def build_threshold_policy(
    instance: Instance, caps: Caps = Caps()
) -> tuple[Policy, Fraction, ProphetReport]:
    """Best single-threshold policy, certified against the almighty adversary.

    Candidate cuts are the median of the maximum followed by every other
    realizable value; each induces the family accepting single outcomes at
    or above the cut.  The cut whose forced-greedy gambler value is largest
    wins (`max` keeps the earliest of tied candidates, so the median is
    preferred).  Every cut is scored in one integer sweep of one scenario
    table (`threshold_totals`); the winner's family (`threshold_family` at
    its cut: the median's 1-uniform inner takes every outcome alone) is read
    off the table's integer `outcome_values`.  With finite supports a single
    fixed cut can land on a large atom and lose more than half of the
    benchmark, which is why the cut is tuned by exact evaluation instead of
    pinned at the median.

    The policy's principal value is at least the gambler's when every agent
    utility y is positive.  With y = 0, an agent indifferent between an
    outcome above the cut and nothing may propose nothing under adversarial
    or lexicographic ties, and the principal gets less.
    """
    samuel_cahn_threshold(instance, caps)  # its refusals; the table keeps the median
    table = scenario_table(instance, caps)
    totals = threshold_totals(table)
    best = max([table.median, *totals], key=totals.__getitem__)
    members = {
        frozenset({(o.element, o.x)})
        for o, (_, x) in zip(table.outcome_bits, table.outcome_values)
        if x >= best
    }
    policy = policy_from_greedy(GreedyFamily(frozenset(members)))
    return policy, Fraction(best, table.outcome_unit), gambler_report(table, totals[best])


def materialize_policy(
    instance: Instance, policy: Policy, caps: Caps = Caps()
) -> frozenset[frozenset[Outcome]]:
    """The acceptable proposable outcome sets (empty set left implicit): the
    outcome sets of the `Policy.accepted_proposals`."""
    graph = probing_graph(instance, caps.dp_states)
    return frozenset(t for t, *_ in policy.accepted_proposals(graph))


def validate_policy(instance: Instance, policy: Policy) -> None:
    """Reject explicit policies with members outside the feasible outcome space."""
    if isinstance(policy, ExplicitPolicy):
        for member in policy.acceptable:
            check_outcome_set(instance, member, "policy member")


# --- Policy JSON format ------------------------------------------------------


def policy_to_json(
    policy: Policy, instance: Instance | None = None, caps: Caps = Caps()
) -> dict:
    if isinstance(policy, ThresholdPolicy):
        return {"kind": "x-threshold", "tau": fraction_to_json(policy.tau)}
    if isinstance(policy, ExplicitPolicy):
        acceptable = policy.acceptable
    elif instance is not None:
        acceptable = materialize_policy(instance, policy, caps)
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
