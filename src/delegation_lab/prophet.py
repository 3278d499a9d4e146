"""Greedy gambler strategies against an almighty ordering adversary.

A greedy strategy is a downward-closed family of (element, x) outcome sets;
the gambler is forced to accept an outcome exactly when the accepted set
stays in the family.  The almighty adversary knows the full realization and
picks the worst element order.  Agent utilities play no role here.

The worst order has a closed form.  In a scenario with values x_e, let
B_A = {e : (e, x_e) in A} for each maximal acceptable set A.  Forced greedy,
in any order, stops on a set that is maximal among the B_A (the family is
downward closed, so an outcome refused once stays refused), and presenting
the elements of a maximal B_A first makes it stop exactly there.  So the
adversary scores the lightest maximal B_A, and no ordering is enumerated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CapacityError, Caps, UnsupportedError
from .instances import (
    Instance,
    check_scenario_cap,
    enumerate_scenarios,
    realizable_inner_sets,
    scenario_count,
    x_values,
)
from .set_systems import (
    Antichain,
    SetSystem,
    _antichain,
    iter_feasible_sets,
    max_weight_feasible,
)

OutcomePair = tuple[str, Fraction]


@dataclass(frozen=True)
class GreedyFamily(Antichain):
    """Downward-closed acceptance family stored as its maximal antichain."""

    maximal: frozenset[frozenset[OutcomePair]]
    constraint: SetSystem

    accepts = Antichain.contains


def greedy_family(
    members: Iterable[Iterable[OutcomePair]], constraint: SetSystem
) -> GreedyFamily:
    """Downward closure of the given generating sets, validated and reduced."""
    pool = {frozenset(m) for m in members}
    pool.discard(frozenset())
    for member in pool:
        elems = [e for e, _ in member]
        if len(set(elems)) != len(member):
            raise ValueError("an acceptable set may carry one outcome per element")
        if not constraint.is_feasible(elems):
            raise ValueError(f"acceptable set {sorted(member)} is not feasible")
        for _, x in member:
            if x < 0:
                raise ValueError("outcome values must be nonnegative")
    return GreedyFamily(_antichain(pool), constraint)


@dataclass(frozen=True)
class ProphetReport:
    gambler_value: Fraction
    prophet_value: Fraction
    ratio: Fraction


def _is_one_uniform(system: SetSystem) -> bool:
    elems = sorted(system.ground)
    if not all(system.is_feasible({e}) for e in elems):
        return False
    return not any(
        system.is_feasible({a, b}) for a, b in itertools.combinations(elems, 2)
    )


def samuel_cahn_threshold(instance: Instance) -> Fraction:
    """Smallest median of the distribution of the best single value.

    Returns the smallest support value m of max_e X_e with
    P[max >= m] >= 1/2 and P[max <= m] >= 1/2.  The induced strategy
    accepts a single outcome exactly when its value reaches the threshold.
    """
    if not _is_one_uniform(instance.inner):
        raise UnsupportedError("median threshold needs a 1-uniform inner constraint")
    if not instance.elements:
        raise UnsupportedError("median threshold needs at least one element")
    marginals = []
    for e in instance.elements:
        mass: dict[Fraction, Fraction] = {}
        for atom in instance.dist(e):
            mass[atom.x] = mass.get(atom.x, Fraction(0)) + atom.prob
        marginals.append(mass)
    values = sorted({x for mass in marginals for x in mass})
    below = Fraction(0)  # P[max < v], maintained across the sweep
    for v in values:
        at_most = Fraction(1)
        for mass in marginals:
            at_most *= sum(
                (p for x, p in mass.items() if x <= v), Fraction(0)
            )
        if at_most == below:
            below = at_most
            continue  # v is not in the support of the maximum
        if 1 - below >= Fraction(1, 2) and at_most >= Fraction(1, 2):
            return v
        below = at_most
    raise AssertionError("a median of the maximum always exists")


def threshold_family(instance: Instance, tau: Fraction) -> GreedyFamily:
    """Accept any single realizable outcome with value >= tau."""
    members = []
    for e in instance.elements:
        for x in x_values(instance, e):
            if x >= tau:
                members.append([(e, x)])
    return greedy_family(members, instance.inner)


def _worst_order_value(
    family: GreedyFamily, realized: dict[str, Fraction]
) -> Fraction:
    """Forced-greedy value of one scenario under its worst element order.

    The smallest total over the maximal sets B_A of realized outcomes that
    a maximal acceptable set A contains; 0 when the family is empty.
    """
    reached = (
        frozenset(e for e, x in member if realized.get(e) == x)
        for member in family.maximal
    )
    totals = (
        sum((realized[e] for e in stop), Fraction(0)) for stop in _antichain(reached)
    )
    return min(totals, default=Fraction(0))


# One scenario of the table: its probability and each element's value x_e.
ScenarioValues = tuple[Fraction, dict[str, Fraction]]


def scenario_table(
    instance: Instance, caps: Caps = Caps()
) -> tuple[list[ScenarioValues], Fraction]:
    """Every scenario's values and the prophet value E[max feasible total].

    Shared by every family scored on one instance.  `caps.orderings` bounds
    |E|! x scenarios, the orderings the closed form covers; both caps are
    checked before any scenario is built.
    """
    check_scenario_cap(instance, caps)
    orderings = math.factorial(len(instance.elements)) * scenario_count(instance)
    if orderings > caps.orderings:
        raise CapacityError(
            f"orderings x scenarios = {orderings} exceeds cap {caps.orderings}",
            "orderings",
            caps.orderings,
            orderings,
        )
    scenarios = enumerate_scenarios(instance, caps)
    table = []
    prophet = Fraction(0)
    for realization, prob in scenarios:
        realized = {
            e: instance.dist(e)[realization[e]].x for e in instance.elements
        }
        table.append((prob, realized))
        prophet += prob * max_weight_feasible(instance.inner, realized)[1]
    return table, prophet


def score_family(
    family: GreedyFamily, table: list[ScenarioValues], prophet: Fraction
) -> ProphetReport:
    """Expected forced-greedy value of `family` under worst-case orderings."""
    gambler = sum(
        (prob * _worst_order_value(family, realized) for prob, realized in table),
        Fraction(0),
    )
    ratio = gambler / prophet if prophet > 0 else Fraction(1)
    return ProphetReport(gambler, prophet, ratio)


def evaluate_vs_almighty(
    instance: Instance, family: GreedyFamily, caps: Caps = Caps()
) -> ProphetReport:
    """Expected forced-greedy value under worst-case per-scenario orderings.

    Each scenario's worst order is scored in closed form (module docstring);
    `caps.orderings` still bounds |E|! x scenarios, the orderings it covers.
    """
    return score_family(family, *scenario_table(instance, caps))


def candidate_pair_sets(instance: Instance) -> list[frozenset[OutcomePair]]:
    """Nonempty inner-feasible sets of realizable (element, x) outcomes.

    The (element, x) projection of `realizable_inner_sets`.
    """
    projected = {
        frozenset((o.element, o.x) for o in outcome_set)
        for outcome_set in realizable_inner_sets(instance)
    }
    return sorted(projected, key=lambda s: (len(s), sorted(s)))


def best_greedy_family(
    instance: Instance, caps: Caps = Caps()
) -> tuple[GreedyFamily, ProphetReport]:
    """Exhaustive search over downward-closed families of realizable outcomes.

    Returns a family maximizing the almighty-adversary ratio; ties keep the
    first candidate in canonical enumeration order.  The lattice size is
    checked against `caps.family_sets` before any candidate set is built.
    """
    # len(candidate_pair_sets(instance)): each nonempty inner-feasible
    # element set contributes the product of its elements' distinct x values
    count = sum(
        math.prod(len(x_values(instance, e)) for e in elements)
        for elements in iter_feasible_sets(instance.inner)
        if elements
    )
    # 2^count > limit, without building 2^count
    if count >= max(caps.family_sets, 0).bit_length():
        raise CapacityError(
            f"candidate family lattice 2^{count} exceeds cap {caps.family_sets}",
            "family_sets",
            caps.family_sets,
            caps.family_sets + 1,
        )
    candidates = candidate_pair_sets(instance)
    index = {c: i for i, c in enumerate(candidates)}
    proper_subsets: list[list[int]] = []
    for c in candidates:
        subs = []
        items = sorted(c)
        for r in range(1, len(items)):
            for combo in itertools.combinations(items, r):
                subs.append(index[frozenset(combo)])
        proper_subsets.append(subs)

    table = scenario_table(instance, caps)
    best: tuple[GreedyFamily, ProphetReport] | None = None
    for mask in range(2 ** len(candidates)):
        members = [c for i, c in enumerate(candidates) if mask >> i & 1]
        closed = all(
            mask >> j & 1
            for i, c in enumerate(candidates)
            if mask >> i & 1
            for j in proper_subsets[i]
        )
        if not closed:
            continue
        family = greedy_family(members, instance.inner)
        report = score_family(family, *table)
        if best is None or report.ratio > best[1].ratio:
            best = (family, report)
    assert best is not None  # the empty family is always enumerated
    return best
