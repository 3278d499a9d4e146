"""Greedy gambler strategies against an almighty ordering adversary.

A greedy strategy is a downward-closed family of (element, x) outcome sets;
the gambler is forced to accept an outcome exactly when the accepted set
stays in the family.  The almighty adversary knows the full realization and
picks the worst element order, implemented literally as a minimum over all
orderings.  Agent utilities play no role here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CapacityError, UnsupportedError
from .instances import (
    SCENARIO_CAP,
    Instance,
    enumerate_scenarios,
    realizable_inner_sets,
    x_values,
)
from .set_systems import Antichain, SetSystem, _antichain, max_weight_feasible

ORDERING_PRODUCT_CAP = 10**6
FAMILY_CAP = 10**6

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


def _gambler_run(
    family: GreedyFamily, order: tuple[str, ...], realized: dict[str, Fraction]
) -> Fraction:
    accepted: frozenset[OutcomePair] = frozenset()
    total = Fraction(0)
    for e in order:
        candidate = accepted | {(e, realized[e])}
        if family.accepts(candidate):
            accepted = candidate
            total += realized[e]
    return total


def evaluate_vs_almighty(
    instance: Instance,
    family: GreedyFamily,
    product_cap: int = ORDERING_PRODUCT_CAP,
    scenario_cap: int = SCENARIO_CAP,
) -> ProphetReport:
    """Expected forced-greedy value under worst-case per-scenario orderings."""
    scenarios = enumerate_scenarios(instance, scenario_cap)
    n_orders = math.factorial(len(instance.elements))
    if n_orders * len(scenarios) > product_cap:
        raise CapacityError(
            f"orderings x scenarios = {n_orders * len(scenarios)} exceeds cap "
            f"{product_cap}"
        )
    gambler = Fraction(0)
    prophet = Fraction(0)
    for realization, prob in scenarios:
        realized = {
            e: instance.dist(e)[realization[e]].x for e in instance.elements
        }
        worst = None
        for order in itertools.permutations(instance.elements):
            value = _gambler_run(family, order, realized)
            if worst is None or value < worst:
                worst = value
        gambler += prob * (worst if worst is not None else Fraction(0))
        prophet += prob * max_weight_feasible(instance.inner, realized)[1]
    ratio = gambler / prophet if prophet > 0 else Fraction(1)
    return ProphetReport(gambler, prophet, ratio)


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
    instance: Instance,
    family_cap: int = FAMILY_CAP,
    product_cap: int = ORDERING_PRODUCT_CAP,
    scenario_cap: int = SCENARIO_CAP,
) -> tuple[GreedyFamily, ProphetReport]:
    """Exhaustive search over downward-closed families of realizable outcomes.

    Returns a family maximizing the almighty-adversary ratio; ties keep the
    first candidate in canonical enumeration order.
    """
    candidates = candidate_pair_sets(instance)
    if 2 ** len(candidates) > family_cap:
        raise CapacityError(
            f"candidate family lattice 2^{len(candidates)} exceeds cap {family_cap}"
        )
    index = {c: i for i, c in enumerate(candidates)}
    proper_subsets: list[list[int]] = []
    for c in candidates:
        subs = []
        items = sorted(c)
        for r in range(1, len(items)):
            for combo in itertools.combinations(items, r):
                subs.append(index[frozenset(combo)])
        proper_subsets.append(subs)

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
        report = evaluate_vs_almighty(instance, family, product_cap, scenario_cap)
        if best is None or report.ratio > best[1].ratio:
            best = (family, report)
    assert best is not None  # the empty family is always enumerated
    return best
