"""Greedy gambler strategies against an almighty ordering adversary.

A greedy strategy is a downward-closed family of (element, x) outcome sets,
an `ExplicitSystem` over the pairs its maximal sets hold; the gambler is
forced to accept an outcome exactly when the accepted set stays in the
family.  The almighty adversary knows the full realization and picks the
worst element order.  Agent utilities play no role here.

The worst order has a closed form.  In a scenario with values x_e, let
B_A = {e : (e, x_e) in A} for each maximal acceptable set A.  Forced greedy,
in any order, stops on a set that is maximal among the B_A (the family is
downward closed, so an outcome refused once stays refused), and presenting
the elements of a maximal B_A first makes it stop exactly there.  So the
adversary scores the lightest maximal B_A, and no ordering is enumerated.

Everything is scored in integers on the compiled probing graph of the
instance under a free outer constraint.  Its full-probe states are the
scenarios, each with an integer weight and the bitmask of its realized
outcomes (`ProbingGraph.full_probes`); their best feasible totals, weighted,
sum to the prophet's total (`ProbingGraph.prophet`).  A family compiles into
one outcome mask per maximal set A (`family_masks`), the OR of the bits of
every outcome with an (element, x) pair in A, each pair looked up by its
integer key (`ProbingGraph.pair_masks`); a scenario's B_A is then its mask
AND A's mask.  `delegation` compiles a `GreedyFamilyPolicy` from the same
masks on the instance's own graph: a proposal is acceptable iff its outcome
mask lies within one of them.  The median threshold walks the same table's
scenarios by integer u, and every threshold cut is scored in one integer
pass (`threshold_totals`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CapacityError, Caps, UnsupportedError
from .instances import Instance, check_scenario_cap, restrict_instance, x_values
from .probing import ProbingGraph, lattice, probing_graph
from .set_systems import ExplicitSystem, FreeSystem, SetSystem, explicit_system

OutcomePair = tuple[str, Fraction]


def greedy_family(
    members: Iterable[Iterable[OutcomePair]], constraint: SetSystem
) -> ExplicitSystem:
    """Downward closure of the given generating sets, validated and reduced:
    an explicit system over the (element, x) pairs its members hold."""
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
    return explicit_system(frozenset().union(*pool), pool)


@dataclass(frozen=True)
class ProphetReport:
    gambler_value: Fraction
    prophet_value: Fraction
    ratio: Fraction


def _is_one_uniform(system: SetSystem) -> bool:
    """Every element is feasible alone and no two are: the `lattice` of the
    mask test, every size 1, meets exactly the empty set and the n
    singletons, its total n + 1 from the empty set's children on."""
    n = len(system.ground)
    walk = list(lattice([1] * n, system.mask_test(sorted(system.ground)), n + 1))
    return walk[0][3] == walk[-1][3] == n + 1


def samuel_cahn_threshold(instance: Instance, caps: Caps = Caps()) -> Fraction:
    """Smallest median of the distribution of the best single value.

    Returns the smallest support value m of max_e X_e with
    P[max >= m] >= 1/2 and P[max <= m] >= 1/2.  The induced strategy
    accepts a single outcome exactly when its value reaches the threshold.

    That m is the first u with P[max <= u] >= 1/2 (every smaller v has
    P[max <= v] < 1/2, so P[max >= m] > 1/2): the `scenario_table`'s
    `median`, walked once per table, as under the 1-uniform inner
    constraint a scenario's u is its max_e x_e, over `outcome_unit`.  The
    table is built under `caps`, so the median refuses wherever the table
    does.
    """
    if not _is_one_uniform(instance.inner):
        raise UnsupportedError("median threshold needs a 1-uniform inner constraint")
    if not instance.elements:
        raise UnsupportedError("median threshold needs at least one element")
    table = scenario_table(instance, caps)
    return Fraction(table.median, table.outcome_unit)


def threshold_family(instance: Instance, tau: Fraction) -> ExplicitSystem:
    """Accept any single realizable outcome with value >= tau."""
    members = []
    for e in instance.elements:
        for x in x_values(instance, e):
            if x >= tau:
                members.append([(e, x)])
    return greedy_family(members, instance.inner)


@functools.lru_cache(maxsize=2)
def _free_outer(instance: Instance) -> Instance:
    """`instance` under a free outer constraint, built once per instance."""
    return restrict_instance(instance, instance.elements)


def scenario_table(instance: Instance, caps: Caps = Caps()) -> ProbingGraph:
    """The free-outer probing graph of `instance` (its own where its outer
    constraint admits every element), whose full-probe states are its scenarios.

    Shared, with its scenario rows, by every family scored on one instance.
    `caps.scenarios` bounds those rows and is checked before the compile,
    which `caps.dp_states` bounds.
    """
    check_scenario_cap(instance, caps)
    if not isinstance(instance.outer, FreeSystem) and not instance.outer.is_feasible(instance.elements):
        instance = _free_outer(instance)
    return probing_graph(instance, caps.dp_states)


def family_masks(family: ExplicitSystem, graph: ProbingGraph) -> set[int]:
    """One outcome mask of `graph` per maximal set A of `family`: the OR of
    the bits of every outcome with an (element, x) pair in A, looked up by
    integer key (`ProbingGraph.pair_masks`).  Pairs off the support own no
    bit."""
    bits = graph.pair_masks
    # distinct pairs own disjoint outcome bits, so their sum is their OR
    return {sum(bits.get((e, x.numerator, x.denominator), 0) for e, x in m) for m in family.maximal}


def score_family(family: ExplicitSystem, graph: ProbingGraph) -> ProphetReport:
    """Expected forced-greedy value of `family` under worst-case orderings.

    `graph` is the `scenario_table`.  Each scenario scores its lightest
    maximal B_A, in integers over the outcome unit times the root scale.
    """
    masks = family_masks(family, graph)
    totals: dict[int, int] = {}  # x of each B_A met so far
    gambler = 0
    for weight, observed, _ in graph.full_probes:
        # an empty B_A is never maximal beside a nonempty one, and scores 0 alone
        reached = {observed & mask for mask in masks}
        reached.discard(0)
        lightest = None
        for stop in reached:
            if any(stop != other and stop & other == stop for other in reached):
                continue  # not maximal
            if stop not in totals:
                totals[stop] = graph.mask_values(stop)[1]
            if lightest is None or totals[stop] < lightest:
                lightest = totals[stop]
        if lightest is not None:
            gambler += weight * lightest
    return gambler_report(graph, gambler)


def gambler_report(graph: ProbingGraph, gambler: int) -> ProphetReport:
    """The report of a gambler total over `graph.outcome_unit` times the
    root scale, beside the prophet's total (`ProbingGraph.prophet`) over the
    same `scenario_table`."""
    prophet, denominator = graph.prophet, graph.outcome_unit * graph.scale
    ratio = Fraction(gambler, prophet) if prophet > 0 else Fraction(1)
    return ProphetReport(Fraction(gambler, denominator), Fraction(prophet, denominator), ratio)


def threshold_totals(graph: ProbingGraph) -> dict[int, int]:
    """`score_family`'s gambler total of `threshold_family` at every cut
    (each distinct outcome x over `outcome_unit`, ascending), in one pass.

    A threshold family's maximal sets are single outcomes, so a scenario's
    lightest maximal B_A is its smallest x at or above the cut, or 0: a
    step function of the cut, added into one difference array over the cuts.
    """
    values = graph.outcome_values
    cuts = sorted({x for _, x in values})
    after = {x: i + 1 for i, x in enumerate(cuts)}  # index of the next cut
    steps = [0] * (len(cuts) + 1)
    for weight, observed, _ in graph.full_probes:
        start = previous = 0
        for x in sorted(x for bit, (_, x) in enumerate(values) if observed >> bit & 1):
            # cuts from `start` up to x score x
            steps[start] += weight * (x - previous)
            start, previous = after[x], x
        steps[start] -= weight * previous
    return dict(zip(cuts, itertools.accumulate(steps)))


def evaluate_vs_almighty(
    instance: Instance, family: ExplicitSystem, caps: Caps = Caps()
) -> ProphetReport:
    """Expected forced-greedy value under worst-case per-scenario orderings.

    Each scenario's worst order is scored in closed form (module docstring),
    so no ordering is enumerated and no cap bounds one.
    """
    return score_family(family, scenario_table(instance, caps))


def candidate_pair_sets(
    instance: Instance, caps: Caps = Caps()
) -> list[frozenset[OutcomePair]]:
    """Nonempty inner-feasible sets of realizable (element, x) outcomes: the
    (element, x) projection of the `scenario_table`'s proposals, the gambler
    having no outer constraint.  The rows hold every atom combination of each
    feasible element set in `outcome_set_key` order, so the projections first
    occur sorted by (size, sorted pairs)."""
    rows = scenario_table(instance, caps).proposals
    return list(dict.fromkeys(frozenset((o.element, o.x) for o in t) for t, *_ in rows))


def best_greedy_family(
    instance: Instance, caps: Caps = Caps()
) -> tuple[ExplicitSystem, ProphetReport]:
    """Exhaustive search over downward-closed families of realizable outcomes.

    Returns a family maximizing the almighty-adversary ratio; ties keep the
    first candidate in canonical enumeration order.  The lattice size is
    checked against `caps.family_sets` before any candidate set is built.
    The count's walk (`lattice`) stops past the cap's bit length, so a
    refusal expands O(log cap) element sets; when a set it met extends to
    one it did not, the count is a lower bound ("at least 2^c"); the
    refusal's `reached` is 2^c.
    """
    # len(candidate_pair_sets(instance)) + 1: the walk of the inner test over
    # each element's distinct x values; 2^count > cap without building 2^count
    sizes = [len(x_values(instance, e)) for e in instance.elements]
    feasible = instance.inner.mask_test(instance.elements)
    bits = max(caps.family_sets, 0).bit_length()
    walk = list(lattice(sizes, feasible, bits + 1))
    if (count := walk[-1][3] - 1) >= bits:
        # exact unless a set the walk met extends to one it did not meet
        met = {p | 1 << j for p, _, moves, _ in walk for j, *_ in moves}
        ups = {m | 1 << j for m in met for j in range(len(sizes))} - met
        at_least = "at least " if any(map(feasible, ups)) else ""
        raise CapacityError(
            f"candidate family lattice {at_least}2^{count} exceeds cap {caps.family_sets}",
            "family_sets",
            caps.family_sets,
            2**count,
        )
    candidates = candidate_pair_sets(instance, caps)
    index = {c: i for i, c in enumerate(candidates)}
    # a family is downward closed iff it holds each member less any one pair
    below = [
        sum(1 << index[c - {pair}] for pair in c if len(c) > 1) for c in candidates
    ]

    table = scenario_table(instance, caps)
    best: tuple[ExplicitSystem, ProphetReport] | None = None
    for mask in range(2 ** len(candidates)):
        if any(mask >> i & 1 and mask & sub != sub for i, sub in enumerate(below)):
            continue
        members = [c for i, c in enumerate(candidates) if mask >> i & 1]
        family = greedy_family(members, instance.inner)
        report = score_family(family, table)
        if best is None or report.ratio > best[1].ratio:
            best = (family, report)
    assert best is not None  # the empty family is always enumerated
    return best
