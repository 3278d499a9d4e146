"""The almighty-adversary gambler in Fraction arithmetic: the reference oracle.

This is the scenario table and family scoring that the integer masks on the
compiled free-outer graph replaced, kept in form: the scenarios are the
points of the product support with Fraction probabilities, the prophet value
is a max-weight search per scenario, and each scenario scores the lightest
maximal set B_A of realized outcomes a maximal acceptable set A contains.
Beside it are the median of the maximum in Fractions and the tuned
threshold's per-cut loop, which the integer sweeps replaced.
"""

from fractions import Fraction

from delegation_lab.delegation import policy_from_greedy
from delegation_lab.errors import UnsupportedError
from delegation_lab.instances import enumerate_scenarios
from delegation_lab.prophet import ProphetReport, _is_one_uniform, threshold_family
from delegation_lab.set_systems import _antichain, max_weight_feasible


def literal_worst_order_value(family, realized):
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


def literal_scenario_table(instance):
    """Every scenario's (probability, values) and the prophet value."""
    table = []
    prophet = Fraction(0)
    for realization, prob in enumerate_scenarios(instance):
        realized = {e: instance.dist(e)[realization[e]].x for e in instance.elements}
        table.append((prob, realized))
        prophet += prob * max_weight_feasible(instance.inner, realized)[1]
    return table, prophet


def literal_score_family(family, table, prophet):
    """Expected forced-greedy value of `family` under worst-case orderings."""
    gambler = sum(
        (prob * literal_worst_order_value(family, realized) for prob, realized in table),
        Fraction(0),
    )
    ratio = gambler / prophet if prophet > 0 else Fraction(1)
    return ProphetReport(gambler, prophet, ratio)


def literal_vs_almighty(instance, family):
    return literal_score_family(family, *literal_scenario_table(instance))


def literal_samuel_cahn_threshold(instance):
    """Smallest support value m of max_e X_e with P[max >= m] >= 1/2 and
    P[max <= m] >= 1/2, from Fraction marginals rescanned at every value."""
    if not _is_one_uniform(instance.inner):
        raise UnsupportedError("median threshold needs a 1-uniform inner constraint")
    if not instance.elements:
        raise UnsupportedError("median threshold needs at least one element")
    marginals = []
    for e in instance.elements:
        mass = {}
        for atom in instance.dist(e):
            mass[atom.x] = mass.get(atom.x, Fraction(0)) + atom.prob
        marginals.append(mass)
    values = sorted({x for mass in marginals for x in mass})
    below = Fraction(0)  # P[max < v], maintained across the sweep
    for v in values:
        at_most = Fraction(1)
        for mass in marginals:
            at_most *= sum((p for x, p in mass.items() if x <= v), Fraction(0))
        if at_most == below:
            continue  # v is not in the support of the maximum
        if 1 - below >= Fraction(1, 2) and at_most >= Fraction(1, 2):
            return v
        below = at_most
    raise AssertionError("a median of the maximum always exists")


def literal_threshold_policy(instance):
    """The tuned threshold policy, one family built and scored per cut: the
    median, then every other realizable x ascending; the largest gambler
    value wins, ties to the earlier cut."""
    median = literal_samuel_cahn_threshold(instance)
    cuts = [median] + sorted(
        {a.x for support in instance.atoms for a in support} - {median}
    )
    table, prophet = literal_scenario_table(instance)
    best = None
    for cut in cuts:
        family = threshold_family(instance, cut)
        report = literal_score_family(family, table, prophet)
        if best is None or report.gambler_value > best[2].gambler_value:
            best = (cut, family, report)
    cut, family, report = best
    return policy_from_greedy(family), cut, report
