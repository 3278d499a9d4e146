"""The almighty-adversary gambler in Fraction arithmetic: the reference oracle.

This is the scenario table and family scoring that the integer masks on the
compiled free-outer graph replaced, kept in form: the scenarios are the
points of the product support with Fraction probabilities, the prophet value
is a max-weight search per scenario, and each scenario scores the lightest
maximal set B_A of realized outcomes a maximal acceptable set A contains.
"""

from fractions import Fraction

from delegation_lab.instances import enumerate_scenarios
from delegation_lab.prophet import ProphetReport
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
