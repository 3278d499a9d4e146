"""Exact adaptive probing: one dynamic program for every prober.

`solve_probing` runs a dynamic program over probing states (probed element
set, observed support atoms) whose stop rule values each state.  The
non-delegated benchmark `optimal_adaptive_value` stops with (u, u), u the
best inner-feasible observed total; the delegated agent stops with its
proposal (`delegation`, `lottery`).  `best_nonadaptive_set` exhaustively
scores every outer-feasible probe set; the ratio of the two is the measured
adaptivity gap for the instance.
"""

from __future__ import annotations

import enum
import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import CapacityError
from .instances import (
    SCENARIO_CAP,
    Instance,
    Realization,
    check_scenario_cap,
    known_elements,
)
from .set_systems import iter_feasible_sets, max_weight_feasible

DP_STATE_CAP = 10**6
OUTER_SET_CAP = 10**5

# A DP state is the sorted tuple of probed elements plus, aligned with it,
# the tuple of observed atom indices.
StateKey = tuple[tuple[str, ...], tuple[int, ...]]
ROOT_STATE: StateKey = ((), ())
# An (agent value, principal value) pair.
ValuePair = tuple[Fraction, Fraction]


class TieBreak(str, enum.Enum):
    ADVERSARIAL = "adversarial"
    PRINCIPAL_FAVORING = "principal_favoring"
    LEXICOGRAPHIC = "lexicographic"


@dataclass(frozen=True)
class AdaptiveValueReport:
    expected_value: Fraction
    optimal_first_probes: Mapping[StateKey, str | None]
    state_count: int


@dataclass(frozen=True)
class NonAdaptiveReport:
    best_set: frozenset[str]
    expected_value: Fraction
    ratio_to_adaptive: Fraction


def prefer(candidate: ValuePair, incumbent: ValuePair, mode: TieBreak) -> bool:
    """Whether (agent, principal) value pair `candidate` beats `incumbent`."""
    if candidate[0] != incumbent[0]:
        return candidate[0] > incumbent[0]
    if mode is TieBreak.ADVERSARIAL:
        return candidate[1] < incumbent[1]
    if mode is TieBreak.PRINCIPAL_FAVORING:
        return candidate[1] > incumbent[1]
    return False  # lexicographic: first candidate in canonical order wins


def _observed_value(
    instance: Instance, observed: Iterable[tuple[str, int]]
) -> Fraction:
    """Best inner-feasible total x over observed (element, atom index) pairs."""
    weights = {e: Fraction(0) for e in instance.elements}
    for e, i in observed:
        weights[e] = instance.dist(e)[i].x
    return max_weight_feasible(instance.inner, weights)[1]


def utility_u(
    instance: Instance, realization: Realization, probed: Iterable[str]
) -> Fraction:
    """Best inner-feasible total x among the probed elements."""
    probed = known_elements(instance, probed, "probed elements")
    return _observed_value(instance, ((e, realization[e]) for e in probed))


def _with_probe(state: StateKey, element: str, atom_index: int) -> StateKey:
    probed, atoms = state
    items = sorted(zip(probed, atoms))
    insort(items, (element, atom_index))
    return tuple(e for e, _ in items), tuple(i for _, i in items)


def solve_probing(
    instance: Instance,
    stop_rule: Callable[[StateKey], ValuePair],
    mode: TieBreak,
    state_cap: int = DP_STATE_CAP,
) -> tuple[ValuePair, Mapping[StateKey, str | None]]:
    """Root (agent, principal) value and each state's action (None: stop).

    V(state) = the `prefer`-best of `stop_rule(state)` and the expected
    successor value of each outer-feasible next probe; open ties go to
    stopping, then to the earliest element.
    """
    values: dict[StateKey, ValuePair] = {}
    actions: dict[StateKey, str | None] = {}

    def visit(state: StateKey) -> ValuePair:
        if state in values:
            return values[state]
        if len(values) >= state_cap:
            raise CapacityError(f"probing DP exceeded {state_cap} states")
        probed = frozenset(state[0])
        best = stop_rule(state)
        action: str | None = None
        for e in instance.elements:
            if e in probed:
                continue
            if not instance.outer.is_feasible(probed | {e}):
                continue
            agent_total = Fraction(0)
            principal_total = Fraction(0)
            for i, atom in enumerate(instance.dist(e)):
                sub = visit(_with_probe(state, e, i))
                agent_total += atom.prob * sub[0]
                principal_total += atom.prob * sub[1]
            pair = (agent_total, principal_total)
            if prefer(pair, best, mode):
                best = pair
                action = e
        values[state] = best
        actions[state] = action
        return best

    return visit(ROOT_STATE), actions


def optimal_adaptive_value(
    instance: Instance, state_cap: int = DP_STATE_CAP
) -> AdaptiveValueReport:
    """Exact value of the optimal adaptive non-delegated probing strategy.

    V(state) = max(u(observed), max over feasible next probes of the
    expected successor value): `solve_probing` with stop value (u, u).
    """

    def stop_rule(state: StateKey) -> ValuePair:
        u = _observed_value(instance, zip(*state))
        return u, u

    (value, _), actions = solve_probing(
        instance, stop_rule, TieBreak.LEXICOGRAPHIC, state_cap
    )
    return AdaptiveValueReport(value, actions, len(actions))


def nonadaptive_value(instance: Instance, probe_set: Iterable[str]) -> Fraction:
    """Expected u over the product support of a fixed probe set."""
    probe = sorted(known_elements(instance, probe_set, "probe set"))
    supports = [instance.dist(e) for e in probe]
    total = Fraction(0)
    for choice in itertools.product(*(range(len(s)) for s in supports)):
        prob = Fraction(1)
        for support, i in zip(supports, choice):
            prob *= support[i].prob
        total += prob * _observed_value(instance, zip(probe, choice))
    return total


def best_nonadaptive_set(
    instance: Instance,
    set_cap: int = OUTER_SET_CAP,
    state_cap: int = DP_STATE_CAP,
    benchmark: Fraction | None = None,
    scenario_cap: int = SCENARIO_CAP,
) -> NonAdaptiveReport:
    """Exhaustive best fixed probe set and its ratio to the adaptive optimum.

    Ties prefer larger sets (probing more never hurts), then the smallest
    sorted id tuple.  `benchmark` is the adaptive optimum, if known.  No
    probe set's product support exceeds the instance's scenario count,
    which is checked against `scenario_cap` first.
    """
    check_scenario_cap(instance, scenario_cap)
    best_set: frozenset[str] | None = None
    best_value = Fraction(-1)
    count = 0
    for candidate in iter_feasible_sets(instance.outer):
        count += 1
        if count > set_cap:
            raise CapacityError(f"outer-feasible set count exceeds cap {set_cap}")
        value = nonadaptive_value(instance, candidate)
        if best_set is None:
            best_set, best_value = candidate, value
            continue
        if value > best_value:
            best_set, best_value = candidate, value
        elif value == best_value:
            if (-len(candidate), tuple(sorted(candidate))) < (
                -len(best_set),
                tuple(sorted(best_set)),
            ):
                best_set = candidate
    assert best_set is not None  # the empty set is always feasible
    if benchmark is None:
        benchmark = optimal_adaptive_value(instance, state_cap).expected_value
    ratio = best_value / benchmark if benchmark > 0 else Fraction(1)
    return NonAdaptiveReport(best_set, best_value, ratio)
