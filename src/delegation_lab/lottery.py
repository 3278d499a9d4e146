"""Randomized single-proposal mechanisms: menus of lotteries over outcome sets.

The agent proposes one lottery from the menu; the principal samples an
outcome set from it.  Mass on sets that were not fully probed pays zero to
both parties rather than erroring, so stale menu entries are harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import UnsupportedError
from .instances import (
    Instance,
    Outcome,
    check_outcome_set,
    fraction_from_json,
    fraction_to_json,
    outcome_set_from_json,
    outcome_set_key,
    outcome_set_to_json,
    outcome_totals,
)
from .delegation import (
    DP_STATE_CAP,
    Policy,
    PolicyEvaluation,
    TieBreak,
    evaluate_stop_values,
    materialize_policy,
)
from .probing import ValuePair, optimal_adaptive_value, prefer
from .prophet import _is_one_uniform

LotteryAtom = tuple[frozenset[Outcome], Fraction]


@dataclass(frozen=True)
class Lottery:
    """Distribution over outcome sets (the empty set is allowed support)."""

    atoms: tuple[LotteryAtom, ...]

    def __post_init__(self) -> None:
        total = sum((p for _, p in self.atoms), Fraction(0))
        if total != 1:
            raise ValueError(f"lottery probabilities sum to {total}, not 1")
        if any(p <= 0 for _, p in self.atoms):
            raise ValueError("lottery atoms must carry positive probability")
        supports = [s for s, _ in self.atoms]
        if len(set(supports)) != len(supports):
            raise ValueError("duplicate outcome set within one lottery")

    def support(self) -> frozenset[frozenset[Outcome]]:
        return frozenset(s for s, _ in self.atoms)

    def expected_values(self, probed: frozenset[Outcome]) -> ValuePair:
        """(agent, principal) expectation; unprobed sets contribute zero."""
        agent = Fraction(0)
        principal = Fraction(0)
        for outcome_set, p in self.atoms:
            if outcome_set <= probed:
                y, x = outcome_totals(outcome_set)
                agent += p * y
                principal += p * x
        return agent, principal

    def key(self) -> tuple:
        return tuple(
            (outcome_set_key(s), p)
            for s, p in sorted(
                self.atoms, key=lambda a: outcome_set_key(a[0])
            )
        )


def lottery(atoms: Iterable[tuple[Iterable[Outcome], Fraction]]) -> Lottery:
    """Canonicalize: merge duplicate sets, drop zero mass, sort atoms."""
    merged: dict[frozenset[Outcome], Fraction] = {}
    for outcome_set, p in atoms:
        s = frozenset(outcome_set)
        merged[s] = merged.get(s, Fraction(0)) + Fraction(p)
    cleaned = [(s, p) for s, p in merged.items() if p != 0]
    cleaned.sort(key=lambda a: outcome_set_key(a[0]))
    return Lottery(tuple(cleaned))


@dataclass(frozen=True)
class LotteryMenu:
    lotteries: tuple[Lottery, ...]

    def __post_init__(self) -> None:
        supports = [l.support() for l in self.lotteries]
        if len(set(supports)) != len(supports):
            raise ValueError("menu declares two lotteries with the same support")


def lottery_menu(lotteries: Iterable[Lottery]) -> LotteryMenu:
    """Canonicalize: drop exact duplicates, keep first occurrence order."""
    seen = set()
    kept = []
    for l in lotteries:
        if l.key() in seen:
            continue
        seen.add(l.key())
        kept.append(l)
    return LotteryMenu(tuple(kept))


def validate_menu(instance: Instance, menu: LotteryMenu) -> None:
    for l in menu.lotteries:
        for outcome_set, _ in l.atoms:
            if outcome_set:
                check_outcome_set(instance, outcome_set, "lottery support")


def agent_lottery_choice(
    menu: LotteryMenu,
    probed: frozenset[Outcome],
    mode: TieBreak = TieBreak.ADVERSARIAL,
) -> tuple[Lottery | None, ValuePair]:
    """The agent's expected-y maximizing lottery, or None (worth zero), and
    its (agent, principal) expected values.

    None competes as a zero-value candidate; ties follow the mode on the
    principal's expectation, then menu order with None first.
    """
    best: Lottery | None = None
    best_pair = (Fraction(0), Fraction(0))
    for l in menu.lotteries:
        pair = l.expected_values(probed)
        if prefer(pair, best_pair, mode):
            best, best_pair = l, pair
    return best, best_pair


def evaluate_lottery_menu(
    instance: Instance,
    menu: LotteryMenu,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    state_cap: int = DP_STATE_CAP,
    benchmark: Fraction | None = None,
) -> PolicyEvaluation:
    """Exact menu value against an adaptively probing, best-responding agent."""
    validate_menu(instance, menu)

    def stop_values(outcomes: frozenset[Outcome]) -> ValuePair:
        return agent_lottery_choice(menu, outcomes, mode)[1]

    return evaluate_stop_values(instance, stop_values, mode, state_cap, benchmark)


def menu_from_policy(instance: Instance, policy: Policy) -> LotteryMenu:
    """Point-mass embedding of a deterministic policy as a lottery menu."""
    return lottery_menu(
        lottery([(member, Fraction(1))])
        for member in sorted(
            materialize_policy(instance, policy), key=outcome_set_key
        )
    )


def _grid_points(step: Fraction) -> list[Fraction]:
    step = Fraction(step)
    if not 0 < step <= 1:
        raise ValueError("grid step must lie in (0, 1]")
    if (1 / step).denominator != 1:
        raise ValueError("grid step must divide 1 exactly")
    n = int(1 / step)
    return [Fraction(i) * step for i in range(n + 1)]


def search_two_lottery_menus(
    instance: Instance,
    grid: Fraction,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    state_cap: int = DP_STATE_CAP,
    benchmark: Fraction | None = None,
) -> tuple[LotteryMenu, PolicyEvaluation]:
    """Grid search over two-lottery menus for two-element pick-one instances.

    The instance must have one element with at most two support atoms (the
    risky one) and one deterministic element.  Lottery A mixes the risky
    element's low outcome with the deterministic outcome, lottery B its
    high outcome with the deterministic outcome; mixture weights run over
    the grid.  Grid points whose two lotteries would share a support are
    skipped unless they coincide, in which case the menu collapses to one
    lottery.  `benchmark` is the adaptive optimum, if already known.
    """
    if len(instance.elements) != 2:
        raise UnsupportedError("two-lottery search needs exactly two elements")
    if not _is_one_uniform(instance.inner):
        raise UnsupportedError("two-lottery search needs a 1-uniform inner constraint")
    sizes = [len(instance.dist(e)) for e in instance.elements]
    if max(sizes) > 2 or min(sizes) > 1:
        raise UnsupportedError(
            "two-lottery search needs one deterministic element and one with "
            "at most two outcomes"
        )
    if sizes[1] == 1:
        risky, certain = instance.elements
    else:
        certain, risky = instance.elements
    risky_atoms = sorted(instance.dist(risky), key=lambda a: (a.x, a.y))
    low = Outcome(risky, risky_atoms[0].x, risky_atoms[0].y)
    high = Outcome(risky, risky_atoms[-1].x, risky_atoms[-1].y)
    certain_atom = instance.dist(certain)[0]
    anchor = Outcome(certain, certain_atom.x, certain_atom.y)

    if benchmark is None:
        benchmark = optimal_adaptive_value(instance, state_cap).expected_value
    points = _grid_points(grid)
    best: tuple[LotteryMenu, PolicyEvaluation] | None = None
    for a in points:
        lot_a = lottery([({anchor}, a), ({low}, 1 - a)])
        for b in points:
            lot_b = lottery([({anchor}, b), ({high}, 1 - b)])
            if lot_a.key() == lot_b.key():
                menu = lottery_menu([lot_a])
            elif lot_a.support() == lot_b.support():
                continue
            else:
                menu = lottery_menu([lot_a, lot_b])
            evaluation = evaluate_lottery_menu(
                instance, menu, mode, state_cap, benchmark
            )
            if best is None or evaluation.principal_value > best[1].principal_value:
                best = (menu, evaluation)
    assert best is not None
    return best


# --- Menu JSON format ---------------------------------------------------------


def menu_to_json(menu: LotteryMenu) -> dict:
    return {
        "lotteries": [
            {
                "atoms": [
                    {"set": outcome_set_to_json(s), "p": fraction_to_json(p)}
                    for s, p in l.atoms
                ]
            }
            for l in menu.lotteries
        ]
    }


def menu_from_json(obj: dict) -> LotteryMenu:
    if not isinstance(obj, dict) or not isinstance(obj.get("lotteries"), list):
        raise ValueError("menu must be an object with a 'lotteries' list")
    lotteries = []
    for entry in obj["lotteries"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("atoms"), list):
            raise ValueError("each lottery needs an 'atoms' list")
        atoms = []
        for item in entry["atoms"]:
            if not isinstance(item, dict):
                raise ValueError("each atom needs a 'set' list and probability 'p'")
            outcomes = outcome_set_from_json(item.get("set"))
            atoms.append((outcomes, fraction_from_json(item.get("p"), "p")))
        lotteries.append(lottery(atoms))
    return lottery_menu(lotteries)
