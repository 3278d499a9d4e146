"""Randomized single-proposal mechanisms: menus of lotteries over outcome sets.

The agent proposes one lottery from the menu; the principal samples an
outcome set from it.  Mass on sets that were not fully probed pays zero to
both parties rather than erroring, so stale menu entries are harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CapacityError, Caps, UnsupportedError
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
from .delegation import Offer, PolicyEvaluation, agent_probe_values, offer_value
from .probing import (
    Lanes,
    ProbingGraph,
    TieBreak,
    ValuePair,
    probing_graph,
    probing_pass,
    rank_offers,
)
from .prophet import _is_one_uniform

LotteryAtom = tuple[frozenset[Outcome], Fraction]


@dataclass(frozen=True)
class Lottery:
    """Distribution over outcome sets (the empty set is allowed support), its
    atoms kept in `outcome_set_key` order: the same atoms, an equal lottery."""

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
        atoms = tuple(sorted(self.atoms, key=lambda a: outcome_set_key(a[0])))
        object.__setattr__(self, "atoms", atoms)

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


def lottery(atoms: Iterable[tuple[Iterable[Outcome], Fraction]]) -> Lottery:
    """Merge duplicate sets and drop zero mass (`Lottery` sorts the atoms)."""
    merged: dict[frozenset[Outcome], Fraction] = {}
    for outcome_set, p in atoms:
        s = frozenset(outcome_set)
        merged[s] = merged.get(s, Fraction(0)) + Fraction(p)
    return Lottery(tuple((s, p) for s, p in merged.items() if p != 0))


@dataclass(frozen=True)
class LotteryMenu:
    lotteries: tuple[Lottery, ...]

    def __post_init__(self) -> None:
        supports = [l.support() for l in self.lotteries]
        if len(set(supports)) != len(supports):
            raise ValueError("menu declares two lotteries with the same support")


def lottery_menu(lotteries: Iterable[Lottery]) -> LotteryMenu:
    """Drop equal lotteries, keeping first occurrence order."""
    return LotteryMenu(tuple(dict.fromkeys(lotteries)))


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
    pairs = [l.expected_values(probed) for l in menu.lotteries]
    ranked = rank_offers(pairs, mode)
    if not ranked:
        return None, (Fraction(0), Fraction(0))
    return menu.lotteries[ranked[0]], pairs[ranked[0]]


def menu_offers(graph: ProbingGraph, menu: LotteryMenu) -> tuple[list[Offer], int]:
    """`menu` compiled once into offers on `graph`, and their unit.

    Each lottery becomes one offer of (outcome mask, p * y, p * x) triples
    over `graph.outcome_bits`; unit = lcd(outcome utilities) * lcd(menu
    probabilities).  The compile is the menu's validation: every atom set
    passes `check_outcome_set` before its bits are read.
    """
    p_unit = math.lcm(*(p.denominator for l in menu.lotteries for _, p in l.atoms))
    offers = []
    for l in menu.lotteries:
        atoms = []
        for outcome_set, p in l.atoms:
            check_outcome_set(graph.instance, outcome_set, "lottery support")
            mask = sum(1 << graph.outcome_bits[o] for o in outcome_set)
            y, x = graph.mask_values(mask)
            weight = p.numerator * (p_unit // p.denominator)
            atoms.append((mask, weight * y, weight * x))
        offers.append(atoms)
    return offers, graph.outcome_unit * p_unit


def evaluate_lottery_menu(
    instance: Instance,
    menu: LotteryMenu,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    caps: Caps = Caps(),
) -> PolicyEvaluation:
    """Exact menu value against an adaptively probing, best-responding agent.

    The menu is compiled once; no lottery is rescored per state.
    """
    graph = probing_graph(instance, caps.dp_states)
    return agent_probe_values(graph, *menu_offers(graph, menu), mode)


def _grid_steps(step: Fraction) -> int:
    """The n of a grid step 1/n; any other step is refused."""
    step = Fraction(step)
    if not 0 < step <= 1:
        raise ValueError("grid step must lie in (0, 1]")
    if step.numerator != 1:
        raise ValueError("grid step must divide 1 exactly")
    return step.denominator


def search_two_lottery_menus(
    instance: Instance,
    grid: Fraction,
    mode: TieBreak = TieBreak.ADVERSARIAL,
    caps: Caps = Caps(),
) -> tuple[LotteryMenu, PolicyEvaluation]:
    """Grid search over two-lottery menus for two-element pick-one instances.

    The instance must have one element with at most two support atoms (the
    risky one) and one deterministic element.  Lottery A mixes the risky
    element's low outcome with the deterministic outcome, lottery B its
    high outcome with the deterministic outcome; mixture weights run over
    the grid, and a menu whose two lotteries coincide collapses to one
    lottery.  One compile per search: each grid lottery is one integer offer
    over `outcome_unit` * n (n = 1 / grid), valued at every state once by
    `offer_value`, and lane i * (n + 1) + j of one `probing_pass` solves the
    menu (A_i, B_j).  The first lane with the largest root principal
    (`Lanes.best`) wins; only its menu is built, with weights i / n and
    j / n on the anchor, and it is evaluated from its compiled offers.
    The pass holds (n + 1)^2 lanes at each state of the graph; past
    `caps.dp_states` lane states the search refuses before any is built.
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

    n = _grid_steps(grid)
    graph = probing_graph(instance, caps.dp_states)
    scale, m, cap = graph.scale, n + 1, caps.dp_states
    if (states := m * m * len(graph)) > cap:
        text = f"two-lottery grid of {m * m} menus needs {states} lane states, past cap {cap}"
        raise CapacityError(text, "dp_states", cap, states)
    bits, table = graph.outcome_bits, graph.outcome_values
    # A_i at i, B_j at n + 1 + j: i / n on the anchor, the rest on low or high,
    # as (bit, weight) atoms less zero weights; equal sets mean equal keys
    anchor_bit = bits[anchor]
    atom_sets = [
        frozenset((b, w) for b, w in ((anchor_bit, i), (other, n - i)) if w)
        for other in (bits[low], bits[high])
        for i in range(n + 1)
    ]
    offers = [[(1 << b, w * table[b][0], w * table[b][1]) for b, w in a] for a in atom_sets]
    rows = [[offer_value(atoms, observed) for atoms in offers] for observed in graph.masks]
    bound = max(p for row in rows for _, p in row)
    agent_top = max(a for row in rows for a, _ in row) * scale
    lanes = Lanes(mode, bound, scale, agent_top, m * m)
    empty = lanes.pack([(0, 0)])[0] * lanes.one
    stops = []
    for row in rows:
        keys = [k.to_bytes(lanes.size, "little") for k in lanes.pack(row)]
        # A_i fills lanes i * m to i * m + n; the B column repeats m times
        a = int.from_bytes(b"".join(key * m for key in keys[:m]), "little")
        b = int.from_bytes(b"".join(keys[m:]) * m, "little")
        stops.append(lanes.merge(b, lanes.merge(a, empty)))
    roots, _ = probing_pass(graph, stops, lanes)
    i, j = divmod(lanes.best(roots, scale)[1], m)
    lot_a = lottery([({anchor}, Fraction(i, n)), ({low}, Fraction(n - i, n))])
    lot_b = lottery([({anchor}, Fraction(j, n)), ({high}, Fraction(n - j, n))])
    if atom_sets[i] == atom_sets[m + j]:
        menu, chosen = LotteryMenu((lot_a,)), [offers[i]]
    else:
        menu, chosen = LotteryMenu((lot_a, lot_b)), [offers[i], offers[m + j]]
    return menu, agent_probe_values(graph, chosen, graph.outcome_unit * n, mode)


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
