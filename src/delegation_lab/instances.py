"""Problem instances: finite bivariate utility distributions plus constraints.

An instance couples an ordered list of elements, one finite-support
distribution over (principal utility x, agent utility y) per element, an
outer constraint on the probed set and an inner constraint on the selected
set.  All probabilities and utilities are exact rationals; expectations are
computed by full scenario enumeration.  Atoms and outcomes hash, and
supports are canonicalized and checked, in integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, Caps
from .set_systems import (
    FreeSystem,
    SetSystem,
    UniformSystem,
    iter_feasible_sets,
    set_system_from_json,
    set_system_to_json,
)

# A realization assigns every element the index of its drawn support atom.
Realization = Mapping[str, int]


@dataclass(frozen=True)
class UtilityAtom:
    """One support point (x, y) with its probability."""

    x: Fraction
    y: Fraction
    prob: Fraction

    def __post_init__(self) -> None:
        if self.x.numerator < 0 or self.y.numerator < 0:
            raise ValueError("utilities must be nonnegative")
        if not 0 < self.prob.numerator <= self.prob.denominator:
            raise ValueError("atom probability must lie in (0, 1]")

    def __hash__(self) -> int:
        return hash(tuple(v.as_integer_ratio() for v in (self.x, self.y, self.prob)))


@dataclass(frozen=True)
class Outcome:
    """A probed element together with its realized utility pair."""

    element: str
    x: Fraction
    y: Fraction

    def key(self) -> tuple[str, Fraction, Fraction]:
        return (self.element, self.x, self.y)

    def __hash__(self) -> int:
        return hash((self.element, self.x.as_integer_ratio(), self.y.as_integer_ratio()))


@dataclass(frozen=True)
class Instance:
    elements: tuple[str, ...]
    atoms: tuple[tuple[UtilityAtom, ...], ...]  # aligned with `elements`
    outer: SetSystem
    inner: SetSystem

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("element ids must be unique")
        if len(self.atoms) != len(self.elements):
            raise ValueError("one support per element required")
        ground = frozenset(self.elements)
        if self.outer.ground != ground or self.inner.ground != ground:
            raise ValueError("constraints must live on the instance elements")
        for e, q, weights in zip(self.elements, *self.integer_probs):
            if sum(weights) != q:
                raise ValueError(f"probabilities of element {e!r} sum to {Fraction(sum(weights), q)}")

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """Hashed once: compiled graphs are cached by instance, and hashing
        every atom again would cost each lookup more than its work."""
        return hash((self.elements, self.atoms, self.outer, self.inner))

    @functools.cached_property
    def integer_probs(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Each element's Q_e, the lcm of its probability denominators, and its
        atoms' weights p * Q_e: the one conversion of probabilities to integers."""
        qs = tuple(math.lcm(*(a.prob.denominator for a in s)) for s in self.atoms)
        weights = tuple(
            tuple(a.prob.numerator * (q // a.prob.denominator) for a in s)
            for q, s in zip(qs, self.atoms)
        )
        return qs, weights

    def dist(self, element: str) -> tuple[UtilityAtom, ...]:
        return self.atoms[self.elements.index(element)]


def make_instance(
    elements: Sequence[str],
    dists: Mapping[str, Sequence[UtilityAtom]],
    outer: SetSystem,
    inner: SetSystem,
) -> Instance:
    """Canonicalize supports and build: each element's atoms sorted by their
    integer (x, y) over the lcm of its utility denominators, equal keys merged
    by summing probabilities; an atom that merges with nothing is kept."""
    supports = []
    for e in elements:
        if e not in dists:
            raise ValueError(f"missing distribution for element {e!r}")
        atoms = dists[e]
        unit = math.lcm(*(v.denominator for a in atoms for v in (a.x, a.y)))
        key = lambda a: (a.x.numerator * unit // a.x.denominator, a.y.numerator * unit // a.y.denominator)
        keyed = sorted(zip(map(key, atoms), atoms), key=itemgetter(0))
        support = []
        for _, ((_, atom), *rest) in itertools.groupby(keyed, itemgetter(0)):
            if rest:
                atom = UtilityAtom(atom.x, atom.y, sum((a.prob for _, a in rest), atom.prob))
            support.append(atom)
        supports.append(tuple(support))
    return Instance(tuple(elements), tuple(supports), outer, inner)


def x_values(instance: Instance, element: str) -> list[Fraction]:
    """Distinct principal utilities in the element's support, ascending."""
    return sorted({a.x for a in instance.dist(element)})


def scenario_count(instance: Instance) -> int:
    return math.prod(len(support) for support in instance.atoms)


def check_scenario_cap(instance: Instance, caps: Caps) -> None:
    """Refuse, before anything is enumerated, a product support over the cap."""
    size, cap = scenario_count(instance), caps.scenarios
    if size > cap:
        raise CapacityError(
            f"scenario count {size} exceeds cap {cap}", "scenarios", cap, size
        )


def enumerate_scenarios(
    instance: Instance, caps: Caps = Caps()
) -> list[tuple[Realization, Fraction]]:
    """Every point of the product support with its exact probability."""
    check_scenario_cap(instance, caps)
    scenarios: list[tuple[Realization, Fraction]] = []
    ranges = [range(len(support)) for support in instance.atoms]
    for choice in itertools.product(*ranges):
        prob = Fraction(1)
        for support, i in zip(instance.atoms, choice):
            prob *= support[i].prob
        scenarios.append((dict(zip(instance.elements, choice)), prob))
    return scenarios


def known_elements(
    instance: Instance, ids: Iterable[str], what: str
) -> frozenset[str]:
    """`ids` as a set, rejecting ids that are not instance elements."""
    ids = frozenset(ids)
    extra = ids - frozenset(instance.elements)
    if extra:
        raise ValueError(f"{what} outside instance: {sorted(extra)}")
    return ids


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


def is_inner_feasible_outcome_set(
    instance: Instance, outcome_set: Iterable[Outcome]
) -> bool:
    """Distinct elements, inner-feasible element set, and support membership."""
    outcomes = list(outcome_set)
    elems = [o.element for o in outcomes]
    if len(set(elems)) != len(elems):
        return False
    if not set(elems) <= set(instance.elements):
        return False
    if not instance.inner.is_feasible(elems):
        return False
    for o in outcomes:
        if not any(a.x == o.x and a.y == o.y for a in instance.dist(o.element)):
            return False
    return True


def check_outcome_set(
    instance: Instance, outcome_set: frozenset[Outcome], what: str
) -> None:
    if not is_inner_feasible_outcome_set(instance, outcome_set):
        raise ValueError(
            f"{what} {sorted(o.key() for o in outcome_set)} is not an "
            "inner-feasible set of support outcomes"
        )


def realizable_inner_sets(instance: Instance) -> list[frozenset[Outcome]]:
    """All nonempty inner-feasible sets of realizable outcomes, canonical order:
    the literal walk that `ProbingGraph.proposals` is tested against."""
    per_element = {
        e: [Outcome(e, a.x, a.y) for a in support]
        for e, support in zip(instance.elements, instance.atoms)
    }
    sets: list[frozenset[Outcome]] = []
    for elems in iter_feasible_sets(instance.inner):
        if not elems:
            continue
        ordered = sorted(elems)
        for combo in itertools.product(*(per_element[e] for e in ordered)):
            sets.append(frozenset(combo))
    return sorted(sets, key=outcome_set_key)


def outcome_set_key(outcome_set: Iterable[Outcome]) -> tuple:
    """Canonical, hashable sort key for sets of outcomes."""
    items = tuple(sorted(o.key() for o in outcome_set))
    return (len(items), items)


def outcome_totals(outcome_set: Iterable[Outcome]) -> tuple[Fraction, Fraction]:
    """(agent, principal) totals of an outcome set: sums of y and of x."""
    y = sum((o.y for o in outcome_set), Fraction(0))
    x = sum((o.x for o in outcome_set), Fraction(0))
    return y, x


# --- JSON instance format ---------------------------------------------------


def fraction_from_json(value, what: str) -> Fraction:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], int) or isinstance(value[0], bool)
        or not isinstance(value[1], int) or isinstance(value[1], bool)
    ):
        raise ValueError(f"{what} must be a [numerator, denominator] integer pair")
    num, den = value
    if den <= 0:
        raise ValueError(f"{what} must have a positive denominator")
    return Fraction(num, den)


def fraction_to_json(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def outcome_set_to_json(outcome_set: Iterable[Outcome]) -> list[dict]:
    """Outcomes in canonical order, utilities as [numerator, denominator]."""
    return [
        {
            "element": o.element,
            "x": fraction_to_json(o.x),
            "y": fraction_to_json(o.y),
        }
        for o in sorted(outcome_set, key=Outcome.key)
    ]


def outcome_set_from_json(items) -> frozenset[Outcome]:
    """Strict inverse of `outcome_set_to_json` (policy and menu files)."""
    if not isinstance(items, list):
        raise ValueError("an outcome set must be a list of outcomes")
    outcomes = set()
    for item in items:
        if not isinstance(item, dict) or "element" not in item:
            raise ValueError("outcomes need 'element', 'x' and 'y'")
        if not isinstance(item["element"], str):
            raise ValueError("element ids must be strings")
        outcomes.add(
            Outcome(
                item["element"],
                fraction_from_json(item.get("x"), "x"),
                fraction_from_json(item.get("y"), "y"),
            )
        )
    return frozenset(outcomes)


def load_instance(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for field in ("elements", "outer", "inner"):
        if field not in obj:
            raise ValueError(f"instance is missing the {field!r} field")
    raw_elements = obj["elements"]
    if not isinstance(raw_elements, list):
        raise ValueError("'elements' must be a list")
    ids: list[str] = []
    dists: dict[str, list[UtilityAtom]] = {}
    for entry in raw_elements:
        if not isinstance(entry, dict) or "id" not in entry or "support" not in entry:
            raise ValueError("each element needs 'id' and 'support'")
        eid = entry["id"]
        if not isinstance(eid, str):
            raise ValueError("element ids must be strings")
        support = entry["support"]
        if not isinstance(support, list) or not support:
            raise ValueError(f"element {eid!r} needs a nonempty support list")
        atoms = []
        for item in support:
            if not isinstance(item, dict):
                raise ValueError("support atoms must be objects")
            atoms.append(
                UtilityAtom(
                    x=fraction_from_json(item.get("x"), "x"),
                    y=fraction_from_json(item.get("y"), "y"),
                    prob=fraction_from_json(item.get("p"), "p"),
                )
            )
        ids.append(eid)
        dists[eid] = atoms
    outer = set_system_from_json(obj["outer"], ids)
    inner = set_system_from_json(obj["inner"], ids)
    return make_instance(ids, dists, outer, inner)


def instance_to_json(instance: Instance) -> dict:
    return {
        "elements": [
            {
                "id": e,
                "support": [
                    {
                        "x": fraction_to_json(a.x),
                        "y": fraction_to_json(a.y),
                        "p": fraction_to_json(a.prob),
                    }
                    for a in support
                ],
            }
            for e, support in zip(instance.elements, instance.atoms)
        ],
        "outer": set_system_to_json(instance.outer),
        "inner": set_system_to_json(instance.inner),
    }


# --- Built-in instances -----------------------------------------------------


def _check_eps(eps: Fraction) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return eps


def _pick_one_of_two(dists: Mapping[str, Sequence[UtilityAtom]]) -> Instance:
    """Elements "1" and "2", free outer constraint, 1-uniform inner."""
    ground = ("1", "2")
    return make_instance(
        ground, dists, FreeSystem(frozenset(ground)), UniformSystem(frozenset(ground), 1)
    )


def _jackpot(eps: Fraction, jackpot_y: Fraction) -> Instance:
    """Element "1" pays x = 1/eps with probability eps; element "2" pays 1."""
    return _pick_one_of_two(
        {
            "1": [
                UtilityAtom(Fraction(0), Fraction(0), 1 - eps),
                UtilityAtom(1 / eps, jackpot_y, eps),
            ],
            "2": [UtilityAtom(Fraction(1), Fraction(1), Fraction(1))],
        }
    )


def table1(eps: Fraction) -> Instance:
    """Two elements, 1-uniform inner, free outer; agent likes the jackpot."""
    eps = _check_eps(eps)
    return _jackpot(eps, 1 - eps)


def table2(eps: Fraction) -> Instance:
    """Like table1 but the agent is indifferent to the jackpot outcome."""
    return _jackpot(_check_eps(eps), Fraction(0))


def coins2() -> Instance:
    """Two i.i.d. fair coins worth 0 or 1 to both parties; pick at most one."""
    atom0 = UtilityAtom(Fraction(0), Fraction(0), Fraction(1, 2))
    atom1 = UtilityAtom(Fraction(1), Fraction(1), Fraction(1, 2))
    return _pick_one_of_two({"1": [atom0, atom1], "2": [atom0, atom1]})


BUILTIN_NAMES = ("table1", "table2", "coins2")
_TABLES = {"table1": table1, "table2": table2}


def builtin_instance(name: str, eps: Fraction | None = None) -> Instance:
    if name in _TABLES:
        if eps is None:
            raise ValueError(f"{name} needs an epsilon")
        return _TABLES[name](eps)
    if name == "coins2":
        if eps is not None:
            raise ValueError("coins2 takes no epsilon")
        return coins2()
    raise ValueError(f"unknown builtin instance {name!r}")
