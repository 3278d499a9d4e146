"""Support canonicalization in Fraction arithmetic: the reference oracle.

This is the `make_instance` that the integer-key pass replaced, kept in
form: each element's atoms are merged in a dict keyed by their (x, y)
Fractions, probabilities summed from Fraction(0), the merged atoms rebuilt
in (x, y) order, and each support's probabilities summed in Fractions
(the check `Instance` made before it compared integer weights).  `outcome`
names one atom's outcome by element id, the lookup the tests build their
expected outcome sets with.
"""

from fractions import Fraction

from delegation_lab.instances import Instance, Outcome, UtilityAtom


def outcome(instance, element, atom_index):
    """The outcome of atom `atom_index` of `element`, found by its id."""
    atom = instance.dist(element)[atom_index]
    return Outcome(element, atom.x, atom.y)


def literal_make_instance(elements, dists, outer, inner):
    supports = []
    for e in elements:
        if e not in dists:
            raise ValueError(f"missing distribution for element {e!r}")
        merged = {}
        for atom in dists[e]:
            key = (atom.x, atom.y)
            merged[key] = merged.get(key, Fraction(0)) + atom.prob
        supports.append(
            tuple(UtilityAtom(x, y, p) for (x, y), p in sorted(merged.items()))
        )
    for e, support in zip(elements, supports):
        total = sum((a.prob for a in support), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities of element {e!r} sum to {total}")
    return Instance(tuple(elements), tuple(supports), outer, inner)
