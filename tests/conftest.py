import tempfile
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from delegation_lab.instances import UtilityAtom, make_instance
from delegation_lab.set_systems import FreeSystem, UniformSystem

# Tier-1 is a fixed-seed run: every property test draws the same examples
# each time, and no example database is written.  Hypothesis still caches
# the constants it reads from source files; that cache goes to a temporary
# directory removed at exit, so a run leaves no .hypothesis/ behind.
settings.register_profile("fixed-seed", derandomize=True, database=None)
settings.load_profile("fixed-seed")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def frac(num, den=1):
    return Fraction(num, den)


def one_uniform_instance(dists):
    """Free outer, 1-uniform inner instance from {id: [(x, y, p), ...]}."""
    elements = list(dists)
    ground = frozenset(elements)
    atoms = {
        e: [UtilityAtom(Fraction(x), Fraction(y), Fraction(p)) for x, y, p in rows]
        for e, rows in dists.items()
    }
    return make_instance(
        elements, atoms, FreeSystem(ground), UniformSystem(ground, 1)
    )


@pytest.fixture
def risky_pair():
    """Deterministic x=1 element vs a 0-or-3 coin; agent prefers the coin."""
    return one_uniform_instance(
        {
            "d": [(1, 1, 1)],
            "r": [(0, Fraction(1, 2), Fraction(1, 2)), (3, 2, Fraction(1, 2))],
        }
    )
