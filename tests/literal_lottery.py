"""The literal two-lottery grid search: the reference for the compiled one.

This is the per-menu loop that `lottery.search_two_lottery_menus` replaced,
kept in form: every grid menu is built from `Lottery` objects with
`lottery()`, collapsed or skipped by `Lottery` equality and `support()`,
evaluated from scratch by `evaluate_lottery_menu`, and the first strict
best principal value wins.
"""

from fractions import Fraction

from delegation_lab.delegation import TieBreak
from delegation_lab.errors import Caps
from delegation_lab.instances import Outcome
from delegation_lab.lottery import (
    LotteryMenu,
    _grid_steps,
    evaluate_lottery_menu,
    lottery,
)


def literal_search(instance, grid, mode=TieBreak.ADVERSARIAL, caps=Caps()):
    """(menu, evaluation) of the first best grid menu, shape already checked."""
    sizes = [len(instance.dist(e)) for e in instance.elements]
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
    points = [Fraction(i, n) for i in range(n + 1)]
    best = None
    high_lotteries = [lottery([({anchor}, b), ({high}, 1 - b)]) for b in points]
    for a in points:
        lot_a = lottery([({anchor}, a), ({low}, 1 - a)])
        for lot_b in high_lotteries:
            if lot_a == lot_b:
                menu = LotteryMenu((lot_a,))
            elif lot_a.support() == lot_b.support():
                continue
            else:
                menu = LotteryMenu((lot_a, lot_b))
            evaluation = evaluate_lottery_menu(instance, menu, mode, caps)
            if best is None or evaluation.principal_value > best[1].principal_value:
                best = (menu, evaluation)
    assert best is not None
    return best
