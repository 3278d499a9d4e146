"""The from-scratch oracle: the reference for `exact_delegation_gap`.

Every subset of `realizable_inner_sets` becomes an `ExplicitPolicy` and is
evaluated on its own by `evaluate_policy`; the first strictly best wins.
"""

from delegation_lab.delegation import ExplicitPolicy, evaluate_policy
from delegation_lab.instances import realizable_inner_sets


def literal_gap(instance, mode):
    """(best policy, alpha*, policies enumerated) over every candidate subset."""
    candidates = realizable_inner_sets(instance)
    best_policy = best = None
    for mask in range(2 ** len(candidates)):
        policy = ExplicitPolicy(
            frozenset(c for i, c in enumerate(candidates) if mask >> i & 1)
        )
        evaluation = evaluate_policy(instance, policy, mode)
        if best is None or evaluation.alpha > best.alpha:
            best_policy, best = policy, evaluation
    return best_policy, best.alpha, 2 ** len(candidates)
