"""The literal probing DP in Fraction arithmetic: the reference oracle.

This is the recursive state-key DP that the compiled integer graph
replaced, kept verbatim in form: states are (sorted probed ids, aligned atom
indices), each successor key is rebuilt by insertion, values are Fractions,
and the probe distribution is a recursive walk of the chosen actions.
"""

from bisect import insort
from fractions import Fraction

from delegation_lab.probing import prefer

from literal_instances import outcome

ROOT_STATE = ((), ())


def with_probe(state, element, atom_index):
    probed, atoms = state
    items = sorted(zip(probed, atoms))
    insort(items, (element, atom_index))
    return tuple(e for e, _ in items), tuple(i for _, i in items)


def literal_solve(instance, stop_rule, mode):
    """Root (agent, principal) value and each state's action (None: stop).

    `stop_rule` maps a state key to its (agent, principal) stop value.
    """
    values = {}
    actions = {}

    def visit(state):
        if state in values:
            return values[state]
        probed = frozenset(state[0])
        best = stop_rule(state)
        action = None
        for e in instance.elements:
            if e in probed:
                continue
            if not instance.outer.is_feasible(probed | {e}):
                continue
            agent_total = Fraction(0)
            principal_total = Fraction(0)
            for i, atom in enumerate(instance.dist(e)):
                sub = visit(with_probe(state, e, i))
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


def literal_distribution(instance, actions):
    """The probed set at stopping, walked recursively through `actions`."""
    distribution = {}

    def walk(state, prob):
        action = actions[state]
        if action is None:
            probed = frozenset(state[0])
            distribution[probed] = distribution.get(probed, Fraction(0)) + prob
            return
        for i, atom in enumerate(instance.dist(action)):
            walk(with_probe(state, action, i), prob * atom.prob)

    walk(ROOT_STATE, Fraction(1))
    return distribution


def outcomes_at(instance, state):
    return frozenset(outcome(instance, e, i) for e, i in zip(*state))



def state_moves(graph):
    """Each compiled state's moves as (element index, the successor of each
    atom), read off `graph.set_blocks`: from the state at offset o of its
    block, atom i of a move (j, first, stride, gap) leads to state
    first + o + (o // stride) * gap + i * stride.  With `state_probed` and
    `state_scales`, the one reader of the block layout outside `probing`."""
    atoms = graph.instance.atoms
    return [
        [
            (j, [first + o + o // stride * gap + i * stride for i in range(len(atoms[j]))])
            for j, first, stride, gap in moves
        ]
        for _, count, _, _, moves in graph.set_blocks
        for o in range(count)
    ]


def state_probed(graph):
    """Each compiled state's probed elements as a bitmask over element
    indices: its block's probed set, read off `graph.set_blocks`."""
    return [probed for _, count, probed, _, _ in graph.set_blocks for _ in range(count)]


def state_scales(graph):
    """Each compiled state's scale, the product of Q_e over its unprobed
    elements: its block's scale, read off `graph.set_blocks`."""
    return [scale for _, count, _, scale, _ in graph.set_blocks for _ in range(count)]


def state_observations(graph):
    """Each compiled state's (element index, atom index) pairs, by element,
    rebuilt from `state_moves`: the root observed nothing, and the i-th atom
    of a move probing element j leads to a state that also observed (j, i)."""
    observed = [()] + [None] * (len(graph) - 1)
    for s, moves in enumerate(state_moves(graph)):
        for j, successors in moves:
            for i, t in enumerate(successors):
                pairs = tuple(sorted(observed[s] + ((j, i),)))
                assert observed[t] in (None, pairs)
                observed[t] = pairs
    return observed
