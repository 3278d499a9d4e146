"""Exact adaptive probing: one compiled state graph, solved in integers.

`probing_graph` compiles an instance's probing states (probed elements and
their observed support atoms) once, in one contiguous block per probed set,
root first: each block stores once what its states share, the probed set,
its scale and its outer-feasible moves, each (element, first successor,
stride, gap) to later states.  `solve_probing` values each state by a stop
rule, one integer (agent, principal) pair per state, in one backward pass
(`probing_pass`) of integer keys; `Lanes` packs many rules into one pass.
The delegated agent stops with its proposal (`delegation`, `lottery`).  The
non-delegated benchmark `optimal_adaptive_value` stops with u, the best
inner-feasible observed total, which only grows: probing more never hurts
(`ProbingGraph.adaptive`).  So the benchmark is the prophet's E[u] wherever
the outer constraint admits every element, and `best_nonadaptive_set` scores
only the maximal outer-feasible sets, the graph's terminal blocks.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, Caps
from .instances import Instance, Outcome, known_elements
from .set_systems import max_weight_feasible

# An (agent value, principal value) pair.
ValuePair = tuple[Fraction, Fraction]
# A `ProbingGraph.proposals` row: (outcome set, mask, y, x).
Proposal = tuple[frozenset[Outcome], int, int, int]


class TieBreak(str, enum.Enum):
    ADVERSARIAL = "adversarial"
    PRINCIPAL_FAVORING = "principal_favoring"
    LEXICOGRAPHIC = "lexicographic"


@dataclass(frozen=True)
class AdaptiveValueReport:
    expected_value: Fraction
    state_count: int


@dataclass(frozen=True)
class NonAdaptiveReport:
    best_set: frozenset[str]
    expected_value: Fraction
    ratio_to_adaptive: Fraction


def benchmark_ratio(value: Fraction, benchmark: Fraction) -> Fraction:
    """`value` over the adaptive `benchmark`, or 1 when the benchmark is 0:
    how alpha and the adaptivity ratio are read."""
    return value / benchmark if benchmark > 0 else Fraction(1)


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


@dataclass(frozen=True, eq=False)
class ProbingGraph:
    """Every probing state of one instance, one block per probed set.

    Blocks follow their probed sets breadth first; within a block the atom
    of the lowest element varies fastest.  The root is state 0; every move
    leads to a later state.
    - `set_blocks`: per block, (first state, state count, probed, scale,
      moves), its states' constants: the probed elements as a bitmask over
      element indices; the product of Q_e over the unprobed elements, so
      sum(w * value * successor's scale) is the expectation times scale;
      the outer-feasible next probes in element order, each (j, first,
      stride, gap), gap = stride * (k_j - 1).  From the state at offset o,
      atom i of element j, of weight w = p * Q_j (`Instance.integer_probs`),
      leads to state first + o + (o // stride) * gap + i * stride.
    - `scale`: the root's scale, the product of every Q_e.
    Per state s:
    - `masks[s]`: observed outcomes as a bitmask over `outcome_bits`;
    - `weights[s]`: the probability of the observed atoms times `scale`.
    """

    instance: Instance
    set_blocks: tuple[tuple[int, int, int, int, tuple[tuple[int, int, int, int], ...]], ...]
    scale: int
    masks: tuple[int, ...]
    weights: tuple[int, ...]
    # one bit per distinct outcome (element, x, y)
    outcome_bits: Mapping[Outcome, int]

    def __len__(self) -> int:
        return len(self.masks)

    @functools.cached_property
    def proposals(self) -> tuple[Proposal, ...]:
        """(outcome set, mask, y, x) of each nonempty inner-feasible state, y
        and x over `outcome_unit`, in `outcome_set_key` order (ties in graph
        order): the library's one list of the sets the agent can propose.

        Rows sort by (size, the sorted (element, x, y) of their bits), x and
        y over `outcome_unit`: an order-preserving integer image of
        `outcome_set_key`, so no `Fraction` is compared.
        """
        by_bit = tuple(self.outcome_bits)
        bit_keys = [
            (o.element, x, y) for o, (y, x) in zip(by_bit, self.outcome_values)
        ]
        keyed = []
        for first, count in self.proposal_blocks:
            for mask in self.masks[first : first + count]:
                bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
                key = (len(bits), sorted(bit_keys[b] for b in bits))
                row = (frozenset(by_bit[b] for b in bits), mask, *self.mask_values(mask))
                keyed.append((key, row))
        keyed.sort(key=itemgetter(0))
        return tuple(row for _, row in keyed)

    @functools.cached_property
    def proposal_blocks(self) -> tuple[tuple[int, int], ...]:
        """(first state, state count) of each block whose states are
        `proposals` rows: its probed set is nonempty and inner-feasible, asked
        of the inner constraint's mask test once per block."""
        test = self.instance.inner.mask_test(self.instance.elements)
        return tuple(
            (first, count) for first, count, probed, *_ in self.set_blocks if probed and test(probed)
        )

    @functools.cached_property
    def outcome_unit(self) -> int:
        """The lcd of every outcome's y and x: their multiples are integers."""
        return math.lcm(
            *(v.denominator for o in self.outcome_bits for v in (o.y, o.x))
        )

    @functools.cached_property
    def outcome_values(self) -> tuple[tuple[int, int], ...]:
        """Each outcome bit's (y, x) over `outcome_unit`, by bit: the one
        conversion of utilities to integers."""
        unit = self.outcome_unit
        ints = [v.numerator * (unit // v.denominator) for o in self.outcome_bits for v in (o.y, o.x)]
        return tuple(zip(ints[::2], ints[1::2]))

    def mask_values(self, mask: int) -> tuple[int, int]:
        """The total (y, x) of the outcome bits in `mask`, over `outcome_unit`."""
        values, y, x = self.outcome_values, 0, 0
        while mask:
            low = mask & -mask
            bit_y, bit_x = values[low.bit_length() - 1]
            y, x, mask = y + bit_y, x + bit_x, mask ^ low
        return y, x

    @functools.cached_property
    def observed_values(self) -> tuple[int, ...]:
        """u at every state over `outcome_unit`, in one root-first pass over the
        blocks: u(s) = max(x(s) if s's probed set is inner-feasible, u of each
        parent).  The outer constraint is downward closed, so every subset of
        what s observed is a state with a path of moves to s; the root, left
        out of `proposal_blocks`, has x = 0."""
        u, atoms, masks = [0] * len(self), self.instance.atoms, self.masks
        proposable = {first for first, _ in self.proposal_blocks}
        for first, count, _, _, moves in self.set_blocks:
            feasible = first in proposable
            for s in range(first, first + count):
                if feasible:
                    u[s] = max(u[s], self.mask_values(masks[s])[1])
                best, o = u[s], s - first
                for j, t, stride, gap in moves:
                    t += o + o // stride * gap
                    for _ in atoms[j]:
                        if best > u[t]:
                            u[t] = best
                        t += stride
        return tuple(u)

    @functools.cached_property
    def adaptive(self) -> AdaptiveValueReport:
        """The optimal adaptive non-delegated strategy, solved once per graph:
        V(state) = max(u(observed), max over feasible next probes of the
        expected successor value), `solve_probing` with stop value (u, 0), whose
        key is u itself under lexicographic ties.  Probing more never hurts: u
        only grows with what is observed (x >= 0), so no strategy's expected u
        passes E[u of every element], which probing every element attains; so
        where the last block probes every element (`full_probes`), V(root) is
        `prophet`, read with no pass."""
        if self.full_probes:
            value = Fraction(self.prophet, self.outcome_unit * self.scale)
        else:
            stops = [(u, 0) for u in self.observed_values]
            (value, _), _ = solve_probing(self, stops, TieBreak.LEXICOGRAPHIC, self.outcome_unit)
        return AdaptiveValueReport(value, len(self))

    @functools.cached_property
    def full_probes(self) -> tuple[tuple[int, int, int], ...]:
        """(weight, outcome mask, u) of every state that probed all elements,
        the last block's if any, breadth first: one row per scenario when
        the outer constraint is free."""
        first, count, probed, _, _ = self.set_blocks[-1]
        if probed != (1 << len(self.instance.elements)) - 1:
            return ()
        rows = slice(first, first + count)
        return tuple(zip(self.weights[rows], self.masks[rows], self.observed_values[rows]))

    @functools.cached_property
    def prophet(self) -> int:
        """Sum of weight * u over `full_probes`, over `outcome_unit` * `scale`:
        the prophet's expected total, and `adaptive`'s wherever rows exist."""
        return sum(weight * u for weight, _, u in self.full_probes)

    @functools.cached_property
    def median(self) -> int:
        """The first u of `full_probes`, ascending, whose cumulative weight
        reaches half of `scale`: under a free outer constraint, the
        smallest median of u over `outcome_unit`."""
        rows = sorted(self.full_probes, key=itemgetter(2))
        at_most = itertools.accumulate(weight for weight, _, _ in rows)
        return next(u for (_, _, u), w in zip(rows, at_most) if 2 * w >= self.scale)

    @functools.cached_property
    def pair_masks(self) -> dict[tuple[str, int, int], int]:
        """The OR of the outcome bits of each (element, x.numerator, x.denominator)."""
        masks: dict[tuple[str, int, int], int] = {}
        for outcome, bit in self.outcome_bits.items():
            pair = (outcome.element, outcome.x.numerator, outcome.x.denominator)
            masks[pair] = masks.get(pair, 0) | 1 << bit
        return masks

    def element_set(self, probed: int) -> frozenset[str]:
        elements = self.instance.elements
        return frozenset(e for j, e in enumerate(elements) if probed >> j & 1)


def _too_many_states(state_cap: int, reached: int) -> CapacityError:
    return CapacityError(
        f"probing DP exceeded {state_cap} states", "dp_states", state_cap, reached
    )


def lattice(
    sizes: Sequence[int], feasible: Callable[[int], bool], limit: int
) -> Iterator[tuple[int, int, tuple[tuple[int, int, int, int], ...], int]]:
    """The library's one walk of a downward-closed lattice: per `feasible`
    element mask P, breadth first from 0, (P, count = prod_{j in P} sizes[j],
    moves, total).  A move (j, first, stride, gap) leads to P + j: first the
    counts of the sets met before it, stride those of P's elements below j,
    gap = stride * (sizes[j] - 1).  total counts every set met so far.  Each
    (set, next element) is tested once; the walk ends after the first set
    (its children all counted) whose total passes `limit`."""
    firsts, queue, total = {0: 0}, [(0, 1)], 1
    for p, count in queue:
        moves, stride = [], 1  # the sizes of p's elements below j
        for j, k in enumerate(sizes):
            if p >> j & 1:
                stride *= k
            elif feasible(child := p | 1 << j):
                if child not in firsts:
                    firsts[child], total = total, total + count * k
                    queue.append((child, count * k))
                moves.append((j, firsts[child], stride, stride * (k - 1)))
        yield p, count, tuple(moves), total
        if total > limit:
            return


@functools.lru_cache(maxsize=2)
def probing_graph(instance: Instance, state_cap: int) -> ProbingGraph:
    """Compile `instance`'s probing states; refuse more than `state_cap`.

    Memoized on the last two (instance, state_cap), so every stop rule solved
    on one instance shares one graph, and an instance under an outer
    constraint keeps its graph beside its free-outer one (`prophet`).

    The probed sets are the `lattice` of the outer mask test over the atom
    counts k_e, each set P's block its count of states and its moves; past
    the cap the walk refuses before any state is built (an outer constraint
    that admits every element, of prod(k_e + 1) states, before the walk).
    P's states and scale extend those of the block of P minus its top element.
    """
    elements, sizes = instance.elements, [len(support) for support in instance.atoms]
    feasible, states = instance.outer.mask_test(elements), math.prod(k + 1 for k in sizes)
    if states > state_cap and feasible((1 << len(elements)) - 1):
        raise _too_many_states(state_cap, states)
    walk = list(lattice(sizes, feasible, state_cap))
    if walk[-1][3] > state_cap:
        raise _too_many_states(state_cap, walk[-1][3])
    denominators, atom_weights = instance.integer_probs
    root_scale = math.prod(denominators)
    outcome_bits: dict[Outcome, int] = {}
    atom_bits = [
        [1 << outcome_bits.setdefault(Outcome(e, a.x, a.y), len(outcome_bits)) for a in support]
        for e, support in zip(elements, instance.atoms)
    ]
    masks, weights = [0], [root_scale]
    blocks = {0: (0, 1, 0, root_scale, walk[0][2])}  # by probed set, breadth first
    for p, count, moves, _ in walk[1:]:  # extend the block of p minus its top element, atom by atom
        top = p.bit_length() - 1
        (a, _, _, scale, _), q = blocks[p ^ 1 << top], denominators[top]
        blocks[p] = (len(masks), count, p, scale // q, moves)
        below = range(a, a + count // sizes[top])
        masks += [masks[s] | bit for bit in atom_bits[top] for s in below]
        weights += [weights[s] // q * w for w in atom_weights[top] for s in below]
    return ProbingGraph(
        instance, tuple(blocks.values()), root_scale, tuple(masks), tuple(weights), outcome_bits
    )


# The sign of the principal value in a pair's rank (agent, sign * principal).
RANK_SIGN = {TieBreak.ADVERSARIAL: -1, TieBreak.PRINCIPAL_FAVORING: 1, TieBreak.LEXICOGRAPHIC: 0}


def rank_offers(pairs: Sequence[ValuePair | tuple[int, int]], mode: TieBreak) -> list[int]:
    """The indices of the (agent, principal) pairs that `prefer` would take
    over the empty proposal's (0, 0), best first in `prefer`'s order (by
    rank), ties in index order."""
    sign = RANK_SIGN[mode]
    ranks = [(agent, sign * principal) for agent, principal in pairs]
    better = [i for i, rank in enumerate(ranks) if rank > (0, 0)]
    return sorted(better, key=ranks.__getitem__, reverse=True)


class Lanes:
    """Stop keys: a tie rule as one integer per integer (agent, principal)
    pair, and `count` of them side by side in one int.

    key = (agent << shift) + low, low = principal, or bound - principal
    under adversarial ties (bound >= every principal stop value).  A state
    holds keys times its block's scale, 0 <= low <= bound * scale <
    2 ** shift: `>` on keys is `prefer` (on key >> `cut` under lexicographic
    ties), and as sum(w * successor's scale) = scale over a move's atoms, a
    move's expected key is the key of its expected pair.  Keys are
    nonnegative, as `UtilityAtom` has x, y >= 0.

    Lane i is bytes [i * size, (i + 1) * size), little-endian, width = 8 *
    size bits.  Every key the DP holds is below 2 ** (width - 1), as
    `agent_top` bounds the agent stop values times the root scale, so sums
    of keys carry into no other lane.  `merge(x, y)` keeps y where x_i <= y_i:
    with H the top (guard) bit and ONE a 1 in every lane, lane i of
    (x | H) - y - ONE is 2 ** (width - 1) + x_i - y_i - 1, in
    [0, 2 ** width), so no lane borrows and the guard is set iff x_i > y_i
    (the low `cut` bits of both cleared first).  The guards moved to bit 0,
    times 2 ** width - 1, fill the lanes where x wins.
    """

    def __init__(
        self, mode: TieBreak, bound: int, scale: int, agent_top: int = 0, count: int = 1
    ) -> None:
        self.mode, self.bound, self.count = mode, bound, count
        self.shift = (bound * scale).bit_length()
        self.cut = self.shift if mode is TieBreak.LEXICOGRAPHIC else 0
        self.size = (agent_top.bit_length() + self.shift + 8) // 8
        self.width = 8 * self.size
        self.one = int.from_bytes((b"\1" + bytes(self.size - 1)) * count, "little")
        self.guard = self.one << self.width - 1
        self.keep = self.one * ((1 << self.width - 1) - (1 << self.cut))

    def pack(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        shift, bound = self.shift, self.bound
        if self.mode is TieBreak.ADVERSARIAL:
            return [(agent << shift) + bound - principal for agent, principal in pairs]
        return [(agent << shift) + principal for agent, principal in pairs]

    def pair(self, key: int, scale: int) -> tuple[int, int]:
        """The (agent, principal) pair of a key held at a state of `scale`."""
        low = key & (1 << self.shift) - 1
        if self.mode is TieBreak.ADVERSARIAL:
            low = self.bound * scale - low
        return key >> self.shift, low

    def merge(self, x: int, y: int) -> int:
        wins = ((x & self.keep | self.guard) - (y & self.keep) - self.one) & self.guard
        return y ^ (y ^ x) & (wins >> self.width - 1) * ((1 << self.width) - 1)

    def best(self, roots: Sequence[int], scale: int) -> tuple[int, int]:
        """(principal, index) of the first of `roots` (keys at a state of
        `scale`) whose principal is largest, by the keys' low bits as they are
        (the smallest under adversarial ties); only the winner is decoded."""
        lows = [root & (1 << self.shift) - 1 for root in roots]
        i = lows.index((min if self.mode is TieBreak.ADVERSARIAL else max)(lows))
        return self.pair(roots[i], scale)[1], i

    def unpack(self, packed: int) -> list[int]:
        raw, size = packed.to_bytes(self.count * self.size, "little"), self.size
        return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def probing_pass(
    graph: ProbingGraph, stops: Sequence[int], lanes: Lanes
) -> tuple[list[int], list[int | None]]:
    """The root key of each lane and, for one lane, each state's action.

    `stops[s]` is state s's stop key over a unit, or `lanes.count` of them.
    V(s) = the best of the stop key times its block's scale and each move's
    expected successor key; ties go to stopping, then to the earliest
    element.  One lane compares with `>` and records the chosen move's
    position in its block's moves (None to stop); more lanes `merge`.  Every
    key at a state is over unit * its block's scale, so one pass from the
    last state back to the root, block by block, is an exact Fraction DP.
    """
    one_lane, cut = lanes.count == 1, lanes.cut
    weights = graph.instance.integer_probs[1]
    values = [0] * len(graph)
    actions: list[int | None] = [None] * len(graph)
    for first, count, _, scale, moves in reversed(graph.set_blocks):
        for o in reversed(range(count)):
            s = first + o
            best, action = stops[s] * scale, None
            for k, (j, t, stride, gap) in enumerate(moves):
                t += o + o // stride * gap
                total = 0
                for w in weights[j]:
                    total += w * values[t]
                    t += stride
                if not one_lane:
                    best = lanes.merge(total, best)
                elif total >> cut > best >> cut:
                    best, action = total, k
            values[s], actions[s] = best, action
    return (values[:1] if one_lane else lanes.unpack(values[0])), actions


def solve_probing(
    graph: ProbingGraph,
    stop_values: Sequence[tuple[int, int]],
    mode: TieBreak,
    unit: int = 1,
) -> tuple[ValuePair, list[int | None]]:
    """Root (agent, principal) value and each state's action: `probing_pass`
    on the keys of stop value pairs over `unit`."""
    scale = graph.scale
    lanes = Lanes(mode, max(stop_values, key=itemgetter(1), default=(0, 0))[1], scale)
    roots, actions = probing_pass(graph, lanes.pack(stop_values), lanes)
    agent, principal = lanes.pair(roots[0], scale)
    return (Fraction(agent, unit * scale), Fraction(principal, unit * scale)), actions


def probe_distribution(
    graph: ProbingGraph, actions: Sequence[int | None]
) -> dict[frozenset[str], Fraction]:
    """The distribution of the probed set at stopping under `actions`.

    Given its observations a state is reached along one path or not at all,
    so a reached state carries its integer weight; one forward pass over
    the blocks, and in each over its states, marks the reached states.
    """
    reached = [False] * len(graph)
    reached[0] = True
    totals: dict[int, int] = {}
    for first, count, probed, _, moves in graph.set_blocks:
        for s in range(first, first + count):
            if not reached[s]:
                continue
            action = actions[s]
            if action is None:
                totals[probed] = totals.get(probed, 0) + graph.weights[s]
                continue
            j, t, stride, gap = moves[action]
            t += s - first + (s - first) // stride * gap
            for i in range(len(graph.instance.atoms[j])):
                reached[t + i * stride] = True
    return {
        graph.element_set(probed): Fraction(weight, graph.scale)
        for probed, weight in totals.items()
    }


def optimal_adaptive_value(
    instance: Instance, caps: Caps = Caps()
) -> AdaptiveValueReport:
    """Exact value of the optimal adaptive non-delegated probing strategy
    (`ProbingGraph.adaptive`)."""
    return probing_graph(instance, caps.dp_states).adaptive


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
    instance: Instance, caps: Caps = Caps()
) -> NonAdaptiveReport:
    """Exhaustive best fixed probe set and its ratio to the adaptive optimum.

    Terminal blocks only: the graph's blocks without moves are exactly the
    maximal outer-feasible sets, and no set scores above its supersets
    (probing more never hurts, `ProbingGraph.adaptive`).  A set F scores the
    sum, over the states of its block, of weight times u: the
    `nonadaptive_value` of F over a denominator shared by every set.  Ties
    prefer larger sets, then the smallest sorted id tuple.  No product
    support is built: only `caps.dp_states` bounds the work.
    """
    graph = probing_graph(instance, caps.dp_states)
    weights, u = graph.weights, graph.observed_values
    scores = [
        (sum(map(mul, weights[first : first + count], u[first : first + count])), probed)
        for first, count, probed, _, moves in graph.set_blocks if not moves
    ]
    top = max((score, probed.bit_count()) for score, probed in scores)
    tied = [probed for score, probed in scores if (score, probed.bit_count()) == top]
    ids = min(tuple(sorted(graph.element_set(probed))) for probed in tied)
    best_value = Fraction(top[0], graph.outcome_unit * graph.scale)
    ratio = benchmark_ratio(best_value, graph.adaptive.expected_value)
    return NonAdaptiveReport(frozenset(ids), best_value, ratio)
