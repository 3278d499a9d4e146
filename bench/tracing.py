"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of the `delegation_lab` modules from
outside the library: each wrapper replaces the function under every name
that refers to it in any loaded `delegation_lab` module (a function imported
with `from .x import f` lives on under several names), and restores the
originals when the traced pass ends.  Nothing under `src/` is edited.

Each wrapped call records a span `[name, layer, start, end, parent]`.
After every item the spans are folded into per-layer self time, which is a
span's duration minus the durations of its direct child spans, and then
dropped, so memory stays bounded by one item's spans.  Work outside any
span (the benchmark's own loop) is not charged to a layer.

The policy `accepts` predicates are counted but not timed: they run once per
proposal subset, always inside `agent_best_response` or
`materialize_policy`, so a span would only add overhead to the layer that
already owns them.  Hot helpers that are not wrapped (`SetSystem.is_feasible`,
`Instance.dist`, `Instance.outcome`, the scenario and DP closures) are charged
to the layer of the span that calls them.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial
from time import perf_counter

LAYERS = (
    "instances",
    "set_systems",
    "probing",
    "prophet",
    "delegation",
    "lottery",
    "oracle",
    "cli",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_scenarios(counts, args, kwargs, result):
    counts["instances.scenarios"] += len(result)


def _count_dp_states(counts, args, kwargs, result):
    counts["probing.dp_states"] += result.state_count


def _count_orderings(counts, args, kwargs, result):
    instance = _arg(args, kwargs, 0, "instance")
    scenarios = sys.modules["delegation_lab.instances"].scenario_count(instance)
    counts["prophet.scenario_orderings"] += (
        math.factorial(len(instance.elements)) * scenarios
    )


def _count_subsets(counts, args, kwargs, result):
    probed = _arg(args, kwargs, 2, "probed")
    counts["delegation.best_response.subsets"] += 2 ** len(probed) - 1


def _count_policies(counts, args, kwargs, result):
    counts["oracle.policies"] += result.policies_enumerated


# (layer, attribute in the layer's module, calls counter or None, extra count)
SPANS = (
    ("instances", "enumerate_scenarios", "instances.enumerate_scenarios.calls", _count_scenarios),
    ("instances", "load_instance", "instances.load_instance.calls", None),
    ("instances", "realizable_inner_sets", None, None),
    ("instances", "is_inner_feasible_outcome_set", None, None),
    ("set_systems", "max_weight_feasible", "set_systems.max_weight_feasible.calls", None),
    ("probing", "optimal_adaptive_value", "probing.adaptive_dp.calls", _count_dp_states),
    ("probing", "best_nonadaptive_set", None, None),
    ("probing", "nonadaptive_value", "probing.nonadaptive_value.calls", None),
    ("prophet", "evaluate_vs_almighty", "prophet.almighty.calls", _count_orderings),
    ("prophet", "samuel_cahn_threshold", None, None),
    ("prophet", "threshold_family", None, None),
    ("prophet", "greedy_family", None, None),
    ("delegation", "evaluate_policy", None, None),
    ("delegation", "agent_probe_values", "delegation.agent_dp.calls", None),
    ("delegation", "agent_best_response", "delegation.best_response.calls", _count_subsets),
    ("delegation", "build_threshold_policy", None, None),
    ("delegation", "policy_from_greedy", None, None),
    ("lottery", "search_two_lottery_menus", None, None),
    ("lottery", "evaluate_lottery_menu", "lottery.menus", None),
    ("lottery", "agent_lottery_choice", "lottery.choice.calls", None),
    ("lottery", "Lottery.expected_values", "lottery.expected_values.calls", None),
    ("lottery", "menu_to_json", None, None),
    ("oracle", "exact_delegation_gap", None, _count_policies),
    ("cli", "run", "cli.runs", None),
)

ACCEPTS = (
    ("delegation", "ExplicitPolicy.accepts"),
    ("delegation", "ThresholdPolicy.accepts"),
    ("delegation", "GreedyFamilyPolicy.accepts"),
)


class Tracer:
    """Spans folded into per-layer self time, plus deterministic counters."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._spans: list[list] = []
        self._stack: list[int] = []

    def _span(self, layer, name, fn, calls, extra):
        spans, stack, counts = self._spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if calls:
                counts[calls] += 1
            if extra:
                extra(counts, args, kwargs, result)
            return result

        return wrapper

    def _accepts(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            accepted = fn(*args, **kwargs)
            counts["delegation.accepts.calls"] += 1
            if accepted:
                counts["delegation.accepts.true"] += 1
            return accepted

        return wrapper

    def fold(self) -> None:
        """Charge every closed span's self time to its layer; drop the spans."""
        if self._stack:
            raise RuntimeError("fold called inside an open span")
        child = [0.0] * len(self._spans)
        for _, _, start, end, parent in self._spans:
            if parent >= 0:
                child[parent] += end - start
        for (_, layer, start, end, _), inner in zip(self._spans, child):
            self.self_s[layer] += end - start - inner
        self._spans.clear()

    @contextmanager
    def installed(self):
        """Patch every wrapped entry point in all loaded library modules."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "delegation_lab" or name.startswith("delegation_lab.")
        ]
        undo = []

        def patch(layer, qualname, make):
            home = sys.modules[f"delegation_lab.{layer}"]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:  # a method: patch the class, shared by every importer
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, make(original))
                return
            original = getattr(home, attr)
            wrapper = make(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)

        try:
            for layer, qualname, calls, extra in SPANS:
                make = partial(
                    self._span, layer, f"{layer}.{qualname}", calls=calls, extra=extra
                )
                patch(layer, qualname, make)
            for layer, qualname in ACCEPTS:
                patch(layer, qualname, self._accepts)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
