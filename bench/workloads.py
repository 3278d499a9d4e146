"""The benchmark's three workloads: seeded inputs, one item function each.

Inputs are made by this file's own generator, never by
`delegation_lab.random_instances`, so a library change cannot resize a
workload.  The *shape* of every item (element count, atoms per element,
outer constraint, greedy-family sizes) is drawn once from the fixed
`SHAPE_SEED`; `--seed` draws the contents: utilities, probabilities, family
members and the epsilon sweep.  Every seed therefore runs the same mix of
sizes, which keeps timings comparable across seeds, while the exact values,
and with them every checked result, change with the seed.

Within one instance all principal utilities `x` are distinct.  Then
`make_instance` never merges atoms and the threshold search always tries
one cut per atom, so the amount of work is fixed by the shape alone.  Agent
utilities are strictly positive, as in the library's own random suites:
with zero-utility outcomes an adversarially tie-breaking agent may propose
nothing, and no mechanism can be held to a fraction of the benchmark.

Each item function returns `(outputs, failures, stats)`: the exact outputs
as strings (rationals as `num/den`, CLI reports as their bytes), the names
of the correctness checks that failed, and the item's counts for the shape
report.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SHAPE_SEED = 201014718
DENOMINATORS = (1, 2, 3, 4)
MAX_VALUE = 10
HALF = Fraction(1, 2)
# certified rational lower bracket of 1 - 1/e = 0.63212055882855767840...
GAP_LOWER = Fraction(632120558828557, 10**15)

THRESHOLD_ITEMS = 100
THRESHOLD_FAMILIES = 3
MENU_EPSILONS = 25  # x 2 tables x 2 tie-break modes = 100 items
MENU_GRID = Fraction(1, 9)  # 10 x 10 grid points: 100 menus per search
ADAPTIVITY_ITEMS = 120


def _pair(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _text(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _value(rng: random.Random, positive: bool) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(1 if positive else 0, MAX_VALUE * den), den)


def _raw_instance(
    rng: random.Random, atom_counts: tuple[int, ...], outer: dict
) -> dict:
    """Instance JSON with distinct principal values across all atoms."""
    used: set[Fraction] = set()
    elements = []
    for i, size in enumerate(atom_counts, start=1):
        weights = [rng.randint(1, 5) for _ in range(size)]
        support = []
        for w in weights:
            x = _value(rng, positive=False)
            while x in used:
                x = _value(rng, positive=False)
            used.add(x)
            support.append(
                {
                    "x": _pair(x),
                    "y": _pair(_value(rng, positive=True)),
                    "p": _pair(Fraction(w, sum(weights))),
                }
            )
        elements.append({"id": f"e{i}", "support": support})
    return {"elements": elements, "outer": outer, "inner": {"kind": "uniform", "k": 1}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # seed -> list of JSON-able item specs (pure data, no library objects)
    generate: Callable[[int], list]
    # (library, specs, work directory) -> list of prepared items
    prepare: Callable
    # (library, prepared item) -> (outputs, failures, stats)
    run: Callable
    # specs -> (element count, scenario count) per item
    sizes: Callable[[list], list[tuple[int, int]]]


def _raw_sizes(instances: list[dict]) -> list[tuple[int, int]]:
    return [
        (len(raw["elements"]), math.prod(len(e["support"]) for e in raw["elements"]))
        for raw in instances
    ]


def _failed(failures: list[str], ok: bool, name: str) -> None:
    if not ok:
        failures.append(name)


# --- threshold_suite ----------------------------------------------------------


def _threshold_shapes() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for _ in range(THRESHOLD_ITEMS):
        atoms = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        sizes = tuple(rng.randint(0, sum(atoms)) for _ in range(THRESHOLD_FAMILIES))
        shapes.append((atoms, sizes))
    return shapes


def _threshold_generate(seed: int) -> list:
    rng = random.Random(seed)
    specs = []
    for atoms, sizes in _threshold_shapes():
        raw = _raw_instance(rng, atoms, {"kind": "free"})
        # 1-uniform inner: the gambler's candidate sets are single (element, x)
        pairs = [
            [element["id"], atom["x"]]
            for element in raw["elements"]
            for atom in element["support"]
        ]
        families = [rng.sample(pairs, size) for size in sizes]
        specs.append({"instance": raw, "families": families})
    return specs


def _threshold_prepare(lab, specs: list, work_dir: Path) -> list:
    items = []
    for spec in specs:
        instance = lab.instances.load_instance(spec["instance"])
        families = [
            lab.prophet.greedy_family(
                [[(e, Fraction(*x))] for e, x in members], instance.inner
            )
            for members in spec["families"]
        ]
        items.append((instance, families))
    return items


def _threshold_run(lab, item) -> tuple[list[str], list[str], dict]:
    instance, families = item
    delegation = lab.delegation
    mode = delegation.TieBreak.ADVERSARIAL
    adaptive = lab.probing.optimal_adaptive_value(instance)
    optimum = adaptive.expected_value
    policy, cut, report = delegation.build_threshold_policy(instance)
    evaluation = delegation.evaluate_policy(instance, policy, mode, benchmark=optimum)
    outputs = [
        optimum,
        cut,
        report.gambler_value,
        evaluation.principal_value,
        evaluation.agent_value,
        evaluation.alpha,
    ]
    failures: list[str] = []
    _failed(failures, evaluation.alpha >= HALF, "threshold alpha >= 1/2")
    _failed(failures, evaluation.principal_value <= optimum, "principal <= optimum")
    for family in families:
        gambler = lab.prophet.evaluate_vs_almighty(instance, family).gambler_value
        delegated = delegation.evaluate_policy(
            instance, delegation.policy_from_greedy(family), mode, benchmark=optimum
        ).principal_value
        _failed(failures, delegated >= gambler, "delegated >= gambler")
        _failed(failures, delegated <= optimum, "principal <= optimum")
        outputs += [gambler, delegated]
    return [_text(v) for v in outputs], failures, {"dp_states": adaptive.state_count}


# --- menu_search --------------------------------------------------------------


def _menu_generate(seed: int) -> list:
    rng = random.Random(seed)
    # epsilon in [1/100, 49/100]: the stated table1 menu needs 1 - 2 eps >= 0
    numerators = rng.sample(range(1, 50), MENU_EPSILONS)
    return [
        {"table": table, "epsilon": [k, 100], "tie_break": mode}
        for k in numerators
        for table in ("table1", "table2")
        for mode in ("principal_favoring", "adversarial")
    ]


def _menu_prepare(lab, specs: list, work_dir: Path) -> list:
    items = []
    for spec in specs:
        eps = Fraction(*spec["epsilon"])
        instance = lab.instances.builtin_instance(spec["table"], eps)
        stated = None
        if spec["table"] == "table1":
            # the two-lottery menu that beats every deterministic policy
            Outcome, lottery = lab.instances.Outcome, lab.lottery.lottery
            low = Outcome("1", Fraction(0), Fraction(0))
            high = Outcome("1", 1 / eps, 1 - eps)
            anchor = Outcome("2", Fraction(1), Fraction(1))
            stated = lab.lottery.lottery_menu(
                [
                    lottery([({high}, Fraction(1))]),
                    lottery([({anchor}, 1 - 2 * eps), ({low}, 2 * eps)]),
                ]
            )
        mode = lab.delegation.TieBreak(spec["tie_break"])
        items.append((spec["table"], eps, mode, instance, stated))
    return items


def _menu_run(lab, item) -> tuple[list[str], list[str], dict]:
    table, eps, mode, instance, stated = item
    gap = lab.oracle.exact_delegation_gap(instance, mode)
    menu, best = lab.lottery.search_two_lottery_menus(instance, MENU_GRID, mode)
    outputs = [
        gap.alpha_star,
        gap.policies_enumerated,
        best.principal_value,
        best.agent_value,
        best.benchmark_value,
        json.dumps(lab.lottery.menu_to_json(menu), sort_keys=True),
    ]
    failures: list[str] = []
    _failed(failures, gap.alpha_star <= 1, "alpha_star <= 1")
    _failed(
        failures, best.principal_value <= best.benchmark_value, "principal <= optimum"
    )
    _failed(failures, gap.alpha_star == 1 / (2 - eps), "alpha_star == 1/(2-eps)")
    if table == "table2" and mode.value == "principal_favoring":
        _failed(failures, best.principal_value == 1, "table2 grid best == 1")
    if stated is not None:
        evaluation = lab.lottery.evaluate_lottery_menu(instance, stated, mode)
        value = evaluation.principal_value
        _failed(failures, value == 2 - 3 * eps + 2 * eps**2, "stated menu value")
        outputs.append(value)
    return [_text(v) for v in outputs], failures, {}


# --- adaptivity_matroid -------------------------------------------------------


def _adaptivity_shapes() -> list[tuple[tuple[int, ...], dict]]:
    rng = random.Random(SHAPE_SEED + 1)
    shapes = []
    for _ in range(ADAPTIVITY_ITEMS):
        n = rng.randint(2, 6)
        atoms = tuple(rng.randint(1, 3) for _ in range(n))
        ids = [f"e{i}" for i in range(1, n + 1)]
        if rng.random() < 0.5:
            outer = {"kind": "uniform", "k": rng.randint(1, n)}
        else:
            rng.shuffle(ids)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n)) - 1))
            blocks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            outer = {
                "kind": "partition",
                "blocks": [sorted(b) for b in blocks],
                "caps": [rng.randint(1, len(b)) for b in blocks],
            }
        shapes.append((atoms, outer))
    return shapes


def _adaptivity_generate(seed: int) -> list:
    rng = random.Random(seed)
    return [_raw_instance(rng, atoms, outer) for atoms, outer in _adaptivity_shapes()]


def _adaptivity_prepare(lab, specs: list, work_dir: Path) -> list:
    """Write one instance file per item; items name the file relative to
    `work_dir`, which is the working directory while items run, so the
    CLI's reports (which echo the path) are the same in every checkout."""
    names = []
    for i, spec in enumerate(specs):
        name = f"adaptivity_{i:03d}.json"
        (work_dir / name).write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
        names.append(name)
    return names


def _adaptivity_run(lab, name: str) -> tuple[list[str], list[str], dict]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lab.cli.run(["adaptivity", "--instance", name])
    text = out.getvalue()
    failures: list[str] = []
    _failed(failures, code == 0, "cli exit code 0")
    report = json.loads(text)

    def rational(key: str) -> Fraction:
        return Fraction(report[key]["num"], report[key]["den"])

    ratio = rational("ratio_to_adaptive")
    _failed(failures, GAP_LOWER <= ratio <= 1, "GAP_LOWER <= ratio_to_adaptive <= 1")
    _failed(
        failures,
        rational("nonadaptive_value") <= rational("adaptive_value"),
        "nonadaptive <= adaptive",
    )
    stats = {"dp_states": report["dp_state_count"], "output_bytes": len(text.encode())}
    return [text], failures, stats


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "threshold_suite",
            "free-outer instances of up to 4 elements: tuned threshold and random "
            "greedy families vs the almighty adversary; prophet and the policy "
            "stop rule dominate",
            _threshold_generate,
            _threshold_prepare,
            _threshold_run,
            lambda specs: _raw_sizes([s["instance"] for s in specs]),
        ),
        Workload(
            "menu_search",
            "table1/table2 over a seeded epsilon sweep: exhaustive gap plus a "
            "100-menu lottery search on one probing state graph; lottery and "
            "the agent DP dominate",
            _menu_generate,
            _menu_prepare,
            _menu_run,
            # table1 and table2: a two-atom element and a deterministic one
            lambda specs: [(2, 2)] * len(specs),
        ),
        Workload(
            "adaptivity_matroid",
            "matroid-outer instances of up to 6 elements through the in-process "
            "adaptivity command; probing, set systems and the CLI, no delegation",
            _adaptivity_generate,
            _adaptivity_prepare,
            _adaptivity_run,
            _raw_sizes,
        ),
    )
}


def shape(workload: Workload, specs: list) -> dict:
    """Item count, element-count histogram and scenario total of the inputs."""
    sizes = workload.sizes(specs)
    histogram: dict[int, int] = {}
    for n, _ in sizes:
        histogram[n] = histogram.get(n, 0) + 1
    return {
        "items": len(specs),
        "elements": dict(sorted(histogram.items())),
        "scenarios": sum(count for _, count in sizes),
    }
