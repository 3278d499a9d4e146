"""delegation-lab benchmark: one workload per run, exact results checked.

    python3 bench/run.py --workload threshold_suite --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
The run repeats rounds until the next one would end after `--seconds`: each
round sets up (fresh import, input generation, instance files, warm-up) and
then runs one timed pass over every item.  With `--trace 0` every pass is
untraced and the run reports the end-to-end metrics.  With `--trace 1`
untraced and traced passes alternate and the run reports per-layer self time
and work counts (see `tracing.py`).

Every item is deterministic work, but the host's speed is not: on a shared
2-vCPU VM a fixed Fraction loop runs up to twice as slow for spells of 50 ms
to several seconds, and runs minutes apart differed by 30% or more, all of
it invisible to the guest (`process_time` moves with `perf_counter`).  So
the run also times a fixed reference kernel of its own (`HostClock`), a few
milliseconds of `Fraction` work that never touches the library, before the
first item of a pass, after every `READ_EVERY_S` of item time and after the
last item.  A reading's host factor is the kernel's time over the fixed
`REFERENCE_KERNEL_S`; each item's time is divided by the geometric mean of
the factors read just before and just after it, and each set-up by the
factors read around it.  The scaled times therefore read as on a host where
the kernel takes `REFERENCE_KERNEL_S`, and a change to the library moves
them as much as it moves the raw times.  Each item keeps the median of its
scaled times over the passes; `items_per_s` is the item count over their
sum and the percentiles are Harrell-Davis estimates over them.  The raw
figures and the host factors are printed in the readable report.

Every pass checks each item's exact results and hashes its outputs.  The
run is correct only if no item fails, every pass, traced or not, yields the
same output digest, and every traced pass yields the same counters.  The
last line of standard output is one JSON object; the lines before it are a
readable report.  Exit code 0 means correct, 1 means a check failed, 2
means the benchmark could not run (for instance, no `src/delegation_lab`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, shape

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

DEFAULT_SEED = 1
WARMUP_ITEMS = 4
MIN_PASSES = 3
# the reference kernel's time on a quiet 2-vCPU Linux VM under Python 3.11,
# as the fastest of KERNEL_REPEATS runs; fixed, so that scaled times are
# comparable between runs, commits and hosts
REFERENCE_KERNEL_S = 0.0006
KERNEL_REPEATS = 5
READ_EVERY_S = 0.1
# String and frozenset iteration order follows the per-process hash seed and
# moved single items' cost by over 10% between processes; a fixed seed makes
# every run of one --seed do the same work.
HASH_SEED = "0"

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "instances.enumerate_scenarios.calls": "count",
    "instances.scenarios": "count",
    "instances.load_instance.calls": "count",
    "set_systems.max_weight_feasible.calls": "count",
    "probing.adaptive_dp.calls": "count",
    "probing.dp_states": "count",
    "probing.nonadaptive_value.calls": "count",
    "prophet.almighty.calls": "count",
    "prophet.scenario_orderings": "count",
    "delegation.agent_dp.calls": "count",
    "delegation.best_response.calls": "count",
    "delegation.best_response.subsets": "count",
    "delegation.accepts.calls": "count",
    "delegation.accepts.true_ratio": "ratio",
    "lottery.menus": "count",
    "lottery.choice.calls": "count",
    "lottery.expected_values.calls": "count",
    "oracle.policies": "count",
    "cli.runs": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def reference_kernel() -> Fraction:
    """Fixed Fraction, dict and frozenset work in the library's style."""
    best: dict = {}
    for a in range(1, 9):
        for b in range(1, 9):
            p = Fraction(a, 9) * Fraction(b, 13)
            key = frozenset((a % 3, b % 4))
            best[key] = best.get(key, Fraction(0)) + p * max(
                Fraction(a, 3), Fraction(b, 5)
            )
    return sum(sorted(best.values()))


REFERENCE_RESULT = Fraction(2942, 135)


class HostClock:
    """Host speed read from the reference kernel, as a factor: 1 when the
    kernel takes REFERENCE_KERNEL_S, 2 when it takes twice as long."""

    def __init__(self) -> None:
        self.factors: list[float] = []

    def read(self) -> float:
        best = math.inf
        for _ in range(KERNEL_REPEATS):
            t0 = perf_counter()
            result = reference_kernel()
            best = min(best, perf_counter() - t0)
            if result != REFERENCE_RESULT:
                raise RuntimeError(f"reference kernel gave {result}")
        self.factors.append(best / REFERENCE_KERNEL_S)
        return self.factors[-1]


def import_library() -> SimpleNamespace:
    """A fresh import of `delegation_lab` from this checkout's `src/`."""
    for name in [n for n in sys.modules if n.split(".")[0] == "delegation_lab"]:
        del sys.modules[name]
    package = importlib.import_module("delegation_lab")
    home = Path(package.__file__).resolve().parent
    if home != SRC / "delegation_lab":
        raise ImportError(f"delegation_lab was imported from {home}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"delegation_lab.{name}") for name in LAYERS}
    )


@dataclass
class Pass:
    wall: float  # summed scaled item times
    times: list[float]  # raw, in seconds
    scaled: list[float]  # raw over the host factor
    digest: str
    failed: int
    failures: Counter
    stats: Counter
    counts: Counter | None = None  # traced passes only
    self_s: dict | None = None  # traced passes only


def run_pass(
    workload, lab, items, clock: HostClock, tracer: Tracer | None = None
) -> Pass:
    gc.collect()
    digest = hashlib.sha256()
    times: list[float] = []
    failures: Counter = Counter()
    stats: Counter = Counter()
    failed = 0
    readings = [(0, clock.read())]  # (index of the next item, host factor)
    since_read = 0.0
    for i, item in enumerate(items):
        if since_read >= READ_EVERY_S:
            readings.append((i, clock.read()))
            since_read = 0.0
        t0 = perf_counter()
        try:
            outputs, failed_checks, item_stats = workload.run(lab, item)
        except Exception as exc:  # an item that raises is a failed item
            error = f"raised {exc!r}"
            outputs, failed_checks, item_stats = [error], [error], {}
        times.append(perf_counter() - t0)
        since_read += times[-1]
        if tracer is not None:
            tracer.fold()
        digest.update(json.dumps(outputs).encode() + b"\n")
        failures.update(failed_checks)
        failed += bool(failed_checks)
        stats.update(item_stats)
    readings.append((len(items), clock.read()))
    # items between two readings are scaled by the geometric mean of both
    scaled: list[float] = []
    for (start, before), (end, after) in zip(readings, readings[1:]):
        factor = math.sqrt(before * after)
        scaled += [t / factor for t in times[start:end]]
    result = Pass(
        sum(scaled), times, scaled, digest.hexdigest(), failed, failures, stats
    )
    if tracer is not None:
        result.counts = Counter(tracer.counts)
        result.counts["cli.output_bytes"] = stats["output_bytes"]
        result.self_s = dict(tracer.self_s)
    return result


def set_up(workload, seed: int, work_dir: Path):
    """Import, generate inputs, write instance files and warm up; timed raw."""
    start = perf_counter()
    lab = import_library()
    for stale in work_dir.iterdir():
        stale.unlink()
    specs = workload.generate(seed)
    items = workload.prepare(lab, specs, work_dir)
    for item in items[:WARMUP_ITEMS]:
        # a failing item is counted and reported by the timed passes
        with contextlib.suppress(Exception):
            workload.run(lab, item)
    return perf_counter() - start, lab, specs, items


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Rounds of set-up plus one pass, until the next round would overrun."""
    setups: list[tuple[float, float]] = []  # (scaled set-up, host factor)
    inputs: list[str] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    clock = HostClock()
    start = perf_counter()
    while True:
        before = clock.read()
        setup_s, lab, specs, items = set_up(workload, seed, work_dir)
        factor = math.sqrt(before * clock.read())
        setups.append((setup_s / factor, factor))
        canonical = json.dumps(specs, sort_keys=True).encode()
        inputs.append(hashlib.sha256(canonical).hexdigest())
        if trace and len(traced) < len(untraced):
            tracer = Tracer()
            with tracer.installed():
                traced.append(run_pass(workload, lab, items, clock, tracer))
        else:
            untraced.append(run_pass(workload, lab, items, clock))
        rounds = len(setups)
        elapsed = perf_counter() - start
        if (
            rounds >= MIN_PASSES
            and (not trace or len(traced) >= 2)
            and elapsed * (rounds + 1) / rounds > seconds
        ):
            return setups, specs, inputs, untraced, traced, clock


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution.  Unlike a one- or two-point
    percentile it does not jump when the items near the rank sit on either
    side of a gap between item sizes (threshold_suite's median falls between
    its 2- and 3-element clusters), so it moves only when item times do.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 200 * n  # midpoint rule, 200 points per order statistic
    logs = []
    for k in range(steps):
        x = (k + 0.5) / steps
        logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    weights = [0.0] * n
    for k, log_density in enumerate(logs):
        weights[k * n // steps] += math.exp(log_density - top)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    work_dir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    # instance files are named relative to the working directory, so the
    # CLI reports that echo them are the same in every checkout
    os.chdir(work_dir)
    try:
        setups, specs, inputs, untraced, traced, clock = measure(
            workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    passes = untraced + traced
    attempted = len(specs) * len(passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    problems = []
    if failed:
        checks = sum((p.failures for p in passes), Counter())
        problems.append(f"{failed} failed items: {dict(checks)}")
    if len(digests) != 1:
        problems.append(f"output digests differ between passes: {sorted(digests)}")
    if len(set(inputs)) != 1:
        problems.append("set-ups generated different inputs")
    if traced and any(p.counts != traced[0].counts for p in traced):
        problems.append("traced passes gave different counters")

    info = shape(workload, specs)
    lines = [
        f"workload {workload.name}: {workload.why}",
        f"seed {args.seed}, {len(untraced)} untraced and {len(traced)} traced passes",
        f"inputs: {info['items']} items, element-count histogram {info['elements']}, "
        f"{info['scenarios']} scenarios, "
        f"{passes[0].stats.get('dp_states', 'unreported')} DP states, "
        f"sha256 {inputs[-1]}",
        f"outputs sha256 {passes[0].digest}",
    ]
    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, setups)
    for name, metric in metrics.items():
        lines.append(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    if not args.trace:
        raw = item_timings(untraced, "times")
        lines.append(
            "unscaled: "
            + ", ".join(f"{k} {v:.6f}" for k, v in raw.items())
            + f", setup_s {statistics.median(s * f for s, f in setups):.6f}"
        )
        factors = sorted(clock.factors)
        lines.append(
            f"host factor over {len(factors)} readings: min {factors[0]:.3f}, "
            f"median {statistics.median(factors):.3f}, max {factors[-1]:.3f}"
        )
        # failed_frac is 0 on a correct program, so the JSON carries it as
        # `failed` / `attempted` rather than as a bounded metric
        lines.append(
            f"{'failed_frac':40s} {failed / attempted:>16.6f} ratio "
            f"({failed} failed of {attempted} attempted)"
        )
        lines.append(
            f"timings: {len(specs)} items, each the median of its {len(untraced)} "
            f"scaled times ({len(specs) * len(untraced)} item samples); "
            f"items_per_s is items over their summed times; setup_s is the "
            f"median of {len(setups)} scaled set-ups"
        )
    lines += [f"CHECK FAILED: {p}" for p in problems]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


def item_timings(untraced: list[Pass], field: str) -> dict:
    """Throughput and percentiles over each item's median time."""
    per_item = [
        statistics.median(ts) for ts in zip(*(getattr(p, field) for p in untraced))
    ]
    per_item_ms = [1000 * t for t in per_item]
    return {
        "items_per_s": len(per_item) / sum(per_item),
        "item_ms_p50": harrell_davis(per_item_ms, 0.5),
        "item_ms_p90": harrell_davis(per_item_ms, 0.9),
    }


def end_to_end_metrics(untraced: list[Pass], setups) -> dict:
    values = {
        **item_timings(untraced, "scaled"),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(traced: list[Pass], untraced: list[Pass]) -> dict:
    counts = traced[0].counts
    calls = counts["delegation.accepts.calls"]
    derived = {
        "delegation.accepts.true_ratio": (
            counts["delegation.accepts.true"] / calls if calls else 0.0
        ),
        "trace.overhead_frac": (
            min(p.wall for p in traced) / min(p.wall for p in untraced) - 1
        ),
    }
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        layer, _, metric = name.partition(".")
        if name in derived:
            value = derived[name]
        elif metric == "self_s":
            value = statistics.median(p.self_s.get(layer, 0.0) for p in traced)
        else:
            value = counts[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
