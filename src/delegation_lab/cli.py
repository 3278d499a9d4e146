"""Command-line interface: load instances, run experiments, emit reports.

All rationals are reported exactly as numerator/denominator pairs together
with a six-place decimal rendering.  JSON reports are canonical (sorted
keys), so identical configurations produce byte-identical output; CSV rows
additionally carry a wall-clock runtime column.

Exit codes: 0 success, 2 validation failure, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from . import instances, oracle, probing, prophet
from .delegation import (
    Policy,
    TieBreak,
    build_threshold_policy,
    compose_outer,
    evaluate_policy,
    policy_from_greedy,
    policy_from_json,
    policy_to_json,
    validate_policy,
)
from .errors import CapacityError
from .instances import (
    BUILTIN_NAMES,
    Instance,
    Outcome,
    builtin_instance,
    instance_to_json,
    load_instance,
    table1,
    table2,
)
from .lottery import (
    evaluate_lottery_menu,
    lottery,
    lottery_menu,
    menu_to_json,
    search_two_lottery_menus,
)
from .probing import best_nonadaptive_set, optimal_adaptive_value
from .prophet import (
    best_greedy_family,
    evaluate_vs_almighty,
    samuel_cahn_threshold,
    threshold_family,
)
from .random_instances import random_free_outer_instance

CAPS_ENV_VAR = "DELEGATION_LAB_CAPS"


@dataclass(frozen=True)
class Caps:
    scenarios: int = instances.SCENARIO_CAP
    dp_states: int = probing.DP_STATE_CAP
    outer_sets: int = probing.OUTER_SET_CAP
    orderings: int = prophet.ORDERING_PRODUCT_CAP
    policy_sets: int = oracle.POLICY_CANDIDATE_CAP
    family_sets: int = prophet.FAMILY_CAP


@dataclass(frozen=True)
class RunConfig:
    command: str
    instance_path: str | None
    builtin: str | None
    epsilon: Fraction | None
    tie_break: TieBreak
    caps: Caps
    output: str
    grid: Fraction
    policy_path: str | None = None
    method: str | None = None
    target: str | None = None
    seed: int = 7
    count: int = 200


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def _parse_caps(text: str, base: Caps) -> Caps:
    caps = base
    if not text:
        return caps
    names = {f.name for f in fields(Caps)}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"cap override {part!r} is not key=value")
        key, value = part.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in names:
            raise ValueError(f"unknown cap {key!r}; valid: {sorted(names)}")
        try:
            caps = replace(caps, **{key: int(value)})
        except ValueError:
            raise ValueError(f"cap {key!r} needs an integer, got {value!r}") from None
    return caps


def _rational(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "approx": f"{float(value):.6f}",
    }


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid {what} JSON: {exc}") from None


def _load_configured_instance(config: RunConfig) -> tuple[Instance, str]:
    if config.instance_path is not None and config.builtin is not None:
        raise ValueError("pass either --instance or --builtin, not both")
    if config.builtin is not None:
        return builtin_instance(config.builtin, config.epsilon), config.builtin
    if config.instance_path is not None:
        data = _read_json(config.instance_path, "instance")
        return load_instance(data), config.instance_path
    raise ValueError("an instance is required (--instance PATH or --builtin NAME)")


def _probe_distribution_json(distribution) -> list[dict]:
    return [
        {"probed": sorted(probe_set), "p": _rational(prob)}
        for probe_set, prob in sorted(
            distribution.items(), key=lambda item: sorted(item[0])
        )
    ]


def _evaluation_json(evaluation) -> dict:
    return {
        "principal_value": _rational(evaluation.principal_value),
        "agent_value": _rational(evaluation.agent_value),
        "non_delegated_value": _rational(evaluation.benchmark_value),
        "alpha": _rational(evaluation.alpha),
        "probe_distribution": _probe_distribution_json(evaluation.probe_distribution),
    }


def _cmd_gap(config: RunConfig) -> tuple[dict, list[dict]]:
    instance, label = _load_configured_instance(config)
    benchmark = optimal_adaptive_value(instance, config.caps.dp_states).expected_value
    report = oracle.exact_delegation_gap(
        instance,
        config.tie_break,
        config.caps.policy_sets,
        config.caps.dp_states,
        benchmark,
    )
    value = report.alpha_star * benchmark
    body = {
        "command": "gap",
        "instance": label,
        "tie_break": config.tie_break.value,
        "alpha_star": _rational(report.alpha_star),
        "principal_value": _rational(value),
        "non_delegated_value": _rational(benchmark),
        "policies_enumerated": report.policies_enumerated,
        "best_policy": policy_to_json(report.best_policy, instance),
    }
    return body, [_csv_row(config, config.tie_break, label, value, report.alpha_star)]


def _policy_report(
    config: RunConfig,
    instance: Instance,
    label: str,
    policy: Policy,
    benchmark: Fraction | None = None,
    **extras,
) -> tuple[dict, list[dict]]:
    """Evaluate `policy` and report it (eval-policy and build-policy)."""
    evaluation = evaluate_policy(
        instance, policy, config.tie_break, config.caps.dp_states, benchmark
    )
    body = {
        "command": config.command,
        "instance": label,
        "tie_break": config.tie_break.value,
        "policy": policy_to_json(policy, instance),
        "evaluation": _evaluation_json(evaluation),
        **extras,
    }
    value, alpha = evaluation.principal_value, evaluation.alpha
    return body, [_csv_row(config, config.tie_break, label, value, alpha)]


def _cmd_eval_policy(config: RunConfig) -> tuple[dict, list[dict]]:
    instance, label = _load_configured_instance(config)
    if config.policy_path is None:
        raise ValueError("eval-policy needs --policy PATH")
    policy = policy_from_json(_read_json(config.policy_path, "policy"))
    validate_policy(instance, policy)
    return _policy_report(config, instance, label, policy)


def _cmd_build_policy(config: RunConfig) -> tuple[dict, list[dict]]:
    instance, label = _load_configured_instance(config)
    extras: dict = {}
    benchmark = None
    if config.method == "threshold":
        policy, cut, prophet = build_threshold_policy(
            instance, config.caps.orderings, config.caps.scenarios
        )
        extras = {
            "threshold": _rational(cut),
            "median_threshold": _rational(samuel_cahn_threshold(instance)),
            "gambler_value": _rational(prophet.gambler_value),
            "prophet_value": _rational(prophet.prophet_value),
        }
    elif config.method == "from-greedy":
        family, prophet = best_greedy_family(
            instance,
            config.caps.family_sets,
            config.caps.orderings,
            config.caps.scenarios,
        )
        policy = policy_from_greedy(family)
        members = [sorted(member) for member in family.maximal]
        members.sort(key=lambda m: (len(m), m))
        extras = {
            "family_maximal_sets": [
                [{"element": e, "x": _rational(x)} for e, x in member]
                for member in members
            ],
            "gambler_value": _rational(prophet.gambler_value),
            "prophet_value": _rational(prophet.prophet_value),
            "family_ratio": _rational(prophet.ratio),
        }
    elif config.method == "composed":
        benchmark = optimal_adaptive_value(
            instance, config.caps.dp_states
        ).expected_value
        policy, probe_set = compose_outer(
            instance,
            lambda restricted: build_threshold_policy(
                restricted, config.caps.orderings, config.caps.scenarios
            )[0],
            config.caps.outer_sets,
            config.caps.dp_states,
            benchmark,
        )
        extras = {"probe_set": sorted(probe_set)}
    else:
        raise ValueError("build-policy needs --method threshold|from-greedy|composed")
    return _policy_report(
        config, instance, label, policy, benchmark, method=config.method, **extras
    )


def _cmd_prophet_check(config: RunConfig) -> tuple[dict, list[dict]]:
    instance, label = _load_configured_instance(config)
    tau = samuel_cahn_threshold(instance)
    family = threshold_family(instance, tau)
    report = evaluate_vs_almighty(
        instance, family, config.caps.orderings, config.caps.scenarios
    )
    body = {
        "command": "prophet-check",
        "instance": label,
        "tau": _rational(tau),
        "gambler_value": _rational(report.gambler_value),
        "prophet_value": _rational(report.prophet_value),
        "ratio": _rational(report.ratio),
    }
    return body, [
        _csv_row(config, config.tie_break, label, report.gambler_value, report.ratio)
    ]


def _cmd_adaptivity(config: RunConfig) -> tuple[dict, list[dict]]:
    instance, label = _load_configured_instance(config)
    adaptive = optimal_adaptive_value(instance, config.caps.dp_states)
    nonadaptive = best_nonadaptive_set(
        instance,
        config.caps.outer_sets,
        config.caps.dp_states,
        adaptive.expected_value,
    )
    body = {
        "command": "adaptivity",
        "instance": label,
        "adaptive_value": _rational(adaptive.expected_value),
        "dp_state_count": adaptive.state_count,
        "best_set": sorted(nonadaptive.best_set),
        "nonadaptive_value": _rational(nonadaptive.expected_value),
        "ratio_to_adaptive": _rational(nonadaptive.ratio_to_adaptive),
    }
    return body, [
        _csv_row(
            config,
            config.tie_break,
            label,
            nonadaptive.expected_value,
            nonadaptive.ratio_to_adaptive,
        )
    ]


def _stated_menu(instance: Instance, eps: Fraction):
    """The two-lottery menu that beats every deterministic policy here."""
    low = Outcome("1", Fraction(0), Fraction(0))
    high = Outcome("1", 1 / eps, 1 - eps)
    anchor = Outcome("2", Fraction(1), Fraction(1))
    return lottery_menu(
        [
            lottery([({high}, Fraction(1))]),
            lottery([({anchor}, 1 - 2 * eps), ({low}, 2 * eps)]),
        ]
    )


def _cmd_reproduce(config: RunConfig) -> tuple[dict, list[dict]]:
    caps = config.caps
    if config.target in ("prop-lottery-positive", "prop-lottery-negative"):
        positive = config.target == "prop-lottery-positive"
        eps = config.epsilon if config.epsilon is not None else Fraction(1, 4)
        table = "table1" if positive else "table2"
        instance = table1(eps) if positive else table2(eps)
        # ties are part of the negative scenario
        mode = config.tie_break if positive else TieBreak.PRINCIPAL_FAVORING
        benchmark = optimal_adaptive_value(instance, caps.dp_states).expected_value
        gap = oracle.exact_delegation_gap(
            instance, mode, caps.policy_sets, caps.dp_states, benchmark
        )
        body = {
            "command": "reproduce",
            "target": config.target,
            "epsilon": _rational(eps),
            "tie_break": mode.value,
            "non_delegated_value": _rational(benchmark),
            "deterministic_alpha_star": _rational(gap.alpha_star),
        }
        if positive:
            menu = _stated_menu(instance, eps)
            evaluation = evaluate_lottery_menu(
                instance, menu, mode, caps.dp_states, benchmark
            )
            body["lottery_menu"] = menu_to_json(menu)
            body["lottery_value"] = _rational(evaluation.principal_value)
            body["lottery_alpha"] = _rational(evaluation.alpha)
            lottery_command = "reproduce:lottery"
        else:
            menu, evaluation = search_two_lottery_menus(
                instance, config.grid, mode, caps.dp_states, benchmark
            )
            body["grid"] = _rational(config.grid)
            body["best_menu"] = menu_to_json(menu)
            body["best_menu_value"] = _rational(evaluation.principal_value)
            body["best_menu_alpha"] = _rational(evaluation.alpha)
            lottery_command = "reproduce:lottery-search"
        rows = [
            _csv_row(
                config,
                mode,
                table,
                gap.alpha_star * benchmark,
                gap.alpha_star,
                command="reproduce:deterministic",
            ),
            _csv_row(
                config,
                mode,
                table,
                evaluation.principal_value,
                evaluation.alpha,
                command=lottery_command,
            ),
        ]
        return body, rows
    if config.target == "cor-half":
        mode = TieBreak.ADVERSARIAL
        rng = random.Random(config.seed)
        half = Fraction(1, 2)
        min_alpha: Fraction | None = None
        failures = []
        for i in range(config.count):
            instance = random_free_outer_instance(rng)
            policy, _, _ = build_threshold_policy(
                instance, caps.orderings, caps.scenarios
            )
            evaluation = evaluate_policy(instance, policy, mode, caps.dp_states)
            if min_alpha is None or evaluation.alpha < min_alpha:
                min_alpha = evaluation.alpha
            if evaluation.alpha < half:
                failures.append(
                    {"index": i, "instance": instance_to_json(instance)}
                )
        assert min_alpha is not None
        body = {
            "command": "reproduce",
            "target": config.target,
            "seed": config.seed,
            "count": config.count,
            "tie_break": mode.value,
            "min_alpha": _rational(min_alpha),
            "all_at_least_half": not failures,
            "failures": failures,
        }
        rows = [
            _csv_row(
                config,
                mode,
                f"random[seed={config.seed},n={config.count}]",
                min_alpha,
                min_alpha,
                command="reproduce:cor-half",
            )
        ]
        return body, rows
    raise ValueError(f"unknown reproduce target {config.target!r}")


def _csv_row(
    config: RunConfig,
    mode: TieBreak,
    label: str,
    value: Fraction,
    alpha: Fraction,
    command: str | None = None,
) -> dict:
    """One CSV row; `mode` is the tie-break that was actually evaluated."""
    return {
        "command": command or config.command,
        "instance": label,
        "epsilon": str(config.epsilon) if config.epsilon is not None else "",
        "tie_break": mode.value,
        "value_num": value.numerator,
        "value_den": value.denominator,
        "alpha_num": alpha.numerator,
        "alpha_den": alpha.denominator,
    }


CSV_COLUMNS = (
    "command",
    "instance",
    "epsilon",
    "tie_break",
    "value_num",
    "value_den",
    "alpha_num",
    "alpha_den",
    "runtime_ms",
)

_HANDLERS = {
    "gap": _cmd_gap,
    "eval-policy": _cmd_eval_policy,
    "build-policy": _cmd_build_policy,
    "prophet-check": _cmd_prophet_check,
    "adaptivity": _cmd_adaptivity,
    "reproduce": _cmd_reproduce,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delegation-lab",
        description="Exact experiments with delegated stochastic probing mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_instance: bool = True) -> None:
        if with_instance:
            p.add_argument("--instance", help="path to an instance JSON file")
            p.add_argument(
                "--builtin", choices=BUILTIN_NAMES, help="built-in instance name"
            )
        p.add_argument(
            "--epsilon", help="rational parameter for built-in instances, e.g. 1/4"
        )
        p.add_argument(
            "--tie-break",
            choices=["adversarial", "principal-favoring", "lexicographic"],
            default="adversarial",
        )
        p.add_argument("--output", choices=["json", "csv"], default="json")
        p.add_argument(
            "--caps",
            default="",
            help="cap overrides key=value[,key=value...]; also via "
            f"{CAPS_ENV_VAR} environment variable",
        )

    add_common(sub.add_parser("gap", help="exhaustive best deterministic policy"))
    p = sub.add_parser("eval-policy", help="evaluate a policy JSON file")
    add_common(p)
    p.add_argument("--policy", required=True, help="path to a policy JSON file")
    p = sub.add_parser("build-policy", help="construct and evaluate a policy")
    add_common(p)
    p.add_argument(
        "--method", required=True, choices=["threshold", "from-greedy", "composed"]
    )
    add_common(sub.add_parser("prophet-check", help="median-threshold gambler check"))
    add_common(sub.add_parser("adaptivity", help="adaptive vs best fixed probe set"))
    p = sub.add_parser("reproduce", help="re-run the reference experiments")
    p.add_argument(
        "target",
        choices=["prop-lottery-positive", "prop-lottery-negative", "cor-half"],
    )
    add_common(p, with_instance=False)
    p.add_argument("--grid", default="1/100", help="grid step for menu search")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=200)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    caps = _parse_caps(os.environ.get(CAPS_ENV_VAR, ""), Caps())
    caps = _parse_caps(getattr(args, "caps", ""), caps)
    epsilon = None
    if getattr(args, "epsilon", None):
        epsilon = _parse_fraction(args.epsilon)
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
    return RunConfig(
        command=args.command,
        instance_path=getattr(args, "instance", None),
        builtin=getattr(args, "builtin", None),
        epsilon=epsilon,
        tie_break=TieBreak(args.tie_break.replace("-", "_")),
        caps=caps,
        output=args.output,
        grid=_parse_fraction(getattr(args, "grid", "1/100")),
        policy_path=getattr(args, "policy", None),
        method=getattr(args, "method", None),
        target=getattr(args, "target", None),
        seed=getattr(args, "seed", 7),
        count=getattr(args, "count", 200),
    )


def _emit(config: RunConfig, body: dict, rows: list[dict], runtime_ms: int) -> str:
    if config.output == "json":
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({**row, "runtime_ms": runtime_ms})
    return buffer.getvalue()


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        started = time.monotonic()
        body, rows = _HANDLERS[config.command](config)
        runtime_ms = int((time.monotonic() - started) * 1000)
        sys.stdout.write(_emit(config, body, rows, runtime_ms))
        return 0
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
