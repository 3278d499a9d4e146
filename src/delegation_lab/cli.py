"""Command-line interface: load instances, run experiments, emit reports.

All rationals are reported exactly as numerator/denominator pairs together
with a six-place decimal rendering.  JSON reports are canonical (sorted
keys), so identical configurations produce byte-identical output; CSV rows
additionally carry a wall-clock runtime column.  Each command, and each
`reproduce` target, takes only the flags it computes with.

Exit codes: 0 success, 2 validation failure, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction

from . import oracle
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
from .errors import CapacityError, Caps
from .instances import (
    BUILTIN_NAMES,
    Instance,
    Outcome,
    builtin_instance,
    instance_to_json,
    load_instance,
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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse rational {text!r}: {exc}"
        ) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
            limit = int(value)
        except ValueError:
            raise ValueError(f"cap {key!r} needs an integer, got {value!r}") from None
        if limit < 0:
            raise ValueError(f"cap {key!r} must be nonnegative, got {limit}")
        caps = replace(caps, **{key: limit})
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


def _load_instance(args: argparse.Namespace) -> tuple[Instance, str]:
    if args.builtin is not None:
        return builtin_instance(args.builtin, args.epsilon), args.builtin
    if args.instance is None:
        raise ValueError("an instance is required (--instance PATH or --builtin NAME)")
    if args.epsilon is not None:
        raise ValueError("--epsilon applies only to --builtin table1/table2")
    return load_instance(_read_json(args.instance, "instance")), args.instance


def _tie_break(args: argparse.Namespace) -> TieBreak:
    return TieBreak(args.tie_break.replace("-", "_"))


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


def _cmd_gap(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    instance, label = _load_instance(args)
    mode = _tie_break(args)
    benchmark = optimal_adaptive_value(instance, caps).expected_value
    report = oracle.exact_delegation_gap(instance, mode, caps)
    value = report.alpha_star * benchmark
    body = {
        "command": "gap",
        "instance": label,
        "tie_break": mode.value,
        "alpha_star": _rational(report.alpha_star),
        "principal_value": _rational(value),
        "non_delegated_value": _rational(benchmark),
        "policies_enumerated": report.policies_enumerated,
        "best_policy": policy_to_json(report.best_policy, instance, caps),
    }
    return body, [
        _csv_row("gap", label, args.epsilon, mode, value, report.alpha_star)
    ]


def _policy_report(
    args: argparse.Namespace,
    caps: Caps,
    instance: Instance,
    label: str,
    policy: Policy,
    **extras,
) -> tuple[dict, list[list]]:
    """Evaluate `policy` and report it (eval-policy and build-policy)."""
    mode = _tie_break(args)
    evaluation = evaluate_policy(instance, policy, mode, caps)
    body = {
        "command": args.command,
        "instance": label,
        "tie_break": mode.value,
        "policy": policy_to_json(policy, instance, caps),
        "evaluation": _evaluation_json(evaluation),
        **extras,
    }
    value, alpha = evaluation.principal_value, evaluation.alpha
    return body, [_csv_row(args.command, label, args.epsilon, mode, value, alpha)]


def _cmd_eval_policy(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    instance, label = _load_instance(args)
    policy = policy_from_json(_read_json(args.policy, "policy"))
    validate_policy(instance, policy)
    return _policy_report(args, caps, instance, label, policy)


def _cmd_build_policy(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    instance, label = _load_instance(args)
    if args.method == "threshold":
        policy, cut, prophet = build_threshold_policy(instance, caps)
        extras = {
            "threshold": _rational(cut),
            "median_threshold": _rational(samuel_cahn_threshold(instance, caps)),
            "gambler_value": _rational(prophet.gambler_value),
            "prophet_value": _rational(prophet.prophet_value),
        }
    elif args.method == "from-greedy":
        family, prophet = best_greedy_family(instance, caps)
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
    else:  # composed
        policy, probe_set = compose_outer(instance, caps)
        extras = {"probe_set": sorted(probe_set)}
    return _policy_report(
        args, caps, instance, label, policy, method=args.method, **extras
    )


def _cmd_prophet_check(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    instance, label = _load_instance(args)
    tau = samuel_cahn_threshold(instance, caps)
    family = threshold_family(instance, tau)
    report = evaluate_vs_almighty(instance, family, caps)
    body = {
        "command": "prophet-check",
        "instance": label,
        "tau": _rational(tau),
        "gambler_value": _rational(report.gambler_value),
        "prophet_value": _rational(report.prophet_value),
        "ratio": _rational(report.ratio),
    }
    value, ratio = report.gambler_value, report.ratio
    return body, [_csv_row("prophet-check", label, args.epsilon, None, value, ratio)]


def _cmd_adaptivity(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    instance, label = _load_instance(args)
    adaptive = optimal_adaptive_value(instance, caps)
    nonadaptive = best_nonadaptive_set(instance, caps)
    body = {
        "command": "adaptivity",
        "instance": label,
        "adaptive_value": _rational(adaptive.expected_value),
        "dp_state_count": adaptive.state_count,
        "best_set": sorted(nonadaptive.best_set),
        "nonadaptive_value": _rational(nonadaptive.expected_value),
        "ratio_to_adaptive": _rational(nonadaptive.ratio_to_adaptive),
    }
    value, ratio = nonadaptive.expected_value, nonadaptive.ratio_to_adaptive
    return body, [_csv_row("adaptivity", label, args.epsilon, None, value, ratio)]


def _stated_menu(eps: Fraction):
    """The two-lottery menu that beats every deterministic policy on table1."""
    low = Outcome("1", Fraction(0), Fraction(0))
    high = Outcome("1", 1 / eps, 1 - eps)
    anchor = Outcome("2", Fraction(1), Fraction(1))
    return lottery_menu(
        [
            lottery([({high}, Fraction(1))]),
            lottery([({anchor}, 1 - 2 * eps), ({low}, 2 * eps)]),
        ]
    )


def _cmd_lottery(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    """prop-lottery-positive on table1, prop-lottery-negative on table2."""
    positive = args.target == "prop-lottery-positive"
    eps = args.epsilon
    table = "table1" if positive else "table2"
    instance = builtin_instance(table, eps)
    if positive and eps > Fraction(1, 2):
        # the stated menu puts 1 - 2 * eps on the anchor
        raise ValueError(
            f"--epsilon must be at most 1/2 for prop-lottery-positive, got {eps}"
        )
    # ties are part of the negative scenario
    mode = _tie_break(args) if positive else TieBreak.PRINCIPAL_FAVORING
    benchmark = optimal_adaptive_value(instance, caps).expected_value
    gap = oracle.exact_delegation_gap(instance, mode, caps)
    body = {
        "command": "reproduce",
        "target": args.target,
        "epsilon": _rational(eps),
        "tie_break": mode.value,
        "non_delegated_value": _rational(benchmark),
        "deterministic_alpha_star": _rational(gap.alpha_star),
    }
    if positive:
        menu = _stated_menu(eps)
        evaluation = evaluate_lottery_menu(instance, menu, mode, caps)
        body["lottery_menu"] = menu_to_json(menu)
        body["lottery_value"] = _rational(evaluation.principal_value)
        body["lottery_alpha"] = _rational(evaluation.alpha)
        lottery_command = "reproduce:lottery"
    else:
        menu, evaluation = search_two_lottery_menus(instance, args.grid, mode, caps)
        body["grid"] = _rational(args.grid)
        body["best_menu"] = menu_to_json(menu)
        body["best_menu_value"] = _rational(evaluation.principal_value)
        body["best_menu_alpha"] = _rational(evaluation.alpha)
        lottery_command = "reproduce:lottery-search"
    rows = [
        _csv_row(command, table, eps, mode, value, alpha)
        for command, value, alpha in (
            ("reproduce:deterministic", gap.alpha_star * benchmark, gap.alpha_star),
            (lottery_command, evaluation.principal_value, evaluation.alpha),
        )
    ]
    return body, rows


def _cmd_cor_half(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    mode = TieBreak.ADVERSARIAL
    rng = random.Random(args.seed)
    half = Fraction(1, 2)
    min_alpha: Fraction | None = None
    failures = []
    for i in range(args.count):
        instance = random_free_outer_instance(rng)
        policy, _, _ = build_threshold_policy(instance, caps)
        evaluation = evaluate_policy(instance, policy, mode, caps)
        if min_alpha is None or evaluation.alpha < min_alpha:
            min_alpha = evaluation.alpha
        if evaluation.alpha < half:
            failures.append({"index": i, "instance": instance_to_json(instance)})
    assert min_alpha is not None  # argparse refuses --count below 1
    body = {
        "command": "reproduce",
        "target": "cor-half",
        "seed": args.seed,
        "count": args.count,
        "tie_break": mode.value,
        "min_alpha": _rational(min_alpha),
        "all_at_least_half": not failures,
        "failures": failures,
    }
    label = f"random[seed={args.seed},n={args.count}]"
    return body, [
        _csv_row("reproduce:cor-half", label, None, mode, min_alpha, min_alpha)
    ]


def _csv_row(
    command: str,
    label: str,
    epsilon: Fraction | None,
    mode: TieBreak | None,
    value: Fraction,
    alpha: Fraction,
) -> list:
    """One CSV row in `CSV_COLUMNS` order, less `runtime_ms`; `epsilon` and
    `mode` are what was evaluated, or None (an empty column) where the
    command evaluated no such parameter."""
    return [
        command,
        label,
        epsilon,
        mode.value if mode else None,
        value.numerator,
        value.denominator,
        alpha.numerator,
        alpha.denominator,
    ]


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


@functools.cache
def argument_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Each command and each `reproduce` target is a sub-parser holding only
    the flags its handler (set as the `handler` default) computes with.
    """
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output", choices=["json", "csv"], default="json")
    report.add_argument(
        "--caps",
        default="",
        help="cap overrides key=value[,key=value...]; also via "
        f"{CAPS_ENV_VAR} environment variable",
    )
    source = argparse.ArgumentParser(add_help=False)
    either = source.add_mutually_exclusive_group()
    either.add_argument("--instance", help="path to an instance JSON file")
    either.add_argument(
        "--builtin", choices=BUILTIN_NAMES, help="built-in instance name"
    )
    source.add_argument(
        "--epsilon",
        type=_parse_fraction,
        help="rational parameter of --builtin table1/table2, e.g. 1/4",
    )
    ties = argparse.ArgumentParser(add_help=False)
    ties.add_argument(
        "--tie-break",
        choices=[mode.value.replace("_", "-") for mode in TieBreak],
        default="adversarial",
    )
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument(
        "--epsilon",
        type=_parse_fraction,
        default=Fraction(1, 4),
        help="rational parameter of the table instance",
    )

    def add(group, name, handler, help, *parents):
        p = group.add_parser(name, parents=[*parents, report], help=help)
        p.set_defaults(handler=handler)
        return p

    parser = argparse.ArgumentParser(
        prog="delegation-lab",
        description="Exact experiments with delegated stochastic probing mechanisms.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    add(commands, "gap", _cmd_gap, "exhaustive best deterministic policy", source, ties)
    p = add(
        commands, "eval-policy", _cmd_eval_policy, "evaluate a policy JSON file", source, ties
    )
    p.add_argument("--policy", required=True, help="path to a policy JSON file")
    p = add(
        commands, "build-policy", _cmd_build_policy, "construct and evaluate a policy", source, ties
    )
    p.add_argument(
        "--method", required=True, choices=["threshold", "from-greedy", "composed"]
    )
    add(commands, "prophet-check", _cmd_prophet_check, "median-threshold gambler check", source)
    add(commands, "adaptivity", _cmd_adaptivity, "adaptive vs best fixed probe set", source)
    targets = commands.add_parser(
        "reproduce", help="re-run the reference experiments"
    ).add_subparsers(dest="target", required=True)
    add(targets, "prop-lottery-positive", _cmd_lottery, "table1: the stated menu", table, ties)
    p = add(targets, "prop-lottery-negative", _cmd_lottery, "table2: menu grid search", table)
    p.add_argument(
        "--grid",
        type=_parse_fraction,
        default=Fraction(1, 100),
        help="grid step for menu search",
    )
    p = add(targets, "cor-half", _cmd_cor_half, "threshold policies on seeded random instances")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=_positive_int, default=200)
    return parser


def _emit(output: str, body: dict, rows: list[list], runtime_ms: int) -> str:
    if output == "json":
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([*row, runtime_ms] for row in rows)
    return buffer.getvalue()


def run(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code."""
    try:
        args = argument_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return exc.code
    try:
        caps = _parse_caps(os.environ.get(CAPS_ENV_VAR, ""), Caps())
        caps = _parse_caps(args.caps, caps)
        started = time.monotonic()
        body, rows = args.handler(args, caps)
        runtime_ms = int((time.monotonic() - started) * 1000)
        sys.stdout.write(_emit(args.output, body, rows, runtime_ms))
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
