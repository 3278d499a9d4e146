"""Command-line interface: load instances, run experiments, emit reports.

All rationals are reported exactly as numerator/denominator pairs together
with a six-place decimal rendering, which the emitter (`_emit`) writes for
every `Fraction` in a report.  JSON reports are canonical (sorted keys), so
identical configurations produce byte-identical output; CSV rows
additionally carry a wall-clock runtime column.  Each command, and each
`reproduce` target, takes only the flags it computes with; its handler
returns only its own fields and rows, and `_report` writes every header and
CSV row.

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
    """The JSON rendering of every reported rational."""
    return {
        "num": value.numerator,
        "den": value.denominator,
        "approx": f"{float(value):.6f}",
    }


def _rendered(value):
    """A report's JSON tree with every `Fraction` in it rendered by `_rational`.

    One walk before the encoder, not its `default` hook: the encoder's
    pure-Python indenting path passes every chunk of a `default` result up
    two more generator levels, about 6 us more on the seven-field
    `adaptivity` report (Python 3.11, 2-vCPU VM), a quarter of its encoding.
    """
    kind = type(value)
    if kind is Fraction:
        return _rational(value)
    if kind is dict:
        return {key: _rendered(item) for key, item in value.items()}
    if kind is list:
        return [_rendered(item) for item in value]
    return value


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid {what} JSON: {exc}") from None


# Each handler takes from `_report` the parsed arguments, the `Caps`, the
# `Instance` (None for cor-half) and the `TieBreak` (None where no tie-break
# is evaluated), and returns its own fields and its (CSV command, value,
# alpha) rows.
Rows = list[tuple[str, Fraction, Fraction]]


def _load_instance(args: argparse.Namespace) -> tuple[Instance, str]:
    if args.builtin is not None:
        return builtin_instance(args.builtin, args.epsilon), args.builtin
    if args.instance is None:
        raise ValueError("an instance is required (--instance PATH or --builtin NAME)")
    if args.epsilon is not None:
        raise ValueError("--epsilon applies only to --builtin table1/table2")
    return load_instance(_read_json(args.instance, "instance")), args.instance


def _cmd_gap(args, caps, instance, mode) -> tuple[dict, Rows]:
    report = oracle.exact_delegation_gap(instance, mode, caps)
    fields = {
        "alpha_star": report.alpha_star,
        "principal_value": report.principal_value,
        "non_delegated_value": report.benchmark_value,
        "policies_enumerated": report.policies_enumerated,
        "best_policy": policy_to_json(report.best_policy, instance, caps),
    }
    return fields, [("gap", report.principal_value, report.alpha_star)]


def _policy_report(args, caps, instance, mode, policy: Policy, **extras) -> tuple[dict, Rows]:
    """Evaluate `policy` and report it (eval-policy and build-policy)."""
    evaluation = evaluate_policy(instance, policy, mode, caps)
    distribution = sorted(evaluation.probe_distribution.items(), key=lambda i: sorted(i[0]))
    fields = {
        "policy": policy_to_json(policy, instance, caps),
        "evaluation": {
            "principal_value": evaluation.principal_value,
            "agent_value": evaluation.agent_value,
            "non_delegated_value": evaluation.benchmark_value,
            "alpha": evaluation.alpha,
            "probe_distribution": [{"probed": sorted(s), "p": p} for s, p in distribution],
        },
        **extras,
    }
    return fields, [(args.command, evaluation.principal_value, evaluation.alpha)]


def _cmd_eval_policy(args, caps, instance, mode) -> tuple[dict, Rows]:
    policy = policy_from_json(_read_json(args.policy, "policy"))
    validate_policy(instance, policy)
    return _policy_report(args, caps, instance, mode, policy)


def _cmd_build_policy(args, caps, instance, mode) -> tuple[dict, Rows]:
    if args.method == "threshold":
        policy, cut, prophet = build_threshold_policy(instance, caps)
        extras = {
            "threshold": cut,
            "median_threshold": samuel_cahn_threshold(instance, caps),
            "gambler_value": prophet.gambler_value,
            "prophet_value": prophet.prophet_value,
        }
    elif args.method == "from-greedy":
        family, prophet = best_greedy_family(instance, caps)
        policy = policy_from_greedy(family)
        members = sorted(map(sorted, family.maximal), key=lambda m: (len(m), m))
        extras = {
            "family_maximal_sets": [
                [{"element": e, "x": x} for e, x in member] for member in members
            ],
            "gambler_value": prophet.gambler_value,
            "prophet_value": prophet.prophet_value,
            "family_ratio": prophet.ratio,
        }
    else:  # composed
        policy, probe_set = compose_outer(instance, caps)
        extras = {"probe_set": sorted(probe_set)}
    return _policy_report(args, caps, instance, mode, policy, method=args.method, **extras)


def _cmd_prophet_check(args, caps, instance, _mode) -> tuple[dict, Rows]:
    tau = samuel_cahn_threshold(instance, caps)
    report = evaluate_vs_almighty(instance, threshold_family(instance, tau), caps)
    fields = {
        "tau": tau,
        "gambler_value": report.gambler_value,
        "prophet_value": report.prophet_value,
        "ratio": report.ratio,
    }
    return fields, [("prophet-check", report.gambler_value, report.ratio)]


def _cmd_adaptivity(args, caps, instance, _mode) -> tuple[dict, Rows]:
    adaptive = optimal_adaptive_value(instance, caps)
    nonadaptive = best_nonadaptive_set(instance, caps)
    value, ratio = nonadaptive.expected_value, nonadaptive.ratio_to_adaptive
    fields = {
        "adaptive_value": adaptive.expected_value,
        "dp_state_count": adaptive.state_count,
        "best_set": sorted(nonadaptive.best_set),
        "nonadaptive_value": value,
        "ratio_to_adaptive": ratio,
    }
    return fields, [("adaptivity", value, ratio)]


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


def _cmd_lottery(args, caps, instance, mode) -> tuple[dict, Rows]:
    """prop-lottery-positive on table1, prop-lottery-negative on table2 (each
    target's `--builtin` default)."""
    eps = args.epsilon
    positive = args.target == "prop-lottery-positive"
    if positive and eps > Fraction(1, 2):
        # the stated menu puts 1 - 2 * eps on the anchor
        raise ValueError(
            f"--epsilon must be at most 1/2 for prop-lottery-positive, got {eps}"
        )
    gap = oracle.exact_delegation_gap(instance, mode, caps)
    fields = {
        "epsilon": eps,
        "non_delegated_value": gap.benchmark_value,
        "deterministic_alpha_star": gap.alpha_star,
    }
    if positive:
        menu = _stated_menu(eps)
        evaluation = evaluate_lottery_menu(instance, menu, mode, caps)
        fields["lottery_menu"] = menu_to_json(menu)
        fields["lottery_value"] = evaluation.principal_value
        fields["lottery_alpha"] = evaluation.alpha
        lottery_command = "reproduce:lottery"
    else:
        menu, evaluation = search_two_lottery_menus(instance, args.grid, mode, caps)
        fields["grid"] = args.grid
        fields["best_menu"] = menu_to_json(menu)
        fields["best_menu_value"] = evaluation.principal_value
        fields["best_menu_alpha"] = evaluation.alpha
        lottery_command = "reproduce:lottery-search"
    return fields, [
        ("reproduce:deterministic", gap.principal_value, gap.alpha_star),
        (lottery_command, evaluation.principal_value, evaluation.alpha),
    ]


def _cmd_cor_half(args, caps, _instance, mode) -> tuple[dict, Rows]:
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
    fields = {
        "seed": args.seed,
        "count": args.count,
        "min_alpha": min_alpha,
        "all_at_least_half": not failures,
        "failures": failures,
    }
    return fields, [("reproduce:cor-half", min_alpha, min_alpha)]


def _report(args: argparse.Namespace, caps: Caps) -> tuple[dict, list[list]]:
    """Run the handler; the one place a report's header and CSV rows are written.

    The instance commands and the lottery targets (whose table is their
    `--builtin` default) read their instance here; cor-half draws its own.
    A command evaluates a tie-break mode iff it has a `tie_break` (a flag, or
    a target's fixed default); the header names its `target` if it is a
    `reproduce` target, else its `instance`.  Each CSV row is in
    `CSV_COLUMNS` order less `runtime_ms`; its `epsilon` and `tie_break` are
    what was evaluated, or None (an empty column) where nothing was.
    """
    tie_break = getattr(args, "tie_break", None)
    mode = TieBreak(tie_break.replace("-", "_")) if tie_break else None
    if hasattr(args, "builtin"):
        instance, label = _load_instance(args)
    else:
        instance, label = None, f"random[seed={args.seed},n={args.count}]"
    fields, rows = args.handler(args, caps, instance, mode)
    header = {"command": args.command}
    if hasattr(args, "target"):
        header["target"] = args.target
    else:
        header["instance"] = label
    if mode is not None:
        header["tie_break"] = mode.value
    epsilon = getattr(args, "epsilon", None)
    return {**header, **fields}, [
        [command, label, epsilon, header.get("tie_break")]
        + [value.numerator, value.denominator, alpha.numerator, alpha.denominator]
        for command, value, alpha in rows
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
    p = add(targets, "prop-lottery-positive", _cmd_lottery, "table1: the stated menu", table, ties)
    p.set_defaults(builtin="table1")
    p = add(targets, "prop-lottery-negative", _cmd_lottery, "table2: menu grid search", table)
    # ties are part of the negative scenario
    p.set_defaults(builtin="table2", tie_break="principal-favoring")
    p.add_argument(
        "--grid",
        type=_parse_fraction,
        default=Fraction(1, 100),
        help="grid step for menu search",
    )
    p = add(targets, "cor-half", _cmd_cor_half, "threshold policies on seeded random instances")
    p.set_defaults(tie_break="adversarial")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=_positive_int, default=200)
    return parser


# The canonical JSON form of every report, built once; `_rendered` has
# walked the tree, so the encoder need not check it for cycles.
_JSON = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False)


def _emit(output: str, body: dict, rows: list[list], runtime_ms: int) -> str:
    if output == "json":
        return _JSON.encode(_rendered(body)) + "\n"
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
        body, rows = _report(args, caps)
        runtime_ms = int((time.monotonic() - started) * 1000)
        sys.stdout.write(_emit(args.output, body, rows, runtime_ms))
        return 0
    except CapacityError as exc:
        print(f"capacity error: {exc} [cap {exc.cap}={exc.limit}]", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
