import csv
import io
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delegation_lab import probing
from delegation_lab.cli import argument_parser, run
from delegation_lab.instances import instance_to_json, table2

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gap_table2_principal_favoring(capsys):
    code, out, _ = run_cli(
        capsys,
        "gap",
        "--builtin",
        "table2",
        "--epsilon",
        "1/2",
        "--tie-break",
        "principal-favoring",
    )
    assert code == 0
    report = json.loads(out)
    assert report["alpha_star"]["num"] == 2
    assert report["alpha_star"]["den"] == 3
    assert report["policies_enumerated"] == 8


def test_reproduce_lottery_positive(capsys):
    code, out, _ = run_cli(
        capsys, "reproduce", "prop-lottery-positive", "--epsilon", "1/4"
    )
    assert code == 0
    report = json.loads(out)
    assert (report["deterministic_alpha_star"]["num"],
            report["deterministic_alpha_star"]["den"]) == (4, 7)
    assert (report["lottery_alpha"]["num"], report["lottery_alpha"]["den"]) == (11, 14)


def test_reproduce_lottery_negative(capsys):
    code, out, _ = run_cli(
        capsys,
        "reproduce",
        "prop-lottery-negative",
        "--epsilon",
        "1/4",
        "--grid",
        "1/10",
    )
    assert code == 0
    report = json.loads(out)
    assert (report["deterministic_alpha_star"]["num"],
            report["deterministic_alpha_star"]["den"]) == (4, 7)
    assert (report["best_menu_value"]["num"], report["best_menu_value"]["den"]) == (1, 1)


def test_reproduce_cor_half_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "reproduce", "cor-half", "--count", "10", "--seed", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_at_least_half"] is True
    assert Fraction(report["min_alpha"]["num"], report["min_alpha"]["den"]) >= Fraction(1, 2)


def test_prophet_check_coins(capsys):
    code, out, _ = run_cli(capsys, "prophet-check", "--builtin", "coins2")
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == {"num": 1, "den": 1, "approx": "1.000000"}
    assert report["gambler_value"]["num"] == 3
    assert report["gambler_value"]["den"] == 4


def test_adaptivity_builtin(capsys):
    code, out, _ = run_cli(capsys, "adaptivity", "--builtin", "table1", "--epsilon", "1/4")
    assert code == 0
    report = json.loads(out)
    assert report["adaptive_value"] == {"num": 7, "den": 4, "approx": "1.750000"}
    assert report["ratio_to_adaptive"]["num"] == 1


def test_eval_policy_file(tmp_path, capsys):
    instance_path = tmp_path / "table2.json"
    instance_path.write_text(json.dumps(instance_to_json(table2(Fraction(1, 4)))))
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({"kind": "x-threshold", "tau": [1, 1]}))
    code, out, _ = run_cli(
        capsys,
        "eval-policy",
        "--instance",
        str(instance_path),
        "--policy",
        str(policy_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["evaluation"]["principal_value"]["num"] == 1
    assert report["evaluation"]["alpha"] == {"num": 4, "den": 7, "approx": "0.571429"}


@pytest.mark.parametrize("method", ["threshold", "from-greedy", "composed"])
def test_build_policy_methods(method, capsys):
    code, out, _ = run_cli(
        capsys,
        "build-policy",
        "--builtin",
        "table1",
        "--epsilon",
        "1/4",
        "--method",
        method,
    )
    assert code == 0
    report = json.loads(out)
    value = Fraction(
        report["evaluation"]["principal_value"]["num"],
        report["evaluation"]["principal_value"]["den"],
    )
    assert value >= Fraction(1, 2) * Fraction(7, 4)


def test_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "gap", "--builtin", "table1", "--epsilon", "1/3")
    _, second, _ = run_cli(capsys, "gap", "--builtin", "table1", "--epsilon", "1/3")
    assert first == second


def test_json_report_round_trips(capsys):
    _, out, _ = run_cli(capsys, "gap", "--builtin", "table1", "--epsilon", "1/3")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_csv_output_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "gap",
        "--builtin",
        "table2",
        "--epsilon",
        "1/2",
        "--tie-break",
        "principal-favoring",
        "--output",
        "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == (
        "command,instance,epsilon,tie_break,value_num,value_den,"
        "alpha_num,alpha_den,runtime_ms"
    )
    fields = row.split(",")
    assert fields[0] == "gap"
    assert fields[1] == "table2"
    assert fields[2] == "1/2"
    assert (fields[4], fields[5]) == ("1", "1")
    assert (fields[6], fields[7]) == ("2", "3")


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"elements\": []}")
    code, out, err = run_cli(capsys, "gap", "--instance", str(bad))
    assert code == 2
    assert "error" in err


def test_missing_instance_exit_code(capsys):
    code, _, err = run_cli(capsys, "gap")
    assert code == 2
    assert "instance is required" in err


def test_bad_epsilon_exit_code(capsys):
    code, _, err = run_cli(capsys, "gap", "--builtin", "table1", "--epsilon", "3/2")
    assert code == 2
    assert "epsilon" in err


def test_capacity_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "gap",
        "--builtin",
        "table1",
        "--epsilon",
        "1/4",
        "--caps",
        "policy_sets=1",
    )
    assert code == 3
    assert "capacity" in err


def test_caps_env_override(monkeypatch, capsys):
    monkeypatch.setenv("DELEGATION_LAB_CAPS", "policy_sets=1")
    code, _, err = run_cli(capsys, "gap", "--builtin", "table1", "--epsilon", "1/4")
    assert code == 3
    # explicit flag wins over the environment
    monkeypatch.setenv("DELEGATION_LAB_CAPS", "policy_sets=1")
    code, out, _ = run_cli(
        capsys,
        "gap",
        "--builtin",
        "table1",
        "--epsilon",
        "1/4",
        "--caps",
        "policy_sets=20",
    )
    assert code == 0


def test_unknown_cap_rejected(capsys):
    code, _, err = run_cli(
        capsys, "gap", "--builtin", "coins2", "--caps", "bogus=3"
    )
    assert code == 2
    assert "unknown cap" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prophet-check", "--builtin", "coins2"], "scenario count 4 exceeds cap 1"),
        (
            ["build-policy", "--builtin", "coins2", "--method", "threshold"],
            "scenario count 4 exceeds cap 1",
        ),
        (
            ["build-policy", "--builtin", "coins2", "--method", "from-greedy"],
            "scenario count 4 exceeds cap 1",
        ),
        (
            ["build-policy", "--builtin", "coins2", "--method", "composed"],
            "scenario count 4 exceeds cap 1",
        ),
        (["reproduce", "cor-half", "--count", "3"], "exceeds cap 1"),
        (["adaptivity", "--builtin", "coins2"], "scenario count 4 exceeds cap 1"),
    ],
)
def test_scenario_cap_is_honoured(argv, message, capsys):
    # cor-half's first random instance (seed 7) has more than one scenario
    code, _, err = run_cli(capsys, *argv, "--caps", "scenarios=1")
    assert code == 3
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "cor-half", "--count", "2"],
        ["reproduce", "prop-lottery-negative", "--grid", "1/2"],
        ["reproduce", "prop-lottery-positive", "--tie-break", "principal-favoring"],
        ["gap", "--builtin", "coins2", "--tie-break", "lexicographic"],
    ],
)
def test_csv_rows_carry_the_evaluated_tie_break(argv, capsys):
    _, out, _ = run_cli(capsys, *argv)
    evaluated = json.loads(out)["tie_break"]
    code, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(row["tie_break"] == evaluated for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--builtin", "table1", "--epsilon", "1/3"],
        ["adaptivity", "--builtin", "coins2"],
        ["build-policy", "--builtin", "coins2", "--method", "composed"],
        ["build-policy", "--builtin", "coins2", "--method", "threshold"],
        ["reproduce", "prop-lottery-positive"],
        ["reproduce", "prop-lottery-negative", "--grid", "1/2"],
    ],
)
def test_one_adaptive_dp_per_command(argv, monkeypatch, capsys):
    original = probing.optimal_adaptive_value
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("delegation_lab") and getattr(
            module, "optimal_adaptive_value", None
        ) is original:
            monkeypatch.setattr(module, "optimal_adaptive_value", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, epsilon, tie_break",
    [
        (["reproduce", "prop-lottery-positive"], "1/4", "adversarial"),
        (
            ["reproduce", "prop-lottery-negative", "--grid", "1/2"],
            "1/4",
            "principal_favoring",
        ),
        (["reproduce", "cor-half", "--count", "2"], "", "adversarial"),
        (["prophet-check", "--builtin", "table1", "--epsilon", "1/3"], "1/3", ""),
        (["adaptivity", "--builtin", "table1", "--epsilon", "1/3"], "1/3", ""),
    ],
)
def test_csv_columns_state_what_was_evaluated(argv, epsilon, tie_break, capsys):
    # empty: the command evaluates no epsilon, or no delegation tie-break
    _, out, _ = run_cli(capsys, *argv)
    report = json.loads(out)
    if "epsilon" in report:  # the lottery targets' default
        assert f"{report['epsilon']['num']}/{report['epsilon']['den']}" == epsilon
    code, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert all((r["epsilon"], r["tie_break"]) == (epsilon, tie_break) for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["prophet-check", "--builtin", "coins2", "--tie-break", "adversarial"],
        ["adaptivity", "--builtin", "coins2", "--tie-break", "adversarial"],
        ["reproduce", "prop-lottery-negative", "--tie-break", "adversarial"],
        ["reproduce", "cor-half", "--tie-break", "principal-favoring"],
        ["reproduce", "cor-half", "--epsilon", "1/3"],
        ["reproduce", "prop-lottery-positive", "--grid", "1/2"],
        ["reproduce", "cor-half", "--grid", "1/2"],
        ["reproduce", "prop-lottery-positive", "--seed", "1"],
        ["reproduce", "prop-lottery-positive", "--count", "1"],
        ["reproduce", "prop-lottery-negative", "--seed", "1"],
        ["reproduce", "prop-lottery-negative", "--count", "1"],
        ["gap", "--builtin", "coins2", "--epsilon", "1/4"],
        [
            "adaptivity",
            "--instance",
            str(ROOT / "tests" / "golden" / "matroid_outer.instance.json"),
            "--epsilon",
            "1/4",
        ],
    ],
)
def test_flags_a_command_does_not_use_are_refused(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err


def test_parser_is_built_once():
    assert argument_parser() is argument_parser()


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [l for l in section.splitlines() if l.startswith("delegation-lab ")]
    covered = set()
    for line in lines:
        args = argument_parser().parse_args(shlex.split(line)[1:])
        covered.add(getattr(args, "target", args.command))
    assert covered == {
        "gap",
        "eval-policy",
        "build-policy",
        "prophet-check",
        "adaptivity",
        "prop-lottery-positive",
        "prop-lottery-negative",
        "cor-half",
    }
