import csv
import functools
import io
import json
import re
import shlex
import time
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from delegation_lab import cli, instances, probing
from delegation_lab.cli import Caps, argument_parser, run
from delegation_lab.instances import instance_to_json, load_instance, table2
from delegation_lab.prophet import scenario_table

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


def test_cor_half_reports_each_failure_with_its_instance(capsys, monkeypatch):
    # the seeded draw never fails (with y > 0 under a free outer constraint
    # the tuned threshold's alpha is at least 1/2), so every evaluation is
    # read as 1/3: each draw is then a failure, reported with its instance
    drawn = []
    evaluate = cli.evaluate_policy

    def one_third(instance, *args):
        drawn.append(instance)
        return replace(evaluate(instance, *args), alpha=Fraction(1, 3))

    monkeypatch.setattr(cli, "evaluate_policy", one_third)
    code, out, _ = run_cli(capsys, "reproduce", "cor-half", "--count", "2")
    assert code == 0
    report = json.loads(out)
    assert report["all_at_least_half"] is False
    assert Fraction(report["min_alpha"]["num"], report["min_alpha"]["den"]) == Fraction(1, 3)
    assert [failure["index"] for failure in report["failures"]] == [0, 1]
    assert [load_instance(failure["instance"]) for failure in report["failures"]] == drawn


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


@pytest.mark.parametrize("element", [["1"], {"id": "1"}, 1])
def test_eval_policy_refuses_a_non_string_outcome_id(element, tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    member = [{"element": element, "x": [1, 1], "y": [1, 1]}]
    policy_path.write_text(json.dumps({"kind": "explicit", "acceptable": [member]}))
    code, out, err = run_cli(
        capsys,
        "eval-policy",
        "--builtin",
        "coins2",
        "--policy",
        str(policy_path),
    )
    assert (code, out) == (2, "")
    assert "element ids must be strings" in err


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


def test_threshold_build_walks_the_median_once(monkeypatch, capsys):
    # `build_threshold_policy` and the report's `median_threshold` both read
    # the scenario table's cached median: its rows are sorted once
    sorts = []

    def counting_sorted(rows, **kwargs):
        sorts.append(list(rows))
        return sorted(sorts[-1], **kwargs)

    probing.probing_graph.cache_clear()
    monkeypatch.setattr(probing, "sorted", counting_sorted, raising=False)
    code, out, _ = run_cli(capsys, "build-policy", "--builtin", "coins2", "--method", "threshold")
    assert code == 0
    golden = ROOT / "tests" / "golden" / "build_policy_threshold_coins2.json"
    assert out == golden.read_text(encoding="utf-8")
    rows = list(scenario_table(instances.coins2()).full_probes)
    assert len(rows) == 4
    assert sum(1 for sorted_rows in sorts if sorted_rows == rows) == 1


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


def test_removed_outer_sets_cap_is_unknown(monkeypatch, capsys):
    code, out, err = run_cli(
        capsys, "adaptivity", "--builtin", "coins2", "--caps", "outer_sets=5"
    )
    assert (code, out) == (2, "")
    assert "unknown cap 'outer_sets'" in err
    monkeypatch.setenv("DELEGATION_LAB_CAPS", "outer_sets=5")
    code, out, err = run_cli(capsys, "adaptivity", "--builtin", "coins2")
    assert (code, out) == (2, "")
    assert "unknown cap 'outer_sets'" in err


def test_removed_orderings_cap_is_unknown(capsys):
    code, out, err = run_cli(
        capsys, "prophet-check", "--builtin", "coins2", "--caps", "orderings=1"
    )
    assert (code, out) == (2, "")
    assert (
        "unknown cap 'orderings'; valid: "
        "['dp_states', 'family_sets', 'policy_sets', 'scenarios']"
    ) in err


def test_adaptivity_builds_no_scenario(capsys):
    code, out, _ = run_cli(
        capsys, "adaptivity", "--builtin", "coins2", "--caps", "scenarios=1"
    )
    assert code == 0
    assert json.loads(out)["dp_state_count"] == 9


def _write_instance(path, supports, outer):
    """Elements e0, e1, ... with equally likely (x, y) atoms, 1-uniform inner."""
    elements = [
        {
            "id": f"e{i}",
            "support": [
                {"x": [x, 1], "y": [y, 1], "p": [1, len(atoms)]} for x, y in atoms
            ],
        }
        for i, atoms in enumerate(supports)
    ]
    obj = {"elements": elements, "outer": outer, "inner": {"kind": "uniform", "k": 1}}
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "argv, supports, outer, value",
    [
        # 10! orderings of one scenario
        (
            ["prophet-check"],
            [[(i + 1, 2 * i + 1)] for i in range(10)],
            {"kind": "free"},
            ("gambler_value", 10, 1),
        ),
        # 9! x 2^9 orderings, 3^9 free-outer states
        (
            ["prophet-check"],
            [[(i % 3, 1), (i + 2, i + 1)] for i in range(9)],
            {"kind": "free"},
            ("gambler_value", 7, 1),
        ),
        (
            ["build-policy", "--method", "threshold"],
            [[(i % 3, 1), (i + 2, i + 1)] for i in range(9)],
            {"kind": "free"},
            ("gambler_value", 15, 2),
        ),
        # 2^20 scenarios, 41 probing states
        (
            ["adaptivity"],
            [[(i % 4, 1), (i + 3, 2)] for i in range(20)],
            {"kind": "uniform", "k": 1},
            ("nonadaptive_value", 25, 2),
        ),
    ],
)
def test_no_cap_refuses_what_is_not_built(
    argv, supports, outer, value, tmp_path, capsys
):
    path = _write_instance(tmp_path / "instance.json", supports, outer)
    code, out, _ = run_cli(capsys, *argv, "--instance", path)
    assert code == 0
    key, num, den = value
    report = json.loads(out)
    assert (report[key]["num"], report[key]["den"]) == (num, den)


def test_from_greedy_refuses_a_large_lattice_quickly(tmp_path, capsys):
    # 20 two-atom elements under a 1-uniform inner constraint: the lattice
    # count walks its 21 inner-feasible element sets, not all 2^20 subsets
    supports = [[(i % 4, 1), (i + 3, 2)] for i in range(20)]
    path = _write_instance(tmp_path / "instance.json", supports, {"kind": "uniform", "k": 1})
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "build-policy", "--instance", path, "--method", "from-greedy"
    )
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "candidate family lattice 2^40 exceeds cap 1000000" in err


def _refuse(*args):
    raise AssertionError("built before the cap was checked")


def test_gap_refuses_many_proposal_rows_before_building_one(tmp_path, capsys, monkeypatch):
    # 12 two-atom elements under free outer and inner constraints: 3^12
    # states, all but the root proposable; the count's walk stops at the 12
    # singletons' 24 rows, past the cap of 20, so no graph is compiled and
    # the benchmark is not solved for a refused oracle
    elements = [
        {
            "id": f"e{i}",
            "support": [
                {"x": [x, 1], "y": [y, 1], "p": [1, 2]} for x, y in [(i % 3, 1), (i + 2, 2)]
            ],
        }
        for i in range(12)
    ]
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps({"elements": elements, "outer": {"kind": "free"}, "inner": {"kind": "free"}})
    )
    monkeypatch.setattr(probing.ProbingGraph, "proposals", property(_refuse))
    monkeypatch.setattr(probing, "probing_graph", _refuse)
    monkeypatch.setattr("delegation_lab.oracle.probing_graph", _refuse)
    monkeypatch.setattr("delegation_lab.cli.optimal_adaptive_value", _refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gap", "--instance", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        "capacity error: inner-feasible outcome sets exceed cap 20 (count reached 24)"
        " [cap policy_sets=20]\n"
    )


def test_readme_lists_exactly_the_caps():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"Capacity caps \((.*?)\)", readme, re.DOTALL)
    assert listed is not None
    assert re.findall(r"`(\w+)`", listed.group(1)) == [f.name for f in fields(Caps)]


@pytest.mark.parametrize("key", [f.name for f in fields(Caps)])
def test_negative_caps_are_validation_errors(key, monkeypatch, capsys):
    code, out, err = run_cli(
        capsys, "gap", "--builtin", "coins2", "--caps", f"{key}=-1"
    )
    assert (code, out) == (2, "")
    assert f"cap {key!r} must be nonnegative, got -1" in err
    monkeypatch.setenv("DELEGATION_LAB_CAPS", f"{key}=-2")
    code, out, err = run_cli(capsys, "gap", "--builtin", "coins2")
    assert (code, out) == (2, "")
    assert f"cap {key!r} must be nonnegative, got -2" in err


def test_lottery_positive_epsilon_is_at_most_one_half(capsys):
    # the stated menu puts 1 - 2 * epsilon on the anchor
    code, out, err = run_cli(
        capsys, "reproduce", "prop-lottery-positive", "--epsilon", "3/4"
    )
    assert (code, out) == (2, "")
    assert "--epsilon must be at most 1/2" in err
    code, out, _ = run_cli(
        capsys, "reproduce", "prop-lottery-positive", "--epsilon", "1/2"
    )
    assert code == 0
    epsilon = json.loads(out)["epsilon"]
    assert (epsilon["num"], epsilon["den"]) == (1, 2)


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
    # count computations of the adaptive solve, on a cold graph cache
    probing.probing_graph.cache_clear()
    descriptor = vars(probing.ProbingGraph)["adaptive"]
    assert isinstance(descriptor, functools.cached_property)
    calls = []

    def counted(graph):
        calls.append(graph)
        return descriptor.func(graph)

    fresh = functools.cached_property(counted)
    fresh.__set_name__(probing.ProbingGraph, "adaptive")
    monkeypatch.setattr(probing.ProbingGraph, "adaptive", fresh)
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


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cor_half_count_below_one_is_a_usage_error(count, capsys):
    code, out, err = run_cli(capsys, "reproduce", "cor-half", "--count", count)
    assert code == 2
    assert out == ""
    assert "--count: must be at least 1" in err
    assert "Traceback" not in err


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


def test_constrained_outer_build_policy_compiles_each_graph_once(capsys):
    # the instance's matroid-outer graph (best fixed set, then the policy's
    # evaluation) and the free-outer graph of the set it restricts to
    probing.probing_graph.cache_clear()
    instance = str(ROOT / "tests" / "golden" / "matroid_outer.instance.json")
    code, _, _ = run_cli(
        capsys, "build-policy", "--instance", instance, "--method", "composed"
    )
    assert code == 0
    assert probing.probing_graph.cache_info().misses == 2


def test_composed_policy_reads_proposals_off_the_compiled_graph(
    tmp_path, capsys, monkeypatch
):
    # 20 elements under outer k=1: a 41-state graph, but 2^20 inner-feasible
    # element sets, which the policy report must not walk
    supports = [[(i % 4, 1), (i + 3, 2)] for i in range(20)]
    path = _write_instance(tmp_path / "instance.json", supports, {"kind": "uniform", "k": 1})

    def refuse(*args, **kwargs):
        raise AssertionError("walked the inner constraint's feasible sets")

    monkeypatch.setattr(instances, "iter_feasible_sets", refuse)
    code, out, _ = run_cli(
        capsys, "build-policy", "--instance", path, "--method", "composed"
    )
    assert code == 0
    report = json.loads(out)
    assert report["probe_set"] == ["e19"]
    assert len(report["policy"]["acceptable"]) == 2
