"""Byte-for-byte pins of the CLI's JSON reports and CSV rows.

Each case runs one CLI invocation from inside `tests/golden/` (reports echo
`--instance` paths, so the paths are fixed and relative) and compares its
standard output with `tests/golden/<case>.json`, and its `--output csv`
output with `tests/golden/<case>.csv` once each row's wall-clock
`runtime_ms` (the last column) is emptied.  The expected JSON files were
written by the library before its probing engine was unified; any change to
a report's bytes fails here.

To rewrite the expected files after an intended report change:

    PYTHONPATH=src python tests/test_golden_json.py
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from delegation_lab.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "gap_table1_third": ["gap", "--builtin", "table1", "--epsilon", "1/3"],
    "gap_table2_half_principal": [
        "gap",
        "--builtin",
        "table2",
        "--epsilon",
        "1/2",
        "--tie-break",
        "principal-favoring",
    ],
    "gap_coins2_lexicographic": [
        "gap",
        "--builtin",
        "coins2",
        "--tie-break",
        "lexicographic",
    ],
    "eval_policy_threshold": [
        "eval-policy",
        "--instance",
        "table2_quarter.instance.json",
        "--policy",
        "threshold_one.policy.json",
    ],
    "eval_policy_explicit": [
        "eval-policy",
        "--instance",
        "table2_quarter.instance.json",
        "--policy",
        "explicit.policy.json",
        "--tie-break",
        "principal-favoring",
    ],
    "build_policy_threshold_coins2": [
        "build-policy", "--builtin", "coins2", "--method", "threshold"
    ],
    "build_policy_from_greedy_coins2": [
        "build-policy", "--builtin", "coins2", "--method", "from-greedy"
    ],
    "build_policy_composed_coins2": [
        "build-policy", "--builtin", "coins2", "--method", "composed"
    ],
    "build_policy_composed_matroid": [
        "build-policy",
        "--instance",
        "matroid_outer.instance.json",
        "--method",
        "composed",
    ],
    "prophet_check_coins2": ["prophet-check", "--builtin", "coins2"],
    "adaptivity_matroid": ["adaptivity", "--instance", "matroid_outer.instance.json"],
    "reproduce_lottery_positive": ["reproduce", "prop-lottery-positive"],
    "reproduce_lottery_negative": [
        "reproduce", "prop-lottery-negative", "--grid", "1/4"
    ],
    "reproduce_cor_half": ["reproduce", "cor-half", "--count", "5"],
}


def _report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, argv
    return out.getvalue()


def _csv_report(argv: list[str]) -> str:
    header, *rows = _report([*argv, "--output", "csv"]).splitlines(keepends=True)
    return header + "".join(re.sub(r"\d+\n$", "\n", row) for row in rows)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_bytes(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{case}.json").read_bytes()
    assert _report(CASES[case]).encode("utf-8") == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_rows_match_golden_bytes(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{case}.csv").read_bytes()
    assert _csv_report(CASES[case]).encode("utf-8") == expected


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in sorted(CASES.items()):
        Path(f"{name}.json").write_bytes(_report(argv).encode("utf-8"))
        Path(f"{name}.csv").write_bytes(_csv_report(argv).encode("utf-8"))
