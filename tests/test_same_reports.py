"""The report-comparison gate, scripts/same_reports.py: on synthetic
cases, which differences are rounding and which are real; and that its
incident cases do report incidents."""

import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import pytest

from subgeo import runner
from subgeo.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_reports.py"
_spec = importlib.util.spec_from_file_location("same_reports", SCRIPT)
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)


def case(report, exit_code=0):
    """One case result as the child process prints it."""
    text = report if isinstance(report, str) else json.dumps(report)
    return {"exit": exit_code, "report": text}


def residual(value):
    return {"checks": [{"name": "x", "max_residual": value, "status": "pass"}]}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, 2.5])
def test_equal_values_are_no_change(value):
    assert same_reports.float_change(value, value) == 0.0
    assert same_reports.classify(case(residual(value)), case(residual(value))) == ([], [])


def test_a_finite_value_going_non_finite_is_real():
    for new in (math.inf, math.nan):
        assert same_reports.float_change(1.0, new) == math.inf
        real, floats = same_reports.classify(case(residual(1.0)), case(residual(new)))
        assert real and len(floats) == 1


@pytest.mark.parametrize("old", [1e-3, 1.0, 250.0])
def test_the_rounding_bound_is_relative_above_one(old):
    scale = max(1.0, old)
    real, floats = same_reports.classify(case(residual(old)),
                                         case(residual(old + 1e-13 * scale)))
    assert real == [] and len(floats) == 1
    real, floats = same_reports.classify(case(residual(old)),
                                         case(residual(old + 1e-11 * scale)))
    assert len(real) == 1 and len(floats) == 1


@pytest.mark.parametrize("old, new", [
    (case({"a": 1.0}), case({"a": 1.0, "b": 2.0})),                # a key set
    (case({"a": [1.0, 2.0]}), case({"a": [1.0]})),                  # a list length
    (case({"a": 1.0}, exit_code=0), case({"a": 1.0}, exit_code=1)),  # an exit code
    (case({"a": 1.0}), case("Traceback (most recent call last):")),  # a crash
    (case({"a": "pass"}), case({"a": "fail"})),                     # a string
    (case({"a": True}), case({"a": False})),                        # a boolean
    (case({"a": 3}), case({"a": 4})),                               # a count
    (case({"a": 1.0, "b": 2.0}), case({"b": 2.0, "a": 1.0})),       # a key order
])
def test_structural_differences_are_real(old, new):
    real, _ = same_reports.classify(old, new)
    assert real


def test_the_gate_compares_reports_in_the_key_order_of_run_suite():
    # subgeo verify --report writes each report in run_suite's key order,
    # so the gate's child must print that order and not a sorted one
    config = same_reports.case({"builtin": "hyperbolic:2", "checks": ["four_conditions"]}, 0,
                               "jet")
    out = subprocess.run([sys.executable, "-c", same_reports.CHILD, str(ROOT / "src"),
                          json.dumps([config])], capture_output=True, text=True, check=True)
    (line,) = out.stdout.splitlines()
    want = runner.run_suite(parse_config(config, source="<hyperbolic:2>"))
    for check in want["checks"]:
        del check["wall_time_s"]
    assert json.loads(line)["report"] == json.dumps(want, indent=2)


@pytest.mark.parametrize("config", same_reports.INCIDENT_CASES, ids=same_reports.label)
def test_every_incident_case_reports_an_incident(config):
    # the gate's incident cases exercise the incident path of the reports
    report = runner.run_suite(parse_config(config))
    assert sum(check["incidents"] for check in report["checks"]) >= 1


def test_the_inline_incident_config_ends_jobs_inside_an_rk4_step():
    # one job ends by a domain error, one by a singular metric; one completes
    config = same_reports.case(same_reports.INCIDENT_CONFIGS[-1], 0, "jet")
    (check,) = runner.run_suite(parse_config(config))["checks"]
    assert check["samples"] == 1 and check["incidents"] == 2
    assert sorted(check["details"]["incident_kinds"]) == ["EvalDomain", "SingularMatrix"]


def verdict_report(status="pass", incidents=0, kinds=None, residual=1e-12, example="at p"):
    details = {"worst": residual}
    if kinds:
        details["incident_kinds"] = {k: {"count": n, "example": example} for k, n in kinds.items()}
    return {"checks": [{"name": "x", "status": status, "incidents": incidents,
                        "max_residual": residual, "details": details}]}


def test_verdicts_ignore_residuals_details_and_incident_messages():
    old = case(verdict_report(incidents=2, kinds={"EvalDomain": 2}))
    new = case(verdict_report(incidents=2, kinds={"EvalDomain": 2}, residual=3e-9,
                              example="at q"))
    assert same_reports.classify(old, new)[0]  # the default comparison sees them
    assert same_reports.verdict_changes(old, new) == []


ONE_INCIDENT = verdict_report(incidents=1, kinds={"EvalDomain": 1})


@pytest.mark.parametrize("new", [
    case(ONE_INCIDENT, exit_code=1),                                     # an exit code
    case(verdict_report(status="fail", incidents=1, kinds={"EvalDomain": 1})),  # a status
    case(verdict_report(incidents=2, kinds={"EvalDomain": 2})),          # an incident count
    case(verdict_report(incidents=1, kinds={"RankDrop": 1})),            # an incident kind
    case("Traceback (most recent call last):"),                          # a crash
])
def test_verdicts_see_exit_codes_statuses_and_incidents(new):
    assert same_reports.verdict_changes(case(ONE_INCIDENT), new)


@pytest.mark.parametrize("flags, moved, code", [
    ([], "residual", 1), (["--verdicts"], "residual", 0), (["--verdicts"], "status", 1),
])
def test_only_a_verdict_difference_fails_the_verdict_comparison(flags, moved, code, monkeypatch,
                                                                 capsys):
    moves = {"residual": {"residual": 3e-9}, "status": {"status": "fail"}}
    cases = len(same_reports.CASES)
    trees = {"old": [case(verdict_report())] * cases,
             "new": [case(verdict_report(**moves[moved]))] * cases}
    monkeypatch.setattr(same_reports, "run_tree", trees.get)
    assert same_reports.main(["same_reports.py", *flags, "old", "new"]) == code
    if flags:
        kept = lambda n: n if moved == "residual" else 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"{kept(120)} of 120 builtin cases and {kept(35)} of 35 incident cases "
            "keep every verdict")


def two_check_report(x_residual=1e-12, fails=0):
    row = {"status": "pass", "incidents": 0, "details": {}}
    return {"checks": [dict(row, name="x", max_residual=x_residual),
                       dict(row, name="y", max_residual=1e-12)],
            "summary": {"pass": 2 - fails, "fail": fails}}


@pytest.mark.parametrize("flags, new, code", [
    ([], case(two_check_report(x_residual=3e-9)), 1),
    (["--except", "x"], case(two_check_report(x_residual=3e-9)), 0),
    (["--except", "y", "--except", "x"], case(two_check_report(x_residual=3e-9)), 0),
    (["--except", "y"], case(two_check_report(x_residual=3e-9)), 1),  # another check's rows
    (["--except", "x"], case(two_check_report(fails=1)), 1),          # the summary
    (["--except", "x"], case(two_check_report(), exit_code=1), 1),    # the exit code
    (["--verdicts", "--except", "x"], case(two_check_report(), exit_code=1), 1),
])
def test_an_excepted_check_drops_only_its_rows(flags, new, code, monkeypatch):
    cases = len(same_reports.CASES)
    trees = {"old": [case(two_check_report())] * cases, "new": [new] * cases}
    monkeypatch.setattr(same_reports, "run_tree", trees.get)
    assert same_reports.main(["same_reports.py", *flags, "old", "new"]) == code
