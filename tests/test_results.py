"""Verdicts and incident accounting of the shared sweep."""

import math
import pathlib
import re

import pytest

import subgeo
from subgeo.errors import EvalDomain
from subgeo.results import FAIL, INCONCLUSIVE, PASS, peak, sweep


def _summarize(residuals, tol=1e-8):
    """Sweep items that are their own residuals; None stands for an item
    that fails to evaluate."""
    def at(r):
        if r is None:
            raise EvalDomain("no value", point=(0.0,))
        return r

    return sweep(residuals, at).summarize("x", tol)


@pytest.mark.parametrize("residuals", [[0.0, math.nan], [math.nan, 0.0],
                                       [1e-12, math.inf, 0.0]])
def test_non_finite_residual_fails_in_any_position(residuals):
    res = _summarize(residuals)
    assert res.status == FAIL
    assert not math.isfinite(res.max_residual)


def test_finite_residuals_pass_or_fail_on_the_worst():
    assert _summarize([0.0, 1e-9]).status == PASS
    assert _summarize([1e-7, 0.0]).status == FAIL
    assert _summarize([0.0, None]).status == INCONCLUSIVE


def test_peak_propagates_nan_in_any_position():
    assert peak([]) == 0.0
    assert peak([1.0, 3.0, 2.0]) == 3.0
    for values in ([math.nan, 1.0], [1.0, math.nan], [math.inf, math.nan, 2.0]):
        assert math.isnan(peak(values))


def test_named_residuals_fold_per_key_and_record_the_worst_item():
    rows = [{"a": 0.1, "b": 0.5}, {"a": 0.7, "b": 0.2}, {"a": math.nan, "b": 0.0},
            {"a": 0.9, "b": 0.1}]
    s = sweep(rows, lambda r: r, keys=("a", "b", "c"))
    assert math.isnan(s.worst["a"])
    assert s.worst["b"] == 0.5 and s.worst["c"] == 0.0
    assert s.worst_index == 2 and math.isnan(s.residual)
    s = sweep(rows[:2] + rows[3:], lambda r: r)
    assert s.worst_index == 2 and s.residual == 0.9


def test_a_non_finite_side_fails_a_biconditional():
    s = sweep([0.0], lambda r: r)
    assert s.biconditional("x", 1.0, 2.0, 1e-8).status == PASS   # both sides fail
    assert s.biconditional("x", math.nan, 2.0, 1e-8).status == FAIL
    assert s.biconditional("x", math.nan, math.nan, 1e-8).status == FAIL
    assert sweep([], lambda r: r).biconditional("x", 0.0, 0.0, 1e-8).status == INCONCLUSIVE


def test_incidents_are_counted_by_kind_and_other_errors_propagate():
    def at(r):
        if r < 0:
            raise EvalDomain(f"bad {r}", point=(r,))
        if r > 1:
            raise KeyError(r)
        return r

    res = sweep([0.0, -1.0, -2.0, 0.5], at).summarize("x", 1.0)
    assert res.incidents == 2
    assert res.details["incident_kinds"] == {
        "EvalDomain": {"count": 2, "example": "bad -1.0 at point (-1.0,)"}}
    clean = sweep([0.0, 0.5], at).summarize("x", 1.0)
    assert "incident_kinds" not in clean.details
    with pytest.raises(KeyError):
        sweep([0.0, 2.0], at)


def test_no_broad_exception_handlers_in_the_package():
    # only SubgeoError kinds are incidents; anything else is a bug and aborts
    broad = re.compile(r"except\s*(Exception\b|BaseException\b|:)")
    hits = [f"{path.name}:{k}" for path in pathlib.Path(subgeo.__file__).parent.glob("*.py")
            for k, line in enumerate(path.read_text().splitlines(), 1) if broad.search(line)]
    assert hits == []


def test_a_biconditional_below_the_evaluation_floor_is_inconclusive():
    # 9 of 10 items evaluate: conclusive; 8 of 10: too few for any verdict
    def at(r):
        if r is None:
            raise EvalDomain("no value", point=(0.0,))
        return r

    assert sweep([0.0] * 9 + [None], at).biconditional("x", 0.0, 0.0, 1e-8).status == PASS
    s = sweep([0.0] * 8 + [None] * 2, at)
    assert s.biconditional("x", 0.0, 0.0, 1e-8).status == INCONCLUSIVE
