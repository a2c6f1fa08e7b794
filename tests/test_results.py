"""Verdicts from residual lists."""

import math

import pytest

from subgeo.results import FAIL, INCONCLUSIVE, PASS, summarize


@pytest.mark.parametrize("residuals", [[0.0, math.nan], [math.nan, 0.0],
                                       [1e-12, math.inf, 0.0]])
def test_non_finite_residual_fails_in_any_position(residuals):
    res = summarize("x", residuals, 1e-8, len(residuals))
    assert res.status == FAIL
    assert not math.isfinite(res.max_residual)


def test_finite_residuals_pass_or_fail_on_the_worst():
    assert summarize("x", [0.0, 1e-9], 1e-8, 2).status == PASS
    assert summarize("x", [1e-7, 0.0], 1e-8, 2).status == FAIL
    assert summarize("x", [0.0], 1e-8, 2).status == INCONCLUSIVE
