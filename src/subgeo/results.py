"""Check outcome containers shared by every verification module."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# Fraction of samples that must evaluate cleanly for a verdict.
MIN_EVALUATED = 0.9


@dataclass
class CheckResult:
    name: str
    samples: int            # samples that actually evaluated
    max_residual: float
    tolerance: float
    status: str
    details: dict = field(default_factory=dict)
    incidents: int = 0
    paper_ref: str = ""
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS


def summarize(name, residuals, tol, attempted, details=None, incidents=0) -> CheckResult:
    """Verdict from a residual list; inconclusive when too few samples ran.

    Any non-finite residual fails the check, wherever it sits in the list.
    """
    evaluated = len(residuals)
    worst = float(np.max(residuals)) if residuals else 0.0  # NaN if any is NaN
    if attempted == 0 or evaluated < MIN_EVALUATED * attempted:
        status = INCONCLUSIVE
    else:
        status = PASS if np.isfinite(residuals).all() and worst <= tol else FAIL
    return CheckResult(
        name=name,
        samples=evaluated,
        max_residual=float(worst),
        tolerance=float(tol),
        status=status,
        details=details or {},
        incidents=incidents,
    )


def biconditional(name, left_pass, right_pass, max_residual, tol, samples, details=None, incidents=0) -> CheckResult:
    """Pass iff the two verdicts agree; the residual is informational."""
    if samples == 0:
        status = INCONCLUSIVE
    else:
        status = PASS if left_pass == right_pass else FAIL
    return CheckResult(
        name=name,
        samples=samples,
        max_residual=float(max_residual),
        tolerance=float(tol),
        status=status,
        details=details or {},
        incidents=incidents,
    )
