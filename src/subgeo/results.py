"""Check outcomes and the one fold that every check's residuals go
through, with what feeds it: the row-by-row rebuild of a failing batch
(:func:`build_rows`), items owning several rows of one batch
(:func:`owned_rows`), and values computed item by item
(:func:`collect`)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SubgeoError

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# Fraction of samples that must evaluate cleanly for a verdict.
MIN_EVALUATED = 0.9

# A premise residual above this multiple of the tolerance voids a verdict.
PREMISE_FACTOR = 10.0


@dataclass
class CheckResult:
    """What a check decides; its report row adds the rest from the registry."""

    samples: int            # samples that actually evaluated
    max_residual: float
    tolerance: float
    status: str
    details: dict = field(default_factory=dict)
    incidents: int = 0


def _above(value, current) -> bool:
    """Whether ``value`` replaces ``current`` in a max that NaN wins."""
    return value > current or (value != value and current == current)


def peak(values) -> float:
    """Max of non-negative residuals, NaN if any is NaN, 0.0 for none."""
    out = 0.0
    for v in values:
        if _above(v, out):
            out = v
    return float(out)


def agree(left, right, tol) -> bool:
    """Both residuals are finite and give the same verdict against tol."""
    return math.isfinite(left) and math.isfinite(right) and (left <= tol) == (right <= tol)


def _note(kinds: dict, exc: SubgeoError) -> None:
    kind = kinds.setdefault(type(exc).__name__, {"count": 0, "example": str(exc)})
    kind["count"] += 1


class Sweep:
    """What one check's residuals came to over its items.

    ``residual`` is the worst item residual, ``worst`` the worst value of
    each named residual, ``named`` each named residual of the evaluated
    items in item order, ``worst_index`` the position of the worst item.
    """

    def __init__(self, attempted: int, keys=()):
        self.attempted = attempted
        self.evaluated = 0
        self.residual = 0.0
        self.worst = {k: 0.0 for k in keys}
        self.named = {}
        self.worst_index = None
        self.incidents = 0
        self.kinds = {}

    @property
    def conclusive(self) -> bool:
        return self.attempted > 0 and self.evaluated >= MIN_EVALUATED * self.attempted

    def verdict(self, holds: bool) -> str:
        """Pass or fail by ``holds``; inconclusive when too few items evaluated."""
        if not self.conclusive:
            return INCONCLUSIVE
        return PASS if holds else FAIL

    def result(self, tol, status, max_residual, details=None, premise=None) -> CheckResult:
        """The check's outcome; a ``premise`` residual above PREMISE_FACTOR
        * tol voids a verdict (inconclusive, ``details.premise_failed``)."""
        details = dict(details or {})
        if self.incidents:
            details["incident_kinds"] = self.kinds
        if status != INCONCLUSIVE and premise is not None and premise > PREMISE_FACTOR * tol:
            status = INCONCLUSIVE
            details["premise_failed"] = True
        return CheckResult(
            samples=self.evaluated,
            max_residual=float(max_residual),
            tolerance=float(tol),
            status=status,
            details=details,
            incidents=self.incidents,
        )

    def summarize(self, tol, details=None, keys=None, premise=None) -> CheckResult:
        """Pass when the worst residual (over ``keys`` only, if given) is
        finite and within tol, and ``premise`` (if given) holds; see
        :meth:`verdict` and :meth:`result`."""
        worst = self.residual if keys is None else peak(self.worst.get(k, 0.0) for k in keys)
        status = self.verdict(math.isfinite(worst) and worst <= tol)
        return self.result(tol, status, worst, details, premise)

    def biconditional(self, left, right, tol, details=None, max_residual=None) -> CheckResult:
        """Pass iff the verdicts of the two sides agree; the residual is
        informational.  A non-finite side fails; inconclusive when too few
        items evaluated."""
        if max_residual is None:
            max_residual = peak((left, right))
        return self.result(tol, self.verdict(agree(left, right, tol)), max_residual, details)


def fold(residuals, errors=None, keys=()) -> Sweep:
    """Fold the residuals of a check's items into a :class:`Sweep`.

    ``residuals`` holds one residual per item that evaluated, in item
    order: an array, or a dict of arrays of named residuals, where an
    item's residual is the worst of its named ones.  ``errors`` maps the
    position of each item that did not evaluate to its
    :class:`SubgeoError`; the evaluated items fill the other positions.
    Maxima are NaN-propagating.  Each error is an incident, counted by
    exception type with the first message, in item order, as example.
    ``keys`` are named residuals reported as 0.0 when no item evaluates.
    """
    errors = errors or {}
    if isinstance(residuals, dict):
        named = {k: np.asarray(v, dtype=float).reshape(-1) for k, v in residuals.items()}
        rows = np.maximum(np.max(list(named.values()), axis=0), 0.0) if named else np.zeros(0)
    else:
        named, rows = {}, np.asarray(residuals, dtype=float).reshape(-1)
    out = Sweep(len(rows) + len(errors), keys)
    out.named = named
    for k, values in named.items():
        if len(values):
            start = out.worst.get(k, values[0])
            out.worst[k] = math.nan if np.isnan(values).any() else float(max(start, values.max()))
    if len(rows):
        worst = int(np.argmax(rows))  # the first NaN, else the first maximum
        out.residual = float(rows[worst])
        out.worst_index = int(np.delete(np.arange(out.attempted), sorted(errors))[worst])
    out.evaluated = len(rows)
    out.incidents = len(errors)
    for index in sorted(errors):
        _note(out.kinds, errors[index])
    return out


def build_rows(build, points):
    """``build(points)``, a dict of arrays with one leading row per point
    of the stack ``points``, plus the errors of the points it fails at.

    The stack is built at once.  When that raises a :class:`SubgeoError`,
    each row is built alone, as a build of its own: the failing points
    keep their own errors and the others get what the stack gives them.
    Returns (the arrays of the rows that built, in point order, or {}
    when none did; a map from the position of each failing point to its
    error).  Each attempt is one call of ``build``, so a ``build`` that
    shares field batches (``functools.partial(fields.shared, f)``, as the
    check kernels, the probes and the frame builds pass) shares them
    within one attempt: a per-row rebuild starts afresh.  An RK4 step
    (:func:`geodesics.integrate_geodesic`) shares nothing, since its
    stages evaluate the connection at four different stacks.
    """
    try:
        return build(points), {}
    except SubgeoError:
        pass
    parts, errors = [], {}
    for row in range(len(points)):
        try:
            parts.append(build(points[row:row + 1]))
        except SubgeoError as exc:
            errors[row] = exc
    arrays = {k: np.concatenate([part[k] for part in parts]) for k in (parts[0] if parts else ())}
    return arrays, errors


def collect(items, value_at):
    """({position: value_at(item)}, {position: error}) over the items: a
    :class:`SubgeoError` makes the item an incident; any other exception
    is a bug and propagates."""
    values, errors = {}, {}
    for index, item in enumerate(items):
        try:
            values[index] = value_at(item)
        except SubgeoError as exc:
            errors[index] = exc
    return values, errors


def owned_rows(owners, batch, residuals, errors):
    """:func:`fold` inputs for items that own several rows of one batch.

    ``owners`` gives the item of each point of the stack ``batch`` was
    built over, in item order; ``batch.errors`` maps the points that did
    not build to their errors, ``errors`` the items that failed earlier.
    An item with a failing row is an incident with its first failing
    row's error.  ``residuals(batch.take(rows), points)`` gives one
    residual (or dict of them) per row of the other items, at ``points``
    in the stack; an item's residual is the NaN-propagating max of its rows.
    """
    owners = np.asarray(owners, dtype=int)
    errors = dict(errors)
    for point in sorted(batch.errors):
        errors.setdefault(int(owners[point]), batch.errors[point])
    built = np.delete(np.arange(len(owners)), sorted(batch.errors))
    keep = np.flatnonzero(~np.isin(owners[built], list(errors)))
    if not len(keep):
        return {}, errors
    points = built[keep]
    starts = np.flatnonzero(np.diff(owners[points], prepend=-1))
    values = residuals(batch.take(keep), points)
    if isinstance(values, dict):
        return {k: np.maximum.reduceat(v, starts) for k, v in values.items()}, errors
    return np.maximum.reduceat(values, starts), errors
