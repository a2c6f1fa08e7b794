"""Verdicts and incident accounting of the one fold, fed per item by
``sweep`` and as residual arrays (what a frame batch gives) by ``fold``."""

import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import subgeo
from subgeo.errors import EvalDomain, SubgeoError
from subgeo.results import FAIL, INCONCLUSIVE, PASS, collect, fold, owned_rows, peak


def sweep(items, residual_at, keys=()):
    """The per-item feeder, the reference of the others: :func:`fold` of
    ``residual_at(item)``, a float or a dict of named residuals, with
    the incidents :func:`collect` gives."""
    values, errors = collect(items, residual_at)
    values = list(values.values())
    if values and isinstance(values[0], dict):
        values = {k: [v[k] for v in values] for k in values[0]}
    return fold(values, errors, keys)


def fold_arrays(items, residual_at, keys=()):
    """The array feeder: the residuals of the items that evaluate gathered
    into arrays (or a dict of arrays) with a position -> error map, then
    one :func:`fold`."""
    values, errors = [], {}
    for index, item in enumerate(items):
        try:
            values.append(residual_at(item))
        except SubgeoError as exc:
            errors[index] = exc
    if values and isinstance(values[0], dict):
        return fold({k: np.array([v[k] for v in values]) for k in values[0]}, errors, keys)
    return fold(np.array(values, dtype=float), errors, keys)


# every fold test runs on both feeders: per item, and as arrays
FEEDERS = (sweep, fold_arrays)


def _summarize(feed, residuals, tol=1e-8):
    """Feed items that are their own residuals; None stands for an item
    that fails to evaluate."""
    def at(r):
        if r is None:
            raise EvalDomain("no value", point=(0.0,))
        return r

    return feed(residuals, at).summarize(tol)


@pytest.mark.parametrize("residuals", [[0.0, math.nan], [math.nan, 0.0],
                                       [1e-12, math.inf, 0.0]])
def test_non_finite_residual_fails_in_any_position(residuals):
    for feed in FEEDERS:
        res = _summarize(feed, residuals)
        assert res.status == FAIL
        assert not math.isfinite(res.max_residual)


def test_finite_residuals_pass_or_fail_on_the_worst():
    for feed in FEEDERS:
        assert _summarize(feed, [0.0, 1e-9]).status == PASS
        assert _summarize(feed, [1e-7, 0.0]).status == FAIL
        assert _summarize(feed, [0.0, None]).status == INCONCLUSIVE


def test_peak_propagates_nan_in_any_position():
    assert peak([]) == 0.0
    assert peak([1.0, 3.0, 2.0]) == 3.0
    for values in ([math.nan, 1.0], [1.0, math.nan], [math.inf, math.nan, 2.0]):
        assert math.isnan(peak(values))


def test_named_residuals_fold_per_key_and_record_the_worst_item():
    rows = [{"a": 0.1, "b": 0.5}, {"a": 0.7, "b": 0.2}, {"a": math.nan, "b": 0.0},
            {"a": 0.9, "b": 0.1}]
    for feed in FEEDERS:
        s = feed(rows, lambda r: r, keys=("a", "b", "c"))
        assert math.isnan(s.worst["a"])
        assert s.worst["b"] == 0.5 and s.worst["c"] == 0.0
        assert s.worst_index == 2 and math.isnan(s.residual)
        s = feed(rows[:2] + rows[3:], lambda r: r)
        assert s.worst_index == 2 and s.residual == 0.9


def test_a_non_finite_side_fails_a_biconditional():
    for feed in FEEDERS:
        s = feed([0.0], lambda r: r)
        assert s.biconditional(1.0, 2.0, 1e-8).status == PASS   # both sides fail
        assert s.biconditional(math.nan, 2.0, 1e-8).status == FAIL
        assert s.biconditional(math.nan, math.nan, 1e-8).status == FAIL
        assert feed([], lambda r: r).biconditional(0.0, 0.0, 1e-8).status == INCONCLUSIVE


def test_incidents_are_counted_by_kind_and_other_errors_propagate():
    def at(r):
        if r < 0:
            raise EvalDomain(f"bad {r}", point=(r,))
        if r > 1:
            raise KeyError(r)
        return r

    for feed in FEEDERS:
        res = feed([0.0, -1.0, -2.0, 0.5], at).summarize(1.0)
        assert res.incidents == 2
        assert res.details["incident_kinds"] == {
            "EvalDomain": {"count": 2, "example": "bad -1.0 at point (-1.0,)"}}
        clean = feed([0.0, 0.5], at).summarize(1.0)
        assert "incident_kinds" not in clean.details
        with pytest.raises(KeyError):
            feed([0.0, 2.0], at)


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

    for feed in FEEDERS:
        assert feed([0.0] * 9 + [None], at).biconditional(0.0, 0.0, 1e-8).status == PASS
        s = feed([0.0] * 8 + [None] * 2, at)
        assert s.biconditional(0.0, 0.0, 1e-8).status == INCONCLUSIVE


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


VALUES = st.one_of(st.sampled_from([math.nan, math.inf, 0.0]),
                   st.floats(0.0, 10.0), st.none())


@given(keys=st.lists(st.sampled_from("abc"), unique=True, max_size=3),
       rows=st.lists(st.lists(VALUES, min_size=3, max_size=3), max_size=8),
       preset=st.lists(st.sampled_from("abcd"), unique=True, max_size=4))
def test_the_array_fold_agrees_with_the_item_sweep(keys, rows, preset):
    # an item is a residual (no keys) or named residuals; a None in its
    # first entry makes it an error, named after its position
    def at(item):
        index, values = item
        if values[0] is None:
            raise EvalDomain(f"item {index}", point=(float(index),))
        values = [0.5 if v is None else v for v in values]
        return dict(zip(keys, values)) if keys else values[0]

    items = list(enumerate(rows))
    by_item = sweep(items, at, keys=preset)
    evaluated = [at(item) for item in items if item[1][0] is not None]
    errors = {index: EvalDomain(f"item {index}", point=(float(index),))
              for index, values in items if values[0] is None}
    if keys:
        arrays = {k: np.array([r[k] for r in evaluated], dtype=float) for k in keys}
    else:
        arrays = np.array(evaluated, dtype=float)
    by_array = fold(arrays, errors, keys=preset)
    # reference: the worst item is the first NaN one, else the first maximal one
    scored = [(index, peak(r.values()) if keys else r)
              for index, r in zip(sorted(set(range(len(items))) - set(errors)), evaluated)]
    nans = [index for index, r in scored if r != r]
    worst = nans[0] if nans else max(scored, key=lambda ir: ir[1], default=(None,))[0]
    assert by_item.worst_index == worst
    assert _same(by_array.residual, by_item.residual)
    assert by_array.worst.keys() == by_item.worst.keys()
    assert all(_same(by_array.worst[k], by_item.worst[k]) for k in by_item.worst)
    assert by_array.worst_index == by_item.worst_index
    assert (by_array.evaluated, by_array.attempted) == (by_item.evaluated, by_item.attempted)
    assert by_array.incidents == by_item.incidents == len(errors)
    assert by_array.kinds == by_item.kinds


class _Rows:
    """A batch stand-in: the values of the rows that built, in point
    order, and the errors of the points that did not."""

    def __init__(self, values, errors):
        self.values = np.array(values, dtype=float)
        self.errors = errors

    def take(self, rows):
        return self.values[rows]


ROWS = st.one_of(st.none(), st.lists(VALUES, min_size=1, max_size=4))


@given(items=st.lists(ROWS, max_size=6))
def test_rows_owned_by_items_fold_as_their_items(items):
    # an item is None (it fails before its rows are built) or the values
    # of its rows, a None row failing to build; the per-item reference
    # raises the item's first error or returns the peak of its rows
    owners, built, row_errors, first, before = [], [], {}, {}, {}
    for index, rows in enumerate(items):
        if rows is None:
            before[index] = EvalDomain(f"item {index}", point=(float(index),))
            continue
        for value in rows:
            if value is None:
                row_errors[len(owners)] = EvalDomain(f"row {len(owners)}", point=(0.0,))
                first.setdefault(index, row_errors[len(owners)])
            else:
                built.append(value)
            owners.append(index)
    stack = [v for rows in items if rows is not None for v in rows]

    def residuals(kept, points):
        assert all(_same(v, stack[p]) for v, p in zip(kept, points))
        return kept

    def at(index):
        if index in before or index in first:
            raise before.get(index, first.get(index))
        return peak(items[index])

    by_rows = fold(*owned_rows(owners, _Rows(built, row_errors), residuals, before))
    by_item = sweep(range(len(items)), at)
    assert _same(by_rows.residual, by_item.residual)
    assert by_rows.worst_index == by_item.worst_index
    assert (by_rows.evaluated, by_rows.attempted) == (by_item.evaluated, by_item.attempted)
    assert by_rows.incidents == by_item.incidents
    assert by_rows.kinds == by_item.kinds
