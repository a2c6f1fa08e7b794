"""Deterministic box sampling."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgeo.errors import ContractViolation
from subgeo.sampling import _EDGE, sample_box, subseed


def test_same_seed_same_points():
    box = ((-1.0, 1.0), (0.5, 3.0))
    a = sample_box(box, 32, 5)
    b = sample_box(box, 32, 5)
    assert np.array_equal(a, b)
    c = sample_box(box, 32, 6)
    assert not np.array_equal(a, c)


def test_points_strictly_interior():
    box = ((-1.0, 1.0), (0.5, 3.0), (2.0, 2.001))
    pts = sample_box(box, 200, 0)
    assert pts.shape == (200, 3) and pts.dtype == np.float64
    for d, (lo, hi) in enumerate(box):
        assert np.all(pts[:, d] > lo)
        assert np.all(pts[:, d] < hi)


def test_empty_intervals_and_counts_are_rejected():
    with pytest.raises(ContractViolation, match=r"empty box interval \[1.0, 1.0\]"):
        sample_box(((0.0, 1.0), (1.0, 1.0)), 4, 0)
    with pytest.raises(ContractViolation, match="sample count must be positive"):
        sample_box(((0.0, 1.0),), 0, 0)


def test_subseed_separates_labels():
    assert subseed(1, "alpha") != subseed(1, "beta")
    assert subseed(1, "alpha") == subseed(1, "alpha")
    assert 0 <= subseed(123456789, "anything") < 2 ** 31


def _point_by_point(box, count, seed):
    """The reference draw: one point at a time, one coordinate at a time,
    in Python floats."""
    rng = random.Random(seed)
    return [tuple(lo + (hi - lo) * (_EDGE + (1.0 - 2.0 * _EDGE) * rng.random())
                  for lo, hi in box) for _ in range(count)]


@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    count=st.integers(min_value=1, max_value=50),
    box=st.lists(st.tuples(st.floats(min_value=-1e6, max_value=1e6),
                           st.floats(min_value=1e-9, max_value=1e6)),
                 min_size=1, max_size=5).map(lambda b: [(lo, lo + w) for lo, w in b]),
)
@settings(max_examples=100, deadline=None)
def test_the_stack_is_the_point_by_point_draw(seed, count, box):
    box = [(lo, hi) for lo, hi in box if lo < hi] or [(0.0, 1.0)]
    pts = sample_box(box, count, seed)
    want = np.array(_point_by_point(box, count, seed))
    assert pts.shape == (count, len(box))
    assert pts.tobytes() == want.tobytes()


def _list_draw(box, count, seed):
    """The stack drawn through a list comprehension, as ``sample_box`` drew
    before it read ``random()`` through ``np.fromiter``."""
    rng = random.Random(seed)
    r = np.array([rng.random() for _ in range(count * len(box))]).reshape(count, len(box))
    lo, hi = np.array(box).reshape(len(box), 2).T
    return lo + (hi - lo) * (_EDGE + (1.0 - 2.0 * _EDGE) * r)


@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    count=st.integers(min_value=1, max_value=400),
    dim=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_the_draws_are_those_of_the_list_comprehension(seed, count, dim):
    box = [(-1.0 - k, 0.5 + 2.0 * k) for k in range(dim)]
    assert sample_box(box, count, seed).tobytes() == _list_draw(box, count, seed).tobytes()


@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    count=st.integers(min_value=1, max_value=50),
    lo=st.floats(min_value=-10.0, max_value=9.0, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_any_box_respected(seed, count, lo, width):
    box = ((lo, lo + width),)
    pts = sample_box(box, count, seed)
    assert len(pts) == count
    assert np.all(pts[:, 0] > lo)
    assert np.all(pts[:, 0] < lo + width)
