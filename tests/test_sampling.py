"""Deterministic box sampling."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subgeo.sampling import sample_box, subseed


def test_same_seed_same_points():
    box = ((-1.0, 1.0), (0.5, 3.0))
    a = sample_box(box, 32, 5)
    b = sample_box(box, 32, 5)
    assert np.array_equal(a.points, b.points)
    c = sample_box(box, 32, 6)
    assert not np.array_equal(a.points, c.points)


def test_points_strictly_interior():
    box = ((-1.0, 1.0), (0.5, 3.0), (2.0, 2.001))
    pts = np.array(sample_box(box, 200, 0).points)
    assert pts.shape == (200, 3)
    for d, (lo, hi) in enumerate(box):
        assert np.all(pts[:, d] > lo)
        assert np.all(pts[:, d] < hi)


def test_subseed_separates_labels():
    assert subseed(1, "alpha") != subseed(1, "beta")
    assert subseed(1, "alpha") == subseed(1, "alpha")
    assert 0 <= subseed(123456789, "anything") < 2 ** 31


@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    count=st.integers(min_value=1, max_value=50),
    lo=st.floats(min_value=-10.0, max_value=9.0, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_any_box_respected(seed, count, lo, width):
    box = ((lo, lo + width),)
    s = sample_box(box, count, seed)
    pts = np.array(s.points)
    assert len(s) == count
    assert np.all(pts[:, 0] > lo)
    assert np.all(pts[:, 0] < lo + width)
