"""Deterministic chart-box sampling.

Uses ``random.Random`` because CPython guarantees the sequence produced by
``random()`` for a given seed across versions, which keeps reports
bit-identical between runs and machines.
"""

from __future__ import annotations

import itertools
import random
import zlib

import numpy as np

from .errors import ContractViolation

# keeps samples strictly interior even for degenerate draws
_EDGE = 1e-9


def sample_box(box, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points strictly inside ``box``, reproducibly: a
    (count, n) stack, the draws taken point by point."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    for lo, hi in box:
        if not lo < hi:
            raise ContractViolation(f"empty box interval [{lo}, {hi}]")
    if count < 1:
        raise ContractViolation("sample count must be positive")
    draws = count * len(box)
    rng = random.Random(seed)
    r = np.fromiter(itertools.starmap(rng.random, itertools.repeat((), draws)), float, draws)
    r = r.reshape(count, len(box))
    lo, hi = np.array(box).reshape(len(box), 2).T
    return lo + (hi - lo) * (_EDGE + (1.0 - 2.0 * _EDGE) * r)


def subseed(seed: int, label: str) -> int:
    """Stable per-purpose seed derived from the suite seed and a label."""
    return (seed ^ zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF
