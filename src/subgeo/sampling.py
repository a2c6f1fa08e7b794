"""Deterministic chart-box sampling.

Uses ``random.Random`` because CPython guarantees the sequence produced by
``random()`` for a given seed across versions, which keeps reports
bit-identical between runs and machines.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from .errors import ContractViolation

# keeps samples strictly interior even for degenerate draws
_EDGE = 1e-9


@dataclass(frozen=True)
class SampleSet:
    seed: int
    box: tuple
    count: int
    points: tuple

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def sample_box(box, count: int, seed: int) -> SampleSet:
    """Draw ``count`` points strictly inside ``box``, reproducibly."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    for lo, hi in box:
        if not lo < hi:
            raise ContractViolation(f"empty box interval [{lo}, {hi}]")
    if count < 1:
        raise ContractViolation("sample count must be positive")
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append(
            tuple(
                lo + (hi - lo) * (_EDGE + (1.0 - 2.0 * _EDGE) * rng.random())
                for lo, hi in box
            )
        )
    return SampleSet(seed=seed, box=box, count=count, points=tuple(pts))


def subseed(seed: int, label: str) -> int:
    """Stable per-purpose seed derived from the suite seed and a label."""
    return (seed ^ zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF
