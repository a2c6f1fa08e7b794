"""The per-row certificate rule of ``linalg.inverse`` and
``linalg.inverse_rows``, kept as the reference the stack bound is tested
against.

Each row is certified by its own max|a^-1| and max|a|; the rows that
bound leaves are tested from their own LU pivots, in row order.  The
inversion itself (``linalg._factor``, one LAPACK call, a uniform stack
on its first row) and the pivot test are the package's.
"""

import numpy as np

from subgeo import linalg
from subgeo.errors import SingularMatrix


def certified(a, inv) -> np.ndarray:
    """Rows whose own bound certifies them."""
    scale = np.maximum.reduce(np.abs(a), axis=(1, 2))
    big = np.maximum.reduce(np.abs(inv), axis=(1, 2))
    bound = linalg._bound(a.shape[-1])
    return big * np.minimum(scale, 1.0) < bound / np.maximum(scale, 1.0)


def failures(a, inv):
    """(row, SingularMatrix) of each row that fails the pivot test, in row order."""
    for row in np.flatnonzero(~certified(a, inv)):
        try:
            linalg._pivot_test(a[row])
        except SingularMatrix as exc:
            yield row, exc


def inverse(a) -> np.ndarray:
    a, rows, inv = linalg._factor(a)
    for row, exc in failures(rows, inv):
        raise SingularMatrix(f"{exc} in row {row}") if len(a) > 1 else exc
    return linalg._repeat(inv, len(a))


def inverse_rows(a):
    a, rows, inv = linalg._factor(a)
    bad = np.zeros(len(inv), dtype=bool)
    bad[[row for row, _ in failures(rows, inv)]] = True
    return linalg._repeat(inv, len(a)), linalg._repeat(bad, len(a))
