"""Small dense linear solves.

Systems go through LAPACK ``gesv`` (LU factorization and solve in one
call), whose LU factors give the pivot magnitudes for the singularity
test; a stack of systems is solved system by system under the same rule.
Derivatives of a solution are not solved for here: the field layer
differentiates x = A^-1 b by the forward-mode rule
d(A^-1 b) = A^-1 (db - dA A^-1 b), one more stacked solve per order.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import ContractViolation, SingularMatrix

PIVOT_RTOL = 1e-12


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a x = b`` for square ``a`` (n <= 16 in practice).

    A stack of systems, ``a`` of shape (N, n, n) and ``b`` (N, n, ...),
    is solved row by row.  Raises :class:`SingularMatrix` when a pivot
    falls below ``1e-12 * max_norm(a)``; for a stack of several systems
    the message names the failing row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3:
        return _solve_one(a, b)
    if b.shape[:1] != a.shape[:1]:
        raise ContractViolation(f"shape mismatch: a {a.shape}, b {b.shape}")
    out = np.empty(b.shape)
    for row in range(len(a)):
        try:
            out[row] = _solve_one(a[row], b[row])
        except SingularMatrix as exc:
            if len(a) == 1:
                raise
            raise SingularMatrix(f"{exc} in row {row}") from None
    return out


def _solve_one(a, b) -> np.ndarray:
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[:1] != (n,) or b.ndim > 2:
        raise ContractViolation(f"shape mismatch: a {a.shape}, b {b.shape}")
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    lu, _, x, _ = dgesv(a, b)
    smallest = np.abs(lu.diagonal()).min()
    if smallest < PIVOT_RTOL * scale:
        raise SingularMatrix(f"pivot {smallest:.3e} below threshold for scale {scale:.3e}")
    return x
