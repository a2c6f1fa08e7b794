"""Small dense linear solves.

A stack of systems (N, n, n) is solved in one LAPACK ``gesv`` call over
[b | I], so every row's inverse comes with its solution.  A system is
singular when its smallest LU pivot is below ``PIVOT_RTOL * max|a|``.
Partial pivoting keeps |l_ij| <= 1, so ||L||_2 <= sqrt(n(n+1)/2) and

    min |u_kk| >= sigma_min(a) / ||L||_2 >= 1 / (n max|a^-1_ij| sqrt(n(n+1)/2)):

a row whose bound clears the threshold ``CERTIFICATE_SAFETY``-fold (room
for the rounding in the computed inverse and pivots) passes for certain.
Only the other rows (near-singular, holding NaN or inf, or exactly
singular) are tested one by one from their own LU pivots, in row order,
so every verdict is the per-system rule's.
Derivatives of a solution are not solved for here: the field layer
differentiates x = A^-1 b by the forward-mode rule
d(A^-1 b) = A^-1 (db - dA A^-1 b), one more stacked solve per order.
"""

from __future__ import annotations

import functools
import math

import numpy as np
# The gufunc behind np.linalg.solve.  Called directly it costs a few
# microseconds less per call, which is most of a 3-row solve, and it
# returns an exactly singular row as NaN instead of failing the stack.
from numpy.linalg import _umath_linalg
from scipy.linalg.lapack import dgetrf

from .errors import ContractViolation, SingularMatrix

PIVOT_RTOL = 1e-12
CERTIFICATE_SAFETY = 16.0


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a x = b`` for a stack of square systems (n <= 16 in
    practice), ``a`` of shape (N, n, n) and ``b`` (N, n) or (N, n, k).

    The stack is solved in one LAPACK call; rows that the inverse does
    not certify nonsingular are tested one by one, in row order.  Raises
    :class:`SingularMatrix` when a pivot falls below
    ``1e-12 * max_norm(a)``; for a stack of several systems the message
    names the first failing row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_stack(a, b)
    x, inv = _gesv(a, b)
    for row, exc in _failures(a, inv):
        if len(a) == 1:
            raise exc
        raise SingularMatrix(f"{exc} in row {row}")
    return x


def singular_rows(a) -> np.ndarray:
    """Boolean mask over a stack (N, n, n): the rows :func:`solve_linear`
    rejects as singular."""
    a = np.asarray(a, dtype=float)
    rhs = a[..., :0]
    _check_stack(a, rhs)
    bad = np.zeros(len(a), dtype=bool)
    for row, _ in _failures(a, _gesv(a, rhs)[1]):
        bad[row] = True
    return bad


def _check_stack(a, b) -> None:
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape[:2] != a.shape[:2] or b.ndim > 3:
        raise ContractViolation(f"shape mismatch: a {a.shape}, b {b.shape}")


def _gesv(a, b):
    """a^-1 b and a^-1 for a stack, from one LAPACK call over [b | I]; a
    row LAPACK finds exactly singular comes back NaN."""
    n = a.shape[-1]
    k = b.shape[2] if b.ndim == 3 else 1
    rhs = np.empty(a.shape[:2] + (k + n,))
    rhs[..., :k] = b.reshape(rhs.shape[:2] + (k,))
    rhs[..., k:] = _eye(n)
    with np.errstate(all="ignore"):
        out = _umath_linalg.solve(a, rhs)
    return np.ascontiguousarray(out[..., :k]).reshape(b.shape), out[..., k:]


@functools.cache
def _eye(n) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _failures(a, inv):
    """(row, SingularMatrix) for each row of the stack that fails the
    pivot test, in row order; rows the inverse certifies are not tested."""
    ok = _certified(a, inv)
    if ok.all():
        return
    for row in np.flatnonzero(~ok):
        try:
            _pivot_test(a[row])
        except SingularMatrix as exc:
            yield row, exc


def _certified(a, inv) -> np.ndarray:
    """Rows that pass the pivot test for certain (see the module docstring)."""
    n = a.shape[-1]
    scale = np.abs(a).max(axis=(1, 2))
    big = np.abs(inv).max(axis=(1, 2))
    bound = 1.0 / (PIVOT_RTOL * CERTIFICATE_SAFETY * n * math.sqrt(n * (n + 1) / 2))
    # big * scale < bound, split at scale = 1 so that neither side can
    # overflow; NaN, inf and a zero inverse all compare false.
    return big * np.minimum(scale, 1.0) < bound / np.maximum(scale, 1.0)


def _pivot_test(a) -> None:
    """The singularity rule on one matrix, from its LU pivots."""
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    smallest = np.abs(dgetrf(a)[0].diagonal()).min()
    if smallest < PIVOT_RTOL * scale:
        raise SingularMatrix(f"pivot {smallest:.3e} below threshold for scale {scale:.3e}")
