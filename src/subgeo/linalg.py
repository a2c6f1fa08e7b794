"""Small dense linear algebra on numpy alone.

A stack of matrices (N, n, n) is inverted in one LAPACK call, and a
caller solves a^-1 b as that certified inverse times b, so a stack
solved against several times is factored once.
A uniform stack, every row with the same bits (the kernel pivot block
of a coordinate projection, a Euclidean base metric), is inverted and
certified on its first row, which is repeated: LAPACK inverts each row
of a stack on its own, so the inverses, verdicts and messages are the
whole stack's.  A system is singular when its smallest LU pivot is
below ``PIVOT_RTOL * max|a|``.
Partial pivoting keeps |l_ij| <= 1, so ||L||_2 <= sqrt(n(n+1)/2) and

    min |u_kk| >= sigma_min(a) / ||L||_2 >= 1 / (n max|a^-1_ij| sqrt(n(n+1)/2)):

a row whose bound clears the threshold ``CERTIFICATE_SAFETY``-fold (room
for the rounding in the computed inverse and pivots) passes for certain.
Only the other rows (near-singular, holding NaN or inf, or exactly
singular) are tested one by one from their own LU pivots, in row order,
so every verdict is the per-system rule's.  Their pivots come from
:func:`_lu_pivots`, a numpy LU with partial pivoting that takes LAPACK
``dgetf2``'s steps; :func:`pivoted_qr`, the column-pivoted QR that picks
a submersion's pivot columns, takes those of ``dlaqp2`` (Businger and
Golub, Numer. Math. 7, 1965).
Derivatives of a solution are not solved for here: the field layer
differentiates x = A^-1 b by the forward-mode rule
d(A^-1 b) = A^-1 (db - dA A^-1 b), one more product with the inverse
per order; unlike an LU solve, it is not backward stable (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, section 14.1).
"""

from __future__ import annotations

import functools
import math

import numpy as np
# The gufuncs behind np.linalg.  Called directly, inv costs a few
# microseconds less per call, which is most of a 3-row inverse, and it
# returns an exactly singular row as NaN instead of failing the stack.
from numpy.linalg import _umath_linalg

from .errors import ContractViolation, SingularMatrix

PIVOT_RTOL = 1e-12
CERTIFICATE_SAFETY = 16.0
# LAPACK's safe minimum: the smallest pivot dgetf2 scales by its reciprocal.
SAFE_MIN = np.finfo(float).tiny
# dlaqp2 recomputes a downdated column norm that lost this much.
NORM_DOWNDATE_TOL = math.sqrt(np.finfo(float).eps)


def inverse(a) -> np.ndarray:
    """The inverses of a stack of square matrices (N, n, n), from one
    LAPACK call; rows that the inverse does not certify nonsingular are
    tested one by one, in row order.  Raises :class:`SingularMatrix`
    when a pivot falls below ``1e-12 * max_norm(a)``; for a stack of
    several systems the message names the first failing row.  A uniform
    stack (:func:`_factor`) is inverted and certified on its first row."""
    a, rows, inv = _factor(a)
    ok = _certified(rows, inv)
    if np.count_nonzero(ok) < len(ok):
        for row, exc in _failures(rows, ok):
            raise SingularMatrix(f"{exc} in row {row}") if len(a) > 1 else exc
    return _repeat(inv, len(a))


def inverse_rows(a):
    """(inverses, mask of the rows :func:`inverse` rejects) of a stack
    (N, n, n), from one LAPACK call."""
    a, rows, inv = _factor(a)
    bad = np.zeros(len(inv), dtype=bool)
    bad[[row for row, _ in _failures(rows, _certified(rows, inv))]] = True
    return _repeat(inv, len(a)), _repeat(bad, len(a))


def _factor(a):
    """(a as a float stack (N, n, n), the rows to invert, their uncertified
    inverses).  The rows are the first alone when every row has its bits,
    else all of them; bits, not values, so that -0.0 never stands for 0.0
    nor one NaN for another."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ContractViolation(f"shape mismatch: a {a.shape}, need (N, n, n)")
    rows = a
    if len(a) > 1:
        first = a[0].tobytes()
        # the last row first: a stack that varies mostly differs there already
        if a[-1].tobytes() == first and a.tobytes() == first * len(a):
            rows = a[:1]
    with np.errstate(all="ignore"):
        return a, rows, _umath_linalg.inv(rows)


def _repeat(rows, count: int) -> np.ndarray:
    """rows (1 or count, ...) as count rows."""
    return rows if len(rows) == count else np.repeat(rows, count, axis=0)


def _failures(a, ok):
    """(row, SingularMatrix) for each row of the stack that fails the
    pivot test, in row order; rows ``ok`` certifies are not tested."""
    for row in np.flatnonzero(~ok):
        try:
            _pivot_test(a[row])
        except SingularMatrix as exc:
            yield row, exc


def _certified(a, inv) -> np.ndarray:
    """Rows that pass the pivot test for certain (see the module docstring)."""
    scale = np.maximum.reduce(np.abs(a), axis=(1, 2))
    big = np.maximum.reduce(np.abs(inv), axis=(1, 2))
    bound = _bound(a.shape[-1])
    # big * scale < bound, split at scale = 1 so that neither side can
    # overflow; NaN, inf and a zero inverse all compare false.
    return big * np.minimum(scale, 1.0) < bound / np.maximum(scale, 1.0)


@functools.cache
def _bound(n) -> float:
    """The certificate's bound on max|a^-1| max|a| for n x n systems."""
    return 1.0 / (PIVOT_RTOL * CERTIFICATE_SAFETY * n * math.sqrt(n * (n + 1) / 2))


def _pivot_test(a) -> None:
    """The singularity rule on one matrix, from its LU pivots."""
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    smallest = np.abs(_lu_pivots(a)).min()
    if smallest < PIVOT_RTOL * scale:
        raise SingularMatrix(f"pivot {smallest:.3e} below threshold for scale {scale:.3e}")


def _lu_pivots(a) -> np.ndarray:
    """The diagonal of U in the LU factorization with partial pivoting of
    a square matrix, step for step as ``dgetf2``: the pivot is the first
    largest |entry| of the column, the column below it is scaled by the
    pivot's reciprocal (divided by a pivot below ``SAFE_MIN``), and the
    trailing update runs even after a zero pivot, so NaN and inf spread
    as in LAPACK.  Below an infinite pivot the column is zeroed, as
    OpenBLAS scales by its zero reciprocal, not made NaN."""
    lu = np.array(a, dtype=float)
    with np.errstate(all="ignore"):
        for j in range(len(lu)):
            p = j + int(np.argmax(np.abs(lu[j:, j])))
            pivot = lu[p, j]
            if pivot != 0.0:
                lu[[j, p]] = lu[[p, j]]
                if math.isinf(pivot):
                    lu[j + 1:, j] = 0.0
                elif abs(pivot) >= SAFE_MIN:
                    lu[j + 1:, j] *= 1.0 / pivot
                else:
                    lu[j + 1:, j] /= pivot
            lu[j + 1:, j + 1:] -= np.outer(lu[j + 1:, j], lu[j, j + 1:])
    return lu.diagonal()


def pivoted_qr(a):
    """(|R_kk|, column order) of the QR factorization with column
    pivoting of a finite matrix (m, n), step for step as ``dlaqp2``: each
    step takes the first column of largest partial norm, applies a
    Householder reflection, and downdates the partial norms of the
    columns left, recomputing one whose downdate loses more than
    ``NORM_DOWNDATE_TOL``.  Q is not formed."""
    r = np.array(a, dtype=float)
    m, n = r.shape
    order = np.arange(n)
    norms = np.linalg.norm(r, axis=0)  # partial norms, downdated
    exact = norms.copy()               # the last computed partial norms
    diag = np.empty(min(m, n))
    for i in range(min(m, n)):
        p = i + int(np.argmax(norms[i:]))
        if p != i:
            r[:, [i, p]] = r[:, [p, i]]
            order[[i, p]] = order[[p, i]]
            norms[p], exact[p] = norms[i], exact[i]
        alpha, tail = r[i, i], np.linalg.norm(r[i + 1:, i])
        if tail == 0.0:
            beta = alpha
        else:
            beta = -math.copysign(math.hypot(alpha, tail), alpha)
            v = np.concatenate([[1.0], r[i + 1:, i] * (1.0 / (alpha - beta))])
            tau = (beta - alpha) / beta
            r[i:, i + 1:] -= tau * np.outer(v, v @ r[i:, i + 1:])
        diag[i] = abs(beta)
        for j in range(i + 1, n):
            if norms[j] != 0.0:
                temp = max(1.0 - (abs(r[i, j]) / norms[j]) ** 2, 0.0)
                if temp * (norms[j] / exact[j]) ** 2 <= NORM_DOWNDATE_TOL:
                    norms[j] = exact[j] = np.linalg.norm(r[i + 1:, j])
                else:
                    norms[j] *= math.sqrt(temp)
    return diag, order
