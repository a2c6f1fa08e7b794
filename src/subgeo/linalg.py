"""Small dense linear solves, on floats and on jets.

Float systems go through LAPACK ``gesv`` (LU factorization and solve in
one call), whose LU factors give the pivot magnitudes for the singularity
test; a stack of systems is solved system by system under the same rule.
Jet systems use plain Gaussian elimination with partial pivoting on the
value part; jets form a commutative ring with division by units, so the
classic algorithm applies unchanged and the solution carries derivatives
of the solution map.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import ContractViolation, SingularMatrix
from .jets import Jet

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


def jet_solve(a: list, b: list) -> list:
    """Solve ``a x = b`` where entries are jets.

    ``a`` is an n x n nested list, ``b`` an n x k nested list (or a flat
    list treated as one column).  Pivoting compares value parts only.
    Returns the solution in the same nesting as ``b``.
    """
    n = len(a)
    flat = b and not isinstance(b[0], (list, tuple))
    rows = [list(r) for r in a]
    rhs = [[r] for r in b] if flat else [list(r) for r in b]
    k = len(rhs[0])
    scale = max(abs(e.value) for r in rows for e in r)
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col].value))
        if abs(rows[piv][col].value) < PIVOT_RTOL * scale:
            raise SingularMatrix(f"jet system singular at column {col}")
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv_p = 1.0 / rows[col][col]
        for r in range(n):
            if r == col:
                continue
            f = rows[r][col] * inv_p
            if f.value == 0.0 and f.order >= 1 and not f.grad.any() and (
                f.order < 2 or not f.hess.any()
            ) and (f.order < 3 or not f.third.any()):
                continue
            for j in range(col, n):
                rows[r][j] = rows[r][j] - f * rows[col][j]
            for j in range(k):
                rhs[r][j] = rhs[r][j] - f * rhs[col][j]
    out = [[(rhs[i][j] / rows[i][i]) for j in range(k)] for i in range(n)]
    return [row[0] for row in out] if flat else out


def jet_inverse(a: list) -> list:
    """Inverse of a square jet matrix, as a nested list."""
    n = len(a)
    dim, order = a[0][0].dim, a[0][0].order
    eye = [
        [Jet.constant(1.0 if i == j else 0.0, dim, order) for j in range(n)]
        for i in range(n)
    ]
    return jet_solve(a, eye)


def jet_matmul(a: list, b: list) -> list:
    n, m, k = len(a), len(b), len(b[0])
    return [[sum(a[i][l] * b[l][j] for l in range(m)) for j in range(k)] for i in range(n)]


def jet_values(a) -> np.ndarray:
    """Value parts of a nested list of jets as a float array."""
    if isinstance(a, Jet):
        return np.float64(a.value)
    return np.array([jet_values(x) for x in a])
