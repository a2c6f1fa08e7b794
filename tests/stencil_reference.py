"""Five-node time stencils on the stored nodes of an integrated curve,
kept as the reference for the closed-form time derivatives the curve
checks take at a point and a velocity.

``derivative_along`` differentiates node samples to fourth order: the
central stencil at interior nodes, one-sided stencils at the two nodes
nearest each end.  ``probe_indices`` picks interior nodes where the
central stencil applies.  ``tests/test_geodesics.py`` compares these
derivatives along the builtin geodesic jobs with the closed forms from a
frame batch (sigma'' = -Gamma(v, v), and the derivatives of P_V E and
pi_* E by ``d_pv`` and ``d_dpi``).
"""

import numpy as np

from subgeo.errors import ContractViolation

MIN_NODES = 5

# five-point stencil weights, rows = offset of the node within the window
_END_WEIGHTS = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
])
_CENTER_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0])


def derivative_along(values, step: float) -> np.ndarray:
    """Fourth-order time derivative of node samples (N, ...) -> (N, ...)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < MIN_NODES:
        raise ContractViolation(f"need at least {MIN_NODES} nodes, got {n}")
    flat = values.reshape(n, -1)
    out = np.empty_like(flat)
    windows = flat[np.arange(2, n - 2)[:, None] + np.arange(-2, 3)]
    out[2:n - 2] = np.einsum("w,pw...->p...", _CENTER_WEIGHTS, windows) / (12.0 * step)
    for k in (0, 1):
        out[k] = (_END_WEIGHTS[k] @ flat[:5]) / (12.0 * step)
        out[n - 1 - k] = -(_END_WEIGHTS[k] @ flat[n - 5:][::-1]) / (12.0 * step)
    return out.reshape(values.shape)


def probe_indices(n_nodes: int, count: int = 9):
    """Interior node indices where the central stencil is available."""
    if n_nodes < MIN_NODES:
        raise ContractViolation(f"need at least {MIN_NODES} nodes, got {n_nodes}")
    lo, hi = 2, n_nodes - 3
    count = min(count, hi - lo + 1)
    return sorted({int(round(lo + (hi - lo) * k / max(count - 1, 1))) for k in range(count)})
