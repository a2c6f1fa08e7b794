"""The RK4 step that checks each stage in turn, kept as the reference the
package's step is tested against.

Every stage evaluates the connection through its checked ``batch`` (for a
connection derived from its metric, one certified inverse of g) and
tests its accelerations before the next stage runs, so the first error
in stage order is the one raised.  The package's step defers the
certificate and the finiteness test to once per step; it must give the
same nodes bit for bit, and the same error (type, message and point).
"""

import numpy as np

from subgeo.errors import EvalDomain


def accel(conn, x, v) -> np.ndarray:
    """Geodesic accelerations -Gamma^k_ij v^i v^j of states stacked (N, n);
    a non-finite one is a domain error at its state."""
    acc = -np.einsum("pkij,pi,pj->pk", conn.batch(x, 0)[0], v, v)
    finite = np.isfinite(acc)
    if np.count_nonzero(finite) < finite.size:
        bad = ~finite.all(axis=1)
        raise EvalDomain("non-finite geodesic acceleration", x[int(np.argmax(bad))])
    return acc


def slope(conn, states, n: int) -> np.ndarray:
    """(x', v') = (v, accel) of the states (N, 2n)."""
    x, v = states[:, :n], states[:, n:]
    return np.concatenate([v, accel(conn, x, v)], axis=1)


def rk4_step(conn, states, step) -> dict:
    """One RK4 step of every row of ``states`` (N, 2n), each (x, v)."""
    n = states.shape[1] // 2
    k1 = slope(conn, states, n)
    k2 = slope(conn, states + 0.5 * step * k1, n)
    k3 = slope(conn, states + 0.5 * step * k2, n)
    k4 = slope(conn, states + step * k3, n)
    return {"states": states + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)}
