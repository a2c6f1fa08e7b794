"""The RK4 step that checks each stage in turn and the lockstep loop that
checks each step, kept as the reference the package's integration is
tested against.

Every stage evaluates the connection through its checked ``batch`` (for a
connection derived from its metric, one certified inverse of g) and
tests its accelerations before the next stage runs, so the first error
in stage order is the one raised.  The loop takes one such step of the
live jobs at a time, rebuilt job by job when it fails, and tests the
chart box after each.  The package's integration must give the same
nodes bit for bit, and the same errors (type, message, point and exit
time).
"""

import numpy as np

from subgeo.errors import BoundaryExit, ContractViolation, EvalDomain
from subgeo.geodesics import Trajectory
from subgeo.results import build_rows


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


def integrate_geodesic(conn, chart, x0, v0, t_end, step) -> list:
    """Per job, its :class:`Trajectory` or the error that ended it, from
    lockstep steps of the live jobs taken one at a time."""
    x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    n = x0.shape[1]
    n_steps = int(round(t_end / step))
    ts = np.concatenate([[0.0], np.arange(n_steps) * step + step])
    nodes = np.empty((n_steps + 1, len(x0), 2 * n))
    nodes[0] = np.concatenate([x0, v0], axis=1)
    results = [None if inside else
               ContractViolation(f"start point {tuple(p.tolist())} outside the chart box")
               for p, inside in zip(x0, chart.contains(x0))]
    live = np.flatnonzero([out is None for out in results])
    states = nodes[0, live]
    for k in range(n_steps):
        if not len(live):
            break
        arrays, errors = build_rows(lambda rows: rk4_step(conn, rows, step), states)
        if errors:
            for row, exc in errors.items():
                results[live[row]] = exc
            live = np.delete(live, list(errors))
            if not len(live):
                break
        states = arrays["states"]
        nodes[k + 1, live] = states
        inside = chart.contains(states[:, :n])
        if not inside.all():
            for job, x in zip(live[~inside], states[~inside, :n]):
                results[job] = BoundaryExit(ts[k + 1], tuple(x))
            live, states = live[inside], states[inside]
    return [Trajectory(ts, nodes[:, job, :n].copy(), nodes[:, job, n:].copy()) if out is None
            else out for job, out in enumerate(results)]
