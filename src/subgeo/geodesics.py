"""Geodesic integration and the curve-level identities of a submersion.

Curves are integrated with a fixed-step classical Runge-Kutta scheme on
the first-order system (x' = v, v'^k = -Gamma^k_ij v^i v^j).  Jobs that
share the time span and step integrate in lockstep: every RK4 stage
evaluates the connection at all live jobs in one batched call and checks
it before the next stage (:func:`_rk4_step`); a failing step is rebuilt
job by job, and the chart box is tested after each step.  The default
step, ``DEFAULT_STEP``, keeps the energy drift of every builtin job at
least 10^4 below ``geodesic_energy``'s tolerance.  A curve is a
:class:`Trajectory` or the error that ended its job (:func:`trajectory`).

The decomposition identities relate the covariant derivative of a field
along a curve in the total space to base and fiber contributions through
the fundamental tensors and the conformal factor.  On a geodesic they
are pointwise in its initial data (x, v): every time derivative they
take has a closed form from the frame batch at x, sigma'' = -Gamma(v, v)
and d/dt (M E) = (v^k d_k M) E + M dE/dt for the frame matrices P_V and
dpi.  So the curve checks are frame kernels over sampled points, each
with a velocity, and the integrated jobs feed the energy drift alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundaryExit, ContractViolation, EvalDomain, SubgeoError
from .fields import ConnectionField, MetricField
from .results import build_rows
from .submersion import _amax, _mv, _pair

DEFAULT_STEP = 1e-2
# Most RK4 steps, round(t_end / h), one job may take: the node arrays of a
# job are allocated up front, (MAX_STEPS + 1) rows of position and velocity.
MAX_STEPS = 10**6


class Trajectory:
    """Uniformly spaced nodes of an integrated curve."""

    def __init__(self, ts, xs, vs):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        if len(self.ts) != len(self.xs) or len(self.ts) != len(self.vs):
            raise ContractViolation("trajectory arrays must share a length")

    def __len__(self):
        return len(self.ts)

    def write_csv(self, path) -> None:
        n = self.xs.shape[1]
        cols = ["t"]
        cols += [f"x{i+1}" for i in range(n)]
        cols += [f"v{i+1}" for i in range(n)]
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for k in range(len(self.ts)):
                row = [self.ts[k], *self.xs[k], *self.vs[k]]
                fh.write(",".join("%.17g" % val for val in row) + "\n")


def _accel(gamma, v) -> np.ndarray:
    """Geodesic accelerations -Gamma^k_ij v^i v^j of velocities (N, n)."""
    return -np.einsum("pkij,pi,pj->pk", gamma, v, v)


def _rk4_step(conn: ConnectionField, states, step) -> dict:
    """One RK4 step of every row of ``states`` (N, 2n), each (x, v), whose
    points :func:`integrate_geodesic` has checked.  Each stage calls the
    connection's kernel ``_batch`` at order 0 (for one derived from its
    metric, one certified inverse of g) and tests its accelerations
    before the next stage runs, so the first error in stage order is the
    one raised; a non-finite acceleration is a domain error at its
    state's point."""
    n, k = states.shape[1] // 2, []  # k: the slopes (v, acceleration)
    with np.errstate(all="ignore"):
        for c in (None, 0.5 * step, 0.5 * step, step):
            s = states if c is None else states + c * k[-1]
            x, v = s[:, :n], s[:, n:]
            acc = _accel(conn._batch(x, 0)[0], v)
            finite = np.isfinite(acc)
            if np.count_nonzero(finite) < finite.size:
                bad = ~finite.all(axis=1)
                raise EvalDomain("non-finite geodesic acceleration", x[int(np.argmax(bad))])
            k.append(np.concatenate([v, acc], axis=1))
        return {"states": states + (step / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])}


def integrate_geodesic(conn: ConnectionField, chart, x0, v0, t_end,
                       step: float = DEFAULT_STEP) -> list:
    """Fixed-step RK4 geodesics from the starts (x0, v0), each stacked
    (N, n), over [0, t_end], in lockstep.

    Returns a list holding, per job, its :class:`Trajectory` or the
    :class:`SubgeoError` that ended it: a start outside the chart box, a
    failed evaluation, or a :class:`BoundaryExit` on leaving the box.
    Each step is one checked :func:`_rk4_step` of the live jobs, rebuilt
    job by job when it fails (:func:`results.build_rows`), then a box
    test.  A job that ends leaves the live set; the others go on and give
    exactly what they give when integrated alone.
    """
    if not (t_end > 0.0 and step > 0.0):  # NaN fails too
        raise ContractViolation("t_end and step must be positive")
    if too_many_steps(t_end, step):
        raise ContractViolation(f"t_end / step exceeds {MAX_STEPS} steps")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != v0.shape or x0.ndim != 2 or x0.shape[1] != conn.dim:
        raise ContractViolation(f"starts must be two stacks (N, {conn.dim}) of one shape: "
                                f"{x0.shape}, {v0.shape}")
    n, n_steps = conn.dim, int(round(t_end / step))
    ts = np.concatenate([[0.0], np.arange(n_steps) * step + step])
    nodes = np.empty((n_steps + 1, len(x0), 2 * n))  # (x, v) per node and job
    nodes[0] = np.concatenate([x0, v0], axis=1)
    results = [None if inside else  # the error that ended each job, None while it runs
               ContractViolation(f"start point {tuple(p.tolist())} outside the chart box")
               for p, inside in zip(x0, chart.contains(x0))]
    live = np.flatnonzero([out is None for out in results])
    states = nodes[0, live]
    for k in range(n_steps):
        if not len(live):
            break
        arrays, errors = build_rows(lambda rows: _rk4_step(conn, rows, step), states)
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
    return [Trajectory(ts, nodes[:, job, :n].copy(), nodes[:, job, n:].copy())
            if out is None else out for job, out in enumerate(results)]


def trajectory(curve) -> Trajectory:
    """A curve item: its :class:`Trajectory`, or the :class:`SubgeoError`
    that ended its job, raised here so the curve is an incident."""
    if isinstance(curve, SubgeoError):
        raise curve
    return curve


def too_many_steps(t_end: float, step: float) -> bool:
    """Whether round(t_end / step) exceeds MAX_STEPS (an overflowing
    ratio does too)."""
    steps = t_end / step
    return math.isinf(steps) or round(steps) > MAX_STEPS


def energy_drift(metric: MetricField, traj: Trajectory) -> float:
    """Relative drift of g(sigma', sigma') along the curve."""
    (g,) = metric.batch(traj.xs, 0)
    e = np.einsum("pi,pij,pj->p", traj.vs, g, traj.vs)
    return float(np.max(np.abs(e - e[0])) / max(abs(e[0]), 1e-30))


def _lower(f, v) -> np.ndarray:
    """g_B(v, e_a) for the base frame vectors e_a, (P, m)."""
    return np.einsum("pi,pia->pa", v, f.gb)


def _conformal_terms(f, x, h) -> np.ndarray:
    """(dphi.X) g_B(pi_* H, e_a) + (dphi.H) g_B(pi_* X, e_a)
    - (dphi.L_a) g_B(pi_* X, pi_* H), L_a the lift of e_a, (P, m)."""
    px, ph = _mv(f.dpi, x), _mv(f.dpi, h)
    dl = np.einsum("pi,pia->pa", f.dphi, f.lcols)
    return (np.einsum("pi,pi->p", f.dphi, x)[:, None] * _lower(f, ph)
            + np.einsum("pi,pi->p", f.dphi, h)[:, None] * _lower(f, px)
            - dl * _pair(f.gb, px, ph)[:, None])


def _push(f, x, u, h, w) -> np.ndarray:
    """pi_*(A_H U + A_X W + T_U W), (P, m)."""
    T, A = f.setup.fundamental_T, f.setup.fundamental_A
    return _mv(f.dpi, A(f, h, u) + A(f, x, w) + T(f, u, w))


def _gamma(gamma, a, b) -> np.ndarray:
    """Gamma^k_ij a^i b^j, (P, k)."""
    return np.einsum("pkij,pi,pj->pk", gamma, a, b)


def _dt(d_mat, v, e) -> np.ndarray:
    """(v^k d_k M) e: the time derivative along sigma' = v of a frame
    matrix M, given its partials ``d_mat`` (derivative index first), on e."""
    return np.einsum("pkij,pk,pj->pi", d_mat, v, e)


def curve_decomposition_residuals(f, v, e=None, de=None) -> dict:
    """Residuals at each frame point of the two identities decomposing
    nabla_{sigma'} E along the geodesic sigma with sigma(0) the point and
    sigma'(0) = v (P, n), for a field E along sigma with value e and time
    derivative de there (P, n); :func:`default_test_field` when None.
    The horizontal identity is tested against every base frame vector;
    the vertical identity componentwise."""
    if e is None:
        e, de = (np.broadcast_to(a, v.shape) for a in default_test_field(f.setup.n))
    T, A = f.setup.fundamental_T, f.setup.fundamental_A
    x_i, u_i = _mv(f.ph, v), _mv(f.pv, v)
    h_i, w_i = _mv(f.ph, e), _mv(f.pv, e)
    e_prime = de + _gamma(f.gamma, v, e)
    v_prime = _dt(f.d_pv, v, e) + _mv(f.pv, de) + _gamma(f.gamma, v, w_i)
    e_star = (_dt(f.d_dpi, v, e) + _mv(f.dpi, de)
              + _gamma(f.gamma_b, _mv(f.dpi, v), _mv(f.dpi, e)))
    rhs_base = e_star + _push(f, x_i, u_i, h_i, w_i)
    lhs_base = _mv(f.dpi, _mv(f.ph, e_prime))
    horiz = _lower(f, lhs_base) - (_lower(f, rhs_base) + _conformal_terms(f, x_i, h_i))
    vert = _mv(f.pv, e_prime) - (A(f, x_i, h_i) + T(f, u_i, h_i) + _mv(f.pv, v_prime))
    return {"horizontal": _amax(horiz), "vertical": _amax(vert)}


def sigma_second_residuals(f, v) -> dict:
    """Residuals of the second-derivative corollary: the decomposition
    with E = sigma', whose time derivative is sigma'' = -Gamma(v, v)."""
    return curve_decomposition_residuals(f, v, v, -_gamma(f.gamma, v, v))


def projection_condition_residuals(f, v) -> dict:
    """The projection criterion along the geodesic with initial data
    (point, v) at each frame point: ``condition`` its largest component,
    ``base_residual`` the base acceleration nabla^B_{pi_* sigma'} pi_*
    sigma', and ``equality`` the defect of the theorem's pointwise form,
    g_B(base acceleration, e_a) + condition_a = 0, so the condition
    vanishes iff the projected curve is a base geodesic."""
    x_i, u_i, w = _mv(f.ph, v), _mv(f.pv, v), _mv(f.dpi, v)
    base = _dt(f.d_dpi, v, v) - _mv(f.dpi, _gamma(f.gamma, v, v)) + _gamma(f.gamma_b, w, w)
    cond = _lower(f, _push(f, x_i, u_i, x_i, u_i)) + _conformal_terms(f, x_i, x_i)
    return {"equality": _amax(_lower(f, base) + cond), "condition": _amax(cond),
            "base_residual": _amax(base)}


def default_test_field(dim: int):
    """The field E(t) = E0 + t E1 the decomposition check tests, as its
    value E0 at t = 0 and its time derivative E1, each (dim,)."""
    return (np.resize([0.7, -0.4, 0.9, 0.5, -0.8, 0.6], dim),
            np.resize([0.3, 0.5, -0.2, -0.6, 0.4, 0.2], dim))


CURVE_KEYS = ("horizontal", "vertical")
