"""Geodesic integration and curve-level identities for submersions.

Curves are integrated with a fixed-step classical Runge-Kutta scheme on
the first-order system (x' = v, v'^k = -Gamma^k_ij v^i v^j).  Jobs that
share the time span and step integrate in lockstep: every RK4 stage
evaluates the connection at all live jobs in one batched call.  Time
derivatives of fields along a curve come from five-point fourth-order
stencils on the stored nodes, so every curve residual is consistent
with the integrator's own accuracy (both are O(h^4)).

The decomposition identities relate the covariant derivative of a field
along a curve in the total space to base and fiber contributions through
the fundamental tensors and the conformal factor.  They are evaluated at
interior probe nodes, where the central stencil applies, all probes of
a curve at once: one frame batch over their stencil windows.  A curve
keeps its probes for each submersion, so every curve check reads the
same frames.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundaryExit, ContractViolation, EvalDomain, PremiseFailed, SubgeoError
from .fields import ConnectionField, MetricField
from .results import (FAIL, INCONCLUSIVE, PASS, PREMISE_FACTOR, CheckResult, agree, peak,
                      sweep)
from .submersion import SubmersionSetup, _mv, _pair

DEFAULT_STEP = 1e-3
# Most RK4 steps, round(t_end / h), one job may take: the node arrays of a
# job are allocated up front, (MAX_STEPS + 1) rows of position and velocity.
MAX_STEPS = 10**6
MIN_NODES = 5


class Trajectory:
    """Uniformly spaced nodes of an integrated curve."""

    def __init__(self, ts, xs, vs):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        if len(self.ts) != len(self.xs) or len(self.ts) != len(self.vs):
            raise ContractViolation("trajectory arrays must share a length")
        self.probes = {}  # setup -> _Probes, filled by _probes

    def __len__(self):
        return len(self.ts)

    @property
    def step(self) -> float:
        return float(self.ts[1] - self.ts[0]) if len(self.ts) > 1 else 0.0

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


def _accel(conn: ConnectionField, x, v) -> np.ndarray:
    """Geodesic accelerations -Gamma^k_ij v^i v^j of states stacked (N, n);
    a non-finite one is a domain error at its state."""
    acc = -np.einsum("pkij,pi,pj->pk", conn.batch(x), v, v)
    bad = ~np.isfinite(acc).all(axis=1)
    if bad.any():
        raise EvalDomain("non-finite geodesic acceleration", x[int(np.argmax(bad))])
    return acc


def _rk4_step(conn: ConnectionField, x, v, step):
    k1x, k1v = v, _accel(conn, x, v)
    x2, v2 = x + 0.5 * step * k1x, v + 0.5 * step * k1v
    k2x, k2v = v2, _accel(conn, x2, v2)
    x3, v3 = x + 0.5 * step * k2x, v + 0.5 * step * k2v
    k3x, k3v = v3, _accel(conn, x3, v3)
    x4, v4 = x + step * k3x, v + step * k3v
    k4x, k4v = v4, _accel(conn, x4, v4)
    x = x + (step / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v = v + (step / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x, v


def _isolated_step(conn: ConnectionField, x, v, step):
    """One RK4 step of every row, plus {row: error} for the rows whose
    evaluation failed.  Rows evaluate independently, so when the batched
    step fails each row is retried alone: the failing ones are found and
    the others get exactly the values the batched step would give them."""
    try:
        return (*_rk4_step(conn, x, v, step), {})
    except SubgeoError:
        pass
    x_new, v_new, errors = x.copy(), v.copy(), {}
    for row in range(len(x)):
        try:
            x_new[row:row + 1], v_new[row:row + 1] = _rk4_step(
                conn, x[row:row + 1], v[row:row + 1], step)
        except SubgeoError as exc:
            errors[row] = exc
    return x_new, v_new, errors


def integrate_geodesic(conn: ConnectionField, chart, x0, v0, t_end,
                       step: float = DEFAULT_STEP, on_exit: str = "raise"):
    """Fixed-step RK4 geodesics from (x0, v0) over [0, t_end].

    For one start, ``x0`` and ``v0`` of shape (n,), returns its
    :class:`Trajectory`.  Leaving the chart box raises
    :class:`BoundaryExit`, or truncates the trajectory when
    ``on_exit='clip'``; a failed evaluation raises its error.

    For a stack of starts, shape (N, n), the jobs integrate in lockstep
    and the result is a list holding, per job, its Trajectory or the
    :class:`SubgeoError` that ended it.  A job that ends (an error, a
    boundary exit, or a clip) leaves the live set; the others go on and
    give exactly what they give when integrated alone.
    """
    if t_end <= 0.0 or step <= 0.0:
        raise ContractViolation("t_end and step must be positive")
    if too_many_steps(t_end, step):
        raise ContractViolation(f"t_end / step exceeds {MAX_STEPS} steps")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != v0.shape or x0.ndim not in (1, 2):
        raise ContractViolation(f"start shapes differ or are not (n,) or (N, n): "
                                f"{x0.shape}, {v0.shape}")
    if x0.ndim == 2:
        return _lockstep(conn, chart, x0, v0, t_end, step, on_exit)
    (out,) = _lockstep(conn, chart, x0[None], v0[None], t_end, step, on_exit)
    if isinstance(out, SubgeoError):
        raise out
    return out


def too_many_steps(t_end: float, step: float) -> bool:
    """Whether round(t_end / step) exceeds MAX_STEPS (an overflowing
    ratio does too)."""
    steps = t_end / step
    return math.isinf(steps) or round(steps) > MAX_STEPS


def _lockstep(conn, chart, x0, v0, t_end, step, on_exit) -> list:
    n_jobs = len(x0)
    n_steps = int(round(t_end / step))
    ts = np.concatenate([[0.0], np.arange(n_steps) * step + step])
    xs = np.empty((n_steps + 1,) + x0.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x0, v0
    ends = [n_steps + 1] * n_jobs
    results = [None] * n_jobs
    live = []
    for job in range(n_jobs):
        if chart.contains(x0[job]):
            live.append(job)
        else:
            results[job] = ContractViolation(
                f"start point {tuple(x0[job])} outside the chart box")
    x, v = x0[live], v0[live]
    for k in range(n_steps):
        if not live:
            break
        x, v, errors = _isolated_step(conn, x, v, step)
        keep = []
        for row, job in enumerate(live):
            if row in errors:
                results[job] = errors[row]
            elif not chart.contains(x[row]):
                if on_exit == "clip":
                    ends[job] = k + 1
                else:
                    results[job] = BoundaryExit(ts[k + 1], tuple(x[row]))
            else:
                keep.append(row)
        live = [live[row] for row in keep]
        x, v = x[keep], v[keep]
        xs[k + 1, live], vs[k + 1, live] = x, v
    for job in range(n_jobs):
        if results[job] is None:
            end = ends[job]
            results[job] = Trajectory(ts[:end], xs[:end, job].copy(), vs[:end, job].copy())
    return results


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
    out[2:n - 2] = _central(flat[np.arange(2, n - 2)[:, None] + np.arange(-2, 3)], step)
    for k in (0, 1):
        out[k] = (_END_WEIGHTS[k] @ flat[:5]) / (12.0 * step)
        out[n - 1 - k] = -(_END_WEIGHTS[k] @ flat[n - 5:][::-1]) / (12.0 * step)
    return out.reshape(values.shape)


def _central(samples, step: float) -> np.ndarray:
    """Fourth-order central time derivative at the middle node of each
    five-node window, samples (P, 5, ...) -> (P, ...)."""
    return np.einsum("w,pw...->p...", _CENTER_WEIGHTS, samples) / (12.0 * step)


def covariant_along_curve(conn: ConnectionField, traj: Trajectory, w_nodes) -> np.ndarray:
    """(nabla_{sigma'} W)(t_k) for a field W given by its node values."""
    w_nodes = np.asarray(w_nodes, dtype=float)
    dw = derivative_along(w_nodes, traj.step)
    gamma = conn.batch(traj.xs)
    return dw + np.einsum("pkij,pi,pj->pk", gamma, traj.vs, w_nodes)


def geodesic_residual(conn: ConnectionField, traj: Trajectory) -> float:
    """Max norm of nabla_{sigma'} sigma' over the whole trajectory."""
    res = covariant_along_curve(conn, traj, traj.vs)
    return float(np.max(np.abs(res)))


def energy_drift(metric: MetricField, traj: Trajectory) -> float:
    """Relative drift of g(sigma', sigma') along the curve."""
    g, _ = metric.batch(traj.xs)
    e = np.einsum("pi,pij,pj->p", traj.vs, g, traj.vs)
    return float(np.max(np.abs(e - e[0])) / max(abs(e[0]), 1e-30))


def probe_indices(n_nodes: int, count: int = 9):
    """Interior node indices where the central stencil is available."""
    if n_nodes < MIN_NODES:
        raise ContractViolation(f"need at least {MIN_NODES} nodes, got {n_nodes}")
    lo, hi = 2, n_nodes - 3
    if hi < lo:
        return [2]
    count = min(count, hi - lo + 1)
    return sorted({int(round(lo + (hi - lo) * k / max(count - 1, 1))) for k in range(count)})


class _Probes:
    """A curve's interior probe nodes (:func:`probe_indices`) in one
    submersion, from one rank-tested frame batch over all their five-node
    windows, rows in (probe, window) order: ``node`` is the frame batch at
    the probe nodes and ``v`` the velocities there.  A row that fails
    fails the curve with the first failing row's error."""

    def __init__(self, setup: SubmersionSetup, traj: Trajectory):
        self.windows = np.array(probe_indices(len(traj)))[:, None] + np.arange(-2, 3)
        self.frames = setup._frames(traj.xs[self.windows].reshape(-1, setup.n), True)
        self.frames.raise_first_error()
        self.node = self.frames.take(slice(2, None, 5))
        self.v = traj.vs[self.windows[:, 2]]
        self.step = traj.step

    def at_windows(self, name, vectors) -> np.ndarray:
        """The frame matrix ``name`` times vectors (P, 5, n) at every window node."""
        mat = getattr(self.frames, name)
        return _mv(mat.reshape(self.windows.shape + mat.shape[1:]), vectors)

    def cov_total(self, nodes) -> np.ndarray:
        """Covariant derivative at the probes of a field given on the windows."""
        return (_central(nodes, self.step)
                + np.einsum("pkij,pi,pj->pk", self.node.gamma, self.v, nodes[:, 2]))

    def cov_base(self, nodes) -> np.ndarray:
        """Base covariant derivative along pi(sigma) of base-vector nodes."""
        w = _mv(self.node.dpi, self.v)
        return (_central(nodes, self.step)
                + np.einsum("pkij,pi,pj->pk", self.node.gamma_b, w, nodes[:, 2]))


def _probes(setup: SubmersionSetup, traj: Trajectory) -> _Probes:
    """The curve's probes in ``setup``, built on first use and kept on the
    curve, so the curve checks share them."""
    if setup not in traj.probes:
        traj.probes[setup] = _Probes(setup, traj)
    return traj.probes[setup]


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


def curve_decomposition_residuals(setup: SubmersionSetup, traj: Trajectory, e_fn) -> dict:
    """Residuals of the two identities decomposing (nabla_{sigma'} E).

    ``e_fn(t, x)`` defines the test field along the curve: it takes times
    (...) and points (..., n) and gives vectors (..., n).  The horizontal
    identity is tested against every base frame vector; the vertical
    identity componentwise.
    """
    pr = _probes(setup, traj)
    f = pr.node
    T, A = setup.fundamental_T, setup.fundamental_A
    e_nodes = e_fn(traj.ts[pr.windows], traj.xs[pr.windows])
    e_i = e_nodes[:, 2]
    x_i, u_i = _mv(f.ph, pr.v), _mv(f.pv, pr.v)
    h_i, w_i = _mv(f.ph, e_i), _mv(f.pv, e_i)
    e_prime = pr.cov_total(e_nodes)
    v_prime = pr.cov_total(pr.at_windows("pv", e_nodes))
    e_star = pr.cov_base(pr.at_windows("dpi", e_nodes))
    rhs_base = e_star + _mv(f.dpi, A(f, h_i, u_i) + A(f, x_i, w_i) + T(f, u_i, w_i))
    lhs_base = _mv(f.dpi, _mv(f.ph, e_prime))
    horiz = _lower(f, lhs_base) - (_lower(f, rhs_base) + _conformal_terms(f, x_i, h_i))
    vert = _mv(f.pv, e_prime) - (A(f, x_i, h_i) + T(f, u_i, h_i) + _mv(f.pv, v_prime))
    return {"horizontal": float(np.max(np.abs(horiz))), "vertical": float(np.max(np.abs(vert)))}


def sigma_second_residuals(setup: SubmersionSetup, traj: Trajectory) -> dict:
    """Residuals of the second-derivative corollary (E = sigma')."""
    pr = _probes(setup, traj)
    f = pr.node
    T, A = setup.fundamental_T, setup.fundamental_A
    v_nodes = traj.vs[pr.windows]
    x_i, u_i = _mv(f.ph, pr.v), _mv(f.pv, pr.v)
    sig2 = pr.cov_total(v_nodes)
    u_prime = pr.cov_total(pr.at_windows("pv", v_nodes))
    sig2_star = pr.cov_base(pr.at_windows("dpi", v_nodes))
    rhs_base = sig2_star + _mv(f.dpi, 2.0 * A(f, x_i, u_i) + T(f, u_i, u_i))
    lhs_base = _mv(f.dpi, _mv(f.ph, sig2))
    horiz = _lower(f, lhs_base) - (_lower(f, rhs_base) + _conformal_terms(f, x_i, x_i))
    vert = _mv(f.pv, sig2) - (A(f, x_i, x_i) + T(f, u_i, x_i) + _mv(f.pv, u_prime))
    return {"horizontal": float(np.max(np.abs(horiz))), "vertical": float(np.max(np.abs(vert)))}


def projection_condition_residuals(setup: SubmersionSetup, traj: Trajectory) -> dict:
    """The projection criterion and the base-geodesic residual for a curve.

    Returns the max over probes of the criterion expression and of the
    base acceleration; the theorem says one vanishes iff the other does.
    """
    pr = _probes(setup, traj)
    f = pr.node
    x_i, u_i = _mv(f.ph, pr.v), _mv(f.pv, pr.v)
    sig2_star = pr.cov_base(pr.at_windows("dpi", traj.vs[pr.windows]))
    vec = _mv(f.dpi, 2.0 * setup.fundamental_A(f, x_i, u_i) + setup.fundamental_T(f, u_i, u_i))
    cond = _lower(f, vec) + _conformal_terms(f, x_i, x_i)
    return {"condition": float(np.max(np.abs(cond))),
            "base_residual": float(np.max(np.abs(sig2_star)))}


def default_test_field(dim: int):
    """Deterministic smooth field used by the decomposition check."""
    base = np.array([0.7, -0.4, 0.9, 0.5, -0.8, 0.6][:dim])
    slope = np.array([0.3, 0.5, -0.2, -0.6, 0.4, 0.2][:dim])
    if dim > 6:
        base = np.resize(base, dim)
        slope = np.resize(slope, dim)

    def e_fn(t, x):
        return base + np.asarray(t)[..., None] * slope

    return e_fn


CURVE_KEYS = ("horizontal", "vertical")


def check_curve_decomposition(setup: SubmersionSetup, curves, tol) -> CheckResult:
    """Decomposition identities along integrated geodesics."""
    e_fn = default_test_field(setup.n)
    s = sweep(curves, lambda traj: curve_decomposition_residuals(setup, traj, e_fn),
              keys=CURVE_KEYS)
    return s.summarize("curve_decomposition", tol, details=s.worst)


def check_sigma_second(setup: SubmersionSetup, curves, tol) -> CheckResult:
    s = sweep(curves, lambda traj: sigma_second_residuals(setup, traj), keys=CURVE_KEYS)
    return s.summarize("sigma_second", tol, details=s.worst)


def geodesic_projection_check(setup: SubmersionSetup, curves, tol) -> CheckResult:
    """Criterion residual vanishes iff the projected curve is a base geodesic.

    Each curve must itself be a geodesic of the total space (premise); a
    curve whose premise residual exceeds PREMISE_FACTOR * tol is skipped
    as an incident.  The check passes when every curve's two verdicts
    agree, and is inconclusive when fewer than 90% of the curves evaluate;
    its residual is each side's value where the other side passes.
    """
    per_curve = []

    def at(traj):
        premise = geodesic_residual(setup.total.conn, traj)
        if premise > PREMISE_FACTOR * tol:
            per_curve.append({"premise_residual": premise, "skipped": True})
            raise PremiseFailed(f"curve is not a geodesic: premise residual {premise:.3e}")
        r = projection_condition_residuals(setup, traj)
        per_curve.append({
            "condition": r["condition"],
            "base_residual": r["base_residual"],
            "agree": agree(r["condition"], r["base_residual"], tol),
        })
        informative = []
        if r["condition"] <= tol:
            informative.append(r["base_residual"])
        if r["base_residual"] <= tol:
            informative.append(r["condition"])
        return peak(informative)

    s = sweep(curves, at)
    if not s.conclusive:
        status = INCONCLUSIVE
    else:
        status = PASS if all(c.get("agree", True) for c in per_curve) else FAIL
    return s.result("geodesic_projection", tol, status, s.residual, details={"curves": per_curve})
