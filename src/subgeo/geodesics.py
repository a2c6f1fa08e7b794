"""Geodesic integration and curve-level identities for submersions.

Curves are integrated with a fixed-step classical Runge-Kutta scheme on
the first-order system (x' = v, v'^k = -Gamma^k_ij v^i v^j).  Jobs that
share the time span and step integrate in lockstep: every RK4 stage
evaluates the connection at all live jobs in one batched call
(:func:`_stages`).  The steps run in blocks of ``BLOCK``, unchecked; the
checks that change no value (the certificate of the metric inverses,
the finiteness of the accelerations and the chart box) then run once
over the whole block.  A block that fails any of them is thrown away and
replayed from its first state one checked step at a time
(:func:`_rk4_step`), a failing step rebuilt job by job, so every job
ends exactly as a loop that checks each step ends it.  Time derivatives
of fields along a curve come from five-point fourth-order stencils on
the stored nodes, so a curve residual matches the integrator's own
accuracy (both are O(h^4)).

The decomposition identities relate the covariant derivative of a field
along a curve in the total space to base and fiber contributions through
the fundamental tensors and the conformal factor.  They are evaluated at
interior probe nodes, where the central stencil applies.  Each curve
check builds one frame batch over the five-node windows of every
curve's probes, and a curve owns the rows of its windows.  A curve is
a :class:`Trajectory` or the error that ended its job
(:func:`trajectory`); a failed job is an incident of every curve check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundaryExit, ContractViolation, EvalDomain, SubgeoError
from .fields import ConnectionField, MetricField
from .linalg import certify
from .results import build_rows, collect, owned_rows
from .submersion import SubmersionSetup, _amax, _mv, _pair

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


def _accel(gamma, v) -> np.ndarray:
    """Geodesic accelerations -Gamma^k_ij v^i v^j of velocities (N, n)."""
    return -np.einsum("pkij,pi,pj->pk", gamma, v, v)


def _finite(x, acc) -> None:
    """A non-finite acceleration is a domain error at its state's point."""
    finite = np.isfinite(acc)
    if np.count_nonzero(finite) < finite.size:
        bad = ~finite.all(axis=1)
        raise EvalDomain("non-finite geodesic acceleration", x[int(np.argmax(bad))])


def _stages(conn: ConnectionField, states, step, pending) -> np.ndarray:
    """One unchecked RK4 step of every row of ``states`` (N, 2n), each
    (x, v), under the caller's ``np.errstate``: the new states.  Each stage
    leaves its checks in ``pending``, a certify (g, g^-1) for a connection
    derived from its metric, then its _finite (x, acceleration)."""
    n, k = states.shape[1] // 2, []  # k: the slopes (v, acceleration)
    for c in (None, 0.5 * step, 0.5 * step, step):
        s = states if c is None else states + c * k[-1]
        x, v = s[:, :n], s[:, n:]
        pending.append((_finite, x, _accel(conn._gamma(x, pending), v)))
        k.append(np.concatenate([v, pending[-1][2]], axis=1))
    return states + (step / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])


def _check(pending) -> None:
    """The ``pending`` checks of some stages, each kind in one call over
    all of its stages stacked.  The finiteness test stacks the
    accelerations alone and names no point: a caller that reports the
    error runs the stages' own checks in stage order (:func:`_rk4_step`)."""
    certs = [(g, inv) for check, g, inv in pending if check is certify]
    if certs:
        certify(*map(np.concatenate, zip(*certs)))
    acc = np.concatenate([acc for check, _, acc in pending if check is _finite])
    if np.count_nonzero(np.isfinite(acc)) < acc.size:
        raise EvalDomain("non-finite geodesic acceleration")


def _rk4_step(conn: ConnectionField, states, step) -> dict:
    """One checked RK4 step (:func:`_stages`) of every row of ``states``
    (N, 2n).  Its checks run once over the four stages, and one by one
    before any error escapes, so the first error in stage order wins."""
    pending = []
    with np.errstate(all="ignore"):
        try:
            states = _stages(conn, states, step, pending)
            _check(pending)
        except SubgeoError:
            for check, a, b in pending:
                check(a, b)
            raise
    return {"states": states}


# Steps per block of the lockstep loop: the checks of a block's stages and
# the box test of its nodes run once per block (:meth:`_Lockstep.block`).
# Blocks of 8 to 1000 steps integrate the jobs of hyperbolic:3 and
# gaussian:alpha=0 within 3% of each other's time on a 2-core x86 machine.
BLOCK = 32


class _Lockstep:
    """The jobs of one lockstep integration from the starts (x0, v0), each
    stacked (N, n), over ``n_steps`` steps of ``step``.  ``nodes`` holds
    (x, v) per node and job, ``results`` the error that ended each job
    (None while it runs), and ``live`` the jobs still integrating."""

    def __init__(self, conn: ConnectionField, chart, x0, v0, n_steps: int, step: float):
        self.conn, self.chart, self.step, self.n = conn, chart, step, x0.shape[1]
        self.ts = np.concatenate([[0.0], np.arange(n_steps) * step + step])
        self.nodes = np.empty((n_steps + 1, len(x0), 2 * self.n))
        self.nodes[0] = np.concatenate([x0, v0], axis=1)
        self.results = [
            None if inside else
            ContractViolation(f"start point {tuple(p.tolist())} outside the chart box")
            for p, inside in zip(x0, chart.contains(x0))]
        self.live = np.flatnonzero([out is None for out in self.results])

    def block(self, first: int, last: int) -> bool:
        """Steps ``first`` to ``last`` - 1 of the live jobs (nodes ``first``
        + 1 to ``last``), unchecked, then their checks at once: certify and
        the finiteness test each in one call over every stage (:func:`_check`),
        and one box test over every new node.  When all pass, stores the
        nodes and returns True; when a stage raises a SubgeoError, a check
        fails or a node leaves the box, stores nothing and returns False."""
        states, pending = self.nodes[first, self.live], []
        out = np.empty((last - first,) + states.shape)
        with np.errstate(all="ignore"):
            try:
                for j in range(len(out)):
                    states = out[j] = _stages(self.conn, states, self.step, pending)
                _check(pending)
            except SubgeoError:
                return False
            if not self.chart.contains(out[..., :self.n]).all():
                return False
        self.nodes[first + 1:last + 1, self.live] = out
        return True

    def replay(self, first: int, last: int) -> None:
        """Steps ``first`` to ``last`` - 1 of the live jobs one at a time, each a
        checked step (:func:`_rk4_step`) rebuilt job by job when it fails
        (:func:`results.build_rows`), then a box test.  A job that fails or
        leaves the box gets its error and leaves the live set."""
        n, live = self.n, self.live
        states = self.nodes[first, live]
        for k in range(first, last):
            if not len(live):
                break
            arrays, errors = build_rows(lambda rows: _rk4_step(self.conn, rows, self.step),
                                        states)
            if errors:
                for row, exc in errors.items():
                    self.results[live[row]] = exc
                live = np.delete(live, list(errors))
                if not len(live):
                    break
            states = arrays["states"]
            self.nodes[k + 1, live] = states
            inside = self.chart.contains(states[:, :n])
            if not inside.all():
                for job, x in zip(live[~inside], states[~inside, :n]):
                    self.results[job] = BoundaryExit(self.ts[k + 1], tuple(x))
                live, states = live[inside], states[inside]
        self.live = live

    def outcomes(self) -> list:
        """Per job, its :class:`Trajectory` or the error that ended it."""
        n = self.n
        return [Trajectory(self.ts, self.nodes[:, job, :n].copy(), self.nodes[:, job, n:].copy())
                if out is None else out for job, out in enumerate(self.results)]


def integrate_geodesic(conn: ConnectionField, chart, x0, v0, t_end,
                       step: float = DEFAULT_STEP) -> list:
    """Fixed-step RK4 geodesics from the starts (x0, v0), each stacked
    (N, n), over [0, t_end], in lockstep.

    Returns a list holding, per job, its :class:`Trajectory` or the
    :class:`SubgeoError` that ended it: a start outside the chart box, a
    failed evaluation, or a :class:`BoundaryExit` on leaving the box.  A
    job that ends leaves the live set; the others go on and give exactly
    what they give when integrated alone.  The steps run in blocks of
    ``BLOCK``, checked once per block; a block that fails a check is
    replayed step by step, so every job ends as the per-step loop ends it.
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
    n_steps = int(round(t_end / step))
    run = _Lockstep(conn, chart, x0, v0, n_steps, step)
    for first in range(0, n_steps, BLOCK):
        if not len(run.live):
            break
        last = min(first + BLOCK, n_steps)
        if not run.block(first, last):
            run.replay(first, last)
    return run.outcomes()


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


def geodesic_residual(conn: ConnectionField, traj: Trajectory) -> float:
    """Max norm of nabla_{sigma'} sigma' over the whole trajectory."""
    res = (derivative_along(traj.vs, traj.step)
           + np.einsum("pkij,pi,pj->pk", conn.batch(traj.xs, 0)[0], traj.vs, traj.vs))
    return float(np.max(np.abs(res)))


def energy_drift(metric: MetricField, traj: Trajectory) -> float:
    """Relative drift of g(sigma', sigma') along the curve."""
    (g,) = metric.batch(traj.xs, 0)
    e = np.einsum("pi,pij,pj->p", traj.vs, g, traj.vs)
    return float(np.max(np.abs(e - e[0])) / max(abs(e[0]), 1e-30))


def probe_indices(n_nodes: int, count: int = 9):
    """Interior node indices where the central stencil is available."""
    if n_nodes < MIN_NODES:
        raise ContractViolation(f"need at least {MIN_NODES} nodes, got {n_nodes}")
    lo, hi = 2, n_nodes - 3
    count = min(count, hi - lo + 1)
    return sorted({int(round(lo + (hi - lo) * k / max(count - 1, 1))) for k in range(count)})


def probe_rows(traj: Trajectory) -> dict:
    """The five-node windows of a curve's probes (:func:`probe_indices`),
    as rows in (probe, window) order: time ``t``, point ``x``, velocity
    ``v`` and the curve's ``step`` at each."""
    nodes = (np.array(probe_indices(len(traj)))[:, None] + np.arange(-2, 3)).ravel()
    return {"t": traj.ts[nodes], "x": traj.xs[nodes], "v": traj.vs[nodes],
            "step": np.full(len(nodes), traj.step)}


class ProbeBatch:
    """Probe windows of curves (:func:`probe_rows`, stacked) with the
    frames at every window node, rows in (probe, window) order: ``node``
    is the frame batch at the probe nodes, ``t``, ``x`` and ``vw`` the
    times, points and velocities of the windows (P, 5, ...), ``v`` the
    velocities at the probes and ``step`` each probe's curve step."""

    def __init__(self, frames, rows: dict):
        self.frames = frames
        self.node = frames.take(slice(2, None, 5))
        self.t = rows["t"].reshape(-1, 5)
        self.x = rows["x"].reshape(len(self.t), 5, -1)
        self.vw = rows["v"].reshape(self.x.shape)
        self.v = self.vw[:, 2]
        self.step = rows["step"][2::5, None]

    def at_windows(self, name, vectors) -> np.ndarray:
        """The frame matrix ``name`` times vectors (P, 5, n) at every window node."""
        mat = getattr(self.frames, name)
        return _mv(mat.reshape(self.t.shape + mat.shape[1:]), vectors)

    def cov_total(self, nodes) -> np.ndarray:
        """Covariant derivative at the probes of a field given on the windows."""
        return (_central(nodes, self.step)
                + np.einsum("pkij,pi,pj->pk", self.node.gamma, self.v, nodes[:, 2]))

    def cov_base(self, nodes) -> np.ndarray:
        """Base covariant derivative along pi(sigma) of base-vector nodes."""
        w = _mv(self.node.dpi, self.v)
        return (_central(nodes, self.step)
                + np.einsum("pkij,pi,pj->pk", self.node.gamma_b, w, nodes[:, 2]))


def curve_rows(setup: SubmersionSetup, curves, residuals, premise=lambda k: None):
    """:func:`results.fold` inputs of ``residuals(probes)``, one value (or
    dict of values) per probe of a :class:`ProbeBatch`, over one frame
    batch at the probe windows of every curve (:func:`results.owned_rows`);
    a curve's own steps run first: its job's error (:func:`trajectory`),
    ``premise(position)``, then its node count."""

    def rows_of(k):
        traj = trajectory(curves[k])
        premise(k)
        return probe_rows(traj)

    stacks, errors = collect(range(len(curves)), rows_of)
    if not stacks:
        return {}, errors
    rows = {k: np.concatenate([r[k] for r in stacks.values()]) for k in ("t", "x", "v", "step")}
    owners = np.repeat(list(stacks), [len(r["t"]) for r in stacks.values()])
    frames = setup._frames(rows["x"], True)

    def per_row(kept, points):
        out = residuals(ProbeBatch(kept, {k: v[points] for k, v in rows.items()}))
        return {k: np.repeat(v, 5) for k, v in out.items()}  # a probe's value on its window

    return owned_rows(owners, frames, per_row, errors)


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


def _push(setup: SubmersionSetup, f, x, u, h, w) -> np.ndarray:
    """pi_*(A_H U + A_X W + T_U W), (P, m)."""
    T, A = setup.fundamental_T, setup.fundamental_A
    return _mv(f.dpi, A(f, h, u) + A(f, x, w) + T(f, u, w))


def curve_decomposition_residuals(setup: SubmersionSetup, pr: ProbeBatch, e_nodes=None) -> dict:
    """Residuals at each probe of the two identities decomposing
    (nabla_{sigma'} E), for the field E given on the probe windows
    (P, 5, n), :func:`default_test_field` when None.  The horizontal
    identity is tested against every base frame vector; the vertical
    identity componentwise."""
    if e_nodes is None:
        e_nodes = default_test_field(setup.n)(pr.t, pr.x)
    f = pr.node
    T, A = setup.fundamental_T, setup.fundamental_A
    e_i = e_nodes[:, 2]
    x_i, u_i = _mv(f.ph, pr.v), _mv(f.pv, pr.v)
    h_i, w_i = _mv(f.ph, e_i), _mv(f.pv, e_i)
    e_prime = pr.cov_total(e_nodes)
    v_prime = pr.cov_total(pr.at_windows("pv", e_nodes))
    e_star = pr.cov_base(pr.at_windows("dpi", e_nodes))
    rhs_base = e_star + _push(setup, f, x_i, u_i, h_i, w_i)
    lhs_base = _mv(f.dpi, _mv(f.ph, e_prime))
    horiz = _lower(f, lhs_base) - (_lower(f, rhs_base) + _conformal_terms(f, x_i, h_i))
    vert = _mv(f.pv, e_prime) - (A(f, x_i, h_i) + T(f, u_i, h_i) + _mv(f.pv, v_prime))
    return {"horizontal": _amax(horiz), "vertical": _amax(vert)}


def sigma_second_residuals(setup: SubmersionSetup, pr: ProbeBatch) -> dict:
    """Residuals of the second-derivative corollary: the decomposition
    with E = sigma'."""
    return curve_decomposition_residuals(setup, pr, pr.vw)


def projection_condition_residuals(setup: SubmersionSetup, pr: ProbeBatch) -> dict:
    """The projection criterion and the base-geodesic residual at each
    probe; the theorem says one vanishes along a curve iff the other does."""
    f = pr.node
    x_i, u_i = _mv(f.ph, pr.v), _mv(f.pv, pr.v)
    sig2_star = pr.cov_base(pr.at_windows("dpi", pr.vw))
    cond = _lower(f, _push(setup, f, x_i, u_i, x_i, u_i)) + _conformal_terms(f, x_i, x_i)
    return {"condition": _amax(cond), "base_residual": _amax(sig2_star)}


def default_test_field(dim: int):
    """Deterministic smooth field used by the decomposition check."""
    base = np.resize([0.7, -0.4, 0.9, 0.5, -0.8, 0.6], dim)
    slope = np.resize([0.3, 0.5, -0.2, -0.6, 0.4, 0.2], dim)

    def e_fn(t, x):
        return base + np.asarray(t)[..., None] * slope

    return e_fn


CURVE_KEYS = ("horizontal", "vertical")
