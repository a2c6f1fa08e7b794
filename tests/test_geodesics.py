"""Geodesic integration against closed forms, plus the curve-level checks.

Upper half-plane geodesics have exact formulas: vertical rays
(0, e^t) for unit vertical start, and unit-speed semicircles
(tanh t, sech t) when shot horizontally from (0, 1).
"""

import collections
import math
import warnings

import numpy as np
import pytest

import rk4_reference
import stencil_reference
from conftest import (hyperbolic_setup, integrate_one, max_abs, nodes_of, run_check,
                      skewed_setup)
from subgeo import builtins, config, exprlang, fields, linalg, runner
from subgeo import geodesics as geo
from subgeo.errors import BoundaryExit, ContractViolation, EvalDomain, SingularMatrix
from subgeo.fields import (
    ChartedManifold,
    ExprConnection,
    LeviCivitaConnection,
    MetricField,
)
from subgeo.results import FAIL, INCONCLUSIVE, PASS
from subgeo.sampling import sample_box


def half_plane():
    chart = ChartedManifold("hp", 2, ((-4.0, 4.0), (0.05, 40.0)))
    metric = MetricField.from_exprs([["1/x2^2", "0"], ["0", "1/x2^2"]], 2)
    return chart, metric, LeviCivitaConnection(metric)


def test_vertical_ray_hits_e():
    chart, metric, conn = half_plane()
    traj = integrate_one(conn, chart, (0.0, 1.0), (0.0, 1.0), 1.0, step=1e-3)
    assert traj.xs[-1] == pytest.approx([0.0, math.e], abs=1e-9)
    assert traj.vs[-1] == pytest.approx([0.0, math.e], abs=1e-9)
    assert len(traj) == 1001


def test_semicircle_hits_tanh_sech():
    chart, metric, conn = half_plane()
    traj = integrate_one(conn, chart, (0.0, 1.0), (1.0, 0.0), 1.0, step=1e-3)
    assert traj.xs[-1] == pytest.approx([math.tanh(1.0), 1.0 / math.cosh(1.0)], abs=1e-9)
    # the whole trajectory stays on the unit semicircle
    radii = np.hypot(traj.xs[:, 0], traj.xs[:, 1])
    assert max_abs(radii - 1.0) < 1e-10


def test_rk4_error_scales_as_h4():
    chart, metric, conn = half_plane()
    exact = np.array([math.tanh(0.5), 1.0 / math.cosh(0.5)])

    def endpoint_error(h):
        t = integrate_one(conn, chart, (0.0, 1.0), (1.0, 0.0), 0.5, step=h)
        return max_abs(t.xs[-1] - exact)

    factor = endpoint_error(2e-2) / endpoint_error(1e-2)
    assert 12.0 < factor < 20.0


def test_energy_is_conserved():
    chart, metric, conn = half_plane()
    traj = integrate_one(conn, chart, (0.2, 1.5), (0.7, -0.3), 1.0, step=1e-3)
    assert geo.energy_drift(metric, traj) < 1e-8


def test_boundary_exit_raises_and_clips():
    chart = ChartedManifold("strip", 2, ((-1.0, 1.0), (0.5, 3.0)))
    metric = MetricField.from_exprs([["1/x2^2", "0"], ["0", "1/x2^2"]], 2)
    conn = LeviCivitaConnection(metric)
    # y(t) = e^{-t} crosses y = 0.5 at t = log 2
    with pytest.raises(BoundaryExit) as e:
        integrate_one(conn, chart, (0.0, 1.0), (0.0, -1.0), 1.0, step=1e-3)
    assert e.value.t == pytest.approx(math.log(2.0), abs=2e-3)
    assert e.value.point is not None


def test_bad_inputs_rejected():
    chart, metric, conn = half_plane()
    with pytest.raises(ContractViolation):
        integrate_one(conn, chart, (0.0, 1.0), (1.0, 0.0), -1.0)
    with pytest.raises(ContractViolation):
        integrate_one(conn, chart, (0.0, 100.0), (1.0, 0.0), 1.0)
    # starts come as (N, n) stacks only, of one shape
    for x0, v0 in (((0.0, 1.0), (1.0, 0.0)), ([(0.0, 1.0)], [(1.0, 0.0, 0.0)]),
                   ([[(0.0, 1.0)]], [[(1.0, 0.0)]])):
        with pytest.raises(ContractViolation, match="two stacks"):
            geo.integrate_geodesic(conn, chart, x0, v0, 1.0)


@pytest.mark.parametrize("t_end, step", [(math.nan, 1e-3), (1.0, math.nan)])
def test_a_nan_span_or_step_is_a_contract_violation(t_end, step):
    chart, metric, conn = half_plane()
    with pytest.raises(ContractViolation, match="must be positive"):
        geo.integrate_geodesic(conn, chart, [(0.0, 1.0)], [(1.0, 0.0)], t_end, step)


def _hyperbolic_states():
    sc = builtins.build("hyperbolic:3")
    jobs = [sc.geodesic_jobs[k] for k in sorted(sc.geodesic_jobs)]
    return sc, np.array([j["p0"] + j["v0"] for j in jobs], dtype=float)


def test_one_rk4_step_runs_four_metric_programs_and_four_certified_inverses(monkeypatch):
    # Each stage is one order-1 metric program and one inverse over all
    # rows, certified by the bound on its whole stack, with no per-row
    # certificate and no field memo.  A change that adds work per stage
    # or per step shows here.
    programs, inverses, certificates, lookups = [], [], [], []
    compile_batched, inverse = exprlang.compile_batched, fields.inverse
    certified, shared_batch = linalg._certified, fields.Field._shared_batch

    def counting_compile(*args):
        program = compile_batched(*args)
        at = program.at
        program.at = lambda order: (lambda points: programs.append(order) or at(order)(points))
        return program

    def counting_lookup(self, points, order):
        if fields._MEMO.get() is not None:
            lookups.append(self)
        return shared_batch(self, points, order)

    monkeypatch.setattr(exprlang, "compile_batched", counting_compile)
    monkeypatch.setattr(fields, "inverse", lambda a: inverses.append(len(a)) or inverse(a))
    monkeypatch.setattr(linalg, "_certified",
                        lambda a, inv: certificates.append(len(a)) or certified(a, inv))
    monkeypatch.setattr(fields.Field, "_shared_batch", counting_lookup)
    sc, states = _hyperbolic_states()
    assert len(states) == 3
    n = sc.dim
    # one step of the integration loop, through its per-step build
    curves = geo.integrate_geodesic(sc.space.conn, sc.space.chart, states[:, :n],
                                    states[:, n:], 1e-3, 1e-3)
    assert [len(curve) for curve in curves] == [2] * 3
    assert programs == [1] * 4
    assert inverses == [3] * 4
    assert certificates == []
    assert lookups == []


def test_the_stacked_rk4_step_is_the_split_one_bit_for_bit():
    # the reference: positions and velocities updated apart
    sc, states = _hyperbolic_states()
    conn, step, n = sc.space.conn, 1e-3, sc.dim
    x, v = states[:, :n], states[:, n:]
    accel = rk4_reference.accel
    k1x, k1v = v, accel(conn, x, v)
    x2, v2 = x + 0.5 * step * k1x, v + 0.5 * step * k1v
    k2x, k2v = v2, accel(conn, x2, v2)
    x3, v3 = x + 0.5 * step * k2x, v + 0.5 * step * k2v
    k3x, k3v = v3, accel(conn, x3, v3)
    x4, v4 = x + step * k3x, v + step * k3v
    k4x, k4v = v4, accel(conn, x4, v4)
    x = x + (step / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v = v + (step / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    got = geo._rk4_step(conn, states, step)["states"]
    assert np.array_equal(got, np.concatenate([x, v], axis=1))


def test_a_start_outside_the_box_is_named_in_plain_floats():
    space = builtins.build("hyperbolic:2").space
    out = geo.integrate_geodesic(space.conn, space.chart, [(0.0, 100.0)], [(1.0, 0.0)], 1.0)
    assert str(out[0]) == "start point (0.0, 100.0) outside the chart box"


def test_csv_is_stable(tmp_path):
    # straight line in a flat chart: RK4 reproduces it exactly, so the
    # file contents are a fixed string
    chart = ChartedManifold("flat", 2, ((-2.0, 2.0), (-2.0, 2.0)))
    conn = ExprConnection.zero(2)
    traj = integrate_one(conn, chart, (0.0, 0.0), (1.0, 0.5), 0.5, step=0.25)
    out = tmp_path / "line.csv"
    traj.write_csv(out)
    assert out.read_text() == (
        "t,x1,x2,v1,v2\n"
        "0,0,0,1,0.5\n"
        "0.25,0.25,0.125,1,0.5\n"
        "0.5,0.5,0.25,1,0.5\n"
    )


def test_derivative_along_is_fourth_order():
    h = 1e-3
    ts = np.arange(41) * h
    vals = np.sin(3.0 * ts)[:, None]
    d = stencil_reference.derivative_along(vals, h)
    assert max_abs(d[:, 0] - 3.0 * np.cos(3.0 * ts)) < 1e-10
    # exact for quartics, including the one-sided end rows
    vals = (ts ** 4)[:, None]
    d = stencil_reference.derivative_along(vals, h)
    assert max_abs(d[:, 0] - 4.0 * ts ** 3) < 1e-12


def test_derivative_along_needs_five_nodes():
    with pytest.raises(ContractViolation):
        stencil_reference.derivative_along(np.zeros((4, 2)), 0.1)
    with pytest.raises(ContractViolation):
        stencil_reference.probe_indices(3)


# A field along each curve, E(t) = E0 + t E1, for the stencil reference.
FIELD_AT_0 = np.array([0.7, -0.4, 0.9])
FIELD_SLOPE = np.array([0.3, 0.5, -0.2])
# The central stencil errs by (h^4 / 30) |f^(5)| at a node, and the RK4
# nodes differ from the exact geodesic's by a derivative error of order
# h^4 as well.  On these unit-scale curves the worst of both is 18 h^4
# (sigma' of gaussian:alpha=1's sigma_ray, falling 16-fold per halving
# of h), so C = 100 leaves room and stays far below the 1e-8 scale of a
# wrong closed form.
STENCIL_C = 100.0


@pytest.mark.parametrize("name", ["hyperbolic:2", "hyperbolic:3", "gaussian:alpha=0",
                                  "gaussian:alpha=1"])
def test_stencil_derivatives_along_the_jobs_match_the_closed_forms(name):
    # at the probe nodes of each integrated builtin job, the five-node
    # stencil of sigma', P_V E and pi_* E against -Gamma(v, v),
    # (d_pv . v) E + P_V E1 and (d_dpi . v) E + pi_* E1 from the frames
    sc = builtins.build(name)
    n = sc.dim
    for traj in runner.RunContext(sc, count=1, seed=0).curves().values():
        h = traj.ts[1] - traj.ts[0]
        probes = np.array(stencil_reference.probe_indices(len(traj)))
        nodes = (probes[:, None] + np.arange(-2, 3)).ravel()
        frames = sc.setup._frames(traj.xs[nodes])
        f, v = frames.take(slice(2, None, 5)), traj.vs[probes]
        e_nodes = FIELD_AT_0[:n] + traj.ts[nodes][:, None] * FIELD_SLOPE[:n]
        e = e_nodes[2::5]

        def stencil(values):
            windows = values.reshape(len(probes), 5, -1)
            return stencil_reference.derivative_along(np.swapaxes(windows, 0, 1), h)[2]

        pairs = [
            (stencil(traj.vs[nodes]), -np.einsum("pkij,pi,pj->pk", f.gamma, v, v)),
            (stencil(np.einsum("pij,pj->pi", frames.pv, e_nodes)),
             np.einsum("pkij,pk,pj->pi", f.d_pv, v, e) + f.pv @ FIELD_SLOPE[:n]),
            (stencil(np.einsum("pij,pj->pi", frames.dpi, e_nodes)),
             np.einsum("pkij,pk,pj->pi", f.d_dpi, v, e) + f.dpi @ FIELD_SLOPE[:n]),
        ]
        for by_stencil, closed in pairs:
            assert max_abs(by_stencil - closed) <= STENCIL_C * h ** 4


def _hyp_curves(setup, jobs):
    return [
        integrate_one(setup.total.conn, setup.total.chart, x0, v0, t_end, step=1e-3)
        for (x0, v0, t_end) in jobs
    ]


def test_decomposition_checks_on_hyperbolic():
    setup = hyperbolic_setup(3)
    x, v = nodes_of(_hyp_curves(setup, [
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 1.0),
        ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0),
        ((0.1, -0.2, 1.2), (0.4, 0.3, 0.5), 1.0),
    ]))
    assert run_check("curve_decomposition", setup, x, 1e-6, v).status == PASS
    res = run_check("sigma_second", setup, x, 1e-5, v)
    assert res.status == PASS and res.samples == len(x)
    assert set(res.details) == {"horizontal", "vertical"}


def test_decomposition_splits_vertical_from_horizontal_defect():
    # The skewed fixture pairs the total metric with a base connection
    # that is NOT the induced one (its induced coefficients vary along the
    # fiber; check_projectable rejects it).  The vertical identity does not
    # involve the base connection and must stay at machine precision, while
    # the horizontal side shows the genuine defect.
    setup = skewed_setup()
    x, v = nodes_of(_hyp_curves(setup, [
        ((0.0, 0.0), (0.5, 0.2), 0.6),
        ((-0.2, 0.1), (0.3, -0.4), 0.6),
    ]))
    res = run_check("curve_decomposition", setup, x, 1e-6, v)
    assert res.status == FAIL
    assert res.details["vertical"] < 1e-12
    assert res.details["horizontal"] > 1e-4
    res2 = run_check("sigma_second", setup, x, 1e-5, v)
    assert res2.status == FAIL
    assert res2.details["vertical"] < 1e-12


def test_projection_criterion_both_directions():
    # the ray projects to a point: both sides hold at each of its nodes;
    # the semicircle projects to a reparametrized line: both sides reject
    # it at every node but its start, where tanh(0) = 0
    setup = hyperbolic_setup(3)
    ray, semi = _hyp_curves(setup, [
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 1.0),
        ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0),
    ])
    x, v = nodes_of([ray, semi])
    res = run_check("geodesic_projection", setup, x, 1e-6, v)
    assert res.status == PASS and res.samples == len(x) and res.max_residual < 1e-14
    assert res.details == {"condition_holds": len(ray) + 1, "base_geodesic": len(ray) + 1,
                           "disagree": 0}


def test_projection_criterion_matches_closed_form():
    # for the semicircle the criterion defect is 2 sech^2(t) tanh(t) and
    # the base acceleration is the same number, at every node
    setup = hyperbolic_setup(3)
    (semi,) = _hyp_curves(setup, [((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0)])
    r = geo.projection_condition_residuals(setup._frames(semi.xs), semi.vs)
    closed = 2.0 / np.cosh(semi.ts) ** 2 * np.tanh(semi.ts)
    assert r["condition"] == pytest.approx(closed, rel=1e-8, abs=1e-12)
    assert r["base_residual"] == pytest.approx(closed, rel=1e-8, abs=1e-12)
    assert r["equality"].max() < 1e-15
    assert r["condition"].max() == pytest.approx(4.0 / 3.0 ** 1.5, rel=1e-6)


def test_projection_check_has_no_premise():
    # the nodes of a curve that is no geodesic are still the initial data
    # of geodesics: every node evaluates, and the equality holds at each
    setup = hyperbolic_setup(3)
    ts = np.arange(0.0, 0.5, 1e-3)
    xs = np.stack([0.3 * np.sin(ts), 0.1 * ts, 1.0 + 0.2 * ts], axis=1)
    vs = np.stack([0.3 * np.cos(ts), 0.1 * np.ones_like(ts), 0.2 * np.ones_like(ts)], axis=1)
    res = run_check("geodesic_projection", setup, xs, 1e-6, vs)
    assert res.status == PASS and res.incidents == 0 and res.samples == len(ts)


CURVE_CHECKS = ("curve_decomposition", "geodesic_projection", "sigma_second")
SUBMERSION_BUILTINS = (
    "euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3", "hyperbolic:4",
    "gaussian:alpha=0", "gaussian:alpha=1", "gaussian:alpha=-0.5", "perturbed:3",
    "tangent_bundle_of:hyperbolic:2", "tangent_bundle_of:gaussian:alpha=1",
    "tangent_bundle_of:euclidean:2")


@pytest.mark.parametrize("name", SUBMERSION_BUILTINS)
def test_curve_checks_evaluate_every_sample_at_rounding_level(name):
    for seed in range(5):
        suite = config.parse_config({"builtin": name, "checks": list(CURVE_CHECKS),
                                     "sampling": {"count": 16, "seed": seed}})
        for check in runner.run_suite(suite)["checks"]:
            assert (check["status"], check["samples"], check["incidents"]) == ("pass", 16, 0)
            assert check["max_residual"] <= 1e-14, (seed, check)


@pytest.mark.parametrize("name", ["hyperbolic:3", "gaussian:alpha=1", "euclidean:2"])
def test_curve_decomposition_passes_in_fd_mode(name):
    # the time derivatives are closed forms, so no stencil error adds to
    # the finite-difference partials' own under the 1e-8 tolerance
    suite = config.parse_config({"builtin": name, "mode": "fd",
                                 "checks": ["curve_decomposition"],
                                 "sampling": {"count": 64, "seed": 0}})
    (check,) = runner.run_suite(suite)["checks"]
    assert check["tolerance"] == 1e-8
    assert (check["status"], check["samples"]) == ("pass", 64)


# -- lockstep integration ------------------------------------------------


def same_trajectory(a, b):
    return (np.array_equal(a.ts, b.ts) and np.array_equal(a.xs, b.xs)
            and np.array_equal(a.vs, b.vs))


def same_outcome(a, b):
    """Two job results agree: trajectories bit for bit, errors by type,
    message, point and exit time."""
    if isinstance(a, geo.Trajectory) and isinstance(b, geo.Trajectory):
        return same_trajectory(a, b)
    return ((type(a), str(a), getattr(a, "point", None), getattr(a, "t", None))
            == (type(b), str(b), getattr(b, "point", None), getattr(b, "t", None)))


def assert_reference_outcomes(conn, chart, x0, v0, t_end, h):
    """Lockstep and one job at a time, every job ends as the reference's
    per-step loop ends it; returns the lockstep results."""
    out = geo.integrate_geodesic(conn, chart, x0, v0, t_end, h)
    want = rk4_reference.integrate_geodesic(conn, chart, x0, v0, t_end, h)
    assert all(same_outcome(a, b) for a, b in zip(out, want, strict=True))
    for job in range(len(x0)):
        alone = geo.integrate_geodesic(conn, chart, x0[job:job + 1], v0[job:job + 1], t_end, h)
        want = rk4_reference.integrate_geodesic(conn, chart, x0[job:job + 1], v0[job:job + 1],
                                                t_end, h)
        assert same_outcome(alone[0], want[0]), job
    return out


# every builtin with geodesic jobs (the rest have none)
GEODESIC_BUILTINS = ("euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3",
                     "gaussian:alpha=0", "gaussian:alpha=1", "gaussian:alpha=-0.5")


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name", GEODESIC_BUILTINS)
def test_nodes_are_the_per_stage_checked_steps_bit_for_bit(name, mode):
    # the builtin's jobs over their own span
    sc = builtins.build(name, mode)
    jobs = [sc.geodesic_jobs[k] for k in sorted(sc.geodesic_jobs)]
    t_end, h = jobs[0]["t_end"], jobs[0]["h"]
    out = assert_reference_outcomes(sc.space.conn, sc.space.chart,
                                    [j["p0"] for j in jobs], [j["v0"] for j in jobs], t_end, h)
    nodes = round(t_end / h) + 1
    assert all(isinstance(traj, geo.Trajectory) and len(traj) == nodes for traj in out)


# every builtin that lists geodesic_energy
ENERGY_BUILTINS = tuple(name for name in GEODESIC_BUILTINS + ("hyperbolic:4", "broken:2",
                                                              "perturbed:3")
                        if "geodesic_energy" in builtins.build(name).checks)


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name", ENERGY_BUILTINS)
def test_the_default_step_keeps_the_drift_far_below_the_energy_tolerance(name, mode):
    # the step is sized to the check: the integrator's truncation error
    # stays at least 10^4 below the tolerance on every job
    sc = builtins.build(name, mode)
    assert {job["h"] for job in sc.geodesic_jobs.values()} == {geo.DEFAULT_STEP}
    suite = config.parse_config({"builtin": name, "mode": mode, "checks": ["geodesic_energy"],
                                 "sampling": {"count": 1, "seed": 0}})
    (energy,) = runner.run_suite(suite)["checks"]
    assert (energy["status"], energy["incidents"]) == ("pass", 0)
    assert energy["samples"] == len(sc.geodesic_jobs)
    assert energy["max_residual"] <= 1e-4 * energy["tolerance"]


@pytest.mark.parametrize("name", ["hyperbolic:3", "gaussian:alpha=0", "euclidean:3"])
def test_lockstep_equals_single_jobs(name):
    sc = builtins.build(name)
    conn, chart = sc.space.conn, sc.space.chart
    jobs = [sc.geodesic_jobs[k] for k in sorted(sc.geodesic_jobs)]
    t_end, h = jobs[0]["t_end"], jobs[0]["h"]
    together = geo.integrate_geodesic(conn, chart, [j["p0"] for j in jobs],
                                      [j["v0"] for j in jobs], t_end, h)
    assert len(together) == len(jobs)
    for job, traj in zip(jobs, together):
        alone = integrate_one(conn, chart, job["p0"], job["v0"], t_end, h)
        assert same_trajectory(traj, alone)


def test_the_chart_box_test_is_a_closed_box_mask():
    chart = ChartedManifold("strip", 2, ((-1.0, 1.0), (0.5, 3.0)))
    points = np.array([[-1.0, 0.5], [1.0, 3.0], [0.0, 1.0], [np.nextafter(1.0, 2.0), 1.0],
                       [0.0, np.nextafter(0.5, 0.0)], [0.0, np.nan], [np.nan, np.nan],
                       [0.0, np.inf], [-np.inf, 1.0]])
    assert chart.contains(points).tolist() == [True, True, True] + [False] * 6
    assert chart.contains(np.zeros((0, 2))).shape == (0,)


def test_job_leaving_the_box_does_not_stop_its_siblings():
    chart = ChartedManifold("strip", 2, ((-1.0, 1.0), (0.5, 3.0)))
    metric = MetricField.from_exprs([["1/x2^2", "0"], ["0", "1/x2^2"]], 2)
    conn = LeviCivitaConnection(metric)
    x0 = [(0.0, 1.0), (0.0, 1.0), (0.2, 1.0), (0.0, 5.0)]
    v0 = [(0.3, 0.2), (0.0, -1.0), (-0.4, 0.1), (0.0, 1.0)]  # 2nd exits, 4th starts out
    out = geo.integrate_geodesic(conn, chart, x0, v0, 1.0, step=1e-3)
    assert isinstance(out[1], BoundaryExit)
    assert out[1].t == pytest.approx(math.log(2.0), abs=2e-3)
    assert isinstance(out[3], ContractViolation)
    for k in (0, 2):
        assert same_trajectory(out[k], integrate_one(conn, chart, x0[k], v0[k], 1.0, step=1e-3))


def test_job_failing_to_evaluate_becomes_its_incident():
    # Gamma^1_11 = sqrt(x1) is undefined once a job crosses x1 = 0
    chart = ChartedManifold("flat", 2, ((-1.0, 1.0), (-1.0, 1.0)))
    coeffs = [[["sqrt(x1)", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    conn = ExprConnection(2, coeffs)
    x0 = [(0.5, 0.0), (0.05, 0.0), (0.6, 0.1)]
    v0 = [(0.1, 0.2), (-0.5, 0.0), (0.0, -0.3)]
    out = geo.integrate_geodesic(conn, chart, x0, v0, 0.5, step=1e-2)
    assert isinstance(out[1], EvalDomain)
    with pytest.raises(EvalDomain):
        integrate_one(conn, chart, x0[1], v0[1], 0.5, step=1e-2)
    for k in (0, 2):
        alone = integrate_one(conn, chart, x0[k], v0[k], 0.5, step=1e-2)
        assert same_trajectory(out[k], alone)


def _connection_of_kind(kind):
    """(connection, chart, starts (x0, v0)): a sum, a dual, and the
    Levi-Civita connection of a lifted metric, which is not a stack."""
    if kind == "lifted":
        bundle = builtins.build("tangent_bundle_of:hyperbolic:2").space
        starts = [(0.0, 1.0, 0.1, 0.2), (0.3, 1.5, -0.2, 0.0)], [(0.2, 0.1, 0.0, 0.1)] * 2
        return LeviCivitaConnection(bundle.metric), bundle.chart, starts
    sc = builtins.build("gaussian:alpha=1" if kind == "dual" else "hyperbolic:3")
    jobs = [sc.geodesic_jobs[k] for k in sorted(sc.geodesic_jobs)]
    starts = [j["p0"] for j in jobs], [j["v0"] for j in jobs]
    if kind == "dual":
        return fields.DualConnection(sc.space.conn, sc.space.metric), sc.space.chart, starts
    return builtins.build("perturbed:3").space.conn, sc.space.chart, starts


@pytest.mark.parametrize("kind", ["sum", "dual", "lifted"])
def test_connections_of_every_kind_give_the_reference_nodes(kind):
    conn, chart, (x0, v0) = _connection_of_kind(kind)
    out = assert_reference_outcomes(conn, chart, x0, v0, 0.05, 1e-3)
    assert all(isinstance(traj, geo.Trajectory) for traj in out)


# the x1 of the second stage of a step of 1e-2 from x1 = 7 at speed 0.1
_STAGE_2_X1 = 7.0 + 0.5 * 1e-2 * 0.1


@pytest.mark.parametrize("gamma", ["x1^400 - x1^400",
                                   f"x1^400 - x1^400 + 1/(x1 - {_STAGE_2_X1!r})"])
def test_non_finite_acceleration_is_its_jobs_domain_error(gamma):
    # Gamma^1_11 = x1^400 - x1^400 is NaN once x1^400 overflows (x1 > 5.9);
    # the second form also divides by zero at the second stage, which the
    # first stage's non-finite acceleration precedes
    chart = ChartedManifold("flat", 2, ((-9.0, 9.0), (-1.0, 1.0)))
    coeffs = [[[gamma, "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    conn = ExprConnection(2, coeffs)
    out = assert_reference_outcomes(conn, chart, [(0.0, 0.0), (7.0, 0.0)],
                                    [(0.1, 0.2), (0.1, 0.2)], 0.1, 1e-2)
    assert isinstance(out[1], EvalDomain) and out[1].point == (7.0, 0.0)
    assert str(out[1]) == "non-finite geodesic acceleration at point (7.0, 0.0)"
    assert same_trajectory(out[0], integrate_one(conn, chart, (0.0, 0.0), (0.1, 0.2),
                                                 0.1, step=1e-2))


def _singular_at_the_first_stage(kind):
    """A connection whose metric diag(x1, 1) is singular at x1 = 0, and
    that fails to evaluate at x1 = 0.25, the second stage of a step of 0.5
    from x1 = 0 at unit speed ("levi_civita"), or whose cubic form fails
    at x1 = 0, after the metric's inverse ("alpha")."""
    later = "0*(1/(x1 - 0.25))" if kind == "levi_civita" else "0"
    metric = MetricField.from_exprs([[f"x1 + {later}", "0"], ["0", "1"]], 2)
    if kind == "levi_civita":
        return LeviCivitaConnection(metric)
    cubic = [[[fields.ExprField.parse("1/x1" if (l, i, j) == (0, 0, 0) else "0", 2)
               for j in range(2)] for i in range(2)] for l in range(2)]
    return fields.AlphaConnection(metric, cubic, 1.0)


@pytest.mark.parametrize("kind", ["levi_civita", "alpha"])
def test_a_singular_metric_precedes_a_later_evaluation_error(kind):
    chart = ChartedManifold("square", 2, ((-1.0, 1.0), (-1.0, 1.0)))
    conn = _singular_at_the_first_stage(kind)
    x0, v0 = [(0.0, 0.0), (0.5, 0.3)], [(1.0, 0.0), (0.1, 0.0)]
    out = assert_reference_outcomes(conn, chart, x0, v0, 1.0, 0.5)
    assert isinstance(out[0], SingularMatrix)
    assert str(out[0]) == "pivot 0.000e+00 below threshold for scale 1.000e+00"
    assert same_trajectory(out[1], integrate_one(conn, chart, x0[1], v0[1], 1.0, step=0.5))


def _cut_half_plane(exit_step, h):
    """The connection of :func:`half_plane` and its chart cut at a height
    between the nodes ``exit_step`` and ``exit_step + 1`` of the vertical
    ray from (0, 1) at unit speed and step h, which leaves the cut box at
    its step ``exit_step`` (counting from 0)."""
    chart, metric, conn = half_plane()
    (ray,) = rk4_reference.integrate_geodesic(conn, chart, [(0.0, 1.0)], [(0.0, 1.0)],
                                              (exit_step + 1) * h, h)
    top = 0.5 * (ray.xs[exit_step, 1] + ray.xs[exit_step + 1, 1])
    return ChartedManifold("cut", 2, ((-4.0, 4.0), (0.05, top))), conn


# steps of the spans the lockstep tests below integrate
SPAN_STEPS = 96


@pytest.mark.parametrize("exit_step", [48, 0, SPAN_STEPS - 1],
                         ids=["mid_span", "first_step", "last_step"])
def test_a_job_leaving_the_box_ends_as_step_by_step(exit_step):
    h = 1e-2
    chart, conn = _cut_half_plane(exit_step, h)
    x0, v0 = [(0.0, 1.0), (0.0, 1.0), (0.3, 0.9)], [(0.0, 1.0), (1.0, 0.0), (0.2, -0.1)]
    out = assert_reference_outcomes(conn, chart, x0, v0, SPAN_STEPS * h, h)
    assert isinstance(out[0], BoundaryExit) and out[0].t == out[1].ts[exit_step + 1]
    assert all(isinstance(traj, geo.Trajectory) for traj in out[1:])


def _flat_until(c):
    """A flat connection whose Gamma^1_11 = sqrt(c - x1) - sqrt(c - x1)
    fails to evaluate past x1 = c."""
    coeffs = [[[f"sqrt({c} - x1) - sqrt({c} - x1)", "0"], ["0", "0"]],
              [["0", "0"], ["0", "0"]]]
    return ExprConnection(2, coeffs)


def _failing_mid_span(kind):
    """(connection, start (x0, v0), the step of 1e-2 at which the job
    fails, its error type): a domain error at x1 = 0.4 on a straight line,
    or the line x2 = 0.2 + t, a geodesic of diag(1 - (1 - 1e-13)
    tanh(50 x2 - 20), 1), whose g_11 falls toward 1e-13: singular by the
    pivot rule, while its inverse and the line stay finite."""
    if kind == "domain":
        return _flat_until(0.4), ((-0.1, 0.0), (1.0, 0.0)), 49, EvalDomain
    metric = MetricField.from_exprs([["1 - 0.9999999999999*tanh(50*x2 - 20)", "0"], ["0", "1"]], 2)
    return LeviCivitaConnection(metric), ((0.0, 0.2), (0.0, 1.0)), 48, SingularMatrix


@pytest.mark.parametrize("kind", ["domain", "singular"])
def test_a_job_failing_mid_span_ends_as_step_by_step(kind):
    chart = ChartedManifold("square", 2, ((-1.0, 1.0), (-1.0, 1.0)))
    h = 1e-2
    conn, (p0, q0), fails_at, error = _failing_mid_span(kind)
    # the reference ends the job at its step fails_at, inside the span
    assert 0 < fails_at < SPAN_STEPS - 1
    before, at = (rk4_reference.integrate_geodesic(conn, chart, [p0], [q0], k * h, h)[0]
                  for k in (fails_at, fails_at + 1))
    assert isinstance(before, geo.Trajectory) and isinstance(at, error)
    x0, v0 = [p0, (-0.5, 0.3)], [q0, (0.1, 0.2)]
    out = assert_reference_outcomes(conn, chart, x0, v0, SPAN_STEPS * h, h)
    assert isinstance(out[0], error) and isinstance(out[1], geo.Trajectory)


def test_jobs_all_ending_within_the_span_end_as_step_by_step():
    # the domain error of the test above at step 49, and a straight line
    # x2 = t that leaves the box x2 <= 0.455 at step 45
    chart = ChartedManifold("low", 2, ((-1.0, 1.0), (-1.0, 0.455)))
    h = 1e-2
    conn, (p0, q0), fails_at, _ = _failing_mid_span("domain")
    x0, v0 = [p0, (0.0, 0.0)], [q0, (0.0, 1.0)]
    out = assert_reference_outcomes(conn, chart, x0, v0, SPAN_STEPS * h, h)
    assert isinstance(out[0], EvalDomain) and isinstance(out[1], BoundaryExit)
    exit_step = round(out[1].t / h) - 1
    assert exit_step == 45 and fails_at == 49 and fails_at < SPAN_STEPS - 1


@pytest.mark.parametrize("n_steps", [1, 17, 71])
def test_spans_of_several_lengths_give_the_reference_nodes(n_steps):
    sc, states = _hyperbolic_states()
    h = 1e-3
    out = assert_reference_outcomes(sc.space.conn, sc.space.chart, states[:, :3],
                                    states[:, 3:], n_steps * h, h)
    assert all(isinstance(traj, geo.Trajectory) and len(traj) == n_steps + 1 for traj in out)


SUITES = [{"builtin": name} for name in GEODESIC_BUILTINS + (
    "broken:2", "perturbed:3", "tangent_bundle_of:hyperbolic:2",
    "tangent_bundle_of:gaussian:alpha=1", "tangent_bundle_of:euclidean:2")]
SUITES.append({"builtin": "hyperbolic:3", "sampling": {"boxes": [[-1, 1], [-1, 1], [-0.5, 3]]}})


@pytest.mark.parametrize("cfg", SUITES, ids=lambda cfg: cfg["builtin"] + (
    "-box" if "sampling" in cfg else ""))
def test_suites_raise_no_runtime_warning(cfg):
    sampling = dict(cfg.get("sampling", {}), count=16, seed=0)
    suite = config.parse_config(dict(cfg, mode="jet", sampling=sampling))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runner.run_suite(suite)


def test_run_context_groups_jobs_by_span_and_step():
    sc = builtins.build("euclidean:3")
    sc.geodesic_jobs["short"] = {"p0": [0.1, 0.0, 0.0], "v0": [0.0, 0.3, 0.1],
                                 "t_end": 0.5, "h": 1e-3}
    sc.geodesic_jobs["coarse"] = {"p0": [0.0, 0.2, 0.0], "v0": [0.2, 0.0, -0.1],
                                  "t_end": 1.0, "h": 2e-3}
    ctx = runner.RunContext(sc, count=4, seed=0)
    curves = ctx.curves()
    assert list(curves) == sorted(sc.geodesic_jobs)
    assert all(isinstance(c, geo.Trajectory) for c in curves.values())
    for name, traj in curves.items():
        job = sc.geodesic_jobs[name]
        alone = integrate_one(sc.space.conn, sc.space.chart, job["p0"], job["v0"],
                              job["t_end"], job["h"])
        assert same_trajectory(traj, alone)
    assert len(curves["short"]) == 501 and len(curves["coarse"]) == 501


def test_jobs_that_all_fail_are_charged_as_incidents_of_geodesic_energy_only():
    flat = {"dim": 1, "box": [[-1.0, 1.0]], "metric": [["1"]], "connection": "flat"}
    cfg = config.parse_config({
        "manifold": {"dim": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]],
                     "metric": [["1", "0"], ["0", "1"]], "connection": "flat"},
        "submersion": {"base": flat, "projection": ["x1"]},
        "geodesics": {"exit": {"p0": [0.9, 0.0], "v0": [1.0, 0.0], "t_end": 1.0, "h": 0.01}},
        "checks": ["curve_decomposition", "geodesic_energy"],
        "sampling": {"count": 4, "seed": 0},
    }, source="<test>")
    curve, energy = runner.run_suite(cfg)["checks"]
    assert (curve["status"], curve["samples"], curve["incidents"]) == ("pass", 4, 0)
    assert energy["status"] == "inconclusive" and energy["incidents"] == 1
    assert energy["details"]["incident_kinds"]["BoundaryExit"]["count"] == 1


def test_fd_mode_suite_integrates_its_jobs():
    cfg = config.parse_config({
        "builtin": "hyperbolic:2", "mode": "fd",
        "checks": ["geodesic_energy", "geodesic_projection"],
        "sampling": {"count": 4, "seed": 1},
    }, source="<test>")
    report = runner.run_suite(cfg)
    for c in report["checks"]:
        assert c["status"] == "pass" and c["incidents"] == 0
    energy = next(c for c in report["checks"] if c["name"] == "geodesic_energy")
    assert energy["details"]["jobs"] == sorted(builtins.build("hyperbolic:2").geodesic_jobs)


def test_a_curve_check_is_inconclusive_when_too_few_points_evaluate():
    # one point of three lies where -log(x3) is undefined: 2 of 3 is below
    # the 90% rule, even though the equality holds at the other two
    setup = hyperbolic_setup(3)
    x = np.array([[0.0, 0.0, 1.0], [0.2, -0.1, 1.5], [0.1, 0.1, -0.5]])
    v = np.array([[0.3, 0.2, 0.1], [-0.4, 0.1, 0.6], [0.2, 0.2, 0.2]])
    for check in CURVE_CHECKS:
        res = run_check(check, setup, x, 1e-6, v)
        assert res.samples == 2 and res.incidents == 1
        assert res.status == INCONCLUSIVE


def test_each_curve_check_and_projectable_builds_one_frame_batch(monkeypatch):
    # a curve check is rows of one frame batch over its points; so is
    # every fiber of a projectable run
    from subgeo import submersion

    calls = []
    frames = submersion.SubmersionSetup._frames

    def counting(self, points):
        calls.append(len(points))
        return frames(self, points)

    monkeypatch.setattr(submersion.SubmersionSetup, "_frames", counting)
    setup = hyperbolic_setup(3)
    pts = sample_box(setup.total.chart.box, 64, 0)
    velocities = sample_box([(-1.0, 1.0)] * 3, 64, 1)
    for check in CURVE_CHECKS:
        calls.clear()
        assert run_check(check, setup, pts, 1e-6, velocities).status == PASS
        assert calls == [64]
    calls.clear()
    assert run_check("projectable", setup, pts, 1e-8).status == PASS
    assert len(calls) == 1


def test_a_point_whose_frame_fails_is_one_incident_of_each_curve_check():
    # the box reaches x3 <= 0, where phi = -log(x3) is undefined; every
    # other point keeps its residuals to the bit, with its own velocity
    sc = builtins.build("hyperbolic:3")
    ctx = runner.RunContext(sc, count=32, seed=0, boxes=[[-1, 1], [-1, 1], [-0.5, 3]])
    errors = sc.setup._frames(ctx.points()).errors
    assert 0 < len(errors) < 32
    good = np.delete(np.arange(32), sorted(errors))
    for check in CURVE_CHECKS:
        res = runner.run_check(check, sc, ctx)
        assert res.incidents == len(errors) and res.samples == len(good)
        assert {kind: n["count"] for kind, n in res.details["incident_kinds"].items()} == (
            collections.Counter(type(exc).__name__ for exc in errors.values()))
        alone = run_check(check, sc.setup, ctx.points()[good], None, ctx.velocities()[good])
        assert (res.max_residual, res.details) == (
            alone.max_residual, dict(alone.details, incident_kinds=res.details["incident_kinds"]))


def test_curves_keep_only_their_nodes_after_a_suite():
    sc = builtins.build("hyperbolic:3")
    ctx = runner.RunContext(sc, count=4, seed=0)
    for name in ("curve_decomposition", "geodesic_energy", "geodesic_projection",
                 "sigma_second"):
        assert runner.run_check(name, sc, ctx).status == PASS
    for traj in ctx.curves().values():
        assert set(vars(traj)) == {"ts", "xs", "vs"}
