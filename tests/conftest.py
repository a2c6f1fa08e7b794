"""Shared fixture builders for the test suite.

These mirror the registry spaces but are constructed by hand so the tests
do not depend on the registry module they are meant to exercise.
"""

import numpy as np

from subgeo import runner
from subgeo.builtins import Scenario
from subgeo.errors import SubgeoError
from subgeo.fields import (
    AlphaConnection,
    ChartedManifold,
    ExprConnection,
    ExprField,
    LeviCivitaConnection,
    MetricField,
    Space,
)
from subgeo.geodesics import DEFAULT_STEP, Trajectory, integrate_geodesic
from subgeo.sampling import sample_box
from subgeo.submersion import SubmersionSetup
from subgeo.tangent_bundle import TangentBundle


def hyperbolic_setup(n=3):
    """Upper half-space metric over a flat base, projection drops the last
    coordinate, conformal factor exp(2*phi) = 1/x_n^2."""
    box = tuple([(-1.0, 1.0)] * (n - 1) + [(0.5, 3.0)])
    chart = ChartedManifold("hyp", n, box)
    rows = [[f"1/x{n}^2" if i == j else "0" for j in range(n)] for i in range(n)]
    metric = MetricField.from_exprs(rows, n)
    total = Space(chart, metric, LeviCivitaConnection(metric))
    bchart = ChartedManifold("base", n - 1, tuple([(-1.0, 1.0)] * (n - 1)))
    brows = [["1" if i == j else "0" for j in range(n - 1)] for i in range(n - 1)]
    base = Space(bchart, MetricField.from_exprs(brows, n - 1), ExprConnection.zero(n - 1))
    pi = [ExprField.parse(f"x{a + 1}", n) for a in range(n - 1)]
    phi = ExprField.parse(f"-log(x{n})", n)
    return SubmersionSetup(total, base, pi, phi, "hyp")


GAUSS_CUBIC = {(0, 0, 0): "0", (0, 0, 1): "2/x2^3", (0, 1, 1): "0", (1, 1, 1): "8/x2^3"}


def gaussian_cubic_fields():
    fields = [[[None] * 2 for _ in range(2)] for _ in range(2)]
    for l in range(2):
        for i in range(2):
            for j in range(2):
                key = tuple(sorted((l, i, j)))
                fields[l][i][j] = ExprField.parse(GAUSS_CUBIC[key], 2)
    return fields


def gaussian_setup(alpha):
    """Location-scale family in (mu, sigma) coordinates with the alpha
    family of connections; projection keeps mu."""
    chart = ChartedManifold("gauss", 2, ((-1.0, 1.0), (0.5, 2.0)))
    metric = MetricField.from_exprs([["1/x2^2", "0"], ["0", "2/x2^2"]], 2)
    conn = AlphaConnection(metric, gaussian_cubic_fields(), alpha)
    total = Space(chart, metric, conn)
    bchart = ChartedManifold("line", 1, ((-1.0, 1.0),))
    base = Space(bchart, MetricField.from_exprs([["1"]], 1), ExprConnection.zero(1))
    pi = [ExprField.parse("x1", 2)]
    phi = ExprField.parse("-log(x2)", 2)
    return SubmersionSetup(total, base, pi, phi, "gauss")


def euclid_setup(n=3, m=2):
    chart = ChartedManifold("euc", n, tuple([(-1.0, 1.0)] * n))
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    metric = MetricField.from_exprs(rows, n)
    total = Space(chart, metric, ExprConnection.zero(n))
    bchart = ChartedManifold("base", m, tuple([(-1.0, 1.0)] * m))
    brows = [["1" if i == j else "0" for j in range(m)] for i in range(m)]
    base = Space(bchart, MetricField.from_exprs(brows, m), ExprConnection.zero(m))
    pi = [ExprField.parse(f"x{a + 1}", n) for a in range(m)]
    return SubmersionSetup(total, base, pi, None, "euc")


def skewed_setup():
    """Non-diagonal total metric so the horizontal distribution actually
    rotates from point to point.  No conformal factor is claimed."""
    chart = ChartedManifold("skew", 2, ((-0.8, 0.8), (-0.8, 0.8)))
    metric = MetricField.from_exprs(
        [["1", "x1/5"], ["x1/5", "1 + x2^2/4"]], 2)
    total = Space(chart, metric, LeviCivitaConnection(metric))
    bchart = ChartedManifold("line", 1, ((-0.8, 0.8),))
    base = Space(bchart, MetricField.from_exprs([["1"]], 1), ExprConnection.zero(1))
    pi = [ExprField.parse("x1", 2)]
    return SubmersionSetup(total, base, pi, None, "skew")


def points_for(setup, count=12, seed=7):
    return sample_box(setup.total.chart.box, count, seed)


def grid_points(box, count=10, seed=3):
    return sample_box(box, count, seed)


def integrate_one(conn, chart, x0, v0, t_end, step=DEFAULT_STEP):
    """One geodesic job, integrated as a one-row stack: its Trajectory,
    or the error that ended it raised."""
    (out,) = integrate_geodesic(conn, chart, [x0], [v0], t_end, step)
    if isinstance(out, SubgeoError):
        raise out
    return out


def max_abs(arr):
    return float(np.max(np.abs(np.asarray(arr))))


def preset_context(scenario, points, curves, velocities=None):
    """A runner.RunContext of ``scenario`` preset to the given points,
    velocities and curves; it builds its frame batch as a suite does."""
    ctx = runner.RunContext(scenario, 0, 0)
    ctx._points, ctx._curves, ctx._velocities = points, curves, velocities
    return ctx


def space_of(metric, conn):
    """A space of (metric, conn) on the unit box."""
    return Space(ChartedManifold("given", metric.dim, ((-1.0, 1.0),) * metric.dim), metric, conn)


def run_check(name, subject, items, tol=None, velocities=None):
    """runner.run_check of the check ``name`` on a scenario of ``subject``
    (a Space, a SubmersionSetup or a TangentBundle), over ``items``: points,
    with a velocity at each for the curve checks, or curves (each a
    Trajectory or the error that ended its job), which stand for the
    scenario's geodesic jobs, in order."""
    if isinstance(subject, SubmersionSetup):
        scenario = Scenario("given", subject.total, setup=subject)
    elif isinstance(subject, TangentBundle):
        scenario = Scenario("given", subject.space(), setup=subject.setup, bundle=subject)
    else:
        scenario = Scenario("given", subject)
    items = list(items)
    if items and isinstance(items[0], (Trajectory, SubgeoError)):
        curves = {f"curve{j:03d}": c for j, c in enumerate(items)}
        scenario.geodesic_jobs = dict.fromkeys(curves)
        return runner.run_check(name, scenario, preset_context(scenario, None, curves), tol)
    points = np.asarray(items, dtype=float).reshape(len(items), scenario.dim)
    return runner.run_check(name, scenario, preset_context(scenario, points, {}, velocities), tol)


def nodes_of(curves):
    """The nodes of integrated curves, stacked: (points, velocities)."""
    return (np.concatenate([c.xs for c in curves]), np.concatenate([c.vs for c in curves]))
