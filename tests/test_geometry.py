"""Connection and curvature machinery against frozen closed-form tables.

The upper half-plane and the location-scale family have textbook
Christoffel symbols and curvatures, so every convention (index order,
sign of R, cubic form) is pinned to explicit numbers here.
"""

import numpy as np
import pytest

from conftest import gaussian_cubic_fields, grid_points, max_abs, run_check, space_of
from subgeo import config, geometry, runner
from subgeo.fields import (
    AlphaConnection,
    DualConnection,
    ExprConnection,
    LeviCivitaConnection,
    MetricField,
)
from subgeo.results import FAIL, PASS


def half_plane_metric():
    return MetricField.from_exprs([["1/x2^2", "0"], ["0", "1/x2^2"]], 2)


def gaussian_metric():
    return MetricField.from_exprs([["1/x2^2", "0"], ["0", "2/x2^2"]], 2)


HALF_PLANE_BOX = ((-1.0, 1.0), (0.5, 3.0))
GAUSS_BOX = ((-1.0, 1.0), (0.5, 2.0))


def one(p):
    """The one-point stack (1, n) at p."""
    return np.array([p], dtype=float)


def at(fld, p):
    """A metric's or connection's values at p, row 0 of a one-point batch."""
    return fld.batch(one(p), 0)[0][0]


def curvature_at(metric, conn, p):
    """(g, R) at p, each a one-row stack."""
    return metric.batch(one(p), 1)[0], geometry.curvature_values(*conn.batch(one(p), 1))


def test_half_plane_christoffel_table():
    g = half_plane_metric()
    lc = LeviCivitaConnection(g)
    y = 1.7
    gamma = at(lc, (0.3, y))
    # gamma[k][i][j] is Gamma^k_ij with i the differentiation direction
    want = np.zeros((2, 2, 2))
    want[0][0][1] = want[0][1][0] = -1.0 / y
    want[1][0][0] = 1.0 / y
    want[1][1][1] = -1.0 / y
    assert gamma == pytest.approx(want, abs=1e-12)


def test_half_plane_curvature_and_constant_k():
    g = half_plane_metric()
    lc = LeviCivitaConnection(g)
    gv, r = curvature_at(g, lc, (0.1, 1.3))
    # R^1_{212}: first lower index pairs with the upper one
    assert r[0, 0, 1, 0, 1] == pytest.approx(-1.0 / 1.3 ** 2, rel=1e-9)
    assert geometry.constant_curvature_residual(gv, r, -1.0)[0] < 1e-10
    # wrong k leaves a visible residual
    assert geometry.constant_curvature_residual(gv, r, 0.0)[0] > 0.1


def test_levi_civita_against_finite_difference_koszul():
    """Independent reconstruction: central differences of the metric values
    through the Koszul formula, no jets involved."""
    g = MetricField.from_exprs(
        [["1 + x1^2/4", "x1*x2/5"], ["x1*x2/5", "2 + sin(x1)/3"]], 2)
    lc = LeviCivitaConnection(g)
    h = 1e-5
    for p in grid_points(((-0.7, 0.7), (-0.7, 0.7)), count=4, seed=9):
        p = np.asarray(p)
        dg = np.zeros((2, 2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dg[k] = (at(g, p + e) - at(g, p - e)) / (2.0 * h)
        ginv = np.linalg.inv(at(g, p))
        want = np.zeros((2, 2, 2))
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    want[l, i, j] = 0.5 * sum(
                        ginv[l, m] * (dg[i][j, m] + dg[j][i, m] - dg[m][i, j])
                        for m in range(2)
                    )
        got = at(lc, p)
        assert max_abs(got - want) < 5e-9


def test_alpha_connection_table():
    g = gaussian_metric()
    sigma = 1.3
    p = (0.2, sigma)
    for alpha in (1.0, 0.0, -1.0, 0.5):
        conn = AlphaConnection(g, gaussian_cubic_fields(), alpha)
        gamma = at(conn, p)
        assert gamma[1][0][0] == pytest.approx((1.0 - alpha) / (2.0 * sigma))
        assert gamma[0][0][1] == pytest.approx(-(1.0 + alpha) / sigma)
        assert gamma[0][1][0] == pytest.approx(-(1.0 + alpha) / sigma)
        assert gamma[1][1][1] == pytest.approx(-(1.0 + 2.0 * alpha) / sigma)
        assert gamma[1][0][1] == pytest.approx(0.0, abs=1e-14)


def test_alpha_cubic_scales_linearly():
    # nabla^(alpha) g = alpha * T with T the fixed symmetric cubic
    g = gaussian_metric()
    sigma = 0.9
    p = (-0.4, sigma)
    for alpha in (1.0, -1.0, 0.5):
        conn = AlphaConnection(g, gaussian_cubic_fields(), alpha)
        c = geometry.cubic_values(g, conn, one(p))[0]
        assert c[0, 0, 1] == pytest.approx(alpha * 2.0 / sigma ** 3, rel=1e-10)
        assert c[0, 1, 0] == pytest.approx(alpha * 2.0 / sigma ** 3, rel=1e-10)
        assert c[1, 0, 0] == pytest.approx(alpha * 2.0 / sigma ** 3, rel=1e-10)
        assert c[1, 1, 1] == pytest.approx(alpha * 8.0 / sigma ** 3, rel=1e-10)
        assert c[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    lc = AlphaConnection(g, gaussian_cubic_fields(), 0.0)
    assert max_abs(geometry.cubic_values(g, lc, one(p))) < 1e-12


def test_alpha_constant_curvature():
    g = gaussian_metric()
    for alpha in (0.0, 1.0, -1.0, 0.5):
        conn = AlphaConnection(g, gaussian_cubic_fields(), alpha)
        k = (alpha * alpha - 1.0) / 2.0
        for p in grid_points(GAUSS_BOX, count=4, seed=2):
            gv, r = curvature_at(g, conn, p)
            assert geometry.constant_curvature_residual(gv, r, k)[0] < 1e-9


def test_statistical_residual_polarity():
    g = half_plane_metric()
    lc = LeviCivitaConnection(g)
    for p in grid_points(HALF_PLANE_BOX, count=5, seed=1):
        cubic = geometry.cubic_values(g, lc, one(p))
        assert geometry.statistical_residual(lc.batch(one(p), 0)[0], cubic)[0] < 1e-12

    # torsion-free connection with a non-symmetric cubic form
    flat = MetricField.from_exprs([["1", "0"], ["0", "1"]], 2)
    broken = ExprConnection(2, [[["0", "0"], ["0", "1"]],
                                [["0", "0"], ["0", "0"]]])
    r = geometry.statistical_rows(space_of(flat, broken), one((0.2, 0.4)))["statistical"][0]
    assert r == pytest.approx(1.0)


def test_dual_connection_identities():
    g = gaussian_metric()
    for alpha in (1.0, -0.5):
        conn = AlphaConnection(g, gaussian_cubic_fields(), alpha)
        dual = DualConnection(conn, g)
        for p in grid_points(GAUSS_BOX, count=4, seed=4):
            gv, dg = g.batch(one(p), 1)
            gamma, gamma_dual = conn.batch(one(p), 0)[0], dual.batch(one(p), 0)[0]
            assert geometry.duality_residual(gv, dg, gamma, gamma_dual)[0] < 1e-11
            # the dual of the alpha connection is the -alpha connection
            minus = AlphaConnection(g, gaussian_cubic_fields(), -alpha)
            assert max_abs(at(dual, p) - at(minus, p)) < 1e-10
            # conjugate formula: conn + dual = 2 * Levi-Civita
            lc = LeviCivitaConnection(g).batch(one(p), 0)[0]
            assert geometry.dual_formula_residual(gamma, gamma_dual, lc)[0] < 1e-10


def test_dual_involution_tightness():
    g = half_plane_metric()
    lc = LeviCivitaConnection(g)
    pts = grid_points(HALF_PLANE_BOX, count=8, seed=5)
    res = run_check("dual_involution", space_of(g, lc), pts, 1e-9)
    assert res.status == PASS
    assert res.max_residual < 1e-11


def test_curvature_duality_check():
    g = gaussian_metric()
    conn = AlphaConnection(g, gaussian_cubic_fields(), 1.0)
    pts = grid_points(GAUSS_BOX, count=6, seed=6)
    res = run_check("curvature_duality", space_of(g, conn), pts, 1e-8)
    assert res.status == PASS


def test_is_statistical_check_result():
    flat = MetricField.from_exprs([["1", "0"], ["0", "1"]], 2)
    broken = ExprConnection(2, [[["0", "0"], ["0", "1"]],
                                [["0", "0"], ["0", "0"]]])
    pts = grid_points(((-0.9, 0.9), (-0.9, 0.9)), count=6, seed=8)
    bad = run_check("is_statistical", space_of(flat, broken), pts, 1e-8)
    assert bad.status == FAIL
    assert bad.max_residual == pytest.approx(1.0)
    good = run_check("is_statistical", space_of(flat, ExprConnection.zero(2)), pts, 1e-8)
    assert good.status == PASS


def test_levi_civita_is_torsion_free_compatible_and_self_dual():
    g = half_plane_metric()
    lc = LeviCivitaConnection(g)
    p = (0.0, 2.0)
    assert max_abs(geometry.torsion_values(at(lc, p))) < 1e-13
    assert max_abs(geometry.cubic_values(g, lc, one(p))) < 1e-12
    d = DualConnection(lc, g)
    assert max_abs(at(d, p) - at(lc, p)) < 1e-11  # self-dual metric connection


# incidents of the four manifold checks on the log(x1 + 0.8) metric, 16
# samples at seed 0, as the per-point jet path counted them: every one an
# EvalDomain at one of the three points of the suite's draw with x1 <= -0.8
LOG_METRIC_INCIDENTS = {"constant_curvature": 3, "curvature_duality": 3,
                        "dual_involution": 3, "is_statistical": 3}


def test_manifold_checks_keep_their_incidents_on_a_partly_undefined_metric():
    cfg = config.parse_config({
        "manifold": {"dim": 2, "box": [[-1.0, 1.0], [0.5, 3.0]],
                     "metric": [["1/x2^2 + log(x1 + 0.8)", "0"], ["0", "1/x2^2"]],
                     "curvature_k": -1.0},
        "checks": sorted(LOG_METRIC_INCIDENTS),
        "sampling": {"count": 16, "seed": 0},
    })
    for c in runner.run_suite(cfg)["checks"]:
        want = LOG_METRIC_INCIDENTS[c["name"]]
        kinds = {k: v["count"] for k, v in c["details"].get("incident_kinds", {}).items()}
        assert (c["samples"], c["incidents"]) == (16 - want, want), c["name"]
        assert kinds == ({"EvalDomain": want} if want else {}), c["name"]
