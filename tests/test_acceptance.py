"""The ten acceptance criteria, one visible verdict line per criterion.

Each test prints `criterion N: PASS/FAIL - summary` before asserting, so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.  The
tolerances and sample counts here are the contract; loosening them is a
regression even if every other test stays green.
"""

import json
import math

import numpy as np
import pytest

from conftest import integrate_one, nodes_of, run_check
from subgeo import builtins, cli, geodesics as geo, geometry, runner
from subgeo.sampling import sample_box

BUNDLE_NAMES = (
    "tangent_bundle_of:euclidean:2",
    "tangent_bundle_of:hyperbolic:2",
    "tangent_bundle_of:gaussian:alpha=1",
)


def pts(scenario, count, seed=11):
    box = scenario.space.chart.box
    return sample_box(box, count, seed)


def verdict(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_gaussian_induced_statistical():
    worst = 0.0
    ok = True
    for alpha in (0.0, 1.0, -1.0):
        scenario = builtins.build(f"gaussian:alpha={alpha:g}")
        res = run_check("induced_statistical", scenario.setup, pts(scenario, 64), 1e-7)
        ok = ok and res.status == "pass"
        worst = max(worst, res.max_residual)
    verdict(1, ok and worst <= 1e-7,
            f"induced structures statistical for alpha in {{0, 1, -1}}, "
            f"max residual {worst:.2e} <= 1e-7")


def test_criterion_2_conformal_defect_hyperbolic():
    worst = 0.0
    ok = True
    for n in (2, 3, 4):
        scenario = builtins.build(f"hyperbolic:{n}")
        res = run_check("conformal_defect", scenario.setup, pts(scenario, 64), 1e-8)
        ok = ok and res.status == "pass"
        worst = max(worst, res.max_residual)
    verdict(2, ok and worst <= 1e-8,
            f"conformal defect on hyperbolic:2/3/4 at 64 samples, "
            f"max {worst:.2e} <= 1e-8")


def test_criterion_3_four_conditions_biconditional_everywhere():
    rows = []
    ok = True
    for name in ("euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3",
                 "hyperbolic:4", "gaussian:alpha=1", "gaussian:alpha=0",
                 "gaussian:alpha=-1", "perturbed:3"):
        scenario = builtins.build(name)
        res = run_check("four_conditions", scenario.setup, pts(scenario, 64), 1e-8)
        rows.append((name, res.details["biconditional_holds"]))
        ok = ok and res.details["biconditional_holds"]
        if name == "perturbed:3":
            # the control must fail on both sides, not silently pass
            ok = ok and not res.details["conditions_pass"]
            ok = ok and not res.details["total_space_pass"]
        else:
            ok = ok and res.status == "pass"
    for name in BUNDLE_NAMES:
        scenario = builtins.build(name)
        res = run_check("tm_statistical", scenario.bundle, pts(scenario, 24), 1e-8)
        rows.append((name, res.details["biconditional_holds"]))
        ok = ok and res.details["biconditional_holds"]
    bad = [n for n, h in rows if not h]
    verdict(3, ok, f"four-conditions equivalence on {len(rows)} scenarios, "
                   f"violations: {bad or 'none'}")


def test_criterion_4_lemma_components():
    worst = 0.0
    ok = True
    for name in ("hyperbolic:3", "gaussian:alpha=1"):
        scenario = builtins.build(name)
        res = run_check("lemma_components", scenario.setup, pts(scenario, 64), 1e-7)
        ok = ok and res.status == "pass"
        for k in range(6, 12):
            worst = max(worst, res.details[f"cs{k}"])
    verdict(4, ok and worst <= 1e-7,
            f"all six lifted-derivative components, max {worst:.2e} <= 1e-7")


def test_criterion_5_half_plane_closed_forms():
    scenario = builtins.build("hyperbolic:2")
    conn, chart = scenario.space.conn, scenario.space.chart
    metric = scenario.space.metric

    ray = integrate_one(conn, chart, (0.0, 1.0), (0.0, 1.0), 1.0, step=1e-3)
    err_ray = float(np.max(np.abs(ray.xs[-1] - (0.0, math.e))))
    semi = integrate_one(conn, chart, (0.0, 1.0), (1.0, 0.0), 1.0, step=1e-3)
    err_semi = float(np.max(np.abs(
        semi.xs[-1] - (math.tanh(1.0), 1.0 / math.cosh(1.0)))))

    exact = np.array([math.tanh(0.5), 1.0 / math.cosh(0.5)])

    def ep_err(h):
        t = integrate_one(conn, chart, (0.0, 1.0), (1.0, 0.0), 0.5, step=h)
        return float(np.max(np.abs(t.xs[-1] - exact)))

    factor = ep_err(2e-2) / ep_err(1e-2)
    drift = geo.energy_drift(metric, semi)
    ok = err_ray <= 1e-6 and err_semi <= 1e-6 and 12.0 <= factor <= 20.0 and drift <= 1e-6
    verdict(5, ok, f"closed-form endpoints (ray {err_ray:.2e}, arc {err_semi:.2e}) "
                   f"<= 1e-6, step-halving factor {factor:.2f} in [12, 20], "
                   f"energy drift {drift:.2e} <= 1e-6")


def test_criterion_6_projection_criterion_three_curves():
    # the nodes (x, sigma') of the integrated half-plane geodesics are the
    # sample: the criterion and the base-geodesic verdict agree at every one
    scenario = builtins.build("hyperbolic:2")
    setup = scenario.setup
    curves = [
        integrate_one(setup.total.conn, setup.total.chart,
                      job["p0"], job["v0"], job["t_end"], job["h"])
        for _, job in sorted(scenario.geodesic_jobs.items())
    ]
    assert len(curves) >= 3
    x, v = nodes_of(curves)
    res = run_check("geodesic_projection", setup, x, 1e-6, v)
    agree = res.samples == len(x) and res.details["disagree"] == 0
    dec = run_check("curve_decomposition", setup, x, 1e-5, v)
    sig = run_check("sigma_second", setup, x, 1e-5, v)
    ok = res.status == "pass" and agree and dec.status == "pass" and sig.status == "pass"
    verdict(6, ok, f"{len(curves)} half-plane geodesics: projection verdicts "
                   f"agree at all {len(x)} nodes, decomposition {dec.max_residual:.2e} and "
                   f"second-derivative split {sig.max_residual:.2e} <= 1e-5")


def test_criterion_7_bundle_propositions():
    worst = 0.0
    ok = True
    for name in BUNDLE_NAMES:
        scenario = builtins.build(name)
        p = pts(scenario, 32)
        r1 = run_check("affine_hd", scenario.bundle.setup, p, 1e-8)
        r2 = run_check("semi_riemannian", scenario.bundle.setup, p, 1e-8)
        ok = ok and r1.status == "pass" and r2.status == "pass"
        worst = max(worst, r1.max_residual, r2.max_residual)
    verdict(7, ok and worst <= 1e-8,
            f"bundle projection affine + length-preserving on 3 bundles, "
            f"max {worst:.2e} <= 1e-8")


def test_criterion_8_bundle_statisticity_and_remarks():
    ok = True
    for name in BUNDLE_NAMES:
        scenario = builtins.build(name)
        p = pts(scenario, 24)
        res = run_check("tm_statistical", scenario.bundle, p, 1e-8)
        ok = ok and res.status == "pass" and res.details["biconditional_holds"]
        dual = run_check("remark_dual_complete", scenario.bundle, p, 1e-8)
        ok = ok and dual.status == "pass" and dual.max_residual <= 1e-8

    # remark on the horizontal lift, on both sides of nabla g = 0
    flat = builtins.build("tangent_bundle_of:euclidean:2")
    r_flat = run_check("remark_horizontal", flat.bundle, pts(flat, 24), 1e-8)
    ok = ok and r_flat.status == "pass" and r_flat.details["base_metric_pass"]
    gauss = builtins.build("tangent_bundle_of:gaussian:alpha=1")
    r_g = run_check("remark_horizontal", gauss.bundle, pts(gauss, 24), 1e-8)
    ok = ok and r_g.status == "pass" and not r_g.details["base_metric_pass"]
    verdict(8, ok, "bundle statisticity equivalences and dual/horizontal "
                   "remarks hold on all three bundles")


def run_cfg(tmp_path, payload, name):
    from subgeo.config import load_config

    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return runner.run_suite(load_config(str(p)))


def test_criterion_9_fd_crosscheck_and_duality(tmp_path):
    ok = True
    worst_fd, worst_dual = 0.0, 0.0
    for name in ("hyperbolic:3", "gaussian:alpha=1", "tangent_bundle_of:euclidean:2"):
        report = run_cfg(tmp_path, {
            "builtin": name,
            "checks": ["fd_crosscheck", "dual_involution"],
            "sampling": {"count": 16, "seed": 4},
        }, "c9.json")
        by_name = {c["name"]: c for c in report["checks"]}
        fd = by_name["fd_crosscheck"]
        dual = by_name["dual_involution"]
        ok = ok and fd["status"] == "pass" and dual["status"] == "pass"
        ok = ok and fd["samples"] == 16
        worst_fd = max(worst_fd, fd["max_residual"])
        worst_dual = max(worst_dual, dual["max_residual"])
    ok = ok and worst_fd <= 1e-4 and worst_dual <= 1e-9
    verdict(9, ok, f"16-probe finite-difference agreement {worst_fd:.2e} "
                   f"<= 1e-4, double-dual return {worst_dual:.2e} <= 1e-9")


def _strip_wall(node):
    if isinstance(node, dict):
        return {k: _strip_wall(v) for k, v in node.items() if k != "wall_time_s"}
    if isinstance(node, list):
        return [_strip_wall(v) for v in node]
    return node


def test_criterion_10_reports_reproducible(tmp_path):
    payload = {
        "builtin": "hyperbolic:2",
        "checks": ["four_conditions", "conformal_defect", "geodesic_projection",
                   "fd_crosscheck"],
        "sampling": {"count": 16, "seed": 123},
    }
    a = run_cfg(tmp_path, payload, "c10.json")
    b = run_cfg(tmp_path, payload, "c10.json")
    sa = json.dumps(_strip_wall(a), sort_keys=True)
    sb = json.dumps(_strip_wall(b), sort_keys=True)
    verdict(10, sa == sb, "identical configs produce byte-identical reports "
                          "(timings aside)")
