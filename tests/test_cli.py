"""End-to-end CLI behavior: exit codes, report layout, determinism,
seed precedence, and the geodesic CSV path.

Everything runs in-process through cli.main to keep the suite fast.
"""

import dataclasses
import json
import math
import re
import weakref

import numpy as np
import pytest

from subgeo import cli, config, runner, submersion

WALL = re.compile(r'\s*"wall_time_s": [0-9eE.+-]+,?')


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def strip_timings(text):
    return WALL.sub("", text)


SMALL = {
    "builtin": "hyperbolic:2",
    "checks": ["four_conditions", "conformal_defect", "lemma_components",
               "induced_statistical"],
    "sampling": {"count": 10, "seed": 5},
}


def test_verify_passes_and_writes_report(tmp_path, capsys):
    report = tmp_path / "out.json"
    code = cli.main(["verify", write_cfg(tmp_path, SMALL), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 pass, 0 fail, 0 inconclusive" in out
    assert re.search(r"conformal_defect\s+pass\s+max=\d", out)

    doc = json.loads(report.read_text())
    assert doc["schema"] == "subgeo-report/1"
    assert doc["suite"]["seed"] == 5
    assert doc["suite"]["samples"] == 10
    assert doc["summary"]["pass"] == 4
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    for c in doc["checks"]:
        assert set(c) >= {"name", "paper_ref", "samples", "max_residual",
                          "tolerance", "status", "incidents", "details",
                          "wall_time_s"}


def test_reports_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", cfg, "--report", str(a)]) == 0
    assert cli.main(["verify", cfg, "--report", str(b)]) == 0
    ta, tb = a.read_text(), b.read_text()
    assert ta != tb or True  # timings may coincide; the real claim follows
    assert strip_timings(ta) == strip_timings(tb)


def test_negative_control_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "builtin": "broken:2",
        "checks": ["is_statistical"],
        "sampling": {"count": 8, "seed": 1},
    })
    report = tmp_path / "r.json"
    assert cli.main(["verify", cfg, "--report", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert doc["checks"][0]["status"] == "fail"
    assert doc["checks"][0]["max_residual"] == pytest.approx(1.0)


def test_incident_rate_exits_three(tmp_path):
    # log(x1) cannot be evaluated on half the box, so most samples abort
    cfg = write_cfg(tmp_path, {
        "manifold": {"dim": 1, "box": [[-1.0, 1.0]],
                     "metric": [["log(x1)"]], "connection": "flat"},
        "checks": ["is_statistical"],
        "sampling": {"count": 20, "seed": 3},
    })
    report = tmp_path / "r.json"
    assert cli.main(["verify", cfg, "--report", str(report)]) == 3
    doc = json.loads(report.read_text())
    assert doc["summary"]["incident_rate"] > 0.10


def test_float_overflow_is_an_incident_not_a_crash(tmp_path):
    # exp(x2^3) overflows once x2 passes about 8.9; the box reaches 30
    cfg = write_cfg(tmp_path, {
        "manifold": {"dim": 2, "box": [[-1.0, 1.0], [0.5, 30.0]],
                     "metric": [["exp(x2^3)", "0"], ["0", "1"]],
                     "connection": "levi_civita"},
        "checks": ["is_statistical", "geodesic_energy"],
        "geodesics": {"up": {"p0": [0.0, 8.0], "v0": [0.0, 1.0], "t_end": 2.0}},
        "sampling": {"count": 20, "seed": 3},
    })
    report = tmp_path / "r.json"
    assert cli.main(["verify", cfg, "--report", str(report)]) in (1, 3)
    doc = json.loads(report.read_text())
    assert sum(c["incidents"] for c in doc["checks"]) > 0


def test_fd_crosscheck_reports_its_coverage(tmp_path):
    cfg = write_cfg(tmp_path, {"builtin": "hyperbolic:3", "checks": ["fd_crosscheck"],
                               "sampling": {"count": 4, "seed": 2}})
    report = tmp_path / "r.json"
    assert cli.main(["verify", cfg, "--report", str(report)]) == 0
    details = json.loads(report.read_text())["checks"][0]["details"]
    assert details["fields_probed"] == 16
    assert details["fields_available"] == 39


def test_config_errors_exit_two(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", str(bad)]) == 2

    cfg = write_cfg(tmp_path, {"builtin": "hyperbolic:2", "checks": ["no_such_check"]})
    assert cli.main(["verify", cfg]) == 2
    err = capsys.readouterr().err
    assert "no_such_check" in err
    assert "geodesic_projection" in err  # the message lists valid names

    # every numeric field must be a finite number (json.dumps writes NaN,
    # Infinity and -Infinity for the non-finite floats)
    nan, inf = math.nan, math.inf
    line = {"dim": 1, "box": [[0.0, 1.0]], "metric": [["1"]]}
    job = {"p0": [0.0, 1.0], "v0": [1.0, 0.0]}
    for payload in (
        {"builtin": "gaussian:alpha=nan"},
        {"builtin": "gaussian:alpha=inf"},
        {"builtin": "tangent_bundle_of:gaussian:alpha=-inf"},
        {"manifold": {**line, "curvature_k": "x"}},
        {"manifold": {**line, "curvature_k": nan}},
        {"manifold": {**line, "box": [[0.0, inf]]}},
        {"manifold": {**line, "connection": {"alpha": nan, "cubic": [[["0"]]]}}},
        {"builtin": "hyperbolic:2", "checks": [{"name": "is_statistical", "tolerance": nan}]},
        {"builtin": "hyperbolic:2", "checks": [{"name": "is_statistical", "tolerance": inf}]},
        {"builtin": "hyperbolic:2", "sampling": {"boxes": [[-1.0, inf], [1.0, 2.0]]}},
        {"builtin": "hyperbolic:2", "geodesics": {"j": {**job, "v0": [nan, 0.0]}}},
        {"builtin": "hyperbolic:2", "geodesics": {"j": {**job, "p0": [0.0, -inf]}}},
        {"builtin": "hyperbolic:2", "geodesics": {"j": {**job, "t_end": inf}}},
        {"builtin": "hyperbolic:2", "geodesics": {"j": {**job, "t_end": nan}}},
        {"builtin": "hyperbolic:2", "geodesics": {"j": {**job, "h": nan}}},
    ):
        assert cli.main(["verify", write_cfg(tmp_path, payload)]) == 2, payload
        assert "must be a finite number" in capsys.readouterr().err, payload

    # a finite t_end may still ask for more RK4 steps than a job may take
    for span in ({"t_end": 1e300}, {"t_end": 1e300, "h": 1e-300}, {"t_end": 10001.0}):
        payload = {"builtin": "hyperbolic:2", "checks": ["geodesic_energy"],
                   "geodesics": {"j": {**job, **span}}}
        assert cli.main(["verify", write_cfg(tmp_path, payload)]) == 2, payload
        assert "at most 1000000 steps" in capsys.readouterr().err, payload


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, {
        "builtin": "euclidean:2",
        "checks": ["is_statistical"],
        "sampling": {"count": 4, "seed": 1},
    })
    report = tmp_path / "r.json"

    monkeypatch.setenv("SUBGEO_SEED", "77")
    cli.main(["verify", cfg, "--report", str(report)])
    assert json.loads(report.read_text())["suite"]["seed"] == 77

    cli.main(["verify", cfg, "--report", str(report), "--seed", "9"])
    assert json.loads(report.read_text())["suite"]["seed"] == 9

    monkeypatch.setenv("SUBGEO_SEED", "notanint")
    assert cli.main(["verify", cfg]) == 2


def test_samples_and_mode_overrides(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    report = tmp_path / "r.json"
    cli.main(["verify", cfg, "--report", str(report), "--samples", "6", "--mode", "fd"])
    doc = json.loads(report.read_text())
    assert doc["suite"]["samples"] == 6
    assert doc["suite"]["mode"] == "fd"


def test_inline_config_matches_builtin(tmp_path):
    """A hand-written half-plane config reproduces the builtin's numbers
    exactly at the same seed."""
    inline = {
        "manifold": {
            "dim": 2,
            "box": [[-1.0, 1.0], [0.5, 3.0]],
            "metric": [["1/x2^2", "0"], ["0", "1/x2^2"]],
            "connection": "levi_civita",
        },
        "submersion": {
            "base": {"dim": 1, "box": [[-1.0, 1.0]],
                     "metric": [["1"]], "connection": "flat"},
            "projection": ["x1"],
            "phi": "-log(x2)",
        },
        "checks": SMALL["checks"],
        "sampling": SMALL["sampling"],
    }
    ra, rb = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", write_cfg(tmp_path, SMALL, "b1.json"),
                     "--report", str(ra)]) == 0
    assert cli.main(["verify", write_cfg(tmp_path, inline, "b2.json"),
                     "--report", str(rb)]) == 0
    da, db = json.loads(ra.read_text()), json.loads(rb.read_text())
    for ca, cb in zip(da["checks"], db["checks"]):
        assert ca["name"] == cb["name"]
        assert ca["status"] == cb["status"]
        assert ca["max_residual"] == cb["max_residual"]


def test_geodesic_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"builtin": "hyperbolic:2", "checks": []})
    out_csv = tmp_path / "curve.csv"
    code = cli.main(["geodesic", cfg, "--job", "semicircle", "--csv", str(out_csv)])
    assert code == 0
    assert "semicircle: 101 nodes" in capsys.readouterr().out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    assert len(lines) == 102
    assert lines[1].startswith("0,0,1,")

    assert cli.main(["geodesic", cfg, "--job", "nope", "--csv", str(out_csv)]) == 2
    assert "vertical_ray" in capsys.readouterr().err


def test_custom_geodesic_job(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "builtin": "euclidean:2",
        "checks": [],
        "geodesics": {"drift": {"p0": [0.0, 0.0], "v0": [0.5, 0.25],
                                "t_end": 0.5, "h": 0.25}},
    })
    out_csv = tmp_path / "drift.csv"
    assert cli.main(["geodesic", cfg, "--job", "drift", "--csv", str(out_csv)]) == 0
    rows = out_csv.read_text().splitlines()
    assert rows[-1] == "0.5,0.25,0.125,0.5,0.25"


def test_listings(capsys):
    assert cli.main(["list-checks"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    names = [l.split()[0] for l in lines]
    assert names == sorted(names)
    assert len(names) == 28
    assert any(l.startswith("geodesic_projection [§3.1 Theorem]") for l in lines)

    assert cli.main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for pat in ("euclidean:n", "hyperbolic:n", "gaussian:alpha=A",
                "tangent_bundle_of:", "broken:2", "perturbed:3"):
        assert pat in out


def test_check_tolerance_override(tmp_path):
    cfg = write_cfg(tmp_path, {
        "builtin": "hyperbolic:2",
        "checks": [{"name": "conformal_defect", "tolerance": 1e-3}],
        "sampling": {"count": 5, "seed": 2},
    })
    report = tmp_path / "r.json"
    assert cli.main(["verify", cfg, "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["checks"][0]["tolerance"] == pytest.approx(1e-3)


# NaN wherever x2^400 overflows (x2 > 5.9), on a box reaching x2 = 30
NAN_ENTRY = "1/x2^2 + (x2^400 - x2^400)"
NAN_CHECKS = ["affine_hd", "conformal_defect", "conformal_metric", "dual_conformal_pair",
              "four_conditions", "gauss_weingarten", "induced_statistical", "is_statistical",
              "lemma_components", "split_identities", "tensoriality"]


def test_non_finite_residuals_never_pass(tmp_path):
    cfg = write_cfg(tmp_path, {
        "manifold": {"dim": 2, "box": [[-1.0, 1.0], [0.5, 30.0]],
                     "metric": [[NAN_ENTRY, "0"], ["0", NAN_ENTRY]]},
        "submersion": {"base": {"dim": 1, "box": [[-1.0, 1.0]], "metric": [["1"]],
                                "connection": "flat"},
                       "projection": ["x1"], "phi": "-log(x2)"},
        "checks": NAN_CHECKS,
        "sampling": {"count": 16, "seed": 0},
    })
    report = tmp_path / "r.json"
    assert cli.main(["verify", cfg, "--report", str(report)]) == 1
    checks = json.loads(report.read_text())["checks"]
    assert sorted(c["name"] for c in checks) == NAN_CHECKS
    assert [c["name"] for c in checks if c["status"] == "pass"] == []


def test_non_finite_projection_is_an_incident_not_a_crash():
    # the rank test, at the box center and at each point, reads a NaN dpi as EvalDomain
    cfg = config.parse_config({
        "manifold": {"dim": 2, "box": [[-1.0, 1.0], [0.5, 30.0]],
                     "metric": [["1/x2^2", "0"], ["0", "1/x2^2"]]},
        "submersion": {"base": {"dim": 1, "box": [[-1.0, 1.0]], "metric": [["1"]],
                                "connection": "flat"},
                       "projection": ["x1 + (x2^400 - x2^400)"]},
        "checks": ["affine_hd", "split_identities"],
        "sampling": {"count": 8, "seed": 0},
    })
    report = runner.run_suite(cfg)
    for c in report["checks"]:
        assert c["status"] == "inconclusive" and c["incidents"] == 8
        assert c["details"]["incident_kinds"]["EvalDomain"]["count"] == 8
    assert runner.exit_code(report) == 3


def test_programming_error_aborts_the_run(monkeypatch):
    # a bug is not an incident: it must not turn into an inconclusive check
    def broken(self, x):
        raise AttributeError("injected bug")

    monkeypatch.setattr(submersion.SubmersionSetup, "_frame_arrays", broken)
    cfg = config.parse_config({"builtin": "tangent_bundle_of:hyperbolic:2",
                               "checks": ["prop41"], "sampling": {"count": 8, "seed": 0}})
    with pytest.raises(AttributeError, match="injected bug"):
        runner.run_suite(cfg)


def test_dual_conformal_pair_with_too_few_points_is_inconclusive():
    # log(x1 + 0.8) is undefined for x1 <= -0.8: 3 of 16 points do not evaluate
    cfg = config.parse_config({
        "manifold": {"dim": 2, "box": [[-1.0, 1.0], [0.5, 3.0]],
                     "metric": [["1/x2^2 + log(x1 + 0.8)", "0"], ["0", "1/x2^2"]]},
        "submersion": {"base": {"dim": 1, "box": [[-1.0, 1.0]], "metric": [["1"]],
                                "connection": "flat"},
                       "projection": ["x1"]},
        "checks": ["dual_conformal_pair"],
        "sampling": {"count": 16, "seed": 0},
    })
    (check,) = runner.run_suite(cfg)["checks"]
    assert check["samples"] == 13 and check["incidents"] == 3
    assert check["details"]["incident_kinds"]["EvalDomain"]["count"] == 3
    assert check["status"] == "inconclusive"


@pytest.mark.parametrize("target", ["hyperbolic:3", "tangent_bundle_of:euclidean:2"])
def test_a_report_has_one_row_per_requested_check_under_its_name(target):
    # every check requested, in reverse order: the rows come back sorted
    names = sorted(runner.CHECK_TABLE)
    cfg = config.parse_config({"builtin": target, "checks": names[::-1],
                               "sampling": {"count": 8, "seed": 0}})
    rows = runner.run_suite(cfg)["checks"]
    assert [row["name"] for row in rows] == names
    assert [row["paper_ref"] for row in rows] == [runner.CHECK_TABLE[n].paper_ref for n in names]


@pytest.mark.parametrize("checks", [
    ["is_statistical", {"name": "is_statistical", "tolerance": 1e-3}],
    ["is_statistical", "dual_involution", "is_statistical"],
])
def test_a_check_listed_twice_is_a_config_error(tmp_path, capsys, checks):
    cfg = write_cfg(tmp_path, {"builtin": "euclidean:2", "checks": checks})
    assert cli.main(["verify", cfg]) == 2
    assert "'is_statistical' is listed more than once" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    # an inline manifold has no default menu
    {"manifold": {"dim": 2, "box": [[-1, 1], [0.5, 2]], "metric": [["1", "0"], ["0", "1"]]}},
    # an empty list asks for no checks, not for the builtin's menu
    {"builtin": "euclidean:2", "checks": []},
])
def test_a_config_with_no_checks_is_a_config_error(tmp_path, capsys, payload):
    # running nothing is not a pass
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["verify", cfg]) == 2
    assert "no checks to run" in capsys.readouterr().err


def test_bad_inline_expression_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"manifold": {"dim": 2, "box": [[-1, 1], [-1, 1]],
                                            "metric": [["1+", "0"], ["0", "1"]]}})
    assert cli.main(["verify", cfg]) == 2
    assert "manifold.metric[0][0]: unexpected 'end of input' (offset 2)" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ({"builtin": "hyperbolic:2", "sampling": {"count": True}}, "sampling.count"),
    ({"builtin": "hyperbolic:2", "sampling": {"seed": True}}, "sampling.seed"),
    ({"manifold": {"dim": True, "box": [[-1, 1]], "metric": [["1"]]}}, "manifold.dim"),
])
def test_integer_fields_reject_booleans(tmp_path, capsys, payload, message):
    assert cli.main(["verify", write_cfg(tmp_path, payload)]) == 2
    assert f"config error: {message} must be" in capsys.readouterr().err


# a job leaving the chart box after about 0.03 time units
EXITS = {"builtin": "hyperbolic:3", "sampling": {"count": 16},
         "geodesics": {"exits": {"p0": [0.9, 0, 1], "v0": [3, 0, 0]}}}
CURVE_CHECKS = ("curve_decomposition", "geodesic_projection", "sigma_second")


def test_a_failed_job_is_an_incident_of_geodesic_energy_only():
    # the curve checks read sampled initial data, not the jobs
    report = runner.run_suite(config.parse_config(EXITS))
    checks = {c["name"]: c for c in report["checks"]}
    energy = checks["geodesic_energy"]
    assert (energy["status"], energy["samples"], energy["incidents"]) == ("inconclusive", 3, 1)
    assert list(energy["details"]["incident_kinds"]) == ["BoundaryExit"]
    for name in CURVE_CHECKS:
        check = checks[name]
        assert (check["status"], check["samples"], check["incidents"]) == ("pass", 16, 0)
    assert runner.exit_code(report) == 1


@pytest.mark.parametrize("payload", [
    EXITS,
    # 1/x2^2 near x2 = 0: a few EvalDomain incidents per frame check
    {"builtin": "hyperbolic:2", "sampling": {"boxes": [[-1, 1], [-0.1, 3]]}},
    # most of the box around x2 = 0: several checks go inconclusive
    {"builtin": "hyperbolic:2", "sampling": {"boxes": [[-1, 1], [-1, 3]]}},
], ids=["exits", "near_axis", "across_axis"])
def test_a_pass_means_ninety_percent_evaluated(payload):
    for check in runner.run_suite(config.parse_config(payload))["checks"]:
        if check["status"] == "pass":
            attempted = check["samples"] + check["incidents"]
            assert check["samples"] >= 0.9 * attempted, check["name"]
            assert math.isfinite(check["max_residual"]), check["name"]


# -- one draw and one frame batch per suite ------------------------------------

INCIDENT_BOX = {"builtin": "hyperbolic:3",
                "sampling": {"boxes": [[-1, 1], [-1, 1], [-0.5, 3]]}}


def rows_by_check(payload, mode, checks=None):
    """Each report row of a 16-sample seed-3 run, as JSON without its
    ``wall_time_s``, by check name."""
    raw = dict(payload, mode=mode, sampling=dict(payload.get("sampling", {}), count=16, seed=3))
    if checks is not None:
        raw["checks"] = checks
    rows = runner.run_suite(config.parse_config(raw))["checks"]
    return {row["name"]: json.dumps({k: v for k, v in row.items() if k != "wall_time_s"},
                                    sort_keys=True) for row in rows}


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("payload", [
    {"builtin": "hyperbolic:3"}, {"builtin": "gaussian:alpha=1"},
    {"builtin": "tangent_bundle_of:hyperbolic:2"}, INCIDENT_BOX,
], ids=["hyperbolic:3", "gaussian:alpha=1", "tangent_bundle_of:hyperbolic:2", "incident_box"])
def test_a_check_run_alone_gives_its_row_of_the_full_suite(payload, mode):
    # sharing the suite's draw and frame batch changes only the work
    full = rows_by_check(payload, mode)
    if payload is INCIDENT_BOX:  # failing rows of the shared frame batch
        rows = {name: json.loads(row) for name, row in full.items()}
        assert rows["split_identities"]["incidents"] and rows["four_conditions"]["incidents"]
    for name, row in full.items():
        assert rows_by_check(payload, mode, [name]) == {name: row}


def test_a_run_context_builds_one_read_only_frame_batch_at_its_points():
    scenario = config.build_scenario(config.parse_config({"builtin": "hyperbolic:3"}))
    ctx = runner.RunContext(scenario, 8, 0)
    frames = ctx.frames()
    assert ctx.frames() is frames and len(frames) == 8
    assert frames.dpi.tobytes() == scenario.setup._frames(ctx.points()).dpi.tobytes()
    assert runner.RunContext(scenario, 8, 0).frames() is not frames
    arrays = [ctx.points(), frames.d_ph, frames.cubic, frames.over(2).gamma_dual]
    arrays += [a for a in vars(frames).values() if isinstance(a, np.ndarray)]
    arrays += [a for field in frames.columns() for a in field]
    arrays += list(frames.tensors.values())
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a += 0.0


@pytest.mark.parametrize("escapes", [False, True])
def test_no_frame_batch_outlives_its_suite(escapes, monkeypatch):
    built = []
    frames = submersion.SubmersionSetup._frames

    def recording(self, points):
        batch = frames(self, points)
        built.append(weakref.ref(batch))
        return batch

    def broken(scenario, ctx, tol):
        raise RuntimeError("injected bug")

    monkeypatch.setattr(submersion.SubmersionSetup, "_frames", recording)
    if escapes:  # from the last check, after every frame check has run
        spec = dataclasses.replace(runner.CHECK_TABLE["tensoriality"], driver=broken)
        monkeypatch.setitem(runner.CHECK_TABLE, "tensoriality", spec)
    cfg = config.parse_config({"builtin": "hyperbolic:3", "sampling": {"count": 8}})
    try:
        runner.run_suite(cfg)
        raised = False
    except RuntimeError:
        raised = True
    assert raised == escapes
    # the batch of the suite's points and that of projectable's fibers
    assert len(built) == 2 and all(ref() is None for ref in built)


BUNDLE_ONLY = ["prop41", "prop42", "remark_complete_metric", "remark_dual_complete",
               "remark_horizontal", "tb_defining_rules", "tm_statistical"]
SUBMERSION_ONLY = ["affine_hd", "conformal_defect", "conformal_metric", "dual_conformal_pair",
                   "four_conditions", "gauss_weingarten", "induced_statistical",
                   "lemma_components", "projectable", "semi_riemannian", "split_identities",
                   "tensoriality"]
MANIFOLD_ONLY = {"manifold": {"dim": 2, "box": [[-1.0, 1.0], [0.5, 3.0]],
                              "metric": [["1/x2^2", "0"], ["0", "1/x2^2"]]}}


@pytest.mark.parametrize("payload, missing", [
    ({"builtin": "hyperbolic:3"}, {name: "tangent bundle" for name in BUNDLE_ONLY}),
    ({"builtin": "tangent_bundle_of:hyperbolic:2"},
     {"constant_curvature": "reference curvature constant", "geodesic_energy": "geodesic jobs"}),
    # a curve check needs only the submersion, not the geodesic jobs
    (MANIFOLD_ONLY, {name: "submersion" for name in SUBMERSION_ONLY + list(CURVE_CHECKS)}),
])
def test_a_check_the_scenario_cannot_feed_reports_a_skip_row(payload, missing):
    cfg = config.parse_config(dict(payload, checks=sorted(missing),
                                   sampling={"count": 8, "seed": 0}))
    report = runner.run_suite(cfg)
    for row in report["checks"]:
        del row["wall_time_s"]
        assert row == {
            "name": row["name"], "paper_ref": runner.CHECK_TABLE[row["name"]].paper_ref,
            "samples": 0, "max_residual": math.inf, "tolerance": 0.0,
            "status": "inconclusive", "incidents": 0,
            "details": {"skipped": f"scenario has no {missing[row['name']]}"},
        }
    assert [row["name"] for row in report["checks"]] == sorted(missing)
    assert runner.exit_code(report) == 1
