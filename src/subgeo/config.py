"""Suite configuration: JSON loading, validation, scenario assembly.

A config either names a builtin or spells a manifold (and optionally a
submersion) inline with grammar expressions.  Everything else tunes the
run: which checks, how many samples, which derivative mode, and the
geodesic jobs.  Validation failures raise ConfigError with enough
context to fix the file; expression problems carry the parser offset.
"""

from __future__ import annotations

import dataclasses
import json
import math

from . import builtins as builtin_registry
from .builtins import Scenario
from .errors import ConfigError, ExprSyntaxError
from .fields import (AlphaConnection, ChartedManifold, ExprConnection,
                     LeviCivitaConnection, MetricField, Space, make_scalar)
from .geodesics import DEFAULT_STEP, MAX_STEPS, too_many_steps
from .submersion import SubmersionSetup
from .tangent_bundle import TangentBundle

DEFAULT_COUNT = 64
DEFAULT_SEED = 0

_TOP_KEYS = {"builtin", "manifold", "submersion", "checks", "sampling", "mode",
             "geodesics"}
_MANIFOLD_KEYS = {"dim", "box", "metric", "connection", "curvature_k",
                  "tangent_bundle"}
_SUBMERSION_KEYS = {"base", "projection", "phi"}
_SAMPLING_KEYS = {"count", "seed", "boxes"}
_JOB_KEYS = {"p0", "v0", "t_end", "h"}


@dataclasses.dataclass
class SuiteConfig:
    source: str
    builtin: str | None
    manifold: dict | None
    submersion: dict | None
    checks: list | None    # list of (name, tolerance-or-None); None: the builtin's menu
    count: int
    seed: int
    boxes: tuple | None
    mode: str              # "jet" | "fd"
    geodesics: dict        # job name -> {p0, v0, t_end, h}


def load_config(path) -> SuiteConfig:
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(raw, source=str(path))


def parse_config(raw, source: str = "<inline>") -> SuiteConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    builtin = raw.get("builtin")
    manifold = raw.get("manifold")
    if (builtin is None) == (manifold is None):
        raise ConfigError("config needs exactly one of 'builtin' or 'manifold'")
    if builtin is not None and not isinstance(builtin, str):
        raise ConfigError("'builtin' must be a string")
    if manifold is not None:
        _validate_manifold(manifold, "manifold")
    submersion = raw.get("submersion")
    if submersion is not None:
        if manifold is None:
            raise ConfigError("'submersion' requires an inline 'manifold'")
        _reject_unknown(submersion, _SUBMERSION_KEYS, "submersion")
        if "base" not in submersion or "projection" not in submersion:
            raise ConfigError("submersion needs 'base' and 'projection'")
        _validate_manifold(submersion["base"], "submersion.base")

    checks = _parse_checks(raw.get("checks"))

    sampling = raw.get("sampling", {})
    if not isinstance(sampling, dict):
        raise ConfigError("'sampling' must be an object")
    _reject_unknown(sampling, _SAMPLING_KEYS, "sampling")
    count = sampling.get("count", DEFAULT_COUNT)
    seed = sampling.get("seed", DEFAULT_SEED)
    if not _integer(count) or count < 1:
        raise ConfigError("sampling.count must be a positive integer")
    if not _integer(seed):
        raise ConfigError("sampling.seed must be an integer")
    boxes = sampling.get("boxes")
    if boxes is not None:
        boxes = _parse_box(boxes, "sampling.boxes")

    mode = raw.get("mode", "jet")
    if mode in ("finite-difference", "finite_difference"):
        mode = "fd"
    if mode not in ("jet", "fd"):
        raise ConfigError(f"mode must be 'jet' or 'fd', got {mode!r}")

    geodesics = raw.get("geodesics", {})
    if not isinstance(geodesics, dict):
        raise ConfigError("'geodesics' must map job names to job objects")
    for job_name, job in geodesics.items():
        if not isinstance(job, dict):
            raise ConfigError(f"geodesics.{job_name} must be an object")
        _reject_unknown(job, _JOB_KEYS, f"geodesics.{job_name}")
        for key in ("p0", "v0"):
            if not isinstance(job.get(key), list) or not job[key]:
                raise ConfigError(f"geodesics.{job_name}.{key} must be a number list")
            for i, v in enumerate(job[key]):
                finite_number(v, f"geodesics.{job_name}.{key}[{i}]")
        if len(job["p0"]) != len(job["v0"]):
            raise ConfigError(f"geodesics.{job_name}: p0 and v0 lengths differ")
        span = []
        for key, default in (("t_end", 1.0), ("h", DEFAULT_STEP)):
            span.append(finite_number(job.get(key, default), f"geodesics.{job_name}.{key}"))
            if span[-1] <= 0:
                raise ConfigError(f"geodesics.{job_name}.{key} must be positive")
        if too_many_steps(*span):
            raise ConfigError(f"geodesics.{job_name}: t_end / h must be at most "
                              f"{MAX_STEPS} steps")

    return SuiteConfig(
        source=source, builtin=builtin, manifold=manifold,
        submersion=submersion, checks=checks, count=count, seed=seed,
        boxes=boxes, mode=mode, geodesics=dict(geodesics),
    )


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _integer(value) -> bool:
    """Whether ``value`` is a JSON integer; booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def finite_number(value, where: str) -> float:
    """``value`` as a float when it is a finite JSON number, else a
    ConfigError naming ``where``.  Booleans, NaN, the infinities and
    integers beyond the float range are not finite numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _parse_box(obj, where: str) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where} must be a list of [lo, hi] pairs")
    out = []
    for i, pair in enumerate(obj):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where}[{i}] must be [lo, hi]")
        lo, hi = (finite_number(v, f"{where}[{i}]") for v in pair)
        if not lo < hi:
            raise ConfigError(f"{where}[{i}]: need lo < hi, got [{lo}, {hi}]")
        out.append((lo, hi))
    return tuple(out)


def _parse_checks(obj) -> list | None:
    if obj is None:
        return None
    if not isinstance(obj, list):
        raise ConfigError("'checks' must be a list")
    from . import runner  # late import; the registry lives there

    out = []
    for entry in obj:
        if isinstance(entry, str):
            name, tol = entry, None
        elif isinstance(entry, dict):
            _reject_unknown(entry, {"name", "tolerance"}, "checks entry")
            name = entry.get("name")
            tol = entry.get("tolerance")
            if not isinstance(name, str):
                raise ConfigError("checks entry needs a 'name' string")
            where = f"checks entry {name!r}: tolerance"
            if tol is not None and finite_number(tol, where) <= 0:
                raise ConfigError(f"{where} must be positive")
        else:
            raise ConfigError("checks entries must be names or {name, tolerance}")
        if name not in runner.CHECK_TABLE:
            raise ConfigError(
                f"unknown check {name!r}; valid names: "
                + ", ".join(sorted(runner.CHECK_TABLE))
            )
        if any(name == seen for seen, _ in out):
            raise ConfigError(f"check {name!r} is listed more than once")
        out.append((name, None if tol is None else float(tol)))
    return out


def _validate_manifold(obj, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(obj, _MANIFOLD_KEYS, where)
    dim = obj.get("dim")
    if not _integer(dim) or dim < 1:
        raise ConfigError(f"{where}.dim must be a positive integer")
    if obj.get("curvature_k") is not None:
        finite_number(obj["curvature_k"], f"{where}.curvature_k")
    box = obj.get("box")
    if box is None:
        raise ConfigError(f"{where}.box is required")
    parsed = _parse_box(box, f"{where}.box")
    if len(parsed) != dim:
        raise ConfigError(f"{where}.box has {len(parsed)} intervals for dim {dim}")
    metric = obj.get("metric")
    if (not isinstance(metric, list) or len(metric) != dim
            or any(not isinstance(row, list) or len(row) != dim for row in metric)):
        raise ConfigError(f"{where}.metric must be a {dim}x{dim} array of expressions")
    conn = obj.get("connection", "levi_civita")
    if isinstance(conn, str):
        if conn not in ("levi_civita", "flat"):
            raise ConfigError(
                f"{where}.connection: unknown named connection {conn!r} "
                "(use 'levi_civita', 'flat', or an object)"
            )
    elif isinstance(conn, dict):
        if "coeffs" in conn:
            _reject_unknown(conn, {"coeffs"}, f"{where}.connection")
            if not _is_cube(conn["coeffs"], dim):
                raise ConfigError(
                    f"{where}.connection.coeffs must be a {dim}^3 nested array"
                )
        elif "alpha" in conn:
            _reject_unknown(conn, {"alpha", "cubic"}, f"{where}.connection")
            finite_number(conn["alpha"], f"{where}.connection.alpha")
            if not _is_cube(conn.get("cubic"), dim):
                raise ConfigError(
                    f"{where}.connection.cubic must be a {dim}^3 nested array"
                )
        else:
            raise ConfigError(
                f"{where}.connection object needs 'coeffs' or 'alpha'+'cubic'"
            )
    else:
        raise ConfigError(f"{where}.connection must be a name or an object")


def _is_cube(obj, dim: int) -> bool:
    return (isinstance(obj, list) and len(obj) == dim
            and all(isinstance(plane, list) and len(plane) == dim
                    and all(isinstance(row, list) and len(row) == dim
                            for row in plane)
                    for plane in obj))


# ---------------------------------------------------------------------------
# Scenario assembly


def _expr(source, dim: int, mode: str, where: str):
    try:
        return make_scalar(source, dim, mode)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_space(obj: dict, mode: str, where: str, name: str) -> Space:
    dim = obj["dim"]
    box = _parse_box(obj["box"], f"{where}.box")
    chart = ChartedManifold(name, dim, box)
    rows = [[_expr(obj["metric"][i][j], dim, mode, f"{where}.metric[{i}][{j}]")
             for j in range(dim)] for i in range(dim)]
    metric = MetricField(dim, rows)
    conn_spec = obj.get("connection", "levi_civita")
    if conn_spec == "levi_civita":
        conn = LeviCivitaConnection(metric)
    elif conn_spec == "flat":
        conn = ExprConnection.zero(dim)
    elif "coeffs" in conn_spec:
        coeffs = [[[_expr(conn_spec["coeffs"][k][i][j], dim, mode,
                          f"{where}.connection.coeffs[{k}][{i}][{j}]")
                    for j in range(dim)] for i in range(dim)] for k in range(dim)]
        conn = ExprConnection(dim, coeffs)
    else:
        cubic = [[[_expr(conn_spec["cubic"][l][i][j], dim, mode,
                         f"{where}.connection.cubic[{l}][{i}][{j}]")
                   for j in range(dim)] for i in range(dim)] for l in range(dim)]
        conn = AlphaConnection(metric, cubic, float(conn_spec["alpha"]))
    return Space(chart, metric, conn)


def build_scenario(cfg: SuiteConfig) -> Scenario:
    """Resolve the config into spaces, submersion, checks, and jobs."""
    if cfg.builtin is not None:
        scenario = builtin_registry.build(cfg.builtin, cfg.mode)
    else:
        space = _build_space(cfg.manifold, cfg.mode, "manifold", "inline")
        setup = None
        k = cfg.manifold.get("curvature_k")
        bundle = None
        if cfg.submersion is not None:
            base = _build_space(cfg.submersion["base"], cfg.mode,
                                "submersion.base", "inline-base")
            proj = [
                _expr(text, space.dim, cfg.mode, f"submersion.projection[{a}]")
                for a, text in enumerate(cfg.submersion["projection"])
            ]
            if len(proj) != base.dim:
                raise ConfigError(
                    f"projection has {len(proj)} components, base dim is {base.dim}"
                )
            phi = None
            if cfg.submersion.get("phi") is not None:
                phi = _expr(cfg.submersion["phi"], space.dim, cfg.mode,
                            "submersion.phi")
            setup = SubmersionSetup(space, base, proj, phi, "inline")
        if cfg.manifold.get("tangent_bundle"):
            if setup is not None:
                raise ConfigError("inline tangent_bundle cannot also carry a submersion")
            bundle = TangentBundle(space, name="inline-bundle")
            space = bundle.space("sasaki", "complete")
            setup = bundle.setup
        scenario = Scenario(
            name="inline", space=space, setup=setup, bundle=bundle,
            curvature_k=None if k is None else float(k), checks=(),
        )

    if cfg.boxes is not None:
        if len(cfg.boxes) != scenario.dim:
            raise ConfigError(
                f"sampling.boxes has {len(cfg.boxes)} intervals, "
                f"chart dimension is {scenario.dim}"
            )

    jobs = dict(scenario.geodesic_jobs)
    for job_name, job in cfg.geodesics.items():
        if len(job["p0"]) != scenario.dim:
            raise ConfigError(
                f"geodesics.{job_name}: p0 has {len(job['p0'])} components, "
                f"chart dimension is {scenario.dim}"
            )
        jobs[job_name] = {
            "p0": [float(v) for v in job["p0"]],
            "v0": [float(v) for v in job["v0"]],
            "t_end": float(job.get("t_end", 1.0)),
            "h": float(job.get("h", DEFAULT_STEP)),
        }
    scenario.geodesic_jobs = jobs
    return scenario
