"""Builtin manifold corpus.

Four families cover every check nontrivially: flat space, the hyperbolic
half-space model, the Gaussian location-scale family with its alpha
connections, and tangent bundles over any of those.  Two small negative
controls round the registry out so failing polarity stays exercised.

Builtin names are parsed, not enumerated: ``hyperbolic:3`` or
``gaussian:alpha=-0.5`` or ``tangent_bundle_of:hyperbolic:2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fields import (AlphaConnection, ChartedManifold, ExprConnection,
                     LeviCivitaConnection, MetricField, Space, SumConnection,
                     make_scalar)
from .geodesics import DEFAULT_STEP
from .submersion import SubmersionSetup
from .tangent_bundle import TangentBundle


@dataclass
class Scenario:
    """A resolved verification target: spaces, optional submersion, jobs."""

    name: str
    space: Space
    setup: SubmersionSetup | None = None
    bundle: TangentBundle | None = None
    curvature_k: float | None = None
    checks: tuple = ()
    geodesic_jobs: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.space.dim


# ---------------------------------------------------------------------------
# Check menus.  Polarity notes: semi_riemannian is omitted where the fibers
# are glued in conformally rather than isometrically (hyperbolic, gaussian),
# geodesic_energy is omitted for connections that do not preserve the metric
# (gaussian with alpha != 0), and remark_horizontal is listed only where the
# remark's equivalence actually holds (flat base, or nabla g != 0); see the
# README for the reasoning.

MANIFOLD_CHECKS = (
    "is_statistical",
    "dual_involution",
    "curvature_duality",
    "fd_crosscheck",
)

SUBMERSION_CHECKS = (
    "split_identities",
    "tensoriality",
    "gauss_weingarten",
    "conformal_metric",
    "conformal_defect",
    "affine_hd",
    "dual_conformal_pair",
    "lemma_components",
    "four_conditions",
    "projectable",
    "induced_statistical",
)

GEODESIC_CHECKS = (
    "geodesic_projection",
    "curve_decomposition",
    "sigma_second",
)

BUNDLE_CHECKS = (
    "tb_defining_rules",
    "prop41",
    "prop42",
    "tm_statistical",
    "remark_complete_metric",
    "remark_dual_complete",
    "dual_involution",
    "fd_crosscheck",
)


def _euclidean_space(n: int, mode: str) -> Space:
    box = tuple((-1.0, 1.0) for _ in range(n))
    chart = ChartedManifold(f"euclidean:{n}", n, box)
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    metric = MetricField.from_exprs(rows, n, mode)
    return Space(chart, metric, ExprConnection.zero(n))


def _euclidean(n: int, mode: str) -> Scenario:
    space = _euclidean_space(n, mode)
    setup = None
    if n >= 2:
        base = _euclidean_space(n - 1, mode)
        pi = [make_scalar(f"x{a + 1}", n, mode) for a in range(n - 1)]
        setup = SubmersionSetup(space, base, pi, None, f"euclidean:{n}")
    v_line = np.zeros(n)
    v_line[0] = 0.5
    v_diag = np.resize([0.4, -0.3, 0.2, -0.15, 0.25, -0.2], n)
    jobs = {
        "line": {"p0": [0.0] * n, "v0": v_line.tolist(), "t_end": 1.0, "h": DEFAULT_STEP},
        "diagonal": {"p0": [0.0] * n, "v0": v_diag.tolist(), "t_end": 1.0, "h": DEFAULT_STEP},
    }
    checks = MANIFOLD_CHECKS + ("constant_curvature",)
    if setup is not None:
        checks += SUBMERSION_CHECKS + ("semi_riemannian",) + GEODESIC_CHECKS
    checks += ("geodesic_energy",)
    return Scenario(
        name=f"euclidean:{n}", space=space, setup=setup, curvature_k=0.0,
        checks=checks, geodesic_jobs=jobs,
    )


def _hyperbolic(n: int, mode: str) -> Scenario:
    if n < 2:
        raise ConfigError("hyperbolic:n needs n >= 2")
    box = tuple([(-1.0, 1.0)] * (n - 1) + [(0.5, 3.0)])
    chart = ChartedManifold(f"hyperbolic:{n}", n, box)
    rows = [[f"1/x{n}^2" if i == j else "0" for j in range(n)] for i in range(n)]
    metric = MetricField.from_exprs(rows, n, mode)
    space = Space(chart, metric, LeviCivitaConnection(metric))
    base = _euclidean_space(n - 1, mode)
    pi = [make_scalar(f"x{a + 1}", n, mode) for a in range(n - 1)]
    phi = make_scalar(f"-log(x{n})", n, mode)
    setup = SubmersionSetup(space, base, pi, phi, f"hyperbolic:{n}")
    p0 = [0.0] * (n - 1) + [1.0]
    ray = [0.0] * (n - 1) + [1.0]
    circ = [0.0] * n
    circ[0] = 1.0
    gen = [0.0] * n
    gen[0], gen[-1] = 0.5, 0.5
    jobs = {
        "vertical_ray": {"p0": p0, "v0": ray, "t_end": 1.0, "h": DEFAULT_STEP},
        "semicircle": {"p0": p0, "v0": circ, "t_end": 1.0, "h": DEFAULT_STEP},
        "generic": {"p0": p0, "v0": gen, "t_end": 1.0, "h": DEFAULT_STEP},
    }
    checks = (MANIFOLD_CHECKS + ("constant_curvature",) + SUBMERSION_CHECKS
              + GEODESIC_CHECKS + ("geodesic_energy",))
    return Scenario(
        name=f"hyperbolic:{n}", space=space, setup=setup, curvature_k=-1.0,
        checks=checks, geodesic_jobs=jobs,
    )


# Fisher information of the (mu, sigma) normal family, with its cubic form.
# x1 = mu, x2 = sigma on the half plane sigma > 0.
_GAUSS_METRIC = [["1/x2^2", "0"], ["0", "2/x2^2"]]
_GAUSS_CUBIC = {
    (0, 0, 0): "0",
    (0, 0, 1): "2/x2^3",
    (0, 1, 1): "0",
    (1, 1, 1): "8/x2^3",
}


def gaussian_space(alpha: float, mode: str = "jet") -> Space:
    chart = ChartedManifold(f"gaussian:alpha={alpha:g}", 2, ((-1.0, 1.0), (0.5, 2.0)))
    metric = MetricField.from_exprs(_GAUSS_METRIC, 2, mode)
    fields = [[[None] * 2 for _ in range(2)] for _ in range(2)]
    for l in range(2):
        for i in range(2):
            for j in range(2):
                key = tuple(sorted((l, i, j)))
                fields[l][i][j] = make_scalar(_GAUSS_CUBIC[key], 2, mode)
    return Space(chart, metric, AlphaConnection(metric, fields, alpha))


def _gaussian(alpha: float, mode: str) -> Scenario:
    space = gaussian_space(alpha, mode)
    base = _euclidean_space(1, mode)
    pi = [make_scalar("x1", 2, mode)]
    phi = make_scalar("-log(x2)", 2, mode)
    setup = SubmersionSetup(space, base, pi, phi, space.chart.name)
    jobs = {
        "mu_line": {"p0": [0.0, 1.0], "v0": [0.4, 0.0], "t_end": 0.8, "h": DEFAULT_STEP},
        "sigma_ray": {"p0": [0.0, 1.0], "v0": [0.0, 0.3], "t_end": 0.8, "h": DEFAULT_STEP},
        "generic": {"p0": [0.0, 1.0], "v0": [0.3, 0.2], "t_end": 0.8, "h": DEFAULT_STEP},
    }
    checks = (MANIFOLD_CHECKS + ("constant_curvature",) + SUBMERSION_CHECKS
              + GEODESIC_CHECKS)
    if alpha == 0.0:
        checks += ("geodesic_energy",)
    return Scenario(
        name=space.chart.name, space=space, setup=setup,
        curvature_k=(alpha * alpha - 1.0) / 2.0,
        checks=checks, geodesic_jobs=jobs,
    )


def _tangent_bundle(inner_name: str, mode: str) -> Scenario:
    inner = build(inner_name, mode)
    if inner.bundle is not None:
        raise ConfigError("tangent_bundle_of does not nest")
    bundle = TangentBundle(inner.space, name=f"tangent_bundle_of:{inner.name}")
    checks = BUNDLE_CHECKS
    # remark (c) equates statisticity of (TM, horizontal lift, sasaki) with
    # metric compatibility; the equivalence needs a flat base or a metric
    # the connection fails to preserve, so the check is only listed there.
    flat = inner_name.startswith("euclidean")
    noncompat = inner_name.startswith("gaussian") and inner.curvature_k != -0.5
    if flat or noncompat:
        checks += ("remark_horizontal",)
    return Scenario(
        name=f"tangent_bundle_of:{inner.name}",
        space=bundle.space("sasaki", "complete"),
        setup=bundle.setup,
        bundle=bundle,
        checks=checks,
    )


def _broken(mode: str) -> Scenario:
    space = _euclidean_space(2, mode)
    coeffs = [[["0", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]]
    conn = ExprConnection(2, coeffs, mode)
    broken = Space(space.chart, space.metric, conn)
    return Scenario(
        name="broken:2", space=broken,
        checks=("is_statistical", "dual_involution", "fd_crosscheck"),
    )


def _perturbed(mode: str) -> Scenario:
    clean = _hyperbolic(3, mode)
    bump = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    bump[0][2][2] = "1/10"
    conn = SumConnection(clean.space.conn, ExprConnection(3, bump, mode))
    space = Space(clean.space.chart, clean.space.metric, conn)
    setup = SubmersionSetup(space, clean.setup.base, clean.setup.pi,
                            clean.setup.phi, "perturbed:3")
    return Scenario(
        name="perturbed:3", space=space, setup=setup,
        checks=("is_statistical", "four_conditions"),
    )


def build(name: str, mode: str = "jet") -> Scenario:
    """Resolve a builtin name to a Scenario; raises ConfigError if unknown."""
    try:
        if name.startswith("euclidean:"):
            return _euclidean(_int_tail(name, "euclidean:"), mode)
        if name.startswith("hyperbolic:"):
            return _hyperbolic(_int_tail(name, "hyperbolic:"), mode)
        if name.startswith("gaussian:alpha="):
            from .config import finite_number  # late import; config imports this module

            alpha = float(name[len("gaussian:alpha="):])
            return _gaussian(finite_number(alpha, f"builtin {name!r}: alpha"), mode)
        if name.startswith("tangent_bundle_of:"):
            return _tangent_bundle(name[len("tangent_bundle_of:"):], mode)
        if name == "broken:2":
            return _broken(mode)
        if name == "perturbed:3":
            return _perturbed(mode)
    except ValueError as exc:
        raise ConfigError(f"bad builtin parameter in {name!r}: {exc}") from exc
    raise ConfigError(
        f"unknown builtin {name!r}; available: " + ", ".join(p for p, _ in BUILTIN_PATTERNS)
    )


def _int_tail(name: str, prefix: str) -> int:
    value = int(name[len(prefix):])
    if value < 1:
        raise ValueError("dimension must be positive")
    return value


BUILTIN_PATTERNS = (
    ("broken:2", "flat metric with an incompatible connection (negative control)"),
    ("euclidean:n", "flat space, identity metric, projection drops the last coordinate"),
    ("gaussian:alpha=A", "normal family (mu, sigma), Fisher metric, alpha connection, projection to the mu line"),
    ("hyperbolic:n", "half-space model, metric delta/x_n^2, conformal projection to a flat base"),
    ("perturbed:3", "hyperbolic:3 with a bumped connection coefficient (negative control)"),
    ("tangent_bundle_of:<builtin>", "tangent bundle with sasaki/complete/horizontal lifts over any builtin above"),
)
