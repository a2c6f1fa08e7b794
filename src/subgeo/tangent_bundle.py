"""Lifts of metrics, connections, and fields to the tangent bundle chart.

The bundle chart doubles the base coordinates: (x; u) with u the fiber
velocity.  Lifted objects are defined by frame rules (how they act on
vertical and horizontal lifts of base fields); the coordinate blocks
used here are derived from those rules and then machine-validated by
``defining_rule_residuals``, which is the oracle for every block.

Conventions: base connections are direction-first (nabla_{d_i} d_j =
Gamma^k_ij d_k) and the velocity contraction in the horizontal lift
sits in the direction slot, A^l_k = u^j Gamma^l_jk, which keeps
X^H = X^c - gamma(nabla X) an exact identity also for connections with
torsion.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .errors import ContractViolation
from .fields import (ChartedManifold, ConnectionField, DerivedMetric,
                     DualConnection, ExprField, MetricField, ScalarField, Space, _drop)
from .jets import Jet
from .results import (FAIL, INCONCLUSIVE, PASS, PREMISE_FACTOR, CheckResult, peak, sweep,
                      sweep_rows)
from .submersion import (CONDITIONS, SubmersionSetup, _cov_deriv, check_affine_hd,
                         check_semi_riemannian, four_conditions_at, four_conditions_details,
                         lemma_components, sweep_frames)


def _embed_matrix(mat, dim):
    return [[e.embed(dim) for e in row] for row in mat]


def _embed_tensor3(t, dim):
    return [[[e.embed(dim) for e in row] for row in mid] for mid in t]


def _zeros(n, dim, order):
    z = Jet.constant(0.0, dim, order)
    return [[z] * n for _ in range(n)]


class TangentBundle:
    """Chart, lifted metrics, and lifted connections over a base space."""

    def __init__(self, base: Space, name: str | None = None):
        self.base = base
        n = base.dim
        self.n = n
        box = tuple(base.chart.box) + tuple((-1.0, 1.0) for _ in range(n))
        self.chart = ChartedManifold(name or f"tangent:{base.chart.name}", 2 * n, box, bundle=True)
        self.sasaki_metric = DerivedMetric(2 * n, self._sasaki_blocks, "sasaki")
        self.complete_metric = DerivedMetric(2 * n, self._complete_blocks, "complete")
        self.horizontal_metric = DerivedMetric(2 * n, self._horizontal_blocks, "horizontal")
        self.complete_conn = CompleteLiftConnection(base.conn, n)
        self.horizontal_conn = HorizontalLiftConnection(base.conn, n)
        self.projection = [
            ExprField.parse(f"x{i+1}", 2 * n, bundle=True) for i in range(n)
        ]

    # -- shared jet ingredients -----------------------------------------

    def _parts(self, point, order):
        n = self.n
        x = tuple(point[:n])
        g = _embed_matrix(self.base.metric.matrix_jets(x, order), 2 * n)
        gamma = _embed_tensor3(self.base.conn.coeff_jets(x, order), 2 * n)
        u = [Jet.seed(point, n + i, order) if order else point[n + i] for i in range(n)]
        a = _velocity_matrix(u, gamma)
        return g, gamma, u, a

    def _sasaki_blocks(self, point, order):
        n = self.n
        g, _, _, a = self._parts(point, order)
        at_g = [[sum(a[l][i] * g[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]                       # (A^T g)_ij
        p = [[g[i][j] + sum(at_g[i][l] * a[l][j] for l in range(n))
              for j in range(n)] for i in range(n)]
        return _blocks(p, at_g, [[at_g[j][i] for j in range(n)] for i in range(n)], g)

    def _horizontal_blocks(self, point, order):
        n = self.n
        g, _, _, a = self._parts(point, order)
        ga = [[sum(g[i][l] * a[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        p = [[ga[j][i] + ga[i][j] for j in range(n)] for i in range(n)]
        z = _zeros(n, 2 * n, order)
        return _blocks(p, g, g, z)

    def _complete_blocks(self, point, order):
        n = self.n
        x = tuple(point[:n])
        base_g = self.base.metric.matrix_jets(x, order + 1)
        g = [[base_g[i][j].embed(2 * n) for j in range(n)] for i in range(n)]
        # careful: embed after dvar so orders line up
        u = [Jet.seed(point, n + i, order) if order else point[n + i] for i in range(n)]
        p = [[sum(u[k] * base_g[i][j].dvar(k).embed(2 * n) for k in range(n))
              for j in range(n)] for i in range(n)]
        g0 = [[_drop(g[i][j], order) for j in range(n)] for i in range(n)]
        z = _zeros(n, 2 * n, order)
        return _blocks(p, g0, g0, z)

    # -- spaces and submersions ------------------------------------------

    def space(self, metric: str = "sasaki", conn: str = "complete") -> Space:
        metrics = {
            "sasaki": self.sasaki_metric,
            "complete": self.complete_metric,
            "horizontal": self.horizontal_metric,
        }
        conns = {"complete": self.complete_conn, "horizontal": self.horizontal_conn}
        return Space(self.chart, metrics[metric], conns[conn])

    def submersion(self, metric: str = "sasaki", conn: str = "complete") -> SubmersionSetup:
        return SubmersionSetup(
            self.space(metric, conn), self.base, self.projection,
            phi=None, name=f"{self.chart.name}:{metric}:{conn}",
        )


def _velocity_matrix(u, gamma):
    """A^l_k = u^j Gamma^l_jk (direction-slot contraction)."""
    n = len(u)
    return [[sum(u[j] * gamma[l][j][k] for j in range(n)) for k in range(n)]
            for l in range(n)]


def _blocks(p, q, qt, s):
    n = len(p)
    out = []
    for i in range(n):
        out.append(list(p[i]) + list(q[i]))
    for i in range(n):
        out.append(list(qt[i]) + list(s[i]))
    return out


class CompleteLiftConnection(ConnectionField):
    """Coefficients of the complete lift of a base connection."""

    def __init__(self, base_conn: ConnectionField, n: int):
        super().__init__()
        self.base_conn = base_conn
        self.n = n
        self.dim = 2 * n

    def _coeffs(self, point, order):
        n = self.n
        x = tuple(point[:n])
        gamma1 = self.base_conn.coeff_jets(x, order + 1)
        ge = [[[gamma1[k][i][j].embed(2 * n) for j in range(n)] for i in range(n)]
              for k in range(n)]
        u = [Jet.seed(point, n + i, order) if order else point[n + i] for i in range(n)]
        zero = Jet.constant(0.0, 2 * n, order)
        out = [[[zero] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    coeff = _drop(ge[k][i][j], order)
                    out[k][i][j] = coeff
                    out[n + k][i][j] = sum(
                        u[l] * gamma1[k][i][j].dvar(l).embed(2 * n) for l in range(n)
                    )
                    out[n + k][i][n + j] = coeff
                    out[n + k][n + i][j] = coeff
        return out


class HorizontalLiftConnection(ConnectionField):
    """Coefficients of the horizontal lift of a base connection.

    Carries torsion u^k R^l_{k i j} whenever the base has curvature, so
    it is kept separate from the statistical checks' assumptions.
    """

    def __init__(self, base_conn: ConnectionField, n: int):
        super().__init__()
        self.base_conn = base_conn
        self.n = n
        self.dim = 2 * n

    def _coeffs(self, point, order):
        n = self.n
        x = tuple(point[:n])
        gamma1 = self.base_conn.coeff_jets(x, order + 1)
        ge = [[[_drop(gamma1[k][i][j].embed(2 * n), order) for j in range(n)]
               for i in range(n)] for k in range(n)]
        u = [Jet.seed(point, n + i, order) if order else point[n + i] for i in range(n)]
        zero = Jet.constant(0.0, 2 * n, order)
        out = [[[zero] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    out[l][i][j] = ge[l][i][j]
                    # u^m d_i Gamma^l_mj + u^k Gamma^m_kj Gamma^l_im
                    # - u^m Gamma^l_mk Gamma^k_ij
                    t1 = sum(
                        u[m] * gamma1[l][m][j].dvar(i).embed(2 * n)
                        for m in range(n)
                    )
                    t2 = sum(
                        u[k] * ge[m][k][j] * ge[l][i][m]
                        for k in range(n) for m in range(n)
                    )
                    t3 = sum(
                        u[m] * ge[l][m][k] * ge[k][i][j]
                        for m in range(n) for k in range(n)
                    )
                    out[n + l][i][j] = t1 + t2 - t3
                    out[n + l][i][n + j] = ge[l][i][j]
                    out[n + l][n + i][j] = ge[l][i][j]
        return out


# -- lifts of functions and vector fields ----------------------------------


def vertical_lift_function(f: ScalarField, n: int) -> ScalarField:
    """f^v = f comp pi as a field on the 2n-dim bundle chart."""
    from .fields import FuncField

    def fn(point, order):
        return f.jets(tuple(point[:n]), order).embed(2 * n)

    return FuncField(2 * n, fn, name="vertical_lift")


def complete_lift_function(f: ScalarField, n: int) -> ScalarField:
    """f^c = u^i df/dx^i as a field on the bundle chart."""
    from .fields import FuncField

    def fn(point, order):
        base = f.jets(tuple(point[:n]), order + 1)
        u = [Jet.seed(point, n + i, order) if order else point[n + i] for i in range(n)]
        return sum(u[i] * base.dvar(i).embed(2 * n) for i in range(n))

    return FuncField(2 * n, fn, name="complete_lift")


def vertical_lift_vector(components, point) -> np.ndarray:
    """X^v at (x; u): base components placed in the u-slots."""
    n = len(components)
    x = tuple(point[:n])
    out = np.zeros(2 * n)
    for i, c in enumerate(components):
        out[n + i] = c.value(x)
    return out


def complete_lift_vector(components, point) -> np.ndarray:
    """X^c = (X^i ; u^j dX^i/dx^j) at (x; u)."""
    n = len(components)
    x = tuple(point[:n])
    u = np.asarray(point[n:], dtype=float)
    out = np.zeros(2 * n)
    for i, c in enumerate(components):
        j = c.jets(x, 1)
        out[i] = j.value
        out[n + i] = float(u @ j.grad)
    return out


def gamma_operator(conn: ConnectionField, components, point) -> np.ndarray:
    """gamma(nabla X) = u^j (d_j X^i + Gamma^i_jk X^k) in the u-slots."""
    n = len(components)
    x = tuple(point[:n])
    u = np.asarray(point[n:], dtype=float)
    gamma = conn.values(x)
    xv = np.array([c.value(x) for c in components])
    dx = np.vstack([c.jets(x, 1).grad for c in components])  # [i, j] = d_j X^i
    out = np.zeros(2 * n)
    out[n:] = dx @ u + np.einsum("ijk,j,k->i", gamma, u, xv)
    return out


def horizontal_lift_bundle(conn: ConnectionField, components, point) -> np.ndarray:
    """X^H = X^c - gamma(nabla X)."""
    return complete_lift_vector(components, point) - gamma_operator(conn, components, point)


def _lift_field(kind, components, base_conn, point, n):
    """X^v / X^c / X^H for base field components, as a bundle field
    (value, d) with d[k, i] the k-th partial of component i."""
    if kind not in ("v", "c", "h"):
        raise ContractViolation(f"unknown lift kind {kind!r}")
    x = tuple(point[:n])
    zero = Jet.constant(0.0, 2 * n, 1)
    u = [Jet.seed(tuple(point), n + i, 1) for i in range(n)]
    comp2 = [c.jets(x, 2) for c in components]
    out = [zero] * (2 * n)
    if kind == "v":
        for i in range(n):
            out[n + i] = _drop(comp2[i], 1).embed(2 * n)
    else:
        for i in range(n):
            out[i] = _drop(comp2[i], 1).embed(2 * n)
            out[n + i] = sum(u[j] * comp2[i].dvar(j).embed(2 * n) for j in range(n))
    if kind == "h":
        # u-components: the dY terms of X^c and gamma cancel, leaving -u Gamma Y
        gamma1 = base_conn.coeff_jets(x, 1)
        for i in range(n):
            out[n + i] = -sum(
                u[j] * (gamma1[i][j][k].embed(2 * n) * _drop(comp2[k], 1).embed(2 * n))
                for j in range(n) for k in range(n))
    return np.array([j.value for j in out]), np.stack([j.grad for j in out], axis=1)


def _base_cov_field(base_conn, x_fields, y_fields, n):
    """nabla_X Y as base scalar fields (FuncField components)."""
    from .fields import FuncField

    def comp(k):
        def fn(point, order):
            xj = [f.jets(point, order) for f in x_fields]
            yj = [f.jets(point, order + 1) for f in y_fields]
            gamma = base_conn.coeff_jets(point, order)
            acc = Jet.constant(0.0, n, order)
            for i in range(n):
                acc = acc + xj[i] * yj[k].dvar(i)
                for j in range(n):
                    acc = acc + xj[i] * gamma[k][i][j] * _drop(yj[j], order)
            return acc
        return FuncField(n, fn, name=f"cov{k}")

    return [comp(k) for k in range(n)]


def _test_vector_fields(n: int):
    """Two deterministic polynomial fields exercising nonconstant terms."""
    xs = [f"x{i+1}" for i in range(n)]
    xfields = []
    yfields = []
    for i in range(n):
        a = xs[i % n]
        b = xs[(i + 1) % n]
        xfields.append(ExprField.parse(f"{0.4 + 0.1 * i} + 0.3*{a}*{b}", n))
        yfields.append(ExprField.parse(f"{0.6 - 0.1 * i} + 0.5*{b} - 0.2*{a}^2", n))
    return xfields, yfields


def defining_rule_residuals(bundle: TangentBundle, point, kind: str = "all") -> dict:
    """Residuals of the frame-rule definitions at one bundle point.

    This is the oracle for the coordinate blocks: every lifted metric
    and connection is tested against the rules that define it, using
    both coordinate frames and polynomial test fields.
    """
    n = bundle.n
    point = tuple(float(v) for v in point)
    x = tuple(point[:n])
    out = {}
    g = bundle.base.metric.values(x)
    gamma_b = bundle.base.conn.values(x)
    u = np.asarray(point[n:], dtype=float)
    a_mat = np.einsum("j,ljk->lk", u, gamma_b)
    eye = np.eye(n)
    h_cols = np.vstack([eye, -a_mat])       # column i = (d_i)^H
    v_cols = np.vstack([np.zeros((n, n)), eye])

    if kind in ("all", "sasaki"):
        gs = bundle.sasaki_metric.values(point)
        out["sasaki_hh"] = float(np.max(np.abs(h_cols.T @ gs @ h_cols - g)))
        out["sasaki_hv"] = float(np.max(np.abs(h_cols.T @ gs @ v_cols)))
        out["sasaki_vv"] = float(np.max(np.abs(v_cols.T @ gs @ v_cols - g)))
    if kind in ("all", "horizontal"):
        gh = bundle.horizontal_metric.values(point)
        out["horizontal_hh"] = float(np.max(np.abs(h_cols.T @ gh @ h_cols)))
        out["horizontal_hv"] = float(np.max(np.abs(h_cols.T @ gh @ v_cols - g)))
        out["horizontal_vv"] = float(np.max(np.abs(v_cols.T @ gh @ v_cols)))
    xf, yf = _test_vector_fields(n)
    if kind in ("all", "complete"):
        gc = bundle.complete_metric.values(point)
        dg = bundle.base.metric.partial_values(x)[1]
        c_cols = np.vstack([eye, np.zeros((n, n))])      # (d_i)^c
        out["complete_cc"] = float(np.max(np.abs(
            c_cols.T @ gc @ c_cols - np.einsum("k,kij->ij", u, dg))))
        out["complete_cv"] = float(np.max(np.abs(c_cols.T @ gc @ v_cols - g)))
        out["complete_vv"] = float(np.max(np.abs(v_cols.T @ gc @ v_cols)))
        # tensor rule with nonconstant fields: g^c(X^c, Y^c) = (g(X, Y))^c
        xc = complete_lift_vector(xf, point)
        yc = complete_lift_vector(yf, point)
        sxy = _metric_pairing_field(bundle.base.metric, xf, yf, n)
        rhs = complete_lift_function(sxy, n).value(point)
        out["complete_tensor_rule"] = abs(float(xc @ gc @ yc) - rhs)
    if kind in ("all", "complete_conn", "horizontal_conn"):
        covf = _base_cov_field(bundle.base.conn, xf, yf, n)
        xc = complete_lift_vector(xf, point)
        xv = vertical_lift_vector(xf, point)
        xh = horizontal_lift_bundle(bundle.base.conn, xf, point)
        yc = _lift_field("c", yf, bundle.base.conn, point, n)
        yv = _lift_field("v", yf, bundle.base.conn, point, n)
        yh = _lift_field("h", yf, bundle.base.conn, point, n)
        covc = complete_lift_vector(covf, point)
        covv = vertical_lift_vector(covf, point)
        covh = horizontal_lift_bundle(bundle.base.conn, covf, point)
        if kind in ("all", "complete_conn"):
            gam = bundle.complete_conn.values(point)
            out["cc_cc"] = float(np.max(np.abs(_cov_deriv(gam, xc, yc) - covc)))
            out["cc_cv"] = float(np.max(np.abs(_cov_deriv(gam, xc, yv) - covv)))
            out["cc_vc"] = float(np.max(np.abs(_cov_deriv(gam, xv, yc) - covv)))
            out["cc_vv"] = float(np.max(np.abs(_cov_deriv(gam, xv, yv))))
        if kind in ("all", "horizontal_conn"):
            gam = bundle.horizontal_conn.values(point)
            out["hc_hh"] = float(np.max(np.abs(_cov_deriv(gam, xh, yh) - covh)))
            out["hc_hv"] = float(np.max(np.abs(_cov_deriv(gam, xh, yv) - covv)))
            out["hc_vh"] = float(np.max(np.abs(_cov_deriv(gam, xv, yh))))
            out["hc_vv"] = float(np.max(np.abs(_cov_deriv(gam, xv, yv))))
    return out


def _metric_pairing_field(metric, x_fields, y_fields, n) -> ScalarField:
    from .fields import FuncField

    def fn(point, order):
        gj = metric.matrix_jets(point, order)
        xj = [f.jets(point, order) for f in x_fields]
        yj = [f.jets(point, order) for f in y_fields]
        acc = Jet.constant(0.0, n, order)
        for i in range(n):
            for j in range(n):
                acc = acc + gj[i][j] * xj[i] * yj[j]
        return acc

    return FuncField(n, fn, name="pairing")


def check_defining_rules(bundle: TangentBundle, points, tol) -> CheckResult:
    s = sweep(points, lambda p: defining_rule_residuals(bundle, p))
    return s.summarize("tb_defining_rules", tol, details=s.worst)


def prop41_check(bundle: TangentBundle, points, tol) -> CheckResult:
    """(TM, complete lift) over (M, nabla) is affine with lifted frames."""
    setup = bundle.submersion("sasaki", "complete")
    out = check_affine_hd(setup, points, tol)
    out.name = "prop41"
    return out


def prop42_check(bundle: TangentBundle, points, tol) -> CheckResult:
    """(TM, Sasaki metric) over (M, g) preserves horizontal lengths."""
    setup = bundle.submersion("sasaki", "complete")
    out = check_semi_riemannian(setup, points, tol)
    out.name = "prop42"
    return out


# the bundle components cst1..cst6 are the lemma components cs7..cs11, cs6
TM_COMPONENTS = {"cst1": "cs7", "cst2": "cs8", "cst3": "cs9",
                 "cst4": "cs10", "cst5": "cs11", "cst6": "cs6"}


def tm_statistical_check(bundle: TangentBundle, points, tol) -> CheckResult:
    """(TM, complete lift, Sasaki) statistical iff the four conditions.

    The verdicts on both sides may be pass or fail; the asserted content
    is their agreement.  Component residuals cst1..cst6 are reported.
    """
    setup = bundle.submersion("sasaki", "complete")

    def residuals(f):
        out = four_conditions_at(f)
        comp = lemma_components(f)
        out.update((k, comp[src]) for k, src in TM_COMPONENTS.items())
        return out

    keys = CONDITIONS + ("total_space",) + tuple(TM_COMPONENTS)
    s = sweep_frames(setup, points, residuals, keys=keys)
    details = four_conditions_details(s, tol)
    details.update((k, s.worst[k]) for k in TM_COMPONENTS)
    out = s.summarize("tm_statistical", tol, details, keys=CONDITIONS)
    if out.status != INCONCLUSIVE:
        out.status = PASS if details["biconditional_holds"] else FAIL
    return out


def remark_complete_check(bundle: TangentBundle, points, tol) -> CheckResult:
    """(TM, complete lift connection, complete lift metric) statistical."""
    space = bundle.space("complete", "complete")
    base = bundle.base

    def residuals(x):
        return {
            "premise": geometry.statistical_rows(base.metric, base.conn, x[:, :bundle.n]),
            "statistical": geometry.statistical_rows(space.metric, space.conn, x),
        }

    s = sweep_rows(points, 2 * bundle.n, residuals, keys=("premise", "statistical"))
    out = s.summarize("remark_complete_metric", tol, keys=("statistical",),
                      details={"premise_residual": s.worst["premise"]})
    if out.status != INCONCLUSIVE and s.worst["premise"] > PREMISE_FACTOR * tol:
        out.status = INCONCLUSIVE
        out.details["premise_failed"] = True
    return out


def remark_dual_check(bundle: TangentBundle, points, tol) -> CheckResult:
    """dual(complete lift nabla, complete lift g) = complete lift of dual(nabla, g)."""
    lifted_dual = DualConnection(bundle.complete_conn, bundle.complete_metric)
    dual_lifted = CompleteLiftConnection(
        DualConnection(bundle.base.conn, bundle.base.metric), bundle.n)
    s = sweep(points, lambda p: float(np.max(np.abs(lifted_dual.values(p) - dual_lifted.values(p)))))
    return s.summarize("remark_dual_complete", tol)


def remark_horizontal_check(bundle: TangentBundle, points, tol) -> CheckResult:
    """(TM, horizontal lift, Sasaki) statistical iff nabla g = 0 on the base.

    Reported as a biconditional: the two verdicts must agree.  On curved
    metric-compatible bases the horizontal lift acquires torsion from
    the curvature, so this applies to flat or non-compatible bases.
    """
    space = bundle.space("sasaki", "horizontal")
    base = bundle.base

    def residuals(x):
        nab_g = geometry.cubic_values(base.metric, base.conn, x[:, :bundle.n])
        return {"bundle": geometry.statistical_rows(space.metric, space.conn, x),
                "base": np.abs(nab_g).max(axis=(1, 2, 3))}

    s = sweep_rows(points, 2 * bundle.n, residuals, keys=("bundle", "base"))
    left, right = s.worst["bundle"], s.worst["base"]
    left_pass, right_pass = left <= tol, right <= tol
    return s.biconditional(
        "remark_horizontal", left, right, tol,
        details={"bundle_residual": left, "base_nabla_g": right,
                 "bundle_pass": left_pass, "base_metric_pass": right_pass},
        max_residual=peak((left, right)) if left_pass == right_pass else min(left, right),
    )


def complete_lift(entity, point, conn: ConnectionField | None = None) -> float | np.ndarray:
    """Value of the complete lift of a function, vector field, or metric."""
    n = len(point) // 2
    if isinstance(entity, ScalarField):
        return complete_lift_function(entity, n).value(tuple(point))
    if isinstance(entity, MetricField):
        x = tuple(point[:n])
        gj = entity.matrix_jets(x, 1)
        u = np.asarray(point[n:], dtype=float)
        g = np.array([[gj[i][j].value for j in range(n)] for i in range(n)])
        du = np.array([[float(u @ gj[i][j].grad) for j in range(n)] for i in range(n)])
        top = np.hstack([du, g])
        bot = np.hstack([g, np.zeros((n, n))])
        return np.vstack([top, bot])
    return complete_lift_vector(list(entity), point)
