"""Charted submersions with a metric-orthogonal horizontal distribution.

A setup couples a total space (M, g_M, nabla), a base space (B, g_B,
nabla*), the projection components, and an optional conformal factor
phi. Everything downstream (kernel bases, lifts, projectors, the
fundamental tensors T and A, the component identities, the
four-condition theorem) is evaluated pointwise from jets, so each
residual is an honest derivative computation rather than a symbolic
shortcut.

Vertical bases follow a fixed column-pivot pattern chosen at the box
center; horizontal spaces are the g_M-orthogonal complement of the
kernel. Every identity at a sample point reads one :class:`_PointFrame`,
built from the order-1 frame jets there and holding dpi and the
Christoffels of the total connection and its dual. Pointwise tensors
extend their vector arguments by constant coordinate components and
project with the frame's jet-valued projector fields, which makes the
results extension-independent up to solver noise. The setup caches
nothing per point: a frame lives as long as the residual computation
that built it.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import scipy.linalg

from . import geometry
from .errors import ContractViolation, EvalDomain, PremiseFailed, RankDrop, SingularMatrix
from .fields import ConnectionField, DualConnection, ScalarField, Space
from .jets import Jet
from .linalg import jet_matmul, jet_solve, jet_values, solve_linear
from .results import (FAIL, INCONCLUSIVE, PREMISE_FACTOR, CheckResult, Sweep, agree,
                      peak, sweep)

RANK_RTOL = 1e-10
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


class SubmersionSetup:
    def __init__(self, total: Space, base: Space, pi_fields, phi: ScalarField | None = None,
                 name: str = "submersion"):
        if len(pi_fields) != base.dim:
            raise ContractViolation(
                f"projection has {len(pi_fields)} components, base dimension is {base.dim}"
            )
        if base.dim > total.dim:
            raise ContractViolation("base dimension exceeds total dimension")
        self.total = total
        self.base = base
        self.pi = list(pi_fields)
        self.phi = phi
        self.name = name
        self._pivot = None
        self._dual_total = None
        self._dual_base = None

    # -- dimensions ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.total.dim

    @property
    def m(self) -> int:
        return self.base.dim

    @property
    def fiber_dim(self) -> int:
        return self.n - self.m

    # -- duals ---------------------------------------------------------

    @property
    def dual_total(self) -> ConnectionField:
        if self._dual_total is None:
            self._dual_total = DualConnection(self.total.conn, self.total.metric)
        return self._dual_total

    @property
    def dual_base(self) -> ConnectionField:
        if self._dual_base is None:
            self._dual_base = DualConnection(self.base.conn, self.base.metric)
        return self._dual_base

    # -- projection differentials ---------------------------------------

    def base_point(self, p) -> tuple:
        return tuple(f.value(p) for f in self.pi)

    def dpi_jets(self, p, order: int):
        comp = [f.jets(p, order + 1) for f in self.pi]
        return [[comp[a].dvar(i) for i in range(self.n)] for a in range(self.m)]

    def dpi_values(self, p) -> np.ndarray:
        return jet_values(self.dpi_jets(p, 0))

    def _finite_dpi(self, p) -> np.ndarray:
        """dpi values for a rank test, which cannot take NaN or inf."""
        a = self.dpi_values(p)
        if not np.isfinite(a).all():
            raise EvalDomain("projection differential is not finite", point=p)
        return a

    def rank_check(self, p) -> None:
        sv = np.linalg.svd(self._finite_dpi(p), compute_uv=False)
        if sv.size == 0 or sv[-1] <= RANK_RTOL * max(sv[0], 1.0):
            raise RankDrop("projection differential lost rank", point=tuple(p))

    def pivot_pattern(self):
        """(pivot_cols, free_cols) chosen once at the box center."""
        if self._pivot is None:
            self._pivot = self._pivot_at(self.total.chart.center())
        return self._pivot

    def _pivot_at(self, p):
        a = self._finite_dpi(p)
        _, r, perm = scipy.linalg.qr(a, pivoting=True)
        diag = np.abs(np.diag(r))
        if diag.size < self.m or diag[-1] <= RANK_RTOL * max(diag[0], 1.0):
            raise RankDrop("projection differential lost rank", point=tuple(p))
        piv = tuple(sorted(int(c) for c in perm[: self.m]))
        free = tuple(sorted(int(c) for c in perm[self.m:]))
        return piv, free

    # -- frames ----------------------------------------------------------

    def _frames(self, p, order: int) -> dict:
        """Jet matrices at p: ``dpi`` (m x n), ``kernel`` (n x l, columns
        spanning ker dpi), ``lift`` (n x m, column a the horizontal lift of
        e_a) and the projectors ``p_h``, ``p_v`` (n x n)."""
        p = tuple(float(x) for x in p)
        n, m, l = self.n, self.m, self.fiber_dim
        dpi = self.dpi_jets(p, order)
        zero = Jet.constant(0.0, n, order)
        one = Jet.constant(1.0, n, order)

        # kernel columns from the pivot pattern
        if l:
            piv, free = self.pivot_pattern()
            try:
                kernel = self._kernel_from(dpi, piv, free, zero, one)
            except SingularMatrix:
                warnings.warn("pivot pattern degenerated; re-pivoting at the point")
                piv, free = self._pivot_at(p)
                kernel = self._kernel_from(dpi, piv, free, zero, one)
        else:
            kernel = [[] for _ in range(n)]

        # horizontal: g-orthogonal complement, spanned by ginv dpi^T
        ginv = self.total.metric.inverse_jets(p, order)
        dpi_t = [[dpi[a][i] for a in range(m)] for i in range(n)]
        h = jet_matmul(ginv, dpi_t)                     # n x m
        dpi_h = jet_matmul(dpi, h)                      # m x m
        eye = [[one if a == b else zero for b in range(m)] for a in range(m)]
        lift = jet_matmul(h, jet_solve(dpi_h, eye))     # n x m
        p_h = jet_matmul(lift, dpi)                     # n x n
        p_v = [
            [(one if i == j else zero) - p_h[i][j] for j in range(n)]
            for i in range(n)
        ]
        return {"dpi": dpi, "kernel": kernel, "lift": lift, "p_h": p_h, "p_v": p_v}

    def _kernel_from(self, dpi, piv, free, zero, one):
        n, m = self.n, self.m
        a = [[dpi[r][c] for c in piv] for r in range(m)]
        rhs = [[-dpi[r][c] for c in free] for r in range(m)]
        sol = jet_solve(a, rhs)
        kernel = [[zero] * len(free) for _ in range(n)]
        for idx, c in enumerate(free):
            kernel[c][idx] = one
            for r, pc in enumerate(piv):
                kernel[pc][idx] = sol[r][idx]
        return kernel

    # -- conformal factor ------------------------------------------------

    def phi_jets(self, p, order: int):
        if self.phi is None:
            return Jet.constant(0.0, self.n, order)
        return self.phi.jets(p, order)

    def e2phi(self, p) -> float:
        return (2.0 * self.phi_jets(p, 0)).exp().value

    def dphi(self, p) -> np.ndarray:
        return self.phi_jets(p, 1).grad

    # -- fundamental tensors ------------------------------------------------

    def fundamental_T(self, f: _PointFrame, e, w, dual: bool = False) -> np.ndarray:
        """T_e w at the frame's point, w extended by projected constants;
        ``dual`` takes the dual total connection."""
        return _tensor_t(f, e, *f.extend(w), dual)

    def fundamental_A(self, f: _PointFrame, e, w, dual: bool = False) -> np.ndarray:
        """A_e w at the frame's point, as :meth:`fundamental_T`."""
        return _tensor_a(f, e, *f.extend(w), dual)

    # -- fibers ----------------------------------------------------------------

    def fiber_points(self, b, count: int, anchor=None):
        """Up to ``count`` points of the fiber over b, found by varying the
        free coordinates and Newton-solving the pivot coordinates."""
        if self.fiber_dim == 0:
            return [tuple(float(x) for x in b)] if count else []
        piv, free = self.pivot_pattern()
        box = self.total.chart.box
        start = list(anchor) if anchor is not None else list(self.total.chart.center())
        out = []
        for k in range(count):
            x = list(start)
            for j, c in enumerate(free):
                lo, hi = box[c]
                frac = 0.15 + 0.7 * ((0.5 + 0.6180339887498949 * k + 0.23 * j) % 1.0)
                x[c] = lo + frac * (hi - lo)
            pt = self._newton_fiber(x, b, piv)
            if pt is not None and self.total.chart.contains(pt):
                out.append(pt)
        return out

    def _newton_fiber(self, x, b, piv):
        b = np.asarray(b, dtype=float)
        x = list(x)
        for _ in range(NEWTON_MAX_ITER):
            res = np.array([f.value(x) for f in self.pi]) - b
            if np.max(np.abs(res)) <= NEWTON_TOL:
                return tuple(x)
            jac = self.dpi_values(x)[:, list(piv)]
            try:
                step = solve_linear(jac, -res)
            except SingularMatrix:
                return None
            for r, c in enumerate(piv):
                x[c] += step[r]
        return None


# -- field helpers -------------------------------------------------------------


def _linear_field(mat_jets, vec):
    """Jet components of the field sum_j M[:, j] vec_j (vec constant)."""
    vec = np.asarray(vec, dtype=float)
    out = []
    for row in mat_jets:
        acc = row[0] * float(vec[0])
        for j in range(1, len(vec)):
            acc = acc + row[j] * float(vec[j])
        out.append(acc)
    return out


def _column(mat_jets, c):
    return [row[c] for row in mat_jets]


def _cov_deriv(gamma, direction, field_jets) -> np.ndarray:
    """(nabla_d F)^k = d^i dF^k/dx^i + Gamma^k_ij d^i F^j, pointwise."""
    vals = np.array([j.value for j in field_jets])
    grads = np.vstack([j.grad for j in field_jets])
    return grads @ direction + np.einsum("kij,i,j->k", gamma, direction, vals)


def _bracket(u_jets, v_jets) -> np.ndarray:
    """[U, V]^k from order-1 field jets."""
    uv = np.array([j.value for j in u_jets])
    vv = np.array([j.value for j in v_jets])
    ug = np.vstack([j.grad for j in u_jets])
    vg = np.vstack([j.grad for j in v_jets])
    return vg @ uv - ug @ vv


def _scalar_grad(g_jets, a_jets, b_jets) -> np.ndarray:
    """Gradient of s(x) = g(A, B) from order-1 jets of all three."""
    n = len(a_jets)
    av = np.array([j.value for j in a_jets])
    bv = np.array([j.value for j in b_jets])
    ag = np.vstack([j.grad for j in a_jets])
    bg = np.vstack([j.grad for j in b_jets])
    gv = np.empty((n, n))
    dg = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            gv[i, j] = g_jets[i][j].value
            dg[:, i, j] = g_jets[i][j].grad
    return (
        np.einsum("ijk,j,k->i", dg, av, bv)
        + np.einsum("jk,ji,k->i", gv, ag, bv)
        + np.einsum("jk,j,ki->i", gv, av, bg)
    )


class _PointFrame:
    """Everything the submersion identities need at one sample point.

    It is built from one order-1 :meth:`SubmersionSetup._frames` call, and
    its float arrays (``dpi``, ``ph``, ``pv``, ``vcols``, ``lcols``) are the
    value parts of those jets.  ``gamma`` and ``gamma_dual`` are the
    Christoffels of the total connection and of its metric dual.
    """

    def __init__(self, setup: SubmersionSetup, p):
        self.setup = setup
        self.p = p = tuple(float(x) for x in p)
        total = setup.total
        frames = setup._frames(p, 1)
        self.ph_jets, self.pv_jets = frames["p_h"], frames["p_v"]
        self.ph = jet_values(self.ph_jets)
        self.pv = jet_values(self.pv_jets)
        self.kernel = frames["kernel"]
        self.lift = frames["lift"]
        self.vcols = jet_values(self.kernel) if setup.fiber_dim else np.zeros((setup.n, 0))
        self.lcols = jet_values(self.lift)
        self.dpi = jet_values(frames["dpi"])
        self.gamma = total.conn.values(p)
        self.gamma_dual = setup.dual_total.values(p)
        self.g = total.metric.values(p)
        self.g_jets = total.metric.matrix_jets(p, 1)
        self.cubic = geometry.nabla_g_values(
            *total.metric.partial_values(p), self.gamma
        )
        self.bp = setup.base_point(p)
        self.e2phi = setup.e2phi(p)
        self.dphi = setup.dphi(p)

    def kernel_col(self, a):
        return _column(self.kernel, a)

    def lift_col(self, a):
        return _column(self.lift, a)

    def s_value(self, v, x):
        """S_v x = nabla_v X - dual-nabla_v X for constant extensions."""
        return np.einsum("kij,i,j->k", self.gamma - self.gamma_dual, v, x)

    def cov(self, direction, field_jets, dual=False):
        return _cov_deriv(self.gamma_dual if dual else self.gamma, direction, field_jets)

    def extend(self, w):
        """(P_V W, P_H W) as order-1 field jets, W the constant extension of w."""
        return _linear_field(self.pv_jets, w), _linear_field(self.ph_jets, w)

    def fiber_cubic(self, a, b, c) -> float:
        """(hat-nabla_{V_a} hat-g)(V_b, V_c) using the kernel frame fields."""
        u = self.vcols[:, a]
        vb = self.kernel_col(b)
        wc = self.kernel_col(c)
        grad_s = _scalar_grad(self.g_jets, vb, wc)
        term1 = float(grad_s @ u)
        dvb = self.pv @ self.cov(u, vb)
        dwc = self.pv @ self.cov(u, wc)
        vbv = self.vcols[:, b]
        wcv = self.vcols[:, c]
        return term1 - float(dvb @ self.g @ wcv) - float(vbv @ self.g @ dwc)


def _tensor_t(f: _PointFrame, e, w_v, w_h, dual=False) -> np.ndarray:
    """T_e W = H nabla_{Ve} (VW) + V nabla_{Ve} (HW) from the projected
    field jets (w_v, w_h) of W."""
    ve = f.pv @ np.asarray(e, dtype=float)
    return f.ph @ f.cov(ve, w_v, dual) + f.pv @ f.cov(ve, w_h, dual)


def _tensor_a(f: _PointFrame, e, w_v, w_h, dual=False) -> np.ndarray:
    """A_e W = V nabla_{He} (HW) + H nabla_{He} (VW), as :func:`_tensor_t`."""
    he = f.ph @ np.asarray(e, dtype=float)
    return f.pv @ f.cov(he, w_h, dual) + f.ph @ f.cov(he, w_v, dual)


def lemma_components(f: _PointFrame) -> dict:
    """Max residual of each of the six component identities at the frame's point.

    Keys cs6..cs11; vacuous entries (no vertical directions) report 0.
    """
    setup = f.setup
    m, l = setup.m, setup.fiber_dim

    # cs6: horizontal cubic matches the conformally scaled base cubic
    base_cubic = geometry.cubic_values(setup.base.metric, setup.base.conn, f.bp)
    lifted = np.einsum(
        "ijk,ic,ja,kb->cab", f.cubic, f.lcols, f.lcols, f.lcols
    )
    cs6 = float(np.max(np.abs(lifted - f.e2phi * base_cubic)))

    r7, r8, r9, r10, r11 = [], [], [], [], []
    for vi in range(l):
        v = f.vcols[:, vi]
        for a in range(m):
            x = f.lcols[:, a]
            sv_x = f.s_value(v, x)
            t_vx = setup.fundamental_T(f, v, x)
            t_vx_d = setup.fundamental_T(f, v, x, dual=True)
            for b in range(m):
                y = f.lcols[:, b]
                r7.append(abs(float(np.einsum("ijk,i,j,k->", f.cubic, v, x, y) + sv_x @ f.g @ y)))
            a_xv = setup.fundamental_A(f, x, v)
            a_xv_d = setup.fundamental_A(f, x, v, dual=True)
            s_xv = f.s_value(x, v)
            for b in range(m):
                y = f.lcols[:, b]
                r8.append(abs(float(
                    np.einsum("ijk,i,j,k->", f.cubic, x, v, y)
                    + a_xv @ f.g @ y
                    - a_xv_d @ f.g @ y
                )))
            for wi in range(l):
                w = f.vcols[:, wi]
                r9.append(abs(float(np.einsum("ijk,i,j,k->", f.cubic, x, v, w) + s_xv @ f.g @ w)))
                r10.append(abs(float(
                    np.einsum("ijk,i,j,k->", f.cubic, v, x, w)
                    + t_vx @ f.g @ w
                    - t_vx_d @ f.g @ w
                )))
    for ui in range(l):
        u = f.vcols[:, ui]
        for vi in range(l):
            for wi in range(l):
                r11.append(abs(float(
                    np.einsum(
                        "ijk,i,j,k->", f.cubic, u, f.vcols[:, vi], f.vcols[:, wi]
                    )
                    - f.fiber_cubic(ui, vi, wi)
                )))
    return {"cs6": cs6, "cs7": peak(r7), "cs8": peak(r8), "cs9": peak(r9),
            "cs10": peak(r10), "cs11": peak(r11)}


LEMMA_KEYS = ("cs6", "cs7", "cs8", "cs9", "cs10", "cs11")


def check_lemma_components(setup, points, tol) -> CheckResult:
    s = sweep(points, lambda p: lemma_components(_PointFrame(setup, p)), keys=LEMMA_KEYS)
    return s.summarize("lemma_components", tol, details=dict(sorted(s.worst.items())))


CONDITIONS = ("condition1", "condition2", "condition3", "condition4")


def four_conditions_at(f: _PointFrame) -> dict:
    """The four statisticity conditions at a frame's point, plus the
    direct statisticity residual of the total space there."""
    setup = f.setup
    l, m = setup.fiber_dim, setup.m
    r1, r2, r3 = [], [], []
    for vi in range(l):
        v = f.vcols[:, vi]
        for a in range(m):
            x = f.lcols[:, a]
            c1 = f.ph @ f.s_value(v, x) - (
                setup.fundamental_A(f, x, v) - setup.fundamental_A(f, x, v, dual=True)
            )
            r1.append(float(np.max(np.abs(c1))))
            c2 = f.pv @ f.s_value(x, v) - (
                setup.fundamental_T(f, v, x) - setup.fundamental_T(f, v, x, dual=True)
            )
            r2.append(float(np.max(np.abs(c2))))
    # condition 3: the fibers are statistical
    for a in range(l):
        ua = f.vcols[:, a]
        for b in range(l):
            tor = (
                f.pv @ f.cov(ua, f.kernel_col(b))
                - f.pv @ f.cov(f.vcols[:, b], f.kernel_col(a))
                - _bracket(f.kernel_col(a), f.kernel_col(b))
            )
            r3.append(float(np.max(np.abs(tor))))
            for c in range(l):
                r3.append(abs(f.fiber_cubic(a, b, c) - f.fiber_cubic(b, a, c)))
    return {
        "condition1": peak(r1),
        "condition2": peak(r2),
        "condition3": peak(r3),
        "condition4": geometry.statistical_residual(setup.base.metric, setup.base.conn, f.bp),
        "total_space": geometry.statistical_residual(setup.total.metric, setup.total.conn, f.p),
    }


def four_conditions_details(s: Sweep, tol) -> dict:
    """Per-condition maxima and both verdicts of the four-condition theorem."""
    details = {k: s.worst[k] for k in CONDITIONS}
    conditions_max = peak(details.values())
    direct = s.worst["total_space"]
    details["total_space_residual"] = direct
    details["conditions_pass"] = conditions_max <= tol
    details["total_space_pass"] = direct <= tol
    details["biconditional_holds"] = agree(conditions_max, direct, tol)
    return details


def four_conditions_check(setup: SubmersionSetup, points, tol) -> CheckResult:
    """The four statisticity conditions plus the biconditional against a
    direct statisticity check of the total space."""
    s = sweep(points, lambda p: four_conditions_at(_PointFrame(setup, p)),
              keys=CONDITIONS + ("total_space",))
    details = four_conditions_details(s, tol)
    out = s.summarize("four_conditions", tol, details, keys=CONDITIONS)
    if out.status != INCONCLUSIVE and not details["biconditional_holds"]:
        out.status = FAIL
    return out


def gauss_weingarten_residuals(f: _PointFrame) -> dict:
    """Residuals of the four decomposition identities for frame fields."""
    setup = f.setup
    l, m = setup.fiber_dim, setup.m
    vv, vh, hv, hh = [], [], [], []
    for a in range(l):
        va = f.vcols[:, a]
        for b in range(l):
            full = f.cov(va, f.kernel_col(b))
            r = full - setup.fundamental_T(f, va, f.vcols[:, b]) - f.pv @ full
            vv.append(float(np.max(np.abs(r))))
        for b in range(m):
            full = f.cov(va, f.lift_col(b))
            r = full - f.ph @ full - setup.fundamental_T(f, va, f.lcols[:, b])
            vh.append(float(np.max(np.abs(r))))
    for a in range(m):
        xa = f.lcols[:, a]
        for b in range(l):
            full = f.cov(xa, f.kernel_col(b))
            r = full - f.pv @ full - setup.fundamental_A(f, xa, f.vcols[:, b])
            hv.append(float(np.max(np.abs(r))))
        for b in range(m):
            full = f.cov(xa, f.lift_col(b))
            r = full - f.ph @ full - setup.fundamental_A(f, xa, f.lcols[:, b])
            hh.append(float(np.max(np.abs(r))))
    return {"vert_vert": peak(vv), "vert_horiz": peak(vh),
            "horiz_vert": peak(hv), "horiz_horiz": peak(hh)}


def check_gauss_weingarten(setup, points, tol) -> CheckResult:
    s = sweep(points, lambda p: gauss_weingarten_residuals(_PointFrame(setup, p)))
    return s.summarize("gauss_weingarten", tol, details=s.worst)


def check_split_identities(setup, points, tol) -> CheckResult:
    """P_H + P_V = I, dpi P_V = 0, dpi L = I at every sample."""
    eye_n = np.eye(setup.n)
    eye_m = np.eye(setup.m)

    def at(p):
        setup.rank_check(p)
        f = _PointFrame(setup, p)
        parts = [f.ph + f.pv - eye_n, f.dpi @ f.pv, f.dpi @ f.lcols - eye_m]
        if setup.fiber_dim:
            parts.append(f.dpi @ f.vcols)
        return peak(float(np.max(np.abs(r))) for r in parts)

    return sweep(points, at).summarize("split_identities", tol)


def check_tensoriality(setup, points, tol) -> CheckResult:
    """T and A agree across two different extensions of their arguments."""
    n = setup.n
    # scale the extension by a scalar field equal to 1 at p
    s = Jet(n, 1, 1.0, np.ones(n) * 0.7, None, None)

    def at(p):
        f = _PointFrame(setup, p)
        probes = []
        if setup.fiber_dim:
            probes.append((f.vcols[:, 0], f.lcols[:, 0]))
            probes.append((f.vcols[:, 0], f.vcols[:, -1]))
        probes.append((f.lcols[:, 0], f.lcols[:, -1]))
        r = []
        for e, w in probes:
            w_v, w_h = f.extend(w)
            scaled = ([s * j for j in w_v], [s * j for j in w_h])
            for tensor in (_tensor_t, _tensor_a):
                r.append(float(np.max(np.abs(tensor(f, e, w_v, w_h) - tensor(f, e, *scaled)))))
        return peak(r)

    return sweep(points, at).summarize("tensoriality", tol)


def check_semi_riemannian(setup, points, tol) -> CheckResult:
    """Horizontal lengths preserved and fiber metric nondegenerate."""

    def at(p):
        f = _PointFrame(setup, p)
        gb = setup.base.metric.values(f.bp)
        lengths = float(np.max(np.abs(f.lcols.T @ f.g @ f.lcols - gb)))
        if setup.fiber_dim:
            try:
                solve_linear(f.vcols.T @ f.g @ f.vcols, np.eye(setup.fiber_dim))
            except SingularMatrix:
                return {"lengths": lengths, "degenerate": math.inf}
        return {"lengths": lengths, "degenerate": 0.0}

    s = sweep(points, at, keys=("lengths", "degenerate"))
    return s.summarize("semi_riemannian", tol,
                       details={"fiber_metric_degenerate": s.worst["degenerate"] == math.inf})


def check_conformal_metric(setup, points, tol) -> CheckResult:
    """g_M on horizontal lifts equals e^{2 phi} g_B."""

    def at(p):
        f = _PointFrame(setup, p)
        gb = setup.base.metric.values(f.bp)
        return float(np.max(np.abs(f.lcols.T @ f.g @ f.lcols - f.e2phi * gb)))

    return sweep(points, at).summarize("conformal_metric", tol)


def conformal_defect(f: _PointFrame, dual: bool = False) -> float:
    """Worst defect, over the base coordinate-frame triples (x, y, z), of the
    defining relation for conformal submersions with horizontal distribution
    at the frame's point; ``dual`` takes the duals of both connections."""
    setup = f.setup
    gamma = f.gamma_dual if dual else f.gamma
    gb = setup.base.metric.values(f.bp)
    gamma_b = (setup.dual_base if dual else setup.base.conn).values(f.bp)
    defects = []
    for x, y, z in itertools.product(np.eye(setup.m), repeat=3):
        xt = f.lcols @ x
        yt = f.lcols @ y
        zt = f.lcols @ z
        push = f.dpi @ _cov_deriv(gamma, xt, _linear_field(f.lift, y))
        nab_base = np.einsum("kab,a,b->k", gamma_b, x, y)
        defects.append(abs(float(
            push @ gb @ z
            - nab_base @ gb @ z
            + (f.dphi @ zt) * (x @ gb @ y)
            - (f.dphi @ xt) * (y @ gb @ z)
            - (f.dphi @ yt) * (z @ gb @ x)
        )))
    return peak(defects)


def check_conformal_hd(setup, points, tol) -> CheckResult:
    """Max conformal defect at each sample."""
    return sweep(points, lambda p: conformal_defect(_PointFrame(setup, p))).summarize(
        "conformal_hd", tol)


def check_affine_hd(setup, points, tol) -> CheckResult:
    """H(nabla_{X~} Y~) equals the lift of nabla*_X Y for frame fields."""

    def at(p):
        f = _PointFrame(setup, p)
        gamma_b = setup.base.conn.values(f.bp)
        r = []
        for a in range(setup.m):
            xt = f.lcols[:, a]
            for b in range(setup.m):
                nab = f.cov(xt, f.lift_col(b))
                lifted = f.lcols @ gamma_b[:, a, b]
                r.append(float(np.max(np.abs(f.ph @ nab - lifted))))
        return peak(r)

    return sweep(points, at).summarize("affine_hd", tol)


def check_dual_conformal_pair(setup, points, tol) -> CheckResult:
    """The defining relation holds for (nabla, nabla*) iff it holds for
    their metric duals; evaluated as two residual suites."""

    def at(p):
        f = _PointFrame(setup, p)
        return {"primal": conformal_defect(f), "dual": conformal_defect(f, dual=True)}

    s = sweep(points, at, keys=("primal", "dual"))
    r_primal, r_dual = s.worst["primal"], s.worst["dual"]
    return s.biconditional("dual_conformal_pair", r_primal, r_dual, tol,
                           details={"primal_max": r_primal, "dual_max": r_dual})


def induced_structures(f: _PointFrame):
    """(g~, Gamma') induced on the base, evaluated at the frame's point."""
    m = f.setup.m
    g_ind = f.lcols.T @ f.g @ f.lcols
    gamma_ind = np.empty((m, m, m))
    for b in range(m):
        for c in range(m):
            gamma_ind[:, b, c] = f.dpi @ f.cov(f.lcols[:, b], f.lift_col(c))
    return g_ind, gamma_ind


def check_projectable(setup, points, tol) -> CheckResult:
    """pi_*(H(nabla_{X~} Y~)) agrees across points of the same fiber."""
    if setup.fiber_dim == 0:
        # singleton fibers: nothing to vary, pass by convention
        return sweep(points, lambda p: 0.0).summarize("projectable", tol)
    n_base = max(1, math.ceil(len(points) / 16))
    per_fiber = max(2, math.ceil(len(points) / (4 * n_base)))

    def at(p):
        fpts = setup.fiber_points(setup.base_point(p), per_fiber, anchor=p)
        if len(fpts) < 2:
            raise PremiseFailed(f"found {len(fpts)} of {per_fiber} points on the fiber")
        gammas = [induced_structures(_PointFrame(setup, q))[1] for q in fpts]
        return peak(float(np.max(np.abs(q_gamma - gammas[0]))) for q_gamma in gammas[1:])

    return sweep(points[:n_base], at).summarize("projectable", tol)


def theorem21_verify(setup: SubmersionSetup, points, tol) -> CheckResult:
    """Induced base structure of a statistical total space is statistical.

    Derivatives of the induced metric are taken through the lift fields
    (basic-field identity), so no base-space expression for g~ is needed.
    Also checks the underlying identity
    (nabla'_X g~)(Y, Z) = (nabla_{X~} g_M)(Y~, Z~).
    """
    m = setup.m

    def at(p):
        f = _PointFrame(setup, p)
        premise = geometry.statistical_residual(setup.total.metric, setup.total.conn, p)
        g_ind, gamma_ind = induced_structures(f)
        dg_ind = np.empty((m, m, m))
        for a in range(m):
            for b in range(m):
                grad_s = _scalar_grad(f.g_jets, f.lift_col(a), f.lift_col(b))
                for c in range(m):
                    dg_ind[c, a, b] = grad_s @ f.lcols[:, c]
        cubic_ind = geometry.nabla_g_values(g_ind, dg_ind, gamma_ind)
        tor = geometry.torsion_values(gamma_ind)
        lifted = np.einsum("ijk,ic,ja,kb->cab", f.cubic, f.lcols, f.lcols, f.lcols)
        return {
            "premise": premise,
            "statistical": peak((
                float(np.max(np.abs(tor))),
                float(np.max(np.abs(cubic_ind - np.transpose(cubic_ind, (1, 0, 2))))),
            )),
            "identity": float(np.max(np.abs(cubic_ind - lifted))),
        }

    s = sweep(points, at, keys=("premise", "statistical", "identity"))
    out = s.summarize("induced_statistical", tol, keys=("statistical", "identity"),
                      details={"premise_residual": s.worst["premise"],
                               "proof_identity_residual": s.worst["identity"]})
    if out.status != INCONCLUSIVE and s.worst["premise"] > PREMISE_FACTOR * tol:
        out.status = INCONCLUSIVE
        out.details["premise_failed"] = True
    return out
