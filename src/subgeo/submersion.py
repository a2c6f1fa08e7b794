"""Charted submersions with a metric-orthogonal horizontal distribution.

A setup couples a total space (M, g_M, nabla), a base space (B, g_B,
nabla*), the projection components, and an optional conformal factor
phi. Everything downstream (kernel bases, lifts, projectors, the
fundamental tensors T and A, the component identities, the
four-condition theorem) is evaluated from derivatives at the sample
points, so each residual is an honest derivative computation rather
than a symbolic shortcut.

Vertical bases follow a fixed column-pivot pattern chosen at the box
center; horizontal spaces are the g_M-orthogonal complement of the
kernel. A check builds the frames of all its points in one batch
(:meth:`SubmersionSetup._frames`): numpy arrays with a leading point
axis, derivatives propagated by the product rule and
d(A^-1) = -A^-1 dA A^-1. Every identity at a sample point reads one
:class:`_PointFrame`, a row of that batch holding dpi, the kernel and
lift columns and the projectors with their first partials, the
Christoffels of the total connection and of its dual, and the base
structure at the projected point. Pointwise tensors extend their vector
arguments by constant coordinate components and project with the
frame's projector fields, which makes the results extension-independent
up to solver noise. The setup caches nothing per point: a batch lives
as long as the check that built it.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import scipy.linalg

from . import geometry
from .errors import (ContractViolation, EvalDomain, PremiseFailed, RankDrop, SingularMatrix,
                     SubgeoError)
from .fields import ScalarField, Space, _dual, _FieldStack
from .linalg import jet_values, solve_linear
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
        self._pi_stack = _FieldStack(self.pi, total.dim)

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

    # -- projection differentials ---------------------------------------

    def base_point(self, p) -> tuple:
        return tuple(f.value(p) for f in self.pi)

    def dpi_jets(self, p, order: int):
        comp = [f.jets(p, order + 1) for f in self.pi]
        return [[comp[a].dvar(i) for i in range(self.n)] for a in range(self.m)]

    def dpi_values(self, p) -> np.ndarray:
        return jet_values(self.dpi_jets(p, 0))

    def rank_check(self, p) -> None:
        _rank_test(np.array([p], dtype=float), self.dpi_values(p)[None])

    def pivot_pattern(self):
        """(pivot_cols, free_cols) chosen once at the box center."""
        if self._pivot is None:
            self._pivot = self._pivot_at(self.total.chart.center())
        return self._pivot

    def _pivot_at(self, p):
        a = self.dpi_values(p)
        if not np.isfinite(a).all():  # the QR pivoting cannot take NaN or inf
            raise EvalDomain("projection differential is not finite", point=p)
        _, r, perm = scipy.linalg.qr(a, pivoting=True)
        diag = np.abs(np.diag(r))
        if diag.size < self.m or diag[-1] <= RANK_RTOL * max(diag[0], 1.0):
            raise RankDrop("projection differential lost rank", point=tuple(p))
        piv = tuple(sorted(int(c) for c in perm[: self.m]))
        free = tuple(sorted(int(c) for c in perm[self.m:]))
        return piv, free

    # -- frames ----------------------------------------------------------

    def _frames(self, points, rank_test: bool) -> _FrameBatch:
        """The frames at a stack of points (N, n), built together.

        With ``rank_test`` a point where dpi is not finite or loses rank
        fails before its frame is built.  When the batch raises a
        :class:`SubgeoError`, each row is built alone: the failing points
        keep their own errors and the others get exactly what the batch
        gives them.
        """
        points = np.asarray(points, dtype=float).reshape(len(points), self.n)
        try:
            return _FrameBatch(self, points, self._frame_arrays(points, rank_test))
        except SubgeoError:
            pass
        good, parts, errors = [], [], {}
        for row in range(len(points)):
            try:
                parts.append(self._frame_arrays(points[row:row + 1], rank_test))
                good.append(row)
            except SubgeoError as exc:
                errors[tuple(points[row].tolist())] = exc
        arrays = {k: np.concatenate([part[k] for part in parts])
                  for k in (parts[0] if parts else ())}
        return _FrameBatch(self, points[good], arrays, errors)

    def _frame_arrays(self, x, rank_test: bool) -> dict:
        """The :class:`_PointFrame` arrays at points x (N, n), each with a
        leading point axis; raises the first error of any row."""
        n = self.n
        bp, dpi_t, hess = self._pi_stack(x, 2)
        dpi = np.swapaxes(dpi_t, 1, 2)                  # (N, m, n)
        d_dpi = np.moveaxis(hess, 3, 2)                 # [p, k, a, i] = d_k d_i pi_a
        if rank_test:
            _rank_test(x, dpi)

        # kernel columns from the pivot pattern
        if self.fiber_dim:
            piv, free = self.pivot_pattern()
            try:
                kernel, d_kernel = _kernel(dpi, d_dpi, piv, free)
            except SingularMatrix:
                if len(x) > 1:
                    raise
                warnings.warn("pivot pattern degenerated; re-pivoting at the point")
                kernel, d_kernel = _kernel(dpi, d_dpi, *self._pivot_at(x[0]))
        else:
            kernel, d_kernel = np.zeros((len(x), n, 0)), np.zeros((len(x), n, n, 0))

        # horizontal: g-orthogonal complement, spanned by h = ginv dpi^T
        g, dg = self.total.metric.batch(x)             # dg[p, k] = d_k g
        ginv = _inverse(g)
        d_ginv = -(ginv[:, None] @ dg @ ginv[:, None])
        h = ginv @ dpi_t                                # (N, n, m)
        d_h = d_ginv @ dpi_t[:, None] + ginv[:, None] @ np.swapaxes(d_dpi, 2, 3)
        dpi_h = dpi @ h                                 # (N, m, m)
        inv = _inverse(dpi_h)
        d_inv = -(inv[:, None] @ (d_dpi @ h[:, None] + dpi[:, None] @ d_h) @ inv[:, None])
        lift = h @ inv                                  # (N, n, m)
        d_lift = d_h @ inv[:, None] + h[:, None] @ d_inv
        p_h = lift @ dpi                                # (N, n, n)
        d_ph = d_lift @ dpi[:, None] + lift[:, None] @ d_dpi

        gamma = self.total.conn.batch(x)
        e2phi, dphi = np.ones(len(x)), np.zeros((len(x), n))
        if self.phi is not None:
            phi, dphi = self.phi.batch(x)
            e2phi = np.exp(2.0 * phi)
            bad = np.isinf(e2phi) & np.isfinite(phi)
            if bad.any():
                raise EvalDomain("floating-point error (math range error)",
                                 x[int(np.argmax(bad))])
        g_b, dg_b = self.base.metric.batch(bp)
        gamma_b = self.base.conn.batch(bp)
        return {
            "dpi": dpi, "ph": p_h, "pv": np.eye(n) - p_h, "d_ph": d_ph, "d_pv": -d_ph,
            "vcols": kernel, "d_vcols": d_kernel, "lcols": lift, "d_lcols": d_lift,
            "gamma": gamma, "gamma_dual": _dual(g, dg, gamma),
            "g": g, "dg": dg, "cubic": geometry.nabla_g_values(g, dg, gamma),
            "e2phi": e2phi, "dphi": dphi, "bp": bp,
            "gb": g_b, "gamma_b": gamma_b, "gamma_b_dual": _dual(g_b, dg_b, gamma_b),
            "cubic_b": geometry.nabla_g_values(g_b, dg_b, gamma_b),
        }

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


# -- batch helpers -------------------------------------------------------------


def _inverse(a) -> np.ndarray:
    """Inverses of a stack of square matrices (N, k, k)."""
    return solve_linear(a, np.broadcast_to(np.eye(a.shape[-1]), a.shape))


def _rank_test(points, dpi) -> None:
    """Raise for the first row of dpi (N, m, n) that is not finite
    (EvalDomain) or whose smallest singular value is at or below
    RANK_RTOL * max(largest, 1) (RankDrop), from one stacked SVD."""
    finite = np.isfinite(dpi).all(axis=(1, 2))
    sv = np.linalg.svd(np.where(finite[:, None, None], dpi, 0.0), compute_uv=False)
    bad = ~finite | (sv[:, -1] <= RANK_RTOL * np.maximum(sv[:, 0], 1.0))
    if bad.any():
        row = int(np.argmax(bad))
        if not finite[row]:
            raise EvalDomain("projection differential is not finite", point=points[row])
        raise RankDrop("projection differential lost rank", point=points[row])


def _kernel(dpi, d_dpi, piv, free):
    """Kernel columns (N, n, l) of dpi (N, m, n) and their partials
    (N, n, n, l): free column c is e_c plus the pivot coordinates that
    keep it in the kernel."""
    piv, free = list(piv), list(free)
    ainv = _inverse(dpi[:, :, piv])
    sol = -(ainv @ dpi[:, :, free])
    d_sol = -(ainv[:, None] @ (d_dpi[:, :, :, free] + d_dpi[:, :, :, piv] @ sol[:, None]))
    npts, n = dpi.shape[0], dpi.shape[2]
    kernel = np.zeros((npts, n, len(free)))
    d_kernel = np.zeros((npts, n, n, len(free)))
    kernel[:, free, range(len(free))] = 1.0
    kernel[:, piv] = sol
    d_kernel[:, :, piv] = d_sol
    return kernel, d_kernel


class _FrameBatch:
    """The frames at a stack of points: ``arrays`` maps each
    :class:`_PointFrame` attribute to an array with one row per point that
    evaluated, and ``errors`` each point that did not to its error."""

    def __init__(self, setup: SubmersionSetup, points, arrays: dict, errors=None):
        self.setup = setup
        self.arrays = arrays
        self.rows = {p: row for row, p in enumerate(map(tuple, points.tolist()))}
        self.errors = errors or {}


# -- field helpers -------------------------------------------------------------
#
# A vector field near a point is the pair (value (n,), d (n, n)) with
# d[k, i] the k-th partial of component i, the derivative index first as
# in the frame arrays.


def _linear_field(mat, d_mat, vec):
    """The field sum_j M[:, j] vec_j (vec constant) from M and its partials."""
    vec = np.asarray(vec, dtype=float)
    return mat @ vec, d_mat @ vec


def _cov_deriv(gamma, direction, field) -> np.ndarray:
    """(nabla_d F)^k = d^i dF^k/dx^i + Gamma^k_ij d^i F^j, pointwise."""
    value, d = field
    return direction @ d + np.einsum("kij,i,j->k", gamma, direction, value)


def _bracket(u, v) -> np.ndarray:
    """[U, V]^k = U^i d_i V^k - V^i d_i U^k."""
    return u[0] @ v[1] - v[0] @ u[1]


def _scalar_grad(g, dg, a, b) -> np.ndarray:
    """Gradient of s(x) = g(A, B) from the metric g, its partials
    dg[i, j, k] = d_i g_jk, and the fields A and B."""
    (av, ad), (bv, bd) = a, b
    return np.einsum("ijk,j,k->i", dg, av, bv) + ad @ (g @ bv) + bd @ (av @ g)


class _PointFrame:
    """Everything the submersion identities need at one sample point, as
    one row of a frame batch (:meth:`SubmersionSetup._frames`).

    Values: ``dpi`` (m x n); the projectors ``ph``, ``pv`` (n x n); the
    kernel columns ``vcols`` (n x l) and lift columns ``lcols`` (n x m);
    the Christoffels ``gamma`` and ``gamma_dual`` of the total connection
    and of its metric dual; the metric ``g``, its partials ``dg`` and its
    cubic form ``cubic``; ``e2phi`` and ``dphi``; the base point ``bp``
    and, there, the base metric ``gb``, Christoffels ``gamma_b`` and
    ``gamma_b_dual`` and cubic form ``cubic_b``.  ``d_ph``, ``d_pv``,
    ``d_vcols`` and ``d_lcols`` hold the partials of their arrays, the
    derivative index first as in ``dg``.  Built from a setup instead of a
    batch, it is the one-row batch at p.
    """

    def __init__(self, frames, p):
        if isinstance(frames, SubmersionSetup):
            frames = frames._frames([p], False)
        self.setup = frames.setup
        self.p = p = tuple(float(x) for x in p)
        if p in frames.errors:
            raise frames.errors[p]
        row = frames.rows[p]
        for name, values in frames.arrays.items():
            setattr(self, name, values[row])

    def kernel_col(self, a):
        return self.vcols[:, a], self.d_vcols[:, :, a]

    def lift_col(self, a):
        return self.lcols[:, a], self.d_lcols[:, :, a]

    def s_value(self, v, x):
        """S_v x = nabla_v X - dual-nabla_v X for constant extensions."""
        return np.einsum("kij,i,j->k", self.gamma - self.gamma_dual, v, x)

    def cov(self, direction, field, dual=False):
        return _cov_deriv(self.gamma_dual if dual else self.gamma, direction, field)

    def extend(self, w):
        """(P_V W, P_H W) as fields, W the constant extension of w."""
        return _linear_field(self.pv, self.d_pv, w), _linear_field(self.ph, self.d_ph, w)

    def fiber_cubic(self, a, b, c) -> float:
        """(hat-nabla_{V_a} hat-g)(V_b, V_c) using the kernel frame fields."""
        u = self.vcols[:, a]
        vb = self.kernel_col(b)
        wc = self.kernel_col(c)
        term1 = float(_scalar_grad(self.g, self.dg, vb, wc) @ u)
        dvb = self.pv @ self.cov(u, vb)
        dwc = self.pv @ self.cov(u, wc)
        vbv = self.vcols[:, b]
        wcv = self.vcols[:, c]
        return term1 - float(dvb @ self.g @ wcv) - float(vbv @ self.g @ dwc)


def sweep_frames(setup: SubmersionSetup, points, residual_at, keys=(),
                 rank_test=False) -> Sweep:
    """:func:`results.sweep` of ``residual_at(frame)`` over the points,
    reading one frame batch; a point whose frame failed is an incident."""
    frames = setup._frames(points, rank_test)
    return sweep(points, lambda p: residual_at(_PointFrame(frames, p)), keys)


def _tensor_t(f: _PointFrame, e, w_v, w_h, dual=False) -> np.ndarray:
    """T_e W = H nabla_{Ve} (VW) + V nabla_{Ve} (HW) from the projected
    fields (w_v, w_h) of W."""
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
    lifted = np.einsum(
        "ijk,ic,ja,kb->cab", f.cubic, f.lcols, f.lcols, f.lcols
    )
    cs6 = float(np.max(np.abs(lifted - f.e2phi * f.cubic_b)))

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
    s = sweep_frames(setup, points, lemma_components, keys=LEMMA_KEYS)
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
        "condition4": geometry.statistical_defect(f.gamma_b, f.cubic_b),
        "total_space": geometry.statistical_defect(f.gamma, f.cubic),
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
    s = sweep_frames(setup, points, four_conditions_at, keys=CONDITIONS + ("total_space",))
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
    s = sweep_frames(setup, points, gauss_weingarten_residuals)
    return s.summarize("gauss_weingarten", tol, details=s.worst)


def check_split_identities(setup, points, tol) -> CheckResult:
    """P_H + P_V = I, dpi P_V = 0, dpi L = I at every sample."""
    eye_n = np.eye(setup.n)
    eye_m = np.eye(setup.m)

    def at(f):
        parts = [f.ph + f.pv - eye_n, f.dpi @ f.pv, f.dpi @ f.lcols - eye_m]
        if setup.fiber_dim:
            parts.append(f.dpi @ f.vcols)
        return peak(float(np.max(np.abs(r))) for r in parts)

    return sweep_frames(setup, points, at, rank_test=True).summarize("split_identities", tol)


def check_tensoriality(setup, points, tol) -> CheckResult:
    """T and A agree across two different extensions of their arguments."""
    # scale the extension by a scalar field s with s(p) = 1, ds(p) = 0.7 (1, ..., 1):
    # d(sF)[k, i] = dF[k, i] + ds[k] F^i at p
    ds = np.ones(setup.n) * 0.7

    def at(f):
        probes = []
        if setup.fiber_dim:
            probes.append((f.vcols[:, 0], f.lcols[:, 0]))
            probes.append((f.vcols[:, 0], f.vcols[:, -1]))
        probes.append((f.lcols[:, 0], f.lcols[:, -1]))
        r = []
        for e, w in probes:
            w_v, w_h = f.extend(w)
            scaled = [(value, d + np.outer(ds, value)) for value, d in (w_v, w_h)]
            for tensor in (_tensor_t, _tensor_a):
                r.append(float(np.max(np.abs(tensor(f, e, w_v, w_h) - tensor(f, e, *scaled)))))
        return peak(r)

    return sweep_frames(setup, points, at).summarize("tensoriality", tol)


def check_semi_riemannian(setup, points, tol) -> CheckResult:
    """Horizontal lengths preserved and fiber metric nondegenerate."""

    def at(f):
        lengths = float(np.max(np.abs(f.lcols.T @ f.g @ f.lcols - f.gb)))
        if setup.fiber_dim:
            try:
                solve_linear(f.vcols.T @ f.g @ f.vcols, np.eye(setup.fiber_dim))
            except SingularMatrix:
                return {"lengths": lengths, "degenerate": math.inf}
        return {"lengths": lengths, "degenerate": 0.0}

    s = sweep_frames(setup, points, at, keys=("lengths", "degenerate"))
    return s.summarize("semi_riemannian", tol,
                       details={"fiber_metric_degenerate": s.worst["degenerate"] == math.inf})


def check_conformal_metric(setup, points, tol) -> CheckResult:
    """g_M on horizontal lifts equals e^{2 phi} g_B."""

    def at(f):
        return float(np.max(np.abs(f.lcols.T @ f.g @ f.lcols - f.e2phi * f.gb)))

    return sweep_frames(setup, points, at).summarize("conformal_metric", tol)


def conformal_defect(f: _PointFrame, dual: bool = False) -> float:
    """Worst defect, over the base coordinate-frame triples (x, y, z), of the
    defining relation for conformal submersions with horizontal distribution
    at the frame's point; ``dual`` takes the duals of both connections."""
    gamma = f.gamma_dual if dual else f.gamma
    gb = f.gb
    gamma_b = f.gamma_b_dual if dual else f.gamma_b
    defects = []
    for x, y, z in itertools.product(np.eye(f.setup.m), repeat=3):
        xt = f.lcols @ x
        yt = f.lcols @ y
        zt = f.lcols @ z
        push = f.dpi @ _cov_deriv(gamma, xt, _linear_field(f.lcols, f.d_lcols, y))
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
    return sweep_frames(setup, points, conformal_defect).summarize("conformal_hd", tol)


def check_affine_hd(setup, points, tol) -> CheckResult:
    """H(nabla_{X~} Y~) equals the lift of nabla*_X Y for frame fields."""

    def at(f):
        r = []
        for a in range(setup.m):
            xt = f.lcols[:, a]
            for b in range(setup.m):
                nab = f.cov(xt, f.lift_col(b))
                lifted = f.lcols @ f.gamma_b[:, a, b]
                r.append(float(np.max(np.abs(f.ph @ nab - lifted))))
        return peak(r)

    return sweep_frames(setup, points, at).summarize("affine_hd", tol)


def check_dual_conformal_pair(setup, points, tol) -> CheckResult:
    """The defining relation holds for (nabla, nabla*) iff it holds for
    their metric duals; evaluated as two residual suites."""

    def at(f):
        return {"primal": conformal_defect(f), "dual": conformal_defect(f, dual=True)}

    s = sweep_frames(setup, points, at, keys=("primal", "dual"))
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
        frames = setup._frames(fpts, False)
        gammas = [induced_structures(_PointFrame(frames, q))[1] for q in fpts]
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

    def at(f):
        premise = geometry.statistical_defect(f.gamma, f.cubic)
        g_ind, gamma_ind = induced_structures(f)
        dg_ind = np.empty((m, m, m))
        for a in range(m):
            for b in range(m):
                grad_s = _scalar_grad(f.g, f.dg, f.lift_col(a), f.lift_col(b))
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

    s = sweep_frames(setup, points, at, keys=("premise", "statistical", "identity"))
    out = s.summarize("induced_statistical", tol, keys=("statistical", "identity"),
                      details={"premise_residual": s.worst["premise"],
                               "proof_identity_residual": s.worst["identity"]})
    if out.status != INCONCLUSIVE and s.worst["premise"] > PREMISE_FACTOR * tol:
        out.status = INCONCLUSIVE
        out.details["premise_failed"] = True
    return out
