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
(:meth:`SubmersionSetup._frames`), a :class:`_FrameBatch` of numpy arrays
with a leading row axis: dpi, the kernel and lift columns and the
projectors with their first partials (by the product rule and
d(A^-1) = -A^-1 dA A^-1), the metric, its inverse and Christoffels,
and the base structure at the projected point. The build does every
step that can raise; arithmetic that cannot (the lift and projector
partials, the dual Christoffels and cubic forms) is done on first read
(``_DERIVED``), so a check pays only for the parts it reads. Every
identity is one array program over those rows, giving one residual per
point. An identity over frame directions runs over every pair or triple
of columns at once: the kernel and lift columns become column fields
(:meth:`_FrameBatch.columns`), each put on its own column axis between
the row axis and the vector index (:func:`_tuples`), and the batch
broadcasts over those axes (:meth:`_FrameBatch.over`). Pointwise tensors
extend their vector arguments by constant coordinate components and
project with the frame's projector fields, which makes the results
extension-independent up to solver noise. The tensors that the four
conditions and the Lemma both read are computed once per batch, over
the (kernel, lift) column pairs (:attr:`_FrameBatch.tensors`). Every
build first tests the rank of dpi at each point (:func:`_rank_test`),
since every frame identity assumes a submersion. The setup caches
nothing per point: a suite builds the frame batch of its sample once
(``runner.RunContext.frames``), so its derived parts, columns, ``over``
batches and tensors are computed once for every check that reads them;
frame arrays are read-only, and the batch lives as long as its suite.
"""

from __future__ import annotations

import functools
import math
import warnings
import weakref

import numpy as np

from . import geometry
from .errors import ContractViolation, EvalDomain, PremiseFailed, RankDrop, SingularMatrix
from .fields import ScalarField, Space, _as_points, _dual, _FieldStack, _parts_and_inverse
from .linalg import inverse, inverse_rows, pivoted_qr
from .results import build_rows, collect, owned_rows

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
        self._pi_stack = _FieldStack(self.pi)

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

    # -- projection -----------------------------------------------------

    def project(self, points) -> np.ndarray:
        """The base points (N, m) of a stack of points (N, n)."""
        return self._pi_stack(_as_points(points, self.n), 0)[0]

    def pivot_pattern(self):
        """(pivot_cols, free_cols) chosen once at the box center."""
        if self._pivot is None:
            center = np.array([self.total.chart.center()])
            self._pivot = self._pivot_at(center[0], self._pi_stack(center, 1)[1][0].T)
        return self._pivot

    def _pivot_at(self, p, dpi):
        """The pivot pattern of the differential dpi (m, n) at the point p:
        the column order of its pivoted QR, once it passes :func:`_rank_test`."""
        _rank_test(p[None], dpi[None])
        perm = pivoted_qr(dpi)[1]
        piv = tuple(sorted(int(c) for c in perm[: self.m]))
        free = tuple(sorted(int(c) for c in perm[self.m:]))
        return piv, free

    # -- frames ----------------------------------------------------------

    def _frames(self, points) -> _FrameBatch:
        """The frames at a stack of points (N, n), built together.

        A point where dpi is not finite or loses rank fails before its
        frame is built.  When the batch raises a :class:`SubgeoError`,
        each row is built alone (:func:`results.build_rows`): the failing
        points keep their own errors and the others get exactly what the
        batch gives them.
        """
        points = np.asarray(points, dtype=float).reshape(len(points), self.n)
        arrays, errors = build_rows(self._frame_arrays, points)
        return _FrameBatch(self, len(points) - len(errors), arrays, errors)

    def _vertical(self, x, dpi, d_dpi):
        """Kernel columns (N, n, l) of dpi at points x and their partials,
        from the pivot pattern; a lone point where the pattern degenerates
        is re-pivoted."""
        if not self.fiber_dim:
            return np.zeros((len(x), self.n, 0)), np.zeros((len(x), self.n, self.n, 0))
        try:
            return _kernel(dpi, d_dpi, *self.pivot_pattern())
        except SingularMatrix:
            if len(x) > 1:
                raise
            warnings.warn("pivot pattern degenerated; re-pivoting at the point")
            return _kernel(dpi, d_dpi, *self._pivot_at(x[0], dpi[0]))

    def null_fibers(self, x) -> np.ndarray:
        """Boolean mask over a stack of points x (N, n): where g_M on the
        kernel columns is singular, so the fiber has no g_M-orthogonal
        complement to build a frame from.  Raises the first error of any
        row, a failed rank test (:func:`_rank_test`) before any other."""
        if not self.fiber_dim:
            return np.zeros(len(x), dtype=bool)
        _, dpi_t, hess = self._pi_stack(x, 2)
        dpi = np.swapaxes(dpi_t, 1, 2)
        _rank_test(x, dpi)
        kernel, _ = self._vertical(x, dpi, np.moveaxis(hess, 3, 2))
        return inverse_rows(_gram(kernel, self.total.metric.batch(x, 0)[0]))[1]

    def _frame_arrays(self, x) -> dict:
        """The :class:`_FrameBatch` arrays at points x (N, n), each with a
        leading point axis; raises the first error of any row, a failed
        rank test (:func:`_rank_test`) before any other."""
        n = self.n
        bp, dpi_t, hess = self._pi_stack(x, 2)
        dpi = np.swapaxes(dpi_t, 1, 2)                  # (N, m, n)
        d_dpi = np.moveaxis(hess, 3, 2)                 # [p, k, a, i] = d_k d_i pi_a
        _rank_test(x, dpi)

        kernel, d_kernel = self._vertical(x, dpi, d_dpi)

        # horizontal: g-orthogonal complement, spanned by h = ginv dpi^T
        g, dg = self.total.metric.batch(x, 1)          # dg[p, k] = d_k g
        ginv = inverse(g)
        h = ginv @ dpi_t                                # (N, n, m)
        inv = inverse(dpi @ h)                          # (N, m, m)
        lift = h @ inv                                  # (N, n, m)
        p_h = lift @ dpi                                # (N, n, n)

        (gamma,), _ = _parts_and_inverse(self.total.conn, self.total.metric, x, (g, dg), ginv)
        e2phi, dphi = np.ones(len(x)), np.zeros((len(x), n))
        if self.phi is not None:
            phi, dphi = self.phi.batch(x, 1)
            e2phi = np.exp(2.0 * phi)
            bad = np.isinf(e2phi) & np.isfinite(phi)
            if bad.any():
                raise EvalDomain("floating-point error (math range error)",
                                 x[int(np.argmax(bad))])
        g_b, dg_b = self.base.metric.batch(bp, 1)
        (gamma_b,), gb_inv = _parts_and_inverse(self.base.conn, self.base.metric, bp, (g_b, dg_b))
        return {
            "dpi": dpi, "d_dpi": d_dpi, "ph": p_h, "pv": np.eye(n) - p_h,
            "vcols": kernel, "d_vcols": d_kernel, "h": h, "dpi_h_inv": inv, "lcols": lift,
            "gamma": gamma, "g": g, "dg": dg, "ginv": ginv,
            "e2phi": e2phi, "dphi": dphi, "bp": bp,
            "gb": g_b, "dg_b": dg_b, "gb_inv": gb_inv, "gamma_b": gamma_b,
        }

    # -- fundamental tensors ------------------------------------------------

    def fundamental_T(self, f: _FrameBatch, e, w, dual: bool = False, ds=None) -> np.ndarray:
        """T_e W = H nabla_{Ve} (VW) + V nabla_{Ve} (HW) at every frame point,
        e and w (N, ..., n), W the constant extension of w split by the
        frame's projector fields; with column axes, f broadcasts over them
        (:meth:`_FrameBatch.over`).  ``dual`` takes the dual total
        connection; ``ds`` rescales W by a scalar field s with s = 1 and
        gradient ds there."""
        w_v, w_h = f.extend(w, ds)
        ve = _mv(f.pv, e)
        return _mv(f.ph, f.cov(ve, w_v, dual)) + _mv(f.pv, f.cov(ve, w_h, dual))

    def fundamental_A(self, f: _FrameBatch, e, w, dual: bool = False, ds=None) -> np.ndarray:
        """A_e W = V nabla_{He} (HW) + H nabla_{He} (VW), as :meth:`fundamental_T`."""
        w_v, w_h = f.extend(w, ds)
        he = _mv(f.ph, e)
        return _mv(f.pv, f.cov(he, w_h, dual)) + _mv(f.ph, f.cov(he, w_v, dual))

    # -- fibers ----------------------------------------------------------------

    def fiber_points(self, anchor, count: int) -> np.ndarray:
        """Up to ``count`` points (k, n) of the fiber through ``anchor``,
        found by varying its free coordinates and Newton-solving the pivot
        coordinates of every start at once.  A start that raises fails the
        search with the error of the first such start (the starts go
        through :func:`results.build_rows`)."""
        piv, free = map(list, self.pivot_pattern())
        anchor = np.asarray(anchor, dtype=float)
        b = self.project(anchor[None])[0]
        lo, hi = np.array(self.total.chart.box, dtype=float)[free].T
        k, j = np.arange(count)[:, None], np.arange(len(free))
        frac = 0.15 + 0.7 * ((0.5 + 0.6180339887498949 * k + 0.23 * j) % 1.0)
        starts = np.tile(anchor, (count, 1))
        starts[:, free] = lo + frac * (hi - lo)
        arrays, errors = build_rows(lambda x: self._newton_fiber(x, b, piv), starts)
        if errors:
            raise errors[min(errors)]
        x = arrays["x"]
        return x[arrays["found"] & self.total.chart.contains(x)]

    def _newton_fiber(self, x, b, piv) -> dict:
        """Newton on the pivot coordinates of the starts x (N, n) towards
        pi = b: ``x`` the last iterates and ``found`` whether each row
        converged before a singular Jacobian or NEWTON_MAX_ITER steps."""
        x = x.copy()
        found = np.zeros(len(x), dtype=bool)
        rows = np.arange(len(x))  # the rows still iterating
        for _ in range(NEWTON_MAX_ITER):
            res = self.project(x[rows]) - b
            done = np.abs(res).max(axis=1) <= NEWTON_TOL
            found[rows[done]] = True
            rows, res = rows[~done], res[~done]
            if not len(rows):
                break
            jac = np.swapaxes(self._pi_stack(x[rows], 1)[1], 1, 2)[:, :, piv]
            inv, bad = inverse_rows(jac)
            rows = rows[~bad]
            x[rows[:, None], piv] += (inv[~bad] @ -res[~bad, :, None])[..., 0]
        return {"x": x, "found": found}


# -- batch helpers -------------------------------------------------------------


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
    ainv = inverse(dpi[:, :, piv])
    sol = -(ainv @ dpi[:, :, free])
    d_sol = -(ainv[:, None] @ (d_dpi[:, :, :, free] + d_dpi[:, :, :, piv] @ sol[:, None]))
    npts, n = dpi.shape[0], dpi.shape[2]
    kernel = np.zeros((npts, n, len(free)))
    d_kernel = np.zeros((npts, n, n, len(free)))
    kernel[:, free, range(len(free))] = 1.0
    kernel[:, piv] = sol
    d_kernel[:, :, piv] = d_sol
    return kernel, d_kernel


def _lift_partials(f) -> np.ndarray:
    """The partials of the lift columns h (dpi h)^-1 by the product rule
    and d(A^-1) = -A^-1 dA A^-1, from the arrays a frame build stores."""
    ginv, h, inv, dpi, d_dpi = f.ginv, f.h, f.dpi_h_inv, f.dpi, f.d_dpi
    d_ginv = -(ginv[:, None] @ f.dg @ ginv[:, None])
    d_h = d_ginv @ np.swapaxes(dpi, 1, 2)[:, None] + ginv[:, None] @ np.swapaxes(d_dpi, 2, 3)
    d_inv = -(inv[:, None] @ (d_dpi @ h[:, None] + dpi[:, None] @ d_h) @ inv[:, None])
    return d_h @ inv[:, None] + h[:, None] @ d_inv


# The _FrameBatch parts computed on first read, by arithmetic alone.
_DERIVED = {
    "d_lcols": _lift_partials,
    "d_ph": lambda f: f.d_lcols @ f.dpi[:, None] + f.lcols[:, None] @ f.d_dpi,
    "d_pv": lambda f: -f.d_ph,
    "gamma_dual": lambda f: _dual((f.g, f.dg), (f.gamma,), f.ginv)[0],
    "cubic": lambda f: geometry.nabla_g_values(f.g, f.dg, f.gamma),
    "gamma_b_dual": lambda f: _dual((f.gb, f.dg_b), (f.gamma_b,), f.gb_inv)[0],
    "cubic_b": lambda f: geometry.nabla_g_values(f.gb, f.dg_b, f.gamma_b),
}


class _FrameBatch:
    """The frames at a stack of points, one row per point that evaluated;
    ``errors`` maps the position of each point that did not to its error.

    Arrays, each with a leading row axis: ``dpi`` (m x n) and its
    partials ``d_dpi``; the projectors ``ph``, ``pv`` (n x n); the kernel
    columns ``vcols`` (n x l); the lift columns ``lcols`` (n x m), which
    are ``h`` = ginv dpi^T (n x m) times ``dpi_h_inv`` = (dpi h)^-1; the
    Christoffels ``gamma``, the metric ``g``, its partials ``dg`` and
    inverse ``ginv``; ``e2phi`` and ``dphi``; the base point ``bp`` and,
    there, ``gb``, ``dg_b``, ``gb_inv`` and ``gamma_b``.  ``d_ph``,
    ``d_pv``, ``d_vcols`` and ``d_lcols`` hold the partials of their
    arrays, the derivative index first as in ``dg``.  ``d_vcols`` is
    built with the kernel; the other three partials and the dual
    Christoffels and cubic forms of both spaces are computed on first
    read (``_DERIVED``), bit for bit what an eager build gives.  Every
    array a batch holds or gives, these parts, :meth:`columns` and
    :attr:`tensors` too, is read-only, since a suite shares the batch
    among its checks (``runner.RunContext.frames``).  Vectors and fields
    passed to the methods carry the same row axis; any column axes after
    it need the batch from :meth:`over`.
    """

    def __init__(self, setup: SubmersionSetup, size: int, arrays: dict, errors=None,
                 source=None, depth=0):
        self.setup = setup
        self.size = size
        self.errors = errors or {}
        self._source, self._depth = source, depth
        self._wide, self._columns = {}, None  # over() per depth and columns(), on first call
        vars(self).update({k: _frozen(v) for k, v in arrays.items()})

    def __len__(self) -> int:
        return self.size

    def take(self, rows) -> _FrameBatch:
        """The frames of some rows (an index array or a slice)."""
        arrays = {k: v[rows] for k, v in vars(self).items() if isinstance(v, np.ndarray)}
        return _FrameBatch(self.setup, len(arrays["dpi"]), arrays)

    def over(self, depth: int) -> _FrameBatch:
        """This batch with ``depth`` unit column axes after the row axis:
        its arrays broadcast against vectors (N, c_1, ..., c_depth, n).
        Built once per depth; it reads derived parts from this batch, which
        it refers to weakly (no cycle keeps a batch past its suite or
        check), so this batch must outlive it."""
        if depth not in self._wide:
            arrays = {k: v.reshape(v.shape[:1] + (1,) * depth + v.shape[1:])
                      for k, v in vars(self).items() if isinstance(v, np.ndarray)}
            self._wide[depth] = _FrameBatch(self.setup, self.size, arrays,
                                            source=weakref.proxy(self), depth=depth)
        return self._wide[depth]

    def __getattr__(self, name):
        """A part of ``_DERIVED`` on first read, from the source of a batch from :meth:`over`."""
        if name not in _DERIVED:
            raise AttributeError(name)
        part = _DERIVED[name](self) if self._source is None else getattr(self._source, name)
        part = _frozen(part.reshape(part.shape[:1] + (1,) * self._depth + part.shape[1:]))
        setattr(self, name, part)
        return part

    def columns(self):
        """The kernel columns V and lift columns L as column fields:
        values (N, c, n) and partials (N, c, n, n), column axis first."""
        if self._columns is None:
            self._columns = tuple(
                (_frozen(np.ascontiguousarray(np.moveaxis(cols, -1, 1))),
                 _frozen(np.ascontiguousarray(np.moveaxis(d_cols, -1, 1))))
                for cols, d_cols in ((self.vcols, self.d_vcols), (self.lcols, self.d_lcols)))
        return self._columns

    def s_value(self, v, x) -> np.ndarray:
        """S_v x = nabla_v X - dual-nabla_v X for constant extensions."""
        return np.einsum("...kij,...i,...j->...k", self.gamma - self.gamma_dual, v, x)

    def cov(self, direction, field, dual=False) -> np.ndarray:
        return _cov_deriv(self.gamma_dual if dual else self.gamma, direction, field)

    def extend(self, w, ds=None):
        """(P_V W, P_H W) as fields, W the constant extension of w; with
        ``ds``, W times a scalar field s with s = 1 and gradient ds, so
        d(sF)[k, i] = dF[k, i] + ds[k] F^i."""
        parts = _linear_field(self.pv, self.d_pv, w), _linear_field(self.ph, self.d_ph, w)
        if ds is None:
            return parts
        return tuple((value, d + ds[..., :, None] * value[..., None, :]) for value, d in parts)

    @functools.cached_property
    def tensors(self) -> dict:
        """The tensors the four conditions and the Lemma both read, over
        every pair (V_a, L_b) of a kernel and a lift column, [p, a, b, ...],
        computed once per batch: ``s_vx`` S(V_a, L_b), ``s_xv`` S(L_b, V_a),
        ``a_xv`` A_{L_b} V_a, ``t_vx`` T_{V_a} L_b, ``a_xv_dual`` and
        ``t_vx_dual`` the last two for the dual connection, and
        ``fiber_cubic`` over kernel triples (:meth:`fiber_cubic`)."""
        T, A = self.setup.fundamental_T, self.setup.fundamental_A
        V, L = self.columns()
        f2 = self.over(2)
        v, x = _tuples(V[0], L[0])
        tensors = {"s_vx": f2.s_value(v, x), "s_xv": f2.s_value(x, v),
                   "a_xv": A(f2, x, v), "a_xv_dual": A(f2, x, v, dual=True),
                   "t_vx": T(f2, v, x), "t_vx_dual": T(f2, v, x, dual=True),
                   "fiber_cubic": self.fiber_cubic()}
        return {k: _frozen(a) for k, a in tensors.items()}

    def fiber_cubic(self) -> np.ndarray:
        """(hat-nabla_{V_a} hat-g)(V_b, V_c) [..., a, b, c] over the kernel
        column fields."""
        u, vb, wc = _tuples(*[self.columns()[0]] * 3)
        f = self.over(3)
        term1 = np.einsum("...i,...i->...", _scalar_grad(f.g, f.dg, vb, wc), u[0])
        dvb = _mv(f.pv, f.cov(u[0], vb))
        dwc = _mv(f.pv, f.cov(u[0], wc))
        return term1 - _pair(f.g, dvb, wc[0]) - _pair(f.g, vb[0], dwc)


# -- array helpers -------------------------------------------------------------
#
# Every helper takes leading axes: the rows of a frame batch, then any
# column axes, which frame arrays meet as unit axes (_FrameBatch.over).  A
# vector field near a point is the pair (value (..., n), d (..., n, n))
# with d[..., k, i] the k-th partial of component i, the derivative index
# first as in the frame arrays.


def _frozen(a) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


def _mv(a, v) -> np.ndarray:
    """Matrices (..., i, j) times vectors (..., j)."""
    return np.einsum("...ij,...j->...i", a, v)


def _pair(g, a, b) -> np.ndarray:
    """The bilinear form g (..., i, j) on vectors a and b."""
    return np.einsum("...i,...ij,...j->...", a, g, b)


def _form3(c, a, b, d) -> np.ndarray:
    """The trilinear form c (..., i, j, k) on vectors a, b and d, staged."""
    cd = (c @ d[..., None, :, None])[..., 0]
    return np.einsum("...i,...i->...", a, (cd @ b[..., None])[..., 0])


def _gram(cols, g) -> np.ndarray:
    """cols^T g cols for column stacks (..., n, k)."""
    return np.swapaxes(cols, -1, -2) @ g @ cols


def _amax(a) -> np.ndarray:
    """Max |entry| of each row of a stack (N, ...); NaN wins, 0 for a row
    with no entries."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)), initial=0.0)


def _tuples(*stacks):
    """Column stacks (N, c, ...), vectors or fields (value, d), each moved
    to its own column axis: the k-th of d stacks gets the shape
    (N, 1, .., c, .., 1, ...) with c at column axis k, so that together
    they broadcast over every d-tuple of columns."""
    depth = len(stacks)

    def put(a, k):
        return a.reshape(a.shape[:1] + (1,) * k + a.shape[1:2] + (1,) * (depth - 1 - k)
                         + a.shape[2:])

    return [tuple(put(a, k) for a in s) if isinstance(s, tuple) else put(s, k)
            for k, s in enumerate(stacks)]


def _linear_field(mat, d_mat, vec):
    """The field sum_j M[:, j] vec_j (vec constant) from M and its partials."""
    return _mv(mat, vec), np.einsum("...kij,...j->...ki", d_mat, vec)


def _cov_deriv(gamma, direction, field) -> np.ndarray:
    """(nabla_d F)^k = d^i dF^k/dx^i + Gamma^k_ij d^i F^j."""
    value, d = field
    return (np.einsum("...i,...ik->...k", direction, d)
            + np.einsum("...kij,...i,...j->...k", gamma, direction, value))


def _bracket(u, v) -> np.ndarray:
    """[U, V]^k = U^i d_i V^k - V^i d_i U^k."""
    return np.einsum("...i,...ik->...k", u[0], v[1]) - np.einsum("...i,...ik->...k", v[0], u[1])


def _scalar_grad(g, dg, a, b) -> np.ndarray:
    """Gradient of s(x) = g(A, B) from the metric g, its partials
    dg[..., i, j, k] = d_i g_jk, and the fields A and B."""
    (av, ad), (bv, bd) = a, b
    return (np.einsum("...ijk,...j,...k->...i", dg, av, bv)
            + np.einsum("...ki,...i->...k", ad, _mv(g, bv))
            + np.einsum("...kj,...j->...k", bd, np.einsum("...i,...ij->...j", av, g)))


def _lift_cov(f: _FrameBatch, dual: bool = False) -> np.ndarray:
    """nabla_{L_a} L_b (..., m, m, n) for the lift column fields L_a."""
    x, y = _tuples(*[f.columns()[1]] * 2)
    return f.over(2).cov(x[0], y, dual)


LEMMA_KEYS = ("cs6", "cs7", "cs8", "cs9", "cs10", "cs11")


def lemma_components(f: _FrameBatch) -> dict:
    """Residual arrays of the six component identities at the frame points.

    Each is taken over every triple (u, v, w) of kernel columns V and
    (x, y, z) of lift columns L that it names.  Keys cs6..cs11; vacuous
    entries (no vertical directions) report 0.  cs7-cs11 read the pair
    tensors of :attr:`_FrameBatch.tensors`, a unit axis added for the
    third column.
    """
    (V, _), (L, _) = f.columns()
    f3 = f.over(3)
    C, g = f3.cubic, f3.g
    t = {k: a[:, :, :, None] for k, a in f.tensors.items() if k != "fiber_cubic"}

    # cs6: horizontal cubic matches the conformally scaled base cubic
    cs6 = _form3(C, *_tuples(L, L, L)) - f.e2phi[:, None, None, None] * f.cubic_b
    v, x, y = _tuples(V, L, L)
    cs7 = _form3(C, v, x, y) + _pair(g, t["s_vx"], y)
    cs8 = _form3(C, x, v, y) + _pair(g, t["a_xv"], y) - _pair(g, t["a_xv_dual"], y)
    v, x, w = _tuples(V, L, V)
    cs9 = _form3(C, x, v, w) + _pair(g, t["s_xv"], w)
    cs10 = _form3(C, v, x, w) + _pair(g, t["t_vx"], w) - _pair(g, t["t_vx_dual"], w)
    cs11 = _form3(C, *_tuples(V, V, V)) - f.tensors["fiber_cubic"]
    return dict(zip(LEMMA_KEYS, map(_amax, (cs6, cs7, cs8, cs9, cs10, cs11))))


CONDITIONS = ("condition1", "condition2", "condition3", "condition4")


def four_conditions_at(f: _FrameBatch) -> dict:
    """Residual arrays of the four statisticity conditions at the frame
    points, plus the direct statisticity residual of the total space;
    conditions 1-3 over every pair of kernel and lift columns, from
    :attr:`_FrameBatch.tensors`."""
    V, _ = f.columns()
    f2, t = f.over(2), f.tensors
    cond1 = _mv(f2.ph, t["s_vx"]) - (t["a_xv"] - t["a_xv_dual"])
    cond2 = _mv(f2.pv, t["s_xv"]) - (t["t_vx"] - t["t_vx_dual"])
    # condition 3: the fibers are statistical
    a, b = _tuples(V, V)
    torsion = _mv(f2.pv, f2.cov(a[0], b)) - _mv(f2.pv, f2.cov(b[0], a)) - _bracket(a, b)
    fiber_cubic = t["fiber_cubic"]
    return {
        "condition1": _amax(cond1),
        "condition2": _amax(cond2),
        "condition3": np.maximum(_amax(torsion),
                                 _amax(fiber_cubic - np.swapaxes(fiber_cubic, 1, 2))),
        "condition4": geometry.statistical_residual(f.gamma_b, f.cubic_b),
        "total_space": geometry.statistical_residual(f.gamma, f.cubic),
    }


def gauss_weingarten_residuals(f: _FrameBatch) -> dict:
    """Residual arrays of the four decomposition identities for frame
    fields over every pair of columns (E, F): nabla_E F is its part in
    F's distribution plus T_E F (E vertical) or A_E F (E horizontal)."""
    T, A = f.setup.fundamental_T, f.setup.fundamental_A
    V, L = f.columns()
    f2 = f.over(2)

    def split(e_cols, w_cols, tensor, keep):
        e, w = _tuples(e_cols[0], w_cols)
        full = f2.cov(e, w)
        return _amax(full - _mv(keep, full) - tensor(f2, e, w[0]))

    return {"vert_vert": split(V, V, T, f2.pv), "vert_horiz": split(V, L, T, f2.ph),
            "horiz_vert": split(L, V, A, f2.pv), "horiz_horiz": split(L, L, A, f2.ph)}


def split_identity_residuals(f: _FrameBatch) -> np.ndarray:
    """P_H + P_V = I, dpi P_V = 0, dpi L = I and dpi V = 0 at the frame points."""
    eye_n, eye_m = np.eye(f.setup.n), np.eye(f.setup.m)
    parts = [f.ph + f.pv - eye_n, f.dpi @ f.pv, f.dpi @ f.lcols - eye_m, f.dpi @ f.vcols]
    return np.max([_amax(r) for r in parts], axis=0)


def tensoriality_residuals(f: _FrameBatch) -> np.ndarray:
    """T and A agree across two different extensions of their arguments."""
    setup = f.setup
    # the second extension scales the first by a scalar field s with
    # s(p) = 1, ds(p) = 0.7 (1, ..., 1)
    ds = np.ones(setup.n) * 0.7
    probes = []
    if setup.fiber_dim:
        probes.append((f.vcols[..., 0], f.lcols[..., 0]))
        probes.append((f.vcols[..., 0], f.vcols[..., -1]))
    probes.append((f.lcols[..., 0], f.lcols[..., -1]))
    r = []
    for e, w in probes:
        for tensor in (setup.fundamental_T, setup.fundamental_A):
            r.append(_amax(tensor(f, e, w) - tensor(f, e, w, ds=ds)))
    return np.max(r, axis=0)


def semi_riemannian_residuals(setup: SubmersionSetup, x) -> dict:
    """Horizontal lengths preserved and fiber metric nondegenerate, at a
    stack of points x (N, n).

    The fiber metric is tested first (:meth:`SubmersionSetup.null_fibers`):
    a point where it is degenerate has no horizontal complement, so it
    builds no frame and reads degenerate = inf, lengths 0."""
    null = setup.null_fibers(x)
    lengths = np.zeros(len(x))
    if not null.all():
        f = setup._frame_arrays(x[~null])
        lengths[~null] = _amax(_gram(f["lcols"], f["g"]) - f["gb"])
    return {"lengths": lengths, "degenerate": np.where(null, math.inf, 0.0)}


def conformal_metric_residuals(f: _FrameBatch) -> np.ndarray:
    """g_M on horizontal lifts equals e^{2 phi} g_B."""
    return _amax(_gram(f.lcols, f.g) - f.e2phi[:, None, None] * f.gb)


def conformal_defect(f: _FrameBatch, dual: bool = False) -> np.ndarray:
    """Worst defect at each frame point, over the base coordinate-frame
    triples (x, y, z) = (e_a, e_b, e_c), of the defining relation for
    conformal submersions with horizontal distribution; ``dual`` takes the
    duals of both connections."""
    gamma_b = f.gamma_b_dual if dual else f.gamma_b
    push = np.einsum("...ki,...abi->...kab", f.dpi, _lift_cov(f, dual))
    dl = np.einsum("...i,...ia->...a", f.dphi, f.lcols)    # d phi on the lift columns
    defect = (np.einsum("...kab,...kc->...abc", push - gamma_b, f.gb)
              + np.einsum("...c,...ab->...abc", dl, f.gb)
              - np.einsum("...a,...bc->...abc", dl, f.gb)
              - np.einsum("...b,...ca->...abc", dl, f.gb))
    return _amax(defect)


def conformal_pair_residuals(f: _FrameBatch) -> dict:
    """The conformal defect of (nabla, nabla*) and of their metric duals."""
    return {"primal": conformal_defect(f), "dual": conformal_defect(f, dual=True)}


def affine_hd_residuals(f: _FrameBatch) -> np.ndarray:
    """H(nabla_{X~} Y~) equals the lift of nabla*_X Y for frame fields."""
    horizontal = np.einsum("...ij,...abj->...abi", f.ph, _lift_cov(f))
    return _amax(horizontal - np.einsum("...ic,...cab->...abi", f.lcols, f.gamma_b))


def induced_structures(f: _FrameBatch):
    """(g~, Gamma') induced on the base at the frame points, with
    Gamma'[..., k, b, c] = pi_* nabla_{L_b} L_c."""
    return _gram(f.lcols, f.g), np.einsum("...ki,...bci->...kbc", f.dpi, _lift_cov(f))


def projectable_rows(setup: SubmersionSetup, points):
    """:func:`results.fold` inputs of pi_*(H(nabla_{X~} Y~)) agreeing
    across points of the same fiber: the fibers through the first
    points, walked by :meth:`SubmersionSetup.fiber_points`, are rows of
    one frame batch, and each row reads its difference from the first
    point of its fiber.  Singleton fibers have nothing to vary and read 0."""
    if setup.fiber_dim == 0:
        return np.zeros(len(points)), {}
    n_base = max(1, math.ceil(len(points) / 16))
    per_fiber = max(2, math.ceil(len(points) / (4 * n_base)))

    def fiber(p):
        fpts = setup.fiber_points(p, per_fiber)
        if len(fpts) < 2:
            raise PremiseFailed(f"found {len(fpts)} of {per_fiber} points on the fiber")
        return fpts

    fibers, errors = collect(points[:n_base], fiber)
    owners = np.repeat(list(fibers), [len(f) for f in fibers.values()])
    frames = setup._frames(np.concatenate([np.zeros((0, setup.n)), *fibers.values()]))

    def residuals(f, rows):
        # each row against the first point of its fiber, which reads 0
        gammas, fiber_of = induced_structures(f)[1], owners[rows]
        first = np.searchsorted(fiber_of, fiber_of)
        return np.where(first == np.arange(len(rows)), 0.0, _amax(gammas - gammas[first]))

    return owned_rows(owners, frames, residuals, errors)


def induced_statistical_residuals(f: _FrameBatch) -> dict:
    """Theorem 2.1: the induced base structure of a statistical total
    space is statistical.  ``premise`` is the total space's statisticity,
    ``statistical`` the induced structure's, ``identity`` the defect of
    (nabla'_X g~)(Y, Z) = (nabla_{X~} g_M)(Y~, Z~).

    Derivatives of the induced metric are taken through the lift fields
    (basic-field identity), so no base-space expression for g~ is needed.
    """
    g_ind, gamma_ind = induced_structures(f)
    z, x, y = _tuples(*[f.columns()[1]] * 3)
    f3 = f.over(3)
    # dg_ind[..., c, a, b] = L_c (g(L_a, L_b))
    dg_ind = np.einsum("...k,...k->...", _scalar_grad(f3.g, f3.dg, x, y), z[0])
    cubic_ind = geometry.nabla_g_values(g_ind, dg_ind, gamma_ind)
    return {
        "premise": geometry.statistical_residual(f.gamma, f.cubic),
        "statistical": np.maximum(
            _amax(geometry.torsion_values(gamma_ind)),
            _amax(cubic_ind - np.swapaxes(cubic_ind, -3, -2)),
        ),
        "identity": _amax(cubic_ind - _form3(f3.cubic, z[0], x[0], y[0])),
    }
