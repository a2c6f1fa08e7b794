"""Charted manifolds and the scalar/metric/connection field layer.

Every field evaluates one way: ``batch(points, order)`` at a whole (N, n)
stack of points gives the tuple of its parts up to ``order``: (values,)
at order 0, then first partials, ..., k-th partials, where part m
carries m derivative axes right after the point axis: dg[p, a, i, j] =
d_a g_ij, dGamma[p, a, k, i, j] = d_a Gamma^k_ij, and so on.  The
expression leaves of a field (its entries or coefficients) form one
stack, compiled into one array program, made a straight-line function
per order on first use (:func:`exprlang.compile_batched`).  The order
budget: scalar fields, metrics and expression connections reach order
3; Levi-Civita, alpha and sum connections reach 2, their partials from
the metric's by the forward-mode rule d(A^-1 b) = A^-1 (db - dA A^-1 b)
differentiated once more; dual connections reach 1.  A batch inverts g
once (:func:`linalg.inverse`); each solve against g multiplies by it,
and a caller may pass it (:func:`_parts_and_inverse`).  Asking past a
field's order raises :class:`ContractViolation`.  Nothing is cached per
point beyond one build: within a stack build (:func:`shared`, which each
attempt of :func:`results.build_rows` runs in), a field evaluated again
at the same points to the same or a lower order returns the parts it
already gave, read-only, since a higher-order batch holds the parts of
every lower one bit for bit.  The memo is dropped when the build returns
or raises, so it never holds more than one build's batches and no
result depends on what an earlier build evaluated.  In
finite-difference mode the same program runs at order 0 on every
stencil node, and central differences of its values (orders 0..2) stand
in for its partials while all derived algebra is untouched, giving an
independent derivative path through every check.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import ContractViolation
from .linalg import inverse

FD_STEP_GRAD = 1e-6
FD_STEP_HESS = 5e-4


@dataclass(frozen=True)
class ChartedManifold:
    name: str
    dim: int
    box: tuple  # ((lo, hi), ...) of length dim
    bundle: bool = False

    def __post_init__(self):
        if len(self.box) != self.dim:
            raise ContractViolation(
                f"box has {len(self.box)} intervals for dimension {self.dim}"
            )

    @functools.cached_property
    def _bounds(self) -> tuple:
        lo, hi = np.array(self.box, dtype=float).reshape(self.dim, 2).T
        return lo, hi

    def contains(self, points) -> np.ndarray:
        """Mask over a stack of points (..., dim): in the closed box.  A NaN
        coordinate is outside."""
        lo, hi = self._bounds
        return ((points >= lo) & (points <= hi)).all(axis=-1)

    def center(self) -> tuple:
        return tuple(0.5 * (lo + hi) for lo, hi in self.box)


# -- evaluation -------------------------------------------------------


class Field:
    """A field on a chart; subclasses set ``dim``, ``max_order`` and ``_stack``
    or ``_batch``, which takes checked (N, dim) points under ``np.errstate``."""

    dim: int
    max_order: int

    def batch(self, points, order: int) -> tuple:
        """The parts (values, first partials, ...) up to ``order`` at a
        stack of points (N, dim), shared within a build (:func:`shared`)."""
        if not 0 <= order <= self.max_order:
            raise ContractViolation(f"batched order must be in 0..{self.max_order}, got {order}")
        with np.errstate(all="ignore"):
            return self._shared_batch(_as_points(points, self.dim), order)

    def _shared_batch(self, points, order):
        """``_batch`` at checked points, through the running build's memo:
        the first order + 1 parts of a batch this build already evaluated
        at the same points to this order or higher, else a new batch,
        stored read-only."""
        memo = _MEMO.get()
        if memo is None:
            return self._batch(points, order)
        # bytes compare faster than they hash, and a build holds few stacks per field
        data = points.tobytes()
        held = memo.setdefault((id(self), points.shape), [])
        for _, seen, top, parts in held:
            if top >= order and seen == data:
                return parts[:order + 1]
        parts = self._batch(points, order)
        for part in parts:
            part.flags.writeable = False
        held.append((self, data, order, parts))  # holding the field keeps its id unused
        return parts

    def _batch(self, points, order):
        return self._stack.at(order)(points)


# {(id(field), shape): [(field, point bytes, order, parts), ...]} of the running build, else None
_MEMO = contextvars.ContextVar("subgeo_build_memo", default=None)


def shared(build, points):
    """``build(points)`` with the field batches it evaluates shared.

    Within the call, a field's ``batch`` at points it has already been
    evaluated at to an order at or above the one asked returns the first
    order + 1 parts of that batch (they are those of a new batch, bit for
    bit), marked read-only.  A batch that raises is not kept.  A nested
    call shares the outer call's batches.  The memo is dropped when the
    outermost call returns or raises, so two builds at the same points
    each evaluate and no batch is held past the build that needed it.
    The memo is a context variable, so builds in other threads have
    their own.
    """
    if _MEMO.get() is not None:
        return build(points)
    token = _MEMO.set({})
    try:
        return build(points)
    finally:
        _MEMO.reset(token)


# -- scalar fields ----------------------------------------------------


class ScalarField(Field):
    """A scalar field: values (N,), grad (N, dim), hess (N, dim, dim), third."""

    max_order = 3


class ExprField(ScalarField):
    """An expression: a one-field stack (:class:`_FieldStack`)."""

    def __init__(self, ast, dim: int):
        self.ast = ast
        self.dim = dim
        self._stack = _FieldStack([self], ())

    @classmethod
    def parse(cls, text: str, dim: int, bundle: bool = False) -> "ExprField":
        return cls(exprlang.parse(text, dim, bundle=bundle), dim)

    def __repr__(self):
        return f"ExprField({exprlang.to_text(self.ast)!r})"


class FDField(ScalarField):
    """Central differences of another field's values, orders 0..2
    (:func:`_central_differences`): the inner field is a scalar field, a
    metric or a connection, and each part carries its entry axes after
    the derivative axes.  As a leaf of a :class:`_FieldStack` it puts the
    stack in finite-difference mode."""

    def __init__(self, inner: Field):
        self.inner = inner
        self.dim = inner.dim

    def _batch(self, points, order):
        return _central_differences(lambda nodes: self.inner.batch(nodes, 0)[0], points, order)


def _central_differences(values, points, order) -> tuple:
    """Parts up to ``order`` at points (N, n) from central differences of
    ``values(nodes)``, the order-0 values (len(nodes), ...) at a stack of
    nodes.  All stencil nodes of all points are evaluated in one call.
    The step scales with the coordinate size."""
    if order > 2:
        raise ContractViolation(
            "finite-difference mode provides derivatives up to order 2"
        )
    n = points.shape[1]
    h_grad = FD_STEP_GRAD * (1.0 + np.abs(points))
    h_hess = FD_STEP_HESS * (1.0 + np.abs(points))
    nodes = [points]

    def node(*shifts):
        """Index of the stencil node at points shifted by (i, step) pairs."""
        out = points.copy()
        for i, step in shifts:
            out[:, i] += step
        nodes.append(out)
        return len(nodes) - 1

    grad_nodes = [(node((i, h_grad[:, i])), node((i, -h_grad[:, i])))
                  for i in range(n if order >= 1 else 0)]
    hess_nodes = {}
    for i in range(n if order >= 2 else 0):
        hi = h_hess[:, i]
        hess_nodes[i, i] = (node((i, hi)), node((i, -hi)))
        for j in range(i + 1, n):
            hj = h_hess[:, j]
            hess_nodes[i, j] = (node((i, hi), (j, hj)), node((i, hi), (j, -hj)),
                                node((i, -hi), (j, hj)), node((i, -hi), (j, -hj)))
    f = values(np.concatenate(nodes))
    entry = f.shape[1:]
    f = f.reshape((len(nodes), len(points)) + entry)
    pad = (1,) * len(entry)  # broadcasts a point's steps over its entries
    val = f[0]
    out = (val,)
    if order >= 1:
        grad = np.empty(points.shape + entry)
        h = h_grad.reshape(h_grad.shape + pad)
        for i, (plus, minus) in enumerate(grad_nodes):
            grad[:, i] = (f[plus] - f[minus]) / (2.0 * h[:, i])
        out += (grad,)
    if order >= 2:
        hess = np.empty(points.shape + (n,) + entry)
        squares = np.array([h**2 for h in h_hess.ravel().tolist()]).reshape(h_hess.shape + pad)
        for (i, j), k in hess_nodes.items():
            if i == j:
                second = f[k[0]] - 2.0 * val + f[k[1]]  # 2 * val overflows above 9e307
                redo = ~np.isfinite(second) & np.isfinite([f[k[0]], val, f[k[1]]]).all(axis=0)
                second[redo] = ((f[k[0]] - val) + (f[k[1]] - val))[redo]
                hess[:, i, i] = second / squares[:, i]
            else:
                step = (4.0 * h_hess[:, i] * h_hess[:, j]).reshape((len(points),) + pad)
                hess[:, i, j] = hess[:, j, i] = (f[k[0]] - f[k[1]] - f[k[2]] + f[k[3]]) / step
        out += (hess,)
    return out


class _FieldStack:
    """Several scalar fields on one chart, evaluated together at a stack
    of points as one compiled program; a field may appear more than once.

    A leaf is an :class:`ExprField` or an :class:`FDField` over one.  The
    leaves' ASTs compile on first use into one program that evaluates each
    distinct subexpression once per call and writes every position.  A
    stack with an ``FDField`` leaf is in finite-difference mode: its parts
    are central differences of the program's values, all stencil nodes in
    one order-0 call (:func:`_central_differences`); its other leaves are
    constants, whose differences are exact zeros.  Each part ends in
    ``shape``, the value shape its owner reads, by default one axis over
    the fields.
    """

    def __init__(self, fields, shape=None):
        self.fields = list(fields)
        self.shape = (len(self.fields),) if shape is None else shape
        self._fd = any(isinstance(f, FDField) for f in self.fields)
        self._asts = [(f.inner if isinstance(f, FDField) else f).ast for f in self.fields]
        self._program = None  # compile_batched(self._asts), built on first use

    def __call__(self, points, order: int) -> tuple:
        """The parts up to ``order`` at points already an (N, dim) float
        array on the fields' chart: values (N, *shape), grads (N, dim,
        *shape), hess (N, dim, dim, *shape), third (N, dim, dim, dim,
        *shape)."""
        with np.errstate(all="ignore"):
            return self.at(order)(points)

    def at(self, order: int):
        """:meth:`__call__` at ``order`` as a function of the points, no errstate."""
        if self._program is None:
            self._program = exprlang.compile_batched(self._asts, self.shape)
        if self._fd:
            values = self._program.at(0)
            return lambda x: _central_differences(lambda nodes: values(nodes)[0], x, order)
        return self._program.at(order)


def _as_points(points, dim: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ContractViolation(f"points have shape {points.shape}, need (N, {dim})")
    return points


def make_scalar(source, dim: int, mode: str = "jet") -> ScalarField:
    """Build a leaf field from text/AST/number, honouring the derivative mode."""
    if isinstance(source, ScalarField):
        return source
    if isinstance(source, (int, float)):
        return ExprField(exprlang.Const(float(source)), dim)
    ast = exprlang.parse(source, dim) if isinstance(source, str) else source
    leaf = ExprField(ast, dim)
    return FDField(leaf) if mode == "fd" else leaf


# -- metric fields ----------------------------------------------------


class MetricField(Field):
    """Symmetric (0,2) field; only entries with i <= j are stored.  Its
    parts are g (N, n, n), dg (N, n, n, n) with dg[p, i, j, k] the i-th
    partial of g_jk at point p, d2g[p, a, i, j, k] = d_a d_i g_jk, and
    d3g."""

    label = "g"
    max_order = 3

    def __init__(self, dim: int, entries):
        self.dim = dim
        self._entries = {}
        for i in range(dim):
            for j in range(i, dim):
                e = entries[i][j]
                if not isinstance(e, ScalarField):
                    raise ContractViolation("metric entries must be scalar fields")
                self._entries[(i, j)] = e
        # every entry (i, j) in row-major order, so the program writes g whole
        self._stack = _FieldStack([self.entry(i, j) for i in range(dim) for j in range(dim)],
                                  (dim, dim))

    @classmethod
    def from_exprs(cls, rows, dim: int, mode: str = "jet") -> "MetricField":
        fields = [
            [make_scalar(rows[i][j], dim, mode) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(dim, fields)

    def entry(self, i: int, j: int) -> ScalarField:
        return self._entries[(i, j) if i <= j else (j, i)]

    def entries(self):
        """(label, index) pairs of the upper entries, for derivative cross-checks."""
        return [(f"{self.label}_{i + 1}{j + 1}", (i, j))
                for i in range(self.dim) for j in range(i, self.dim)]


# -- connection fields ------------------------------------------------


class ConnectionField(Field):
    """Coefficients Gamma^k_ij with the derivative direction in slot i.
    Its parts are Gamma[p, k, i, j], dGamma[p, a, k, i, j] = d_a
    Gamma^k_ij and d2Gamma[p, a, b, k, i, j] = d_a d_b Gamma^k_ij."""

    max_order = 2

    def entries(self):
        """(label, index) pairs of every coefficient, for derivative cross-checks."""
        n = self.dim
        return [(f"Gamma^{k + 1}_{i + 1}{j + 1}", (k, i, j))
                for k in range(n) for i in range(n) for j in range(n)]


class ExprConnection(ConnectionField):
    max_order = 3

    def __init__(self, dim: int, coeff_sources, mode: str = "jet"):
        self.dim = dim
        fields = [
            [
                [make_scalar(coeff_sources[k][i][j], dim, mode) for j in range(dim)]
                for i in range(dim)
            ]
            for k in range(dim)
        ]
        self._stack = _coefficient_stack(fields, dim)

    @classmethod
    def zero(cls, dim: int) -> "ExprConnection":
        rows = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
        return cls(dim, rows)


class MetricConnection(ConnectionField):
    """A connection whose parts up to ``len(g_parts) - 2``, ``_parts(points,
    g_parts, ginv)``, follow from its ``metric``'s parts at checked points
    and the inverse of g there."""

    def _batch(self, points, order):
        # the metric's batch, whose points ``batch`` has checked already
        g_parts = self.metric._shared_batch(points, order + 1)
        return self._parts(points, g_parts, inverse(g_parts[0]))


def _parts_and_inverse(conn, metric, points, g_parts, ginv=None) -> tuple:
    """(parts of ``conn`` up to ``len(g_parts) - 2``, g^-1) at checked points
    from the parts of ``metric``, inverting g unless ginv is given: a ``conn``
    derived from ``metric`` takes both, any other evaluates its batch first."""
    derived = isinstance(conn, MetricConnection) and conn.metric is metric
    parts = None if derived else conn.batch(points, len(g_parts) - 2)
    ginv = inverse(g_parts[0]) if ginv is None else ginv
    if derived:
        with np.errstate(all="ignore"):  # as in ``batch``
            parts = conn._parts(points, g_parts, ginv)
    return parts, ginv


class LeviCivitaConnection(MetricConnection):
    """Metric connection solved from the standard first-derivative formula."""

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.dim = metric.dim

    def _parts(self, points, g_parts, ginv):
        return _levi_civita(g_parts, ginv)


def _levi_civita(g_parts, ginv):
    """Christoffel parts (Gamma, dGamma, d2Gamma), one fewer than the
    metric parts ``g_parts`` = (g, dg, ...), from those and the inverse
    ginv of g; dg[p, i, j, k] is the i-th partial of g_jk, d2g[p, a, i, j,
    k] = d_a d_i g_jk, and so on.

    Gamma = 1/2 g^-1 w with w the Koszul combination of dg, so its
    partials are those of a solution (:func:`_solution_parts`); dGamma =
    1/2 (d(g^-1) w + g^-1 dw) with d(g^-1) = -g^-1 dg g^-1, that is
    g^-1 (1/2 dw - dg Gamma).
    """
    gamma = 0.5 * _apply(ginv, _koszul(g_parts[1]))
    return (gamma,) if len(g_parts) == 2 else _solution_parts(
        ginv, g_parts[1:], gamma, [0.5 * _koszul(d) for d in g_parts[2:]])


def _koszul(dg) -> np.ndarray:
    """w[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij from
    dg[..., i, j, l] = d_i g_jl; leading axes are kept."""
    lji = dg.swapaxes(-1, -3)  # lji[..., l, j, i] = dg[..., i, j, l]
    return lji.swapaxes(-1, -2) + lji - dg


def _apply(ginv, rhs) -> np.ndarray:
    """g^-1 rhs for the inverses ginv (N, n, n) and rhs (N, n, ...)."""
    npts, n = rhs.shape[0], rhs.shape[1]
    return (ginv @ rhs.reshape(npts, n, math.prod(rhs.shape[2:]))).reshape(rhs.shape)


def _lower(gamma, g) -> np.ndarray:
    """[..., i, j, k] = sum_l Gamma^l_ij g_lk by matmul; leading axes broadcast."""
    n = g.shape[-1]
    out = np.swapaxes(gamma.reshape(gamma.shape[:-2] + (n * n,)), -1, -2) @ g
    return out.reshape(out.shape[:-2] + (n, n, n))


def _solution_parts(ginv, dg_parts, x, rhs_parts) -> tuple:
    """Parts (x, dx, d2x) of the solution x = g^-1 b (N, n, ...), one more
    than ``rhs_parts``, the partials (db, d2b) of b, holds.

    ``ginv`` is g^-1, ``dg_parts`` = (dg, d2g) the partials of g.  A
    derivative axis follows the point axis, as in dg.  The rule d(A^-1 b)
    = A^-1 (db - dA A^-1 b) gives d_a x = g^-1 (d_a b - d_a g x), and once
    more d_a d_b x = g^-1 (d_a d_b b - d_a d_b g x - d_a g d_b x - d_b g d_a x).
    """
    if not rhs_parts:
        return (x,)
    npts, n = x.shape[0], x.shape[1]
    dg, d_rhs = dg_parts[0], rhs_parts[0]
    dim, cols = dg.shape[1], math.prod(x.shape[2:])
    flat = x.reshape(npts, 1, n, cols)
    t = d_rhs.reshape(npts, dim, n, cols) - dg @ flat
    dx = np.swapaxes(_apply(ginv, np.swapaxes(t, 1, 2)), 1, 2)        # (N, a, n, m)
    if len(rhs_parts) == 1:
        return x, dx.reshape(d_rhs.shape)
    d2g, d2_rhs = dg_parts[1], rhs_parts[1]
    cross = dg[:, :, None] @ dx[:, None]                              # [p, a, b] = d_a g d_b x
    t2 = (d2_rhs.reshape(npts, dim, dim, n, cols) - d2g @ flat[:, None]
          - cross - np.swapaxes(cross, 1, 2))
    d2x = _apply(ginv, t2.transpose(0, 3, 1, 2, 4)).transpose(0, 2, 3, 1, 4)
    return x, dx.reshape(d_rhs.shape), d2x.reshape(d2_rhs.shape)


class DualConnection(ConnectionField):
    """Connection solved from the metric duality relation."""

    max_order = 1

    def __init__(self, conn: ConnectionField, metric: MetricField):
        self.base = conn
        self.metric = metric
        self.dim = conn.dim

    def _batch(self, points, order):
        g_parts = self.metric.batch(points, order + 1)
        return _dual(g_parts, *_parts_and_inverse(self.base, self.metric, points, g_parts))


def _dual(g_parts, gamma_parts, ginv=None) -> tuple:
    """Parts of the dual coefficients from the duality relation
    d_i g_jk = sum_l Gamma^l_ij g_lk + sum_l dual Gamma^l_ik g_jl, as
    many as ``gamma_parts`` = (Gamma, dGamma) has, from one more metric
    part in ``g_parts`` = (g, dg, d2g), laid out as in :func:`_levi_civita`,
    and g^-1 (inverted here if not given); the partials are those of the
    solved system (:func:`_solution_parts`).
    """
    g, dg = g_parts[:2]
    gamma, ginv = gamma_parts[0], inverse(g) if ginv is None else ginv
    # rhs[p, j, i, k] = d_i g_jk - sum_l Gamma^l_ij g_lk
    dual = _apply(ginv, np.swapaxes(dg - _lower(gamma, g), 1, 2))
    d_rhs = ()
    if len(gamma_parts) > 1:
        # d_a rhs[p, a, j, i, k]
        d_rhs = (np.swapaxes(g_parts[2] - _lower(gamma_parts[1], g[:, None])
                             - _lower(gamma[:, None], dg), 2, 3),)
    return _solution_parts(ginv, g_parts[1:], dual, d_rhs)


class AlphaConnection(MetricConnection):
    """One-parameter family: Levi-Civita minus alpha/2 times the raised
    cubic tensor supplied as scalar fields."""

    def __init__(self, metric: MetricField, cubic_fields, alpha: float):
        self.metric = metric
        self.dim = metric.dim
        self.alpha = float(alpha)
        self._cubic_stack = _coefficient_stack(cubic_fields, self.dim)  # [l][i][j], symmetric

    def _parts(self, points, g_parts, ginv):
        lc = _levi_civita(g_parts, ginv)
        if self.alpha == 0.0:
            return lc
        c = self._cubic_stack.at(len(g_parts) - 2)(points)
        raised = _solution_parts(ginv, g_parts[1:], _apply(ginv, c[0]), c[1:])
        return tuple(a - b * (0.5 * self.alpha) for a, b in zip(lc, raised))


class SumConnection(ConnectionField):
    """Coefficient-wise sum, used for perturbed fixtures."""

    def __init__(self, base: ConnectionField, delta: ConnectionField):
        if base.dim != delta.dim:
            raise ContractViolation("connection dimension mismatch")
        self.terms = (base, delta)
        self.dim = base.dim

    def _batch(self, points, order):
        a, b = (term.batch(points, order) for term in self.terms)
        return tuple(x + y for x, y in zip(a, b))


def _coefficient_stack(fields, dim: int) -> _FieldStack:
    """Stack of a nested n x n x n list of scalar fields, in [k][i][j]
    order, whose parts are [p, (a, ...), k, i, j]."""
    return _FieldStack([f for mid in fields for row in mid for f in row], (dim,) * 3)


# -- aggregates -------------------------------------------------------


@dataclass
class Space:
    """A chart together with its metric and connection."""

    chart: ChartedManifold
    metric: MetricField
    conn: ConnectionField

    @property
    def dim(self) -> int:
        return self.chart.dim
