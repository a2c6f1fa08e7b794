"""Charted manifolds and the scalar/metric/connection field layer.

Every geometric quantity is a field evaluable as a jet at a point, so
derived objects (inverse metrics, connection coefficients, projectors)
stay differentiable to whatever order the leaf expressions support.
Scalar, metric and connection fields also have one batched float entry,
``batch(points, order)``, that evaluates at a whole (N, n) stack of points
in one call: scalar fields and metrics give values with their first (and,
at order 2, second) partials; connections give Gamma at order 0 and
(Gamma, dGamma) at order 1.  Fields without a native batched form stack
their per-point results.
Finite-difference mode swaps the leaf evaluation for central differences
while leaving all derived algebra untouched, giving an independent path
through every check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import ContractViolation
from .jets import Jet
from .linalg import jet_inverse, jet_solve, jet_values, solve_linear

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

    def contains(self, point) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self.box))

    def center(self) -> tuple:
        return tuple(0.5 * (lo + hi) for lo, hi in self.box)


# -- scalar fields ----------------------------------------------------


class ScalarField:
    """Anything evaluable as a jet; subclasses set ``dim`` and ``_jets``."""

    dim: int

    def jets(self, point, order: int) -> Jet:
        point = tuple(float(x) for x in point)
        if len(point) != self.dim:
            raise ContractViolation(f"point has {len(point)} coordinates, field needs {self.dim}")
        return self._jets(point, order)

    def value(self, point) -> float:
        return self.jets(point, 0).value

    def batch(self, points, order: int = 1):
        """(value (N,), grad (N, dim)) at a stack of points (N, dim);
        order 2 adds hess (N, dim, dim)."""
        return self._batch(_as_points(points, self.dim), order)

    def _batch(self, points, order):
        jets = [self._jets(tuple(p), order) for p in points.tolist()]
        parts = (_stack([j.value for j in jets], ()), _stack([j.grad for j in jets], (self.dim,)))
        if order > 1:
            parts += (_stack([j.hess for j in jets], (self.dim, self.dim)),)
        return parts


class ExprField(ScalarField):
    def __init__(self, ast, dim: int):
        self.ast = ast
        self.dim = dim
        self._compiled = None  # compile_batched([ast]), built on first use

    @classmethod
    def parse(cls, text: str, dim: int, bundle: bool = False) -> "ExprField":
        return cls(exprlang.parse(text, dim, bundle=bundle), dim)

    def _jets(self, point, order):
        return exprlang.eval_jet(self.ast, point, order)

    def _batch(self, points, order):
        if self._compiled is None:
            self._compiled = exprlang.compile_batched([self.ast])
        return tuple(part[..., 0] for part in self._compiled(points, order))

    def __repr__(self):
        return f"ExprField({exprlang.to_text(self.ast)!r})"


class FuncField(ScalarField):
    """Derived scalar field from a closure ``fn(point, order) -> Jet``."""

    def __init__(self, dim: int, fn, name: str = "derived"):
        self.dim = dim
        self._fn = fn
        self.name = name
        self._cache = {}

    def _jets(self, point, order):
        key = (point, order)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._fn(point, order)
        return hit

    def __repr__(self):
        return f"FuncField({self.name})"


class ConstField(ScalarField):
    def __init__(self, value: float, dim: int):
        self.dim = dim
        self._value = float(value)

    def _jets(self, point, order):
        return Jet.constant(self._value, self.dim, order)

    def _batch(self, points, order):
        parts = (np.full(len(points), self._value), np.zeros(points.shape))
        if order > 1:
            parts += (np.zeros(points.shape + (self.dim,)),)
        return parts


class FDField(ScalarField):
    """Central-difference wrapper around another field's values.

    Supports jet orders 0..2; the step scales with the coordinate size.
    """

    def __init__(self, inner: ScalarField):
        self.inner = inner
        self.dim = inner.dim

    def _jets(self, point, order):
        if order > 2:
            raise ContractViolation(
                "finite-difference mode provides derivatives up to order 2"
            )
        f = self.inner.value
        n = self.dim
        val = f(point)
        grad = hess = None
        if order >= 1:
            grad = np.empty(n)
            for i in range(n):
                h = FD_STEP_GRAD * (1.0 + abs(point[i]))
                grad[i] = (f(_shift(point, i, h)) - f(_shift(point, i, -h))) / (2.0 * h)
        if order >= 2:
            hess = np.empty((n, n))
            steps = [FD_STEP_HESS * (1.0 + abs(point[i])) for i in range(n)]
            for i in range(n):
                hi = steps[i]
                hess[i, i] = (f(_shift(point, i, hi)) - 2.0 * val + f(_shift(point, i, -hi))) / hi**2
                for j in range(i + 1, n):
                    hj = steps[j]
                    pp = f(_shift(_shift(point, i, hi), j, hj))
                    pm = f(_shift(_shift(point, i, hi), j, -hj))
                    mp = f(_shift(_shift(point, i, -hi), j, hj))
                    mm = f(_shift(_shift(point, i, -hi), j, -hj))
                    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * hi * hj)
        return Jet(n, order, val, grad, hess, None)


class _FieldStack:
    """Order-1 values of several scalar fields on one chart, evaluated
    together at a stack of points.

    When every field is an expression or a constant, their ASTs compile on
    first use into one program that evaluates each distinct subexpression
    once per call; otherwise each field's ``batch`` is stacked.
    """

    def __init__(self, fields, dim: int):
        self.fields = list(fields)
        self.dim = dim
        self._asts = [_leaf_ast(f) for f in self.fields]
        self._compiled = None

    def __call__(self, points, order: int = 1):
        """(values (N, E), grads (N, dim, E)) for the E fields; order 2
        adds hess (N, dim, dim, E)."""
        points = _as_points(points, self.dim)
        if None in self._asts:
            parts = [f.batch(points, order) for f in self.fields]
            return tuple(np.stack(part, axis=-1) for part in zip(*parts))
        if self._compiled is None:
            self._compiled = exprlang.compile_batched(self._asts)
        return self._compiled(points, order)

    def values(self, points) -> np.ndarray:
        """Values (N, E) alone; fields that are neither expressions nor
        constants (finite differences, derived fields) skip their gradients."""
        if None not in self._asts:
            return self(points)[0]
        points = _as_points(points, self.dim)
        return _stack([[f.value(p) for f in self.fields] for p in points.tolist()],
                      (len(self.fields),))


def _leaf_ast(fld):
    if isinstance(fld, ExprField):
        return fld.ast
    if isinstance(fld, ConstField):
        return exprlang.Const(fld._value)
    return None


def _as_points(points, dim: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ContractViolation(f"points have shape {points.shape}, need (N, {dim})")
    return points


def _upper_slots(dim: int) -> np.ndarray:
    """slots[i, j]: position of entry (min(i, j), max(i, j)) in the
    row-major list of the upper triangle."""
    upper = [(i, j) for i in range(dim) for j in range(i, dim)]
    return np.array([[upper.index((min(i, j), max(i, j))) for j in range(dim)]
                     for i in range(dim)])


def _stack(rows, shape) -> np.ndarray:
    """Per-point results as one array (N, *shape), also for N = 0."""
    return np.array(rows, dtype=float).reshape((len(rows),) + shape)


def _shift(point, i, h):
    out = list(point)
    out[i] += h
    return tuple(out)


def make_scalar(source, dim: int, mode: str = "jet", bundle: bool = False) -> ScalarField:
    """Build a leaf field from text/AST/number, honouring the derivative mode."""
    if isinstance(source, ScalarField):
        return source
    if isinstance(source, (int, float)):
        return ConstField(float(source), dim)
    ast = exprlang.parse(source, dim, bundle=bundle) if isinstance(source, str) else source
    leaf = ExprField(ast, dim)
    return FDField(leaf) if mode == "fd" else leaf


# -- metric fields ----------------------------------------------------


class MetricField:
    """Symmetric (0,2) field; only entries with i <= j are stored."""

    def __init__(self, dim: int, entries):
        self.dim = dim
        self._entries = {}
        for i in range(dim):
            for j in range(i, dim):
                e = entries[i][j]
                if not isinstance(e, ScalarField):
                    raise ContractViolation("metric entries must be scalar fields")
                self._entries[(i, j)] = e
        self._stack = _FieldStack(self._entries.values(), dim)
        self._slots = _upper_slots(dim)  # stack position of entry (i, j)
        self._jet_cache = {}
        self._inv_cache = {}

    @classmethod
    def from_exprs(cls, rows, dim: int, mode: str = "jet", bundle: bool = False) -> "MetricField":
        fields = [
            [make_scalar(rows[i][j], dim, mode, bundle) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(dim, fields)

    def entry(self, i: int, j: int) -> ScalarField:
        return self._entries[(i, j) if i <= j else (j, i)]

    def entry_fields(self):
        """(label, field) pairs for derivative cross-checks."""
        return [(f"g_{i + 1}{j + 1}", e) for (i, j), e in sorted(self._entries.items())]

    def matrix_jets(self, point, order: int):
        point = tuple(float(x) for x in point)
        key = (point, order)
        hit = self._jet_cache.get(key)
        if hit is None:
            n = self.dim
            hit = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    jet = self.entry(i, j).jets(point, order)
                    hit[i][j] = jet
                    hit[j][i] = jet
            self._jet_cache[key] = hit
        return hit

    def values(self, point) -> np.ndarray:
        return jet_values(self.matrix_jets(point, 0))

    def inverse_jets(self, point, order: int):
        point = tuple(float(x) for x in point)
        key = (point, order)
        hit = self._inv_cache.get(key)
        if hit is None:
            hit = self._inv_cache[key] = jet_inverse(self.matrix_jets(point, order))
        return hit

    def partial_values(self, point):
        """(g, dg) with dg[i, j, k] the i-th partial of g_jk."""
        jets = self.matrix_jets(point, 1)
        n = self.dim
        g = jet_values(jets)
        dg = np.empty((n, n, n))
        for j in range(n):
            for k in range(j, n):
                dg[:, j, k] = jets[j][k].grad
                dg[:, k, j] = dg[:, j, k]
        return g, dg

    def batch(self, points, order: int = 1):
        """(g (N, n, n), dg (N, n, n, n)) at a stack of points, with
        dg[p, i, j, k] the i-th partial of g_jk at point p; order 2 adds
        d2g (N, n, n, n, n), d2g[p, a, i, j, k] = d_a d_i g_jk."""
        _check_order(order, (1, 2))
        return tuple(part[..., self._slots] for part in self._stack(points, order))


class DerivedMetric(MetricField):
    """Metric whose full jet matrix is produced by a closure."""

    def __init__(self, dim: int, matrix_fn, label: str = "derived"):
        self.dim = dim
        self._matrix_fn = matrix_fn
        self.label = label
        self._slots = _upper_slots(dim)
        self._jet_cache = {}
        self._inv_cache = {}

    def entry(self, i, j):
        return FuncField(
            self.dim,
            lambda point, order, i=i, j=j: self.matrix_jets(point, order)[i][j],
            name=f"{self.label}_{i + 1}{j + 1}",
        )

    def entry_fields(self):
        return [
            (f"{self.label}_{i + 1}{j + 1}", self.entry(i, j))
            for i in range(self.dim)
            for j in range(i, self.dim)
        ]

    def matrix_jets(self, point, order: int):
        point = tuple(float(x) for x in point)
        key = (point, order)
        hit = self._jet_cache.get(key)
        if hit is None:
            hit = self._jet_cache[key] = self._matrix_fn(point, order)
        return hit

    def batch(self, points, order: int = 1):
        _check_order(order, (1, 2))
        n = self.dim
        mats = [self.matrix_jets(p, order) for p in _as_points(points, n).tolist()]
        parts = (_stack([[[e.value for e in row] for row in m] for m in mats], (n, n)),)
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        for k, attr in enumerate(("grad", "hess")[:order], 1):
            tri = _stack([[getattr(m[i][j], attr) for i, j in upper] for m in mats],
                         (len(upper),) + (n,) * k)
            parts += (np.moveaxis(tri, 1, -1)[..., self._slots],)
        return parts


# -- connection fields ------------------------------------------------


class ConnectionField:
    """Coefficients Gamma^k_ij with the derivative direction in slot i."""

    dim: int

    def __init__(self):
        self._coeff_cache = {}

    def coeff_jets(self, point, order: int):
        point = tuple(float(x) for x in point)
        key = (point, order)
        hit = self._coeff_cache.get(key)
        if hit is None:
            hit = self._coeff_cache[key] = self._coeffs(point, order)
        return hit

    def values(self, point) -> np.ndarray:
        return jet_values(self.coeff_jets(point, 0))

    def batch(self, points, order: int = 0):
        """Gamma[p, k, i, j] at a stack of points (N, dim); order 1 gives
        (Gamma, dGamma) with dGamma[p, a, k, i, j] = d_a Gamma^k_ij."""
        _check_order(order, (0, 1))
        return self._batch(_as_points(points, self.dim), order)

    def _batch(self, points, order):
        n = self.dim
        gamma = _stack([self.values(p) for p in points], (n, n, n))
        if order == 0:
            return gamma
        return gamma, _stack([self.d_values(p) for p in points], (n, n, n, n))

    def d_values(self, point) -> np.ndarray:
        """dG[l, k, i, j] = l-th partial of Gamma^k_ij."""
        jets = self.coeff_jets(point, 1)
        n = self.dim
        out = np.empty((n, n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[:, k, i, j] = jets[k][i][j].grad
        return out

    def entry_fields(self):
        out = []
        for k in range(self.dim):
            for i in range(self.dim):
                for j in range(self.dim):
                    out.append(
                        (
                            f"Gamma^{k + 1}_{i + 1}{j + 1}",
                            FuncField(
                                self.dim,
                                lambda point, order, k=k, i=i, j=j: self.coeff_jets(point, order)[k][i][j],
                                name=f"Gamma^{k + 1}_{i + 1}{j + 1}",
                            ),
                        )
                    )
        return out


class ExprConnection(ConnectionField):
    def __init__(self, dim: int, coeff_sources, mode: str = "jet", bundle: bool = False):
        super().__init__()
        self.dim = dim
        self._fields = [
            [
                [make_scalar(coeff_sources[k][i][j], dim, mode, bundle) for j in range(dim)]
                for i in range(dim)
            ]
            for k in range(dim)
        ]
        self._stack = _coefficient_stack(self._fields, dim)

    @classmethod
    def zero(cls, dim: int) -> "ExprConnection":
        rows = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
        return cls(dim, rows)

    def _coeffs(self, point, order):
        return [
            [[self._fields[k][i][j].jets(point, order) for j in range(self.dim)] for i in range(self.dim)]
            for k in range(self.dim)
        ]

    def _batch(self, points, order):
        return _coefficient_values(self._stack, points, order)


class LeviCivitaConnection(ConnectionField):
    """Metric connection solved from the standard first-derivative formula."""

    def __init__(self, metric: MetricField):
        super().__init__()
        self.metric = metric
        self.dim = metric.dim

    def _coeffs(self, point, order):
        n = self.dim
        g = self.metric.matrix_jets(point, order + 1)
        dg = [[[g[j][k].dvar(i) for k in range(n)] for j in range(n)] for i in range(n)]
        ginv = self.metric.inverse_jets(point, order)
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                w = [dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in range(n)]
                for k in range(n):
                    acc = ginv[k][0] * w[0]
                    for l in range(1, n):
                        acc = acc + ginv[k][l] * w[l]
                    half = acc * 0.5
                    out[k][i][j] = half
                    out[k][j][i] = half
        return out

    def values(self, point) -> np.ndarray:
        g, dg = self.metric.partial_values(point)
        return _levi_civita(g[None], dg[None])[0]

    def _batch(self, points, order):
        return _levi_civita(*self.metric.batch(points, order + 1))


def _levi_civita(g, dg, d2g=None):
    """Christoffels Gamma[p, k, i, j] from metric values g (N, n, n) and
    partials dg (N, n, n, n), dg[p, i, j, k] the i-th partial of g_jk.

    With second partials d2g (N, n, n, n, n), d2g[p, a, i, j, k] =
    d_a d_i g_jk, returns (Gamma, dGamma): Gamma = 1/2 g^-1 w with w the
    Koszul combination of dg, so dGamma = 1/2 (d(g^-1) w + g^-1 dw) with
    d(g^-1) = -g^-1 dg g^-1, that is g^-1 (1/2 dw - dg Gamma).
    """
    gamma = 0.5 * _solve(g, _koszul(dg))
    if d2g is None:
        return gamma
    return gamma, _solution_partials(g, dg, gamma, 0.5 * _koszul(d2g))


def _koszul(dg) -> np.ndarray:
    """w[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij from
    dg[..., i, j, l] = d_i g_jl; leading axes are kept."""
    lead = tuple(range(dg.ndim - 3))
    i, j, l = dg.ndim - 3, dg.ndim - 2, dg.ndim - 1
    w = dg + dg.transpose(lead + (j, i, l)) - dg.transpose(lead + (j, l, i))
    return w.transpose(lead + (l, i, j))


def _solve(g, rhs) -> np.ndarray:
    """g^-1 rhs for a stack g (N, n, n) and rhs (N, n, ...)."""
    npts, n = g.shape[0], g.shape[1]
    return solve_linear(g, rhs.reshape(npts, n, -1)).reshape(rhs.shape)


def _inverse(a) -> np.ndarray:
    """Inverses of a stack of square matrices (N, k, k)."""
    return solve_linear(a, np.broadcast_to(np.eye(a.shape[-1]), a.shape))


def _solution_partials(g, dg, x, d_rhs) -> np.ndarray:
    """Partials of the solution x = g^-1 b (N, n, ...) from those of b,
    d_rhs[p, a] = d_a b: d_a x = g^-1 (d_a b - d_a g x), the forward-mode
    rule d(A^-1 b) = A^-1 (db - dA A^-1 b).  dg[p, a] = d_a g; the result
    has the derivative axis second, like d_rhs."""
    npts, n = x.shape[0], x.shape[1]
    flat = x.reshape(npts, 1, n, -1)
    t = d_rhs.reshape(npts, -1, n, flat.shape[-1]) - dg @ flat
    dx = _solve(g, np.swapaxes(t, 1, 2))
    return np.swapaxes(dx, 1, 2).reshape(d_rhs.shape)


class DualConnection(ConnectionField):
    """Connection solved from the metric duality relation."""

    def __init__(self, conn: ConnectionField, metric: MetricField):
        super().__init__()
        self.base = conn
        self.metric = metric
        self.dim = conn.dim

    def _coeffs(self, point, order):
        n = self.dim
        g = self.metric.matrix_jets(point, order + 1)
        gamma = self.base.coeff_jets(point, order)
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            # rhs[j][k] = d_i g_jk - sum_l Gamma^l_ij g_lk
            rhs = [[None] * n for _ in range(n)]
            for j in range(n):
                for k in range(n):
                    acc = g[j][k].dvar(i)
                    for l in range(n):
                        acc = acc - gamma[l][i][j] * _drop(g[l][k], order)
                    rhs[j][k] = acc
            mat = [[_drop(g[a][b], order) for b in range(n)] for a in range(n)]
            sol = jet_solve(mat, rhs)  # sol[l][k] = dual Gamma^l_ik
            for l in range(n):
                for k in range(n):
                    out[l][i][k] = sol[l][k]
        return out

    def values(self, point) -> np.ndarray:
        g, dg = self.metric.partial_values(point)
        return _dual(g[None], dg[None], self.base.values(point)[None])[0]

    def _batch(self, points, order):
        if order == 0:
            return _dual(*self.metric.batch(points), self.base.batch(points))
        g, dg, d2g = self.metric.batch(points, 2)
        return _dual(g, dg, *self.base.batch(points, 1), d2g)


def _dual(g, dg, gamma, dgamma=None, d2g=None):
    """Dual coefficients from the duality relation
    d_i g_jk = sum_l Gamma^l_ij g_lk + sum_l dual Gamma^l_ik g_jl, with a
    leading point axis on g (N, n, n), dg (N, n, n, n) and gamma (N, n, n, n).

    With the partials dgamma (N, n, n, n, n) of gamma and d2g of g (laid
    out as in :func:`_levi_civita`), returns (dual, d dual), the partials
    of the solved system by :func:`_solution_partials`.
    """
    # rhs[p, j, i, k] = d_i g_jk - sum_l Gamma^l_ij g_lk
    rhs = np.transpose(dg, (0, 2, 1, 3)) - np.einsum("plij,plk->pjik", gamma, g)
    dual = _solve(g, rhs)
    if dgamma is None:
        return dual
    # d_a rhs[p, a, j, i, k]
    d_rhs = (np.transpose(d2g, (0, 1, 3, 2, 4)) - np.einsum("palij,plk->pajik", dgamma, g)
             - np.einsum("plij,palk->pajik", gamma, dg))
    return dual, _solution_partials(g, dg, dual, d_rhs)


def _drop(jet: Jet, order: int) -> Jet:
    """Truncate a jet to a lower order (same point)."""
    if jet.order == order:
        return jet
    if jet.order < order:
        raise ContractViolation("cannot raise jet order by truncation")
    return Jet(
        jet.dim,
        order,
        jet.value,
        jet.grad if order >= 1 else None,
        jet.hess if order >= 2 else None,
        jet.third if order >= 3 else None,
    )


class AlphaConnection(ConnectionField):
    """One-parameter family: Levi-Civita minus alpha/2 times the raised
    cubic tensor supplied as scalar fields."""

    def __init__(self, metric: MetricField, cubic_fields, alpha: float):
        super().__init__()
        self.metric = metric
        self.dim = metric.dim
        self.alpha = float(alpha)
        self._cubic = cubic_fields  # [l][i][j] scalar fields, symmetric
        self._cubic_stack = _coefficient_stack(cubic_fields, self.dim)
        self._lc = LeviCivitaConnection(metric)

    def _coeffs(self, point, order):
        n = self.dim
        lc = self._lc.coeff_jets(point, order)
        if self.alpha == 0.0:
            return lc
        ginv = self.metric.inverse_jets(point, order)
        c = [[[self._cubic[l][i][j].jets(point, order) for j in range(n)] for i in range(n)] for l in range(n)]
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    acc = ginv[k][0] * c[0][i][j]
                    for l in range(1, n):
                        acc = acc + ginv[k][l] * c[l][i][j]
                    out[k][i][j] = lc[k][i][j] - acc * (0.5 * self.alpha)
        return out

    def _batch(self, points, order):
        parts = self.metric.batch(points, order + 1)
        lc = _levi_civita(*parts)
        if self.alpha == 0.0:
            return lc
        g, dg = parts[0], parts[1]
        ginv = _inverse(g)
        c = _coefficient_values(self._cubic_stack, points, order)
        if order == 0:
            return lc - np.einsum("pkl,plij->pkij", ginv, c) * (0.5 * self.alpha)
        raised = np.einsum("pkl,plij->pkij", ginv, c[0])
        d_raised = _solution_partials(g, dg, raised, c[1])
        return lc[0] - raised * (0.5 * self.alpha), lc[1] - d_raised * (0.5 * self.alpha)


class SumConnection(ConnectionField):
    """Coefficient-wise sum, used for perturbed fixtures."""

    def __init__(self, base: ConnectionField, delta: ConnectionField):
        super().__init__()
        if base.dim != delta.dim:
            raise ContractViolation("connection dimension mismatch")
        self.parts = (base, delta)
        self.dim = base.dim

    def _coeffs(self, point, order):
        n = self.dim
        a = self.parts[0].coeff_jets(point, order)
        b = self.parts[1].coeff_jets(point, order)
        return [
            [[a[k][i][j] + b[k][i][j] for j in range(n)] for i in range(n)]
            for k in range(n)
        ]

    def _batch(self, points, order):
        a, b = (part.batch(points, order) for part in self.parts)
        return a + b if order == 0 else (a[0] + b[0], a[1] + b[1])


def _coefficient_stack(fields, dim: int) -> _FieldStack:
    """Stack of a nested n x n x n list of scalar fields, in [k][i][j] order."""
    return _FieldStack([f for mid in fields for row in mid for f in row], dim)


def _coefficient_values(stack: _FieldStack, points, order: int = 0):
    """Values [p, k, i, j] of a stack made by _coefficient_stack; order 1
    gives (values, partials [p, a, k, i, j])."""
    n = stack.dim
    if order == 0:
        values = stack.values(points)
        return values.reshape(len(values), n, n, n)
    values, grads = stack(points)
    return values.reshape(len(values), n, n, n), grads.reshape(len(values), n, n, n, n)


def _check_order(order: int, allowed) -> None:
    if order not in allowed:
        raise ContractViolation(f"batched order must be one of {allowed}, got {order}")


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
