"""Lifts of metrics, connections, and fields to the tangent bundle chart.

The bundle chart doubles the base coordinates: (x; u) with u the fiber
velocity.  Lifted objects are defined by frame rules (how they act on
vertical and horizontal lifts of base fields); the coordinate blocks
used here are derived from those rules and then machine-validated by
``defining_rule_residuals``, which is the oracle for every block.

Every lift is an array formula over a stack of bundle points (Yano &
Ishihara, *Tangent and Cotangent Bundles*, 1973), built from the base
batches (g, dg, ...) and (Gamma, dGamma, ...) at the projected points;
lifts in one stack build share those batches (:func:`fields.shared`).
The formulas are polynomial in u, so their partials on the bundle chart
follow from the base partials by the product rule: each quantity is
carried as its parts (value, d, d2, ...), part m with m derivative axes
after the point axis, and :func:`_product` multiplies parts, so each lift
is written once for every order.  A term of a partial is one batched
``@`` over the point axis: its subscripts become a transpose and reshape
to (points, kept, summed) @ (points, summed, kept), a plan cached per
subscript string, as are the terms of each part.  The value term stays
one ``np.einsum``, so every lifted value is the plain einsum's to the
bit: BLAS sums in another order, and fd stencils divide differences of
values by 2h, h about 1e-6, which magnifies a rounding change of a value
about 5e5-fold.  Summing the values through BLAS too moved
``fd_crosscheck`` on tangent_bundle_of:hyperbolic:2 (jet, seed 2) from
5.610256968892929e-06 to 5.610266084102787e-06, by 9.1e-12, where a
partial moves by rounding only.  A block matrix is written into one
array per part.  A lift declares the order it reaches, its
``max_order``: that of its base data, one less where it differentiates
them (the complete metric and both lifted connections); past it the lift
raises :class:`ContractViolation`.

Conventions: base connections are direction-first (nabla_{d_i} d_j =
Gamma^k_ij d_k) and the velocity contraction in the horizontal lift
sits in the direction slot, A^l_k = u^j Gamma^l_jk, which keeps
X^H = X^c - gamma(nabla X) an exact identity also for connections with
torsion.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import geometry
from .fields import (ChartedManifold, ConnectionField, DualConnection, ExprField, MetricField,
                     Space, _FieldStack)
from .submersion import SubmersionSetup, _amax, _cov_deriv, four_conditions_at, lemma_components

# -- parts: a quantity with its partials on the bundle chart -------------------


def _product(spec, a, b) -> tuple:
    """Parts of the product of the parts ``a`` and ``b``, whose values
    combine by the einsum ``spec`` over value subscripts ('lk,lj->kj'),
    as many parts as the shorter factor has.  Part m of the product is the
    Leibniz sum over the ways of sending each of its m derivative axes to
    one factor.  The value is one ``np.einsum``; each term of a partial is
    one batched ``@`` (:func:`_contract`)."""
    result = []
    for m in range(min(len(a), len(b))):
        contract = np.einsum if m == 0 else _contract
        total = 0.0
        for term, ka, kb in _leibniz_terms(spec, m):
            total = total + contract(term, a[ka], b[kb])
        result.append(total)
    return tuple(result)


@functools.lru_cache(maxsize=128)
def _leibniz_terms(spec: str, m: int) -> tuple:
    """The terms of part m of a product by ``spec``, in mask order: each
    its einsum subscripts and the parts of ``a`` and ``b`` it reads."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    axes = "ABC"[:m]
    terms = []
    for mask in range(2**m):
        da = "".join(c for k, c in enumerate(axes) if mask >> k & 1)
        db = "".join(c for k, c in enumerate(axes) if not mask >> k & 1)
        terms.append((f"p{da}{sa},p{db}{sb}->p{axes}{out}", len(da), len(db)))
    return tuple(terms)


@functools.lru_cache(maxsize=128)
def _matmul_plan(spec: str) -> tuple:
    """The einsum ``spec`` of two operands as one batched matmul, for
    subscripts that each sit in the output or in both operands, once per
    operand: the axis orders that bring the operands to (batch, kept,
    summed) and (batch, summed, kept), the number of batch, left-kept and
    summed axes, and the axis order that brings the product to ``spec``'s
    output."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    batch = [c for c in out if c in sa and c in sb]
    left = [c for c in out if c in sa and c not in sb]
    right = [c for c in out if c in sb and c not in sa]
    summed = [c for c in sa if c in sb and c not in out]
    return (tuple(map(sa.index, batch + left + summed)),
            tuple(map(sb.index, batch + summed + right)),
            len(batch), len(left), len(summed), tuple(map((batch + left + right).index, out)))


def _contract(spec, a, b) -> np.ndarray:
    """``np.einsum(spec, a, b)`` as one batched ``@`` (:func:`_matmul_plan`):
    the same products, summed in BLAS's order."""
    a_axes, b_axes, nb, nl, ns, out_axes = _matmul_plan(spec)
    a, b = a.transpose(a_axes), b.transpose(b_axes)
    lead, kept, summed = a.shape[:nb], a.shape[nb:nb + nl], a.shape[nb + nl:]
    right = b.shape[nb + ns:]
    prod = (a.reshape(lead + (math.prod(kept), math.prod(summed)))
            @ b.reshape(lead + (math.prod(summed), math.prod(right))))
    return prod.reshape(lead + kept + right).transpose(out_axes)


def _plus(a, b, sign=1.0) -> tuple:
    return tuple(x + sign * y for x, y in zip(a, b))


def _embed(base, n: int) -> tuple:
    """Parts with derivative axes over the base chart as parts on the
    bundle chart (x; u), where they do not vary with u."""
    out = []
    for m, part in enumerate(base):
        full = np.zeros(part.shape[:1] + (2 * n,) * m + part.shape[1 + m:])
        full[(slice(None),) + (slice(0, n),) * m] = part
        out.append(full)
    return tuple(out)


def _velocity(points, n: int, order: int) -> tuple:
    """Parts of the fiber coordinates u (N, n) of bundle points up to order."""
    du = np.zeros((len(points), 2 * n, n))
    du[:, n:] = np.eye(n)
    return ((points[:, n:], du) + tuple(np.zeros((len(points),) + (2 * n,) * m + (n,))
                                        for m in range(2, order + 1)))[:order + 1]


def _base_parts(base: Space, points, order: int):
    """Parts of the base metric g and of the velocity matrix
    A^l_k = u^j Gamma^l_jk at bundle points, on the bundle chart."""
    n = base.dim
    x = points[:, :n]
    # the connection first: one derived from the metric shares with this
    # build the metric batch one order higher, which holds the one asked next
    gamma = _embed(base.conn.batch(x, order), n)
    g = _embed(base.metric.batch(x, order), n)
    return g, _product("j,ljk->lk", _velocity(points, n, order), gamma)


def _transpose(a) -> tuple:
    return tuple(np.swapaxes(part, -1, -2) for part in a)


def _blocks(p, q, r, s=None) -> tuple:
    """Parts of the block matrix [[p, q], [r, s]], s zero when None, each
    part written into one new array."""
    out = []
    for m, (pm, qm, rm) in enumerate(zip(p, q, r)):
        k, l = pm.shape[-2:]
        full = np.empty(pm.shape[:-2] + (k + rm.shape[-2], l + qm.shape[-1]))
        full[..., :k, :l] = pm
        full[..., :k, l:] = qm
        full[..., k:, :l] = rm
        full[..., k:, l:] = 0.0 if s is None else s[m]
        out.append(full)
    return tuple(out)


# -- lifted metrics and connections ----------------------------------------------


class _LiftedMetric(MetricField):
    """A metric on the bundle chart given by an array formula, ``_batch``,
    over the base metric and connection; it reaches the order of both."""

    def __init__(self, base: Space):
        self.base = base
        self.dim = 2 * base.dim
        self.max_order = min(base.metric.max_order, base.conn.max_order)


class SasakiMetric(_LiftedMetric):
    """[[g + A^T g A, A^T g], [g A, g]]: g on horizontal and on vertical lifts."""

    label = "sasaki"

    def _batch(self, points, order):
        g, a = _base_parts(self.base, points, order)
        at_g = _product("lk,lj->kj", a, g)                    # (A^T g)_kj
        return _blocks(_plus(g, _product("kl,lj->kj", at_g, a)), at_g, _transpose(at_g), g)


class HorizontalMetric(_LiftedMetric):
    """[[g A + (g A)^T, g], [g, 0]]: g pairs horizontal with vertical lifts."""

    label = "horizontal"

    def _batch(self, points, order):
        g, a = _base_parts(self.base, points, order)
        ga = _product("il,lj->ij", g, a)
        return _blocks(_plus(_transpose(ga), ga), g, g)


class CompleteMetric(_LiftedMetric):
    """[[u^k d_k g, g], [g, 0]]; differentiates g, so one order below it."""

    label = "complete"

    def __init__(self, base: Space):
        super().__init__(base)
        self.max_order = base.metric.max_order - 1

    def _batch(self, points, order):
        n = self.base.dim
        base = self.base.metric.batch(points[:, :n], order + 1)
        g, dg = _embed(base[:-1], n), _embed(base[1:], n)
        return _blocks(_product("k,kij->ij", _velocity(points, n, order), dg), g, g)


class _LiftedConnection(ConnectionField):
    """Christoffels on the bundle chart with the base Gamma^k_ij in the xx
    block and in both mixed blocks of the u-rows; ``_u_row`` gives the
    u-rows of the xx block.  They differentiate Gamma, so they reach one
    order below the base connection."""

    def __init__(self, base_conn: ConnectionField, n: int):
        self.base_conn = base_conn
        self.n = n
        self.dim = 2 * n
        self.max_order = base_conn.max_order - 1

    def _batch(self, points, order):
        n = self.n
        base = self.base_conn.batch(points[:, :n], order + 1)
        gamma, dgamma = _embed(base[:-1], n), _embed(base[1:], n)
        u_row = self._u_row(_velocity(points, n, order), gamma, dgamma)
        out = []
        for c, t in zip(gamma, u_row):
            full = np.zeros(c.shape[:-3] + (2 * n,) * 3)
            full[..., :n, :n, :n] = c
            full[..., n:, :n, :n] = t
            full[..., n:, :n, n:] = c
            full[..., n:, n:, :n] = c
            out.append(full)
        return tuple(out)


class CompleteLiftConnection(_LiftedConnection):
    """Coefficients of the complete lift of a base connection."""

    def _u_row(self, u, gamma, dgamma):
        return _product("l,lkij->kij", u, dgamma)             # u^l d_l Gamma^k_ij


class HorizontalLiftConnection(_LiftedConnection):
    """Coefficients of the horizontal lift of a base connection.

    Carries torsion u^k R^l_{k i j} whenever the base has curvature, so
    it is kept separate from the statistical checks' assumptions.
    """

    def _u_row(self, u, gamma, dgamma):
        # u^m d_i Gamma^l_mj + u^k Gamma^m_kj Gamma^l_im - u^m Gamma^l_mk Gamma^k_ij
        a = _product("j,ljk->lk", u, gamma)
        t1 = _product("m,ilmj->lij", u, dgamma)
        return _plus(_plus(t1, _product("mj,lim->lij", a, gamma)),
                     _product("lk,kij->lij", a, gamma), -1.0)


class TangentBundle:
    """Chart, lifted metrics and connections over a base space, and the
    bundle projection as a submersion (Sasaki metric, complete lift)."""

    def __init__(self, base: Space, name: str | None = None):
        self.base = base
        n = base.dim
        self.n = n
        box = tuple(base.chart.box) + tuple((-1.0, 1.0) for _ in range(n))
        self.chart = ChartedManifold(name or f"tangent:{base.chart.name}", 2 * n, box, bundle=True)
        self.sasaki_metric = SasakiMetric(base)
        self.complete_metric = CompleteMetric(base)
        self.horizontal_metric = HorizontalMetric(base)
        self.complete_conn = CompleteLiftConnection(base.conn, n)
        self.horizontal_conn = HorizontalLiftConnection(base.conn, n)
        self.projection = [
            ExprField.parse(f"x{i+1}", 2 * n, bundle=True) for i in range(n)
        ]
        self.setup = SubmersionSetup(self.space("sasaki", "complete"), base, self.projection,
                                     phi=None, name=f"{self.chart.name}:sasaki:complete")

    def space(self, metric: str = "sasaki", conn: str = "complete") -> Space:
        metrics = {
            "sasaki": self.sasaki_metric,
            "complete": self.complete_metric,
            "horizontal": self.horizontal_metric,
        }
        conns = {"complete": self.complete_conn, "horizontal": self.horizontal_conn}
        return Space(self.chart, metrics[metric], conns[conn])


# -- lifts of functions and vector fields ----------------------------------


def _vector_lift(kind: str, field, u, a, n: int) -> tuple:
    """Parts of X^v, X^c or X^H (``kind`` "v", "c" or "h") on the bundle
    chart from the base parts (X, dX, ...) of a vector field, d[..., k, i]
    the k-th partial of X^i: X^v = (0; X), X^c = (X; u^j d_j X), one part
    fewer as it differentiates X, and X^H = X^c - gamma(nabla X) =
    (X; -A X) with the velocity matrix parts ``a``."""
    fe = _embed(field, n)
    if kind == "v":
        top, bottom = tuple(np.zeros_like(f) for f in fe), fe
    elif kind == "c":
        top, bottom = fe[:-1], _product("j,ji->i", u, _embed(field[1:], n))
    else:
        top, bottom = fe, tuple(-part for part in _product("ik,k->i", a, fe))
    return tuple(np.concatenate(pair, axis=-1) for pair in zip(top, bottom))


def _complete_function(f, u, n: int) -> tuple:
    """Parts of f^c = u^i d_i f on the bundle chart from the base parts
    (f, df, ...) of a function, one part fewer."""
    return _product("i,i->", u, _embed(f[1:], n))


def _base_cov(x, y, gamma) -> tuple:
    """Parts of nabla_X Y = X^i d_i Y^k + X^i Gamma^k_ij Y^j on the base chart."""
    return _plus(_product("i,ik->k", x, y[1:]),
                 _product("ki,i->k", _product("kij,j->ki", gamma, y), x))


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


def defining_rule_residuals(bundle: TangentBundle, points) -> dict:
    """Residual arrays of the frame-rule definitions at bundle points (N, 2n).

    This is the oracle for the coordinate blocks: every lifted metric
    and connection is tested against the rules that define it, using
    both coordinate frames and polynomial test fields.
    """
    n = bundle.n
    x = np.asarray(points, dtype=float).reshape(len(points), 2 * n)
    base = x[:, :n]
    u = _velocity(x, n, 1)
    gamma = bundle.base.conn.batch(base, 1)  # before the metric, as in _base_parts
    g, dg = bundle.base.metric.batch(base, 1)
    a = _product("j,ljk->lk", u, _embed(gamma, n))
    eye = np.broadcast_to(np.eye(n), a[0].shape)
    zero = np.zeros_like(a[0])
    h_cols = np.concatenate([eye, -a[0]], axis=1)      # column i = (d_i)^H
    v_cols = np.concatenate([zero, eye], axis=1)
    c_cols = np.concatenate([eye, zero], axis=1)       # (d_i)^c

    def gram(left, metric, right):
        return np.swapaxes(left, -1, -2) @ metric @ right

    out = {}
    gs = bundle.sasaki_metric.batch(x, 0)[0]
    out["sasaki_hh"] = _amax(gram(h_cols, gs, h_cols) - g)
    out["sasaki_hv"] = _amax(gram(h_cols, gs, v_cols))
    out["sasaki_vv"] = _amax(gram(v_cols, gs, v_cols) - g)
    gh = bundle.horizontal_metric.batch(x, 0)[0]
    out["horizontal_hh"] = _amax(gram(h_cols, gh, h_cols))
    out["horizontal_hv"] = _amax(gram(h_cols, gh, v_cols) - g)
    out["horizontal_vv"] = _amax(gram(v_cols, gh, v_cols))
    xf, yf = (_FieldStack(fields)(base, 2) for fields in _test_vector_fields(n))
    gc = bundle.complete_metric.batch(x, 0)[0]
    out["complete_cc"] = _amax(gram(c_cols, gc, c_cols) - np.einsum("pk,pkij->pij", u[0], dg))
    out["complete_cv"] = _amax(gram(c_cols, gc, v_cols) - g)
    out["complete_vv"] = _amax(gram(v_cols, gc, v_cols))
    # tensor rule with nonconstant fields: g^c(X^c, Y^c) = (g(X, Y))^c
    xc = _vector_lift("c", xf, u, a, n)
    yc = _vector_lift("c", yf, u, a, n)
    sxy = _product("j,j->", _product("jk,k->j", (g, dg), yf), xf)
    rhs = _complete_function(sxy, u, n)[0]
    out["complete_tensor_rule"] = np.abs(np.einsum("pi,pij,pj->p", xc[0], gc, yc[0]) - rhs)
    cov = _base_cov(xf, yf, gamma)
    covc = _vector_lift("c", cov, u, a, n)[0]
    covv = _vector_lift("v", cov, u, a, n)[0]
    covh = _vector_lift("h", cov, u, a, n)[0]
    xv = _vector_lift("v", xf, u, a, n)[0]
    xh = _vector_lift("h", xf, u, a, n)[0]
    yv = _vector_lift("v", yf, u, a, n)[:2]
    yh = _vector_lift("h", yf, u, a, n)[:2]
    gam = bundle.complete_conn.batch(x, 0)[0]
    out["cc_cc"] = _amax(_cov_deriv(gam, xc[0], yc) - covc)
    out["cc_cv"] = _amax(_cov_deriv(gam, xc[0], yv) - covv)
    out["cc_vc"] = _amax(_cov_deriv(gam, xv, yc) - covv)
    out["cc_vv"] = _amax(_cov_deriv(gam, xv, yv))
    gam = bundle.horizontal_conn.batch(x, 0)[0]
    out["hc_hh"] = _amax(_cov_deriv(gam, xh, yh) - covh)
    out["hc_hv"] = _amax(_cov_deriv(gam, xh, yv) - covv)
    out["hc_vh"] = _amax(_cov_deriv(gam, xv, yh))
    out["hc_vv"] = _amax(_cov_deriv(gam, xv, yv))
    return out


# the bundle components cst1..cst6 are the lemma components cs7..cs11, cs6
TM_COMPONENTS = {"cst1": "cs7", "cst2": "cs8", "cst3": "cs9",
                 "cst4": "cs10", "cst5": "cs11", "cst6": "cs6"}


def tm_statistical_residuals(f) -> dict:
    """(TM, complete lift, Sasaki) statistical iff the four conditions, on
    the frames of the bundle projection: the four conditions, the direct
    statisticity of the total space, and the components cst1..cst6."""
    out = four_conditions_at(f)
    comp = lemma_components(f)
    out.update((k, comp[src]) for k, src in TM_COMPONENTS.items())
    return out


def remark_complete_residuals(bundle: TangentBundle, x) -> dict:
    """(TM, complete lift connection, complete lift metric) statistical,
    and the base pair statistical (the premise)."""
    # the lift first: it evaluates the base data one order higher, and
    # the build shares those batches with the premise (fields.shared)
    lifted = geometry.statistical_rows(bundle.space("complete", "complete"), x)
    base = geometry.statistical_rows(bundle.base, x[:, :bundle.n])
    return {"premise": base["statistical"], "statistical": lifted["statistical"]}


def remark_dual_residuals(bundle: TangentBundle, x) -> dict:
    """dual(complete lift nabla, complete lift g) = complete lift of dual(nabla, g)."""
    lifted_dual = DualConnection(bundle.complete_conn, bundle.complete_metric)
    dual_lifted = CompleteLiftConnection(
        DualConnection(bundle.base.conn, bundle.base.metric), bundle.n)
    return {"commute": _amax(lifted_dual.batch(x, 0)[0] - dual_lifted.batch(x, 0)[0])}


def remark_horizontal_residuals(bundle: TangentBundle, x) -> dict:
    """(TM, horizontal lift, Sasaki) statistical iff nabla g = 0 on the base.

    On curved metric-compatible bases the horizontal lift acquires torsion
    from the curvature, so this applies to flat or non-compatible bases.
    """
    lifted = geometry.statistical_rows(bundle.space("sasaki", "horizontal"), x)  # first
    nab_g = geometry.cubic_values(bundle.base.metric, bundle.base.conn, x[:, :bundle.n])
    return {"bundle": lifted["statistical"], "base": np.abs(nab_g).max(axis=(1, 2, 3))}
