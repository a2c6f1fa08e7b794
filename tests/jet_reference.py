"""The per-point jet formulas, kept as the reference the batches are tested
against.

These are the Christoffel, dual, alpha, sum and expression-connection
coefficients, the tangent-bundle lift blocks and lift coefficients, the
finite-difference stencil and the jet linear solves, written in truncated
Taylor arithmetic (``Jet``) one point at a time.  The package evaluates the same quantities as array
programs over a stack of points; ``tests/test_batch.py`` compares the two
at every order a field supports.  Nothing here is cached.
"""

import math

import numpy as np

from subgeo.errors import ContractViolation, SingularMatrix
from subgeo.exprlang import eval_jet
from subgeo.fields import (FD_STEP_GRAD, FD_STEP_HESS, AlphaConnection, DualConnection,
                           ExprConnection, ExprField, FDField, LeviCivitaConnection,
                           SumConnection)
from subgeo.jets import Jet
from subgeo.linalg import PIVOT_RTOL
from subgeo.tangent_bundle import CompleteLiftConnection, HorizontalLiftConnection

# -- jet linear algebra --------------------------------------------------------


def jet_solve(a: list, b: list) -> list:
    """Solve ``a x = b`` where entries are jets.

    ``a`` is an n x n nested list, ``b`` an n x k nested list (or a flat
    list treated as one column).  Pivoting compares value parts only.
    Returns the solution in the same nesting as ``b``.
    """
    n = len(a)
    flat = b and not isinstance(b[0], (list, tuple))
    rows = [list(r) for r in a]
    rhs = [[r] for r in b] if flat else [list(r) for r in b]
    k = len(rhs[0])
    scale = max(abs(e.value) for r in rows for e in r)
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col].value))
        if abs(rows[piv][col].value) < PIVOT_RTOL * scale:
            raise SingularMatrix(f"jet system singular at column {col}")
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv_p = 1.0 / rows[col][col]
        for r in range(n):
            if r == col:
                continue
            f = rows[r][col] * inv_p
            if f.value == 0.0 and f.order >= 1 and not f.grad.any() and (
                f.order < 2 or not f.hess.any()
            ) and (f.order < 3 or not f.third.any()):
                continue
            for j in range(col, n):
                rows[r][j] = rows[r][j] - f * rows[col][j]
            for j in range(k):
                rhs[r][j] = rhs[r][j] - f * rhs[col][j]
    out = [[(rhs[i][j] / rows[i][i]) for j in range(k)] for i in range(n)]
    return [row[0] for row in out] if flat else out


def jet_inverse(a: list) -> list:
    """Inverse of a square jet matrix, as a nested list."""
    n = len(a)
    dim, order = a[0][0].dim, a[0][0].order
    eye = [
        [Jet.constant(1.0 if i == j else 0.0, dim, order) for j in range(n)]
        for i in range(n)
    ]
    return jet_solve(a, eye)


def jet_matmul(a: list, b: list) -> list:
    n, m, k = len(a), len(b), len(b[0])
    return [[sum(a[i][l] * b[l][j] for l in range(m)) for j in range(k)] for i in range(n)]


def jet_values(a) -> np.ndarray:
    """Value parts of a nested list of jets as a float array."""
    if isinstance(a, Jet):
        return np.float64(a.value)
    return np.array([jet_values(x) for x in a])


def jet_parts(nested, order: int) -> list:
    """A nested list of jets as batch-layout parts [values, d, d2, d3][:order + 1],
    the derivative axes first: part m has shape (dim,) * m + nesting."""
    out = [jet_values(nested)]
    for m, attr in enumerate(("grad", "hess", "third")[:order], 1):
        arr = _nested(nested, attr)
        out.append(np.moveaxis(arr, list(range(arr.ndim - m, arr.ndim)), list(range(m))))
    return out


def _nested(a, attr):
    if isinstance(a, Jet):
        return np.asarray(getattr(a, attr), dtype=float)
    return np.array([_nested(x, attr) for x in a])


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


# -- fields at one point -----------------------------------------------------------


def scalar_jet(field, point, order: int) -> Jet:
    """A leaf scalar field as a jet at one point."""
    point = tuple(float(x) for x in point)
    if isinstance(field, ExprField):
        return eval_jet(field.ast, point, order)
    if isinstance(field, FDField):
        return _fd_jet(field, point, order)
    raise ContractViolation(f"no jet reference for {field!r}")


def _shift(point, i, h):
    out = list(point)
    out[i] += h
    return tuple(out)


def _fd_jet(self, point, order):
    """Central differences of the inner field's values, one node at a time."""
    if order > 2:
        raise ContractViolation(
            "finite-difference mode provides derivatives up to order 2"
        )
    f = lambda p: scalar_jet(self.inner, p, 0).value  # noqa: E731
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
            plus, minus = f(_shift(point, i, hi)), f(_shift(point, i, -hi))
            second = plus - 2.0 * val + minus
            if not math.isfinite(second) and all(map(math.isfinite, (plus, val, minus))):
                second = (plus - val) + (minus - val)  # 2 * val overflowed
            hess[i, i] = second / hi**2
            for j in range(i + 1, n):
                hj = steps[j]
                pp = f(_shift(_shift(point, i, hi), j, hj))
                pm = f(_shift(_shift(point, i, hi), j, -hj))
                mp = f(_shift(_shift(point, i, -hi), j, hj))
                mm = f(_shift(_shift(point, i, -hi), j, -hj))
                hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * hi * hj)
    return Jet(n, order, val, grad, hess, None)


def matrix_jets(metric, point, order: int):
    """The metric as an n x n nested list of jets at one point."""
    point = tuple(float(x) for x in point)
    label = getattr(metric, "label", "g")
    if label != "g":
        return getattr(JetBundle(metric.base), f"_{label}_blocks")(point, order)
    n = metric.dim
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            jet = scalar_jet(metric.entry(i, j), point, order)
            out[i][j] = jet
            out[j][i] = jet
    return out


def coeff_jets(conn, point, order: int):
    """Gamma[k][i][j] as an n x n x n nested list of jets at one point."""
    point = tuple(float(x) for x in point)
    return _COEFFS[type(conn)](conn, point, order)


# -- connection coefficients ----------------------------------------------------


def _expr_coeffs(self, point, order):
    n = self.dim
    fields = self._stack.fields  # [k][i][j] in row-major order
    return [
        [[scalar_jet(fields[(k * n + i) * n + j], point, order) for j in range(n)]
         for i in range(n)]
        for k in range(n)
    ]


def _levi_civita_coeffs(self, point, order):
    n = self.dim
    g = matrix_jets(self.metric, point, order + 1)
    dg = [[[g[j][k].dvar(i) for k in range(n)] for j in range(n)] for i in range(n)]
    ginv = jet_inverse(matrix_jets(self.metric, point, order))
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


def _dual_coeffs(self, point, order):
    n = self.dim
    g = matrix_jets(self.metric, point, order + 1)
    gamma = coeff_jets(self.base, point, order)
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


def _alpha_coeffs(self, point, order):
    n = self.dim
    lc = coeff_jets(LeviCivitaConnection(self.metric), point, order)
    if self.alpha == 0.0:
        return lc
    ginv = jet_inverse(matrix_jets(self.metric, point, order))
    fields = self._cubic_stack.fields  # [l][i][j] in row-major order
    c = [[[scalar_jet(fields[(l * n + i) * n + j], point, order) for j in range(n)]
          for i in range(n)] for l in range(n)]
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = ginv[k][0] * c[0][i][j]
                for l in range(1, n):
                    acc = acc + ginv[k][l] * c[l][i][j]
                out[k][i][j] = lc[k][i][j] - acc * (0.5 * self.alpha)
    return out


def _sum_coeffs(self, point, order):
    n = self.dim
    a = coeff_jets(self.terms[0], point, order)
    b = coeff_jets(self.terms[1], point, order)
    return [
        [[a[k][i][j] + b[k][i][j] for j in range(n)] for i in range(n)]
        for k in range(n)
    ]


def _complete_lift_coeffs(self, point, order):
    n = self.n
    x = tuple(point[:n])
    gamma1 = coeff_jets(self.base_conn, x, order + 1)
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


def _horizontal_lift_coeffs(self, point, order):
    n = self.n
    x = tuple(point[:n])
    gamma1 = coeff_jets(self.base_conn, x, order + 1)
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


_COEFFS = {
    ExprConnection: _expr_coeffs,
    LeviCivitaConnection: _levi_civita_coeffs,
    DualConnection: _dual_coeffs,
    AlphaConnection: _alpha_coeffs,
    SumConnection: _sum_coeffs,
    CompleteLiftConnection: _complete_lift_coeffs,
    HorizontalLiftConnection: _horizontal_lift_coeffs,
}


# -- lifted metric blocks ----------------------------------------------------------


def _embed_matrix(mat, dim):
    return [[e.embed(dim) for e in row] for row in mat]


def _embed_tensor3(t, dim):
    return [[[e.embed(dim) for e in row] for row in mid] for mid in t]


def _zeros(n, dim, order):
    z = Jet.constant(0.0, dim, order)
    return [[z] * n for _ in range(n)]


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


class JetBundle:
    """The lifted metric blocks over a base space, one bundle point at a time."""

    def __init__(self, base):
        self.base = base
        self.n = base.dim

    def _parts(self, point, order):
        n = self.n
        x = tuple(point[:n])
        g = _embed_matrix(matrix_jets(self.base.metric, x, order), 2 * n)
        gamma = _embed_tensor3(coeff_jets(self.base.conn, x, order), 2 * n)
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
        base_g = matrix_jets(self.base.metric, x, order + 1)
        g = [[base_g[i][j].embed(2 * n) for j in range(n)] for i in range(n)]
        # careful: embed after dvar so orders line up
        u = [Jet.seed(point, n + i, order) if order else point[n + i] for i in range(n)]
        p = [[sum(u[k] * base_g[i][j].dvar(k).embed(2 * n) for k in range(n))
              for j in range(n)] for i in range(n)]
        g0 = [[_drop(g[i][j], order) for j in range(n)] for i in range(n)]
        z = _zeros(n, 2 * n, order)
        return _blocks(p, g0, g0, z)
