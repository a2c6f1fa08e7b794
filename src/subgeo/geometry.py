"""Tensor algebra of a statistical manifold over a stack of points, and
the row kernels of the manifold checks built on it.

Conventions: the derivative direction of a connection sits in the first
lower slot, so nabla_{e_i} e_j = Gamma^k_ij e_k, and the curvature sign
follows R(e_i, e_j) e_l = nabla_i nabla_j e_l - nabla_j nabla_i e_l.

The kernels take numpy arrays of values and first partials with any
leading axes (a stack of points) and keep them, so they test against
hand-built data one point at a time and run a whole sample at once.
A check evaluates its points in one batch: the metric's ``batch`` gives
the parts (g, dg) or (g, dg, d2g), the connection's ``batch`` gives
(Gamma,) or (Gamma, dGamma), and every residual is one array program
over those rows.  A batch that raises a :class:`SubgeoError` is rebuilt
row by row (:func:`results.build_rows`), so each failing point is one
incident.
"""

from __future__ import annotations

import numpy as np

from .fields import ConnectionField, MetricField, Space, _dual, _lower, _parts_and_inverse

_LAST3 = (-3, -2, -1)
_LAST4 = (-4, -3, -2, -1)


def torsion_values(gamma: np.ndarray) -> np.ndarray:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji; leading axes are kept."""
    return gamma - np.swapaxes(gamma, -1, -2)


def nabla_g_values(g: np.ndarray, dg: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """C[i, j, k] = (nabla_i g)(e_j, e_k); dg[i, j, k] = d_i g_jk.  Any
    leading axes (a stack of points) are kept."""
    lowered = _lower(gamma, g)
    return dg - lowered - np.swapaxes(lowered, -1, -2)


def cubic_values(metric: MetricField, conn: ConnectionField, points) -> np.ndarray:
    """The cubic form nabla g of (metric, conn) at a stack of points (N, n)."""
    g, dg = metric.batch(points, 1)
    return nabla_g_values(g, dg, conn.batch(points, 0)[0])


def statistical_residual(gamma: np.ndarray, cubic: np.ndarray) -> np.ndarray:
    """Max over torsion entries and the (i, j) symmetry defect of the
    cubic form nabla g, one per point of the leading axes."""
    r_tor = np.abs(torsion_values(gamma)).max(axis=_LAST3)
    r_sym = np.abs(cubic - np.swapaxes(cubic, -3, -2)).max(axis=_LAST3)
    return np.maximum(r_tor, r_sym)


def duality_residual(g, dg, gamma, gamma_dual) -> np.ndarray:
    """Defect of d_i g_jk = g(nabla_i e_j, e_k) + g(e_j, dual-nabla_i e_k)."""
    a = np.einsum("...lij,...lk->...ijk", gamma, g)
    b = np.einsum("...lik,...jl->...ijk", gamma_dual, g)
    return np.abs(dg - a - b).max(axis=_LAST3)


def curvature_values(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R[..., k, l, i, j] = coefficient of e_k in R(e_i, e_j) e_l, from
    Gamma[..., k, i, j] and dgamma[..., a, k, i, j] = d_a Gamma^k_ij."""
    term = np.einsum("...ikjl->...klij", dgamma)  # d_i Gamma^k_jl
    quad = np.einsum("...kim,...mjl->...klij", gamma, gamma)
    r = term + quad
    return r - np.swapaxes(r, -1, -2)


def curvature_duality_residual(g: np.ndarray, r: np.ndarray, r_dual: np.ndarray) -> np.ndarray:
    """Defect of g(R(X,Y)Z, W) + g(Z, dual-R(X,Y)W) = 0 from the two
    curvatures of :func:`curvature_values`."""
    lhs = (np.einsum("...kzij,...kw->...zwij", r, g)
           + np.einsum("...kwij,...zk->...zwij", r_dual, g))
    return np.abs(lhs).max(axis=_LAST4)


def constant_curvature_residual(g: np.ndarray, r: np.ndarray, k: float) -> np.ndarray:
    """Defect of R(X,Y)Z = k (g(Y,Z) X - g(X,Z) Y)."""
    eye = np.eye(g.shape[-1])
    # model[..., a, l, i, j] = k (g_jl delta^a_i - g_il delta^a_j)
    model = k * (np.einsum("...jl,ai->...alij", g, eye) - np.einsum("...il,aj->...alij", g, eye))
    return np.abs(r - model).max(axis=_LAST4)


def dual_formula_residual(gamma, gamma_dual, lc) -> np.ndarray:
    """Defect of dual-Gamma = 2 LC - Gamma, valid when the pair is
    statistical; lc holds the Levi-Civita Christoffels."""
    return np.abs(gamma_dual - (2.0 * lc - gamma)).max(axis=_LAST3)


# ---------------------------------------------------------------------------
# Row kernels: the residuals above over a stack of points x (N, n) of a
# space, by name, one value per point (see ``runner.CHECK_TABLE``).


def statistical_rows(space: Space, x) -> dict:
    """Torsion-freeness plus total symmetry of nabla g (:func:`statistical_residual`)."""
    gamma = space.conn.batch(x, 0)[0]
    g, dg = space.metric.batch(x, 1)
    return {"statistical": statistical_residual(gamma, nabla_g_values(g, dg, gamma))}


def curvature_duality_rows(space: Space, x) -> dict:
    g_parts = space.metric.batch(x, 2)
    gamma_parts, ginv = _parts_and_inverse(space.conn, space.metric, x, g_parts)
    dual_parts = _dual(g_parts, gamma_parts, ginv)
    r, r_dual = curvature_values(*gamma_parts), curvature_values(*dual_parts)
    return {"duality": curvature_duality_residual(g_parts[0], r, r_dual)}


def constant_curvature_rows(curved, x) -> dict:
    """The model defect of ``curved``, a space and its reference curvature k."""
    space, k = curved
    (g,) = space.metric.batch(x, 0)
    r = curvature_values(*space.conn.batch(x, 1))
    return {"model": constant_curvature_residual(g, r, k)}


def dual_involution_rows(space: Space, x) -> dict:
    """dual(dual(conn)) must reproduce conn to rounding."""
    g_parts = space.metric.batch(x, 1)
    gamma_parts, ginv = _parts_and_inverse(space.conn, space.metric, x, g_parts)
    twice = _dual(g_parts, _dual(g_parts, gamma_parts, ginv), ginv)
    return {"involution": np.abs(twice[0] - gamma_parts[0]).max(axis=_LAST3)}
