"""Pointwise tensor algebra on a single chart.

Conventions: the derivative direction of a connection sits in the first
lower slot, so nabla_{e_i} e_j = Gamma^k_ij e_k, and the curvature sign
follows R(e_i, e_j) e_l = nabla_i nabla_j e_l - nabla_j nabla_i e_l.
All functions here take numpy arrays of pointwise values plus whatever
first derivatives they need; assembling those from jets is the caller's
job (see fields.py), which keeps this module easy to test against
hand-built data.
"""

from __future__ import annotations

import numpy as np

from .fields import ConnectionField, DualConnection, LeviCivitaConnection, MetricField
from .results import sweep


def torsion_values(gamma: np.ndarray) -> np.ndarray:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji; leading axes are kept."""
    return gamma - np.swapaxes(gamma, -1, -2)


def nabla_g_values(g: np.ndarray, dg: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """C[i, j, k] = (nabla_i g)(e_j, e_k); dg[i, j, k] = d_i g_jk.  Any
    leading axes (a stack of points) are kept."""
    lowered = np.einsum("...lij,...lk->...ijk", gamma, g)
    return dg - lowered - np.swapaxes(lowered, -1, -2)


def cubic_values(metric: MetricField, conn: ConnectionField, point) -> np.ndarray:
    g, dg = metric.partial_values(point)
    return nabla_g_values(g, dg, conn.values(point))


def statistical_residual(metric: MetricField, conn: ConnectionField, point) -> float:
    """Max over torsion entries and the (i, j) symmetry defect of nabla g."""
    return float(statistical_defect(conn.values(point), cubic_values(metric, conn, point)))


def statistical_defect(gamma: np.ndarray, cubic: np.ndarray) -> np.ndarray:
    """:func:`statistical_residual` from the Christoffels and the cubic
    form; stacked inputs (leading axes) give one defect per point."""
    last = (-3, -2, -1)
    r_tor = np.abs(torsion_values(gamma)).max(axis=last)
    r_sym = np.abs(cubic - np.swapaxes(cubic, -3, -2)).max(axis=last)
    return np.maximum(r_tor, r_sym)


def duality_residual(metric: MetricField, conn: ConnectionField, dual: ConnectionField, point) -> float:
    """Defect of d_i g_jk = g(nabla_i e_j, e_k) + g(e_j, dual-nabla_i e_k)."""
    g, dg = metric.partial_values(point)
    lhs = dg
    a = np.einsum("lij,lk->ijk", conn.values(point), g)
    b = np.einsum("lik,jl->ijk", dual.values(point), g)
    return float(np.max(np.abs(lhs - a - b)))


def curvature_values(conn: ConnectionField, point) -> np.ndarray:
    """R[k, l, i, j] = coefficient of e_k in R(e_i, e_j) e_l."""
    gamma = conn.values(point)
    dgamma = conn.d_values(point)  # dgamma[a, k, i, j] = d_a Gamma^k_ij
    term = np.einsum("ikjl->klij", dgamma)  # term[k,l,i,j] = d_i Gamma^k_jl
    quad = np.einsum("kim,mjl->klij", gamma, gamma)
    r = term + quad
    return r - np.transpose(r, (0, 1, 3, 2))


def curvature_duality_residual(
    metric: MetricField, conn: ConnectionField, dual: ConnectionField, point
) -> float:
    """Defect of g(R(X,Y)Z, W) + g(Z, dual-R(X,Y)W) = 0."""
    g = metric.values(point)
    r = curvature_values(conn, point)
    rd = curvature_values(dual, point)
    lhs = np.einsum("kzij,kw->zwij", r, g) + np.einsum("kwij,zk->zwij", rd, g)
    return float(np.max(np.abs(lhs)))


def constant_curvature_residual(metric: MetricField, conn: ConnectionField, k: float, point) -> float:
    """Defect of R(X,Y)Z = k (g(Y,Z) X - g(X,Z) Y) at the given point."""
    g = metric.values(point)
    r = curvature_values(conn, point)
    n = g.shape[0]
    eye = np.eye(n)
    model = k * (np.einsum("jl,ai->alij", g, eye) - np.einsum("il,aj->alij", g, eye))
    # model[a, l, i, j] = k (g_jl delta^a_i - g_il delta^a_j)
    return float(np.max(np.abs(r - model)))


def dual_formula_residual(
    metric: MetricField, conn: ConnectionField, dual: ConnectionField, point
) -> float:
    """Defect of dual-Gamma = 2 LC - Gamma, valid when the pair is statistical."""
    lc = LeviCivitaConnection(metric).values(point)
    return float(np.max(np.abs(dual.values(point) - (2.0 * lc - conn.values(point)))))

# ---------------------------------------------------------------------------
# Suite checks: the pointwise kernels above swept over sample sets.

def is_statistical(conn: ConnectionField, metric: MetricField, points, tol):
    """Torsion-freeness plus total symmetry of nabla g over the samples."""
    return sweep(points, lambda p: statistical_residual(metric, conn, p)).summarize(
        "is_statistical", tol)


def check_curvature_duality(conn: ConnectionField, metric: MetricField, points, tol):
    dual = DualConnection(conn, metric)
    return sweep(points, lambda p: curvature_duality_residual(metric, conn, dual, p)).summarize(
        "curvature_duality", tol)


def check_constant_curvature(conn: ConnectionField, metric: MetricField, k: float, points, tol):
    return sweep(points, lambda p: constant_curvature_residual(metric, conn, k, p)).summarize(
        "constant_curvature", tol, details={"k": float(k)})


def check_dual_involution(conn: ConnectionField, metric: MetricField, points, tol):
    """dual(dual(conn)) must reproduce conn to rounding."""
    dd = DualConnection(DualConnection(conn, metric), metric)
    return sweep(points, lambda p: float(np.max(np.abs(dd.values(p) - conn.values(p))))).summarize(
        "dual_involution", tol)
