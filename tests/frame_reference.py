"""The per-index frame formulas, kept as the reference the column
expressions are tested against.

These are the Lemma components (cs6-cs11), the four statisticity
conditions, the Gauss-Weingarten decompositions and the induced
statistical residuals, written as Python loops over single frame
columns: each tensor identity is evaluated for one kernel column V_a or
lift column L_a at a time, with the column field (value, partials) read
out of the frame batch.  The package evaluates the same identities over
every pair or triple of columns in one array expression;
``tests/test_submersion.py`` compares the two key by key.

The fiber search is kept here the same way: one Newton start at a time,
each solving its own one-row system, against which the package's
stacked search is compared bit for bit.
"""

import numpy as np

from subgeo import geometry
from subgeo.errors import SingularMatrix
from subgeo.linalg import inverse
from subgeo.submersion import (NEWTON_MAX_ITER, NEWTON_TOL, _amax, _bracket, _form3, _gram, _mv,
                               _pair, _scalar_grad)

# -- single columns ------------------------------------------------------------


def kernel_col(f, a):
    return f.vcols[..., a], f.d_vcols[..., a]


def lift_col(f, a):
    return f.lcols[..., a], f.d_lcols[..., a]


def _worst(residuals, count: int) -> np.ndarray:
    """Row-wise max of residual arrays (count,); NaN wins, zeros for none."""
    return np.max(residuals, axis=0) if residuals else np.zeros(count)


def fiber_cubic(f, a, b, c) -> np.ndarray:
    """(hat-nabla_{V_a} hat-g)(V_b, V_c) using the kernel frame fields."""
    u = f.vcols[..., a]
    vb = kernel_col(f, b)
    wc = kernel_col(f, c)
    term1 = np.einsum("...i,...i->...", _scalar_grad(f.g, f.dg, vb, wc), u)
    dvb = _mv(f.pv, f.cov(u, vb))
    dwc = _mv(f.pv, f.cov(u, wc))
    return term1 - _pair(f.g, dvb, wc[0]) - _pair(f.g, vb[0], dwc)


def lift_cov(f, dual: bool = False) -> np.ndarray:
    """nabla_{L_a} L_b (..., m, m, n) for the lift column fields L_a."""
    gamma = f.gamma_dual if dual else f.gamma
    return (np.einsum("...ka,...kib->...abi", f.lcols, f.d_lcols)
            + np.einsum("...kij,...ia,...jb->...abk", gamma, f.lcols, f.lcols))


def lifted_cubic(f) -> np.ndarray:
    """The total cubic form on the lift columns, [..., c, a, b]."""
    return np.einsum("...ijk,...ic,...ja,...kb->...cab", f.cubic, f.lcols, f.lcols, f.lcols)


# -- the identities --------------------------------------------------------------


def lemma_components(f) -> dict:
    setup = f.setup
    m, l = setup.m, setup.fiber_dim
    T, A = setup.fundamental_T, setup.fundamental_A

    # cs6: horizontal cubic matches the conformally scaled base cubic
    cs6 = _amax(lifted_cubic(f) - f.e2phi[:, None, None, None] * f.cubic_b)

    r7, r8, r9, r10, r11 = [], [], [], [], []
    for vi in range(l):
        v = f.vcols[..., vi]
        for a in range(m):
            x = f.lcols[..., a]
            sv_x = f.s_value(v, x)
            t_vx, t_vx_d = T(f, v, x), T(f, v, x, dual=True)
            a_xv, a_xv_d = A(f, x, v), A(f, x, v, dual=True)
            s_xv = f.s_value(x, v)
            for b in range(m):
                y = f.lcols[..., b]
                r7.append(np.abs(_form3(f.cubic, v, x, y) + _pair(f.g, sv_x, y)))
                r8.append(np.abs(_form3(f.cubic, x, v, y) + _pair(f.g, a_xv, y)
                                 - _pair(f.g, a_xv_d, y)))
            for wi in range(l):
                w = f.vcols[..., wi]
                r9.append(np.abs(_form3(f.cubic, x, v, w) + _pair(f.g, s_xv, w)))
                r10.append(np.abs(_form3(f.cubic, v, x, w) + _pair(f.g, t_vx, w)
                                  - _pair(f.g, t_vx_d, w)))
    for ui in range(l):
        for vi in range(l):
            for wi in range(l):
                cols = (f.vcols[..., ui], f.vcols[..., vi], f.vcols[..., wi])
                r11.append(np.abs(_form3(f.cubic, *cols) - fiber_cubic(f, ui, vi, wi)))
    count = len(f)
    return {"cs6": cs6, "cs7": _worst(r7, count), "cs8": _worst(r8, count),
            "cs9": _worst(r9, count), "cs10": _worst(r10, count), "cs11": _worst(r11, count)}


def four_conditions_at(f) -> dict:
    setup = f.setup
    l, m = setup.fiber_dim, setup.m
    T, A = setup.fundamental_T, setup.fundamental_A
    r1, r2, r3 = [], [], []
    for vi in range(l):
        v = f.vcols[..., vi]
        for a in range(m):
            x = f.lcols[..., a]
            r1.append(_amax(_mv(f.ph, f.s_value(v, x)) - (A(f, x, v) - A(f, x, v, dual=True))))
            r2.append(_amax(_mv(f.pv, f.s_value(x, v)) - (T(f, v, x) - T(f, v, x, dual=True))))
    # condition 3: the fibers are statistical
    for a in range(l):
        for b in range(l):
            tor = (
                _mv(f.pv, f.cov(f.vcols[..., a], kernel_col(f, b)))
                - _mv(f.pv, f.cov(f.vcols[..., b], kernel_col(f, a)))
                - _bracket(kernel_col(f, a), kernel_col(f, b))
            )
            r3.append(_amax(tor))
            for c in range(l):
                r3.append(np.abs(fiber_cubic(f, a, b, c) - fiber_cubic(f, b, a, c)))
    count = len(f)
    return {
        "condition1": _worst(r1, count),
        "condition2": _worst(r2, count),
        "condition3": _worst(r3, count),
        "condition4": geometry.statistical_residual(f.gamma_b, f.cubic_b),
        "total_space": geometry.statistical_residual(f.gamma, f.cubic),
    }


def gauss_weingarten_residuals(f) -> dict:
    setup = f.setup
    l, m = setup.fiber_dim, setup.m
    T, A = setup.fundamental_T, setup.fundamental_A
    vv, vh, hv, hh = [], [], [], []
    for a in range(l):
        va = f.vcols[..., a]
        for b in range(l):
            full = f.cov(va, kernel_col(f, b))
            vv.append(_amax(full - T(f, va, f.vcols[..., b]) - _mv(f.pv, full)))
        for b in range(m):
            full = f.cov(va, lift_col(f, b))
            vh.append(_amax(full - _mv(f.ph, full) - T(f, va, f.lcols[..., b])))
    for a in range(m):
        xa = f.lcols[..., a]
        for b in range(l):
            full = f.cov(xa, kernel_col(f, b))
            hv.append(_amax(full - _mv(f.pv, full) - A(f, xa, f.vcols[..., b])))
        for b in range(m):
            full = f.cov(xa, lift_col(f, b))
            hh.append(_amax(full - _mv(f.ph, full) - A(f, xa, f.lcols[..., b])))
    count = len(f)
    return {"vert_vert": _worst(vv, count), "vert_horiz": _worst(vh, count),
            "horiz_vert": _worst(hv, count), "horiz_horiz": _worst(hh, count)}


def induced_statistical(f) -> dict:
    """The residuals of the ``induced_statistical`` check."""
    m = f.setup.m
    g_ind = _gram(f.lcols, f.g)
    gamma_ind = np.einsum("...ki,...bci->...kbc", f.dpi, lift_cov(f))
    dg_ind = np.empty((len(f), m, m, m))
    for a in range(m):
        for b in range(m):
            grad_s = _scalar_grad(f.g, f.dg, lift_col(f, a), lift_col(f, b))
            dg_ind[:, :, a, b] = np.einsum("...k,...kc->...c", grad_s, f.lcols)
    cubic_ind = geometry.nabla_g_values(g_ind, dg_ind, gamma_ind)
    return {
        "premise": geometry.statistical_residual(f.gamma, f.cubic),
        "statistical": np.maximum(
            _amax(geometry.torsion_values(gamma_ind)),
            _amax(cubic_ind - np.swapaxes(cubic_ind, -3, -2)),
        ),
        "identity": _amax(cubic_ind - lifted_cubic(f)),
    }


# -- the fiber search ------------------------------------------------------------


def fiber_points(setup, anchor, count: int):
    """The points of the fiber through ``anchor`` found from ``count``
    starts, searched one start at a time, and each start's outcome:
    "found", "outside" (converged off the chart box), "singular" or
    "no convergence".  A start that raises propagates its error."""
    piv, free = setup.pivot_pattern()
    box = setup.total.chart.box
    b = setup.project([anchor])[0]
    points, outcomes = [], []
    for k in range(count):
        x = [float(v) for v in anchor]
        for j, c in enumerate(free):
            lo, hi = box[c]
            frac = 0.15 + 0.7 * ((0.5 + 0.6180339887498949 * k + 0.23 * j) % 1.0)
            x[c] = lo + frac * (hi - lo)
        pt, outcome = _newton_fiber(setup, x, b, piv)
        if pt is not None and not all(lo <= v <= hi for v, (lo, hi) in zip(pt, box)):
            outcome = "outside"
        if outcome == "found":
            points.append(pt)
        outcomes.append(outcome)
    return np.array(points, dtype=float).reshape(len(points), setup.n), outcomes


def _newton_fiber(setup, x, b, piv):
    for _ in range(NEWTON_MAX_ITER):
        res = setup.project([x])[0] - b
        if np.max(np.abs(res)) <= NEWTON_TOL:
            return tuple(x), "found"
        jac = setup._pi_stack(np.array([x], dtype=float), 1)[1][0].T[:, list(piv)]
        try:
            step = (inverse(jac[None]) @ -res[:, None])[0, :, 0]
        except SingularMatrix:
            return None, "singular"
        for r, c in enumerate(piv):
            x[c] += step[r]
    return None, "no convergence"
