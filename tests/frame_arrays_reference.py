"""The frame build as it computed every part eagerly, kept as the
reference for the parts a frame batch now computes on first read
(``submersion._DERIVED``).

``frame_arrays`` is ``SubmersionSetup._frame_arrays`` before the lift
and projector partials (``d_lcols``, ``d_ph``, ``d_pv``) moved out of
the build: the same operations in the same order, so
``tests/test_submersion.py`` requires every part of a batch, read in
any order and from any ``take`` or ``over`` batch, to equal these
arrays bit for bit.
"""

import numpy as np

from subgeo.errors import EvalDomain
from subgeo.fields import _parts_and_inverse
from subgeo.linalg import inverse
from subgeo.submersion import _rank_test


def frame_arrays(setup, x) -> dict:
    n = setup.n
    bp, dpi_t, hess = setup._pi_stack(x, 2)
    dpi = np.swapaxes(dpi_t, 1, 2)                  # (N, m, n)
    d_dpi = np.moveaxis(hess, 3, 2)                 # [p, k, a, i] = d_k d_i pi_a
    _rank_test(x, dpi)

    kernel, d_kernel = setup._vertical(x, dpi, d_dpi)

    # horizontal: g-orthogonal complement, spanned by h = ginv dpi^T
    g, dg = setup.total.metric.batch(x, 1)          # dg[p, k] = d_k g
    ginv = inverse(g)
    d_ginv = -(ginv[:, None] @ dg @ ginv[:, None])
    h = ginv @ dpi_t                                # (N, n, m)
    d_h = d_ginv @ dpi_t[:, None] + ginv[:, None] @ np.swapaxes(d_dpi, 2, 3)
    dpi_h = dpi @ h                                 # (N, m, m)
    inv = inverse(dpi_h)
    d_inv = -(inv[:, None] @ (d_dpi @ h[:, None] + dpi[:, None] @ d_h) @ inv[:, None])
    lift = h @ inv                                  # (N, n, m)
    d_lift = d_h @ inv[:, None] + h[:, None] @ d_inv
    p_h = lift @ dpi                                # (N, n, n)
    d_ph = d_lift @ dpi[:, None] + lift[:, None] @ d_dpi

    (gamma,), _ = _parts_and_inverse(setup.total.conn, setup.total.metric, x, (g, dg), ginv)
    e2phi, dphi = np.ones(len(x)), np.zeros((len(x), n))
    if setup.phi is not None:
        phi, dphi = setup.phi.batch(x, 1)
        e2phi = np.exp(2.0 * phi)
        bad = np.isinf(e2phi) & np.isfinite(phi)
        if bad.any():
            raise EvalDomain("floating-point error (math range error)",
                             x[int(np.argmax(bad))])
    g_b, dg_b = setup.base.metric.batch(bp, 1)
    (gamma_b,), gb_inv = _parts_and_inverse(setup.base.conn, setup.base.metric, bp, (g_b, dg_b))
    return {
        "dpi": dpi, "ph": p_h, "pv": np.eye(n) - p_h, "d_ph": d_ph, "d_pv": -d_ph,
        "vcols": kernel, "d_vcols": d_kernel, "lcols": lift, "d_lcols": d_lift,
        "gamma": gamma, "g": g, "dg": dg, "ginv": ginv,
        "e2phi": e2phi, "dphi": dphi, "bp": bp,
        "gb": g_b, "dg_b": dg_b, "gb_inv": gb_inv, "gamma_b": gamma_b,
    }
