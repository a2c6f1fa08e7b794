"""The four statisticity conditions and the Lemma components as each
computed its own fundamental tensors, kept as the reference for the
shared tensor set (``_FrameBatch.tensors``) both read in the package.

Here the four conditions take S, A, T and the fiber cubic over every
pair of a kernel and a lift column, and the Lemma takes them again over
triples of columns, so a batch read by both evaluates each twice.
``tests/test_submersion.py`` compares the residual arrays bit for bit.
"""

import numpy as np

from subgeo import geometry
from subgeo.submersion import LEMMA_KEYS, _amax, _bracket, _form3, _mv, _pair, _tuples


def lemma_components(f) -> dict:
    T, A = f.setup.fundamental_T, f.setup.fundamental_A
    (V, _), (L, _) = f.columns()
    f3 = f.over(3)
    C, g = f3.cubic, f3.g
    cs6 = _form3(C, *_tuples(L, L, L)) - f.e2phi[:, None, None, None] * f.cubic_b
    v, x, y = _tuples(V, L, L)
    cs7 = _form3(C, v, x, y) + _pair(g, f3.s_value(v, x), y)
    cs8 = _form3(C, x, v, y) + _pair(g, A(f3, x, v), y) - _pair(g, A(f3, x, v, dual=True), y)
    v, x, w = _tuples(V, L, V)
    cs9 = _form3(C, x, v, w) + _pair(g, f3.s_value(x, v), w)
    cs10 = _form3(C, v, x, w) + _pair(g, T(f3, v, x), w) - _pair(g, T(f3, v, x, dual=True), w)
    cs11 = _form3(C, *_tuples(V, V, V)) - f.fiber_cubic()
    return dict(zip(LEMMA_KEYS, map(_amax, (cs6, cs7, cs8, cs9, cs10, cs11))))


def four_conditions_at(f) -> dict:
    T, A = f.setup.fundamental_T, f.setup.fundamental_A
    V, L = f.columns()
    f2 = f.over(2)
    v, x = _tuples(V[0], L[0])
    cond1 = _mv(f2.ph, f2.s_value(v, x)) - (A(f2, x, v) - A(f2, x, v, dual=True))
    cond2 = _mv(f2.pv, f2.s_value(x, v)) - (T(f2, v, x) - T(f2, v, x, dual=True))
    a, b = _tuples(V, V)
    torsion = _mv(f2.pv, f2.cov(a[0], b)) - _mv(f2.pv, f2.cov(b[0], a)) - _bracket(a, b)
    fiber_cubic = f.fiber_cubic()
    return {
        "condition1": _amax(cond1),
        "condition2": _amax(cond2),
        "condition3": np.maximum(_amax(torsion),
                                 _amax(fiber_cubic - np.swapaxes(fiber_cubic, 1, 2))),
        "condition4": geometry.statistical_residual(f.gamma_b, f.cubic_b),
        "total_space": geometry.statistical_residual(f.gamma, f.cubic),
    }
