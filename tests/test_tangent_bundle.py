"""Lifts to the tangent bundle: functions, vector fields, metrics,
connections, and the bundle-level checks.

Coordinate conventions are pinned by tiny hand examples on a one or two
dimensional base before the frame-rule machinery takes over.
"""

import collections
import inspect
import re
from unittest import mock

import numpy as np
import pytest

from conftest import euclid_setup, gaussian_setup, hyperbolic_setup, max_abs, run_check
from subgeo import builtins, fields, runner
from subgeo import tangent_bundle as tb
from subgeo import submersion as sm
from subgeo.config import parse_config
from subgeo.errors import ContractViolation, EvalDomain
from subgeo.fields import ExprConnection, ExprField, _FieldStack
from subgeo.results import FAIL, PASS, build_rows
from subgeo.sampling import sample_box
from subgeo.submersion import _bracket


@pytest.fixture(scope="module")
def flat2():
    return tb.TangentBundle(euclid_setup(2, 1).total, "flat2")


@pytest.fixture(scope="module")
def hyp2():
    return tb.TangentBundle(hyperbolic_setup(2).total, "hyp2")


@pytest.fixture(scope="module")
def gauss1():
    return tb.TangentBundle(gaussian_setup(1.0).total, "gauss1")


def bundle_points(bundle, count=8, seed=13):
    return sample_box(bundle.chart.box, count, seed)


def at(field, p):
    """The values of a field at p: row 0 of a one-point batch."""
    return field.batch(np.array([p], dtype=float), 0)[0][0]


def base_parts(components, p, n, order=2):
    """Parts (X, dX, ...) of base vector field components at the base point
    of the bundle point p, as one-row stacks."""
    return _FieldStack(components)(np.array([p[:n]], dtype=float), order)


def lift(kind, components, conn, p, order=2):
    """Row 0 of the parts of X^v, X^c or X^H at the bundle point p."""
    n = len(components)
    x = np.array([p], dtype=float)
    u = tb._velocity(x, n, 1)
    a = tb._product("j,ljk->lk", u, tb._embed(conn.batch(x[:, :n], 1), n))
    return tuple(part[0] for part in tb._vector_lift(kind, base_parts(components, p, n, order),
                                                    u, a, n))


def complete_function(f, p, order=2):
    """Row 0 of the parts of f^c = u^i d_i f at the bundle point p."""
    n = len(p) // 2
    x = np.array([p], dtype=float)
    return tuple(part[0] for part in tb._complete_function(
        f.batch(x[:, :n], order), tb._velocity(x, n, 1), n))


def test_function_lifts_one_dim():
    f = ExprField.parse("x1^2", 1)
    # f^v forgets the fiber, f^c is u * f'
    fv = tb._embed(f.batch(np.array([[1.5]]), 1), 1)
    assert fv[0][0] == pytest.approx(2.25)
    assert fv[1][0] == pytest.approx([3.0, 0.0])
    assert complete_function(f, (1.5, 0.7))[0] == pytest.approx(2.0 * 1.5 * 0.7)


def test_vector_lifts_one_dim():
    # X = x d/dx: X^c = (x; u), X^H over the flat line = (x; 0)
    comps = [ExprField.parse("x1", 1)]
    p = (1.2, 0.4)
    zero = ExprConnection.zero(1)
    assert lift("c", comps, zero, p)[0] == pytest.approx([1.2, 0.4])
    assert lift("v", comps, zero, p)[0] == pytest.approx([0.0, 1.2])
    assert lift("h", comps, zero, p)[0] == pytest.approx([1.2, 0.0])


def test_complete_lift_commutes_with_derivation():
    # X^c(f^c) = (Xf)^c for f = x1^2, X = x1 d/dx1
    f = ExprField.parse("x1^2", 1)
    xf = ExprField.parse("2*x1^2", 1)
    comps = [ExprField.parse("x1", 1)]
    zero = ExprConnection.zero(1)
    for p in [(1.1, 0.3), (0.7, -0.8), (2.0, 1.0)]:
        fc = complete_function(f, p)
        xc = lift("c", comps, zero, p)[0]
        lhs = float(fc[1] @ xc)
        rhs = complete_function(xf, p)[0]
        assert lhs == pytest.approx(rhs)


def test_vertical_lifts_commute(flat2):
    comps_x = [ExprField.parse("x1^2", 2), ExprField.parse("x2", 2)]
    comps_y = [ExprField.parse("sin(x1)", 2), ExprField.parse("1", 2)]
    p = (0.3, -0.4, 0.5, 0.2)
    xj = lift("v", comps_x, flat2.base.conn, p)[:2]
    yj = lift("v", comps_y, flat2.base.conn, p)[:2]
    assert max_abs(_bracket(xj, yj)) < 1e-14


def test_gamma_operator_hand_values(hyp2):
    # base is the upper half-plane; X = first coordinate direction, and
    # gamma(nabla X) = u^j (d_j X^i + Gamma^i_jk X^k) = X^c - X^H
    comps = [ExprField.parse("1", 2), ExprField.parse("0", 2)]
    p = (0.0, 1.0, 1.0, 0.0)
    gamma = lift("c", comps, hyp2.base.conn, p)[0] - lift("h", comps, hyp2.base.conn, p)[0]
    assert gamma == pytest.approx([0.0, 0.0, 0.0, 1.0])
    xh = lift("h", comps, hyp2.base.conn, (0.0, 1.0, 0.0, 1.0))[0]
    assert xh == pytest.approx([1.0, 0.0, 1.0, 0.0])


def test_bundle_projection_lift_is_identity_minus_velocity(hyp2):
    # the frame of the bundle submersion must have lift columns (e_k; -A e_k)
    setup = hyp2.setup
    p = (0.2, 1.4, 0.5, -0.3)
    lcols = setup._frames([p]).lcols[0]
    gamma_b = at(hyp2.base.conn, p[:2])
    a_mat = np.einsum("j,ljk->lk", np.asarray(p[2:]), gamma_b)
    want = np.vstack([np.eye(2), -a_mat])
    assert max_abs(lcols - want) < 1e-9


def test_sasaki_blocks_hand_point(hyp2):
    # A is small enough to write out at (x, y; u) = (0, 2; 0.3, -0.1)
    p = (0.0, 2.0, 0.3, -0.1)
    a = np.array([[0.05, -0.15], [0.15, 0.05]])
    g = np.diag([0.25, 0.25])
    gs = at(hyp2.sasaki_metric, p)
    want = np.block([[g + a.T @ g @ a, a.T @ g], [g @ a, g]])
    assert max_abs(gs - want) < 1e-12
    gh = at(hyp2.horizontal_metric, p)
    want_h = np.block([[g @ a + (g @ a).T, g], [g, np.zeros((2, 2))]])
    assert max_abs(gh - want_h) < 1e-12


def test_complete_metric_blocks(hyp2):
    p = (0.1, 1.5, 0.4, 0.2)
    gc = at(hyp2.complete_metric, p)
    # top-left block is u^k d_k g; only d_y g is nonzero here
    dy = -2.0 / 1.5 ** 3
    want_tl = 0.2 * np.diag([dy, dy])
    assert max_abs(gc[:2, :2] - want_tl) < 1e-12
    assert max_abs(gc[:2, 2:] - np.diag([1.0 / 2.25, 1.0 / 2.25])) < 1e-12
    assert max_abs(gc[2:, 2:]) == 0.0


def test_defining_rules_all_bundles(flat2, hyp2, gauss1):
    for bundle in (flat2, hyp2, gauss1):
        res = run_check("tb_defining_rules", bundle, bundle_points(bundle), 1e-9)
        assert res.status == PASS, (bundle.chart.name, res.details)
        assert res.max_residual < 1e-12


def test_prop_checks(flat2, hyp2, gauss1):
    for bundle in (flat2, hyp2, gauss1):
        pts = bundle_points(bundle, 6)
        # prop41 and prop42 are these two checks on the bundle projection
        assert run_check("affine_hd", bundle.setup, pts, 1e-8).status == PASS
        assert run_check("semi_riemannian", bundle.setup, pts, 1e-8).status == PASS


def test_tm_statistical_biconditional(flat2, hyp2):
    pts = bundle_points(flat2, 6)
    res = run_check("tm_statistical", flat2, pts, 1e-8)
    assert res.status == PASS
    assert res.details["conditions_pass"] is True
    assert res.details["total_space_pass"] is True

    # over the half-plane both sides reject, which still satisfies the
    # equivalence; the residuals are far from zero
    pts2 = bundle_points(hyp2, 6)
    res2 = run_check("tm_statistical", hyp2, pts2, 1e-8)
    assert res2.status == PASS
    assert res2.details["conditions_pass"] is False
    assert res2.details["total_space_pass"] is False
    assert res2.details["total_space_residual"] > 0.05
    assert all(f"cst{k}" in res2.details for k in range(1, 7))


def test_tm_statistical_counts_a_failing_point_once(flat2, monkeypatch):
    # the four conditions and the components share one frame per point
    pts = bundle_points(flat2, 8)
    build = sm.SubmersionSetup._frame_arrays

    def failing_at_third_point(self, x):
        if (x == pts[2]).all(axis=1).any():
            raise EvalDomain("injected", point=pts[2])
        return build(self, x)

    monkeypatch.setattr(sm.SubmersionSetup, "_frame_arrays", failing_at_third_point)
    res = run_check("tm_statistical", flat2, pts, 1e-8)
    assert res.incidents == 1 and res.samples == 7
    assert res.details["incident_kinds"] == {
        "EvalDomain": {"count": 1, "example": str(EvalDomain("injected", point=pts[2]))}}


def test_remark_complete_and_dual(flat2, hyp2, gauss1):
    for bundle in (flat2, hyp2, gauss1):
        pts = bundle_points(bundle, 6)
        assert run_check("remark_complete_metric", bundle, pts, 1e-7).status == PASS
        dual = run_check("remark_dual_complete", bundle, pts, 1e-8)
        assert dual.status == PASS
        assert dual.max_residual < 1e-10


def test_remark_horizontal_polarity(flat2, hyp2, gauss1):
    # flat base: both sides hold
    res = run_check("remark_horizontal", flat2, bundle_points(flat2, 6), 1e-8)
    assert res.status == PASS
    assert res.details["bundle_pass"] and res.details["base_metric_pass"]

    # alpha = 1 base: nabla g != 0 and the bundle is not statistical either
    res = run_check("remark_horizontal", gauss1, bundle_points(gauss1, 6), 1e-8)
    assert res.status == PASS
    assert not res.details["bundle_pass"] and not res.details["base_metric_pass"]

    # curved metric-compatible base: nabla g = 0 but curvature obstructs
    # the bundle side, a genuine one-sided failure
    res = run_check("remark_horizontal", hyp2, bundle_points(hyp2, 6), 1e-8)
    assert res.status == FAIL
    assert res.details["base_metric_pass"] is True
    assert res.details["bundle_pass"] is False
    assert res.details["bundle_residual"] > 0.5


def test_chart_box_extends_base(hyp2):
    assert hyp2.chart.box[:2] == ((-1.0, 1.0), (0.5, 3.0))
    assert hyp2.chart.box[2:] == ((-1.0, 1.0), (-1.0, 1.0))
    assert hyp2.chart.dim == 4


def test_complete_conn_blocks_flat_base(flat2):
    # on a flat base every lifted Christoffel symbol vanishes
    p = (0.3, -0.2, 0.6, 0.1)
    assert max_abs(at(flat2.complete_conn, p)) == 0.0
    assert max_abs(at(flat2.horizontal_conn, p)) == 0.0


def test_complete_conn_blocks_curved_base(hyp2):
    # xx block of the complete lift repeats the base symbols
    p = (0.2, 1.3, 0.4, -0.5)
    gam = at(hyp2.complete_conn, p)
    gam_b = at(hyp2.base.conn, p[:2])
    assert max_abs(gam[:2, :2, :2] - gam_b) < 1e-13
    # mixed blocks: Gamma^(n+l)_{i, n+j} = Gamma^l_{ij}
    assert max_abs(gam[2:, :2, 2:] - gam_b) < 1e-13
    assert max_abs(gam[2:, 2:, :2] - np.transpose(gam_b, (0, 2, 1))) < 1e-13
    # u-row of the xx block is u^m d_m Gamma
    x = p[:2]
    h = 1e-6
    dgam = (at(hyp2.base.conn, (x[0], x[1] + h))
            - at(hyp2.base.conn, (x[0], x[1] - h))) / (2.0 * h)
    want = p[2] * 0.0 + p[3] * dgam  # d_x Gamma = 0 for this metric
    assert max_abs(gam[2:, :2, :2] - want) < 1e-6


# -- the part algebra against its einsum reference ---------------------------


BUNDLES = ("tangent_bundle_of:hyperbolic:2", "tangent_bundle_of:gaussian:alpha=1",
           "tangent_bundle_of:euclidean:2")


def reference_product(spec, a, b):
    """The Leibniz rule of ``tb._product`` with every term one np.einsum,
    summed in mask order: its parts, and per part the same sum over the
    factors' magnitudes."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    parts, scales = [], []
    for m in range(min(len(a), len(b))):
        axes = "ABC"[:m]
        total = scale = 0.0
        for mask in range(2**m):
            da = "".join(c for k, c in enumerate(axes) if mask >> k & 1)
            db = "".join(c for k, c in enumerate(axes) if not mask >> k & 1)
            term = f"p{da}{sa},p{db}{sb}->p{axes}{out}"
            total = total + np.einsum(term, a[len(da)], b[len(db)])
            scale = scale + np.einsum(term, np.abs(a[len(da)]), np.abs(b[len(db)]))
        parts.append(total)
        scales.append(scale)
    return tuple(parts), tuple(scales)


def reference_blocks(p, q, r, s=None):
    return tuple(np.block([[pm, qm], [rm, np.zeros_like(pm) if s is None else s[m]]])
                 for m, (pm, qm, rm) in enumerate(zip(p, q, r)))


def random_parts(rng, subscripts, parts, n=2, rows=5):
    """Random parts of a quantity with value axes ``subscripts``, each of
    width n, and derivative axes of width 2n, as on a bundle chart."""
    return tuple(rng.normal(size=(rows,) + (2 * n,) * m + (n,) * len(subscripts))
                 for m in range(parts))


def test_product_is_the_einsum_leibniz_rule():
    # every subscript string the module multiplies parts by; the value is
    # the reference's einsum to the bit, and a term of a partial is a
    # matmul, which sums in another order
    specs = sorted(set(re.findall(r'_product\("([^"]+)"', inspect.getsource(tb))))
    assert len(specs) == 17
    rng = np.random.default_rng(7)
    ulp = np.finfo(float).eps
    for spec in specs:
        sa, sb = spec.split("->")[0].split(",")
        for order in range(4):
            # the longer factor has a part more, which the product drops
            a, b = random_parts(rng, sa, order + 1), random_parts(rng, sb, order + 2)
            got = tb._product(spec, a, b)
            want, scale = reference_product(spec, a, b)
            assert [part.shape for part in got] == [part.shape for part in want], spec
            assert got[0].tobytes() == want[0].tobytes(), spec
            for m in range(1, order + 1):
                assert np.all(np.abs(got[m] - want[m]) <= 4 * ulp * scale[m]), (spec, m)


def test_blocks_are_np_block():
    rng = np.random.default_rng(8)
    for order in range(3):
        p, q, r, s = (random_parts(rng, "ij", order + 1) for _ in range(4))
        for lower in (s, None):
            got, want = tb._blocks(p, q, r, lower), reference_blocks(p, q, r, lower)
            assert [part.shape for part in got] == [part.shape for part in want]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name", BUNDLES)
def test_lifted_values_are_the_einsum_values(name, mode, monkeypatch):
    # fd stencils difference these values, so a rounding change in them
    # would be magnified: at every order a lift reaches, its value part is
    # the all-einsum path's to the bit
    bundle = builtins.build(name, mode).bundle
    x = bundle_points(bundle, 16)
    lifts = (bundle.sasaki_metric, bundle.horizontal_metric, bundle.complete_metric,
             bundle.complete_conn, bundle.horizontal_conn)

    def values(lift):
        out = []
        for order in range(lift.max_order + 1):
            try:
                out.append(lift.batch(x, order)[0])
            except ContractViolation:  # fd base stacks stop at order 2
                break
        return out

    got = [values(lift) for lift in lifts]
    monkeypatch.setattr(tb, "_product", lambda spec, a, b: reference_product(spec, a, b)[0])
    monkeypatch.setattr(tb, "_blocks", reference_blocks)
    want = [values(lift) for lift in lifts]
    for lift, g, w in zip(lifts, got, want):
        assert len(g) == len(w) >= 1, type(lift).__name__
        assert all(gv.tobytes() == wv.tobytes() for gv, wv in zip(g, w)), type(lift).__name__


def test_bundle_checks_share_one_submersion_setup(monkeypatch):
    # prop41, prop42 and tm_statistical use the bundle's own setup, the
    # scenario's; the base builtin builds one more for its own submersion
    made = []
    init = sm.SubmersionSetup.__init__

    def counting(self, total, *args, **kwargs):
        made.append(total.chart.bundle)
        init(self, total, *args, **kwargs)

    monkeypatch.setattr(sm.SubmersionSetup, "__init__", counting)
    cfg = parse_config({"builtin": "tangent_bundle_of:hyperbolic:2",
                        "sampling": {"count": 4, "seed": 0}}, source="<test>")
    report = runner.run_suite(cfg)
    assert {c["name"] for c in report["checks"]} >= {"prop41", "prop42", "tm_statistical"}
    assert made.count(True) == 1
    assert made == [False, True]


def _containers(obj, seen=None, path="") -> dict:
    """Sizes of every container reachable through the attributes of
    package objects from obj, keyed by attribute path."""
    seen = set() if seen is None else seen
    out = {}
    if id(obj) in seen:
        return out
    seen.add(id(obj))
    for key, value in vars(obj).items():
        if isinstance(value, (dict, list, set, tuple)):
            out[path + key] = len(value)
            items = value.values() if isinstance(value, dict) else value
            for k, item in enumerate(items):
                if type(item).__module__.startswith("subgeo."):
                    out.update(_containers(item, seen, f"{path}{key}[{k}]."))
        elif type(value).__module__.startswith("subgeo.") and hasattr(value, "__dict__"):
            out.update(_containers(value, seen, f"{path}{key}."))
    return out


def test_bundle_suites_hold_no_per_point_state():
    # the bundle checks evaluate batches that live as long as the check:
    # nothing the bundle's metrics, connections or setup hold grows with
    # the sample count
    scenario = builtins.build("tangent_bundle_of:hyperbolic:2")
    sizes = []
    for count in (8, 64):
        ctx = runner.RunContext(scenario, count, 5)
        for name in scenario.checks:
            result = runner.run_check(name, scenario, ctx, 1e-7)
            assert result.samples > 0, name
        sizes.append(_containers(scenario.bundle))
    assert sizes[0] == sizes[1]
    assert "setup._pi_stack.fields" in sizes[0]


def test_a_build_evaluates_each_base_batch_once():
    # the five lifts of tb_defining_rules and the Sasaki metric, complete
    # lift and base space of a frame build all read the base metric and
    # connection at the same points; a build evaluates each at each stack
    # of points once (the connection first, so the alpha connection's
    # order-2 metric batch serves the order-1 metric reads), and every
    # build evaluates afresh
    bundle = builtins.build("tangent_bundle_of:gaussian:alpha=1").bundle
    base = bundle.base
    calls = []

    def counting(fld):
        batch = fld._batch

        def wrapped(points, order):
            calls.append((fld, points.tobytes(), order))
            return batch(points, order)

        return wrapped

    x = sample_box(bundle.chart.box, 16, 0)
    with mock.patch.object(base.metric, "_batch", counting(base.metric)), \
            mock.patch.object(base.conn, "_batch", counting(base.conn)):
        for build in (lambda: run_check("tb_defining_rules", bundle, x, 1e-8),
                      lambda: bundle.setup._frames(x)):
            calls.clear()
            build()
            once = collections.Counter(calls)
            assert {fld for fld, _, _ in once} == {base.metric, base.conn}
            assert set(collections.Counter(call[:2] for call in calls).values()) == {1}, calls
            build()
            assert collections.Counter(calls) == {call: 2 for call in once}
    assert fields._MEMO.get() is None


def test_a_build_that_raises_leaves_no_shared_batch():
    bundle = builtins.build("tangent_bundle_of:gaussian:alpha=1").bundle
    x = sample_box(bundle.chart.box, 4, 0)

    def failing(points):
        bundle.sasaki_metric.batch(points, 1)
        assert fields._MEMO.get()
        raise EvalDomain("after a batch", point=points[0])

    arrays, errors = build_rows(failing, x)  # the stack, then each row alone
    assert arrays == {} and sorted(errors) == [0, 1, 2, 3]
    assert fields._MEMO.get() is None
    with pytest.raises(ZeroDivisionError):  # not an incident: propagates
        build_rows(lambda points: (bundle.sasaki_metric.batch(points, 0), 1 / 0), x)
    assert fields._MEMO.get() is None

    def writing(points):
        bundle.sasaki_metric.batch(points, 0)[0][0] = 0.0

    # a shared part is read-only, so a caller writing into it fails loudly
    with pytest.raises(ValueError, match="read-only"):
        build_rows(writing, x)
    assert bundle.sasaki_metric.batch(x, 0)[0].flags.writeable  # outside a build: its own


def test_a_nested_build_shares_the_outer_build_and_each_row_rebuild_starts_empty():
    x = sample_box(((0.0, 1.0),) * 2, 3, 0)
    memos = []

    def inner(points):
        memos.append(("inner", fields._MEMO.get()))
        return {"x": points}

    def outer(points):
        memos.append(("outer", fields._MEMO.get()))
        built, _ = build_rows(inner, points)
        if len(points) > 1:
            raise EvalDomain("the stack fails", point=points[0])
        return built

    arrays, errors = build_rows(outer, x)
    assert not errors and np.array_equal(arrays["x"], x)
    # the stack, then three rows: each outer attempt with the inner one in it
    assert [kind for kind, _ in memos] == ["outer", "inner"] * 4
    pairs = [memos[k:k + 2] for k in range(0, 8, 2)]
    assert all(o is i and o is not None for (_, o), (_, i) in pairs)
    assert len({id(o) for (_, o), _ in pairs}) == 4
    assert fields._MEMO.get() is None
