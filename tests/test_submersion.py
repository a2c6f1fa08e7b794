"""Submersion frames, fundamental tensors, and the structural checks.

The always-true identities (split of the tangent space, tensoriality,
decomposition of covariant derivatives) must pass on every fixture,
including one with a rotating horizontal distribution.  The conditional
properties are exercised in both directions.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condition_reference as cref
import frame_arrays_reference as eager
import frame_reference as ref
from conftest import (
    euclid_setup,
    gaussian_setup,
    hyperbolic_setup,
    max_abs,
    points_for,
    preset_context,
    run_check,
    skewed_setup,
)
from subgeo import builtins, config, geometry, runner
from subgeo import submersion as sm
from subgeo.errors import ContractViolation, EvalDomain, RankDrop
from subgeo.fields import (
    ChartedManifold,
    ExprConnection,
    ExprField,
    LeviCivitaConnection,
    MetricConnection,
    MetricField,
    Space,
    _dual,
)
from subgeo.tangent_bundle import TangentBundle
from subgeo.results import FAIL, INCONCLUSIVE, PASS, build_rows
from subgeo.sampling import sample_box


@pytest.fixture(scope="module")
def hyp3():
    return hyperbolic_setup(3)


@pytest.fixture(scope="module")
def skew():
    return skewed_setup()


def test_projection_requires_matching_arity():
    setup = euclid_setup(3, 2)
    with pytest.raises(ContractViolation):
        sm.SubmersionSetup(setup.total, setup.base, setup.pi[:1])


def frame_at(setup, p):
    """The one-point frame batch at p."""
    return setup._frames([p])


DERIVED_PARTS = ("gamma_dual", "cubic", "gamma_b_dual", "cubic_b")


def frame_arrays(frames) -> dict:
    """Every array of a frame batch, the parts computed on first read too."""
    for name in sm._DERIVED:
        getattr(frames, name)
    return {k: v for k, v in vars(frames).items() if isinstance(v, np.ndarray)}


def test_split_basis_shapes(hyp3):
    p = (0.3, -0.2, 1.7)
    f = frame_at(hyp3, p)
    assert f.lcols.shape == (1, 3, 2)
    assert f.vcols.shape == (1, 3, 1)
    # projection of the lift columns is the identity on the base
    assert np.array_equal(f.dpi[0], np.eye(2, 3))  # pi drops the last coordinate
    assert max_abs(f.dpi[0] @ f.lcols[0] - np.eye(2)) < 1e-12
    assert max_abs(f.dpi[0] @ f.vcols[0]) < 1e-12
    # projectors are complementary idempotents
    assert max_abs(f.ph[0] + f.pv[0] - np.eye(3)) < 1e-12
    assert max_abs(f.ph[0] @ f.ph[0] - f.ph[0]) < 1e-12
    # horizontal is the metric-orthogonal complement of vertical
    assert max_abs(f.lcols[0].T @ f.g[0] @ f.vcols[0]) < 1e-12


def test_horizontal_lift_against_hand_value(hyp3):
    # diagonal metric: the lift of a base direction is the same direction
    p = (0.1, 0.4, 1.7)
    x = frame_at(hyp3, p).lcols[0] @ np.array([1.0, 0.0])
    assert x == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_fundamental_a_hand_value(hyp3):
    # X the lift of the first base direction; the vertical part of
    # nabla_X X is (0, 0, 1/y) for the upper half-space metric.
    y = 1.7
    f = frame_at(hyp3, (0.3, -0.2, y))
    x = f.lcols[..., 0]
    a_xx = hyp3.fundamental_A(f, x, x)[0]
    assert a_xx == pytest.approx([0.0, 0.0, 1.0 / y], abs=1e-11)


def test_fundamental_t_vanishes_on_flat_product():
    setup = euclid_setup(3, 2)
    p = (0.2, -0.4, 0.6)
    v = np.array([[0.0, 0.0, 1.0]])
    assert max_abs(setup.fundamental_T(frame_at(setup, p), v, v)) < 1e-12
    # identity-like submersion with no fiber directions at all
    ident = euclid_setup(2, 2)
    assert frame_at(ident, (0.1, 0.2)).vcols.shape == (1, 2, 0)


def test_fundamental_tensors_are_tensorial(hyp3):
    res = run_check("tensoriality", hyp3, points_for(hyp3, 6), 1e-8)
    assert res.status == PASS


def test_always_true_identities_on_all_fixtures(skew, hyp3):
    for setup in (hyp3, gaussian_setup(1.0), euclid_setup(3, 2), skew):
        pts = points_for(setup, 8)
        for name in ("split_identities", "gauss_weingarten"):
            res = run_check(name, setup, pts, 1e-9)
            assert res.status == PASS, (setup.name, name, res.max_residual)


def test_lemma_components_tight(hyp3):
    pts = points_for(hyp3, 10)
    res = run_check("lemma_components", hyp3, pts, 1e-7)
    assert res.status == PASS
    assert res.max_residual < 1e-12
    assert set(res.details) == {f"cs{k}" for k in range(6, 12)}

    res_g = run_check("lemma_components", gaussian_setup(1.0), points_for(gaussian_setup(1.0), 10), 1e-7)
    assert res_g.status == PASS


def test_four_conditions_positive(hyp3):
    res = run_check("four_conditions", hyp3, points_for(hyp3, 8), 1e-8)
    assert res.status == PASS
    assert res.details["biconditional_holds"] is True
    assert res.details["conditions_pass"] is True
    assert res.details["total_space_pass"] is True


def test_four_conditions_detects_broken_total(hyp3):
    # bump one Christoffel entry of the total connection
    bump = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    bump[0][2][2] = "1/10"
    from subgeo.fields import SumConnection

    total = Space(hyp3.total.chart, hyp3.total.metric,
                  SumConnection(hyp3.total.conn, ExprConnection(3, bump)))
    bad = sm.SubmersionSetup(total, hyp3.base, hyp3.pi, hyp3.phi, "perturbed")
    res = run_check("four_conditions", bad, points_for(bad, 8), 1e-8)
    assert res.status == FAIL
    # both sides fail, so the biconditional itself still holds
    assert res.details["biconditional_holds"] is True
    assert res.details["condition2"] == pytest.approx(0.1, rel=1e-6)


def test_semi_riemannian_polarity(hyp3):
    flat = euclid_setup(3, 2)
    assert run_check("semi_riemannian", flat, points_for(flat, 6), 1e-9).status == PASS
    # conformal but not isometric: horizontal lengths are rescaled
    res = run_check("semi_riemannian", hyp3, points_for(hyp3, 6), 1e-9)
    assert res.status == FAIL
    assert res.details["fiber_metric_degenerate"] is False


def test_semi_riemannian_fails_a_null_fiber_without_an_incident():
    # g_33 = x3: the fiber metric vanishes at x3 = 0, where the kernel lies
    # in its own g-orthogonal complement and no frame can be built
    cfg = config.parse_config({
        "manifold": {"dim": 3, "box": [[-1.0, 1.0]] * 3,
                     "metric": [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "x3"]]},
        "submersion": {"base": {"dim": 2, "box": [[-1.0, 1.0]] * 2,
                                "metric": [["1", "0"], ["0", "1"]], "connection": "flat"},
                       "projection": ["x1", "x2"]},
        "checks": ["semi_riemannian"],
    })
    setup = config.build_scenario(cfg).setup
    pts = np.array([(0.1, 0.2, 0.0), (0.1, 0.2, 0.5), (0.3, -0.2, 0.7)])
    assert setup.null_fibers(pts).tolist() == [True, False, False]
    res = run_check("semi_riemannian", setup, pts, 1e-8)
    assert (res.status, res.samples, res.incidents) == (FAIL, 3, 0)
    assert res.details == {"fiber_metric_degenerate": True}
    assert res.max_residual == np.inf
    assert run_check("semi_riemannian", setup, pts[1:], 1e-8).details == {
        "fiber_metric_degenerate": False}


def test_conformal_family(hyp3):
    pts = points_for(hyp3, 8)
    assert run_check("conformal_metric", hyp3, pts, 1e-9).status == PASS
    assert run_check("conformal_defect", hyp3, pts, 1e-8).status == PASS
    assert run_check("affine_hd", hyp3, pts, 1e-8).status == PASS
    assert run_check("dual_conformal_pair", hyp3, pts, 1e-8).status == PASS
    gauss = gaussian_setup(1.0)
    gpts = points_for(gauss, 8)
    assert run_check("conformal_metric", gauss, gpts, 1e-9).status == PASS
    assert run_check("conformal_defect", gauss, gpts, 1e-8).status == PASS


def test_conformal_metric_fails_with_wrong_factor(hyp3):
    wrong = sm.SubmersionSetup(
        hyp3.total, hyp3.base, hyp3.pi, ExprField.parse("-2*log(x3)", 3), "wrong-phi")
    res = run_check("conformal_metric", wrong, points_for(hyp3, 6), 1e-9)
    assert res.status == FAIL


def test_projectable_and_induced(hyp3):
    pts = points_for(hyp3, 6)
    assert run_check("projectable", hyp3, pts, 1e-8).status == PASS
    res = run_check("induced_statistical", hyp3, pts, 1e-7)
    assert res.status == PASS
    assert res.details["proof_identity_residual"] < 1e-10


def test_induced_statistical_all_alphas():
    for alpha in (0.0, 1.0, -1.0):
        setup = gaussian_setup(alpha)
        res = run_check("induced_statistical", setup, points_for(setup, 8), 1e-7)
        assert res.status == PASS, (alpha, res.max_residual)


def test_induced_inconclusive_when_premise_broken(hyp3):
    bump = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    bump[0][2][2] = "1/10"
    from subgeo.fields import SumConnection

    total = Space(hyp3.total.chart, hyp3.total.metric,
                  SumConnection(hyp3.total.conn, ExprConnection(3, bump)))
    bad = sm.SubmersionSetup(total, hyp3.base, hyp3.pi, hyp3.phi, "perturbed")
    res = run_check("induced_statistical", bad, points_for(bad, 6), 1e-7)
    assert res.status == INCONCLUSIVE
    assert res.details.get("premise_failed") is True


def fold_setup():
    """A flat plane over a flat line, projected by x1^2 - x1/2: dpi
    vanishes along x1 = 1/4, away from the box center."""
    chart = ChartedManifold("fold", 2, ((-1.0, 1.0), (-1.0, 1.0)))
    metric = MetricField.from_exprs([["1", "0"], ["0", "1"]], 2)
    total = Space(chart, metric, ExprConnection.zero(2))
    bchart = ChartedManifold("line", 1, ((-1.0, 1.0),))
    base = Space(bchart, MetricField.from_exprs([["1"]], 1), ExprConnection.zero(1))
    return sm.SubmersionSetup(total, base, [ExprField.parse("x1^2 - x1/2", 2)], None, "fold")


def test_rank_drop_detected():
    setup = fold_setup()
    assert isinstance(setup._frames([(0.25, 0.3)]).errors[0], RankDrop)
    res = run_check("split_identities", setup, [(0.25, 0.3)], 1e-9)
    assert res.details["incident_kinds"]["RankDrop"]["count"] == 1
    # away from the fold the split works
    assert not setup._frames([(0.6, 0.3)]).errors
    assert frame_at(setup, (0.6, 0.3)).lcols.shape == (1, 2, 1)


def test_every_frame_check_reads_a_near_fold_point_as_one_rank_drop():
    # dpi = 2e-12 there: no frame exists, so no check that builds one
    # (every kernel row of the submersion) may judge one
    setup = fold_setup()
    scenario = builtins.Scenario("fold", setup.total, setup=setup)
    points = np.array([(0.25 + 1e-12, 0.3), (0.6, 0.3)])
    ctx = preset_context(scenario, points, {}, np.array([(0.3, -0.2), (0.5, 0.1)]))
    names = [name for name, spec in runner.CHECK_TABLE.items()
             if spec.kernel and spec.needs == ("submersion",)]
    assert len(names) == 14
    for name in names:
        res = runner.run_check(name, scenario, ctx)
        assert (res.samples, res.incidents) == (1, 1), name
        assert res.details["incident_kinds"]["RankDrop"]["count"] == 1, name


def test_semi_riemannian_reads_a_fold_point_as_one_rank_drop_without_re_pivoting():
    # null_fibers runs the rank test before it builds the kernel columns,
    # so the fold point never reaches the uniform pivot block
    setup = fold_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_check("semi_riemannian", setup, [(0.25, 0.3), (0.6, 0.3)], 1e-8)
    assert (res.samples, res.incidents) == (1, 1)
    assert res.details["incident_kinds"]["RankDrop"]["count"] == 1


def flat_setup(box, pi):
    """A flat chart over a flat line, projected by the expression ``pi``."""
    chart = ChartedManifold("flat", len(box), box)
    rows = [["1" if i == j else "0" for j in range(len(box))] for i in range(len(box))]
    total = Space(chart, MetricField.from_exprs(rows, len(box)), ExprConnection.zero(len(box)))
    bchart = ChartedManifold("line", 1, ((-50.0, 50.0),))
    base = Space(bchart, MetricField.from_exprs([["1"]], 1), ExprConnection.zero(1))
    return sm.SubmersionSetup(total, base, [ExprField.parse(pi, len(box))], None, "flat")


def test_fiber_points_satisfy_projection():
    setup = flat_setup(((-1.0, 1.0), (-1.0, 1.0)), "x1 + sin(x2)/3")
    anchor = np.array([0.25 - np.sin(0.1) / 3.0, 0.1])
    pts = setup.fiber_points(anchor, 5)
    assert pts.ndim == 2 and pts.shape[1] == 2 and len(pts) >= 3
    assert max_abs(setup.project(pts) - setup.project(anchor[None])) <= 1e-10
    spread = {round(q[1], 6) for q in pts}
    assert len(spread) == len(pts)


def fiber_setups():
    return {
        # Newton on x1^3 - 2 x1 + c cycles near 0 <-> 1 for c near 2
        "cycle": flat_setup(((-1.0, 1.0), (-3.0, 3.0)), "x1^3 - 2*x1 + x2"),
        # the Jacobian x1 is exactly singular on x1 = 0
        "fold": flat_setup(((-1.0, 3.0), (-1.0, 1.0)), "x1^2/2 + x2"),
        "hyperbolic:3": builtins.build("hyperbolic:3").setup,
        "gaussian:alpha=1": builtins.build("gaussian:alpha=1").setup,
        "bundle": builtins.build("tangent_bundle_of:hyperbolic:2").setup,
    }


def test_stacked_fiber_search_is_the_per_start_search():
    outcomes = set()
    for name, setup in fiber_setups().items():
        anchors = points_for(setup, 6, seed=1)
        if setup.n == 2:
            anchors = np.concatenate([anchors, [[0.0, 0.0]]])  # x1 = 0 on the fold
        for anchor in anchors:
            want, why = ref.fiber_points(setup, anchor, 8)
            got = setup.fiber_points(anchor, 8)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, anchor)
            outcomes.update(why)
    assert outcomes == {"found", "outside", "singular", "no convergence"}


def test_a_start_that_raises_fails_the_fiber_search_with_its_own_error():
    # sqrt(x2): the starts with x2 <= 0 raise on their first residual;
    # sqrt(x1): Newton steps take some starts below x1 = 0 later on, and
    # the first start to raise is not always the first to fail in a step
    raised, found = 0, 0
    for pi in ("x1 + sqrt(x2)", "sqrt(x1) + x2/4"):
        setup = flat_setup(((-0.5, 1.5), (-0.5, 1.5)), pi)
        for anchor in points_for(setup, 16, seed=2) * (0.2, 1.0):
            try:
                want = ref.fiber_points(setup, anchor, 8)[0]
            except EvalDomain as exc:
                raised += 1
                with pytest.raises(EvalDomain) as got:
                    setup.fiber_points(anchor, 8)
                assert str(got.value) == str(exc) and got.value.point == exc.point
            else:
                found += 1
                assert setup.fiber_points(anchor, 8).tobytes() == want.tobytes()
    assert raised > 16 and found > 0


def test_s_tensor_symmetry(hyp3):
    # the difference tensor of a metric-compatible pair is symmetric
    p = (0.2, 0.1, 1.1)
    v = np.array([[0.3, -0.5, 0.7]])
    x = np.array([[1.0, 0.2, -0.4]])
    f = frame_at(hyp3, p)
    s_vx = f.s_value(v, x)
    s_xv = f.s_value(x, v)
    assert max_abs(np.asarray(s_vx) - np.asarray(s_xv)) < 1e-10


def test_per_point_state_stays_bounded():
    # frames live as long as the residual computation: nothing the setup
    # holds may grow with the number of sample points
    setup = hyperbolic_setup(3)

    def sizes():
        return {k: len(v) for k, v in vars(setup).items()
                if isinstance(v, (dict, list, set, tuple))}

    for count in (8, 64):
        pts = points_for(setup, count)
        assert run_check("lemma_components", setup, pts, 1e-7).status == PASS
        assert run_check("four_conditions", setup, pts, 1e-8).status == PASS
        if count == 8:
            before = sizes()
    assert sizes() == before


# -- the frame batch -----------------------------------------------------------

FRAME_SETUPS = {
    "hyperbolic:3": builtins.build("hyperbolic:3").setup,
    "gaussian:alpha=1": builtins.build("gaussian:alpha=1").setup,
    "bundle": TangentBundle(builtins.build("hyperbolic:2").space).setup,
}


def box_points(setup, unit):
    lo, hi = np.array(setup.total.chart.box).T
    return [tuple(lo + np.array(u[:len(lo)]) * (hi - lo)) for u in unit]


# the submersion checks that are pointwise, on a frame batch or a point stack
FRAME_CHECKS = (
    "lemma_components", "four_conditions", "gauss_weingarten", "split_identities",
    "tensoriality", "semi_riemannian", "conformal_metric", "conformal_defect", "affine_hd",
    "dual_conformal_pair", "induced_statistical",
)


def _at_row_velocity(kernel):
    """A tangent-frames kernel at a velocity each row takes from its own frame."""
    return lambda f: kernel(f, np.tanh(f.g.sum(axis=-1)))


# the row kernel of each submersion check on a frame batch, plus the
# induced structures
FRAME_RESIDUALS = {"induced_structures": lambda f: dict(enumerate(sm.induced_structures(f)))}
FRAME_RESIDUALS.update(
    (name, _at_row_velocity(getattr(*spec.kernel)) if spec.stack == "tangent frames"
     else getattr(*spec.kernel))
    for name, spec in runner.CHECK_TABLE.items()
    if spec.needs == ("submersion",) and spec.stack.endswith("frames"))


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(sorted(FRAME_SETUPS)),
       unit=st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
                     min_size=1, max_size=6))
def test_frame_batch_rows_equal_one_row_builds(which, unit):
    setup = FRAME_SETUPS[which]
    pts = box_points(setup, unit)
    frames = setup._frames(pts)
    ones = [setup._frames([p]) for p in pts]
    for row, one in enumerate(ones):
        for name, values in frame_arrays(frames).items():
            assert np.array_equal(values[row], getattr(one, name)[0]), (which, name)
    # every frame residual reads its rows independently of the batch
    for check, residuals in FRAME_RESIDUALS.items():
        batch = residuals(frames)
        for row, one in enumerate(ones):
            alone = residuals(one)
            for key in batch if isinstance(batch, dict) else [None]:
                got, want = ((batch[key], alone[key]) if key is not None else (batch, alone))
                got, want = np.asarray(got)[row], np.asarray(want)[0]
                bound = 1e-12 * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(got - want) <= bound), (which, check, key, row)


def derived_parts(f) -> dict:
    """The derived parts of a row batch, from its own arrays."""
    return {"gamma_dual": _dual((f.g, f.dg), (f.gamma,))[0],
            "cubic": geometry.nabla_g_values(f.g, f.dg, f.gamma),
            "gamma_b_dual": _dual((f.gb, f.dg_b), (f.gamma_b,))[0],
            "cubic_b": geometry.nabla_g_values(f.gb, f.dg_b, f.gamma_b)}


@pytest.mark.parametrize("which", sorted(FRAME_SETUPS))
def test_derived_frame_parts_are_those_of_the_frame_arrays(which):
    setup = FRAME_SETUPS[which]
    pts = box_points(setup, [[0.2, 0.7, 0.4, 0.9], [0.6, 0.3, 0.8, 0.1], [0.5] * 4])
    rows = [2, 0]
    for read_first in (False, True):  # take and over before and after a read
        frames = setup._frames(pts)
        want = derived_parts(frames)
        if read_first:
            frame_arrays(frames)
        taken, wide = frames.take(rows), frames.over(3)
        want_taken = derived_parts(taken)
        for name in DERIVED_PARTS:
            assert np.array_equal(getattr(frames, name), want[name]), (which, name)
            assert np.array_equal(getattr(taken, name), want_taken[name]), (which, name)
            assert np.array_equal(want_taken[name], want[name][rows]), (which, name)
            wide_want = want[name][:, None, None, None]
            assert np.array_equal(getattr(wide, name), wide_want), (which, name)


SUBMERSION_BUILTINS = (
    "euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3", "gaussian:alpha=0",
    "gaussian:alpha=1", "gaussian:alpha=-0.5", "perturbed:3", "tangent_bundle_of:hyperbolic:2",
    "tangent_bundle_of:gaussian:alpha=1", "tangent_bundle_of:euclidean:2")
# the builtins in their own boxes, and a hyperbolic:3 box whose rows at
# x3 <= 0 fail, so that the stack is rebuilt row by row
EAGER_CASES = [(name, None) for name in SUBMERSION_BUILTINS] + [
    ("hyperbolic:3", ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 3.0)))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name, box", EAGER_CASES)
def test_every_frame_part_is_that_of_the_eager_build(name, box, mode, seed):
    setup = builtins.build(name, mode).setup
    x = sample_box(box or setup.total.chart.box, 16, seed)
    want, errors = build_rows(lambda rows: eager.frame_arrays(setup, rows), x)
    rows = [len(want["dpi"]) - 1, 2, 0]
    views = {"whole": (lambda f: f, lambda a: a),
             "take": (lambda f: f.take(rows), lambda a: a[rows]),
             "slice": (lambda f: f.take(slice(1, -1)), lambda a: a[1:-1]),
             "over": (lambda f: f.over(2), lambda a: a.reshape(a.shape[:1] + (1, 1) + a.shape[1:]))}
    for view, (batch_of, rows_of) in views.items():
        frames = setup._frames(x)  # nothing read before the view is made
        assert {k: str(e) for k, e in frames.errors.items()} == {
            k: str(e) for k, e in errors.items()}
        batch = batch_of(frames)
        for part, array in want.items():
            got = getattr(batch, part)
            assert got.shape == rows_of(array).shape, (view, part)
            assert got.tobytes() == rows_of(array).tobytes(), (view, part)


CHAIN_PARTS = ("d_lcols", "d_ph", "d_pv")


@pytest.mark.parametrize("check", ["conformal_metric", "split_identities", "semi_riemannian"])
@pytest.mark.parametrize("name", ["hyperbolic:3", "tangent_bundle_of:hyperbolic:2"])
def test_checks_on_the_lifts_alone_never_build_the_projector_partials(name, check, monkeypatch):
    builds, batches = [], []
    build, frames = sm.SubmersionSetup._frame_arrays, sm.SubmersionSetup._frames
    monkeypatch.setattr(sm.SubmersionSetup, "_frame_arrays",
                        lambda *args: builds.append(build(*args)) or builds[-1])
    monkeypatch.setattr(sm.SubmersionSetup, "_frames",
                        lambda *args: batches.append(frames(*args)) or batches[-1])
    setup = builtins.build(name).setup
    assert run_check(check, setup, points_for(setup, 16), 1e-8).samples == 16
    assert len(builds) == 1 and len(batches) <= 1
    assert [part for part in CHAIN_PARTS if part in builds[0]] == []
    assert [part for f in batches for part in CHAIN_PARTS if part in vars(f)] == []


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name", ["hyperbolic:3", "gaussian:alpha=1"])
def test_frame_christoffels_from_its_metric_parts_are_the_connection_batch(name, mode):
    setup = builtins.build(name, mode).setup
    assert isinstance(setup.total.conn, MetricConnection)
    x = np.array(box_points(setup, [[0.2, 0.7, 0.4], [0.6, 0.3, 0.8], [0.5] * 3]))
    frames = setup._frames(x)
    assert np.array_equal(frames.gamma, setup.total.conn.batch(x, 0)[0])
    assert np.array_equal(frames.gamma_b, setup.base.conn.batch(setup.project(x), 0)[0])


@pytest.mark.parametrize("which", sorted(FRAME_SETUPS))
def test_frame_partials_match_central_differences(which):
    setup = FRAME_SETUPS[which]
    p = np.array(box_points(setup, [[0.3, 0.6, 0.45, 0.7]])[0])
    step = 1e-6
    f = frame_at(setup, p)
    for name in ("ph", "lcols", "vcols"):
        for k in range(setup.n):
            shift = step * np.eye(setup.n)[k]
            plus = getattr(frame_at(setup, p + shift), name)[0]
            minus = getattr(frame_at(setup, p - shift), name)[0]
            central = (plus - minus) / (2.0 * step)
            assert max_abs(central - getattr(f, "d_" + name)[0, k]) < 1e-6, (name, k)


def log_metric_setup():
    # g_11 has log(x1 + 0.8), undefined for x1 <= -0.8
    chart = ChartedManifold("log", 2, ((-1.0, 1.0), (0.5, 3.0)))
    metric = MetricField.from_exprs([["1/x2^2 + log(x1 + 0.8)", "0"], ["0", "1/x2^2"]], 2)
    total = Space(chart, metric, LeviCivitaConnection(metric))
    bchart = ChartedManifold("line", 1, ((-1.0, 1.0),))
    base = Space(bchart, MetricField.from_exprs([["1"]], 1), ExprConnection.zero(1))
    return sm.SubmersionSetup(total, base, [ExprField.parse("x1", 2)], None, "log")


def test_a_failing_point_is_one_incident_and_leaves_the_other_rows():
    setup = log_metric_setup()
    pts = [(0.3, 1.0), (-0.9, 1.5), (0.5, 2.0), (-0.2, 0.7)]
    frames = setup._frames(pts)
    assert list(frames.errors) == [1] and len(frames) == 3
    assert isinstance(frames.errors[1], EvalDomain)
    alone = setup._frames([pts[0], pts[2], pts[3]])
    for name, values in frame_arrays(alone).items():
        assert np.array_equal(getattr(frames, name), values), name
    res = run_check("conformal_metric", setup, pts, 1e-8)
    assert res.incidents == 1 and res.samples == 3
    assert res.details["incident_kinds"]["EvalDomain"]["count"] == 1


# incidents of each frame check on the log(x1 + 0.8) metric, 16 samples at
# seed 0, as the per-point frame builds counted them: the suite's draw has
# three points at x1 <= -0.8, rows 0, 5 and 14, and projectable's one fiber
# runs through row 0
LOG_METRIC_INCIDENTS = {
    "affine_hd": 3, "conformal_defect": 3, "conformal_metric": 3, "dual_conformal_pair": 3,
    "four_conditions": 3, "gauss_weingarten": 3, "induced_statistical": 3,
    "lemma_components": 3, "projectable": 1, "semi_riemannian": 3, "split_identities": 3,
    "tensoriality": 3,
}


def test_frame_checks_keep_their_incidents_on_a_partly_undefined_metric():
    cfg = config.parse_config({
        "manifold": {"dim": 2, "box": [[-1.0, 1.0], [0.5, 3.0]],
                     "metric": [["1/x2^2 + log(x1 + 0.8)", "0"], ["0", "1/x2^2"]]},
        "submersion": {"base": {"dim": 1, "box": [[-1.0, 1.0]], "metric": [["1"]],
                                "connection": "flat"},
                       "projection": ["x1"]},
        "checks": sorted(LOG_METRIC_INCIDENTS),
        "sampling": {"count": 16, "seed": 0},
    })
    for c in runner.run_suite(cfg)["checks"]:
        want = LOG_METRIC_INCIDENTS[c["name"]]
        kinds = {k: v["count"] for k, v in c["details"].get("incident_kinds", {}).items()}
        assert (c["incidents"], kinds) == (want, {"EvalDomain": want} if want else {}), c["name"]


# -- the column formulas against the per-index reference -------------------------


def self_projection():
    """hyperbolic:2 projected onto itself by (x1, x2): no fiber directions."""
    space = builtins.build("hyperbolic:2").space
    pi = [ExprField.parse("x1", 2), ExprField.parse("x2", 2)]
    return sm.SubmersionSetup(space, space, pi, None, "hyperbolic:2 onto itself")


REFERENCE_SETUPS = {
    **{name: builtins.build(name).setup
       for name in ("hyperbolic:3", "gaussian:alpha=1", "perturbed:3", "euclidean:3",
                    "tangent_bundle_of:hyperbolic:2")},
    "zero fiber": self_projection(),
}


@pytest.mark.parametrize("which", sorted(REFERENCE_SETUPS))
def test_column_formulas_match_the_per_index_reference(which):
    setup = REFERENCE_SETUPS[which]
    f = setup._frames(points_for(setup, 16))
    for new, old in ((sm.lemma_components, ref.lemma_components),
                     (sm.four_conditions_at, ref.four_conditions_at),
                     (sm.gauss_weingarten_residuals, ref.gauss_weingarten_residuals),
                     (sm.induced_statistical_residuals, ref.induced_statistical)):
        got, want = new(f), old(f)
        assert set(got) == set(want)
        for key in want:
            assert got[key].shape == want[key].shape == (len(f),), key
            bound = 1e-14 * np.maximum(1.0, np.abs(want[key]))
            assert np.all(np.abs(got[key] - want[key]) <= bound), (which, key)


SHARED_TENSOR_FRAMES = ("hyperbolic:3", "gaussian:alpha=1", "tangent_bundle_of:hyperbolic:2",
                        "tangent_bundle_of:gaussian:alpha=1", "tangent_bundle_of:euclidean:2")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", SHARED_TENSOR_FRAMES)
def test_shared_column_tensors_give_the_reference_residuals(name, seed):
    # the bundle builtins' setup is their bundle projection (Sasaki, complete lift)
    setup = builtins.build(name).setup
    x = points_for(setup, 32, seed)
    want = {**cref.four_conditions_at(setup._frames(x)),
            **cref.lemma_components(setup._frames(x))}
    for first, second in ((sm.four_conditions_at, sm.lemma_components),
                          (sm.lemma_components, sm.four_conditions_at)):
        f = setup._frames(x)
        got = {**first(f), **second(f)}
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key], equal_nan=True), (name, seed, key)


def test_a_frame_batch_is_freed_with_its_last_reference():
    # its over() batches are kept on it and refer back to it weakly, so no
    # reference cycle holds a batch (and its arrays) until a gc pass
    setup = builtins.build("hyperbolic:3").setup
    frames = setup._frames(points_for(setup, 8))
    sm.four_conditions_at(frames)
    sm.lemma_components(frames)
    assert set(frames._wide) == {2, 3}
    alive = weakref.ref(frames)
    gc.disable()
    try:
        del frames
        assert alive() is None
    finally:
        gc.enable()


ZERO_FIBER_VACUOUS = {
    "lemma_components": ("cs7", "cs8", "cs9", "cs10", "cs11"),
    "four_conditions": ("condition1", "condition2", "condition3"),
    "gauss_weingarten": ("vert_vert", "vert_horiz", "horiz_vert"),
}


def test_zero_fiber_results_on_every_frame_check():
    # every frame check passes on 8 points, the vacuous keys read exactly 0
    # and the others only rounding; projectable passes by convention
    setup = self_projection()
    pts = points_for(setup, 8)
    for name in FRAME_CHECKS + ("projectable",):
        res = run_check(name, setup, pts, 1e-8)
        assert (res.status, res.samples, res.incidents) == (PASS, 8, 0), name
        assert res.max_residual <= 2e-15, name
        for key in ZERO_FIBER_VACUOUS.get(name, ()):
            assert res.details[key] == 0.0, (name, key)
    assert run_check("projectable", setup, pts, 1e-8).max_residual == 0.0


def test_a_degenerate_pivot_pattern_re_pivots_at_the_point():
    # pi = x1^2/2 + x2: the pivot column chosen at the center (1, 0) is x1,
    # whose minor x1 vanishes at x1 = 0; that row alone re-pivots to x2
    chart = ChartedManifold("flat", 2, ((-1.0, 3.0), (-1.0, 1.0)))
    total = Space(chart, MetricField.from_exprs([["1", "0"], ["0", "1"]], 2),
                  ExprConnection.zero(2))
    bchart = ChartedManifold("line", 1, ((-2.0, 6.0),))
    base = Space(bchart, MetricField.from_exprs([["1"]], 1), ExprConnection.zero(1))
    setup = sm.SubmersionSetup(total, base, [ExprField.parse("x1^2/2 + x2", 2)], None, "fold")
    assert setup.pivot_pattern() == ((0,), (1,))
    pts = [(1.0, 0.0), (0.0, 0.3), (2.0, 0.5)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        frames = setup._frames(pts)
    assert len(frames) == 3 and not frames.errors
    assert [w.category for w in caught] == [UserWarning]
    with pytest.warns(UserWarning, match="re-pivoting"):
        res = run_check("split_identities", setup, pts, 1e-9)
    assert res.status == PASS and res.incidents == 0
