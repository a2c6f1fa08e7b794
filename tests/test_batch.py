"""The batched evaluator against the per-point jet reference.

Batched expression values must agree with ``eval_jet`` at each point to
the last bit; metric, connection and lift rows must agree with the jet
formulas of ``tests/jet_reference.py`` within 1e-14 * max(1, |x|) per
entry at every order the field supports, where a different solve or
summation order can move the last digits.
"""

import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subgeo
from subgeo import builtins, exprlang, fields, runner, sampling
from subgeo.config import build_scenario, parse_config
from subgeo.errors import ContractViolation, EvalDomain, SubgeoError
from subgeo.exprlang import compile_batched, eval_jet, parse
from subgeo.fields import DualConnection, FDField, MetricField, ScalarField
from subgeo.results import peak
from subgeo.jets import Jet
from subgeo.tangent_bundle import TangentBundle

from jet_reference import coeff_jets, jet_parts, matrix_jets, scalar_jet

REL = 1e-14

RATIONAL = ["1/x3^2", "x1*x2 - 3/x3 + (x1 - x2)^5", "2/x2^3 - x1^-2", "-(x1*x3)^4/7", "0", "x2"]
TRANSCENDENTAL = ["exp(x2)*log(x3) - sqrt(x1)", "tanh(x1*x2)/cos(x3)^2", "sin(x1)^3 + 1/10"]


def _points(n=40, dim=3, seed=0):
    return np.random.default_rng(seed).uniform(0.5, 2.0, size=(n, dim))


def close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() <= REL * np.abs(b).max()


def close_each(a, b):
    """Every entry within REL * max(1, |b|) of its reference."""
    a, b = np.asarray(a), np.asarray(b)
    return bool((np.abs(a - b) <= REL * np.maximum(1.0, np.abs(b))).all())


def _box_points(box, unit):
    lo, hi = np.array(box).T
    return lo + np.array(unit)[:, :len(box)] * (hi - lo)


@pytest.mark.parametrize("text", RATIONAL + TRANSCENDENTAL)
def test_batched_expression_rows_match_eval_jet(text):
    ast_ = parse(text, 3)
    pts = _points()
    for order in range(4):
        parts = compile_batched([ast_])(pts, order)
        assert [part.shape for part in parts] == [
            (len(pts),) + (3,) * k + (1,) for k in range(order + 1)]
        for k, p in enumerate(pts):
            jet = eval_jet(ast_, p, order)
            for part, want in zip(parts, (jet.value, jet.grad, jet.hess, jet.third)):
                # same operations in the same order, math-module functions: same bits
                assert np.array_equal(part[k, ..., 0], want), order


def test_orders_in_any_sequence_give_the_bits_of_fresh_programs():
    # one program specialised per order on first use: no state passes
    # from one order's function to another's
    asts = [parse(t, 3) for t in RATIONAL + TRANSCENDENTAL]
    pts = _points(7)
    program = compile_batched(asts)
    for order in (2, 0, 3, 1, 0):
        got, want = program(pts, order), compile_batched(asts)(pts, order)
        assert len(got) == len(want) == order + 1
        for part, fresh in zip(got, want):
            assert np.array_equal(part, fresh), order


def test_an_empty_stack_gives_empty_parts_at_every_order():
    asts = [parse(t, 3) for t in RATIONAL + TRANSCENDENTAL]
    for order in range(4):
        parts = compile_batched(asts)(np.zeros((0, 3)), order)
        assert [part.shape for part in parts] == [(0,) + (3,) * k + (len(asts),)
                                                  for k in range(order + 1)]


def test_equal_programs_compile_their_source_once(monkeypatch):
    compiled = []
    monkeypatch.setattr(exprlang, "compile", lambda *args: compiled.append(args) or compile(*args),
                        raising=False)
    exprlang._code.cache_clear()
    pts = _points(3)
    first, second = (compile_batched([parse("exp(x1)*x2 - 1/x3", 3)]) for _ in range(2))
    assert np.array_equal(first(pts, 2)[2], second(pts, 2)[2])
    assert len(compiled) == 1
    # the source is per order and shared whatever the constants
    compile_batched([parse("exp(x1)*x2 - 7/x3", 3)])(pts, 2)
    compile_batched([parse("exp(x1)*x2 - 1/x3", 3)])(pts, 1)
    assert len(compiled) == 2


def test_shared_subexpressions_give_each_output():
    asts = [parse(t, 3) for t in ("1/x3^2", "0", "2/x3^2", "1/x3^2")]
    values, grads = compile_batched(asts)(_points(5), 1)
    for e, ast_ in enumerate(asts):
        alone_v, alone_g = compile_batched([ast_])(_points(5), 1)
        assert np.array_equal(values[:, e], alone_v[:, 0])
        assert np.array_equal(grads[:, :, e], alone_g[:, :, 0])


def test_batched_domain_errors_name_the_first_bad_point():
    pts = np.array([[1.0, 1.0], [-1.0, 2.0], [-2.0, 3.0]])
    for order in range(4):
        with pytest.raises(EvalDomain, match="log of a non-positive") as e:
            compile_batched([parse("log(x1)", 2)])(pts, order)
        assert e.value.point == (-1.0, 2.0)
        with pytest.raises(EvalDomain, match="division by zero") as e:
            compile_batched([parse("1/(x2 - 2)", 2)])(pts, order)
        assert e.value.point == (-1.0, 2.0)
    with pytest.raises(ContractViolation):
        compile_batched([parse("x2", 2)])(np.ones((3, 1)), 1)
    with pytest.raises(ContractViolation):
        compile_batched([parse("x2", 2)])(np.ones((3, 2)), 4)


def test_overflow_is_a_domain_error_on_both_paths():
    ast_ = parse("exp(x2^3)", 2)
    pts = np.array([[0.0, 1.0], [0.0, 30.0], [0.0, 40.0]])
    with pytest.raises(EvalDomain) as e:
        compile_batched([ast_])(pts, 1)
    assert e.value.point == (0.0, 30.0)
    with pytest.raises(EvalDomain) as e:
        eval_jet(ast_, (0.0, 30.0), 1)
    assert e.value.point == (0.0, 30.0)
    # a float power that overflows: 1/x1 at order 1 squares 1e200
    with pytest.raises(EvalDomain) as e:
        compile_batched([parse("1/x1", 1)])(np.array([[1.0], [1e200]]), 1)
    assert e.value.point == (1e200,)
    # 1/v^4 underflows to zero in the order-3 reciprocal coefficients
    with pytest.raises(EvalDomain):
        eval_jet(parse("1/x1", 1), (1e-90,), 3)
    # math.sin of an overflowed value
    with pytest.raises(EvalDomain):
        Jet.constant(float("inf"), 1, 1).sin()


@pytest.mark.parametrize("text", ["1/x1", "log(x1)", "sqrt(x1)"])
@pytest.mark.parametrize("x", [1e-300, 1e-170, 1e-90, 1e-10, 1e80, 1e160])
def test_reciprocal_domain_errors_agree_on_both_paths(text, x):
    # each path raises, or both give the same bits, at every order: the
    # chain coefficients an order does not read must not raise
    ast_ = parse(text, 1)
    for order in range(4):
        try:
            jet = eval_jet(ast_, (x,), order)
        except EvalDomain:
            with pytest.raises(EvalDomain):
                compile_batched([ast_])(np.array([[x]]), order)
            continue
        parts = compile_batched([ast_])(np.array([[x]]), order)
        for part, want in zip(parts, (jet.value, jet.grad, jet.hess, jet.third)):
            assert np.array_equal(part[0, ..., 0], want), order


def _spaces():
    """(label, chart box, metric, connection) for builtins and derived fields."""
    out = []
    for name in ("hyperbolic:3", "gaussian:alpha=1", "gaussian:alpha=0", "gaussian:alpha=-0.5",
                 "euclidean:3", "perturbed:3", "broken:2"):
        sc = builtins.build(name)
        sp = sc.space
        out.append((name, sp.chart.box, sp.metric, sp.conn))
        dual = DualConnection(sp.conn, sp.metric)
        out.append((name + ":dual", sp.chart.box, sp.metric, dual))
        out.append((name + ":dual:dual", sp.chart.box, sp.metric,
                    DualConnection(dual, sp.metric)))
    bundle = TangentBundle(builtins.build("hyperbolic:2").space)
    out.append(("bundle:sasaki", bundle.chart.box, bundle.sasaki_metric,
                bundle.complete_conn))
    for name in ("hyperbolic:2", "hyperbolic:3", "gaussian:alpha=1", "broken:2"):
        fd = builtins.build(name, mode="fd").space
        out.append((name + ":fd", fd.chart.box, fd.metric, fd.conn))
        out.append((name + ":fd:dual", fd.chart.box, fd.metric,
                    DualConnection(fd.conn, fd.metric)))
    return out


SPACES = _spaces()


@settings(max_examples=80, deadline=None)
@given(which=st.integers(0, len(SPACES) - 1),
       unit=st.lists(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
                     min_size=1, max_size=4))
def test_batched_rows_match_per_point_values(which, unit):
    label, box, metric, conn = SPACES[which]
    pts = _box_points(box, unit)
    g, dg = metric.batch(pts, 1)
    (gamma,) = conn.batch(pts, 0)
    gamma1, dgamma = conn.batch(pts, 1)
    assert np.array_equal(gamma1, gamma), label
    for k, p in enumerate(pts):
        g_ref, dg_ref = jet_parts(matrix_jets(metric, p, 1), 1)
        assert close(g[k], g_ref), label
        assert close(dg[k], dg_ref), label
        gamma_ref, dgamma_ref = jet_parts(coeff_jets(conn, p, 1), 1)
        assert close(gamma[k], gamma_ref), label
        assert close_each(gamma1[k], gamma_ref), label
        assert close_each(dgamma[k], dgamma_ref), label


# every field kind at every order it supports: (label, box, field, top order)
def _fields():
    out = []
    hyp3 = builtins.build("hyperbolic:3").space
    out += [("hyperbolic:3:metric", hyp3.chart.box, hyp3.metric, 3),
            ("hyperbolic:3:levi-civita", hyp3.chart.box, hyp3.conn, 2),
            ("hyperbolic:3:dual", hyp3.chart.box, DualConnection(hyp3.conn, hyp3.metric), 1)]
    for name in ("gaussian:alpha=1", "gaussian:alpha=-0.5"):
        sp = builtins.build(name).space
        out += [(name + ":alpha", sp.chart.box, sp.conn, 2),
                (name + ":dual", sp.chart.box, DualConnection(sp.conn, sp.metric), 1)]
    pert = builtins.build("perturbed:3").space
    out.append(("perturbed:3:sum", pert.chart.box, pert.conn, 2))
    for name in ("broken:2", "euclidean:3"):
        sp = builtins.build(name).space
        out.append((name + ":expression", sp.chart.box, sp.conn, 3))
    for name in ("hyperbolic:2", "gaussian:alpha=1", "euclidean:2"):
        bundle = TangentBundle(builtins.build(name).space)
        top = 3 if name.startswith("euclidean") else 2  # the base connection's order
        box = bundle.chart.box
        out += [(name + ":sasaki", box, bundle.sasaki_metric, top),
                (name + ":horizontal", box, bundle.horizontal_metric, top),
                (name + ":complete", box, bundle.complete_metric, 2),
                (name + ":complete_conn", box, bundle.complete_conn, top - 1),
                (name + ":horizontal_conn", box, bundle.horizontal_conn, top - 1)]
    return out


FIELDS = _fields()


def _reference(fld, p, order):
    jets = matrix_jets if isinstance(fld, MetricField) else coeff_jets
    return jet_parts(jets(fld, p, order), order)


@pytest.mark.parametrize("label, box, fld, top", [pytest.param(*f, id=f[0]) for f in FIELDS])
def test_every_field_batch_matches_the_jet_reference_at_every_order(label, box, fld, top):
    pts = _box_points(box, np.random.default_rng(3).uniform(0.0, 1.0, size=(4, 6)))
    for order in range(top + 1):
        parts = fld.batch(pts, order)
        assert len(parts) == order + 1
        for k, p in enumerate(pts):
            for m, (part, want) in enumerate(zip(parts, _reference(fld, p, order))):
                assert part[k].shape == want.shape, (order, m)
                assert close_each(part[k], want), (order, m, np.abs(part[k] - want).max())
    with pytest.raises(ContractViolation):
        fld.batch(pts, top + 1)


def _central(fld, pts, order, a, step):
    """Central difference along coordinate a of the order-``order`` part."""
    shift = np.zeros(pts.shape[1])
    shift[a] = step
    hi, lo = fld.batch(pts + shift, order)[order], fld.batch(pts - shift, order)[order]
    return (hi - lo) / (2.0 * step)


# each top part against central differences of the part below it; fd-mode
# fields are difference quotients themselves, too noisy to difference again
@pytest.mark.parametrize("label, box, fld, top",
                         [pytest.param(*f, id=f[0]) for f in FIELDS if f[3] >= 1])
def test_higher_partials_match_central_differences(label, box, fld, top):
    pts = _box_points(box, np.random.default_rng(1).uniform(0.1, 0.9, size=(8, 6)))
    for order in range(max(1, top - 1), top + 1):
        top_part = fld.batch(pts, order)[order]
        for a in range(pts.shape[1]):
            central = _central(fld, pts, order - 1, a, 1e-5)
            assert np.abs(central - top_part[:, a]).max() < 1e-6, (order, a)


@pytest.mark.parametrize("label, box, conn", [pytest.param(label, box, conn, id=label)
                                              for label, box, _, conn in SPACES
                                              if ":fd" not in label])
def test_order1_partials_match_central_differences(label, box, conn):
    pts = _box_points(box, np.random.default_rng(1).uniform(0.1, 0.9, size=(8, 6)))
    _, dgamma = conn.batch(pts, 1)
    step = 1e-5
    for a in range(pts.shape[1]):
        shift = np.zeros(pts.shape[1])
        shift[a] = step
        central = (conn.batch(pts + shift, 0)[0] - conn.batch(pts - shift, 0)[0]) / (2.0 * step)
        assert np.abs(central - dgamma[:, a]).max() < 1e-6, (label, a)


def test_order2_metric_rows_match_per_point_jets():
    bundle = TangentBundle(builtins.build("hyperbolic:2").space)
    for box, metric in ((builtins.build("hyperbolic:3").space.chart.box,
                         builtins.build("hyperbolic:3").space.metric),
                        (bundle.chart.box, bundle.sasaki_metric)):
        pts = _box_points(box, np.random.default_rng(2).uniform(0.0, 1.0, size=(5, 6)))
        g, dg, d2g = metric.batch(pts, 2)
        assert np.array_equal(dg, metric.batch(pts, 1)[1])
        for k, p in enumerate(pts):
            g_ref, _, d2g_ref = jet_parts(matrix_jets(metric, p, 2), 2)
            assert close_each(g[k], g_ref)
            assert close_each(d2g[k], d2g_ref)
    # the Sasaki metric over a Levi-Civita base stops at the connection's order
    with pytest.raises(ContractViolation):
        metric.batch(pts, 3)


class Entry(ScalarField):
    """Entry ``index`` of a metric or connection as a scalar field, read
    from its parent's batch, to its parent's order."""

    def __init__(self, parent, index):
        self.parent = parent
        self.index = tuple(index)
        self.dim = parent.dim
        self.max_order = parent.max_order

    def _batch(self, points, order):
        return tuple(part[(Ellipsis,) + self.index] for part in self.parent.batch(points, order))


def test_fd_field_rows_match_the_per_point_stencil():
    # all nodes in one order-0 call: each node's arithmetic is unchanged,
    # and over a metric or connection each entry is its own stencil's
    for name in ("hyperbolic:3", "gaussian:alpha=1"):
        sc = builtins.build(name, mode="fd")
        metric, conn = sc.space.metric, sc.space.conn
        scalars = [metric.entry(*index) for _, index in metric.entries()] + [sc.setup.phi]
        pts = _box_points(sc.space.chart.box,
                          np.random.default_rng(4).uniform(0.0, 1.0, size=(6, 6)))
        for fld in scalars:
            assert isinstance(fld, FDField)
            for order in range(3):
                parts = fld.batch(pts, order)
                for k, p in enumerate(pts):
                    for part, want in zip(parts, jet_parts(scalar_jet(fld, p, order), order)):
                        assert np.array_equal(part[k], want), (name, order)
        entries = [(metric, index, metric.entry(*index)) for _, index in metric.entries()]
        entries += [(conn, index, Entry(conn, index)) for _, index in conn.entries()]
        for order in range(3):
            whole = {fld: FDField(fld).batch(pts, order) for fld in (metric, conn)}
            for fld, index, entry in entries:
                for part, want in zip(whole[fld], FDField(entry).batch(pts, order)):
                    assert np.array_equal(part[(Ellipsis,) + index], want), (name, order, index)


# -- the orders fd_crosscheck reaches ------------------------------------------

BUILTINS = ("euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3",
            "gaussian:alpha=0", "gaussian:alpha=1", "gaussian:alpha=-0.5",
            "broken:2", "perturbed:3", "tangent_bundle_of:hyperbolic:2",
            "tangent_bundle_of:gaussian:alpha=1", "tangent_bundle_of:euclidean:2")


def _pinned_order(name, mode, label):
    """The order a probe of ``label`` reaches, or the incident it raises.

    Jet mode: 2 everywhere, except the complete-lift Christoffels of a
    bundle over a Levi-Civita or alpha base, which differentiate a base
    Gamma of order 2 and so reach 1.  Fd mode: metric-like entries 2 and
    Christoffels 1 (the metric stops at order 2), except on the constant
    connections of euclidean and broken:2; on a bundle over a curved base
    the Sasaki entries reach 1 and the lifted Christoffels none.
    """
    christoffel = label.startswith("Gamma")
    flat = name.endswith("euclidean:2") or name.startswith(("euclidean", "broken"))
    if not name.startswith("tangent_bundle_of:"):
        return 1 if mode == "fd" and christoffel and not flat else 2
    if flat:
        return 2
    if mode == "jet":
        return 1 if christoffel else 2
    return "ContractViolation" if christoffel else 1


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name", BUILTINS)
def test_fd_crosscheck_probes_reach_the_pinned_orders(name, mode, monkeypatch):
    # each run of probes records, per probe, the order its batch reached
    # or the incident of its row
    reached, orders = [], []

    class Recording(FDField):
        def batch(self, points, order):
            orders.append(order)
            return super().batch(points, order)

    build_rows = runner.build_rows

    def recording_rows(build, rows):
        values, errors = build_rows(build, rows)
        reached.extend(type(errors[row]).__name__ if row in errors else orders[-1]
                       for row in range(len(rows)))
        return values, errors

    monkeypatch.setattr(runner, "FDField", Recording)
    monkeypatch.setattr(runner, "build_rows", recording_rows)
    cfg = parse_config({"builtin": name, "mode": mode, "checks": ["fd_crosscheck"],
                        "sampling": {"count": 16, "seed": 0}}, source="<test>")
    scenario = builtins.build(name, mode)
    labels = [lbl for lbl, _ in scenario.space.metric.entries()]
    labels += [lbl for lbl, _ in scenario.space.conn.entries()]
    if scenario.setup is not None:
        labels += [f"pi_{a + 1}" for a in range(len(scenario.setup.pi))]
        labels += ["phi"] if scenario.setup.phi is not None else []
        labels += ["base_" + lbl for lbl, _ in scenario.setup.base.metric.entries()]
    check = runner.run_suite(cfg)["checks"][0]
    want = [_pinned_order(name, mode, labels[k % len(labels)]) for k in range(runner.FD_PROBES)]
    assert reached == want
    incidents = want.count("ContractViolation")
    assert check["incidents"] == incidents
    if incidents:
        assert check["details"]["incident_kinds"]["ContractViolation"]["count"] == incidents


def one_probe(fld, index, to_point, p) -> float:
    """The one-probe rule, the reference of fd_crosscheck's batches: the
    probe's entry alone as a scalar field (a metric's own entry field)
    on a one-point stack, compared with central differences of it at
    hessian level, or at gradient level past the field's order."""
    if index:
        fld = fld.entry(*index) if type(fld) is MetricField else Entry(fld, index)
    x = to_point(np.asarray([p], dtype=float))
    order = 2
    try:
        parts = fld.batch(x, order)
    except ContractViolation:
        order = 1
        parts = fld.batch(x, order)
    ref = FDField(fld).batch(x, order)
    r = float(np.max(np.abs(parts[1] - ref[1]) / (1.0 + np.abs(ref[1]))))
    if order == 2:
        r = peak((r, float(np.max(np.abs(parts[2] - ref[2]) / (1.0 + np.abs(ref[2]))))))
    return r


ORACLE_CASES = [(name, "jet", None, 0) for name in BUILTINS]
ORACLE_CASES += [(name, "fd", None, 0) for name in BUILTINS
                 if not name.startswith("tangent_bundle_of:")]
# the phi probe fails there: it reads row 12 of the draw, which lies at
# x2 <= 0 at seed 6, and log(x2) is undefined at x2 <= 0
ORACLE_CASES += [("hyperbolic:2", mode, ((-1.0, 1.0), (-1.0, 3.0)), 6) for mode in ("jet", "fd")]


@pytest.mark.parametrize("name, mode, boxes, seed", ORACLE_CASES)
def test_each_batched_probe_matches_the_one_probe_rule(name, mode, boxes, seed, monkeypatch):
    seen = []
    probe_rows = runner._probe_rows

    def recording_rows(probes):
        seen.append((probes, probe_rows(probes)))
        return seen[-1][1]

    monkeypatch.setattr(runner, "_probe_rows", recording_rows)
    scenario = builtins.build(name, mode)
    runner.run_check("fd_crosscheck", scenario, runner.RunContext(scenario, 16, seed, boxes),
                     1e-4)
    ((probes, (residuals, errors)),) = seen
    got = iter(residuals)
    for k, (label, fld, index, to_point, p) in enumerate(probes):
        try:
            want = one_probe(fld, index, to_point, p)
        except SubgeoError as exc:
            assert (type(errors.get(k)), str(errors.get(k))) == (type(exc), str(exc)), label
            continue
        assert k not in errors, label
        r = next(got)
        assert r == want or (r != r and want != want), (label, r, want)
    assert next(got, None) is None
    assert bool(errors) == (boxes is not None)


@pytest.mark.parametrize("name", ["hyperbolic:3", "tangent_bundle_of:hyperbolic:2"])
def test_fd_crosscheck_evaluates_a_run_of_probes_as_one_batch(name, monkeypatch):
    # the 16 probes are the metric's entries, then the connection's: two
    # runs, each at most two order attempts and one finite-difference call
    scenario = builtins.build(name)
    ctx = runner.RunContext(scenario, 16, 0)
    calls, depth = [], [0]
    batch = fields.Field.batch

    def counting(self, points, order):
        if not depth[0]:
            calls.append(isinstance(self, FDField))
        depth[0] += 1
        try:
            return batch(self, points, order)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fields.Field, "batch", counting)
    runner.run_check("fd_crosscheck", scenario, ctx, 1e-4)
    runs = 2
    assert calls.count(True) == runs
    assert calls.count(False) <= 2 * runs


# -- fd stacks: one program, differenced ---------------------------------------

# numeric entries stay constant leaves among the fd ones; the base metric
# is numbers only, so its stack stays a jet stack
INLINE_FD = {
    "mode": "fd",
    "manifold": {"dim": 2, "box": [[0.5, 2.0], [0.5, 2.0]],
                 "metric": [[2, 0.5], [0.5, "1 + x1^2"]],
                 "connection": {"coeffs": [[[0, "x1*x2"], [0.25, 0]], [[1.5, 0], [0, "x2^2"]]]}},
    "submersion": {"base": {"dim": 1, "box": [[0.0, 3.0]], "metric": [[3]],
                            "connection": "flat"},
                   "projection": ["x1 + x2/4"], "phi": 0.5},
}
INLINE_FD_ALPHA = {
    "mode": "fd",
    "manifold": {"dim": 2, "box": [[0.5, 2.0], [0.5, 2.0]],
                 "metric": [["x2", 0], [0, "1/x2"]],
                 "connection": {"alpha": 0.5,
                                "cubic": [[[1, "x1"], ["x1", 0]], [["x1", 0], [0, 0.75]]]}},
}


def _fd_scenarios():
    """Every builtin that is not a tangent bundle, in fd mode, and the
    inline fd configs with numeric entries."""
    for name in BUILTINS:
        if not name.startswith("tangent_bundle_of:"):
            yield name, builtins.build(name, "fd")
    for k, raw in enumerate((INLINE_FD, INLINE_FD_ALPHA)):
        yield f"inline-{k}", build_scenario(parse_config(raw, source="<test>"))


def _stacks(scenario):
    """(label, stack, chart box) for every field stack of a scenario: the
    metric, the expression coefficients, the alpha cubic, the projection
    and the base metric."""
    space, setup = scenario.space, scenario.setup
    box = space.chart.box
    owners = [("metric", space.metric, box), ("conn", space.conn, box)]
    owners += [(f"term{k}", term, box)
               for k, term in enumerate(getattr(space.conn, "terms", ()))]
    if setup is not None:
        owners += [("setup", setup, box), ("base", setup.base.metric, setup.base.chart.box)]
    return [(f"{label}.{attr}", getattr(owner, attr), box) for label, owner, box in owners
            for attr in ("_stack", "_cubic_stack", "_pi_stack") if hasattr(owner, attr)]


def per_leaf(stack, points, order):
    """The per-leaf rule, the reference of a stack: each leaf's own batch
    (an FDField's stencil, a constant's jet), stacked in position."""
    rows = [leaf.batch(points, order) for leaf in stack.fields]
    return tuple(np.stack(part, axis=-1).reshape(part[0].shape + stack.shape)
                 for part in zip(*rows))


def _outcome(fn):
    """fn() or its error as (type, message, point)."""
    try:
        return fn()
    except SubgeoError as exc:
        return type(exc), str(exc), getattr(exc, "point", None)


def _same_bits(got, want):
    return (len(got) == len(want)
            and all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want)))


def test_fd_stacks_match_the_per_leaf_rule_bit_for_bit():
    fd_stacks = 0
    for name, scenario in _fd_scenarios():
        unit = np.random.default_rng(7).uniform(0.0, 1.0, size=(5, 3))
        for label, stack, box in _stacks(scenario):
            pts = _box_points(box, unit)
            fd_stacks += stack._fd
            for order in range(3):
                got = stack(pts, order)
                assert _same_bits(got, per_leaf(stack, pts, order)), (name, label, order)
    assert fd_stacks >= 20


def test_an_fd_stack_runs_its_program_once_on_all_stencil_nodes(monkeypatch):
    # a metric, a coefficient, a cubic and a projection stack: one order-0
    # call of the one program on every stencil node of every point
    calls = []
    compile_batched = exprlang.compile_batched

    def counting(*args):
        program = compile_batched(*args)
        at = program.at
        program.at = lambda order: (lambda points: calls.append((len(points), order))
                                    or at(order)(points))
        return program

    monkeypatch.setattr(exprlang, "compile_batched", counting)
    hyp, gauss, broken = (builtins.build(name, "fd")
                          for name in ("hyperbolic:3", "gaussian:alpha=1", "broken:2"))
    batches = {
        "metric": (3, lambda pts, order: hyp.space.metric.batch(pts, order)),
        "coeffs": (2, lambda pts, order: broken.space.conn.batch(pts, order)),
        "cubic": (2, gauss.space.conn._cubic_stack),
        "projection": (3, hyp.setup._pi_stack),
    }
    for label, (n, batch) in batches.items():
        pts = np.random.default_rng(2).uniform(0.6, 0.9, size=(4, n))
        for order in range(3):
            nodes = 1 + (2 * n if order >= 1 else 0) + (2 * n * n if order >= 2 else 0)
            calls.clear()
            batch(pts, order)
            assert calls == [(nodes * len(pts), 0)], (label, order)


def test_a_failing_fd_row_raises_what_the_per_leaf_rule_raises():
    # 1/x2^2 and -log(x2) fail at stencil nodes with x2 <= 0; the first
    # leaf to fail names the error and its point, alone or in a stack
    scenario = builtins.build("hyperbolic:2", "fd")
    box = ((-1.0, 1.0), (-1.0, 3.0))
    metric, phi = scenario.space.metric, scenario.setup.phi
    stacks = [metric._stack, fields._FieldStack([phi, metric.entry(0, 0), phi])]
    pts = _box_points(box, np.random.default_rng(3).uniform(0.0, 1.0, size=(16, 2)))
    pts[5, 1], pts[9, 1] = 0.0, -0.5
    failed = 0
    for stack in stacks:
        for rows in [slice(None)] + [slice(k, k + 1) for k in range(len(pts))]:
            for order in range(3):
                got = _outcome(lambda: stack(pts[rows], order))
                want = _outcome(lambda: per_leaf(stack, pts[rows], order))
                if isinstance(want[0], type):
                    failed += 1
                    assert got == want, (rows, order)
                else:
                    assert _same_bits(got, want), (rows, order)
    assert failed >= 8


def test_an_fd_hessian_holds_entries_near_the_float_limit():
    # f[+] - 2 f + f[-] overflows to -inf for an entry of 1e308, whose
    # second differences are zeros; so does the per-point stencil's
    metric = MetricField.from_exprs([["1e308", "x1"], ["x1", "1e308 - x2^2"]], 2, "fd")
    pts = _box_points(((-1.0, 1.0), (-1.0, 1.0)), np.random.default_rng(5).uniform(size=(4, 2)))
    d2g = metric.batch(pts, 2)[2]
    assert np.array_equal(d2g[:, :, :, 0, 0], np.zeros((4, 2, 2)))
    assert np.isfinite(d2g).all()
    for k, p in enumerate(pts):
        for i, j in ((0, 0), (0, 1), (1, 1)):
            want = jet_parts(scalar_jet(metric.entry(i, j), p, 2), 2)[2]
            assert np.array_equal(d2g[k, :, :, i, j], want), (k, i, j)


def test_an_fd_stack_stops_at_order_2():
    scenario = builtins.build("gaussian:alpha=1", "fd")
    pts = np.array([[0.1, 1.0]])
    for batch in (scenario.space.metric.batch, scenario.space.conn._cubic_stack,
                  scenario.setup._pi_stack):
        with pytest.raises(ContractViolation,
                           match="^finite-difference mode provides derivatives up to order 2$"):
            batch(pts, 3)


# -- structure -------------------------------------------------------------------

JET_MODULES = ("jets.py", "exprlang.py")


def test_only_the_reference_modules_use_jets_and_no_field_caches():
    # one evaluation path: jets are the reference of the compiled programs,
    # and no field, lift, submersion or curve keeps anything per point
    package = pathlib.Path(subgeo.__file__).parent
    jet_names = re.compile(r"\b(Jet|jets|eval_jet)\b")
    hits = [f"{path.name}:{k}" for path in sorted(package.glob("*.py"))
            if path.name not in JET_MODULES
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if jet_names.search(line)]
    assert hits == []
    caches = []
    for name in ("fields.py", "tangent_bundle.py", "submersion.py", "geodesics.py"):
        tree = ast.parse((package / name).read_text())
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                           else [])
                for target in targets:
                    attr = getattr(target, "attr", getattr(target, "id", ""))
                    if attr.endswith("cache"):
                        caches.append(f"{name}:{cls.name}.{attr}")
    assert caches == []


BUILTIN_NAMES = ("euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3",
                 "gaussian:alpha=0", "gaussian:alpha=1", "gaussian:alpha=-0.5", "broken:2",
                 "perturbed:3", "tangent_bundle_of:hyperbolic:2",
                 "tangent_bundle_of:gaussian:alpha=1", "tangent_bundle_of:euclidean:2")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_an_empty_point_stack_is_an_empty_batch(name):
    scenario = builtins.build(name)
    empty = np.zeros((0, scenario.dim))
    for fld in (scenario.space.metric, scenario.space.conn):
        for order in range(fld.max_order + 1):
            parts = fld.batch(empty, order)
            assert [part.shape[0] for part in parts] == [0] * (order + 1), (fld, order)
    if scenario.setup is not None:
        frames = scenario.setup._frames(empty)
        assert len(frames) == 0 and not frames.errors
        for key, values in vars(frames).items():
            if isinstance(values, np.ndarray):
                assert values.shape[0] == 0, key


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n.startswith("tangent_bundle_of:")])
def test_lifted_fields_declare_the_order_they_reach(name):
    # a lift reaches the order of its base data, one less where it
    # differentiates them; one order past that, it names its own budget
    bundle = builtins.build(name).bundle
    base = bundle.base
    want = {
        bundle.sasaki_metric: min(base.metric.max_order, base.conn.max_order),
        bundle.horizontal_metric: min(base.metric.max_order, base.conn.max_order),
        bundle.complete_metric: base.metric.max_order - 1,
        bundle.complete_conn: base.conn.max_order - 1,
        bundle.horizontal_conn: base.conn.max_order - 1,
    }
    center = np.array([bundle.chart.center()])
    for fld, order in want.items():
        assert fld.max_order == order, fld
        for k in range(order + 1):
            fld.batch(center, k)
        with pytest.raises(ContractViolation, match=rf"must be in 0\.\.{order}, got {order + 1}$"):
            fld.batch(center, order + 1)


def _every_field(scenario):
    """(label, field, chart box) of every field a builtin evaluates: its
    metrics and connections with their duals, the lifts of a bundle,
    the projection, phi and the metric entries (fd leaves in fd mode)."""
    spaces = [("space", scenario.space)]
    if scenario.setup is not None:
        spaces.append(("base", scenario.setup.base))
    out = []
    for label, space in spaces:
        box, metric, conn = space.chart.box, space.metric, space.conn
        out += [(f"{label} metric", metric, box), (f"{label} conn", conn, box),
                (f"{label} dual", DualConnection(conn, metric), box)]
        out += [(f"{label} g_{i + 1}{j + 1}", entry, box)  # a lift has no entry fields
                for (i, j), entry in vars(metric).get("_entries", {}).items()]
    if scenario.bundle is not None:
        bundle = scenario.bundle
        box = bundle.chart.box
        # the space holds the Sasaki metric and the complete-lift connection
        out += [("complete", bundle.complete_metric, box),
                ("horizontal", bundle.horizontal_metric, box),
                ("horizontal conn", bundle.horizontal_conn, box)]
    if scenario.setup is not None:
        box = scenario.setup.total.chart.box
        out += [(f"pi_{a + 1}", f, box) for a, f in enumerate(scenario.setup.pi)]
        if scenario.setup.phi is not None:
            out.append(("phi", scenario.setup.phi, box))
    return out


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_batch_holds_every_lower_order_batch_bit_for_bit(name, mode):
    # a build shares a field's batch with every request at or below its
    # order (fields.shared), which gives these parts for a new batch's
    for label, fld, box in _every_field(builtins.build(name, mode)):
        x = sampling.sample_box(box, 8, 5)
        for top in range(fld.max_order, -1, -1):  # the highest order the field reaches
            try:
                parts = fld.batch(x, top)
                break
            except ContractViolation:
                continue
        assert len(parts) == top + 1
        for order in range(top):
            fresh = fld.batch(x, order)
            assert len(fresh) == order + 1
            for k, (got, want) in enumerate(zip(parts, fresh)):
                assert np.array_equal(got, want, equal_nan=True), (label, top, order, k)
