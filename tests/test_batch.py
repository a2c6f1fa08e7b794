"""The batched evaluator against the per-point jet path.

Batched expression values, metric rows and connection rows must agree
with what the per-point path gives at each point: to the last bit where
the arithmetic is the same, and within 1e-14 relative where numpy's
elementary functions or a different solve order can move the last digit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgeo import builtins
from subgeo.errors import ContractViolation, EvalDomain
from subgeo.exprlang import compile_batched, eval_jet, parse
from subgeo.fields import DualConnection
from subgeo.jets import Jet
from subgeo.tangent_bundle import TangentBundle

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
    ast = parse(text, 3)
    pts = _points()
    for order in (1, 2):
        parts = compile_batched([ast])(pts, order)
        assert [part.shape for part in parts] == [
            (len(pts),) + (3,) * k + (1,) for k in range(order + 1)]
        for k, p in enumerate(pts):
            jet = eval_jet(ast, p, order)
            for part, want in zip(parts, (jet.value, jet.grad, jet.hess)):
                if text in RATIONAL:  # same operations in the same order: same bits
                    assert np.array_equal(part[k, ..., 0], want), order
                else:
                    assert close(part[k, ..., 0], want), order


def test_shared_subexpressions_give_each_output():
    asts = [parse(t, 3) for t in ("1/x3^2", "0", "2/x3^2", "1/x3^2")]
    values, grads = compile_batched(asts)(_points(5))
    for e, ast in enumerate(asts):
        alone_v, alone_g = compile_batched([ast])(_points(5))
        assert np.array_equal(values[:, e], alone_v[:, 0])
        assert np.array_equal(grads[:, :, e], alone_g[:, :, 0])


def test_batched_domain_errors_name_the_first_bad_point():
    pts = np.array([[1.0, 1.0], [-1.0, 2.0], [-2.0, 3.0]])
    for order in (1, 2):
        with pytest.raises(EvalDomain, match="log of a non-positive") as e:
            compile_batched([parse("log(x1)", 2)])(pts, order)
        assert e.value.point == (-1.0, 2.0)
        with pytest.raises(EvalDomain, match="division by zero") as e:
            compile_batched([parse("1/(x2 - 2)", 2)])(pts, order)
        assert e.value.point == (-1.0, 2.0)
    with pytest.raises(ContractViolation):
        compile_batched([parse("x2", 2)])(np.ones((3, 1)))


def test_overflow_is_a_domain_error_on_both_paths():
    ast = parse("exp(x2^3)", 2)
    pts = np.array([[0.0, 1.0], [0.0, 30.0], [0.0, 40.0]])
    with pytest.raises(EvalDomain) as e:
        compile_batched([ast])(pts)
    assert e.value.point == (0.0, 30.0)
    with pytest.raises(EvalDomain) as e:
        eval_jet(ast, (0.0, 30.0), 1)
    assert e.value.point == (0.0, 30.0)
    # 1/v^4 underflows to zero in the order-3 reciprocal coefficients
    with pytest.raises(EvalDomain):
        eval_jet(parse("1/x1", 1), (1e-90,), 3)
    # math.sin of an overflowed value
    with pytest.raises(EvalDomain):
        Jet.constant(float("inf"), 1, 1).sin()


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
    g, dg = metric.batch(pts)
    gamma = conn.batch(pts)
    gamma1, dgamma = conn.batch(pts, 1)
    assert np.array_equal(gamma1, gamma), label
    for k, p in enumerate(pts):
        g_ref, dg_ref = metric.partial_values(p)
        assert close(g[k], metric.values(p)), label
        assert close(dg[k], dg_ref), label
        assert close(gamma[k], conn.values(p)), label
        assert close_each(gamma1[k], conn.values(p)), label
        assert close_each(dgamma[k], conn.d_values(p)), label


# fd-mode Christoffels are difference quotients themselves, too noisy to
# difference again at this step
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
        central = (conn.batch(pts + shift) - conn.batch(pts - shift)) / (2.0 * step)
        assert np.abs(central - dgamma[:, a]).max() < 1e-6, (label, a)


def test_order2_metric_rows_match_per_point_jets():
    bundle = TangentBundle(builtins.build("hyperbolic:2").space)
    for box, metric in ((builtins.build("hyperbolic:3").space.chart.box,
                         builtins.build("hyperbolic:3").space.metric),
                        (bundle.chart.box, bundle.sasaki_metric)):
        pts = _box_points(box, np.random.default_rng(2).uniform(0.0, 1.0, size=(5, 6)))
        g, dg, d2g = metric.batch(pts, 2)
        assert np.array_equal(dg, metric.batch(pts)[1])
        n = metric.dim
        for k, p in enumerate(pts):
            jets = metric.matrix_jets(p, 2)
            for i in range(n):
                for j in range(n):
                    assert close_each(g[k, i, j], jets[i][j].value)
                    assert close_each(d2g[k, :, :, i, j], jets[min(i, j)][max(i, j)].hess)
    with pytest.raises(ContractViolation):
        metric.batch(pts, 3)
