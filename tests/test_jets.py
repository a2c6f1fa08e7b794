"""Truncated Taylor arithmetic against hand-computed derivative tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgeo.errors import ContractViolation, EvalDomain
from subgeo.fields import FDField, make_scalar
from subgeo.jets import Jet


def test_polynomial_partials_are_raw():
    # f = x^2 y at (2, 3).  Stored partials are plain derivatives, no
    # factorial normalization: f_xxy = 2 exactly.
    x = Jet.seed((2.0, 3.0), 0, 3)
    y = Jet.seed((2.0, 3.0), 1, 3)
    f = x * x * y
    assert f.value == pytest.approx(12.0)
    assert f.grad == pytest.approx([12.0, 4.0])
    assert np.asarray(f.hess) == pytest.approx(np.array([[6.0, 4.0], [4.0, 0.0]]))
    third = np.asarray(f.third)
    assert third[0, 0, 1] == pytest.approx(2.0)
    assert third[0, 1, 0] == pytest.approx(2.0)
    assert third[1, 0, 0] == pytest.approx(2.0)
    assert third[0, 0, 0] == pytest.approx(0.0)


def test_cubic_third_partial_is_six():
    # x^3: f''' = 6, which would be 1 under a coefficient convention.
    x = Jet.seed((2.0,), 0, 3)
    f = x * x * x
    assert f.partial(0, 0, 0) == pytest.approx(6.0)
    assert f.partial(0, 0) == pytest.approx(12.0)
    assert f.partial(0) == pytest.approx(12.0)


def test_reciprocal_derivatives():
    x = Jet.seed((2.0,), 0, 3)
    f = Jet.constant(1.0, 1, 3) / x
    assert f.value == pytest.approx(0.5)
    assert f.grad[0] == pytest.approx(-0.25)
    assert f.hess[0][0] == pytest.approx(0.25)
    assert f.third[0][0][0] == pytest.approx(-0.375)


def test_quotient_two_variables():
    x = Jet.seed((6.0, 2.0), 0, 2)
    y = Jet.seed((6.0, 2.0), 1, 2)
    f = x / y
    assert f.value == pytest.approx(3.0)
    assert f.grad == pytest.approx([0.5, -1.5])
    assert np.asarray(f.hess) == pytest.approx(np.array([[0.0, -0.25], [-0.25, 1.5]]))


def test_chain_rule_exp_sin():
    t = 0.7
    x = Jet.seed((t,), 0, 3)
    f = x.sin().exp()
    s, c = math.sin(t), math.cos(t)
    e = math.exp(s)
    assert f.value == pytest.approx(e)
    assert f.grad[0] == pytest.approx(c * e)
    assert f.hess[0][0] == pytest.approx((c * c - s) * e)
    assert f.third[0][0][0] == pytest.approx((c ** 3 - 3.0 * s * c - c) * e)


def test_log_sqrt_tanh_tables():
    x = Jet.seed((3.0,), 0, 3)
    f = x.log()
    assert [f.value, f.grad[0], f.hess[0][0], f.third[0][0][0]] == pytest.approx(
        [math.log(3.0), 1.0 / 3.0, -1.0 / 9.0, 2.0 / 27.0])

    x = Jet.seed((4.0,), 0, 3)
    f = x.sqrt()
    assert [f.value, f.grad[0], f.hess[0][0], f.third[0][0][0]] == pytest.approx(
        [2.0, 0.25, -1.0 / 32.0, 3.0 / 256.0])

    t = 0.3
    x = Jet.seed((t,), 0, 3)
    f = x.tanh()
    th = math.tanh(t)
    sech2 = 1.0 - th * th
    assert f.value == pytest.approx(th)
    assert f.grad[0] == pytest.approx(sech2)
    assert f.hess[0][0] == pytest.approx(-2.0 * th * sech2)
    assert f.third[0][0][0] == pytest.approx((6.0 * th * th - 2.0) * sech2)


def test_cos_matches_shifted_sin():
    x = Jet.seed((1.1, -0.4), 0, 2)
    a = x.cos()
    b = (x + Jet.constant(math.pi / 2.0, 2, 2)).sin()
    assert a.value == pytest.approx(b.value)
    assert np.asarray(a.grad) == pytest.approx(np.asarray(b.grad))
    assert np.asarray(a.hess) == pytest.approx(np.asarray(b.hess))


def test_negative_integer_power():
    x = Jet.seed((3.0,), 0, 3)
    f = x ** -2
    assert f.value == pytest.approx(1.0 / 9.0)
    assert f.grad[0] == pytest.approx(-2.0 / 27.0)
    assert f.hess[0][0] == pytest.approx(6.0 / 81.0)
    assert f.third[0][0][0] == pytest.approx(-24.0 / 243.0)


def test_dvar_drops_one_order():
    x = Jet.seed((2.0, 3.0), 0, 3)
    y = Jet.seed((2.0, 3.0), 1, 3)
    f = x * x * y
    d = f.dvar(0)  # 2xy as an order-2 jet
    assert d.order == 2
    assert d.value == pytest.approx(12.0)
    assert d.grad == pytest.approx([6.0, 4.0])
    assert np.asarray(d.hess) == pytest.approx(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ContractViolation):
        d.dvar(0).dvar(1).dvar(0)


def test_embed_places_gradient_at_offset():
    x = Jet.seed((2.0, 3.0), 0, 2)
    y = Jet.seed((2.0, 3.0), 1, 2)
    f = x * y
    g = f.embed(4, offset=1)
    assert g.dim == 4
    assert g.value == pytest.approx(6.0)
    assert g.grad == pytest.approx([0.0, 3.0, 2.0, 0.0])
    h = np.asarray(g.hess)
    assert h[1, 2] == pytest.approx(1.0)
    assert h[0, :] == pytest.approx(np.zeros(4))


def test_seed_rejects_bad_order_and_index():
    with pytest.raises(ContractViolation):
        Jet.seed((1.0,), 0, 0)
    with pytest.raises(ContractViolation):
        Jet.seed((1.0,), 0, 4)
    with pytest.raises(ContractViolation):
        Jet.seed((1.0, 2.0), 5, 2)


def test_constant_order0_has_no_grad():
    c = Jet.constant(2.5, 3, 0)
    assert c.grad is None
    assert c.value == 2.5


def test_mixed_dims_rejected():
    a = Jet.seed((1.0,), 0, 2)
    b = Jet.seed((1.0, 2.0), 0, 2)
    with pytest.raises(ContractViolation):
        a + b
    c = Jet.seed((1.0,), 0, 1)
    with pytest.raises(ContractViolation):
        a * c  # order mismatch


def test_domain_errors():
    x = Jet.seed((-1.0,), 0, 2)
    with pytest.raises(EvalDomain):
        x.log()
    with pytest.raises(EvalDomain):
        x.sqrt()
    zero = Jet.constant(0.0, 1, 2)
    with pytest.raises(EvalDomain):
        Jet.constant(1.0, 1, 2) / zero


def test_partial_order_bound():
    f = Jet.seed((1.0, 2.0), 0, 2)
    with pytest.raises(ContractViolation):
        f.partial(0, 0, 0)


def test_fd_field_matches_jet_derivatives():
    exact = make_scalar("exp(x1)*x2 + sin(x2)", 2)
    fd = FDField(exact)
    p = np.array([[0.4, -0.7]])
    je = exact.batch(p, 2)
    jf = fd.batch(p, 2)
    assert jf[0][0] == pytest.approx(je[0][0], abs=1e-12)
    assert jf[1][0] == pytest.approx(je[1][0], abs=1e-8)
    assert jf[2][0] == pytest.approx(je[2][0], abs=1e-5)


def test_fd_field_caps_order():
    fd = make_scalar("x1^2", 1, mode="fd")
    with pytest.raises(ContractViolation):
        fd.batch([(0.5,)], 3)


coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(a=coord, b=coord)
@settings(max_examples=60, deadline=None)
def test_product_commutes(a, b):
    x = Jet.seed((a, b), 0, 3)
    y = Jet.seed((a, b), 1, 3)
    f = (x + y) * (x * y + Jet.constant(1.0, 2, 3))
    g = (x * y + Jet.constant(1.0, 2, 3)) * (x + y)
    assert np.allclose(f.grad, g.grad)
    assert np.allclose(f.hess, g.hess)
    assert np.allclose(f.third, g.third)


@given(a=coord)
@settings(max_examples=60, deadline=None)
def test_exp_log_round_trip(a):
    x = Jet.seed((a,), 0, 2)
    f = Jet.constant(1.0, 1, 2) + x * x  # strictly positive
    g = f.log().exp()
    assert g.value == pytest.approx(f.value, rel=1e-10)
    assert np.allclose(g.grad, f.grad, atol=1e-9)
    assert np.allclose(g.hess, f.hess, atol=1e-8)


@given(a=coord, b=coord)
@settings(max_examples=60, deadline=None)
def test_derivative_is_linear(a, b):
    x = Jet.seed((a, b), 0, 2)
    y = Jet.seed((a, b), 1, 2)
    two = Jet.constant(2.0, 2, 2)
    three = Jet.constant(3.0, 2, 2)
    lhs = two * (x * x) + three * (y.sin())
    assert np.allclose(
        np.asarray(lhs.grad),
        2.0 * np.asarray((x * x).grad) + 3.0 * np.asarray(y.sin().grad),
    )
