"""Plain linear solves, and the jet-valued solves of the test reference."""

import numpy as np
import pytest

from subgeo.errors import ContractViolation, SingularMatrix
from subgeo.jets import Jet
from subgeo.linalg import solve_linear

from jet_reference import jet_inverse, jet_matmul, jet_solve, jet_values


def test_solve_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        b = rng.normal(size=4)
        assert solve_linear(a, b) == pytest.approx(np.linalg.solve(a, b))


def test_solve_shape_and_singular():
    with pytest.raises(ContractViolation):
        solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(SingularMatrix):
        solve_linear(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularMatrix):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


def test_stacked_solve_matches_each_system():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3, 3)) + 3.0 * np.eye(3)
    b = rng.normal(size=(4, 3, 9))
    x = solve_linear(a, b)
    for row in range(4):
        assert np.array_equal(x[row], solve_linear(a[row], b[row]))
    a[2] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularMatrix, match="in row 2"):
        solve_linear(a, b)
    with pytest.raises(ContractViolation):
        solve_linear(a, b[:3])


def _jet_matrix(point, order=2):
    """2x2 matrix with genuinely varying entries, invertible on the box."""
    x = Jet.seed(point, 0, order)
    y = Jet.seed(point, 1, order)
    one = Jet.constant(1.0, 2, order)
    fifth = Jet.constant(0.2, 2, order)
    return [[one + x * x, fifth * y], [fifth * y, one + y * y]]


def test_jet_solve_reproduces_rhs():
    p = (0.3, -0.6)
    a = _jet_matrix(p)
    b = [Jet.seed(p, 0, 2).exp(), Jet.seed(p, 1, 2).sin()]
    x = jet_solve(a, b)
    back = [row[0] for row in jet_matmul(a, [[xi] for xi in x])]
    for got, want in zip(back, b):
        assert got.value == pytest.approx(want.value, abs=1e-13)
        assert np.allclose(got.grad, want.grad, atol=1e-12)
        assert np.allclose(got.hess, want.hess, atol=1e-11)


def test_jet_inverse_gives_identity_jets():
    # A * A^-1 must be the constant identity: derivative parts vanish too.
    p = (0.5, 0.25)
    a = _jet_matrix(p)
    ainv = jet_inverse(a)
    prod = jet_matmul(a, ainv)
    for i in range(2):
        for j in range(2):
            e = prod[i][j]
            assert e.value == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)
            assert np.allclose(e.grad, 0.0, atol=1e-12)
            assert np.allclose(e.hess, 0.0, atol=1e-11)


def test_jet_solve_pivots_on_zero_head():
    # leading value entry is zero, forcing a row swap
    order = 1
    z = Jet.constant(0.0, 1, order)
    one = Jet.constant(1.0, 1, order)
    two = Jet.constant(2.0, 1, order)
    a = [[z, one], [two, z]]
    b = [one, two]
    x = jet_solve(a, b)
    assert x[0].value == pytest.approx(1.0)
    assert x[1].value == pytest.approx(1.0)


def test_jet_solve_singular():
    order = 1
    one = Jet.constant(1.0, 1, order)
    two = Jet.constant(2.0, 1, order)
    with pytest.raises(SingularMatrix):
        jet_solve([[one, two], [one, two]], [one, one])


def test_jet_values_nesting():
    p = (0.3, -0.6)
    vals = jet_values(_jet_matrix(p))
    assert vals.shape == (2, 2)
    assert vals[0][0] == pytest.approx(1.09)
    assert jet_values(Jet.constant(4.0, 2, 1)) == pytest.approx(4.0)
