"""Plain linear solves, and the jet-valued solves of the test reference."""

import warnings

import numpy as np
import pytest

from subgeo import linalg
from subgeo.errors import ContractViolation, SingularMatrix
from subgeo.fields import LeviCivitaConnection
from subgeo.jets import Jet
from subgeo.linalg import singular_rows, solve_linear
from subgeo.submersion import _gram

from conftest import euclid_setup, hyperbolic_setup, points_for
from jet_reference import jet_inverse, jet_matmul, jet_solve, jet_values


def _solve_one(a, b):
    """The per-system reference: one system (n, n) under the pivot test,
    solved as a one-row stack, so it gets the same bits as the same
    system inside any stack."""
    linalg._pivot_test(a)
    return linalg._gesv(a[None], b[None])[0][0]


def test_solve_matches_numpy():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 4, 4)) + 4.0 * np.eye(4)
    b = rng.normal(size=(5, 4))
    assert solve_linear(a, b) == pytest.approx(np.linalg.solve(a, b[..., None])[..., 0])


def test_solve_shape_and_singular():
    with pytest.raises(ContractViolation):
        solve_linear(np.ones((1, 2, 3)), np.ones((1, 2)))
    with pytest.raises(SingularMatrix, match="zero matrix$"):
        solve_linear(np.zeros((1, 2, 2)), np.ones((1, 2)))
    with pytest.raises(SingularMatrix, match="below threshold"):
        solve_linear(np.array([[[1.0, 2.0], [2.0, 4.0]]]), np.ones((1, 2)))


def test_one_system_is_a_contract_violation():
    # a single system goes in as a one-row stack; 2-D input is an error
    eye = np.eye(3)
    for a, b in ((eye, np.ones(3)), (eye, np.ones((3, 2))), (eye[None], np.ones(3)),
                 (np.ones(3), np.ones(3)), (np.float64(1.0), np.ones(1))):
        with pytest.raises(ContractViolation, match="shape mismatch"):
            solve_linear(a, b)
    with pytest.raises(ContractViolation, match="shape mismatch"):
        singular_rows(eye)


def test_stacked_solve_matches_each_system():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3, 3)) + 3.0 * np.eye(3)
    b = rng.normal(size=(4, 3, 9))
    x = solve_linear(a, b)
    for row in range(4):
        assert np.array_equal(x[row], _solve_one(a[row], b[row]))
        assert np.array_equal(x[row], solve_linear(a[row:row + 1], b[row:row + 1])[0])
    a[2] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularMatrix, match="in row 2"):
        solve_linear(a, b)
    with pytest.raises(ContractViolation):
        solve_linear(a, b[:3])


def _row_by_row(a, b):
    """The per-system rule over a stack: :func:`_solve_one` on each row
    in order, or the message of the first row that fails."""
    out = np.empty(b.shape)
    for row in range(len(a)):
        try:
            out[row] = _solve_one(a[row], b[row])
        except SingularMatrix as exc:
            return str(exc) if len(a) == 1 else f"{exc} in row {row}"
    return out


def _stacked(a, b):
    try:
        return solve_linear(a, b)
    except SingularMatrix as exc:
        return str(exc)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def _same_outcome(a, b):
    want = _row_by_row(a, b)
    _assert_same(_stacked(a, b), want)
    return want


def _system(rng, n, kind):
    """One n x n matrix: well conditioned, a last row that is a multiple
    of the first plus noise of 1e-10..1e-15, or a zero, NaN or inf matrix."""
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    if kind == "near":
        a[-1] = rng.uniform(-3.0, 3.0) * a[0] + 10.0 ** -rng.uniform(10, 15) * rng.normal(size=n)
    elif kind == "zero":
        a[:] = 0.0
    elif kind == "nan":
        a[rng.integers(n), rng.integers(n)] = np.nan
    elif kind == "inf":
        a[rng.integers(n), rng.integers(n)] = np.inf
    elif kind == "duplicate":
        a[-1] = a[0]
    return a


def test_stacked_solve_matches_the_row_by_row_rule(monkeypatch):
    # Every verdict, message and passing solution of a stack, over a
    # near-singular family, is that of _solve_one row by row.
    rng = np.random.default_rng(23)
    tested = []
    pivot_test = linalg._pivot_test
    monkeypatch.setattr(linalg, "_pivot_test", lambda a: tested.append(1) or pivot_test(a))
    kinds = ["well"] * 6 + ["near"] * 6 + ["zero", "nan", "inf"]
    outcomes, stack_tests, row_tests = [], 0, 0
    for n in range(2, 9):
        for count in (0, 1, 1, 2, 3, 5, 8):
            for _ in range(6):
                a = np.array([_system(rng, n, rng.choice(kinds)) for _ in range(count)])
                a = a.reshape(count, n, n)
                shape = (count, n) if rng.integers(2) else (count, n, rng.integers(1, 5))
                b = rng.normal(size=shape)
                start = len(tested)
                got = _stacked(a, b)
                middle = len(tested)
                outcomes.append(_row_by_row(a, b))
                _assert_same(got, outcomes[-1])
                stack_tests += middle - start
                row_tests += len(tested) - middle
    failed = sum(isinstance(outcome, str) for outcome in outcomes)
    assert failed > 50 and len(outcomes) - failed > 50
    # rows are tested one by one only where the certificate cannot decide
    assert 0 < stack_tests < row_tests


def test_rows_lapack_finds_exactly_singular_alone_go_to_the_pivot_test(monkeypatch):
    rng = np.random.default_rng(3)
    tested = []
    pivot_test = linalg._pivot_test
    monkeypatch.setattr(linalg, "_pivot_test", lambda a: tested.append(a) or pivot_test(a))
    for kinds in (["well", "duplicate", "well"], ["well", "zero", "near"], ["duplicate"]):
        a = np.array([_system(rng, 4, kind) for kind in kinds])
        b = rng.normal(size=(len(a), 4, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b)
        assert isinstance(_same_outcome(a, b), str)
    a = np.array([_system(rng, 3, kind) for kind in ("well", "zero", "well", "duplicate")])
    tested.clear()
    assert singular_rows(a).tolist() == [False, True, False, True]
    assert np.array_equal(tested, a[[1, 3]])


def test_stacked_solve_of_empty_and_single_stacks():
    rng = np.random.default_rng(8)
    assert solve_linear(np.zeros((0, 3, 3)), np.zeros((0, 3))).shape == (0, 3)
    assert solve_linear(np.zeros((0, 3, 3)), np.zeros((0, 3, 4))).shape == (0, 3, 4)
    a = rng.normal(size=(1, 3, 3)) + 3.0 * np.eye(3)
    b = rng.normal(size=(1, 3))
    assert np.array_equal(solve_linear(a, b)[0], _solve_one(a[0], b[0]))
    a[0, 2] = a[0, 0]
    with pytest.raises(SingularMatrix, match=r"threshold for scale [0-9.e+]+$"):
        solve_linear(a, b)


def test_extreme_magnitudes_raise_no_float_warnings():
    rng = np.random.default_rng(4)
    well = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    rows = [well * 1e200, well * 1e-200, np.diag([1e200, 1.0, 1e-200]),
            np.diag([1e-200, 1e-200, 1e-200]), np.full((3, 3), np.inf),
            np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0]),
            np.array([[0.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), well]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first in range(len(rows)):
            for second in range(len(rows)):
                a = np.array([well, rows[first], rows[second]])
                _same_outcome(a, rng.normal(size=(3, 3)))
        a = np.array(rows[:2] + rows[3:4] + rows[-1:])
        assert not isinstance(_same_outcome(a, rng.normal(size=(4, 3, 2))), str)


def _rejects(matrix):
    try:
        solve_linear(matrix[None], np.eye(len(matrix))[None])
    except SingularMatrix:
        return True
    return False


def test_singular_rows_flag_a_degenerate_fiber_metric_in_the_middle():
    setup = euclid_setup(4, 2)
    frames = setup._frames(points_for(setup, 5), False)
    for noise in (0.0, 1e-7):  # LAPACK rejects the first, only the pivot rule the second
        vcols = np.array(frames.vcols)
        # (nearly) dependent fiber directions at the middle point only
        vcols[2, :, 1] = 2.0 * vcols[2, :, 0] + noise * vcols[2, :, 1]
        fiber_metric = _gram(vcols, frames.g)
        assert fiber_metric.shape == (5, 2, 2)
        mask = singular_rows(fiber_metric).tolist()
        assert mask == [_rejects(m) for m in fiber_metric] == [False, False, True, False, False]
    assert singular_rows(np.zeros((0, 2, 2))).shape == (0,)


def test_frame_and_levi_civita_batches_make_no_per_row_solves(monkeypatch):
    # The batched solve must stay one LAPACK call per stack: a regression
    # to a row loop would show as per-row pivot tests here.
    calls = []
    pivot_test = linalg._pivot_test
    monkeypatch.setattr(linalg, "_pivot_test", lambda a: calls.append(1) or pivot_test(a))
    setup = hyperbolic_setup(3)
    points = points_for(setup, 64)
    assert len(setup._frames(points, True)) == 64
    connection = LeviCivitaConnection(setup.total.metric)
    for order in range(3):
        connection.batch(points, order)
    assert calls == []


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
