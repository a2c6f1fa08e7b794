"""Plain linear solves, the numpy LU and pivoted QR against LAPACK (through
scipy, a test-only oracle), and the jet-valued solves of the test reference."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgetrf

from subgeo import builtins, linalg
from subgeo.errors import ContractViolation, SingularMatrix
from subgeo.fields import DualConnection, LeviCivitaConnection, _dual
from subgeo.jets import Jet
from subgeo.submersion import RANK_RTOL, _gram

import certificate_reference
from conftest import euclid_setup, hyperbolic_setup, points_for
from jet_reference import jet_inverse, jet_matmul, jet_solve, jet_values


def _solve_one(a, b):
    """The per-system reference: one system (n, n) under the pivot test,
    solved by the certified inverse of a one-row stack times b, so it gets
    the same bits as the same system inside any stack."""
    linalg._pivot_test(a)
    return (linalg.inverse(a[None]) @ b.reshape(1, len(a), -1)).reshape(b.shape)


def _solve(a, b):
    """a^-1 b for a stack a (N, n, n) and b (N, n) or (N, n, k): the
    certified inverse times b, as the field layer solves."""
    inv = linalg.inverse(a)
    return inv @ b if b.ndim == 3 else (inv @ b[..., None])[..., 0]


def test_solve_matches_numpy():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 4, 4)) + 4.0 * np.eye(4)
    b = rng.normal(size=(5, 4))
    assert _solve(a, b) == pytest.approx(np.linalg.solve(a, b[..., None])[..., 0])


def test_solve_shape_and_singular():
    with pytest.raises(ContractViolation):
        linalg.inverse(np.ones((1, 2, 3)))
    with pytest.raises(SingularMatrix, match="zero matrix$"):
        linalg.inverse(np.zeros((1, 2, 2)))
    with pytest.raises(SingularMatrix, match="below threshold"):
        linalg.inverse(np.array([[[1.0, 2.0], [2.0, 4.0]]]))


def test_one_system_is_a_contract_violation():
    # a single system goes in as a one-row stack; 2-D input is an error
    eye = np.eye(3)
    for a in (eye, np.ones(3), np.float64(1.0)):
        with pytest.raises(ContractViolation, match="shape mismatch"):
            linalg.inverse(a)
    with pytest.raises(ContractViolation, match="shape mismatch"):
        linalg.inverse_rows(eye)


def test_stacked_solve_matches_each_system():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3, 3)) + 3.0 * np.eye(3)
    b = rng.normal(size=(4, 3, 9))
    x = _solve(a, b)
    for row in range(4):
        assert np.array_equal(x[row], _solve_one(a[row], b[row]))
        assert np.array_equal(x[row], _solve(a[row:row + 1], b[row:row + 1])[0])
    a[2] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularMatrix, match="in row 2"):
        linalg.inverse(a)


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
        return _solve(a, b)
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
    assert linalg.inverse_rows(a)[1].tolist() == [False, True, False, True]
    assert np.array_equal(tested, a[[1, 3]])


def test_stacked_solve_of_empty_and_single_stacks():
    rng = np.random.default_rng(8)
    assert _solve(np.zeros((0, 3, 3)), np.zeros((0, 3))).shape == (0, 3)
    assert _solve(np.zeros((0, 3, 3)), np.zeros((0, 3, 4))).shape == (0, 3, 4)
    a = rng.normal(size=(1, 3, 3)) + 3.0 * np.eye(3)
    b = rng.normal(size=(1, 3))
    assert np.array_equal(_solve(a, b)[0], _solve_one(a[0], b[0]))
    a[0, 2] = a[0, 0]
    with pytest.raises(SingularMatrix, match=r"threshold for scale [0-9.e+]+$"):
        linalg.inverse(a)


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
        linalg.inverse(matrix[None])
    except SingularMatrix:
        return True
    return False


ROW_KINDS = ("well", "scaled", "near", "singular", "zero", "nan", "inf", "-inf")


@st.composite
def stacks(draw):
    """A stack (N, n, n), n <= 6, whose rows are well conditioned, scaled
    by 10^k, near-singular, exactly singular, zero, or hold NaN or +-inf;
    sometimes uniform, or the whole stack scaled by 10^k."""
    n, count = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(count, n, n)) + n * np.eye(n)
    for row in range(count):
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "scaled":
            a[row] *= 10.0 ** draw(st.integers(-300, 300))
        elif kind == "near":
            a[row, -1] = 2.0 * a[row, 0] + 10.0 ** -draw(st.integers(8, 16)) * rng.normal(size=n)
        elif kind == "singular":
            a[row, -1] = a[row, 0]
        elif kind == "zero":
            a[row] = 0.0
        elif kind != "well":
            a[row, rng.integers(n), rng.integers(n)] = {"nan": np.nan, "inf": np.inf,
                                                        "-inf": -np.inf}[kind]
    if draw(st.booleans()):
        a[:] = a[0]
    if draw(st.booleans()):
        with np.errstate(over="ignore"):  # an entry may overflow to inf
            a *= 10.0 ** draw(st.integers(-200, 200))
    return a


def _outcome(inverse, a):
    """The inverses of a, or the type and message of its SingularMatrix."""
    try:
        return inverse(a).tobytes()
    except SingularMatrix as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_the_stack_bound_gives_the_per_row_rule(a):
    # arrays, masks, exception types, messages and row numbers
    assert _outcome(linalg.inverse, a) == _outcome(certificate_reference.inverse, a)
    inv, bad = linalg.inverse_rows(a)
    want_inv, want_bad = certificate_reference.inverse_rows(a)
    assert inv.tobytes() == want_inv.tobytes() and bad.tolist() == want_bad.tolist()


def test_the_stack_bound_leaves_a_stack_it_cannot_certify_to_the_per_row_rule(monkeypatch):
    calls, certified = [], linalg._certified
    monkeypatch.setattr(linalg, "_certified",
                        lambda a, inv: calls.append(len(a)) or certified(a, inv))
    rng = np.random.default_rng(37)
    a = rng.normal(size=(3, 3, 3)) + 3.0 * np.eye(3)
    linalg.inverse(a)
    assert calls == []  # the bound on the stack certifies every row
    # each row certifies itself, the stack's largest |a| and |a^-1| do not
    a[1] *= 1e8
    a[2] *= 1e-8
    linalg.inverse(a)
    assert calls == [3]
    a[0] = 0.0  # so does a stack with a singular row
    assert linalg.inverse_rows(a)[1].tolist() == [True, False, False]
    assert calls == [3, 3]


def test_inverse_rows_flag_a_degenerate_fiber_metric_in_the_middle():
    setup = euclid_setup(4, 2)
    frames = setup._frames(points_for(setup, 5))
    for noise in (0.0, 1e-7):  # LAPACK rejects the first, only the pivot rule the second
        vcols = np.array(frames.vcols)
        # (nearly) dependent fiber directions at the middle point only
        vcols[2, :, 1] = 2.0 * vcols[2, :, 0] + noise * vcols[2, :, 1]
        fiber_metric = _gram(vcols, frames.g)
        assert fiber_metric.shape == (5, 2, 2)
        mask = linalg.inverse_rows(fiber_metric)[1].tolist()
        assert mask == [_rejects(m) for m in fiber_metric] == [False, False, True, False, False]
    assert linalg.inverse_rows(np.zeros((0, 2, 2)))[1].shape == (0,)


def test_frame_and_levi_civita_batches_make_no_per_row_solves(monkeypatch):
    # The batched solve must stay one LAPACK call per stack: a regression
    # to a row loop would show as per-row pivot tests here.
    calls = []
    pivot_test = linalg._pivot_test
    monkeypatch.setattr(linalg, "_pivot_test", lambda a: calls.append(1) or pivot_test(a))
    setup = hyperbolic_setup(3)
    points = points_for(setup, 64)
    assert len(setup._frames(points)) == 64
    connection = LeviCivitaConnection(setup.total.metric)
    for order in range(3):
        connection.batch(points, order)
    assert calls == []


class _CountingLapack:
    """Stands in for numpy's LAPACK gufunc module inside ``linalg`` and
    records the name and the input shape of every call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(np.linalg._umath_linalg, name)
        return lambda a, *args: self.calls.append((name, a.shape)) or fn(a, *args)


@pytest.fixture
def lapack(monkeypatch):
    counter = _CountingLapack()
    monkeypatch.setattr(linalg, "_umath_linalg", counter)
    return counter.calls


def test_a_field_batch_factors_its_metric_once(lapack):
    # one inverse per batch at every order, shared by each solve against g
    for name in ("hyperbolic:3", "gaussian:alpha=1"):  # Levi-Civita, alpha
        space = builtins.build(name).space
        points = points_for(builtins.build(name).setup, 16)
        for order in range(3):
            lapack.clear()
            space.conn.batch(points, order)
            assert len(lapack) == 1, (name, order)
        g_parts, gamma_parts = space.metric.batch(points, 2), space.conn.batch(points, 1)
        lapack.clear()
        _dual(g_parts, gamma_parts)
        assert len(lapack) == 1, name
        lapack.clear()  # the dual takes its base connection's inverse
        DualConnection(space.conn, space.metric).batch(points, 1)
        assert len(lapack) == 1, name


def test_a_frame_build_factors_each_stack_once(lapack):
    # the kernel block, g, dpi g^-1 dpi^T and g_B; the connections take
    # the frame's metric parts and inverse, and the derived parts use them
    setup = builtins.build("hyperbolic:3").setup
    frames = setup._frames(points_for(setup, 32))
    assert len(lapack) == 4
    for name in ("d_lcols", "d_ph", "d_pv", "gamma_dual", "cubic", "gamma_b_dual", "cubic_b"):
        getattr(frames.over(2), name)
        getattr(frames.take([3, 1]), name)
    assert len(lapack) == 4


def test_a_frame_build_inverts_its_uniform_stacks_on_one_row(lapack):
    # hyperbolic:3 projects onto coordinates of a Euclidean base, so the
    # kernel's pivot block and the base metric are the same at every point
    setup = builtins.build("hyperbolic:3").setup
    setup._frames(points_for(setup, 256))
    assert lapack == [("inv", (1, 2, 2)), ("inv", (256, 3, 3)), ("inv", (256, 2, 2)),
                      ("inv", (1, 2, 2))]


def _per_row_lapack(a):
    """The LAPACK inverses of a stack, one call per row."""
    with np.errstate(all="ignore"):
        return np.concatenate([np.linalg._umath_linalg.inv(row[None]) for row in a])


def test_a_uniform_stack_is_inverted_and_certified_on_its_first_row(lapack):
    # the inverses, verdicts and messages of the per-row rule, from one
    # LAPACK call on one row
    rng = np.random.default_rng(29)
    for n in range(1, 5):
        for count in (1, 2, 3, 17, 256, 300):
            for kind in ("well", "near", "zero", "duplicate", "nan", "inf"):
                a = np.repeat(_system(rng, n, kind)[None], count, axis=0)
                want = _per_row_lapack(a)
                lapack.clear()
                inv, bad = linalg.inverse_rows(a)
                assert lapack == [("inv", (1, n, n))], (n, count, kind)
                assert inv.shape == a.shape and inv.tobytes() == want.tobytes()
                assert bad.tolist() == [_rejects(a[0])] * count
                _same_outcome(a, rng.normal(size=(count, n, 2)))


def test_rows_that_differ_in_their_bits_alone_are_inverted_row_by_row(lapack):
    rng = np.random.default_rng(31)
    well = _system(rng, 3, "well")
    well[0, 1] = 0.0
    signed = np.array([well] * 4)
    signed[2, 0, 1] = -0.0  # equal values, another bit pattern
    one_nan = np.array([well] * 3)
    one_nan[1, 1, 1] = np.nan
    payloads = np.array([well] * 3)
    payloads[:, 2, 2] = np.nan
    payloads.view(np.int64)[1, 2, 2] += 1  # another NaN
    for a in (signed, one_nan, payloads):
        want = _per_row_lapack(a)
        lapack.clear()
        inv, bad = linalg.inverse_rows(a)
        assert lapack == [("inv", a.shape)]
        assert inv.tobytes() == want.tobytes()
        assert bad.tolist() == [_rejects(row) for row in a]
        _same_outcome(a, rng.normal(size=(len(a), 3)))


def _conditioned(rng, n, cond):
    """A random (n, n) matrix with 2-norm condition number ``cond``."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (u * np.logspace(0.0, -np.log10(cond), n)) @ v.T


def test_solves_through_the_inverse_keep_the_forward_error_of_lu():
    # A product with the certified inverse is not backward stable, but on
    # these stacks its forward error stays within C n cond eps of scipy's
    # LU solve (relative, in the max norm), as an LU solve's does; the
    # largest ratio seen here is about 0.03 of that bound.
    C = 1.0
    eps = np.finfo(float).eps
    rng = np.random.default_rng(19)
    for n in range(2, 7):
        for cond in (1e2, 1e5, 1e8):
            a = np.array([_conditioned(rng, n, cond) for _ in range(64)])
            b = rng.normal(size=(64, n, 2))
            x = _solve(a, b)
            for row in range(len(a)):
                want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a[row]), b[row])
                err = np.abs(x[row] - want).max() / np.abs(want).max()
                assert err <= C * n * cond * eps, (n, cond, row, err)


# -- the numpy LU and pivoted QR against LAPACK through scipy ------------------


def _singular(pivot_test, a):
    try:
        pivot_test(a)
    except SingularMatrix:
        return True
    return False


def _lapack_pivot_test(a):
    """The singularity rule with dgetrf's pivots."""
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    if np.abs(dgetrf(a)[0].diagonal()).min() < linalg.PIVOT_RTOL * scale:
        raise SingularMatrix("below threshold")


def test_lu_pivots_match_dgetrf():
    rng = np.random.default_rng(31)
    verdicts = []
    for count in range(3000):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
        if count % 3 == 0:  # near-singular: last row a multiple of the first plus noise
            a[-1] = rng.uniform(-3, 3) * a[0] + 10.0 ** -rng.uniform(8, 17) * rng.normal(size=n)
        ours, lapack = linalg._lu_pivots(a), dgetrf(a)[0].diagonal()
        assert np.abs(ours - lapack).max() <= 1e-11 * np.abs(lapack).max()
        verdicts.append(_singular(linalg._pivot_test, a))
        assert verdicts[-1] == _singular(_lapack_pivot_test, a)
    assert 100 < sum(verdicts) < 1000


def _with(a, i, j, value):
    a = np.array(a, dtype=float)
    a[i, j] = value
    return a


def test_lu_verdicts_match_dgetrf_on_extreme_matrices():
    rng = np.random.default_rng(4)
    well = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    inf, nan, tiny, huge = np.inf, np.nan, 5e-324, 1e308
    table = [
        np.zeros((3, 3)), np.zeros((1, 1)), np.full((3, 3), nan), np.full((1, 1), nan),
        _with(well, 1, 2, nan), _with(well, 0, 0, nan),
        np.full((3, 3), inf), np.full((3, 3), -inf), np.full((1, 1), inf),
        np.diag([inf, 1.0, 1.0]), np.diag([1.0, 1.0, -inf]),
        _with(well, 2, 0, inf), _with(well, 0, 1, -inf), _with(well, 0, 0, inf),
        np.eye(3) * tiny, np.full((1, 1), tiny), np.diag([1.0, tiny, 1.0]),
        _with(np.eye(3), 2, 0, tiny), np.array([[tiny, 0, 0], [tiny, 1, 0], [0, 0, 1.0]]),
        well * 1e-300, well * 1e307, np.eye(3) * huge, np.diag([huge, 1.0, 1e-308]),
        np.array([[huge, huge], [huge, -huge]]), np.array([[huge, huge], [huge, huge]]),
        np.array([[0.0, inf], [0.0, 1.0]]),  # NaN spreads past the zero pivot
    ]
    with np.errstate(all="ignore"):
        verdicts = [_singular(linalg._pivot_test, a) for a in table]
        assert verdicts == [_singular(_lapack_pivot_test, a) for a in table]
    assert 5 < sum(verdicts) < len(table) - 5


def test_an_exactly_singular_matrix_keeps_its_rounded_last_pivot():
    # dgetrf ends on an exact 0.0 here; the numpy LU on a rounding-level pivot
    a = np.arange(1.0, 10.0).reshape(3, 3)
    message = r"^pivot 1\.110e-16 below threshold for scale 9\.000e\+00$"
    with pytest.raises(SingularMatrix, match=message):
        linalg._pivot_test(a)


def _rank_drops(diag):
    return diag[-1] <= RANK_RTOL * max(diag[0], 1.0)


def _lapack_qr(a):
    _, r, order = scipy.linalg.qr(a, pivoting=True, mode="economic")
    return np.abs(np.diag(r)), order


def _same_qr(a, m):
    """Whether the pivoted QR picks dgeqp3's first m columns, with |R_kk|
    within 1e-14 of the largest; another set must be as independent."""
    (diag, order), (want, want_order) = linalg.pivoted_qr(a), _lapack_qr(a)
    assert _rank_drops(diag) == _rank_drops(want)
    if set(order[:m]) != set(want_order[:m]):
        rank = np.linalg.matrix_rank
        assert rank(a[:, order[:m]]) == rank(a[:, want_order[:m]])
        return False
    assert np.abs(diag - want).max() <= 1e-14 * want.max()
    return True


def test_pivoted_qr_matches_dgeqp3():
    rng = np.random.default_rng(17)
    for count in range(1500):
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(m, int(rng.integers(m, 7)))) * 10.0 ** rng.uniform(-3, 3)
        if count % 2:  # columns close to multiples of the first: their norms are recomputed
            scales = 10.0 ** -rng.uniform(5, 12, size=a.shape[1] - 1)
            a[:, 1:] = np.outer(a[:, 0], rng.uniform(-3, 3, size=len(scales))) + scales * a[:, 1:]
        assert _same_qr(a, m)
    # exact ties (small integers, a repeated column) may pick another
    # valid column set, never another rank verdict
    same = []
    for _ in range(1500):
        m = int(rng.integers(1, 4))
        a = rng.integers(-2, 3, size=(m, int(rng.integers(m, 6)))).astype(float)
        a[:, -1] = a[:, 0]
        same.append(_same_qr(a, m))
    assert sum(same) > 0.9 * len(same)


@pytest.mark.parametrize("name", [  # the builtins with a projection (broken:2 has none)
    "euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3", "gaussian:alpha=0",
    "gaussian:alpha=1", "gaussian:alpha=-0.5", "perturbed:3",
    "tangent_bundle_of:hyperbolic:2", "tangent_bundle_of:gaussian:alpha=1",
    "tangent_bundle_of:euclidean:2"])
def test_pivot_patterns_at_the_builtin_centers_match_dgeqp3(name):
    setup = builtins.build(name).setup
    center = np.array([setup.total.chart.center()])
    dpi = setup._pi_stack(center, 1)[1][0].T
    assert _same_qr(dpi, setup.m)
    order = _lapack_qr(dpi)[1]
    assert setup.pivot_pattern() == (tuple(sorted(order[:setup.m])),
                                     tuple(sorted(order[setup.m:])))


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
