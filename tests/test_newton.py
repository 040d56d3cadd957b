"""Newton corrector and linear solver tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from cmkit import GridFunction, build_grid
from cmkit.errors import DomainError, SingularJacobianError
from cmkit import newton
from cmkit.newton import newton_solve, solve_linear
from cmkit.problem import (
    LinearizedOperator,
    ProblemSpec,
    assemble_jacobian,
    evaluate,
    linearization_weights,
    parity_fold,
    ring_blocks,
    ring_taps,
)
from cmkit.sphere import constant_function, hessian_field, odd_defect


@pytest.fixture(scope="module")
def g2():
    return build_grid(2, m_lat=16, m_lon=32)


@pytest.fixture(scope="module")
def g1():
    return build_grid(1, m_theta=64)


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------

def _circle_operator(m_theta, hess11, grad1, diag):
    """The operator diag + hess11 (d^2/dtheta^2 + 1) + grad1 d/dtheta on
    an m_theta circle, from per-node (or scalar) weights."""
    g = build_grid(1, m_theta=m_theta)
    weights = {"hess11": hess11, "grad1": grad1, "diag": diag}
    return LinearizedOperator(g, {key: np.broadcast_to(np.asarray(w, dtype=float),
                                                       (m_theta,)).copy()
                                  for key, w in weights.items()})


def test_solve_linear_trivial():
    rhs = np.array([1.0, -2.0, 3.0, 0.5, -0.25, 4.0, 1.5, -3.0])
    assert_allclose(solve_linear(_circle_operator(8, 0.0, 0.0, 1.0), rhs), rhs, rtol=1e-14)
    assert_allclose(solve_linear(_circle_operator(8, 0.0, 0.0, 2.0), rhs), rhs / 2,
                    rtol=1e-14)


def test_solve_linear_backward_error():
    # variable coefficients on an 80-node circle: the ring preconditioner
    # inverts their means only, and GMRES makes up the rest
    rng = np.random.default_rng(1)
    J = _circle_operator(80, 1.0 + 0.2 * rng.standard_normal(80),
                         rng.standard_normal(80), -9.0 + rng.standard_normal(80))
    rhs = rng.standard_normal(80)
    x = solve_linear(J, rhs)
    A = J.toarray()
    scale = np.max(np.abs(A).sum(axis=1))
    be = np.max(np.abs(A @ x - rhs)) / (scale * np.max(np.abs(x))
                                        + np.max(np.abs(rhs)))
    assert be <= 1e-10


def test_solve_linear_singular():
    # d^2/dtheta^2 + 1 annihilates cos and sin: mode 1 has no pivot
    J = _circle_operator(16, 1.0, 0.0, 0.0)
    assert np.max(np.abs(J.toarray() @ np.cos(J.grid.thetas))) <= 1e-12
    with pytest.raises(SingularJacobianError, match="pivot"):
        solve_linear(J, np.ones(16))


def test_solve_linear_zero_operator_is_declined_on_its_pivot():
    # every weight 0: the scale is 0 as well, and a zero pivot must not
    # pass the test pivot > PIVOT_RTOL * scale; GMRES never starts
    J = _circle_operator(16, 0.0, 0.0, 0.0)
    with pytest.raises(SingularJacobianError, match="pivot"):
        solve_linear(J, np.ones(16))


def test_solve_linear_variable_circle_is_not_declined():
    # the pivot check sees the ring means only: with coefficients that vary
    # around the circle J is regular, and so is the operator of their means
    # (mode m: 0.8 - m^2), so the step is solved, not declined
    theta = build_grid(1, m_theta=64).thetas
    J = _circle_operator(64, 1.0 + 0.5 * np.cos(theta), 0.3 * np.sin(theta),
                         -0.2 + 0.1 * np.cos(2 * theta))
    rhs = np.cos(3 * theta) + 0.5
    x = solve_linear(J, rhs)
    ref = np.linalg.solve(J.toarray(), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def _sphere_case(k, tilt, a=0.5, m_lat=32, m_lon=None):
    """Spec, iterate, its Evaluation and linearization weights at t = 0.5 on
    an m_lat x m_lon grid (m_lon = 2 m_lat by default), for quadratic data
    and iterate about an axis tilted from the pole."""
    g = build_grid(2, m_lat=m_lat, m_lon=m_lon or 2 * m_lat)
    u = g.coords @ np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    p, q = 1.5, 1.0 + k
    f = GridFunction(g, (1.0 + a * u ** 2) ** (-(k + p - 1.0)))
    spec = ProblemSpec(n=2, k=k, p=p, q=q, f=f)
    h = GridFunction(g, 1.0 + 0.05 * u ** 2)
    ev = evaluate(spec, h, 0.5)
    return spec, h, ev, linearization_weights(spec, ev)


def _sphere_jacobian(k, tilt, a=0.5, m_lat=32, m_lon=None):
    """The matrix-free Jacobian of _sphere_case and its ring blocks."""
    spec, _, ev, weights = _sphere_case(k, tilt, a, m_lat, m_lon)
    return assemble_jacobian(spec, ev), ring_blocks(ring_taps(spec.grid, weights))


def _ring_scale(J):
    """The scale solve_linear gives J, caught at its preconditioner build:
    the infinity norm of the ring-averaged operator."""
    class Caught(Exception):
        pass

    def catch(blocks, scale):
        raise Caught(scale)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(newton, "_ring_preconditioner", catch)
        with pytest.raises(Caught) as caught:
            solve_linear(J, np.ones(J.shape[0]))
    return caught.value.args[0]


def _backward_error(J, x, rhs):
    scale = np.max(np.abs(J).sum(axis=1))
    return np.max(np.abs(J.dot(x) - rhs)) / (scale * np.max(np.abs(x))
                                          + np.max(np.abs(rhs)))


def test_solve_linear_preconditions_with_the_operators_ring_blocks(monkeypatch):
    # a matrix-free step on a tilted 16x32 grid: the preconditioner's
    # blocks come from the operator's own weights, and the step meets its
    # target
    J, blocks = _sphere_jacobian(2, 0.4, m_lat=16)
    assert isinstance(J, LinearizedOperator)
    builds = []
    build = newton._ring_preconditioner
    monkeypatch.setattr(newton, "_ring_preconditioner",
                        lambda b, scale: builds.append(b) or build(b, scale))
    rhs = np.sin(np.arange(J.shape[0]))
    x = solve_linear(J, rhs)
    assert len(builds) == 1 and np.array_equal(builds[0], blocks)
    assert _backward_error(J.toarray(), x, rhs) <= 1e-15


@pytest.mark.parametrize("k,tilt,a", [(1, 0.0, 0.5), (1, 0.4, 0.5), (2, 0.0, 0.5),
                                      (2, 0.4, 0.5), (2, 1.0, 2.0)],
                         ids=["1-0.0", "1-0.4", "2-0.0", "2-0.4", "2-1.0-a2"])
def test_solve_linear_matches_lapack_lu_of_the_assembled_matrix(monkeypatch, k, tilt, a):
    # the preconditioned Krylov step on a matrix-free 32x64 Jacobian
    # against LAPACK on the same matrix, for axisymmetric (polar) and
    # tilted data
    from scipy import linalg as sla

    gmres_results = []

    def spy(*args):
        gmres_results.append(gmres(*args))
        return gmres_results[-1]

    gmres = newton._gmres
    monkeypatch.setattr(newton, "_gmres", spy)
    J, _ = _sphere_jacobian(k, tilt, a)
    assert isinstance(J, LinearizedOperator)
    rhs = np.sin(np.arange(J.shape[0]))
    x = solve_linear(J, rhs)
    assert len(gmres_results) == 1 and gmres_results[0] is not None
    A = J.toarray()
    ref = sla.lu_solve(sla.lu_factor(A), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert _backward_error(A, ref, rhs) <= 1e-10
    assert _backward_error(A, x, rhs) <= 1e-15  # a few unit roundoffs


@pytest.mark.parametrize("k", [1, 2])
def test_ring_preconditioner_inverts_polar_jacobian(k):
    # axisymmetric data and iterate: the ring means are the coefficients
    # themselves, so the mode blocks are J's own and P^-1 J = I
    J, blocks = _sphere_jacobian(k, 0.0)
    precond = newton._ring_preconditioner(blocks, _ring_scale(J))
    x = np.cos(0.7 * np.arange(J.shape[0])) + 0.3
    assert np.max(np.abs(precond(J.dot(x)) - x)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("shape", [(9, 16), (16, 32), (64, 128)],
                         ids=["9x16", "16x32", "64x128"])
def test_ring_preconditioner_matches_dense_mode_solves(shape):
    # the banded LU against np.linalg.solve of every mode's dense block,
    # on tilted k = 2 data, where partial pivoting swaps rows
    J, blocks = _sphere_jacobian(2, 0.4, m_lat=shape[0], m_lon=shape[1])
    width, M, K = blocks.shape
    R = width // 2
    A = np.zeros((K, M, M), complex)
    for o in range(width):
        j = np.arange(max(0, R - o), min(M, M + R - o))
        A[:, j, j + o - R] = blocks[o, j].T
    v = np.cos(0.37 * np.arange(J.shape[0])) + 0.2
    V = np.fft.rfft(v.reshape(M, -1), axis=1)
    X = np.linalg.solve(A, V.T[:, :, None])[..., 0].T
    ref = np.fft.irfft(X, n=shape[1], axis=1).ravel()
    precond = newton._ring_preconditioner(blocks, _ring_scale(J))
    x = precond(v)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    # its work array keeps nothing from one application to the next
    precond(np.full_like(v, np.nan))
    assert np.array_equal(precond(v), x)
    # the LU runs on the folded blocks, half the rings each
    _, _, piv = newton._band_lu(parity_fold(blocks), (M + 1) // 2)
    assert np.count_nonzero(piv) > 0


@pytest.mark.parametrize("m_lat", [9, 16])
def test_ring_preconditioner_inverts_the_reflection_average(m_lat):
    # blocks that differ between rings j and M-1-j (ring 1 scaled): the
    # preconditioner inverts the average of A and its reflection R A R
    J, blocks = _sphere_jacobian(2, 0.4, m_lat=m_lat, m_lon=16)
    blocks[:, 1] *= 1.1
    width, M, K = blocks.shape
    R = width // 2
    A = np.zeros((K, M, M), complex)
    for o in range(width):
        j = np.arange(max(0, R - o), min(M, M + R - o))
        A[:, j, j + o - R] = blocks[o, j].T
    S = 0.5 * (A + A[:, ::-1, ::-1])
    v = np.cos(0.37 * np.arange(J.shape[0])) + 0.2
    V = np.fft.rfft(v.reshape(M, -1), axis=1)
    ref = np.fft.irfft(np.linalg.solve(S, V.T[:, :, None])[..., 0].T, n=16, axis=1).ravel()
    x = newton._ring_preconditioner(blocks, _ring_scale(J))(v)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_ring_preconditioner_raises_on_a_zero_pivot():
    # column 4 of mode 3 zeroed: no candidate row can pivot it.  Ring 4 is
    # the middle one of 9, its own mirror, so the symmetric part of mode 3
    # has the same zero column
    J, blocks = _sphere_jacobian(2, 0.4, m_lat=9, m_lon=16)
    R = blocks.shape[0] // 2
    for o in range(blocks.shape[0]):
        blocks[o, 4 - o + R, 3] = 0.0
    with pytest.raises(SingularJacobianError, match="pivot"):
        newton._ring_preconditioner(blocks, _ring_scale(J))


def test_solve_linear_raises_when_krylov_misses_target(monkeypatch):
    J, blocks = _sphere_jacobian(2, 1.0, 2.0)
    rhs = np.sin(np.arange(J.shape[0]))
    # a zero ring average: zero pivots against a zero scale, no preconditioner
    with monkeypatch.context() as m:
        m.setattr(newton, "ring_taps",
                  lambda grid, weights: np.zeros_like(grid.stencil_taps()["identity"]))
        with pytest.raises(SingularJacobianError, match="preconditioner"):
            solve_linear(J, rhs)
    # GMRES cannot reach its target in one iteration on tilted data
    monkeypatch.setattr(newton, "KRYLOV_MAX_ITER", 1)
    with pytest.raises(SingularJacobianError, match="GMRES"):
        solve_linear(J, rhs)


def test_krylov_miss_halves_the_continuation_step(monkeypatch):
    # a tilted 16x32 path on which no Newton step can meet the Krylov
    # target: every attempt's corrector ends unconverged with the GMRES
    # miss as its message, and continuation halves dt until it underflows.
    # ETA_MAX = 0 keeps every forcing term at 0, so the target is the
    # exact-step one that one GMRES iteration cannot meet; a loose forcing
    # term could be met.
    from cmkit import continuation

    spec, _, _, _ = _sphere_case(2, 0.4, m_lat=16)
    attempts = []

    def spy(spec, h, t, **kwargs):
        attempts.append(t)
        return solve(spec, h, t, **kwargs)

    solve = continuation.newton_solve
    monkeypatch.setattr(continuation, "newton_solve", spy)
    monkeypatch.setattr(newton, "KRYLOV_MAX_ITER", 1)
    monkeypatch.setattr(newton, "ETA_MAX", 0.0)
    trace = continuation.continue_path(spec)
    assert not trace.success
    assert "GMRES missed" in trace.message
    expect = [spec.dt0]
    while expect[-1] / 2 >= spec.dt_min:
        expect.append(expect[-1] / 2)
    assert attempts == expect


def _path_work(trace):
    """(Newton, GMRES) iterations over the accepted steps of a trace."""
    return (sum(row["newton_iterations"] for row in trace.steps),
            sum(row["krylov_iterations"] for row in trace.steps))


@pytest.mark.parametrize("m_lat", [16, 32])
def test_forcing_terms_halve_krylov_work(monkeypatch, m_lat):
    # tilted k = 2 paths: the inexact Newton steps spend at most half the
    # GMRES iterations of exact steps (ETA_MAX = 0), and land on the same
    # solution
    from cmkit.continuation import continue_path

    spec, _, _, _ = _sphere_case(2, 0.4, m_lat=m_lat)
    inexact = continue_path(spec)
    monkeypatch.setattr(newton, "ETA_MAX", 0.0)
    exact = continue_path(spec)
    assert inexact.success and exact.success
    newton_its, krylov_its = _path_work(inexact)
    exact_newton_its, exact_krylov_its = _path_work(exact)
    assert 0 < krylov_its <= exact_krylov_its / 2
    assert newton_its <= exact_newton_its
    assert np.max(np.abs(inexact.h.values - exact.h.values)) <= 1e-9


@pytest.mark.parametrize("case", ["polar", "dense", "circle"])
def test_forcing_term_leaves_exact_paths_bitwise(case):
    # where the ring preconditioner is J^-1 (axisymmetric data on 32x64
    # and on 8x16, once a dense LU grid; constant data and iterate on the
    # circle) one GMRES iteration meets every forcing term, so every eta
    # gives the same step.  On 32x64 the exact target (eta = 0) takes one
    # iteration too and the steps agree bitwise; on 8x16 and the circle it
    # takes a second one below the rounding level of the first.
    if case == "circle":
        g = build_grid(1, m_theta=64)
        spec = ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=constant_function(g, 1.3))
        J = assemble_jacobian(spec, evaluate(spec, constant_function(g, 1.1), 0.5))
    else:
        J, _ = _sphere_jacobian(2, 0.0, m_lat=8 if case == "dense" else 32)
    assert isinstance(J, LinearizedOperator)
    rhs = np.sin(np.arange(J.shape[0]))
    state, exact = {}, {}
    x = solve_linear(J, rhs, state=exact)
    steps = []
    for eta in (1e-6, 0.1, 0.5):
        state.pop("precond", None)  # a fresh P for every eta
        steps.append(solve_linear(J, rhs, eta, state))
    assert all(np.array_equal(step, steps[0]) for step in steps)
    assert state["krylov_iterations"] == 3
    if case == "polar":
        assert exact["krylov_iterations"] == 1
        assert np.array_equal(steps[0], x)
    else:
        assert exact["krylov_iterations"] <= 2
        assert np.max(np.abs(steps[0] - x)) <= 1e-13 * np.max(np.abs(x))


@pytest.mark.parametrize("eta", [1e-8, 1e-4, 0.1])
def test_solve_linear_meets_forcing_term(eta):
    # tilted data on 32x64: x meets |J x - rhs|_inf <= eta |rhs|_inf, in
    # fewer GMRES iterations than the exact step
    J, _ = _sphere_jacobian(2, 1.0, 2.0)
    rhs = np.sin(np.arange(J.shape[0]))
    loose, exact = {}, {}
    x = solve_linear(J, rhs, eta, loose)
    solve_linear(J, rhs, state=exact)
    assert np.max(np.abs(J.dot(x) - rhs)) <= eta * np.max(np.abs(rhs))
    assert 0 < loose["krylov_iterations"] < exact["krylov_iterations"]


def test_solve_linear_rejects_x_that_misses_forcing_term(monkeypatch):
    # a GMRES answer whose residual is about 2.5 eta |rhs|: the exact step
    # scaled by 1 - 2.5 eta meets neither the forcing term nor the
    # backward-error bound
    J, _ = _sphere_jacobian(2, 1.0, 2.0)
    rhs = np.sin(np.arange(J.shape[0]))
    eta = 0.1
    shrink = 1.0 - 2.5 * eta
    x = solve_linear(J, rhs)
    gmres = newton._gmres

    def short_step(matvec, rhs, precond, scale, eta):
        return shrink * gmres(matvec, rhs, precond, scale)[0], 1

    monkeypatch.setattr(newton, "_gmres", short_step)
    with pytest.raises(SingularJacobianError, match="misses eta = 0.1"):
        solve_linear(J, rhs, eta)
    # the same answer with a looser forcing term is accepted
    assert np.array_equal(solve_linear(J, rhs, 3 * eta), shrink * x)


def test_gmres_miss_names_forcing_term_and_iterations(monkeypatch):
    J, _ = _sphere_jacobian(2, 1.0, 2.0)
    rhs = np.sin(np.arange(J.shape[0]))
    monkeypatch.setattr(newton, "KRYLOV_MAX_ITER", 2)
    with pytest.raises(SingularJacobianError,
                       match=r"GMRES missed .* eta = 1e-08 after 2 iterations"):
        solve_linear(J, rhs, 1e-8)


def test_newton_result_counts_krylov_iterations(monkeypatch, g1):
    # every GMRES iteration of every step is counted, on the sphere and on
    # the circle
    counted = []
    gmres = newton._gmres

    def spy(*args):
        counted.append(gmres(*args))
        return counted[-1]

    monkeypatch.setattr(newton, "_gmres", spy)
    spec, h, _, _ = _sphere_case(2, 0.4, m_lat=16)
    res = newton_solve(spec, h, 0.5)
    assert res.converged and len(counted) == res.iterations
    assert res.krylov_iterations == sum(its for _, its in counted) > res.iterations
    counted.clear()
    spec = ProblemSpec(n=1, k=1, p=2.0, q=2.5, f=constant_function(g1, 0.8))
    res = newton_solve(spec, constant_function(g1, 1.1), 1.0)
    assert res.converged and res.iterations > 0 and len(counted) == res.iterations
    assert res.krylov_iterations == sum(its for _, its in counted) >= res.iterations


def test_forcing_term_follows_eisenstat_walker_choice_2():
    tol, gamma = 1e-10, newton.FORCING_GAMMA
    # choice 2: gamma (|F_k| / |F_k-1|)^2, capped at ETA_MAX
    assert newton._forcing_term(1e-3, 1e-2, tol) == gamma * (1e-3 / 1e-2) ** 2
    assert newton._forcing_term(0.9, 1.0, tol) == newton.ETA_MAX
    # near tol_newton the forcing term stays at 0.5 tol / |F_k|
    assert newton._forcing_term(1e-9, 1e-5, tol) == 0.5 * tol / 1e-9
    # the floor follows the target it is given, not tol_newton
    assert newton._forcing_term(1e-4, 1e-2, 1e-5) == 0.5 * 1e-5 / 1e-4
    assert newton._forcing_term(1e-4, 1e-2, tol) == gamma * (1e-4 / 1e-2) ** 2


def test_solve_linear_declines_a_jacobian_with_a_zero_row():
    # a zero row: no step meets the backward-error target
    spec, _, _, weights = _sphere_case(1, 0.4)
    for w in weights.values():
        w[100] = 0.0
    J = LinearizedOperator(spec.grid, weights)
    with pytest.raises(SingularJacobianError):
        solve_linear(J, np.ones(J.shape[0]))


@pytest.mark.parametrize("m_lat", [8, 16])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weight_is_rejected_before_any_solve_work(monkeypatch, m_lat, bad):
    # 8x16 and 16x32: a non-finite weight is reported before any
    # factorization or Krylov work, and so is an operator built with a
    # non-finite weight, here on the circle
    def no_work(*args):
        raise AssertionError("solve started on a non-finite Jacobian")

    monkeypatch.setattr(newton, "_gmres", no_work)
    monkeypatch.setattr(newton, "_ring_preconditioner", no_work)
    from cmkit import problem

    spec, h, ev, weights = _sphere_case(2, 0.4, m_lat=m_lat)
    weights["hess22"][17] = bad
    monkeypatch.setattr(problem, "linearization_weights", lambda spec, ev: weights)
    with pytest.raises(ValueError, match="non-finite"):
        solve_linear(assemble_jacobian(spec, ev), np.ones(h.values.size))
    diag = np.ones(8)
    diag[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve_linear(_circle_operator(8, 1.0, 0.0, diag), np.ones(8))


def test_matrix_free_newton_step_builds_no_matrix(monkeypatch, g1):
    # Newton solves on the circle, on 8x16 and on a tilted 16x32 grid
    # build no operator matrix, no dense Jacobian and no sparse matrix:
    # the preconditioner is factored in numpy
    from scipy.sparse import _base

    built = []
    init = _base._spbase.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def no_matrices(self):
        raise AssertionError("operator_matrices called")

    def no_dense(self):
        raise AssertionError("dense Jacobian formed")

    monkeypatch.setattr(_base._spbase, "__init__", spy)
    monkeypatch.setattr(type(g1), "operator_matrices", no_matrices)
    monkeypatch.setattr(LinearizedOperator, "toarray", no_dense)
    u = g1.coords[:, 0]
    circle = ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=GridFunction(g1, 1.0 + 0.3 * u ** 2))
    cases = [(circle, GridFunction(g1, 1.0 + 0.05 * u ** 2))]
    for m_lat in (8, 16):
        spec, h, _, _ = _sphere_case(2, 0.4, m_lat=m_lat)
        cases.append((spec, h))
    for spec, h in cases:
        res = newton_solve(spec, h, 0.5)
        assert res.converged and res.iterations >= 1 and res.krylov_iterations >= 1
    assert not built


def test_tilted_path_never_forms_dense_rows(monkeypatch):
    # the scale comes from the ring means of the weights and the frame
    # taps alone: a tilted 16x32 continuation forms no dense Jacobian row
    from cmkit.continuation import continue_path

    formed, scaled = [], []
    taps = newton.ring_taps
    monkeypatch.setattr(LinearizedOperator, "_ring_rows", lambda self: formed.append(self))
    monkeypatch.setattr(newton, "ring_taps",
                        lambda grid, weights: scaled.append(grid) or taps(grid, weights))
    spec, _, _, _ = _sphere_case(2, 0.4, m_lat=16)
    tr = continue_path(spec)
    assert tr.success and scaled and not formed


# ---------------------------------------------------------------------------
# the preconditioner held across Newton steps
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch):
    """Spy on _ring_preconditioner; returns the list its builds go to."""
    builds = []
    build = newton._ring_preconditioner

    def spy(blocks, scale):
        builds.append(blocks.shape)
        return build(blocks, scale)

    monkeypatch.setattr(newton, "_ring_preconditioner", spy)
    return builds


def _build_every_step(monkeypatch):
    """The reference: every Newton step builds its own preconditioner."""
    solve = newton.solve_linear

    def unheld(J, rhs, eta=0.0, state=None):
        state.pop("precond", None)
        return solve(J, rhs, eta, state)

    monkeypatch.setattr(newton, "solve_linear", unheld)


def _relative_gap(a, b):
    return np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))


@pytest.mark.parametrize("tilt,m_lat", [(0.0, 32), (0.4, 16)], ids=["polar-32x64", "tilted-16x32"])
def test_one_preconditioner_build_per_newton_solve(monkeypatch, tilt, m_lat):
    # k = 2 continuation paths: each corrector builds P once, at its first
    # Newton step, and the path takes the steps and Newton iterations of a
    # build per Newton step, to a solution within 1e-11
    from cmkit import continuation

    spec, _, _, _ = _sphere_case(2, tilt, m_lat=m_lat)
    builds = _count_builds(monkeypatch)
    calls = []
    solve = continuation.newton_solve

    def spy(spec, h, t, **kwargs):
        before = len(builds)
        res = solve(spec, h, t, **kwargs)
        calls.append((res.iterations, len(builds) - before, res.preconditioner_builds))
        return res

    monkeypatch.setattr(continuation, "newton_solve", spy)
    held = continuation.continue_path(spec)
    assert held.success and len(calls) == len(held.steps) - 1
    assert all(its > 0 and built == counted == 1 for its, built, counted in calls)
    assert [row["preconditioner_builds"] for row in held.steps[1:]] == [1] * len(calls)
    calls.clear()
    _build_every_step(monkeypatch)
    ref = continuation.continue_path(spec)
    assert ref.success
    assert all(built == counted == its for its, built, counted in calls)
    assert [(row["t"], row["newton_iterations"]) for row in held.steps] \
        == [(row["t"], row["newton_iterations"]) for row in ref.steps]
    assert _relative_gap(held.h, ref.h) <= 1e-11


@pytest.mark.parametrize("tilt,m_lat", [(0.0, 32), (0.4, 16)], ids=["polar-32x64", "tilted-16x32"])
def test_path_steps_stop_at_sqrt_tol_and_the_last_at_tol(monkeypatch, tilt, m_lat):
    # k = 2 continuation paths: the steps before t = 1 stop at
    # sqrt(tol_newton), the last at tol_newton.  Against a path that
    # solves every step to tol_newton they take fewer Newton iterations
    # and land on the same solution
    from cmkit import continuation

    spec, _, _, _ = _sphere_case(2, tilt, m_lat=m_lat)
    trace = continuation.continue_path(spec)
    assert trace.success and trace.steps[-1]["t"] == 1.0
    assert all(row["residual"] <= math.sqrt(spec.tol_newton) for row in trace.steps[:-1])
    assert trace.steps[-1]["residual"] <= spec.tol_newton
    solve = continuation.newton_solve

    def every_step_to_tol(spec, h, t, tol=None):
        return solve(spec, h, t)

    monkeypatch.setattr(continuation, "newton_solve", every_step_to_tol)
    ref = continuation.continue_path(spec)
    assert ref.success
    assert all(row["residual"] <= spec.tol_newton for row in ref.steps)
    assert _path_work(trace)[0] < _path_work(ref)[0]
    assert _relative_gap(trace.h, ref.h) <= 1e-9


def test_stale_preconditioner_miss_rebuilds_once_and_the_step_is_accepted(monkeypatch):
    # polar 32x64, k = 2: a fresh P is J^-1 and meets any target in one
    # GMRES iteration, while the P held from an earlier iterate misses the
    # tighter targets near the solution.  With one iteration allowed,
    # every miss is followed by exactly one rebuild and the step goes on:
    # the Newton iterations and the solution are those of a build per step
    spec, h, _, _ = _sphere_case(2, 0.0)
    monkeypatch.setattr(newton, "KRYLOV_MAX_ITER", 1)
    builds = _count_builds(monkeypatch)
    misses = []
    gmres = newton._gmres

    def spy(*args):
        try:
            return gmres(*args)
        except SingularJacobianError:
            misses.append(len(builds))
            raise

    monkeypatch.setattr(newton, "_gmres", spy)
    res = newton_solve(spec, h, 0.5)
    assert res.converged and misses
    # the i-th miss comes with i builds behind it: each one a held P's
    assert misses == list(range(1, len(misses) + 1))
    assert len(builds) == res.preconditioner_builds == 1 + len(misses) <= res.iterations
    assert res.krylov_iterations == res.iterations + len(misses)
    misses.clear()
    _build_every_step(monkeypatch)
    ref = newton_solve(spec, h, 0.5)
    assert not misses and ref.iterations == res.iterations
    assert _relative_gap(res.h, ref.h) <= 1e-11


@pytest.mark.parametrize("failure", ["gmres-miss", "backward-error"])
def test_solve_linear_rebuilds_a_held_preconditioner_that_fails(monkeypatch, failure):
    # tilted 32x64: the held P misses its target (here it preconditions
    # nothing, so KRYLOV_MAX_ITER iterations fall short), or its GMRES
    # answer fails the backward-error check.  solve_linear builds P from
    # blocks, holds it and returns the fresh solve's step; both attempts'
    # GMRES iterations are counted
    J, blocks = _sphere_jacobian(2, 1.0, 2.0)
    rhs = np.sin(np.arange(J.shape[0]))
    fresh = {}
    x = solve_linear(J, rhs, 1e-8, fresh)
    assert fresh["preconditioner_builds"] == 1
    if failure == "gmres-miss":
        stale, wasted = (lambda v: v), newton.KRYLOV_MAX_ITER
    else:
        stale, wasted = newton._ring_preconditioner(blocks, _ring_scale(J)), 1
        gmres = newton._gmres
        answers = iter([lambda *args: (0.5 * gmres(*args)[0], 1), gmres])
        monkeypatch.setattr(newton, "_gmres", lambda *args: next(answers)(*args))
    builds = _count_builds(monkeypatch)
    state = {"precond": stale}
    assert np.array_equal(solve_linear(J, rhs, 1e-8, state), x)
    assert len(builds) == 1 and state["precond"] is not stale
    assert (state["krylov_iterations"], state["preconditioner_builds"]) \
        == (wasted + fresh["krylov_iterations"], 1)


def test_solve_linear_held_preconditioner_is_reused_and_only_a_fresh_one_raises(monkeypatch):
    # a held P that meets the target is used as it is; when a rebuilt P
    # misses too, the step is declined, after one build
    J, _ = _sphere_jacobian(2, 1.0, 2.0)
    rhs = np.sin(np.arange(J.shape[0]))
    state = {}
    x = solve_linear(J, rhs, state=state)
    precond, spent = state["precond"], state["krylov_iterations"]
    builds = _count_builds(monkeypatch)
    assert np.array_equal(solve_linear(J, rhs, state=state), x)
    assert not builds and state["precond"] is precond
    assert (state["krylov_iterations"], state["preconditioner_builds"]) == (2 * spent, 1)
    monkeypatch.setattr(newton, "KRYLOV_MAX_ITER", 1)
    with pytest.raises(SingularJacobianError, match="GMRES missed"):
        solve_linear(J, rhs, state=state)
    assert len(builds) == 1
    assert (state["krylov_iterations"], state["preconditioner_builds"]) == (2 * spent + 2, 2)


# ---------------------------------------------------------------------------
# newton_solve
# ---------------------------------------------------------------------------

def test_zero_iterations_at_exact_solution(g2):
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 2.0))
    res = newton_solve(spec, constant_function(g2, 1.0), 0.0)
    assert res.converged
    assert res.iterations == 0
    assert res.final_linf == 0.0


def test_converges_to_unit_sphere_with_quadratic_tail(monkeypatch, g2):
    # the right side of each Newton step is minus the residual there
    rs = []
    solve = newton.solve_linear
    monkeypatch.setattr(newton, "solve_linear", lambda J, rhs, eta, state:
                        rs.append(np.max(np.abs(rhs))) or solve(J, rhs, eta, state))
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 2.0))
    res = newton_solve(spec, constant_function(g2, 1.1), 0.0)
    assert res.converged
    assert np.max(np.abs(res.h.values - 1.0)) < 1e-10
    # quadratic tail: last two residual ratios at most 1e-2
    rs.append(res.final_linf)
    assert rs[-1] <= 1e-2 * rs[-2]
    if len(rs) >= 3:
        assert rs[-2] <= 1e-2 * rs[-3]


def test_constant_family_local_convergence(g1, g2):
    # from within 5 percent of the constant solution: at most 8 iterations
    for g, n, k, p, q, c in [(g2, 2, 2, 1.5, 2.5, 1.7), (g1, 1, 1, 2.0, 2.5, 0.8)]:
        spec = ProblemSpec(n=n, k=k, p=p, q=q, f=constant_function(g, c))
        r_star = (c / math.comb(n, k)) ** (1.0 / (q - p))
        res = newton_solve(spec, constant_function(g, 1.05 * r_star), 1.0)
        assert res.converged
        assert res.iterations <= 8
        assert np.max(np.abs(res.h.values - r_star)) < 1e-8 * r_star


def test_output_invariants(g2):
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=constant_function(g2, 1.4))
    res = newton_solve(spec, constant_function(g2, 1.1), 1.0)
    assert res.converged
    assert res.final_linf <= spec.tol_newton
    assert np.all(res.h.values > 0)
    assert np.min(evaluate(spec, res.h, 1.0).margin) > 0
    # evenness is exact, not approximate
    assert odd_defect(res.h) == 0.0


def test_preconditions(g2):
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 2.0))
    bad = constant_function(g2, 1.0)
    bad.values[7] = bad.values[g2.antipodal_perm[7]] = -0.1
    with pytest.raises(DomainError):
        newton_solve(spec, bad, 0.0)
    # non-admissible start: deep even dent leaves Gamma_2; the result says
    # where and by how much, and carries the start's evaluation
    spec2 = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=constant_function(g2, 1.0))
    z = g2.coords[:, 2]
    dent = GridFunction(g2, 1.0 - 0.9 * z ** 2)
    ev = evaluate(spec2, dent, 0.0)
    i = int(np.argmin(ev.margin))
    assert ev.margin[i] <= 0
    res = newton_solve(spec2, dent, 0.0)
    assert not res.converged and res.iterations == 0
    assert res.message == (f"initial iterate is not k-admissible "
                           f"(margin {ev.margin[i]:.3e} at node {i})")
    assert np.array_equal(res.ev.h.values, dent.values)
    assert np.array_equal(res.ev.margin, ev.margin) and res.ev.linf == ev.linf
    # odd start rejected
    odd = GridFunction(g2, 1.0 + 0.1 * g2.coords[:, 0])
    with pytest.raises(ValueError):
        newton_solve(spec, odd, 0.0)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_newton_solve_target_defaults_to_tol_newton(monkeypatch, t):
    # without tol the iteration is bitwise the one with tol = tol_newton,
    # in its stopping test and in its forcing terms; a looser tol is the
    # target of both, and the iteration stops above tol_newton
    spec, h, _, _ = _sphere_case(2, 0.4, m_lat=16)
    targets = []
    forcing = newton._forcing_term

    def spy(linf, linf_prev, tol):
        targets.append(tol)
        return forcing(linf, linf_prev, tol)

    monkeypatch.setattr(newton, "_forcing_term", spy)
    res, ref = newton_solve(spec, h, t), newton_solve(spec, h, t, tol=spec.tol_newton)
    assert set(targets) == {spec.tol_newton}
    assert res.converged and res.final_linf <= spec.tol_newton
    assert np.array_equal(res.h.values, ref.h.values)
    assert (res.iterations, res.final_linf, res.krylov_iterations,
            res.preconditioner_builds, res.message) \
        == (ref.iterations, ref.final_linf, ref.krylov_iterations,
            ref.preconditioner_builds, ref.message)
    targets.clear()
    tol = math.sqrt(spec.tol_newton)
    loose = newton_solve(spec, h, t, tol=tol)
    assert set(targets) == {tol}
    assert loose.converged and spec.tol_newton < loose.final_linf <= tol
    assert loose.iterations <= res.iterations


def test_nonconvergence_reports_honestly(g2):
    # cap the iterations so a far start cannot finish; result must say so
    f = constant_function(g2, 3.0)
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=f, max_newton=1)
    res = newton_solve(spec, constant_function(g2, 4.0), 1.0)
    assert not res.converged
    assert res.final_linf > spec.tol_newton
    assert res.message != ""


def test_each_exit_gives_its_converged_iterations_and_message(monkeypatch, g2):
    # the stopping test, the iteration cap and a failed line search, each
    # as (converged, iterations, message)
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 3.0))
    res = newton_solve(spec, constant_function(g2, 1.0), 0.0)
    assert (res.converged, res.iterations, res.message) == (True, 0, "")

    capped = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 3.0), max_newton=1)
    res = newton_solve(capped, constant_function(g2, 4.0), 1.0)
    assert (res.converged, res.iterations, res.message) == (
        False, 1, f"no convergence to 1e-10 in 1 iterations (residual {res.final_linf:.3e})")

    # a zero step leaves the residual where it is for every alpha
    monkeypatch.setattr(newton, "solve_linear", lambda J, rhs, eta, state: np.zeros_like(rhs))
    res = newton_solve(spec, constant_function(g2, 4.0), 1.0)
    assert res.final_linf > 0.0
    assert (res.converged, res.iterations, res.message) == (
        False, 0, f"line search failed at alpha < 1e-06 "
                  f"(residual stuck at {res.final_linf:.3e}, target 1e-10)")


def test_one_hessian_field_per_line_search_candidate(monkeypatch):
    # each iterate is evaluated once: one hessian_field and one pass of the
    # elementary symmetric functions for the start iterate and for each
    # positive line-search candidate.  The margin check, the residual, the
    # Jacobian and the result all read that Evaluation; no Gamma_k check
    # runs apart from it, and the Newton step evaluates nothing
    from cmkit import problem

    g = build_grid(2, m_lat=16, m_lon=32)
    u = g.coords @ np.array([math.sin(0.4), 0.0, math.cos(0.4)])
    f = GridFunction(g, (1.0 + 2.0 * u ** 2) ** (-2.5))
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=f)
    counts = {"fields": 0, "in_step": 0, "evaluable": 0, "passes": 0}
    stepping = []

    def pass_spy(lam, k):
        counts["passes"] += 1
        counts["in_step"] += bool(stepping)
        return prefix_sigmas(lam, k)

    def field_spy(h):
        counts["fields"] += 1
        counts["in_step"] += bool(stepping)
        return hessian_field(h)

    def project_spy(h):
        out = even_project(h)
        counts["evaluable"] += bool(np.all(out.values > 0))
        return out

    def stepping_spy(fn):
        def spy(*args):
            stepping.append(True)
            try:
                return fn(*args)
            finally:
                stepping.pop()
        return spy

    def no_margin(lam, k):
        raise AssertionError("a second Gamma_k pass")

    even_project, prefix_sigmas = newton.even_project, problem._prefix_sigmas
    monkeypatch.setattr(problem, "_prefix_sigmas", pass_spy)
    monkeypatch.setattr(problem, "in_gamma_k", no_margin)
    monkeypatch.setattr(problem, "hessian_field", field_spy)
    monkeypatch.setattr(newton, "even_project", project_spy)
    monkeypatch.setattr(newton, "assemble_jacobian", stepping_spy(newton.assemble_jacobian))
    monkeypatch.setattr(newton, "solve_linear", stepping_spy(newton.solve_linear))
    res = newton_solve(spec, constant_function(g, 1.0), 0.6)
    assert res.converged and res.iterations >= 3
    assert counts["in_step"] == 0
    assert counts["fields"] == counts["evaluable"] == counts["passes"] == res.iterations + 1
    assert res.min_b_eig == float(np.min(hessian_field(res.h).lam[:, 0]))
    # a decrease no step can meet: every halving is a rejected candidate
    counts.update(fields=0, evaluable=0, passes=0)
    monkeypatch.setattr(newton, "DECREASE_SLOPE", 1.5)
    res = newton_solve(spec, constant_function(g, 1.0), 0.6)
    assert not res.converged and res.iterations == 0
    assert counts["fields"] == counts["evaluable"] == counts["passes"] > 10
