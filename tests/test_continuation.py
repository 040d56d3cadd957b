"""Continuation path tests."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit import GridFunction, build_grid
from cmkit.continuation import TRACE_KEYS, continue_path, predictor
from cmkit.problem import ProblemSpec, homotopy_f
from cmkit.sphere import constant_function, hessian_field, odd_defect


@pytest.fixture(scope="module")
def g2():
    return build_grid(2, m_lat=16, m_lon=32)


@pytest.fixture(scope="module")
def g1():
    return build_grid(1, m_theta=64)


def even_data(g, seed, base=2.0, amp=0.3):
    rng = np.random.default_rng(seed)
    if g.n == 1:
        th = g.thetas
        c = rng.standard_normal(2)
        vals = base + amp * (c[0] * np.cos(2 * th) + c[1] * np.sin(2 * th))
    else:
        x, y, z = g.coords.T
        c = rng.standard_normal(3)
        vals = base + amp * (c[0] * z ** 2 + c[1] * x * y + c[2] * (x ** 2 - y ** 2))
    f = GridFunction(g, vals)
    return GridFunction(g, 0.5 * (f.values + f.values[g.antipodal_perm]))


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------

def test_predictor_trivial_and_collinear(g1):
    h1 = constant_function(g1, 1.0)
    h2 = constant_function(g1, 1.2)
    # equal pair: previous h
    h, clamped = predictor([(0.3, h2), (0.3, h2)], 0.5)
    assert np.array_equal(h.values, h2.values) and not clamped
    # collinear data: exact extrapolation
    h, clamped = predictor([(0.0, h1), (0.1, h2)], 0.2)
    assert_allclose(h.values, 1.4, rtol=1e-12)
    assert not clamped
    # positivity clamp: falls back to previous h
    h3 = constant_function(g1, 0.01)
    h, clamped = predictor([(0.0, h2), (0.1, h3)], 0.3)
    assert clamped
    assert np.array_equal(h.values, h3.values)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_fixed_point_data_single_step(g2):
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0,
                       f=constant_function(g2, math.comb(2, 1)))
    tr = continue_path(spec)
    assert tr.success
    # one step t: 0 -> 1
    assert len(tr.steps) == 2
    assert tr.steps[0]["t"] == 0.0 and tr.steps[1]["t"] == 1.0
    assert tr.steps[1]["residual"] <= 1e-12
    assert np.all(tr.h.values == 1.0)


def test_constant_data_radius(g1, g2):
    for g, n, k, p, q in [(g2, 2, 1, 1.5, 2.0), (g1, 1, 1, 2.0, 2.5)]:
        c = 1.6
        spec = ProblemSpec(n=n, k=k, p=p, q=q, f=constant_function(g, c))
        tr = continue_path(spec)
        assert tr.success
        r_star = (c / math.comb(n, k)) ** (1.0 / (q - p))
        assert np.max(np.abs(tr.h.values - r_star)) < 1e-8 * r_star


def test_trace_invariants_and_bounds(g2):
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=even_data(g2, 3))
    tr = continue_path(spec)
    assert tr.success
    ts = [row["t"] for row in tr.steps]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    for row in tr.steps:
        assert row["min_b_eig"] > 0
        assert row["ratio"] >= 1.0
    # final residual meets the Newton tolerance against the target data
    assert tr.steps[-1]["residual"] <= spec.tol_newton
    # evenness of the final solution is exact
    assert odd_defect(tr.h) == 0.0
    # radius bounds from the constant-solution algebra (q > p): the body
    # cannot be smaller everywhere than the smallest constant solution nor
    # larger everywhere than the largest
    fmax = float(np.max(spec.f.values))
    fmin = float(np.min(spec.f.values))
    binom = spec.binom_nk
    e = 1.0 / (spec.q - spec.p)
    last = tr.steps[-1]
    assert last["r"] <= (fmax / binom) ** e + 1e-6
    assert last["R"] >= (fmin / binom) ** e - 1e-6


def test_trace_rows_take_min_b_eig_from_the_newton_field(monkeypatch, g2):
    # the rows carry the smallest eigenvalue of b at each accepted h, taken
    # from the corrector's last evaluation; the path itself evaluates b
    # only at h = 1
    from cmkit import continuation, newton

    accepted = []

    def spy(spec, h0, t, **kwargs):
        res = newton_solve(spec, h0, t, **kwargs)
        accepted.append(res.h)
        return res

    def field_spy(h):
        calls.append(h)
        return hessian_field(h)

    calls = []
    newton_solve = newton.newton_solve
    monkeypatch.setattr(continuation, "newton_solve", spy)
    monkeypatch.setattr(continuation, "hessian_field", field_spy)
    tr = continue_path(ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=even_data(g2, 5)))
    assert tr.success and len(calls) == 1
    assert tr.steps[0]["min_b_eig"] == 1.0
    assert len(accepted) == len(tr.steps) - 1  # no rejected attempt here
    for row, h in zip(tr.steps[1:], accepted):
        assert row["min_b_eig"] == float(np.min(hessian_field(h).lam[:, 0]))


def test_f1_report_recorded(g2):
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 2.0))
    tr = continue_path(spec)
    assert tr.f1_report is not None and tr.f1_report["satisfied"]


def test_jsonl_serialization(tmp_path, g1):
    spec = ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=even_data(g1, 5, base=1.5))
    tr = continue_path(spec)
    assert tr.success
    p = tmp_path / "trace.jsonl"
    tr.to_jsonl(p)
    rows = [json.loads(line) for line in p.read_text().splitlines()]
    assert len(rows) == len(tr.steps)
    for row in rows:
        assert set(row) == set(TRACE_KEYS)
    assert rows[-1]["t"] == 1.0


def test_abort_returns_partial_trace(g2):
    # corrector capped at one iteration and dt floor right under dt0: the
    # path cannot advance and must abort with the partial trace
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=even_data(g2, 7, amp=0.6),
                       max_newton=1, dt0=0.5, dt_min=0.3)
    tr = continue_path(spec)
    assert not tr.success
    assert "underflow" in tr.message
    assert len(tr.steps) == 1 and tr.steps[0]["t"] == 0.0
    # last good h is preserved for post-mortem
    assert np.all(tr.h.values == 1.0)


def test_success_after_rejected_step_has_no_error_message(monkeypatch):
    # on this circle path the corrector raises once, at t = 0.25 (the
    # predicted iterate leaves Gamma_1); the retry with half the step
    # succeeds
    from cmkit import continuation

    errors = []
    newton_solve = continuation.newton_solve

    def recording(*args, **kwargs):
        try:
            return newton_solve(*args, **kwargs)
        except Exception as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(continuation, "newton_solve", recording)
    g = build_grid(1, m_theta=32)
    u = g.coords[:, 1]
    k, p = 1, 1.5
    spec = ProblemSpec(n=1, k=k, p=p, q=1.8,
                       f=GridFunction(g, (1 + 2.0 * u ** 2) ** (-(k + p - 1))))
    tr = continue_path(spec)
    assert errors
    assert tr.success
    assert tr.message == ""


def test_path_through_varying_data_records_monotone_t(g1):
    spec = ProblemSpec(n=1, k=1, p=1.8, q=2.4, f=even_data(g1, 11, base=1.2))
    tr = continue_path(spec)
    assert tr.success
    assert tr.wall_time > 0
    # homotopy endpoints consistent with the recorded path
    f1 = homotopy_f(spec, 1.0)
    assert np.array_equal(f1.values, spec.f.values)


def test_declined_circle_point_fails_the_pivot_check_of_every_build(monkeypatch):
    # k = 1, q = p + 1 on the circle: every corrector builds its
    # preconditioner at its first Newton step, and every such build runs
    # the pivot check and fails it, so each attempt is declined with
    # "pivot" and no GMRES iteration runs
    from cmkit import continuation, newton
    from cmkit.errors import SingularJacobianError

    g = build_grid(1, m_theta=256)
    u = g.coords[:, 0]
    spec = ProblemSpec(n=1, k=1, p=1.5, q=2.5, f=GridFunction(g, (1.0 + 0.5 * u ** 2) ** -1.5))
    attempts, builds = [], []
    solve, build = continuation.newton_solve, newton._ring_preconditioner

    def solve_spy(spec, h, t, **kwargs):
        attempts.append(t)
        return solve(spec, h, t, **kwargs)

    def build_spy(blocks, scale):
        try:
            build(blocks, scale)
        except SingularJacobianError as exc:
            builds.append(str(exc))
            raise
        builds.append(None)

    def no_gmres(*args):
        raise AssertionError("GMRES ran on the declined point")

    monkeypatch.setattr(continuation, "newton_solve", solve_spy)
    monkeypatch.setattr(newton, "_ring_preconditioner", build_spy)
    monkeypatch.setattr(newton, "_gmres", no_gmres)
    tr = continue_path(spec)
    assert not tr.success and "pivot" in tr.message
    assert len(builds) == len(attempts) > 1
    assert all(msg is not None and "pivot" in msg for msg in builds)


def test_declined_circle_point_runs_no_full_svd(monkeypatch):
    # k = 1, q = p + 1: the Jacobian at h = 1 is singular along the odd
    # translation modes, so every attempt fails its pivot check and the
    # point is declined; the near-null direction is never read, so no
    # N x N singular value decomposition runs
    g = build_grid(1, m_theta=256)
    u = g.coords[:, 0]
    spec = ProblemSpec(n=1, k=1, p=1.5, q=2.5, f=GridFunction(g, (1.0 + 0.5 * u ** 2) ** -1.5))
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    tr = continue_path(spec)
    assert not tr.success and "pivot" in tr.message
    assert (g.node_count, g.node_count) not in shapes
