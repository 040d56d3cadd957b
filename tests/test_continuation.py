"""Continuation path tests."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit import GridFunction, build_grid
from cmkit.continuation import TRACE_KEYS, _follow_path, continue_path, predictor
from cmkit.errors import DomainError
from cmkit.problem import ProblemSpec, evaluate, homotopy_f
from cmkit.sphere import RING_LON, constant_function, hessian_field, odd_defect


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
    h = predictor([(0.3, h2), (0.3, h2)], 0.5)
    assert np.array_equal(h.values, h2.values)
    # collinear data: exact extrapolation
    h = predictor([(0.0, h1), (0.1, h2)], 0.2)
    assert_allclose(h.values, 1.4, rtol=1e-12)
    # positivity clamp: falls back to previous h
    h3 = constant_function(g1, 0.01)
    h = predictor([(0.0, h2), (0.1, h3)], 0.3)
    assert np.array_equal(h.values, h3.values)


def test_predictor_keeps_corrector_iterates_exactly_even(monkeypatch):
    # the corrector's iterates are bitwise even and node-wise extrapolation
    # keeps them so: every prediction of a tilted 16x32 path
    from cmkit import continuation

    g = build_grid(2, m_lat=16, m_lon=32)
    k, p = 2, 1.5
    f = axis_data(g, k, p, axis=(math.sin(0.4), 0.0, math.cos(0.4)))
    predicted = []

    def spy(prev, t_next):
        h = predictor(prev, t_next)
        predicted.append((prev[0][0] != prev[1][0], odd_defect(h)))
        return h
    monkeypatch.setattr(continuation, "predictor", spy)
    assert continue_path(ProblemSpec(n=2, k=k, p=p, q=2.5, f=f)).success
    # the extrapolating steps, not just the fallbacks to the last h
    assert sum(extrapolated for extrapolated, _ in predicted) >= 3
    assert all(defect == 0.0 for _, defect in predicted)


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
    # once, at h = 1, for the t = 0 row and the one-step shortcut
    from cmkit import continuation, newton, problem

    accepted = []

    def spy(spec, h0, t, **kwargs):
        res = newton_solve(spec, h0, t, **kwargs)
        accepted.append(res.h)
        return res

    def evaluate_spy(spec, h, t):
        calls.append((h.values.copy(), t))
        return problem.evaluate(spec, h, t)

    calls = []
    newton_solve = newton.newton_solve
    monkeypatch.setattr(continuation, "newton_solve", spy)
    monkeypatch.setattr(continuation, "evaluate", evaluate_spy)
    tr = continue_path(ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=even_data(g2, 5)))
    assert tr.success and len(calls) == 1
    assert np.all(calls[0][0] == 1.0) and calls[0][1] == 0.0
    assert tr.steps[0]["min_b_eig"] == 1.0
    assert len(accepted) == len(tr.steps) - 1  # no rejected attempt here
    for row, h in zip(tr.steps[1:], accepted):
        assert row["min_b_eig"] == float(np.min(hessian_field(h).lam[:, 0]))


def test_fixed_point_path_is_one_step_of_the_loop(monkeypatch, g2):
    # f = binom(n, k): h = 1 solves the target, so the loop's first step
    # has dt = 1: one hessian_field for the t = 0 row, one for the
    # corrector's start at t = 1 with target tol_newton, and no f1 check
    from cmkit import continuation, problem

    fields, solves = [], []
    hessian_field, newton_solve = problem.hessian_field, continuation.newton_solve

    def field_spy(h):
        fields.append(h)
        return hessian_field(h)

    def solve_spy(spec, h0, t, tol=None):
        solves.append((t, tol))
        return newton_solve(spec, h0, t, tol=tol)

    monkeypatch.setattr(problem, "hessian_field", field_spy)
    monkeypatch.setattr(continuation, "newton_solve", solve_spy)
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, math.comb(2, 1)))
    tr = continue_path(spec)
    assert tr.success and [row["t"] for row in tr.steps] == [0.0, 1.0]
    assert len(fields) == 2
    assert solves == [(1.0, spec.tol_newton)]


def test_path_with_rejected_steps_runs_no_f1_check(monkeypatch):
    # the f1 check is a report item: the path never runs it, also when it
    # rejects and retries steps (the circle path of
    # test_success_after_rejected_step_has_no_error_message)
    from cmkit import continuation, problem

    checks, rejected = [], []
    newton_solve, validate_f1 = continuation.newton_solve, problem.validate_f1

    def solve_spy(*args, **kwargs):
        res = newton_solve(*args, **kwargs)
        if not res.converged:
            rejected.append(args[2])
        return res

    def f1_spy(spec):
        checks.append(spec)
        return validate_f1(spec)

    monkeypatch.setattr(continuation, "newton_solve", solve_spy)
    monkeypatch.setattr(continuation, "validate_f1", f1_spy, raising=False)
    monkeypatch.setattr(problem, "validate_f1", f1_spy)
    g = build_grid(1, m_theta=32)
    u = g.coords[:, 1]
    k, p = 1, 1.5
    spec = ProblemSpec(n=1, k=k, p=p, q=1.8,
                       f=GridFunction(g, (1 + 2.0 * u ** 2) ** (-(k + p - 1))))
    tr = continue_path(spec)
    assert tr.success and rejected
    assert checks == []


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
    # on this circle path the corrector fails once, at t = 0.25 (the
    # predicted iterate leaves Gamma_1); the retry with half the step
    # succeeds
    from cmkit import continuation

    errors = []
    newton_solve = continuation.newton_solve

    def recording(*args, **kwargs):
        res = newton_solve(*args, **kwargs)
        if not res.converged:
            errors.append((args[2], res.message))
        return res

    monkeypatch.setattr(continuation, "newton_solve", recording)
    g = build_grid(1, m_theta=32)
    u = g.coords[:, 1]
    k, p = 1, 1.5
    spec = ProblemSpec(n=1, k=k, p=p, q=1.8,
                       f=GridFunction(g, (1 + 2.0 * u ** 2) ** (-(k + p - 1))))
    tr = continue_path(spec)
    assert [t for t, _ in errors] == [0.25]
    assert errors[0][1].startswith("initial iterate is not k-admissible (margin ")
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


def test_declined_circle_point_ends_in_step_size_underflow_with_the_pivot():
    # the config's circle point k = 1, p = 1.5, q = 2.5 with a = 0.5 on its
    # default axis: each declined step is an unconverged corrector result,
    # so the path ends as any failed path does, with the last one's reason
    g = build_grid(1, m_theta=256)
    u = g.coords[:, 1]
    spec = ProblemSpec(n=1, k=1, p=1.5, q=2.5, f=GridFunction(g, (1.0 + 0.5 * u ** 2) ** -1.5))
    tr = continue_path(spec)
    assert not tr.success and len(tr.steps) == 1
    assert re.match(r"^step size underflow at t=\S+: ring preconditioner pivot not above",
                    tr.message)


# ---------------------------------------------------------------------------
# ring-constant data on the ring grid
# ---------------------------------------------------------------------------

def axis_data(g, k, p, axis=(0.0, 0.0, 1.0), a=0.5):
    """The quadratic family (1 + a <x, axis>^2)^-(k+p-1) of the config."""
    return GridFunction(g, (1.0 + a * (g.coords @ np.asarray(axis)) ** 2) ** -(k + p - 1))


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("k, q", [(1, 2.0), (2, 2.5)])
@pytest.mark.parametrize("m_lat, m_lon", [(9, 16), (32, 64), (33, 64)])
def test_ring_constant_data_are_solved_on_the_ring_grid(m_lat, m_lon, k, q, a):
    # polar data: the loop runs on m_lat x 8 and its h, broadcast along
    # the rings, is the full grid's answer.  Both solves stop at
    # tol_newton, so they agree to that tolerance, not bitwise
    g = build_grid(2, m_lat=m_lat, m_lon=m_lon)
    spec = ProblemSpec(n=2, k=k, p=1.5, q=q, f=axis_data(g, k, 1.5, a=a))
    reduced, full = continue_path(spec), _follow_path(spec)
    assert reduced.success and full.success
    assert reduced.solve_grid == (m_lat, RING_LON) and full.solve_grid == (m_lat, m_lon)
    assert [row["t"] for row in reduced.steps] == [row["t"] for row in full.steps]
    assert [row["newton_iterations"] for row in reduced.steps] == \
        [row["newton_iterations"] for row in full.steps]
    assert np.max(np.abs(reduced.h.values - full.h.values)) <= 1e-11
    assert reduced.h.grid is g
    # the full grid's residual of the broadcast h is the ring grid's,
    # broadcast, bitwise; so the last trace row is the full grid's too
    thin = g.ring_grid()
    thin_spec = ProblemSpec(n=2, k=k, p=1.5, q=q, f=GridFunction(thin, spec.f.field[:, :RING_LON]))
    thin_res = evaluate(thin_spec, GridFunction(thin, reduced.h.field[:, :RING_LON]), 1.0)
    ev = evaluate(spec, reduced.h, 1.0)
    assert np.array_equal(ev.residual.field,
                          np.broadcast_to(thin_res.residual.field[:, :1], g.shape))
    assert ev.linf == reduced.steps[-1]["residual"] <= spec.tol_newton


def one_ulp_off(g, k, p):
    f = axis_data(g, k, p)
    vals = f.values.copy()
    vals[3 * g.m_lon + 5] *= 1.0 + 2.0 ** -52
    assert vals[3 * g.m_lon + 5] != f.values[3 * g.m_lon + 5]
    return GridFunction(g, vals)


@pytest.mark.parametrize("case", ["tilted", "one-ulp", "circle", "eight-longitudes"])
def test_data_not_ring_constant_take_the_loop_on_their_own_grid(case):
    k, p, q = 2, 1.5, 2.5
    if case == "circle":
        g = build_grid(1, m_theta=64)
        k, q = 1, 2.0
        f = axis_data(g, k, p, axis=(0.0, 1.0))
    elif case == "eight-longitudes":
        g = build_grid(2, m_lat=16, m_lon=8)
        f = axis_data(g, k, p)
    else:
        g = build_grid(2, m_lat=16, m_lon=32)
        f = axis_data(g, k, p, axis=(math.sin(0.4), 0.0, math.cos(0.4))) \
            if case == "tilted" else one_ulp_off(g, k, p)
    spec = ProblemSpec(n=g.n, k=k, p=p, q=q, f=f)
    tr, loop = continue_path(spec), _follow_path(spec)
    assert tr.success and tr.solve_grid == g.shape
    assert tr.steps == loop.steps
    assert np.array_equal(tr.h.values, loop.h.values)


def test_sweep_builds_the_ring_grid_once(tmp_path, monkeypatch):
    from cmkit import cli, config, sphere

    built = []
    build_grid = sphere.build_grid

    def counting(n, **kwargs):
        built.append((n, kwargs.get("m_lat"), kwargs.get("m_lon")))
        return build_grid(n, **kwargs)

    for module in (sphere, cli, config):
        monkeypatch.setattr(module, "build_grid", counting)
    path = tmp_path / "sweep.cfg"
    path.write_text("n = 2\nk = 1\np = 1.5\nq = 2.0\ngrid.m_lat = 16\n"
                    "grid.m_lon = 32\nf.kind = quadratic\nf.a = 0.5\n"
                    "sweep.p = 1.2, 1.5\nsweep.q = 1.8, 2.0\nout.dir = out\n")
    assert cli.main(["sweep", str(path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "out" / "sweep.jsonl").read_text().splitlines()]
    assert [row["solve_grid"] for row in rows] == [[16, RING_LON]] * 4
    assert sorted(built) == [(2, 16, RING_LON), (2, 16, 32)]

    # tilted data on 32x64 are sequenced from the one coarse grid
    built.clear()
    path.write_text("n = 2\nk = 1\np = 1.5\nq = 2.0\ngrid.m_lat = 32\n"
                    "grid.m_lon = 64\nf.kind = quadratic\nf.a = 0.5\n"
                    f"f.axis = {math.sin(0.4)}, 0.0, {math.cos(0.4)}\n"
                    "sweep.p = 1.2, 1.5\nsweep.q = 1.8, 2.0\nout.dir = out\n")
    assert cli.main(["sweep", str(path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "out" / "sweep.jsonl").read_text().splitlines()]
    assert [row["solve_grid"] for row in rows] == [[16, 32]] * 4
    assert [row["fallback"] for row in rows] == [""] * 4
    assert sorted(built) == [(2, 16, 32), (2, 32, 64)]


def test_isotropic_experiment_runs_its_path_on_the_ring_grid():
    from cmkit.diagnostics import isotropic_experiment

    # f = 1 is ring-constant and, for k = 1, not the t = 0 data binom(2, 1)
    g = build_grid(2, m_lat=32, m_lon=64)
    spec = ProblemSpec(n=2, k=1, p=1.2, q=2.0, f=constant_function(g, 1.0))
    out = isotropic_experiment(spec, restarts=2, seed=0)
    assert len(out["trace"].steps) > 2
    assert out["trace"].solve_grid == (32, RING_LON)
    assert out["h_final"].grid is g
    assert out["sphere_radius_error"] <= 1e-12
    # the perturbed restarts are full-grid Newton solves
    assert len(out["restart_errors"]) == 2
    assert all(e <= 1e-6 for e in out["restart_errors"])


# ---------------------------------------------------------------------------
# grid sequencing: the path on the coarse grid, one Newton solve on the grid
# ---------------------------------------------------------------------------

TILT = (math.sin(0.4), 0.0, math.cos(0.4))


@pytest.mark.parametrize("m_lat, m_lon, k, q, a", [
    (32, 64, 1, 2.0, 0.5), (32, 64, 1, 2.0, 2.0), (32, 64, 2, 2.5, 0.5), (32, 64, 2, 2.5, 2.0),
    (64, 128, 2, 2.5, 0.5)])
def test_sequenced_solve_matches_the_loop_on_the_full_grid(m_lat, m_lon, k, q, a):
    # both answers stop at tol_newton on the full grid, so they agree to
    # that tolerance, not bitwise
    g = build_grid(2, m_lat=m_lat, m_lon=m_lon)
    spec = ProblemSpec(n=2, k=k, p=1.5, q=q, f=axis_data(g, k, 1.5, axis=TILT, a=a))
    seq, full = continue_path(spec), _follow_path(spec)
    assert seq.success and full.success
    assert seq.solve_grid == (16, 32) and seq.fallback == ""
    assert seq.h.grid is g
    assert np.max(np.abs(seq.h.values - full.h.values)) <= 1e-10 * np.max(full.h.values)
    # the last row is the full grid's Newton solve; the others the coarse path's
    last = seq.steps[-1]
    assert last["t"] == 1.0 and seq.steps[-2]["t"] == 1.0
    assert last["residual"] == evaluate(spec, seq.h, 1.0).linf <= spec.tol_newton
    assert 0 < last["newton_iterations"] <= 3
    assert seq.counters()["newton_iterations"] == sum(row["newton_iterations"] for row in seq.steps)


@pytest.mark.parametrize("how", ["fine-fails", "fine-raises", "coarse-fails"])
def test_failed_sequencing_falls_back_to_the_loop_bitwise(monkeypatch, how):
    from cmkit import continuation
    from cmkit.newton import NewtonResult

    g = build_grid(2, m_lat=32, m_lon=64)
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=axis_data(g, 2, 1.5, axis=TILT))
    loop = _follow_path(spec)
    fine_calls = []
    newton_solve = continuation.newton_solve

    def failing(sp, h0, t, tol=None):
        # every coarse solve, or the first full-grid one: sequencing's
        if how == "coarse-fails" and sp.grid is not g:
            return NewtonResult(h=h0, converged=False, iterations=0, final_linf=1.0,
                                min_b_eig=0.0, message="forced")
        if sp.grid is g:
            fine_calls.append(t)
            if len(fine_calls) == 1 and how == "fine-raises":
                raise DomainError("forced")
            if len(fine_calls) == 1 and how == "fine-fails":
                res = newton_solve(sp, h0, t, tol=tol)
                return dataclasses.replace(res, converged=False, message="forced")
        return newton_solve(sp, h0, t, tol=tol)

    monkeypatch.setattr(continuation, "newton_solve", failing)
    tr = continue_path(spec)
    if how == "coarse-fails":
        assert tr.fallback.startswith("coarse path on 16x32 failed: step size underflow")
    else:
        assert tr.fallback == "Newton solve at t=1 on 32x64 failed: forced"
    assert tr.success and tr.message == "" and tr.solve_grid == (32, 64)
    assert tr.steps == loop.steps
    assert np.array_equal(tr.h.values, loop.h.values)


def test_inadmissible_interpolated_start_falls_back_naming_node_and_margin(monkeypatch):
    # the coarse path succeeds, but the start it hands the 32x64 solve
    # leaves Gamma_2: the fine solve returns at its start, and the fallback
    # says where and by how much
    from cmkit import continuation

    g = build_grid(2, m_lat=32, m_lon=64)
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=axis_data(g, 2, 1.5, axis=TILT))
    dent = GridFunction(g, 1.0 - 0.9 * g.coords[:, 2] ** 2)
    interp = continuation.interpolate

    def dented(gf, grid):
        return dent if grid is g else interp(gf, grid)

    monkeypatch.setattr(continuation, "interpolate", dented)
    tr = continue_path(spec)
    margin = evaluate(spec, dent, 1.0).margin
    i = int(np.argmin(margin))
    assert margin[i] <= 0
    assert tr.fallback == ("Newton solve at t=1 on 32x64 failed: initial iterate is not "
                           f"k-admissible (margin {margin[i]:.3e} at node {i})")
    assert tr.success and tr.message == "" and tr.solve_grid == (32, 64)
    assert tr.steps[-1]["t"] == 1.0 and tr.steps[-1]["residual"] <= spec.tol_newton


@pytest.mark.parametrize("m_lat, m_lon", [(33, 66), (32, 8)])
def test_grids_with_no_coarse_grid_are_not_sequenced(m_lat, m_lon):
    g = build_grid(2, m_lat=m_lat, m_lon=m_lon)
    assert g.coarse_grid() is None
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=axis_data(g, 2, 1.5, axis=TILT))
    tr, loop = continue_path(spec), _follow_path(spec)
    assert tr.success and tr.solve_grid == g.shape and tr.fallback == ""
    assert tr.steps == loop.steps
    assert np.array_equal(tr.h.values, loop.h.values)
