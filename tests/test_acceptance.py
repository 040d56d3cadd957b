"""Acceptance suite: ten independent checks, one pass/fail line each under
pytest -v.  Criteria 8-10 audit the solutions produced by criteria 1-5, so
this module keeps a registry of every converged (spec, h, trace) triple."""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit.continuation import continue_path
from cmkit.diagnostics import (
    af_inequality_check,
    fit_equality_direction,
    isotropic_experiment,
    isotropic_q_limit,
    l0_spectrum,
    l0_top_eigenvalue_analytic,
    manufacture,
    run_diagnostics,
)
from cmkit.problem import ProblemSpec, evaluate, residual, validate_f1
from cmkit.sphere import GridFunction, build_grid, constant_function, hessian_field
from cmkit.symfunc import _prefix_sigmas, in_gamma_k, newton_maclaurin_gap

REGISTRY = []  # converged runs from criteria 1-5, audited by criteria 8-10


def register(name, spec, trace):
    REGISTRY.append({"name": name, "spec": spec, "h": trace.h, "trace": trace})


def constant_spec(n, k, p, q, c, grid=None):
    g = grid if grid is not None else (
        build_grid(1, m_theta=256) if n == 1 else build_grid(2, m_lat=32, m_lon=64))
    return ProblemSpec(n=n, k=k, p=p, q=q, f=constant_function(g, c))


# ---------------------------------------------------------------------------
# 1. round-solution exactness
# ---------------------------------------------------------------------------

def test_criterion_01_round_solution_exactness():
    spec = constant_spec(2, 1, 1.5, 2.0, c=2.0)  # f = binom(2,1)
    t0 = time.perf_counter()
    trace = continue_path(spec)
    wall = time.perf_counter() - t0
    assert trace.success
    assert len(trace.steps) - 1 <= 1
    assert np.max(np.abs(trace.h.values - 1.0)) <= 1e-12
    assert residual(spec, trace.h, 1.0).linf <= 1e-12
    assert wall < 1.0
    register("round", spec, trace)


# ---------------------------------------------------------------------------
# 2. constant-data radius
# ---------------------------------------------------------------------------

def test_criterion_02_constant_data_radius():
    cases = [(2, 1, 1.5, 2.0, 3.0), (2, 2, 1.5, 2.5, 0.8), (1, 1, 2.0, 2.5, 1.6)]
    for n, k, p, q, c in cases:
        spec = constant_spec(n, k, p, q, c)
        trace = continue_path(spec)
        assert trace.success, (n, k, p, q)
        h = trace.h.values
        assert np.max(h) - np.min(h) <= 1e-8
        r_exact = (c / math.comb(n, k)) ** (1.0 / (q - p))
        assert np.max(np.abs(h - r_exact)) <= 1e-8 * r_exact
        register(f"constant-{n}{k}", spec, trace)


# ---------------------------------------------------------------------------
# 3. manufactured-solution recovery
# ---------------------------------------------------------------------------

def manufactured_problem(m_lat):
    # h* = 1 + 0.05 P2(z) with k=1, p=1.5, q=2: the rho exponent k+1-q
    # vanishes, and sigma_1 = 2 - 4 eps P2 in closed form, so the exact
    # data is f = (2 - 4 eps P2) / sqrt(h*)
    eps, p = 0.05, 1.5
    g = build_grid(2, m_lat=m_lat, m_lon=2 * m_lat)
    P2 = 0.5 * (3.0 * g.coords[:, 2] ** 2 - 1.0)
    h_star = 1.0 + eps * P2
    f = GridFunction(g, (2.0 - 4.0 * eps * P2) / h_star ** (p - 1.0))
    spec = ProblemSpec(n=2, k=1, p=p, q=2.0, f=f)
    return spec, GridFunction(g, h_star)


def test_criterion_03_manufactured_solution_recovery():
    errors = []
    for m_lat in (32, 64):
        spec, h_star = manufactured_problem(m_lat)
        defect = residual(spec, h_star, 1.0).linf  # operator truncation level
        t0 = time.perf_counter()
        trace = continue_path(spec)
        wall = time.perf_counter() - t0
        assert trace.success
        err = float(np.max(np.abs(trace.h.values - h_star.values)))
        assert err <= defect, (m_lat, err, defect)
        errors.append(err)
        if m_lat == 32:
            assert wall < 60.0
        register(f"manufactured-{m_lat}", spec, trace)
    factor = errors[0] / errors[1]
    assert 3.0 <= factor <= 5.0


# ---------------------------------------------------------------------------
# 4. linearized spectrum
# ---------------------------------------------------------------------------

def test_criterion_04_linearized_spectrum():
    rng = np.random.default_rng(2024)
    g = build_grid(2, m_lat=24, m_lon=48)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        q = rng.uniform(1.1, k + 1.0)
        p = rng.uniform(1.01, q - 0.05)
        assert 1.0 < p < q <= k + 1.0
        spec = ProblemSpec(n=2, k=k, p=p, q=q, f=constant_function(g, 1.0))
        ev = l0_spectrum(spec)
        assert np.sum(ev > 0) == 1, (k, p, q)
        top = l0_top_eigenvalue_analytic(spec)
        assert abs(ev[0] - top) <= 0.01 * abs(top), (k, p, q, ev[0], top)


# ---------------------------------------------------------------------------
# 5. isotropic uniqueness
# ---------------------------------------------------------------------------

def test_criterion_05_isotropic_uniqueness():
    g = build_grid(2, m_lat=32, m_lon=64)
    for p, q in ((1.2, 2.0), (1.5, 2.1), (2.0, 2.2)):
        assert q <= isotropic_q_limit(2, 1, p)
        spec = ProblemSpec(n=2, k=1, p=p, q=q, f=constant_function(g, 1.0))
        out = isotropic_experiment(spec, restarts=2, seed=0)
        assert out["window_ok"]
        assert out["sphere_radius_error"] <= 1e-6, (p, q)
        assert len(out["restart_errors"]) == 2
        assert all(e <= 1e-6 for e in out["restart_errors"]), (p, q)
        r_star = 2.0 ** (-1.0 / (q - p))
        assert np.max(np.abs(out["h_final"].values - r_star)) <= 1e-6 * r_star
        register(f"isotropic-{p}", spec, out["trace"])


# ---------------------------------------------------------------------------
# 6. sigma_k identities and Newton-Maclaurin
# ---------------------------------------------------------------------------

def deleted_prefix(lam, j, upto):
    sub = np.delete(lam, j, axis=-1)
    return _prefix_sigmas(sub, min(upto, sub.shape[-1]))


def identity_defects(lam, k):
    """Max normalized defect of the four sigma_k decomposition identities."""
    S, n = lam.shape
    e = _prefix_sigmas(lam, min(k + 1, n))
    sk = e[..., k]
    sk1 = e[..., k - 1]
    sum_i = np.zeros(S)
    sum_li = np.zeros(S)
    sum_li2 = np.zeros(S)
    worst = 0.0
    for j in range(n):
        esub = deleted_prefix(lam, j, k)
        sub_k = esub[..., k] if k <= n - 1 else np.zeros(S)
        sub_k1 = esub[..., k - 1]
        # (i) sigma_k = sigma_k(lam|j) + lam_j sigma_{k-1}(lam|j)
        lhs = sub_k + lam[:, j] * sub_k1
        worst = max(worst, np.max(np.abs(lhs - sk) / (1.0 + np.abs(lhs) + np.abs(sk))))
        sum_i += sub_k1
        sum_li += lam[:, j] * sub_k1
        sum_li2 += lam[:, j] ** 2 * sub_k1
    # (ii) sum_j lam_j sigma_{k-1}(lam|j) = k sigma_k
    worst = max(worst, np.max(np.abs(sum_li - k * sk) / (1.0 + np.abs(sum_li) + np.abs(k * sk))))
    # (iii) sum_j sigma_{k-1}(lam|j) = (n-k+1) sigma_{k-1}
    rhs = (n - k + 1) * sk1
    worst = max(worst, np.max(np.abs(sum_i - rhs) / (1.0 + np.abs(sum_i) + np.abs(rhs))))
    # (iv) sum_j lam_j^2 sigma_{k-1}(lam|j) = sigma_1 sigma_k - (k+1) sigma_{k+1}
    sk_next = e[..., k + 1] if k + 1 <= n else np.zeros(S)
    rhs = e[..., 1] * sk - (k + 1) * sk_next
    worst = max(worst, np.max(np.abs(sum_li2 - rhs) / (1.0 + np.abs(sum_li2) + np.abs(rhs))))
    return worst


def sample_gamma_k(n, k, count, rng):
    rows = []
    total = 0
    while total < count:
        lam = rng.normal(1.0, 1.0, size=(2 * count, n))
        ok, _ = in_gamma_k(lam, k)
        rows.append(lam[ok])
        total += rows[-1].shape[0]
    return np.vstack(rows)[:count]


def test_criterion_06_sigma_identities_and_newton_maclaurin():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        lam = rng.normal(0.0, 2.0, size=(10_000, n))
        for k in range(1, n + 1):
            assert identity_defects(lam, k) <= 1e-10, (n, k)
    for n in (2, 3):
        lam = sample_gamma_k(n, n, 10_000, rng)
        for k in range(1, n + 1):
            for l in range(1, k + 1):
                gaps = newton_maclaurin_gap(lam, l, k)
                assert np.min(gaps) >= -1e-12, (n, l, k)


# ---------------------------------------------------------------------------
# 7. spectral inequality slack
# ---------------------------------------------------------------------------

def admissible_body(g, k, rng, amplitude):
    for _ in range(50):
        if g.n == 1:
            th = g.thetas
            u = (rng.standard_normal() * np.cos(2 * th)
                 + rng.standard_normal() * np.sin(3 * th) / 3
                 + rng.standard_normal() * np.cos(th))
        else:
            x, y, z = g.coords.T
            u = (rng.standard_normal() * z ** 2 + rng.standard_normal() * x * y
                 + rng.standard_normal() * x)
        u = u / np.max(np.abs(u))
        h = GridFunction(g, 1.0 + amplitude * u)
        ok, _ = in_gamma_k(hessian_field(h).lam, k)
        if np.all(ok):
            return h
    raise AssertionError("no admissible body in 50 draws")


def test_criterion_07_spectral_inequality_slack():
    rng = np.random.default_rng(31)
    g1 = build_grid(1, m_theta=128)
    g2 = build_grid(2, m_lat=16, m_lon=32)
    results = []  # (body, testfn, check output, planted-equality flag)

    for _ in range(475):  # circle, generic test functions
        h = admissible_body(g1, 1, rng, 0.1)
        th = g1.thetas
        f = GridFunction(g1, rng.standard_normal() * np.cos(th)
                         + rng.standard_normal() * np.sin(2 * th)
                         + rng.standard_normal())
        results.append((h, f, af_inequality_check(h, 1, f, hessian_field(h)), False))

    for _ in range(50):  # circle, planted equality family f = <x, v>/h
        h = admissible_body(g1, 1, rng, 0.1)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        f = GridFunction(g1, (g1.coords @ v) / h.values)
        results.append((h, f, af_inequality_check(h, 1, f, hessian_field(h)), True))

    for _ in range(475):  # sphere, generic test functions, k in {1, 2}
        k = int(rng.integers(1, 3))
        h = admissible_body(g2, k, rng, 0.08)
        x, y, z = g2.coords.T
        f = GridFunction(g2, rng.standard_normal() * x
                         + rng.standard_normal() * (z ** 2 - 0.3)
                         + rng.standard_normal() * x * y
                         + rng.standard_normal())
        results.append((h, f, af_inequality_check(h, k, f, hessian_field(h)), False))

    assert len(results) == 1000
    norm_slacks = [out["slack"] / (1.0 + abs(out["lhs"]) + abs(out["rhs"]))
                   for _, _, out, _ in results]
    assert min(norm_slacks) >= -1e-7

    # the planted equality family lands on equality ...
    planted = [(h, f, out) for h, f, out, eq in results if eq]
    assert len(planted) == 50
    for h, f, out in planted:
        assert abs(out["slack"]) <= 1e-8 * (1.0 + abs(out["lhs"]) + abs(out["rhs"]))

    # ... and every near-equality case certifies as <x/h, v>
    near_equality = [(h, f, out) for h, f, out, _ in results if out["equality_case"]]
    assert len(near_equality) >= 50
    for h, f, out in near_equality:
        _, rel = fit_equality_direction(h, f)
        assert rel <= 1e-4


# ---------------------------------------------------------------------------
# 8. full-rank preservation
# ---------------------------------------------------------------------------

def test_criterion_08_full_rank_preservation():
    assert len(REGISTRY) >= 8  # criteria 1, 2 (x3), 3 (x2), 5 (x3)
    for entry in REGISTRY:
        trace = entry["trace"]
        if trace.f1_report is not None and not trace.f1_report["satisfied"]:
            continue
        for row in trace.steps:
            assert row["min_b_eig"] > 0, entry["name"]
        spec = entry["spec"]
        rep = run_diagnostics(spec, evaluate(spec, entry["h"], 1.0), validate_f1(spec))
        assert rep.min_b_eig > 0, entry["name"]


# ---------------------------------------------------------------------------
# 9. radius bounds from the data
# ---------------------------------------------------------------------------

def test_criterion_09_radius_bounds():
    assert REGISTRY
    for entry in REGISTRY:
        spec, h = entry["spec"], entry["h"]
        if spec.q <= spec.p:
            continue
        e = 1.0 / (spec.q - spec.p)
        fmax = float(np.max(spec.f.values))
        fmin = float(np.min(spec.f.values))
        r = float(np.min(h.values))
        R = float(np.max(h.values))
        assert r <= (fmax / spec.binom_nk) ** e + 1e-6, entry["name"]
        assert R >= (fmin / spec.binom_nk) ** e - 1e-6, entry["name"]


# ---------------------------------------------------------------------------
# 10. homogeneity covariance
# ---------------------------------------------------------------------------

def test_criterion_10_homogeneity_covariance():
    assert REGISTRY
    for entry in REGISTRY:
        spec, h = entry["spec"], entry["h"]
        base_linf = residual(spec, h, 1.0).linf
        for c in (0.5, 2.0):
            scaled = ProblemSpec(
                n=spec.n, k=spec.k, p=spec.p, q=spec.q,
                f=GridFunction(spec.grid, c ** (spec.q - spec.p) * spec.f.values))
            rep = residual(scaled, GridFunction(spec.grid, c * h.values), 1.0)
            bound = 1e-9 * (1.0 + c ** spec.k) * (1.0 + base_linf / spec.tol_newton)
            assert rep.linf <= bound, (entry["name"], c, rep.linf, bound)
