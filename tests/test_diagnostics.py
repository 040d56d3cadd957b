"""Diagnostics: shape report, the weighted Poincare inequality, the
linearized spectrum, manufactured data, and the isotropic experiment."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit.diagnostics import (
    DiagnosticsReport,
    af_inequality_check,
    fit_equality_direction,
    isotropic_experiment,
    isotropic_q_limit,
    l0_spectrum,
    l0_top_eigenvalue_analytic,
    manufacture,
    run_diagnostics,
)
from cmkit.errors import AdmissibilityError
from cmkit import problem
from cmkit.problem import (LinearizedOperator, ProblemSpec, evaluate, homotopy_f,
                           linearization_weights, residual, validate_f1)
from cmkit.sphere import (
    GridFunction,
    build_grid,
    constant_function,
    hessian_field,
    integrate_values,
)


def make_spec(n=2, k=1, p=1.5, q=2.0, f_value=2.0, grid=None, **kw):
    g = grid if grid is not None else (
        build_grid(1, m_theta=64) if n == 1 else build_grid(2, m_lat=16, m_lon=32))
    f = constant_function(g, f_value)
    return ProblemSpec(n=n, k=k, p=p, q=q, f=f, **kw)


def diagnose(spec, h):
    return run_diagnostics(spec, evaluate(spec, h, 1.0), validate_f1(spec))


def legendre_bump(g, eps=0.05):
    z = g.coords[:, -1]
    return GridFunction(g, 1.0 + eps * 0.5 * (3.0 * z ** 2 - 1.0))


# ---------------------------------------------------------------------------
# run_diagnostics
# ---------------------------------------------------------------------------

def test_report_constant_body_exact():
    spec = make_spec(p=1.5)
    g = spec.grid
    r = 1.7
    rep = diagnose(spec, constant_function(g, r))
    assert rep.R == r and rep.r == r and rep.ratio == 1.0
    assert rep.min_b_eig == r
    assert rep.c2_quantity == 2 * r  # trace(r I) on S^2
    gamma = (spec.p - 1.0) / spec.k
    assert rep.gamma_used == gamma
    # zeta = rho^2 / h^gamma is r^(2-gamma) on the sphere; the bound ratio
    # is exactly 1.0 there
    assert rep.zeta_max == r ** 2 / r ** gamma
    assert rep.zeta_bound_ratio == 1.0
    assert rep.f1_satisfied
    assert rep.af_check is not None and rep.af_check["slack"] > 0
    assert rep.note == ""


def test_report_small_p_disables_zeta():
    spec = make_spec(p=0.9, q=1.5)
    rep = diagnose(spec, constant_function(spec.grid, 1.0))
    assert rep.zeta_max is None and rep.zeta_bound_ratio is None
    assert rep.gamma_used is None
    assert "p <= 1" in rep.note


def test_report_inadmissible_body_skips_af():
    spec = make_spec()
    g = spec.grid
    z = g.coords[:, 2]
    h = GridFunction(g, 1.0 + 0.8 * 0.5 * (3.0 * z ** 2 - 1.0))
    rep = diagnose(spec, h)
    assert rep.af_check is None
    assert "Gamma_k" in rep.note
    assert rep.min_b_eig <= 0


def test_report_serialization_round_trip():
    spec = make_spec()
    rep = diagnose(spec, constant_function(spec.grid, 1.0))
    d = json.loads(json.dumps(rep.to_dict()))
    assert d == rep.to_dict()
    for key in ("R", "r", "ratio", "zeta_max", "zeta_bound_ratio",
                "c2_quantity", "min_b_eig", "gamma_used", "f1_satisfied",
                "af_check"):
        assert key in d


def test_diagnostics_and_manufacture_read_one_evaluation(monkeypatch):
    # the report takes b(h), rho^2 and the Gamma_k margin from the
    # Evaluation: its only sigma pass is the af check's, and its only
    # hessian_field that of the af test function; manufacture is one
    # evaluate, with no sigma or cone pass of its own
    from cmkit import diagnostics, symfunc

    spec = make_spec(k=2, p=1.5, q=2.5)
    h = legendre_bump(spec.grid)
    ev, f1 = evaluate(spec, h, 1.0), validate_f1(spec)
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    for mod in (diagnostics, problem, symfunc):
        for name in ("hessian_field", "_prefix_sigmas", "in_gamma_k", "sigma_k"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    assert run_diagnostics(spec, ev, f1).af_check is not None
    assert calls == ["_prefix_sigmas", "hessian_field"]
    calls.clear()
    manufacture(h, 2, 1.5, 2.5)
    assert calls == ["hessian_field", "_prefix_sigmas"]


def test_report_rejects_nonpositive_h():
    # the diagnostics read an Evaluation, which exists only for h > 0
    spec = make_spec()
    with pytest.raises(ValueError):
        diagnose(spec, constant_function(spec.grid, -1.0))


# ---------------------------------------------------------------------------
# weighted Poincare inequality
# ---------------------------------------------------------------------------

def test_af_equality_family_circle_exact():
    # on S^1 the derivatives are spectrally accurate, so the equality
    # family <x, v>/h lands on equality to rounding even for curved bodies
    g = build_grid(1, m_theta=256)
    h = GridFunction(g, 1.0 + 0.1 * np.cos(2 * g.thetas))
    for v in ([1.0, 0.0], [0.3, -0.8]):
        f = GridFunction(g, (g.coords @ np.asarray(v)) / h.values)
        out = af_inequality_check(h, 1, f, hessian_field(h))
        scale = 1.0 + abs(out["lhs"]) + abs(out["rhs"])
        assert abs(out["slack"]) <= 1e-8 * scale
        assert out["equality_case"]
        vfit, rel = fit_equality_direction(h, f)
        assert rel <= 1e-4
        assert_allclose(vfit, v, atol=1e-10)


def test_af_equality_family_sphere_truncation_decay():
    # the FD latitude stencils reach equality only to truncation error;
    # the defect must fall at second order under refinement
    slacks = []
    for m_lat in (16, 32):
        g = build_grid(2, m_lat=m_lat, m_lon=2 * m_lat)
        h = constant_function(g, 1.0)
        f = GridFunction(g, g.coords[:, 0])
        out = af_inequality_check(h, 1, f, hessian_field(h))
        slacks.append(abs(out["slack"]))
    assert slacks[0] < 1e-2
    assert slacks[0] / slacks[1] > 3.0


def test_af_generic_testfn_strictly_positive_slack():
    g = build_grid(2, m_lat=16, m_lon=32)
    h = constant_function(g, 1.0)
    z = g.coords[:, 2]
    out = af_inequality_check(h, 1, GridFunction(g, 0.5 * (3 * z ** 2 - 1)), hessian_field(h))
    # degree-2 mode: rhs/lhs = l(l+1)/2 = 3 on the unit sphere
    assert out["slack"] > 0.5 * abs(out["lhs"])
    assert not out["equality_case"]
    assert_allclose(out["rhs"] / out["lhs"], 3.0, rtol=1e-2)


def test_af_mean_projection_is_reported_and_applied():
    g = build_grid(1, m_theta=128)
    h = GridFunction(g, 1.0 + 0.05 * np.cos(2 * g.thetas))
    f = GridFunction(g, 1.0 + np.cos(g.thetas))  # deliberately non-zero mean
    out = af_inequality_check(h, 1, f, hessian_field(h))
    assert abs(out["subtracted_mean"]) > 0.5
    assert out["slack"] >= -1e-10


def sample_admissible_body(g, k, rng, amplitude):
    """Random smooth body with b(h) in Gamma_k (resampled until admissible)."""
    from cmkit.sphere import hessian_field
    from cmkit.symfunc import in_gamma_k

    for _ in range(50):
        if g.n == 1:
            th = g.thetas
            u = (rng.standard_normal() * np.cos(2 * th)
                 + rng.standard_normal() * np.sin(3 * th) / 3)
        else:
            x, y, z = g.coords.T
            u = rng.standard_normal() * z ** 2 + rng.standard_normal() * x * y
        u = u / np.max(np.abs(u))
        h = GridFunction(g, 1.0 + amplitude * u)
        ok, _ = in_gamma_k(hessian_field(h).lam, k)
        if np.all(ok):
            return h
    raise AssertionError("no admissible sample in 50 draws")


def test_af_random_pairs_nonnegative_slack():
    rng = np.random.default_rng(7)
    g1 = build_grid(1, m_theta=128)
    g2 = build_grid(2, m_lat=16, m_lon=32)
    worst = np.inf
    for trial in range(100):
        if trial % 2:
            g, k = g1, 1
            h = sample_admissible_body(g, k, rng, 0.1)
            th = g.thetas
            f = GridFunction(g, rng.standard_normal() * np.cos(th)
                             + rng.standard_normal() * np.sin(2 * th)
                             + rng.standard_normal())
        else:
            g, k = g2, int(rng.integers(1, 3))
            h = sample_admissible_body(g, k, rng, 0.08)
            x, y, z = g.coords.T
            f = GridFunction(g, rng.standard_normal() * x
                             + rng.standard_normal() * (z ** 2 - 0.3)
                             + rng.standard_normal() * x * y)
        out = af_inequality_check(h, k, f, hessian_field(h))
        scale = 1.0 + abs(out["lhs"]) + abs(out["rhs"])
        worst = min(worst, out["slack"] / scale)
    assert worst >= -1e-7


def test_af_rejects_inadmissible_body():
    g = build_grid(2, m_lat=16, m_lon=32)
    z = g.coords[:, 2]
    h = GridFunction(g, 1.0 + 0.8 * 0.5 * (3 * z ** 2 - 1))
    with pytest.raises(AdmissibilityError):
        af_inequality_check(h, 1, GridFunction(g, z), hessian_field(h))


def _af_explicit_form(h, k, testfn):
    # the check with sigma_k^{ij} written out case by case, kept as the
    # reference for the weights it now shares with the linearization
    from cmkit.sphere import hessian_field
    from cmkit.symfunc import sigma_k

    g = h.grid
    hf = hessian_field(h)
    weight = h.values * sigma_k(hf.lam, k)
    mean = integrate_values(g, testfn.values * weight) / integrate_values(g, weight)
    f = testfn.values - mean
    gr = hessian_field(GridFunction(g, f)).grad
    if g.n == 1:
        quad = gr[:, 0] ** 2
    else:
        c = hf.components
        g1, g2 = gr[:, 0], gr[:, 1]
        if k == 1:
            quad = g1 ** 2 + g2 ** 2
        else:
            quad = (c["b22"].ravel() * g1 ** 2
                    - 2.0 * c["b12"].ravel() * g1 * g2
                    + c["b11"].ravel() * g2 ** 2)
    lhs = k * integrate_values(g, f ** 2 * weight)
    rhs = integrate_values(g, h.values ** 2 * quad)
    return lhs, rhs, mean


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
def test_af_matches_explicit_quadratic_form(n, k):
    rng = np.random.default_rng(10 * n + k)
    g = build_grid(1, m_theta=128) if n == 1 else build_grid(2, m_lat=16, m_lon=32)
    h = sample_admissible_body(g, k, rng, 0.08)
    x = g.coords
    f = GridFunction(g, x[:, 0] + x[:, -1] ** 2 + x[:, 0] * x[:, 1])
    out = af_inequality_check(h, k, f, hessian_field(h))
    lhs, rhs, mean = _af_explicit_form(h, k, f)
    assert (out["lhs"], out["rhs"], out["subtracted_mean"]) == (lhs, rhs, mean)
    assert out["slack"] == rhs - lhs


def test_fit_equality_direction_rejects_generic_function():
    g = build_grid(2, m_lat=16, m_lon=32)
    h = constant_function(g, 1.0)
    z = g.coords[:, 2]
    _, rel = fit_equality_direction(h, GridFunction(g, 0.5 * (3 * z ** 2 - 1)))
    assert rel > 0.5


# ---------------------------------------------------------------------------
# linearized spectrum
# ---------------------------------------------------------------------------

def _spectrum_grid(shape):
    if len(shape) == 1:
        return build_grid(1, m_theta=shape[0])
    return build_grid(2, m_lat=shape[0], m_lon=shape[1])


@pytest.mark.parametrize("shape, k", [((256,), 1), ((8, 16), 1), ((8, 16), 2), ((9, 16), 1),
                                      ((9, 16), 2), ((24, 48), 1), ((24, 48), 2)])
def test_spectrum_matches_dense_even_restriction(shape, k):
    # reference: the dense Jacobian at h = 1, t = 0 restricted to the
    # orthonormal even basis (e_i + e_a(i)) / sqrt(2) over antipodal pairs;
    # 9x16 has a self-paired equator ring
    g = _spectrum_grid(shape)
    spec = make_spec(n=g.n, k=k, p=1.5, q=k + 0.5, grid=g)
    h = constant_function(g, 1.0)
    J = LinearizedOperator(g, linearization_weights(spec, evaluate(spec, h, 0.0))).toarray()
    perm = g.antipodal_perm
    first = np.flatnonzero(np.arange(g.node_count) < perm)
    col = np.arange(first.size)
    B = np.zeros((g.node_count, first.size))
    B[first, col] = B[perm[first], col] = math.sqrt(0.5)
    ref = np.sort(np.linalg.eigvals(B.T @ J @ B).real)[::-1]
    ev = l0_spectrum(spec)
    assert ev.shape == ref.shape == (g.node_count // 2,)
    assert np.max(np.abs(ev - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape, k", [((256,), 1), ((8, 16), 2), ((9, 16), 1), ((24, 48), 2)])
def test_spectrum_at_h1_is_bitwise_the_power_formula(monkeypatch, shape, k):
    # at h = 1, t = 0 the right side is binom(n,k) and rho^2 = 1 exactly, so
    # c1 = (p-1) rhs / h and c2 = (k+1-q) rhs / rho^2 are the power
    # formula's f_t (p-1) h^(p-2) rho^(k+1-q) and f_t (k+1-q) h^(p-1)
    # rho^(k-1-q) bitwise, and so is the spectrum
    from cmkit import diagnostics
    from cmkit.problem import ellipticity_weights

    g = _spectrum_grid(shape)
    spec = make_spec(n=g.n, k=k, p=1.5, q=k + 0.7, grid=g)
    h = constant_function(g, 1.0)
    hf = hessian_field(h)
    ft = homotopy_f(spec, 0.0).values
    rho2 = h.values ** 2 + hf.grad_norm_sq()
    c1 = ft * (spec.p - 1.0) * h.values ** (spec.p - 2.0) \
        * rho2 ** (0.5 * (spec.k + 1.0 - spec.q))
    c2 = ft * (spec.k + 1.0 - spec.q) * h.values ** (spec.p - 1.0) \
        * rho2 ** (0.5 * (spec.k - 1.0 - spec.q))
    ref = ellipticity_weights(hf, spec.k)
    for i in range(g.n):
        ref[f"grad{i + 1}"] = -c2 * hf.components[f"g{i + 1}"].ravel()
    ref["diag"] = -(c1 + c2 * h.values)
    weights = linearization_weights(spec, evaluate(spec, h, 0.0))
    assert weights.keys() == ref.keys()
    assert all(np.array_equal(weights[key], w) for key, w in ref.items())
    ev = l0_spectrum(spec)
    monkeypatch.setattr(diagnostics, "linearization_weights", lambda spec, ev: ref)
    assert np.array_equal(l0_spectrum(spec), ev)


def _even_projection_spectrum(spec):
    # the spectrum from the dense block of every mode times the even basis
    # E of its parity, e_j + (-1)^m e_(M-1-j), as computed before the
    # spectrum read the preconditioner's parity fold
    from cmkit.problem import ring_blocks, ring_taps

    g = spec.grid
    weights = linearization_weights(spec, evaluate(spec, constant_function(g, 1.0), 0.0))
    blocks = ring_blocks(ring_taps(g, weights))
    width, M, K = blocks.shape
    A = sum(blocks[o].T[:, :, None] * np.eye(M, k=o - width // 2) for o in range(width))
    count = np.full(K, 2)
    count[[0, -1]] = 1
    eye = np.eye(M)
    ev = []
    for parity, d in ((0, (M + 1) // 2), (1, M // 2)):
        E = (eye + (-1) ** parity * eye[::-1])[:, :d]
        E /= E.diagonal()
        lam = np.linalg.eigvals((A[parity::2] @ E)[:, :d])
        ev.append(np.repeat(lam.real, count[parity::2], axis=0).ravel())
    return np.sort(np.concatenate(ev))[::-1]


@pytest.mark.parametrize("p, q", [(1.5, None), (1.5, 1.5)], ids=["in-window", "p=q"])
@pytest.mark.parametrize("shape, k", [((256,), 1), ((8, 16), 1), ((8, 16), 2), ((9, 16), 1),
                                      ((9, 16), 2), ((24, 48), 1), ((24, 48), 2)],
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_spectrum_is_bitwise_the_even_projection(shape, k, p, q):
    # the fold is twice each parity's block exactly at h = 1, so halving
    # it gives the even-basis restriction bit for bit
    g = _spectrum_grid(shape)
    spec = make_spec(n=g.n, k=k, p=p, q=k + 0.5 if q is None else q, grid=g)
    assert np.array_equal(l0_spectrum(spec), _even_projection_spectrum(spec))


def _leading_even_degrees(spec):
    # binom(n,k)(q-p) - binom(n-1,k-1) l(l+n-1) for l = 0, 2, 4, 6, once per
    # even harmonic of degree l: 2l+1 on S^2, 2 on S^1 (1 for l = 0)
    n, k = spec.n, spec.k
    return np.concatenate([
        np.full(2 * deg + 1 if n == 2 else (1 if deg == 0 else 2),
                math.comb(n, k) * (spec.q - spec.p)
                - math.comb(n - 1, k - 1) * deg * (deg + n - 1))
        for deg in (0, 2, 4, 6)])


def test_spectrum_leading_even_degrees_circle():
    spec = make_spec(n=1, k=1, p=1.5, q=2.0, grid=build_grid(1, m_theta=256))
    expect = _leading_even_degrees(spec)
    assert_allclose(l0_spectrum(spec)[:expect.size], expect, rtol=1e-12)


@pytest.mark.parametrize("k, p, q", [(1, 1.5, 2.0), (2, 1.5, 2.5)])
def test_spectrum_leading_even_degrees_converge_at_second_order(k, p, q):
    errors = []
    for m_lat in (12, 24, 48):
        spec = make_spec(n=2, k=k, p=p, q=q, grid=build_grid(2, m_lat=m_lat, m_lon=2 * m_lat))
        expect = _leading_even_degrees(spec)
        errors.append(np.max(np.abs(l0_spectrum(spec)[:expect.size] - expect)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(3.5 <= r <= 4.5 for r in ratios), (errors, ratios)


def test_spectrum_builds_no_dense_jacobian(monkeypatch):
    calls = []
    for owner, name in ((problem, "assemble_jacobian"), (LinearizedOperator, "toarray")):
        def spy(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    ev = l0_spectrum(make_spec(n=2, k=2, p=1.5, q=2.5))
    assert calls == []
    assert ev.size == 16 * 32 // 2


def test_spectrum_top_eigenvalue_and_count():
    spec = make_spec(n=2, k=1, p=1.5, q=2.0)
    ev = l0_spectrum(spec)
    top = l0_top_eigenvalue_analytic(spec)
    assert_allclose(ev[0], top, rtol=1e-6)
    assert np.sum(ev > 0) == 1
    # next even mode is degree 2: binom(n-1,k-1) (n(q-p)/k - l(l+n-1))
    assert_allclose(ev[1], top - 6.0, rtol=2e-2)


def test_spectrum_k2_scaling():
    spec = make_spec(n=2, k=2, p=1.5, q=2.5)
    ev = l0_spectrum(spec)
    assert_allclose(ev[0], l0_top_eigenvalue_analytic(spec), rtol=1e-6)
    assert np.sum(ev > 0) == 1


def test_spectrum_degenerate_at_p_equal_q():
    spec = make_spec(n=2, k=1, p=2.0, q=2.0)
    ev = l0_spectrum(spec)
    assert abs(ev[0]) <= 1e-8
    assert np.sum(ev > 1e-8) == 0


def test_spectrum_circle():
    spec = make_spec(n=1, k=1, p=1.5, q=2.0)
    ev = l0_spectrum(spec)
    assert_allclose(ev[0], spec.q - spec.p, rtol=1e-10)
    assert np.sum(ev > 0) == 1


# ---------------------------------------------------------------------------
# manufactured data
# ---------------------------------------------------------------------------

def test_manufacture_constant_closed_form():
    g = build_grid(2, m_lat=16, m_lon=32)
    r, k, p, q = 1.4, 2, 1.5, 2.5
    f = manufacture(constant_function(g, r), k, p, q)
    assert_allclose(f.values, math.comb(2, k) * r ** (q - p), rtol=1e-14)


def test_manufacture_residual_is_exact_zero():
    g = build_grid(2, m_lat=16, m_lon=32)
    h_star = legendre_bump(g, 0.05)
    k, p, q = 1, 1.5, 2.0
    f = manufacture(h_star, k, p, q)
    spec = ProblemSpec(n=2, k=k, p=p, q=q, f=f)
    rep = residual(spec, h_star, 1.0)
    assert rep.linf == 0.0


@pytest.mark.parametrize("shape,k", [(64, 1), ((32, 64), 1), ((32, 64), 2),
                                     ((33, 64), 1), ((33, 64), 2)])
def test_manufacture_residual_is_rounding_on_tilted_targets(shape, k):
    # off the polar axis the two sides round differently, by an ulp or so
    if isinstance(shape, int):
        g, axis = build_grid(1, m_theta=shape), [math.sin(0.4), math.cos(0.4)]
    else:
        g = build_grid(2, m_lat=shape[0], m_lon=shape[1])
        axis = [math.sin(0.4), 0.0, math.cos(0.4)]
    h_star = GridFunction(g, 1.0 + 0.05 * (g.coords @ axis) ** 2)
    p, q = 1.5, 1.0 + k
    f = manufacture(h_star, k, p, q)
    rep = residual(ProblemSpec(n=g.n, k=k, p=p, q=q, f=f), h_star, 1.0)
    assert rep.linf <= 4 * np.finfo(float).eps * np.max(np.abs(f.values))


def test_manufacture_rejects_bad_targets():
    g = build_grid(2, m_lat=16, m_lon=32)
    with pytest.raises(ValueError):
        manufacture(constant_function(g, -1.0), 1, 1.5, 2.0)
    x = g.coords[:, 0]
    with pytest.raises(ValueError):
        manufacture(GridFunction(g, 1.0 + 0.1 * x), 1, 1.5, 2.0)
    z = g.coords[:, 2]
    with pytest.raises(AdmissibilityError):
        manufacture(GridFunction(g, 1.0 + 0.8 * 0.5 * (3 * z ** 2 - 1)), 1, 1.5, 2.0)


# ---------------------------------------------------------------------------
# isotropic experiment
# ---------------------------------------------------------------------------

def test_isotropic_sphere_s2():
    spec = make_spec(n=2, k=1, p=1.5, q=2.1, f_value=1.0)
    out = isotropic_experiment(spec, restarts=2, seed=0)
    r_star = 2.0 ** (-1.0 / (spec.q - spec.p))
    assert out["window_ok"]
    assert out["sphere_radius_error"] <= 1e-6
    assert all(e <= 1e-6 for e in out["restart_errors"])
    assert len(out["restart_errors"]) == 2
    assert_allclose(out["h_final"].values, r_star, rtol=1e-8)


def test_isotropic_sphere_circle():
    # binom(1,1) = 1 makes r* = 1 for every exponent pair
    spec = make_spec(n=1, k=1, p=2.0, q=2.5, f_value=1.0)
    out = isotropic_experiment(spec, restarts=1, seed=1)
    assert out["sphere_radius_error"] <= 1e-8
    assert out["restart_errors"][0] <= 1e-8


def test_isotropic_window_flag():
    lim = isotropic_q_limit(2, 1, 1.5)
    assert_allclose(lim, -2.0 + 2.0 * math.sqrt(4.0 + 1.5 / 4.0), rtol=1e-14)
    spec = make_spec(n=2, k=1, p=1.5, q=2.5, f_value=1.0)
    assert spec.q > lim
    out = isotropic_experiment(spec, restarts=0, seed=0)
    assert not out["window_ok"]


def test_isotropic_inadmissible_amplitude_is_an_admissibility_error():
    # on the circle with k = 1, b(h) = h'' + h of r* (1 + u), u a sup-normed
    # degree-2 harmonic of amplitude a, is r* (1 - 3u) up to the stencil:
    # no start of amplitude 0.9 is admissible, which used to end in a
    # RuntimeError
    spec = make_spec(n=1, k=1, p=1.5, q=2.0, f_value=1.0, grid=build_grid(1, m_theta=16))
    with pytest.raises(AdmissibilityError, match="amplitude 0.9 "):
        isotropic_experiment(spec, restarts=1, seed=0, amplitude=0.9)


def test_isotropic_failed_path_gives_infinite_error_and_no_restarts(monkeypatch):
    from cmkit import diagnostics
    from cmkit.continuation import SolveTrace

    spec = make_spec(n=1, k=1, p=2.0, q=2.5, f_value=1.0)
    failed = SolveTrace(h=constant_function(spec.grid, 1.0), message="step size underflow")
    monkeypatch.setattr(diagnostics, "continue_path", lambda spec: failed)
    monkeypatch.setattr(diagnostics, "newton_solve", None)  # no restart may run
    out = isotropic_experiment(spec, restarts=3, seed=0)
    assert set(out) == {"h_final", "sphere_radius_error", "window_ok", "q_limit",
                        "restart_errors", "trace"}
    assert out["trace"] is failed and out["h_final"] is failed.h
    assert out["sphere_radius_error"] == math.inf and out["restart_errors"] == []
    assert out["q_limit"] == isotropic_q_limit(1, 1, 2.0)


def test_isotropic_requires_unit_f():
    spec = make_spec(f_value=2.0)
    with pytest.raises(ValueError):
        isotropic_experiment(spec)
    spec_pq = make_spec(p=2.0, q=2.0, f_value=1.0)
    with pytest.raises(ValueError):
        isotropic_experiment(spec_pq)
