"""Problem data, residual, linearization and data-admissibility tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit import GridFunction, apply_symmetry, build_grid
from cmkit.errors import AdmissibilityError, DomainError, UnsupportedParameterError
from cmkit.problem import (
    EQUAL_EXPONENT_NOTE,
    RANGE_NOTE,
    ProblemSpec,
    admissibility_margin,
    assemble_jacobian,
    evaluate,
    homotopy_f,
    residual,
    validate_f1,
)
from cmkit.sphere import constant_function, coordinate_function


@pytest.fixture(scope="module")
def g2():
    return build_grid(2, m_lat=32, m_lon=64)


@pytest.fixture(scope="module")
def g1():
    return build_grid(1, m_theta=64)


def smooth_field(g, seed, amp=0.05):
    # random even combination of low-degree harmonics (smooth on the sphere)
    rng = np.random.default_rng(seed)
    if g.n == 1:
        th = g.thetas
        c = rng.standard_normal(3)
        return amp * (c[0] + c[1] * np.cos(2 * th) + c[2] * np.sin(2 * th))
    x, y, z = g.coords.T
    c = rng.standard_normal(6)
    return amp * (c[0] * z ** 2 + c[1] * x * y + c[2] * x * z
                  + c[3] * (x ** 2 - y ** 2) + c[4] * y * z + c[5])


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_validation(g2):
    f = constant_function(g2, 2.0)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, k=3, p=1.5, q=2.0, f=f)
    with pytest.raises(UnsupportedParameterError):
        ProblemSpec(n=2, k=1, p=-0.5, q=2.0, f=f)  # k+p-1 = -0.5
    fneg = np.full(g2.node_count, 1.0)
    fneg[5] = fneg[g2.antipodal_perm[5]] = -0.5
    with pytest.raises(DomainError):
        ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=GridFunction(g2, fneg))
    # odd f rejected
    fodd = GridFunction(g2, 2.0 + g2.coords @ np.array([0.3, 0, 0.5]))
    with pytest.raises(ValueError):
        ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=fodd)
    # dimension mismatch
    with pytest.raises(ValueError):
        ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=f)


@pytest.mark.parametrize("name", ["p", "q"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_exponents(g2, name, value):
    # p = inf used to end in a ZeroDivisionError from homotopy_f, and
    # q = nan in a Jacobian with non-finite entries
    args = dict(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 2.0))
    args[name] = value
    with pytest.raises(UnsupportedParameterError, match=f"^{name} must be finite") as err:
        ProblemSpec(**args)
    assert err.value.fields == (name,)


def test_spec_warnings(g2):
    f = constant_function(g2, 2.0)
    s = ProblemSpec(n=2, k=1, p=1.5, q=1.5, f=f)
    assert EQUAL_EXPONENT_NOTE in s.warnings
    s = ProblemSpec(n=2, k=1, p=0.5, q=2.0, f=f)
    assert RANGE_NOTE in s.warnings
    s = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=f)
    assert s.warnings == []
    assert s.exponents_in_range()


# ---------------------------------------------------------------------------
# homotopy data
# ---------------------------------------------------------------------------

def test_homotopy_endpoints_exact(g2):
    f = GridFunction(g2, 2.0 + smooth_field(g2, 4, amp=0.3))
    f = GridFunction(g2, 0.5 * (f.values + f.values[g2.antipodal_perm]))
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=f)
    f0 = homotopy_f(spec, 0.0)
    assert np.all(f0.values == float(math.comb(2, 2)))
    f1 = homotopy_f(spec, 1.0)
    assert np.array_equal(f1.values, f.values)


def test_homotopy_fixed_point(g2):
    # f identically binom(n,k) stays constant for every t
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0,
                       f=constant_function(g2, math.comb(2, 1)))
    for t in (0.0, 0.3, 0.7, 1.0):
        ft = homotopy_f(spec, t)
        assert np.all(ft.values == ft.values[0])
        assert_allclose(ft.values[0], 2.0, rtol=1e-15)


def test_homotopy_positive_even_monotone(g2):
    f = GridFunction(g2, 3.0 + smooth_field(g2, 9, amp=0.5))
    f = GridFunction(g2, 0.5 * (f.values + f.values[g2.antipodal_perm]))
    assert np.all(f.values > math.comb(2, 1))  # one-sided data
    spec = ProblemSpec(n=2, k=1, p=1.8, q=2.0, f=f)
    prev = homotopy_f(spec, 0.0).values
    for t in (0.2, 0.5, 0.8, 1.0):
        cur = homotopy_f(spec, t).values
        assert np.all(cur > 0)
        assert np.all(cur >= prev - 1e-12)  # node-wise monotone toward f
        prev = cur
    with pytest.raises(ValueError):
        homotopy_f(spec, 1.5)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_unit_sphere_exact(g1, g2):
    for g, n in [(g1, 1), (g2, 2)]:
        for k in range(1, n + 1):
            spec = ProblemSpec(n=n, k=k, p=1.5, q=2.0,
                               f=constant_function(g, 1.0))
            rep = residual(spec, constant_function(g, 1.0), 0.0)
            assert rep.linf == 0.0
            assert rep.l2 == 0.0


def test_residual_l2_is_summed_on_first_read(monkeypatch, g2):
    # residual() sums no squares; l2 is the weighted fsum, bitwise, and is
    # computed once
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=constant_function(g2, 1.3))
    h = GridFunction(g2, 1.0 + 0.1 * g2.coords[:, 2] ** 2)
    sums = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda x: sums.append(1) or fsum(x))
    rep = residual(spec, h, 0.7)
    assert sums == []
    r = rep.residual.values
    expect = math.sqrt(fsum(g2.weights * r ** 2))
    assert rep.l2 == expect > 0.0
    assert rep.l2 == expect
    assert len(sums) == 1


def test_residual_l2_is_finite_for_huge_residuals(g1):
    # h = 1 on the circle has sigma_1 = 1 against f = 1e200: every node's
    # residual is -1e200, whose square overflows unless scaled first
    spec = ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=constant_function(g1, 1e200))
    rep = residual(spec, constant_function(g1, 1.0), 1.0)
    assert np.all(rep.residual.values == 1.0 - 1e200)
    assert_allclose(rep.l2, 1e200 * math.sqrt(math.fsum(g1.weights)), rtol=1e-15)


def test_residual_constant_closed_form(g2):
    # h = r, f = c: residual is binom r^k - c r^(p-1) r^(k+1-q) node-wise
    r, c = 1.3, 2.2
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=constant_function(g2, c))
    rep = residual(spec, constant_function(g2, r), 1.0)
    expect = math.comb(2, 2) * r ** 2 - c * r ** 0.5 * r ** 0.5
    assert_allclose(rep.residual.values, expect, rtol=1e-14)
    # and the root: r = (c/binom)^(1/(q-p))
    r_star = c ** (1.0 / (spec.q - spec.p))
    rep = residual(spec, constant_function(g2, r_star), 1.0)
    assert rep.linf < 1e-13


def test_residual_positivity_requirement(g2):
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 2.0))
    bad = GridFunction(g2, np.full(g2.node_count, 1.0))
    bad.values[17] = -0.1
    with pytest.raises(DomainError) as exc:
        residual(spec, bad, 0.5)
    assert exc.value.node == 17


def test_residual_degenerating_body_negative(g2):
    # shrink an off-center ball toward a point: b = c*I analytically, the
    # sigma_k side decays like c^k while the data side only like c^(k+p-q),
    # so for q > p the residual turns strictly negative at every node
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 2.0))
    base = 1.0 + 0.999 * (g2.coords @ np.array([0, 0, 1.0]))
    for c in (1e-4, 1e-5):
        h = GridFunction(g2, c * base)
        # discrete b tracks the analytic c*I of the family
        from cmkit import hessian_field
        lam = hessian_field(h).lam
        assert np.max(np.abs(lam - c)) < 0.01 * c
        rep = residual(spec, h, 1.0)
        assert np.all(rep.residual.values < 0)


def test_residual_scaling_covariance(g2):
    # residual of (c h) against (c^(q-p) f) vanishes when that of h does:
    # check the closed constant family at the discrete level
    k, p, q = 2, 1.5, 2.5
    f0 = 1.7
    r0 = f0 ** (1.0 / (q - p))
    for c in (0.5, 2.0):
        spec_s = ProblemSpec(n=2, k=k, p=p, q=q,
                             f=constant_function(g2, c ** (q - p) * f0))
        rep = residual(spec_s, constant_function(g2, c * r0), 1.0)
        assert rep.linf <= 1e-9 * (1 + c ** k)


def test_residual_rotation_equivariance(g2):
    # pulling data and iterate back along a node permutation permutes the
    # residual bitwise
    f = GridFunction(g2, 2.0 + smooth_field(g2, 21, amp=0.3))
    f = GridFunction(g2, 0.5 * (f.values + f.values[g2.antipodal_perm]))
    h = GridFunction(g2, 1.0 + smooth_field(g2, 22))
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=f)
    base = residual(spec, h, 1.0).residual.values

    for kind, steps in [("lon_shift", 7), ("antipodal", 0), ("lat_flip", 0)]:
        fs = apply_symmetry(f, kind, steps=steps)
        hs = apply_symmetry(h, kind, steps=steps)
        spec_s = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=fs)
        got = residual(spec_s, hs, 1.0).residual.values
        expect = apply_symmetry(GridFunction(g2, base), kind, steps=steps).values
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n,k,t", [(1, 1, 0.3), (2, 1, 0.7), (2, 2, 0.4)])
def test_evaluate_is_one_pass_with_both_sides(monkeypatch, g1, g2, n, k, t):
    # one hessian_field and one pass of the elementary symmetric functions
    # give the margin of in_gamma_k and the sigma_k of symfunc bitwise;
    # sigma_k is a copy, not a view that keeps the pass's array alive, and
    # the report is sigma_k - rhs, as residual() gives it
    from cmkit import problem, symfunc
    from cmkit.sphere import hessian_field

    g = g1 if n == 1 else g2
    f = GridFunction(g, 1.3 + smooth_field(g, 80 + k))
    spec = ProblemSpec(n=n, k=k, p=1.4, q=2.3, f=f)
    h = GridFunction(g, 1.0 + smooth_field(g, 90 + k))
    calls = {"fields": 0, "passes": 0}

    def count(key, fn):
        def spy(*args):
            calls[key] += 1
            return fn(*args)
        return spy

    with monkeypatch.context() as m:
        m.setattr(problem, "hessian_field", count("fields", problem.hessian_field))
        m.setattr(problem, "_prefix_sigmas", count("passes", problem._prefix_sigmas))
        ev = evaluate(spec, h, t)
    assert calls == {"fields": 1, "passes": 1}
    assert ev.h is h and ev.t == t
    lam = hessian_field(h).lam
    assert np.array_equal(ev.hf.lam, lam)
    assert np.array_equal(ev.margin, symfunc.in_gamma_k(lam, k)[1])
    assert np.array_equal(ev.sigma_k, symfunc.sigma_k(lam, k))
    assert ev.sigma_k.base is None
    assert np.array_equal(ev.rho2, h.values ** 2 + hessian_field(h).grad_norm_sq())
    assert np.array_equal(ev.residual.values, ev.sigma_k - ev.rhs)
    assert ev.linf == np.max(np.abs(ev.sigma_k - ev.rhs))
    rep = residual(spec, h, t)
    assert np.array_equal(rep.residual.values, ev.residual.values)
    assert rep.linf == ev.linf and rep.l2 == ev.l2


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def _power_weights(spec, h, t):
    # the reference: the linearization's coefficients c1 and c2 written as
    # derivatives of f_t h^(p-1) rho^(k+1-q), each with its own powers
    from cmkit.problem import ellipticity_weights
    from cmkit.sphere import hessian_field

    hf = hessian_field(h)
    ft = homotopy_f(spec, t).values
    hv = h.values
    rho2 = hv ** 2 + hf.grad_norm_sq()
    c1 = ft * (spec.p - 1.0) * hv ** (spec.p - 2.0) \
        * rho2 ** (0.5 * (spec.k + 1.0 - spec.q))
    c2 = ft * (spec.k + 1.0 - spec.q) * hv ** (spec.p - 1.0) \
        * rho2 ** (0.5 * (spec.k - 1.0 - spec.q))
    weights = ellipticity_weights(hf, spec.k)
    for i in range(spec.grid.n):
        weights[f"grad{i + 1}"] = -c2 * hf.components[f"g{i + 1}"].ravel()
    weights["diag"] = -(c1 + c2 * hv)
    return weights


@pytest.mark.parametrize("n,k,p,q,t", [
    (1, 1, 1.6, 2.1, 0.5), (2, 1, 1.3, 1.9, 0.7), (2, 2, 2.0, 2.6, 0.4),
    (2, 2, 1.5, 3.2, 1.0), (2, 1, 0.5, 1.7, 0.0)])
def test_linearization_weights_match_the_power_formula(monkeypatch, g1, g2, n, k, p, q, t):
    # c1 = (p-1) rhs / h and c2 = (k+1-q) rhs / rho^2 from the Evaluation
    # agree with the power formula to rounding; linearization_weights
    # interpolates no data of its own
    from cmkit import problem
    from cmkit.problem import linearization_weights

    g = g1 if n == 1 else g2
    f = GridFunction(g, 1.3 + smooth_field(g, 60 + k))
    spec = ProblemSpec(n=n, k=k, p=p, q=q, f=f)
    h = GridFunction(g, 1.0 + smooth_field(g, 70 + k))
    ev = evaluate(spec, h, t)

    def no_data(spec, t):
        raise AssertionError("linearization_weights called homotopy_f")

    monkeypatch.setattr(problem, "homotopy_f", no_data)
    weights = linearization_weights(spec, ev)
    ref = _power_weights(spec, h, t)
    assert weights.keys() == ref.keys()
    for key, w in ref.items():
        assert np.max(np.abs(weights[key] - w)) <= 1e-14 * np.max(np.abs(w)), key


def test_jacobian_constant_mode_at_origin(g1, g2):
    # action on phi = 1 at h = 1, t = 0 is binom(n-1,k-1) n (q-p)/k
    for g, n, k in [(g2, 2, 1), (g2, 2, 2), (g1, 1, 1)]:
        p, q = 1.5, 2.2
        spec = ProblemSpec(n=n, k=k, p=p, q=q, f=constant_function(g, 1.0))
        J = assemble_jacobian(spec, evaluate(spec, constant_function(g, 1.0), 0.0))
        act = J.dot(np.ones(g.node_count))
        expect = math.comb(n - 1, k - 1) * n * (q - p) / k
        assert_allclose(act, expect, rtol=0, atol=1e-9)


def test_jacobian_degree_one_mode(g2):
    # at h = 1: J phi = binom(n-1,k-1) (n(q-p)/k - n) phi for phi = <x,v>
    n, k, p, q = 2, 2, 1.5, 2.5
    spec = ProblemSpec(n=n, k=k, p=p, q=q, f=constant_function(g2, 1.0))
    J = assemble_jacobian(spec, evaluate(spec, constant_function(g2, 1.0), 0.0))
    phi = coordinate_function(g2, (0.3, -0.4, 0.85)).values
    expect = math.comb(n - 1, k - 1) * (n * (q - p) / k - n) * phi
    assert_allclose(J.dot(phi), expect, rtol=0, atol=5e-3)


def test_jacobian_self_adjoint_at_origin_circle(g1):
    # on S^1 the operator at h = 1 is a symmetric circulant plus a constant
    # diagonal and the weights are uniform: quadrature self-adjointness is
    # exact up to rounding
    spec = ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=constant_function(g1, 1.0))
    J = assemble_jacobian(spec, evaluate(spec, constant_function(g1, 1.0), 0.0))
    rng = np.random.default_rng(31)
    w = g1.weights
    for _ in range(3):
        phi = rng.standard_normal(g1.node_count)
        psi = rng.standard_normal(g1.node_count)
        a = math.fsum(w * phi * J.dot(psi))
        b = math.fsum(w * J.dot(phi) * psi)
        assert abs(a - b) < 1e-8 * (1 + abs(a))


def test_jacobian_self_adjoint_defect_truncation(g2):
    # on S^2 the latitude stencils are not weighted-symmetric, so the
    # quadrature self-adjointness defect sits at truncation level and
    # shrinks at 2nd order rather than being exact
    defects = []
    for (ml, mo) in [(32, 64), (64, 128)]:
        g = build_grid(2, m_lat=ml, m_lon=mo)
        spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g, 2.0))
        J = assemble_jacobian(spec, evaluate(spec, constant_function(g, 1.0), 0.0))
        phi = smooth_field(g, 310, amp=1.0)
        psi = smooth_field(g, 311, amp=1.0)
        w = g.weights
        a = math.fsum(w * phi * J.dot(psi))
        b = math.fsum(w * J.dot(phi) * psi)
        defects.append(abs(a - b) / (1 + abs(a)))
    assert defects[0] < 1e-2
    assert defects[0] / defects[1] > 3.0


@pytest.mark.parametrize("n,k,p,q,t", [
    (2, 1, 1.3, 1.9, 0.7), (2, 2, 2.0, 2.6, 0.4), (1, 1, 1.6, 2.1, 0.5)])
def test_jacobian_matches_directional_differences(g1, g2, n, k, p, q, t):
    g = g1 if n == 1 else g2
    spec = ProblemSpec(n=n, k=k, p=p, q=q, f=constant_function(g, 1.3))
    h = GridFunction(g, 1.0 + smooth_field(g, 50 + k))
    J = assemble_jacobian(spec, evaluate(spec, h, t))
    eps = 1e-6
    for s in range(10):
        phi = smooth_field(g, 500 + s, amp=1.0)
        hp = GridFunction(g, h.values + eps * phi)
        hm = GridFunction(g, h.values - eps * phi)
        fd = (residual(spec, hp, t).residual.values
              - residual(spec, hm, t).residual.values) / (2 * eps)
        an = J.dot(phi)
        scale = np.max(np.abs(an))
        assert np.max(np.abs(fd - an)) < 1e-5 * scale


def test_jacobian_requires_admissible(g2):
    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=constant_function(g2, 1.0))
    # deep even dent: b leaves Gamma_2 somewhere
    z = g2.coords[:, 2]
    h = GridFunction(g2, 1.0 - 0.9 * z ** 2)
    with pytest.raises(AdmissibilityError) as exc:
        assemble_jacobian(spec, evaluate(spec, h, 0.0))
    assert exc.value.margin < 0


def test_jacobian_given_margin_raises_the_same_error(g2, monkeypatch):
    # the Evaluation's margin of b(h) (newton_solve's, from its margin
    # check) is the one admissibility_margin computes, and assemble_jacobian
    # reads it: the error on the dent names its worst node and margin, and
    # no second Gamma_k pass runs
    from cmkit import problem

    spec = ProblemSpec(n=2, k=2, p=1.5, q=2.5, f=constant_function(g2, 1.0))
    z = g2.coords[:, 2]
    dent = GridFunction(g2, 1.0 - 0.9 * z ** 2)
    evs = [evaluate(spec, h, 0.0) for h in (dent, constant_function(g2, 1.1))]
    margins = [admissibility_margin(spec, ev.h) for ev in evs]
    assert all(np.array_equal(ev.margin, m) for ev, m in zip(evs, margins))

    def no_margin(lam, k):
        raise AssertionError("assemble_jacobian evaluated Gamma_k itself")

    monkeypatch.setattr(problem, "in_gamma_k", no_margin)
    monkeypatch.setattr(problem, "_prefix_sigmas", no_margin)
    with pytest.raises(AdmissibilityError) as given:
        assemble_jacobian(spec, evs[0])
    worst = int(np.argmin(margins[0]))
    assert (str(given.value), given.value.node, given.value.margin) \
        == ("b(h) leaves Gamma_k", worst, float(margins[0][worst]))
    assert given.value.margin < 0
    J = assemble_jacobian(spec, evs[1])
    assert J.shape == (g2.node_count, g2.node_count)


def _per_call_jacobian(spec, h, t):
    # the earlier assembly, kept as the reference: every composite operator
    # rebuilt by sparse products on each call
    from scipy import sparse

    from cmkit.sphere import hessian_field

    g = spec.grid
    N = g.node_count
    mats = g.operator_matrices()
    hf = hessian_field(h)
    D = sparse.diags_array
    eye = sparse.identity(N, format="csr")
    if g.n == 1:
        JA = mats["lon2"] + eye
    else:
        c = hf.components
        S11, S12, S22 = c["b22"].ravel(), -c["b12"].ravel(), c["b11"].ravel()
        if spec.k == 1:
            S11, S12, S22 = np.ones(N), np.zeros(N), np.ones(N)
        lat1, lat2 = mats["lat1"], mats["lat2"]
        lon1, lon2 = mats["lon1"], mats["lon2"]
        invcos = np.repeat(g.invcos, g.m_lon)
        tanlat = np.repeat(g.tanlat, g.m_lon)
        hess11 = lat2 + eye
        hess12 = D(invcos) @ ((lat1 + D(tanlat)) @ lon1)
        hess22 = D(invcos ** 2) @ lon2 - D(tanlat) @ lat1 + eye
        JA = D(S11) @ hess11 + D(2.0 * S12) @ hess12 + D(S22) @ hess22
    ft = homotopy_f(spec, t).values
    hv = h.values
    rho2 = hv ** 2 + hf.grad_norm_sq()
    c1 = ft * (spec.p - 1.0) * hv ** (spec.p - 2.0) \
        * rho2 ** (0.5 * (spec.k + 1.0 - spec.q))
    c2 = ft * (spec.k + 1.0 - spec.q) * hv ** (spec.p - 1.0) \
        * rho2 ** (0.5 * (spec.k - 1.0 - spec.q))
    JB = D(c1 + c2 * hv)
    if g.n == 1:
        JB = JB + D(c2 * hf.grad[:, 0]) @ mats["lon1"]
    else:
        JB = (JB + D(c2 * hf.grad[:, 0]) @ mats["lat1"]
              + D(c2 * hf.grad[:, 1] * np.repeat(g.invcos, g.m_lon))
              @ mats["lon1"])
    return (JA - JB).toarray()


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
def test_jacobian_matches_per_call_assembly(g1, n, k):
    # assembly from the cached frame operators reproduces the per-call
    # formula at a non-axisymmetric h, up to summation order
    g = g1 if n == 1 else build_grid(2, m_lat=16, m_lon=32)
    spec = ProblemSpec(n=n, k=k, p=1.4, q=2.3, f=constant_function(g, 1.3))
    h = GridFunction(g, 1.0 + smooth_field(g, 70 + k))
    J = assemble_jacobian(spec, evaluate(spec, h, 0.6))
    J = J.toarray() if hasattr(J, "toarray") else J
    ref = _per_call_jacobian(spec, h, 0.6)
    assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref))


def _csr_frame_operators(g):
    # the earlier CSR frame operators, kept as the reference: the operator
    # matrices composed by sparse products
    from scipy import sparse

    mats = g.operator_matrices()
    eye = sparse.identity(g.node_count, format="csr")
    if g.n == 1:
        ops = {"hess11": mats["lon2"] + eye, "grad1": mats["lon1"]}
    else:
        D = sparse.diags_array
        lat1, lon1 = mats["lat1"], mats["lon1"]
        invcos = np.repeat(g.invcos, g.m_lon)
        tanlat = np.repeat(g.tanlat, g.m_lon)
        ops = {
            "hess11": mats["lat2"] + eye,
            "hess12": D(invcos) @ ((lat1 + D(tanlat)) @ lon1),
            "hess22": D(invcos ** 2) @ mats["lon2"] - D(tanlat) @ lat1 + eye,
            "grad1": lat1,
            "grad2": D(invcos) @ lon1,
        }
    return {key: sparse.csr_array(op) for key, op in ops.items()}


def _csr_jacobian(ops, weights):
    # the earlier CSR assembly: every frame operator row-scaled and added
    from scipy import sparse

    J = sparse.diags_array(weights["diag"], format="csr")
    for key in ("hess11", "grad1", "grad2", "hess22", "hess12"):
        if key in weights:
            J = J + sparse.diags_array(weights[key]) @ ops[key]
    return sparse.csr_array(J)


def _csr_frame_symbols(g, ops):
    # symbols read from the first row of each ring of the CSR operators
    from cmkit.sphere import RING_REACH

    M, L = g.shape
    syms = {}
    for key, op in ops.items():
        rows = op[np.arange(M) * L].tocoo()
        ring, lon = np.divmod(rows.col, L)
        taps = np.zeros((2 * RING_REACH + 1, M, L))
        np.add.at(taps, (ring - rows.row + RING_REACH, rows.row, lon), rows.data)
        syms[key] = np.conj(np.fft.rfft(taps, axis=-1))
    return syms


def _tilted_iterate(g, k, tilt):
    u = g.coords[:, -1] if g.n == 1 else g.coords @ np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    spec = ProblemSpec(n=g.n, k=k, p=1.2, q=k + 0.5,
                       f=GridFunction(g, (1.0 + 0.5 * u ** 2) ** (-(k + 0.2))))
    return spec, GridFunction(g, 1.0 + 0.05 * u ** 2)


@pytest.mark.parametrize("k,tilt", [(1, 0.0), (2, 0.0), (1, 0.4), (2, 0.4)],
                         ids=lambda v: str(v))
@pytest.mark.parametrize("shape", [(16, 32), (32, 64)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_matrix_free_jacobian_matches_csr_assembly(shape, k, tilt):
    # J.v, the Newton scale and the frame symbols against the earlier CSR
    # assembly, for polar and tilted data; only the summation order
    # differs.  The scale, the infinity norm of the ring-averaged
    # operator, is at most J's and equal to it on polar data
    from cmkit.problem import LinearizedOperator, linearization_weights, ring_blocks, ring_taps

    g = build_grid(2, m_lat=shape[0], m_lon=shape[1])
    spec, h = _tilted_iterate(g, k, tilt)
    weights = linearization_weights(spec, evaluate(spec, h, 0.5))
    ops = _csr_frame_operators(g)
    ref = _csr_jacobian(ops, weights)
    J = assemble_jacobian(spec, evaluate(spec, h, 0.5))
    assert isinstance(J, LinearizedOperator) and J.shape == ref.shape
    scale = np.max(np.abs(ref).sum(axis=1))
    ring = _newton_scale(J)
    assert ring <= scale * (1.0 + 1e-14)
    if tilt == 0.0:
        assert abs(ring - scale) <= 1e-14 * scale
    rng = np.random.default_rng(7)
    for v in (np.ones(g.node_count), rng.standard_normal(g.node_count),
              np.sin(np.arange(g.node_count))):
        assert np.max(np.abs(J.dot(v) - ref @ v)) <= 1e-14 * scale * np.max(np.abs(v))
    N = g.node_count
    for key, sym in _csr_frame_symbols(g, ops).items():
        got = ring_blocks(ring_taps(g, {key: np.ones(N), "diag": np.zeros(N)}))
        assert np.max(np.abs(got - sym)) <= 1e-14 * np.max(np.abs(sym))
    # the mixed and longitude-gradient weights vanish on axisymmetric data
    zero = {key for key in ("grad2", "hess12") if key in weights and not weights[key].any()}
    if tilt == 0.0:
        assert zero == ({"grad2", "hess12"} if k == 2 else {"grad2"})
    else:
        assert zero == set()


def _newton_scale(J):
    # the scale newton.solve_linear gives J, caught where it builds the
    # preconditioner
    from cmkit import newton

    class Caught(Exception):
        pass

    def catch(blocks, scale):
        raise Caught(scale)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(newton, "_ring_preconditioner", catch)
        with pytest.raises(Caught) as caught:
            newton.solve_linear(J, np.ones(J.shape[0]))
    return caught.value.args[0]


def _dense_abs_row_sums(J):
    # the reference: abs row sums of the dense rows toarray() places; read
    # ring by ring from those same rows above 4096 nodes, where the N x N
    # array would take 512 MB
    if J.shape[0] <= 4096:
        return np.abs(J.toarray()).sum(axis=1)
    return np.concatenate([np.abs(P).sum(axis=1) for _, _, P in J._ring_rows()])


NORM_CASES = [((64,), 1, 0.0), ((256,), 1, 0.0)] + [
    (shape, k, tilt) for shape in ((9, 16), (16, 32), (17, 32), (33, 64), (64, 128))
    for k in (1, 2) for tilt in (0.0, 0.4)]


@pytest.mark.parametrize("shape,k,tilt", NORM_CASES,
                         ids=["x".join(map(str, s)) + f"-{k}-{t}" for s, k, t in NORM_CASES])
def test_newton_scale_is_the_norm_of_the_ring_average(shape, k, tilt):
    # the scale of the Newton step against the dense rows, at a polar or
    # tilted iterate and with random-sign weights, which reach both pole
    # rings: it is the infinity norm of the operator of the ring means of
    # the weights, at most J's own, and J's own where the weights are
    # constant along rings (polar iterates on S^2)
    from cmkit.problem import LinearizedOperator, linearization_weights

    if len(shape) == 1:
        g = build_grid(1, m_theta=shape[0])
    else:
        g = build_grid(2, m_lat=shape[0], m_lon=shape[1])
    spec, h = _tilted_iterate(g, k, tilt)
    weights = linearization_weights(spec, evaluate(spec, h, 0.5))
    rng = np.random.default_rng(len(shape) * 100 + k)
    signed = {key: rng.standard_normal(w.size) for key, w in weights.items()}
    rings = g.shape[0] if g.n == 2 else 1
    for w in (weights, signed):
        means = {key: np.repeat(v.reshape(rings, -1).mean(axis=1), v.size // rings)
                 for key, v in w.items()}
        scale = _newton_scale(LinearizedOperator(g, w))
        ring = _dense_abs_row_sums(LinearizedOperator(g, means)).max()
        norm = _dense_abs_row_sums(LinearizedOperator(g, w)).max()
        assert abs(scale - ring) <= 1e-14 * ring
        assert scale <= norm * (1.0 + 1e-14)
        if w is weights and g.n == 2 and tilt == 0.0:
            assert abs(scale - norm) <= 1e-14 * norm


@pytest.mark.parametrize("shape,k", [((64,), 1), ((512,), 1), ((8, 16), 1), ((8, 16), 2),
                                     ((9, 16), 1), ((9, 16), 2)],
                         ids=["c64-1", "c512-1", "8x16-1", "8x16-2", "9x16-1", "9x16-2"])
def test_dense_jacobian_matches_csr_assembly(shape, k):
    # the matrix-free Jacobians on the circle and on small sphere grids
    # against the earlier CSR assembly: toarray(), formed from the frame
    # taps, and J.v
    from cmkit.problem import LinearizedOperator, linearization_weights

    if len(shape) == 1:
        g = build_grid(1, m_theta=shape[0])
    else:
        g = build_grid(2, m_lat=shape[0], m_lon=shape[1])
    spec, h = _tilted_iterate(g, k, 0.4)
    ref = _csr_jacobian(_csr_frame_operators(g),
                        linearization_weights(spec, evaluate(spec, h, 0.5))).toarray()
    J = assemble_jacobian(spec, evaluate(spec, h, 0.5))
    assert isinstance(J, LinearizedOperator)
    assert np.max(np.abs(J.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))
    scale = np.max(np.abs(ref).sum(axis=1))
    v = np.random.default_rng(7).standard_normal(g.node_count)
    assert np.max(np.abs(J.dot(v) - ref @ v)) <= 1e-14 * scale * np.max(np.abs(v))


@pytest.mark.parametrize("n,shape,solved", [
    (1, (512,), True), (2, (8, 16), True), (2, (8, 32), True),
    (2, (12, 24), False), (2, (16, 32), False)])
def test_jacobian_representation(n, shape, solved):
    # a matrix-free operator on every grid; on the circle and the grids of
    # at most 256 nodes a GMRES solve also meets backward error 1e-10
    from cmkit.newton import solve_linear
    from cmkit.problem import LinearizedOperator

    if n == 1:
        g = build_grid(1, m_theta=shape[0])
    else:
        g = build_grid(2, m_lat=shape[0], m_lon=shape[1])
    spec = ProblemSpec(n=n, k=1, p=1.5, q=2.0, f=constant_function(g, 1.0))
    J = assemble_jacobian(spec, evaluate(spec, constant_function(g, 1.0), 0.0))
    assert isinstance(J, LinearizedOperator)
    assert J.shape == (g.node_count,) * 2 and J.nnz > 0
    v = np.cos(np.arange(g.node_count))
    A = J.toarray()
    scale = np.max(np.abs(A).sum(axis=1))
    assert_allclose(J.dot(v), A @ v, rtol=0, atol=1e-13 * scale)
    if solved:
        x = solve_linear(J, v)
        assert np.max(np.abs(A @ x - v)) <= 1e-10 * (scale * np.max(np.abs(x))
                                                     + np.max(np.abs(v)))


# ---------------------------------------------------------------------------
# data admissibility report
# ---------------------------------------------------------------------------

def test_f1_constant_data(g2):
    spec = ProblemSpec(n=2, k=1, p=1.5, q=2.0, f=constant_function(g2, 3.0))
    rep = validate_f1(spec)
    assert rep["satisfied"]
    g_const = 3.0 ** (-1.0 / (spec.k + spec.p - 1))
    assert_allclose(rep["worst_margin"], g_const, rtol=1e-12)


def test_f1_quadratic_families(g2):
    # g = 1 + a <x,v>^2: mild a keeps b(g) >= 0, large a breaks it
    u = g2.coords @ np.array([0.0, 0.0, 1.0])
    k, p = 1, 1.5
    for a, ok in [(0.5, True), (5.0, False)]:
        f = GridFunction(g2, (1 + a * u ** 2) ** (-(k + p - 1)))
        spec = ProblemSpec(n=2, k=k, p=p, q=2.0, f=f)
        rep = validate_f1(spec)
        assert rep["satisfied"] == ok
        if not ok:
            assert rep["worst_margin"] < 0
            assert 0 <= rep["worst_node"] < g2.node_count


@pytest.mark.parametrize("axis, evaluations", [(f"{math.sin(0.4)}, 0.0, {math.cos(0.4)}", []),
                                               ("0, 0, 1", [(32, 64)])])
def test_solve_reads_the_correctors_evaluation_of_its_answer(tmp_path, monkeypatch, axis,
                                                             evaluations):
    # a sequenced solve ends in a Newton solve at t = 1 on the requested
    # grid, whose Evaluation of the answer the report, the diagnostics and
    # the mesh read: nothing is evaluated after the path, and the files are
    # those of evaluating the answer again.  A ring-grid answer, broadcast
    # to the full grid, is evaluated there once.
    import json

    from cmkit import cli, continuation

    cfg = tmp_path / "solve.cfg"
    cfg.write_text("n = 2\nk = 2\np = 1.5\nq = 2.5\ngrid.m_lat = 32\ngrid.m_lon = 64\n"
                   f"f.kind = quadratic\nf.a = 0.5\nf.axis = {axis}\n"
                   "out.dir = out\nout.mesh = true\n")
    calls = []

    def spy(spec, h, t):
        calls.append(spec.grid.shape)
        return evaluate(spec, h, t)

    def read_outputs():
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        report.pop("wall_time")
        return report, (out / "mesh.obj").read_bytes(), (out / "solution.csv").read_bytes()

    monkeypatch.setattr(cli, "evaluate", spy)
    assert cli.main(["solve", str(cfg)]) == 0
    assert calls == evaluations
    carried = read_outputs()
    assert carried[0]["solve_grid"] == ([16, 32] if not evaluations else [32, 8])

    # as before the Evaluation was carried: the answer evaluated again
    def without_evaluation(spec):
        trace = continuation.continue_path(spec)
        trace.ev = None
        return trace

    calls.clear()
    monkeypatch.setattr(cli, "continue_path", without_evaluation)
    assert cli.main(["solve", str(cfg)]) == 0
    assert calls == [(32, 64)]
    assert read_outputs() == carried
