"""Elementary symmetric function tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cmkit.errors import AdmissibilityError
from cmkit.problem import ellipticity_weights
from cmkit.sphere import HessianField, build_grid
from cmkit.symfunc import in_gamma_k, newton_maclaurin_gap, sigma_k


def sigma_by_enumeration(lam, k):
    # independent oracle: literal sum over k-subsets
    return math.fsum(math.prod(c) for c in itertools.combinations(lam, k))


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_sigma_basic_values():
    assert sigma_k([1, 1, 1], 2) == 3
    assert sigma_k([1, 2, 3], 2) == 11
    assert sigma_k([1, 2, 3], 0) == 1.0
    # identical entries: binom(n,k) r^k
    for n in (2, 3, 5):
        for k in range(n + 1):
            assert_allclose(sigma_k([0.7] * n, k),
                            math.comb(n, k) * 0.7 ** k, rtol=1e-14)


def test_sigma_matches_enumeration():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            lam = rng.standard_normal(n) * 3
            for k in range(n + 1):
                assert_allclose(sigma_k(lam, k), sigma_by_enumeration(lam, k),
                                rtol=1e-12, atol=1e-12)


def test_sigma_order_out_of_range():
    with pytest.raises(ValueError):
        sigma_k([1, 2], 3)
    with pytest.raises(ValueError):
        sigma_k([1, 2], -1)


def test_sigma_batched():
    rng = np.random.default_rng(6)
    lam = rng.standard_normal((7, 4, 3))
    out = sigma_k(lam, 2)
    assert out.shape == (7, 4)
    assert_allclose(out[3, 1], sigma_by_enumeration(lam[3, 1], 2), rtol=1e-12)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_grad_matches_finite_differences():
    # d sigma_k / d lam_i = sigma_{k-1}(lam | i)
    rng = np.random.default_rng(8)
    eps = 1e-5
    for n, k in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        lam = 1.0 + rng.standard_normal(n)
        for i in range(n):
            lp, lm = lam.copy(), lam.copy()
            lp[i] += eps
            lm[i] -= eps
            fd = (sigma_k(lp, k) - sigma_k(lm, k)) / (2 * eps)
            assert_allclose(sigma_k(np.delete(lam, i), k - 1), fd,
                            rtol=1e-6, atol=1e-8)


def test_matrix_grad_closed_forms():
    # sigma_k^{ij} as the linearization's weights (off-diagonal weight
    # doubled), at one random symmetric b placed on every node
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 2))
    b = 0.5 * (a + a.T) + 2 * np.eye(2)
    g = build_grid(2, m_lat=8, m_lon=8)
    comps = {"b11": np.full(g.shape, b[0, 0]), "b12": np.full(g.shape, b[0, 1]),
             "b22": np.full(g.shape, b[1, 1])}
    hf = HessianField(g, np.tile(np.linalg.eigvalsh(b), (g.node_count, 1)), comps)
    # k=1: identity
    w = ellipticity_weights(hf, 1)
    assert w.keys() == {"hess11", "hess22"}
    assert np.all(w["hess11"] == 1.0) and np.all(w["hess22"] == 1.0)
    # k=2: the adjugate; check against finite differences of det
    w = ellipticity_weights(hf, 2)
    S = np.array([[w["hess11"], 0.5 * w["hess12"]],
                  [0.5 * w["hess12"], w["hess22"]]])
    eps = 1e-6
    for i in range(2):
        for j in range(2):
            bp, bm = b.copy(), b.copy()
            bp[i, j] += eps
            bm[i, j] -= eps
            fd = (np.linalg.det(bp) - np.linalg.det(bm)) / (2 * eps)
            assert_allclose(S[i, j], fd, rtol=1e-6)


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------

def test_gamma_k_examples():
    ok, m = in_gamma_k([1.0, 1, 1], 3)
    assert ok and m == 1
    ok, _ = in_gamma_k([-1.0, 5, 5], 1)
    assert ok
    ok, _ = in_gamma_k([-1.0, 5, 5], 2)
    assert ok  # sigma_2 = 15 > 0
    ok, m = in_gamma_k([-1.0, 5, 5], 3)
    assert not ok and m == -25
    ok, m = in_gamma_k([0.0, 1, 1], 2)
    assert ok and m == 1
    ok, _ = in_gamma_k([0.0, 1, 1], 3)
    assert not ok


def test_gamma_nested():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = rng.standard_normal(4) * 2
        prev = True
        for k in range(1, 5):
            ok, _ = in_gamma_k(lam, k)
            # membership can only be lost as k grows
            assert prev or not ok
            prev = ok


# ---------------------------------------------------------------------------
# identity suite (the same relations the acceptance run samples at volume)
# ---------------------------------------------------------------------------

@given(st.integers(2, 5), st.integers(0, 10 ** 9))
@settings(max_examples=50, deadline=None)
def test_identity_suite(n, seed):
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(n) * 2
    s1 = sigma_k(lam, 1)
    for k in range(1, n):
        # deleted[i] = sigma_k(lam | i), grad[i] = sigma_{k-1}(lam | i)
        deleted = np.array([sigma_k(np.delete(lam, i), k) for i in range(n)])
        grad = np.array([sigma_k(np.delete(lam, i), k - 1) for i in range(n)])
        sk1 = sigma_k(lam, k + 1)
        scale = 1 + abs(sk1) + np.abs(lam).max() ** (k + 1)
        # sum_i lam_i sigma_k(lam|i) = (k+1) sigma_{k+1}
        lhs = float(np.dot(lam, deleted))
        assert abs(lhs - (k + 1) * sk1) < 1e-10 * scale
        # sum_i sigma_k(lam|i) over the deleted vectors = (n-k) sigma_k
        tot = math.fsum(deleted)
        assert abs(tot - (n - k) * sigma_k(lam, k)) < 1e-10 * scale
        # sum_i lam_i^2 sigma_{k-1}(lam|i) = sigma_1 sigma_k - (k+1) sigma_{k+1}
        lhs = float(np.dot(lam ** 2, grad))
        rhs = s1 * sigma_k(lam, k) - (k + 1) * sk1
        assert abs(lhs - rhs) < 1e-10 * scale


# ---------------------------------------------------------------------------
# Newton-Maclaurin
# ---------------------------------------------------------------------------

def test_nm_gap_values():
    assert newton_maclaurin_gap([0.7, 0.7, 0.7], 1, 3) == pytest.approx(0, abs=1e-14)
    gap = newton_maclaurin_gap([1.0, 2, 3], 1, 2)
    assert_allclose(gap, 2 - math.sqrt(11 / 3), rtol=1e-12)


def test_nm_gap_requires_admissible():
    with pytest.raises(AdmissibilityError):
        newton_maclaurin_gap([-1.0, 5, 5], 1, 3)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=50, deadline=None)
def test_nm_gap_nonnegative(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        lam = rng.standard_normal(n) + 1.5
        k = int(rng.integers(1, n + 1))
        ok, _ = in_gamma_k(lam, k)
        if not ok:
            continue
        for l in range(1, k + 1):
            assert newton_maclaurin_gap(lam, l, k) >= -1e-12
