"""
Elementary symmetric functions of eigenvalue vectors.

sigma_k is evaluated by the prefix-polynomial recurrence (expanding
prod(x + lam_i) one factor at a time), which is O(n k), cancellation-free
beyond the data's own, and exact for constant vectors.  The matrix
derivative sigma_k^{ij} at b(h) is problem.ellipticity_weights, shared by
the linearization and the weighted Poincare check.

All functions accept an arbitrary leading batch shape: lam may be (n,) or
(..., n), and results broadcast accordingly.
"""

import math

import numpy as np

from .errors import AdmissibilityError


def _check_order(n, k, lo=0):
    if not (lo <= k <= n):
        raise ValueError(f"order k={k} out of range [{lo}, {n}]")


def _prefix_sigmas(lam, k):
    """All sigma_j(lam) for j = 0..k; lam (..., n) -> array (..., k+1)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    batch = lam.shape[:-1]
    e = np.zeros(batch + (k + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        li = lam[..., i]
        for j in range(min(i + 1, k), 0, -1):
            e[..., j] += li * e[..., j - 1]
    return e


def sigma_k(lam, k):
    """sigma_k(lam): the sum over all k-element products; sigma_0 = 1."""
    lam = np.asarray(lam, dtype=float)
    _check_order(lam.shape[-1], k)
    out = _prefix_sigmas(lam, k)[..., k]
    return float(out) if out.ndim == 0 else out


def in_gamma_k(lam, k):
    """Membership of lam in the cone Gamma_k = {sigma_i > 0 for i <= k}.

    Returns (ok, margin) with margin = min over i <= k of sigma_i(lam);
    batched input gives boolean and margin arrays.
    """
    lam = np.asarray(lam, dtype=float)
    _check_order(lam.shape[-1], k, lo=1)
    e = _prefix_sigmas(lam, k)
    margin = e[..., 1:k + 1].min(axis=-1)
    ok = margin > 0.0
    if lam.ndim == 1:
        return bool(ok), float(margin)
    return ok, margin


def newton_maclaurin_gap(lam, l, k):
    """[sigma_l/binom(n,l)]^(1/l) - [sigma_k/binom(n,k)]^(1/k), for lam in
    Gamma_k and 1 <= l <= k.  Nonnegative up to rounding for admissible lam."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not (1 <= l <= k <= n):
        raise ValueError(f"need 1 <= l <= k <= n, got l={l}, k={k}, n={n}")
    ok, margin = in_gamma_k(lam, k)
    if not np.all(ok):
        raise AdmissibilityError("eigenvalue vector is not in Gamma_k",
                                 margin=np.min(margin))
    e = _prefix_sigmas(lam, k)
    a = (e[..., l] / math.comb(n, l)) ** (1.0 / l)
    b = (e[..., k] / math.comb(n, k)) ** (1.0 / k)
    out = a - b
    return float(out) if out.ndim == 0 else out
