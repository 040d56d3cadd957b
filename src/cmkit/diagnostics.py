"""
Executable counterparts of the a-priori estimates, plus manufactured
solutions, the linearized spectrum at the trivial solution, and the
isotropic (constant data) experiment.

The checks on a solution read its problem.Evaluation, the record the
corrector and the report use too: run_diagnostics takes the radius and
zeta bounds from it and runs the af check only where its Gamma_k margin
is positive.  manufacture() is that Evaluation at t = 1 with f = 1.

Everything here measures; nothing gates.  The estimates behind the solver
are existential ("there is a constant such that..."), so the report
carries the measured ratios and leaves pass/fail judgments to the tests,
which pin regression ceilings instead of guessing constants.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import AdmissibilityError
from .continuation import continue_path
from .newton import newton_solve
from .problem import (ProblemSpec, admissibility_margin, ellipticity_weights, evaluate,
                      linearization_weights, parity_fold, ring_blocks, ring_taps)
from .sphere import (
    GridFunction,
    constant_function,
    even_project,
    hessian_field,
    integrate_values,
    odd_defect,
)
from .symfunc import _prefix_sigmas


# ---------------------------------------------------------------------------
# solution diagnostics
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsReport:
    R: float            # max h
    r: float            # min h
    ratio: float        # R / r
    zeta_max: float     # max (h^2 + |grad h|^2) / h^gamma, None if p <= 1
    zeta_bound_ratio: float  # zeta_max / (R^2 / R^gamma), None if p <= 1
    c2_quantity: float  # max (lap h + n h)
    min_b_eig: float
    gamma_used: float   # None if p <= 1
    f1_satisfied: bool
    af_check: dict      # outcome of af_inequality_check, None if inadmissible
    note: str = ""

    def to_dict(self):
        d = asdict(self)
        if not self.note:
            del d["note"]
        return d


def _default_testfn(grid):
    # deterministic generic even test function for the report's af entry
    if grid.n == 1:
        return GridFunction(grid, np.cos(2.0 * grid.thetas))
    z = grid.coords[:, 2]
    return GridFunction(grid, 0.5 * (3.0 * z ** 2 - 1.0))


def run_diagnostics(spec, ev, f1):
    """Measured shape and admissibility quantities of an iterate.

    ev is the iterate's Evaluation and f1 validate_f1(spec); the radius
    bounds read ev.h, the zeta functional ev.rho2, the eigenvalue and C^2
    quantities ev.hf, and ev.margin decides whether the af check runs.
    """
    v = ev.h.values
    R, r = float(np.max(v)), float(np.min(v))
    notes = []
    if spec.p <= 1.0:
        gamma = zeta_max = zeta_ratio = None
        notes.append("p <= 1: the zeta functional's exponent interval is empty")
    else:
        gamma = (spec.p - 1.0) / spec.k
        zeta_max = float(np.max(ev.rho2 / v ** gamma))
        # bound written as R^2 / R^gamma so the constant solution gives
        # ratio 1.0 exactly rather than to rounding
        zeta_ratio = zeta_max / float(R ** 2 / R ** gamma)

    af = None
    if np.all(ev.margin > 0.0):
        af = af_inequality_check(ev.h, spec.k, _default_testfn(spec.grid), ev.hf)
    else:
        notes.append("b(h) leaves Gamma_k: af check skipped")

    return DiagnosticsReport(
        R=R, r=r, ratio=R / r, zeta_max=zeta_max, zeta_bound_ratio=zeta_ratio,
        c2_quantity=float(np.max(ev.hf.trace())), min_b_eig=float(np.min(ev.hf.lam[:, 0])),
        gamma_used=gamma, f1_satisfied=f1["satisfied"], af_check=af, note="; ".join(notes))


# ---------------------------------------------------------------------------
# weighted Poincare-type inequality
# ---------------------------------------------------------------------------

def af_inequality_check(h, k, testfn, hf):
    """Check k * int(f^2 h sigma_k) <= int(h^2 sigma_k^{ij} grad_i f grad_j f)
    for test functions f with int(f h sigma_k) = 0.

    hf is hessian_field(h); the Gamma_k margin and sigma_k of b(h) come
    from one pass of the elementary symmetric functions.  The zero-mean
    condition is enforced here by subtracting the weighted mean
    (reported).  Equality holds exactly for f = <x/h, v>; the check flags
    near-equality, which the caller certifies with fit_equality_direction.
    """
    g = h.grid
    e = _prefix_sigmas(hf.lam, k)
    margin = e[:, 1:].min(axis=1)
    if not np.all(margin > 0.0):
        i = int(np.argmin(margin))
        raise AdmissibilityError(
            "af check needs b(h) in Gamma_k", node=i, margin=float(margin[i]))

    weight = h.values * e[:, k]
    mean = integrate_values(g, testfn.values * weight) / integrate_values(g, weight)
    f = testfn.values - mean

    # sigma_k^{ij} grad_i f grad_j f, with the linearization's weights
    w = ellipticity_weights(hf, k)
    fg = hessian_field(GridFunction(g, f)).grad
    quad = w["hess11"] * fg[:, 0] ** 2
    if "hess12" in w:
        quad = quad + w["hess12"] * fg[:, 0] * fg[:, 1]
    if "hess22" in w:
        quad = quad + w["hess22"] * fg[:, 1] ** 2

    lhs = k * integrate_values(g, f ** 2 * weight)
    rhs = integrate_values(g, h.values ** 2 * quad)
    slack = rhs - lhs
    equality = slack <= 1e-8 * (1.0 + abs(lhs) + abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "slack": slack,
            "equality_case": equality, "subtracted_mean": mean}


def fit_equality_direction(h, testfn):
    """Least-squares fit of testfn by <x/h, v>; returns (v, relative residual).

    Used to certify af equality cases: the fit residual is small exactly
    when the test function sits in the equality family.
    """
    g = h.grid
    cols = g.coords / h.values[:, None]
    w = np.sqrt(g.weights)
    A = cols * w[:, None]
    b = testfn.values * w
    v, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = np.linalg.norm(A @ v - b)
    return v, float(res / (np.linalg.norm(b) + 1e-300))


# ---------------------------------------------------------------------------
# linearized spectrum at the trivial solution
# ---------------------------------------------------------------------------

def l0_spectrum(spec):
    """Eigenvalues (sorted descending) of the linearization at h = 1, t = 0,
    restricted to the even subspace: N/2 real values, one mode at a time.

    The antipodal map sends ring j to ring M-1-j with the sign (-1)^m in
    longitude mode m, so the even part of mode m is spanned by e_j +
    (-1)^m e_(M-1-j): problem.parity_fold's symmetric block for even m,
    and for odd m its antisymmetric block without odd M's
    middle ring (odd m_lat's equator, the circle's one ring).  Modes other
    than 0 and the Nyquist mode carry a cosine and a sine and count twice.
    At h = 1, t = 0 every weight is one constant, so on S^2 they are
    evaluated on the ring grid and broadcast along the rings.
    """
    g = spec.grid
    at = replace(spec, f=constant_function(g.ring_grid(), 1.0)) if g.n == 2 else spec
    weights = linearization_weights(at, evaluate(at, constant_function(at.grid, 1.0), 0.0))
    if g.n == 2:
        weights = {key: np.broadcast_to(w.reshape(g.m_lat, -1)[:, :1], g.shape)
                   for key, w in weights.items()}
    blocks = ring_blocks(ring_taps(g, weights))
    width, M, K = blocks.shape
    folded = parity_fold(blocks).reshape(width, (M + 1) // 2, 2, K)
    count = np.full(K, 2)
    count[[0, -1]] = 1
    ev = []
    for parity, d in ((0, (M + 1) // 2), (1, M // 2)):
        band = folded[:, :d, parity, parity::2]
        # the dense block of every mode: A[m, j, j + o - width // 2] = band[o, j, m]
        A = sum(band[o].T[:, :, None] * np.eye(d, k=o - width // 2) for o in range(width))
        lam = np.linalg.eigvals(A)
        ev.append(np.repeat(lam.real, count[parity::2], axis=0).ravel())
    # the analytic spectrum is real; discrete asymmetry introduces at most
    # rounding-level imaginary parts on the resolved modes
    return np.sort(np.concatenate(ev))[::-1]


def l0_top_eigenvalue_analytic(spec):
    """binom(n-1,k-1) * n (q-p) / k: the constant-mode eigenvalue at h=1."""
    return math.comb(spec.n - 1, spec.k - 1) * spec.n * (spec.q - spec.p) / spec.k


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

def manufacture(h_star, k, p, q):
    """Data f making the even h_star an exact discrete solution at t = 1:
    f = sigma_k / rhs of its Evaluation at t = 1 with f = 1, that is
    sigma_k(b(h_star)) / (h_star^(p-1) rho^(k+1-q)) node-wise."""
    g = h_star.grid
    if odd_defect(h_star) > 1e-12:
        raise ValueError("manufactured solution must be even")
    ev = evaluate(ProblemSpec(g.n, k, p, q, constant_function(g, 1.0)), h_star, 1.0)
    if not np.all(ev.margin > 0.0):
        i = int(np.argmin(ev.margin))
        raise AdmissibilityError("manufactured solution is not k-admissible",
                                 node=i, margin=float(ev.margin[i]))
    return GridFunction(g, ev.sigma_k / ev.rhs)


# ---------------------------------------------------------------------------
# isotropic experiment
# ---------------------------------------------------------------------------

def isotropic_q_limit(n, k, p):
    """Upper edge of the q-window with a sphere-uniqueness guarantee."""
    return 3 * k - 2 * n - 1 + 2.0 * math.sqrt(
        (n - k + 1) ** 2 + (k + p - 1) / (n + 2))


def isotropic_experiment(spec, restarts=0, seed=0, amplitude=0.03):
    """Solve with data f = 1 and measure the distance to the round sphere.

    The constant solution is r* = binom(n,k)^(-1/(q-p)).  Reports the
    relative sup-distance of the continuation solution from r*, plus the
    same measure for `restarts` Newton solves started from perturbed
    spheres (even low-degree harmonic perturbations, re-sampled if the
    start leaves the admissible cone; AdmissibilityError after 50 draws).
    A failed path gives error inf and runs no restarts.
    """
    if spec.q == spec.p:
        raise ValueError("q = p: the target radius is undefined")
    if not np.all(spec.f.values == 1.0):
        raise ValueError("isotropic experiment requires f identically 1")
    g = spec.grid
    window_ok = (1 - spec.k <= spec.p) and \
        (spec.q <= isotropic_q_limit(spec.n, spec.k, spec.p))

    r_star = spec.binom_nk ** (-1.0 / (spec.q - spec.p))
    tr = continue_path(spec)
    err = float(np.max(np.abs(tr.h.values - r_star)) / r_star) if tr.success else float("inf")

    rng = np.random.default_rng(seed)
    restart_errors = []
    for _ in range(restarts if tr.success else 0):
        for _attempt in range(50):
            h0 = GridFunction(
                g, r_star * (1.0 + _even_harmonic(g, rng, amplitude)))
            h0 = even_project(h0)
            if np.all(h0.values > 0) and np.all(admissibility_margin(spec, h0) > 0):
                break
        else:
            raise AdmissibilityError(f"no perturbed start of amplitude {amplitude:g} "
                                     "is k-admissible in 50 draws")
        res = newton_solve(spec, h0, 1.0)
        if res.converged:
            restart_errors.append(
                float(np.max(np.abs(res.h.values - r_star)) / r_star))
        else:
            restart_errors.append(float("inf"))

    return {"h_final": tr.h, "sphere_radius_error": err,
            "window_ok": window_ok,
            "q_limit": isotropic_q_limit(spec.n, spec.k, spec.p),
            "restart_errors": restart_errors, "trace": tr}


def _even_harmonic(g, rng, amplitude):
    """Random even combination of degree-2 harmonics, sup-normalized."""
    if g.n == 1:
        th = g.thetas
        c = rng.standard_normal(2)
        u = c[0] * np.cos(2 * th) + c[1] * np.sin(2 * th)
    else:
        x, y, z = g.coords.T
        c = rng.standard_normal(5)
        u = (c[0] * 0.5 * (3 * z ** 2 - 1) + c[1] * x * y + c[2] * x * z
             + c[3] * y * z + c[4] * (x ** 2 - y ** 2))
    return amplitude * u / np.max(np.abs(u))
