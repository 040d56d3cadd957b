"""
Damped Newton corrector for the discrete equation at fixed t.

Safeguards per step: positivity of the iterate, Gamma_k admissibility of
b(iterate), residual decrease (Armijo-like on the sup norm), and an exact
evenness projection.

The Newton step: dense Jacobians (circle, small grids) are factored by
LAPACK LU.  The matrix-free sphere Jacobian is solved by GMRES (Knoll &
Keyes, JCP 2004), right-preconditioned with the ring-averaged Jacobian:
with every coefficient replaced by its ring mean, a real FFT in longitude
splits the operator into m_lon/2 + 1 banded blocks, one per Fourier mode
(problem.ring_blocks), whose exact inverse is the preconditioner.  For
axisymmetric iterates and data it is J^-1.

The GMRES step is inexact (Dembo, Eisenstat & Steihaug 1982): it only has
to bring |J delta + F|_inf below eta_k |F|_inf, where the forcing term
eta_k follows Eisenstat & Walker's choice 2 (SIAM J. Sci. Comput. 17,
1996) with Kelley's safeguards (Iterative Methods for Linear and
Nonlinear Equations, 1995, section 6.3), all in the sup norm of the
stopping test:

    eta_0 = ETA_MAX
    eta_A = FORCING_GAMMA * (|F_k| / |F_k-1|)^2
    eta_B = eta_A                             if FORCING_GAMMA eta_k-1^2 <= 0.1
          = max(eta_A, FORCING_GAMMA eta_k-1^2) otherwise
    eta_k = min(ETA_MAX, max(eta_B, 0.5 tol_newton / |F_k|))

Far from the solution a step is solved loosely; near it eta_k shrinks
with the square of the residual ratio, which keeps the quadratic tail.
Convergence is still decided by the nonlinear residual against
tol_newton.  A step whose GMRES misses its target raises
SingularJacobianError, and continuation halves its step.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import linalg as sla
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import AdmissibilityError, DomainError, SingularJacobianError
from .problem import (
    LinearizedOperator,
    admissibility_margin,
    assemble_jacobian,
    residual,
    ring_blocks,
)
from .sphere import GridFunction, even_project, hessian_field, odd_defect

# line-search controls
ALPHA_MIN = 1e-6
DECREASE_SLOPE = 1e-4
MARGIN_FLOOR = 1e-10  # Gamma_k margin kept strictly off the cone boundary

# linear solve
PIVOT_RTOL = 1e-13  # smallest pivot allowed, relative to norm(J, inf)
KRYLOV_TARGET = 1e-16  # estimated normwise backward error GMRES stops at
KRYLOV_MAX_ITER = 40  # GMRES iterations before the step counts as failed
FORCING_GAMMA = 0.9  # Eisenstat-Walker choice 2: eta_A = gamma (|F_k|/|F_k-1|)^2
ETA_MAX = 0.1  # largest forcing term, and the first one


@dataclass
class NewtonResult:
    h: GridFunction
    converged: bool
    iterations: int
    final_linf: float
    min_admissibility_margin: float
    min_b_eig: float  # smallest eigenvalue of b(h) over the nodes
    step_history: list = field(default_factory=list)  # (alpha, residual linf)
    message: str = ""
    krylov_iterations: int = 0  # GMRES iterations over all Newton steps


def _ring_preconditioner(blocks, scale):
    """Inverse of the ring-averaged Jacobian, one longitude mode at a time.

    blocks is the output of problem.ring_blocks.  Factors the banded
    block of every mode once, with SuperLU on their block-diagonal sum in
    natural order, and returns v -> P^-1 v (rfft along longitude, the
    block solves, irfft).  Raises SingularJacobianError when a pivot falls
    below PIVOT_RTOL * |J| (scale).
    """
    width, M, K = blocks.shape
    L = 2 * (K - 1)
    offs = np.arange(width) - width // 2
    # mode-major numbering m * M + j; keep the band entries inside a block
    o_idx, j = np.nonzero((np.arange(M) + offs[:, None] >= 0)
                          & (np.arange(M) + offs[:, None] < M))
    rows = (np.arange(K)[:, None] * M + j).ravel()
    cols = rows + np.tile(offs[o_idx], K)
    P = sparse.csc_array((blocks[o_idx, j].T.ravel(), (rows, cols)),
                         shape=(K * M, K * M))
    try:
        lu = spla.splu(P, permc_spec="NATURAL")
    except RuntimeError:  # exactly singular
        lu = None
    if lu is None or np.abs(lu.U.diagonal()).min() < PIVOT_RTOL * scale:
        raise SingularJacobianError(
            f"ring preconditioner pivot below 1e-13 * |J| = {PIVOT_RTOL * scale:.3e}")

    def apply(v):
        V = np.fft.rfft(v.reshape(M, L), axis=1)
        X = lu.solve(np.ascontiguousarray(V.T).ravel()).reshape(K, M)
        return np.fft.irfft(X.T, n=L, axis=1).ravel()
    return apply


def _gmres(matvec, rhs, precond, scale, eta=0.0):
    """Right-preconditioned GMRES for J x = rhs (Saad & Schultz 1986).

    Stops when the Arnoldi estimate of |rhs - J x|_2 meets the larger of
    KRYLOV_TARGET * (scale * |x|_inf + |rhs|_inf), a normwise backward
    error, and eta * |rhs|_inf, the forcing term of an inexact Newton
    step.  The 2-norm estimate bounds the max-norm residual that
    solve_linear checks, and unlike the computed residual it has no
    rounding floor: that floor is near the unit roundoff on some
    Jacobians, so a tight target on the computed residual would often be
    missed by luck.  Returns (x, iterations); raises SingularJacobianError
    when KRYLOV_MAX_ITER iterations do not reach the target or J P^-1 is
    numerically singular on the Krylov space.
    """
    m = KRYLOV_MAX_ITER
    V = np.empty((m + 1, rhs.size))
    Z = np.empty((m, rhs.size))
    R = np.zeros((m, m))
    g = np.zeros(m + 1)
    cs = np.zeros(m)
    sn = np.zeros(m)
    bnorm = np.max(np.abs(rhs))
    g[0] = np.linalg.norm(rhs)
    if g[0] == 0.0:
        return np.zeros(rhs.size), 0
    V[0] = rhs / g[0]
    for k in range(m):
        Z[k] = precond(V[k])
        w = matvec(Z[k])
        # classical Gram-Schmidt, applied twice
        h = V[:k + 1] @ w
        w = w - h @ V[:k + 1]
        h2 = V[:k + 1] @ w
        w -= h2 @ V[:k + 1]
        col = np.append(h + h2, np.linalg.norm(w))
        if col[-1] > 0.0:
            V[k + 1] = w / col[-1]
        for i in range(k):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  cs[i] * col[i + 1] - sn[i] * col[i])
        d = math.hypot(col[k], col[k + 1])
        if d == 0.0:  # J P^-1 maps the Krylov space into a smaller one
            break
        cs[k], sn[k] = col[k] / d, col[k + 1] / d
        R[:k + 1, k] = col[:k + 1]
        R[k, k] = d
        g[k + 1] = -sn[k] * g[k]
        g[k] *= cs[k]
        Rk = R[:k + 1, :k + 1]
        x = sla.solve_triangular(Rk, g[:k + 1]) @ Z[:k + 1]
        target = max(KRYLOV_TARGET * (scale * np.max(np.abs(x)) + bnorm), eta * bnorm)
        if abs(g[k + 1]) <= target:
            # J P^-1 on the Krylov space: a singular J makes it singular,
            # while on a good preconditioner its condition is near 1
            svals = np.linalg.svd(Rk, compute_uv=False)
            if svals[-1] >= PIVOT_RTOL * svals[0]:
                return x, k + 1
            break
    raise SingularJacobianError(
        f"GMRES missed backward error {KRYLOV_TARGET:g} and forcing term "
        f"eta = {eta:.3g} after {k + 1} iterations")


def solve_linear(J, rhs, blocks=None, eta=0.0, stats=None):
    """Solve J x = rhs and verify x.

    A dense J is factored by LAPACK LU with partial pivoting and one
    refinement step if needed; it ignores eta.  A problem.LinearizedOperator
    is solved by GMRES, preconditioned with the inverse of blocks
    (problem.ring_blocks of J's weights when not given), to KRYLOV_TARGET
    or to the forcing term eta within KRYLOV_MAX_ITER iterations.  x is
    accepted when its normwise backward error is at most 1e-10 or, on the
    matrix-free path, when |J x - rhs|_inf <= eta * |rhs|_inf.  With
    eta = 0 the step is solved to KRYLOV_TARGET.  A pivot below
    PIVOT_RTOL * norm(J, inf), a missed target or an x that meets neither
    bound raises SingularJacobianError; a non-finite J raises ValueError
    first.  stats, when given, is a dict whose "krylov_iterations" entry
    grows by the GMRES iterations spent (none on the dense path).
    """
    rhs = np.asarray(rhs, dtype=float)
    dense = not isinstance(J, LinearizedOperator)
    J = np.asarray(J, dtype=float) if dense else J
    scale = np.max(np.abs(J).sum(axis=1)) if dense else J.norm_inf()
    if not np.isfinite(scale):
        raise ValueError("Jacobian has non-finite entries")
    bnorm = np.max(np.abs(rhs))

    def backward(xv):
        r = J.dot(xv) - rhs
        denom = scale * np.max(np.abs(xv)) + bnorm + 1e-300
        return np.max(np.abs(r)) / denom, r

    if dense:
        with warnings.catch_warnings():
            # singularity is detected by the pivot check below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv_idx = sla.lu_factor(J)
        piv = np.abs(np.diag(lu))
        if piv.min() < PIVOT_RTOL * scale:
            raise SingularJacobianError(
                f"pivot {piv.min():.3e} below 1e-13 * |J| = {PIVOT_RTOL * scale:.3e}",
                matrix=J)
        solve = partial(sla.lu_solve, (lu, piv_idx))
        x = solve(rhs)
        be, r = backward(x)
        if not (be <= 1e-10):
            x = x - solve(r)
            be, _ = backward(x)
        forced = False  # LU ignores eta
    else:
        if blocks is None:
            blocks = ring_blocks(J.grid, J.weights)
        x, iterations = _gmres(J.dot, rhs, _ring_preconditioner(blocks, scale),
                               scale, eta)
        if stats is not None:
            stats["krylov_iterations"] += iterations
        be, r = backward(x)
        forced = np.max(np.abs(r)) <= eta * bnorm
    if not (be <= 1e-10 or forced):
        forcing = "" if dense else f" and |J x - rhs| misses eta = {eta:.3g} * |rhs|"
        raise SingularJacobianError(
            f"backward error {be:.3e} does not meet 1e-10{forcing}; "
            "matrix effectively singular")
    return x


def _newton_step(spec, h, t, hf, res, eta, stats):
    """Solve J(h) delta = -res to the forcing term eta, with
    hf = hessian_field(h) from the caller; GMRES iterations go to stats."""
    return solve_linear(assemble_jacobian(spec, h, t, hf), -res, eta=eta, stats=stats)


def _forcing_term(eta_prev, linf, linf_prev, tol):
    """Next forcing term from the last one and the residuals |F_k|,
    |F_k-1|: Eisenstat-Walker choice 2 with Kelley's safeguards."""
    eta = FORCING_GAMMA * (linf / linf_prev) ** 2
    floor = FORCING_GAMMA * eta_prev ** 2
    if floor > 0.1:
        eta = max(eta, floor)
    return min(ETA_MAX, max(eta, 0.5 * tol / linf))


def _result(spec, h, hf, rep, iterations, history, stats, message=""):
    return NewtonResult(
        h=h, converged=rep.linf <= spec.tol_newton, iterations=iterations,
        final_linf=rep.linf,
        min_admissibility_margin=float(np.min(admissibility_margin(spec, h, hf))),
        min_b_eig=float(np.min(hf.lam[:, 0])),
        step_history=history, message=message,
        krylov_iterations=stats["krylov_iterations"])


def newton_solve(spec, h0, t):
    """Run the damped Newton iteration from h0 at continuation parameter t.

    b(h) is evaluated once per iterate: one hessian_field per line-search
    candidate feeds its margin check, its residual, the next Jacobian and
    the result's margin and min_b_eig.  Each Newton step is solved to
    the forcing term of the module docstring.
    """
    v = h0.values
    if np.any(v <= 0):
        i = int(np.argmin(v))
        raise DomainError("initial iterate must be positive",
                          node=i, value=float(v[i]))
    if odd_defect(h0) > 1e-12:
        raise ValueError("initial iterate must be even "
                         f"(antipodal defect {odd_defect(h0):.3e})")
    h = even_project(h0)
    hf = hessian_field(h)
    # even_project is idempotent, so an even h0 is h bitwise
    hf0 = hf if np.array_equal(h.values, v) else hessian_field(h0)
    margin0 = admissibility_margin(spec, h0, hf0)
    if np.min(margin0) <= 0:
        i = int(np.argmin(margin0))
        raise AdmissibilityError("initial iterate is not k-admissible",
                                 node=i, margin=float(margin0[i]))

    rep = residual(spec, h, t, hf)
    history = []
    stats = {"krylov_iterations": 0}
    eta = ETA_MAX
    for it in range(spec.max_newton):
        if rep.linf <= spec.tol_newton:
            return _result(spec, h, hf, rep, it, history, stats)
        if it > 0:
            eta = _forcing_term(eta, rep.linf, prev_linf, spec.tol_newton)

        delta = _newton_step(spec, h, t, hf, rep.residual.values, eta, stats)

        alpha = 1.0
        accepted = None
        while alpha >= ALPHA_MIN:
            cand = even_project(GridFunction(spec.grid, h.values + alpha * delta))
            if np.all(cand.values > 0):
                cand_hf = hessian_field(cand)
                margin = admissibility_margin(spec, cand, cand_hf)
                if np.min(margin) > MARGIN_FLOOR:
                    cand_rep = residual(spec, cand, t, cand_hf)
                    if cand_rep.linf <= (1.0 - DECREASE_SLOPE * alpha) * rep.linf:
                        accepted = (cand, cand_hf, cand_rep)
                        break
            alpha *= 0.5
        if accepted is None:
            return _result(spec, h, hf, rep, it, history, stats,
                           message=f"line search failed at alpha < {ALPHA_MIN:g} "
                                   f"(residual stuck at {rep.linf:.3e})")
        prev_linf = rep.linf
        h, hf, rep = accepted
        history.append((alpha, rep.linf))

    converged = rep.linf <= spec.tol_newton
    return _result(spec, h, hf, rep, spec.max_newton, history, stats,
                   message="" if converged else
                   f"no convergence in {spec.max_newton} iterations "
                   f"(residual {rep.linf:.3e})")
