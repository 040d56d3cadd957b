"""
Damped Newton corrector for the discrete equation at fixed t.

Safeguards per step: positivity of the iterate, Gamma_k admissibility of
b(iterate), residual decrease (Armijo-like on the sup norm), and an exact
evenness projection.

The Newton step: the matrix-free Jacobian (problem.LinearizedOperator, on
the circle and on every sphere grid) is solved by GMRES (Knoll & Keyes,
JCP 2004), right-preconditioned with the ring-averaged Jacobian: with
every coefficient replaced by its ring mean, a real FFT in longitude
splits the operator into m_lon/2 + 1 banded blocks, one per Fourier mode
(problem.ring_blocks), whose exact inverse is the preconditioner.  For
axisymmetric iterates and data it is J^-1.  Even iterates and data give
the same ring means on rings j and M-1-j, so each block commutes with
that reflection and splits into a symmetric and an antisymmetric block
on half the rings (problem.parity_fold), factored by a banded LU with
partial pivoting (LAPACK gbtrf's scheme) in numpy, vectorized over modes
and parities; no solve imports scipy.  The scale of a step is |A|_inf, the
infinity norm of that ring-averaged operator A (problem.ring_taps),
formed once per J.  Each row of A is the mean of its ring's rows of J,
so |A|_inf <= |J|_inf, equal when the coefficients are constant along
rings: the GMRES target and the backward-error check only get stricter
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 7),
and the pivot test, every pivot of A's blocks (not of J) above
PIVOT_RTOL * |A|_inf, is relative to the matrix actually factored.

The preconditioner is lagged (Knoll & Keyes, section 3; the chord idea
applied to P, Kelley, Solving Nonlinear Equations with Newton's Method,
2003): each newton_solve call builds P from the J of its first Newton
step and reuses it for the later steps, while the scale is recomputed
for every J.  When GMRES with that P misses its target or its x fails
the backward-error check, P is rebuilt from the current J and the step
is solved once more, so only a fresh P declines a step, and every build
runs the pivot check.

The GMRES step is inexact (Dembo, Eisenstat & Steihaug 1982): it only has
to bring |J delta + F|_inf below eta_k |F|_inf, where the forcing term
eta_k follows Eisenstat & Walker's choice 2 (SIAM J. Sci. Comput. 17,
1996) with Kelley's safeguard against oversolving near the solution
(Iterative Methods for Linear and Nonlinear Equations, 1995, section
6.3), all in the sup norm of the stopping test:

    eta_0 = ETA_MAX
    eta_k = min(ETA_MAX, max(FORCING_GAMMA (|F_k| / |F_k-1|)^2,
                             0.5 tol / |F_k|))

Far from the solution a step is solved loosely; near it eta_k shrinks
with the square of the residual ratio, which keeps the quadratic tail.
Convergence is still decided by the nonlinear residual against tol,
the call's target: tol_newton unless the caller gives another.
Continuation gives sqrt(tol_newton) to the steps before t = 1, whose
iterates only seed the next prediction (continuation module docstring).
A step whose GMRES misses its target with a fresh P raises
SingularJacobianError, and continuation halves its step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, SingularJacobianError
from .problem import (Evaluation, assemble_jacobian, evaluate, parity_fold, ring_blocks,
                      ring_taps)
from .sphere import GridFunction, even_project, odd_defect

# line-search controls
ALPHA_MIN = 1e-6
DECREASE_SLOPE = 1e-4
MARGIN_FLOOR = 1e-10  # Gamma_k margin kept strictly off the cone boundary

# linear solve
PIVOT_RTOL = 1e-13  # pivots must exceed this times the inf norm of the ring-averaged J
KRYLOV_TARGET = 1e-16  # estimated normwise backward error GMRES stops at
KRYLOV_MAX_ITER = 40  # GMRES iterations before the step counts as failed
FORCING_GAMMA = 0.9  # Eisenstat-Walker choice 2: eta_A = gamma (|F_k|/|F_k-1|)^2
ETA_MAX = 0.1  # largest forcing term, and the first one
RING_BLOCK = 8  # ring pairs per batched matmul in the preconditioner's substitutions


@dataclass
class NewtonResult:
    h: GridFunction
    converged: bool
    iterations: int
    final_linf: float
    min_b_eig: float  # smallest eigenvalue of b(h) over the nodes
    step_history: list = field(default_factory=list)  # (alpha, residual linf)
    message: str = ""
    krylov_iterations: int = 0  # GMRES iterations over all Newton steps
    preconditioner_builds: int = 0  # ring preconditioners built, rebuilds included
    ev: Evaluation = None  # the Evaluation of h at the call's t


def _band_lu(blocks, rows):
    """Banded LU with partial pivoting of every block at once.

    blocks is (width, M, K) in the layout of problem.ring_blocks; the
    blocks are factored with identity rows M .. rows - 1 appended.  Column
    j has kl = width // 2 entries below the diagonal; as in LAPACK's gbtrf
    its pivot is the largest of rows j .. j + kl, swapped into row j, and
    the swaps give U 2 kl superdiagonals.  Returns U as (rows, width, K)
    with [j, c] = U[j, j + c], the multipliers (rows, kl, K) of the rows
    under each pivot and the pivot offsets (rows, K): row j was swapped
    with row j + offset.  A zero pivot leaves non-finite entries behind
    it; the caller checks the pivots.
    """
    width, M, K = blocks.shape
    kl = width // 2
    # a[r] holds row r from column r - kl on until the elimination reaches
    # it, then from the current pivot column on: a[j:j + kl + 1, c] is
    # column j + c of the pivot candidates.  The last column stays 0, so
    # each update shifts the remaining rows one column left.
    a = np.zeros((rows + kl, width + 1, K), complex)
    a[:M, :width] = blocks.transpose(1, 0, 2)
    a[M:rows, kl] = 1.0
    for r in range(kl):  # the first rows already start at the first pivot
        a[r, :width - kl + r] = a[r, kl - r:width].copy()
        a[r, width - kl + r:] = 0.0
    low = np.empty((rows, kl, 1, K), complex)
    piv = np.empty((rows, K), np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(rows):
            w = a[j:j + kl + 1]
            p = piv[j] = np.abs(w[:, 0]).argmax(axis=0)
            swap = np.flatnonzero(p)
            if swap.size:
                down = p[swap]
                top = w[down, :, swap]
                w[down, :, swap] = w[0, :, swap]
                w[0, :, swap] = top
            l = np.divide(w[1:, :1], w[0, 0], out=low[j])
            a[j + 1:j + kl + 1, :-1] = w[1:, 1:] - l * w[0, 1:]
    return a[:rows, :width], low[:, :, 0], piv


def _forward_steps(low, piv, b):
    """The forward substitution of _band_lu, b rows at a time.

    Returns F (rows // b, b + kl, b + kl, K): F[i, ..., k] maps the
    entries i b .. i b + b + kl - 1 of block k to the same entries after
    the swaps and eliminations of pivots i b .. i b + b - 1; the first b
    are then final, the last kl go on to block i + 1.
    """
    rows, kl, K = low.shape
    nb = rows // b
    n = b + kl
    low = low.reshape(nb, b, kl, K)
    piv = piv.reshape(nb, b, K)
    F = np.zeros((nb, n, n, K), complex)
    F[:, np.arange(n), np.arange(n)] = 1.0
    for i in range(b):
        block, mode = np.nonzero(piv[:, i])
        if block.size:
            down = i + piv[block, i, mode]
            top = F[block, down, :, mode]
            F[block, down, :, mode] = F[block, i, :, mode]
            F[block, i, :, mode] = top
        c = i + kl + 1  # rows i .. i + kl are 0 from column c on
        F[:, i + 1:c, :c] -= low[:, i, :, None] * F[:, i, None, :c]
    return F


def _backward_steps(U, b):
    """The back substitution with U from _band_lu, b rows at a time.

    Returns G (rows // b, b, b + ku, K), ku = width - 1: G[i, ..., k] maps
    the entries i b .. i b + b - 1 of block k after the forward
    substitution, followed by the solution's entries i b + b .. i b + b +
    ku - 1, to the solution's entries i b .. i b + b - 1.
    """
    rows, width, K = U.shape
    nb = rows // b
    U = U.reshape(nb, b, width, K)
    d = 1.0 / U[:, :, 0]
    w = -U[:, :, 1:] * d[:, :, None]
    # row r of G gives x_r = d_r y_r + sum_c w_rc x_r+c; beyond the block
    # x passes through, so those terms are the entries w_rc themselves
    G = np.zeros((nb, b, b + width - 1, K), complex)
    G[:, np.arange(b), np.arange(b)] = d
    r, c = np.nonzero(np.arange(b)[:, None] + np.arange(1, width) >= b)
    G[:, r, r + c + 1] = w[:, r, c]
    for i in range(b - 2, -1, -1):
        for c in range(1, min(width, b - i)):  # row i + c is 0 before column i + c
            G[:, i, i + c:] += w[:, i, c - 1, None] * G[:, i + c, i + c:]
    return G


def _ring_preconditioner(blocks, scale):
    """Inverse of the ring-averaged Jacobian, one longitude mode at a time.

    blocks is the output of problem.ring_blocks.  Factors their
    problem.parity_fold with _band_lu and returns v -> P^-1 v: rfft along
    longitude, the sum and difference of rings j and M-1-j, the
    substitutions RING_BLOCK rings at a time (one batched matmul per block
    of rings and sweep, with the maps of _forward_steps and
    _backward_steps), and back.  The
    function keeps its work arrays between calls, so one preconditioner
    serves one newton_solve at a time, which builds it at its first Newton
    step and again only when a step misses with it (solve_linear).  Raises
    SingularJacobianError unless every pivot is above PIVOT_RTOL * scale,
    the ring-averaged operator's infinity norm (none is when that is 0).
    """
    width, M, K = blocks.shape
    L = 2 * (K - 1)
    kl = width // 2
    H = (M + 1) // 2
    b = min(RING_BLOCK, H)
    nb = -(-H // b)
    U, low, piv = _band_lu(parity_fold(blocks), nb * b)
    pivots = np.abs(U[:H, 0])
    if M % 2:
        pivots[H - 1, K:] = np.inf  # the identity row of the middle ring
    # the folded blocks are twice A's parts, and so are their pivots
    if not pivots.min() > 2.0 * PIVOT_RTOL * scale:  # NaN fails too
        raise SingularJacobianError(
            f"ring preconditioner pivot not above 1e-13 * |mean J| = {PIVOT_RTOL * scale:.3e}")
    # (block, row, column, mode) -> (block, mode, row, column): one stack
    # of matrices per block of rings for matmul
    F = np.ascontiguousarray(_forward_steps(low, piv, b).transpose(0, 3, 1, 2))
    G = np.ascontiguousarray(_backward_steps(U, b).transpose(0, 3, 1, 2))
    n, m = b + kl, b + 2 * kl
    # one work array per preconditioner, with its views made once; its
    # rows past the H ring pairs (padding, and the kl and 2 kl entries the
    # last blocks reach) meet zero coefficients and must be finite
    z = np.empty((2 * K, nb * b + 2 * kl, 1), complex)
    x = np.empty((M, K), complex)
    symmetric, antisymmetric = z[:K, :H, 0].T, z[K:, :H, 0].T
    forward = [(F[i], z[:, i * b:i * b + n]) for i in range(nb)]
    backward = [(G[i], z[:, i * b:i * b + m], z[:, i * b:i * b + b])
                for i in range(nb - 1, -1, -1)]

    def apply(v):
        V = np.fft.rfft(v.reshape(M, L), axis=1)
        # sums and differences are twice the parts, as the blocks are
        np.add(V[:H], V[::-1][:H], out=symmetric)
        np.subtract(V[:H], V[::-1][:H], out=antisymmetric)
        z[:, H:] = 0.0
        for Fi, zi in forward:
            zi[...] = Fi @ zi
        for Gi, zi, zo in backward:
            zo[...] = Gi @ zi
        np.add(symmetric, antisymmetric, out=x[:H])
        np.subtract(symmetric, antisymmetric, out=x[::-1][:H])
        return np.fft.irfft(x, n=L, axis=1).ravel()
    return apply


def _gmres(matvec, rhs, precond, scale, eta=0.0):
    """Right-preconditioned GMRES for J x = rhs (Saad & Schultz 1986).

    Stops when the Arnoldi estimate of |rhs - J x|_2 meets the larger of
    KRYLOV_TARGET * (scale * |x|_inf + |rhs|_inf), a normwise backward
    error whose scale, at most |J|_inf (solve_linear), only makes it
    stricter, and eta * |rhs|_inf, the forcing term of an inexact Newton
    step.  The 2-norm estimate bounds the max-norm residual that
    solve_linear checks, and unlike the computed residual it has no
    rounding floor: that floor is near the unit roundoff on some
    Jacobians, so a tight target on the computed residual would often be
    missed by luck.  Returns (x, iterations); raises SingularJacobianError,
    with the iterations spent, when KRYLOV_MAX_ITER iterations do not
    reach the target or J P^-1 is numerically singular on the Krylov
    space.
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
        x = np.linalg.solve(Rk, g[:k + 1]) @ Z[:k + 1]
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
        f"eta = {eta:.3g} after {k + 1} iterations", iterations=k + 1)


def solve_linear(J, rhs, eta=0.0, state=None):
    """Solve J x = rhs, J a problem.LinearizedOperator, and verify x.

    The ring-averaged operator A of J's weights (problem.ring_taps) is
    formed once: its infinity norm is the scale, and the inverse of its
    longitude-mode blocks the preconditioner.  GMRES runs to KRYLOV_TARGET
    or to the forcing term eta within KRYLOV_MAX_ITER iterations.  x is
    accepted when its normwise backward error, |J x - rhs|_inf / (scale
    |x|_inf + |rhs|_inf), is at most 1e-10 or when |J x - rhs|_inf <= eta
    * |rhs|_inf.  With eta = 0 the step is solved to KRYLOV_TARGET.  A
    pivot not above PIVOT_RTOL * scale, a missed target or an x that
    meets neither bound raises SingularJacobianError; a non-finite J
    raises ValueError first.  The pivots are those of A, on every grid
    and on the circle: where the coefficients vary along the rings a step
    is declined when that average is singular, whatever J's own pivots.

    state, one dict per newton_solve, carries "precond" from call to call:
    a P built for an earlier J is tried first (the scale is this J's);
    when it misses the target or fails the SVD or backward-error check,
    or when there is none, P is built from J, stored and the step solved
    with it, so only a fresh P raises.  Its "krylov_iterations" and
    "preconditioner_builds" count the GMRES iterations spent, a missed
    attempt's included, and the preconditioners built.
    """
    rhs = np.asarray(rhs, dtype=float)
    with np.errstate(invalid="ignore"):  # an infinite weight times a zero tap
        taps = ring_taps(J.grid, J.weights)
    scale = float(np.abs(taps).sum(axis=(0, 2)).max())
    if not np.isfinite(scale):
        raise ValueError("Jacobian has non-finite entries")
    state = {} if state is None else state
    for key in ("krylov_iterations", "preconditioner_builds"):
        state.setdefault(key, 0)
    if "precond" in state:
        try:
            return _preconditioned_solve(J, rhs, scale, eta, state)
        except SingularJacobianError:
            pass  # P is stale for this J
    state["preconditioner_builds"] += 1
    state["precond"] = _ring_preconditioner(ring_blocks(taps), scale)
    return _preconditioned_solve(J, rhs, scale, eta, state)


def _preconditioned_solve(J, rhs, scale, eta, state):
    """One GMRES solve of J x = rhs with state's P and the check of x,
    for solve_linear."""
    try:
        x, iterations = _gmres(J.dot, rhs, state["precond"], scale, eta)
    except SingularJacobianError as exc:
        state["krylov_iterations"] += exc.iterations
        raise
    state["krylov_iterations"] += iterations
    r = np.max(np.abs(J.dot(x) - rhs))
    bnorm = np.max(np.abs(rhs))
    be = r / (scale * np.max(np.abs(x)) + bnorm + 1e-300)
    if not (be <= 1e-10 or r <= eta * bnorm):
        raise SingularJacobianError(
            f"backward error {be:.3e} does not meet 1e-10 and |J x - rhs| misses "
            f"eta = {eta:.3g} * |rhs|; matrix effectively singular")
    return x


def _forcing_term(linf, linf_prev, tol):
    """Next forcing term from the residuals |F_k| and |F_k-1|:
    Eisenstat-Walker choice 2, kept at most ETA_MAX and at least
    0.5 tol / |F_k|."""
    eta = FORCING_GAMMA * (linf / linf_prev) ** 2
    return min(ETA_MAX, max(eta, 0.5 * tol / linf))


def newton_solve(spec, h0, t, tol=None):
    """Run the damped Newton iteration from h0 at continuation parameter t
    until |F|_inf <= tol, by default spec.tol_newton.

    One loop with one exit: the stopping test against tol ends it
    converged, and the iteration cap (spec.max_newton) and a failed line
    search end it with their reason in the result's message.  Each
    iterate is evaluated once (problem.evaluate): one Evaluation per
    line-search candidate feeds its margin check, its residual, the next
    Jacobian and the result's min_b_eig, and the last one is the result's
    ev.  Each Newton step is solved to the forcing term of the module
    docstring, with the ring preconditioner built at the first step and
    reused, or rebuilt on a miss, at the later ones (solve_linear).  A
    start that is not positive fails in evaluate with its DomainError
    (node and value).
    """
    if odd_defect(h0) > 1e-12:
        raise ValueError("initial iterate must be even "
                         f"(antipodal defect {odd_defect(h0):.3e})")
    if tol is None:
        tol = spec.tol_newton
    ev = evaluate(spec, even_project(h0), t)
    if np.min(ev.margin) <= 0:
        i = int(np.argmin(ev.margin))
        raise AdmissibilityError("initial iterate is not k-admissible",
                                 node=i, margin=float(ev.margin[i]))

    history = []
    state = {"krylov_iterations": 0, "preconditioner_builds": 0}  # and P, once built
    eta = ETA_MAX
    message = ""
    for it in range(spec.max_newton + 1):
        linf = ev.linf
        if linf <= tol:
            break
        if it == spec.max_newton:
            message = (f"no convergence to {tol:.3g} in {spec.max_newton} iterations "
                       f"(residual {linf:.3e})")
            break
        if it > 0:
            eta = _forcing_term(linf, prev_linf, tol)

        # J dies with the step: it holds a dozen node arrays the line search does not need
        delta = solve_linear(assemble_jacobian(spec, ev), -ev.residual.values, eta, state)

        alpha = 1.0
        accepted = None
        while alpha >= ALPHA_MIN:
            cand = even_project(GridFunction(spec.grid, ev.h.values + alpha * delta))
            if np.all(cand.values > 0):
                cand_ev = evaluate(spec, cand, t)
                if np.min(cand_ev.margin) > MARGIN_FLOOR \
                        and cand_ev.linf <= (1.0 - DECREASE_SLOPE * alpha) * linf:
                    accepted = cand_ev
                    break
            alpha *= 0.5
        if accepted is None:
            message = (f"line search failed at alpha < {ALPHA_MIN:g} "
                       f"(residual stuck at {linf:.3e}, target {tol:.3g})")
            break
        prev_linf = linf
        ev = accepted
        history.append((alpha, ev.linf))

    # every exit but the stopping test sets its message
    return NewtonResult(
        h=ev.h, converged=not message, iterations=it, final_linf=ev.linf,
        min_b_eig=float(np.min(ev.hf.lam[:, 0])), step_history=history, message=message,
        krylov_iterations=state["krylov_iterations"],
        preconditioner_builds=state["preconditioner_builds"], ev=ev)
