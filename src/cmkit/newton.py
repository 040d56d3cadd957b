"""
Damped Newton corrector for the discrete equation at fixed t.

Safeguards per step: positivity of the iterate, Gamma_k admissibility of
b(iterate), residual decrease (Armijo-like on the sup norm), and an exact
evenness projection.  The linear solver is a direct factorization:
LAPACK LU for the dense Jacobians assemble_jacobian returns on the circle
and on small grids, SuperLU in natural order for the sparse sphere
Jacobians.  Nodes are numbered ring by ring and every stencil reaches at
most two latitude rings away, so in natural order the Jacobian is banded
(half-bandwidth 3*m_lon - 1); a fill-reducing column order would break
that band and factor slower.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import AdmissibilityError, DomainError, SingularJacobianError
from .problem import admissibility_margin, assemble_jacobian, residual
from .sphere import GridFunction, even_project, odd_defect

# line-search controls
ALPHA_MIN = 1e-6
DECREASE_SLOPE = 1e-4
MARGIN_FLOOR = 1e-10  # Gamma_k margin kept strictly off the cone boundary


@dataclass
class NewtonResult:
    h: GridFunction
    converged: bool
    iterations: int
    final_linf: float
    min_admissibility_margin: float
    step_history: list = field(default_factory=list)  # (alpha, residual linf)
    message: str = ""


def solve_linear(J, rhs):
    """Solve J x = rhs by direct factorization with partial pivoting.

    Accepts a dense array or a sparse matrix; a sparse one is factored in
    its natural (banded, ring-major) column order.  Raises
    SingularJacobianError (carrying a near-null direction when available)
    if a pivot falls below 1e-13 * norm(J), and verifies the backward
    error of the returned solution.
    """
    rhs = np.asarray(rhs, dtype=float)
    if sparse.issparse(J):
        scale = spla.norm(J, np.inf)
        try:
            lu = spla.splu(J.tocsc(), permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SingularJacobianError(f"sparse factorization failed: {exc}")
        piv = np.abs(lu.U.diagonal())
        if piv.min() < 1e-13 * scale:
            raise SingularJacobianError(
                f"pivot {piv.min():.3e} below 1e-13 * |J| = {1e-13 * scale:.3e}")
        x = lu.solve(rhs)
        matvec = J.dot
    else:
        J = np.asarray(J, dtype=float)
        if not np.all(np.isfinite(J)):
            raise ValueError("Jacobian has non-finite entries")
        scale = np.max(np.abs(J).sum(axis=1))
        with warnings.catch_warnings():
            # singularity is detected by the pivot check below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv_idx = sla.lu_factor(J)
        piv = np.abs(np.diag(lu))
        if piv.min() < 1e-13 * scale:
            # name the offending direction: right singular vector of the
            # smallest singular value
            _, svals, VT = np.linalg.svd(J)
            raise SingularJacobianError(
                f"pivot {piv.min():.3e} below 1e-13 * |J| = {1e-13 * scale:.3e}",
                direction=VT[-1])
        x = sla.lu_solve((lu, piv_idx), rhs)
        matvec = J.dot

    # backward-error check with one refinement step if needed
    def backward(xv):
        r = matvec(xv) - rhs
        denom = scale * np.max(np.abs(xv)) + np.max(np.abs(rhs)) + 1e-300
        return np.max(np.abs(r)) / denom, r

    be, r = backward(x)
    if be > 1e-10:
        if sparse.issparse(J):
            x = x - lu.solve(r)
        else:
            x = x - sla.lu_solve((lu, piv_idx), r)
        be, _ = backward(x)
        if be > 1e-10:
            raise SingularJacobianError(
                f"backward error {be:.3e} does not meet 1e-10; "
                "matrix effectively singular")
    return x


def newton_solve(spec, h0, t):
    """Run the damped Newton iteration from h0 at continuation parameter t."""
    v = h0.values
    if np.any(v <= 0):
        i = int(np.argmin(v))
        raise DomainError("initial iterate must be positive",
                          node=i, value=float(v[i]))
    if odd_defect(h0) > 1e-12:
        raise ValueError("initial iterate must be even "
                         f"(antipodal defect {odd_defect(h0):.3e})")
    margin0 = admissibility_margin(spec, h0)
    if np.min(margin0) <= 0:
        i = int(np.argmin(margin0))
        raise AdmissibilityError("initial iterate is not k-admissible",
                                 node=i, margin=float(margin0[i]))

    h = even_project(h0)
    rep = residual(spec, h, t)
    history = []
    for it in range(spec.max_newton):
        if rep.linf <= spec.tol_newton:
            return NewtonResult(
                h=h, converged=True, iterations=it, final_linf=rep.linf,
                min_admissibility_margin=float(np.min(admissibility_margin(spec, h))),
                step_history=history)

        J = assemble_jacobian(spec, h, t)
        delta = solve_linear(J, -rep.residual.values)

        alpha = 1.0
        accepted = None
        while alpha >= ALPHA_MIN:
            cand = even_project(GridFunction(spec.grid, h.values + alpha * delta))
            if np.all(cand.values > 0):
                margin = admissibility_margin(spec, cand)
                if np.min(margin) > MARGIN_FLOOR:
                    cand_rep = residual(spec, cand, t)
                    if cand_rep.linf <= (1.0 - DECREASE_SLOPE * alpha) * rep.linf:
                        accepted = (cand, cand_rep)
                        break
            alpha *= 0.5
        if accepted is None:
            return NewtonResult(
                h=h, converged=False, iterations=it, final_linf=rep.linf,
                min_admissibility_margin=float(np.min(admissibility_margin(spec, h))),
                step_history=history,
                message=f"line search failed at alpha < {ALPHA_MIN:g} "
                        f"(residual stuck at {rep.linf:.3e})")
        h, rep = accepted
        history.append((alpha, rep.linf))

    converged = rep.linf <= spec.tol_newton
    return NewtonResult(
        h=h, converged=converged, iterations=spec.max_newton,
        final_linf=rep.linf,
        min_admissibility_margin=float(np.min(admissibility_margin(spec, h))),
        step_history=history,
        message="" if converged else
        f"no convergence in {spec.max_newton} iterations "
        f"(residual {rep.linf:.3e})")
