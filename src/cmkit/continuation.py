"""
Predictor-corrector continuation in t from h = 1 at t = 0 to the target
data at t = 1.

The data homotopy has the exact solution h = 1 at t = 0, so the path
starts from a zero-residual state.  One step loop follows it: a secant
predictor, the damped Newton corrector, and a step size that halves on
an unconverged corrector result, whose message is the path's when the
step size underflows, and grows after fast successes.  If h = 1 already
solves the target problem (in particular for data equal to the t = 0
constant), the loop's first step has dt = 1.  The path does no report
work: items such as the f1 check (problem.validate_f1) are the caller's.

Only the solution at t = 1 is an answer; the points before it seed the
next prediction, whose own residual is orders of magnitude above
tol_newton.  So the corrector stops the steps before t = 1 at
sqrt(tol_newton), from which one quadratic Newton step reaches about
tol_newton, and only the step that lands on t = 1 goes to tol_newton
itself (Allgower & Georg, Introduction to Numerical Continuation
Methods, 2003, ch. 6).

Data constant on every ring of a sphere grid (f bitwise equal along each
latitude, as for a polar axis) run the loop on the m_lat x 8 ring grid
(SphereGrid.ring_grid), and h is broadcast along the rings.  That is
exact: the longitude kernels give exact zeros on a ring-constant field
and the latitude stencils do not depend on m_lon, so the full grid's
residual of the broadcast h is bitwise the ring grid's, broadcast, and
the trace rows and the t = 1 test hold on the full grid.

Other data on S^2 (a tilted axis, one ulp of variation along a ring)
are sequenced (nested iteration: Briggs, Henson & McCormick, A Multigrid
Tutorial, 2000).  The loop runs on the grid's coarse grid
(SphereGrid.coarse_grid, the halving chain down to COARSE_LAT rings)
with f interpolated there, and its h at t = 1, interpolated to the
requested grid (sphere.interpolate), starts one Newton solve at t = 1
and tol_newton on that grid, which decides the answer.  By mesh
independence that solve takes a few iterations however fine the grid
(Allgower, Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986).
The trace keeps the coarse rows and gains the fine solve's row at t = 1.
If the coarse path or the fine solve fails, the loop runs on the
requested grid as it would unsequenced, and its trace is returned with
the reason in SolveTrace.fallback.  The circle and grids with no coarse
grid run the loop on their own grid.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .newton import newton_solve
from .problem import Evaluation, evaluate
from .sphere import RING_LON, GridFunction, constant_function, interpolate, json_text

TRACE_KEYS = ("t", "newton_iterations", "residual", "min_b_eig", "R", "r", "ratio")


@dataclass
class SolveTrace:
    """The accepted steps, the last accepted h and the path's outcome."""

    steps: list = field(default_factory=list)  # dict per accepted step
    h: GridFunction = None  # last accepted solution
    solve_grid: tuple = ()  # shape of the grid the step loop ran on
    wall_time: float = 0.0
    success: bool = False
    message: str = ""
    fallback: str = ""  # why sequencing gave way to the unsequenced loop
    # the corrector's Evaluation of h at t = 1 on the spec's grid, when the
    # path succeeded there; None after the ring grid, whose h is broadcast
    ev: Evaluation = None

    def counters(self):
        """Newton and GMRES iterations and preconditioner builds, summed
        over the accepted steps."""
        return {key: sum(row[key] for row in self.steps)
                for key in ("newton_iterations", "krylov_iterations", "preconditioner_builds")}

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for row in self.steps:
                fh.write(json_text({k: row[k] for k in TRACE_KEYS}) + "\n")


def _trace_row(h, t, iters, linf, min_b_eig, krylov_iters=0, builds=0):
    """One accepted step: the TRACE_KEYS written to trace.jsonl, plus the
    step's GMRES iterations and preconditioner builds, which stay in
    memory."""
    R = float(np.max(h.values))
    r = float(np.min(h.values))
    return {"t": t, "newton_iterations": iters, "residual": linf,
            "min_b_eig": min_b_eig, "R": R, "r": r, "ratio": R / r,
            "krylov_iterations": krylov_iters, "preconditioner_builds": builds}


def _result_row(res, t):
    """The trace row of a converged NewtonResult at t."""
    return _trace_row(res.h, t, res.iterations, res.final_linf, res.min_b_eig,
                      res.krylov_iterations, res.preconditioner_builds)


def predictor(prev, t_next):
    """Linear extrapolation to t_next from the last two accepted (t, h)
    pairs, exactly even as they are; the last accepted h when the pairs
    share their t or the extrapolation loses positivity anywhere."""
    (t1, h1), (t2, h2) = prev
    if t2 != t1:
        s = (t_next - t2) / (t2 - t1)
        cand = GridFunction(h2.grid, h2.values + s * (h2.values - h1.values))
        if np.all(cand.values > 0):
            return cand
    return h2.copy()


def continue_path(spec):
    """Follow the solution path from t = 0 to t = 1 in one step loop, on
    the ring grid when f is ring-constant and sequenced from the coarse
    grid otherwise on S^2 (module docstring). Returns a SolveTrace whose h
    lives on spec.grid."""
    start = time.perf_counter()
    g, F = spec.grid, spec.f.field
    if g.n == 2 and g.m_lon > RING_LON and np.all(F == F[:, :1]):
        thin = GridFunction(g.ring_grid(), F[:, :RING_LON])
        trace = _follow_path(replace(spec, f=thin))
        trace.h = GridFunction(g, np.broadcast_to(trace.h.field[:, :1], g.shape))
        trace.ev = None
    elif g.n == 2 and (coarse := g.coarse_grid()) is not None:
        trace = _sequenced(spec, coarse)
    else:
        trace = _follow_path(spec)
    trace.wall_time = time.perf_counter() - start
    return trace


def _sequenced(spec, coarse):
    """The loop on the coarse grid, then one Newton solve at t = 1 on
    spec.grid from its interpolated h; the loop on spec.grid, with the
    reason in its trace's fallback, when either fails."""
    fine = spec.grid
    stage = f"coarse path on {coarse.m_lat}x{coarse.m_lon}"
    try:
        trace = _follow_path(replace(spec, f=interpolate(spec.f, coarse)))
        reason = trace.message
        if trace.success:
            trace.ev = None  # the coarse grid's; the fine solve gives its own
            stage = f"Newton solve at t=1 on {fine.m_lat}x{fine.m_lon}"
            res = newton_solve(spec, interpolate(trace.h, fine), 1.0)
            reason = res.message
            if res.converged:
                trace.steps.append(_result_row(res, 1.0))
                trace.h, trace.ev = res.h, res.ev
                return trace
    except DomainError as exc:
        reason = str(exc)
    trace = _follow_path(spec)
    trace.fallback = f"{stage} failed: {reason}"
    return trace


def _follow_path(spec):
    """The step loop of continue_path on spec's own grid."""
    trace = SolveTrace(solve_grid=spec.grid.shape)

    h = constant_function(spec.grid, 1.0)
    ev = evaluate(spec, h, 0.0)
    trace.steps.append(_trace_row(h, 0.0, 0, ev.linf, float(np.min(ev.hf.lam[:, 0]))))

    # h = 1 may already solve the target, exactly so when f is the t = 0
    # constant; then the first step goes to t = 1.  At h = 1 the t = 1
    # right side is f, bitwise
    solved = np.max(np.abs(ev.sigma_k - spec.f.values)) <= spec.tol_newton
    del ev  # else the path would hold its node arrays to the end

    prev = ((0.0, h), (0.0, h))  # the last two accepted (t, h)
    t_cur = 0.0
    dt = 1.0 if solved else spec.dt0
    while t_cur < 1.0:
        t_next = min(t_cur + dt, 1.0)
        tol = spec.tol_newton if t_next == 1.0 else math.sqrt(spec.tol_newton)
        res = None  # the last step's result and its Evaluation go before the next solve
        res = newton_solve(spec, predictor(prev, t_next), t_next, tol=tol)
        if not res.converged:
            dt *= 0.5
            if dt < spec.dt_min:
                trace.message = f"step size underflow at t={t_next:g}: {res.message}"
                break
            continue
        t_cur = t_next
        prev = (prev[1], (t_cur, res.h))
        trace.steps.append(_result_row(res, t_cur))
        if res.iterations <= 3:
            dt = min(dt * 1.5, spec.dt_max)
    else:
        trace.success = True
        trace.ev = res.ev  # the last step's, at t = 1
    trace.h = prev[1][1]
    return trace
