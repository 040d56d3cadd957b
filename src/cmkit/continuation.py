"""
Predictor-corrector continuation in t from h = 1 at t = 0 to the target
data at t = 1.

The data homotopy has the exact solution h = 1 at t = 0, so the path
starts from a zero-residual state.  Steps use a secant predictor and the
damped Newton corrector; the step size halves on corrector failure and
grows after fast successes.  If the target problem is already solved by
the current iterate (in particular for data equal to the t = 0 constant),
the path finishes in a single step to t = 1.

Only the solution at t = 1 is an answer; the points before it seed the
next prediction, whose own residual is orders of magnitude above
tol_newton.  So the corrector stops the steps before t = 1 at
sqrt(tol_newton), from which one quadratic Newton step reaches about
tol_newton, and only the step that lands on t = 1 (and the one-step
shortcut) goes to tol_newton itself (Allgower & Georg, Introduction to
Numerical Continuation Methods, 2003, ch. 6).
"""

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, SingularJacobianError
from .newton import newton_solve
from .problem import evaluate, validate_f1
from .sphere import GridFunction, constant_function, even_project

TRACE_KEYS = ("t", "newton_iterations", "residual", "min_b_eig", "R", "r", "ratio")


@dataclass
class SolveTrace:
    steps: list = field(default_factory=list)  # dict per accepted step
    h: GridFunction = None  # last accepted solution
    wall_time: float = 0.0
    success: bool = False
    message: str = ""
    f1_report: dict = None

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for row in self.steps:
                fh.write(json.dumps({k: row[k] for k in TRACE_KEYS}) + "\n")


def _trace_row(h, t, iters, linf, min_b_eig, krylov_iters=0, builds=0):
    """One accepted step: the TRACE_KEYS written to trace.jsonl, plus the
    step's GMRES iterations and preconditioner builds, which stay in
    memory."""
    R = float(np.max(h.values))
    r = float(np.min(h.values))
    return {"t": t, "newton_iterations": iters, "residual": linf,
            "min_b_eig": min_b_eig, "R": R, "r": r, "ratio": R / r,
            "krylov_iterations": krylov_iters, "preconditioner_builds": builds}


def _newton_row(res, t):
    return _trace_row(res.h, t, res.iterations, res.final_linf, res.min_b_eig,
                      res.krylov_iterations, res.preconditioner_builds)


def predictor(prev, t_next):
    """Linear extrapolation from the last two accepted (t, h) pairs.

    Returns (h_predicted, clamped).  The prediction is even-projected; if
    extrapolation loses positivity anywhere the previous h is returned
    instead with clamped = True.
    """
    (t1, h1), (t2, h2) = prev
    if t2 == t1:
        return h2.copy(), False
    s = (t_next - t2) / (t2 - t1)
    vals = h2.values + s * (h2.values - h1.values)
    cand = even_project(GridFunction(h2.grid, vals))
    if np.any(cand.values <= 0):
        return h2.copy(), True
    return cand, False


def continue_path(spec):
    """Follow the solution path from t = 0 to t = 1. Returns a SolveTrace."""
    start = time.perf_counter()
    trace = SolveTrace(f1_report=validate_f1(spec))

    h = constant_function(spec.grid, 1.0)
    ev = evaluate(spec, h, 0.0)
    trace.steps.append(_trace_row(h, 0.0, 0, ev.report.linf, float(np.min(ev.hf.lam[:, 0]))))
    trace.h = h

    # one-step shortcut: h = 1 may already solve the target, exactly so when
    # f is the t = 0 constant.  At h = 1 the t = 1 right side is f, bitwise
    solved = np.max(np.abs(ev.sigma_k - spec.f.values)) <= spec.tol_newton
    del ev  # else the path would hold its node arrays to the end
    if solved:
        res = newton_solve(spec, h, 1.0)
        trace.steps.append(_newton_row(res, 1.0))
        trace.h = res.h
        trace.success = True
        trace.wall_time = time.perf_counter() - start
        return trace

    accepted = [(0.0, h)]
    t_cur = 0.0
    dt = spec.dt0
    while t_cur < 1.0:
        t_next = min(t_cur + dt, 1.0)
        prev = accepted[-2:] if len(accepted) >= 2 else [accepted[-1], accepted[-1]]
        h_pred, _ = predictor(prev, t_next)
        tol = spec.tol_newton if t_next == 1.0 else math.sqrt(spec.tol_newton)
        try:
            res = newton_solve(spec, h_pred, t_next, tol=tol)
            failed = not res.converged
        except (AdmissibilityError, SingularJacobianError) as exc:
            res, failed = None, True
            trace.message = f"corrector error at t={t_next:g}: {exc}"
        if failed:
            dt *= 0.5
            if dt < spec.dt_min:
                trace.success = False
                if res is not None:
                    trace.message = (f"step size underflow at t={t_next:g}: "
                                     f"{res.message or 'corrector failed'}")
                elif not trace.message:
                    trace.message = f"step size underflow at t={t_next:g}"
                trace.wall_time = time.perf_counter() - start
                return trace
            continue
        t_cur = t_next
        accepted.append((t_cur, res.h))
        if len(accepted) > 2:
            accepted.pop(0)
        trace.steps.append(_newton_row(res, t_cur))
        trace.h = res.h
        if res.iterations <= 3:
            dt = min(dt * 1.5, spec.dt_max)

    trace.success = True
    trace.message = ""  # a corrector error of a rejected step is not the outcome
    trace.wall_time = time.perf_counter() - start
    return trace
