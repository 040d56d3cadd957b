"""Outside-in tracing of cmkit's public functions.

The tracer replaces each traced function at every module attribute that
callers look it up through (for example `cmkit.problem.hessian_field`,
which problem.py imported from sphere.py, as well as
`cmkit.sphere.hessian_field`) and restores the originals afterwards.
Each call becomes a span (id, parent id, name, start, end, info) kept in
memory; `layer_metrics` derives counts, total and self times from them.
"""

import functools
import json
import sys
import time

from cmkit import cli, config, continuation, diagnostics, geometry, newton, problem, sphere, symfunc

# span name -> (module, attribute); methods are patched on their class
TRACED = {
    "parse_config": (config, "parse_config"),
    "read_grid_function": (sphere, "read_grid_function"),
    "write_grid_function": (sphere, "write_grid_function"),
    "write_json": (cli, "_write_json"),
    "write_trace": (continuation.SolveTrace, "to_jsonl"),
    "continue_path": (continuation, "continue_path"),
    "newton_solve": (newton, "newton_solve"),
    "solve_linear": (newton, "solve_linear"),
    "assemble_jacobian": (problem, "assemble_jacobian"),
    "residual": (problem, "residual"),
    "admissibility_margin": (problem, "admissibility_margin"),
    "validate_f1": (problem, "validate_f1"),
    "hessian_field": (sphere, "hessian_field"),
    "even_project": (sphere, "even_project"),
    "operator_matrices": (sphere.SphereGrid, "operator_matrices"),
    "in_gamma_k": (symfunc, "in_gamma_k"),
    "run_diagnostics": (diagnostics, "run_diagnostics"),
    "af_inequality_check": (diagnostics, "af_inequality_check"),
    "manufacture": (diagnostics, "manufacture"),
    "l0_spectrum": (diagnostics, "l0_spectrum"),
    "reconstruct_body": (geometry, "reconstruct_body"),
    "write_obj": (geometry, "write_obj"),
    "write_polyline": (geometry, "write_polyline"),
}

WRITERS = ("write_grid_function", "write_json", "write_trace", "write_obj",
           "write_polyline")


def _linsolve_info(args, nnz_by_n):
    J = args[0]
    n = J.shape[0]
    if n not in nnz_by_n:  # the sparsity pattern depends on the grid only
        nnz_by_n[n] = int(J.nnz) if hasattr(J, "nnz") else int((J != 0).sum())
    return {"sparse": hasattr(J, "nnz"), "nnz": nnz_by_n[n]}


# span info taken from the arguments, before the call
ARG_INFO = {"solve_linear": _linsolve_info}

# span info taken from the return value
RESULT_INFO = {
    "newton_solve": lambda r: {"iterations": r.iterations, "converged": r.converged},
    "continue_path": lambda r: {"steps": max(len(r.steps) - 1, 0), "success": r.success},
}


class Tracer:
    """Spans of one traced region; use as a context manager."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, info]
        self._stack = []
        self._patched = []
        self._nnz_by_n = {}

    def _wrap(self, name, fn):
        arg_info = ARG_INFO.get(name)
        result_info = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = arg_info(args, self._nnz_by_n) if arg_info else {}
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), None, info]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["raised"] = type(exc).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if result_info:
                info.update(result_info(result))
            return result
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "cmkit" or key.startswith("cmkit.")]
        for name, (owner, attr) in TRACED.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end", "info"), span))) + "\n")


def layer_metrics(spans):
    """Per-layer counts and times of one traced pass, from its spans."""
    dur = [s[4] - s[3] for s in spans]
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += dur[s[0]]
            children[s[1]].append(s)

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def total(*names):
        return sum(dur[s[0]] for s in spans if s[2] in names)

    def self_time(name):
        return sum(dur[s[0]] - child_time[s[0]] for s in spans if s[2] == name)

    def under(span, name):
        """Whether span has an ancestor called name."""
        while span[1] is not None:
            span = spans[span[1]]
            if span[2] == name:
                return True
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    newton_spans = [s for s in spans if s[2] == "newton_solve"]
    iters = sum(s[5].get("iterations", 0) for s in newton_spans)
    # each line-search candidate is even-projected once, after the one
    # projection of the starting iterate
    candidates = sum(max(sum(c[2] == "even_project" for c in children[s[0]]) - 1, 0)
                     for s in newton_spans)
    evals = sum(1 for s in spans if s[2] in ("residual", "admissibility_margin")
                and s[1] is not None and spans[s[1]][2] == "newton_solve")
    attempts = [s for s in newton_spans
                if s[1] is not None and spans[s[1]][2] == "continue_path"]
    rejects = sum(1 for s in attempts if not s[5].get("converged"))
    lin = [s[5] for s in spans if s[2] == "solve_linear"]
    cont_s = total("continue_path")
    return {
        "linsolve.calls": (len(lin), "count"),
        "linsolve.s": (total("solve_linear"), "s"),
        "linsolve.dense_calls": (sum(1 for i in lin if not i["sparse"]), "count"),
        "linsolve.sparse_calls": (sum(1 for i in lin if i["sparse"]), "count"),
        "linsolve.jac_nnz": (max((i.get("nnz", 0) for i in lin), default=0), "count"),
        "linsolve.solve_share": (ratio(total("solve_linear"), cont_s), "ratio"),
        "newton.calls": (len(newton_spans), "count"),
        "newton.iters": (iters, "count"),
        "newton.iter_s": (ratio(total("newton_solve"), iters), "s"),
        "newton.self_s": (self_time("newton_solve"), "s"),
        "newton.evals_per_iter": (ratio(evals, iters), "ratio"),
        "newton.ls_accept_ratio": (ratio(iters, candidates), "ratio"),
        "assemble.calls": (calls("assemble_jacobian"), "count"),
        "assemble.s": (total("assemble_jacobian"), "s"),
        "residual.calls": (calls("residual"), "count"),
        "residual.s": (total("residual"), "s"),
        "margin.calls": (calls("admissibility_margin"), "count"),
        "margin.s": (total("admissibility_margin"), "s"),
        "hessian_field.calls": (calls("hessian_field"), "count"),
        "hessian_field.s": (total("hessian_field"), "s"),
        "hessian_field.per_newton_iter": (ratio(sum(
            1 for s in spans if s[2] == "hessian_field" and under(s, "newton_solve")),
            iters), "ratio"),
        "operator_matrices.s": (total("operator_matrices"), "s"),
        "in_gamma_k.calls": (calls("in_gamma_k"), "count"),
        "in_gamma_k.s": (total("in_gamma_k"), "s"),
        "continuation.s": (cont_s, "s"),
        "continuation.steps": (sum(s[5].get("steps", 0) for s in spans
                                   if s[2] == "continue_path"), "count"),
        "continuation.attempts": (len(attempts), "count"),
        "continuation.rejects": (rejects, "count"),
        "continuation.accept_ratio": (ratio(len(attempts) - rejects, len(attempts)), "ratio"),
        "continuation.self_s": (self_time("continue_path"), "s"),
        "run_diagnostics.s": (total("run_diagnostics"), "s"),
        "af_check.s": (total("af_inequality_check"), "s"),
        "manufacture.s": (total("manufacture"), "s"),
        "l0_spectrum.s": (total("l0_spectrum"), "s"),
        "reconstruct_body.s": (total("reconstruct_body"), "s"),
        "write_obj.s": (total("write_obj"), "s"),
        "config.parse_s": (total("parse_config"), "s"),
        "io.read_s": (total("read_grid_function"), "s"),
        "io.write_s": (total(*WRITERS), "s"),
    }
