"""
Command-line front end.

Subcommands: solve, verify, manufacture, spectrum, isotropic, sweep.
Exit codes: 0 success, 1 compute failure (partial outputs are still
written), 2 config or usage error.  The env var CMK_THREADS caps BLAS
parallelism when set.
"""

import argparse
import ctypes
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import diagnostics as diag
from .config import (build_f, build_h_star, build_problem, ensure_out_dir,
                     parameter_error, parse_config)
from .continuation import continue_path
from .errors import (AdmissibilityError, ConfigError, DomainError, SingularJacobianError,
                     UnsupportedParameterError)
from .geometry import reconstruct_body, write_obj, write_polyline
from .newton import PIVOT_RTOL
from .problem import evaluate, validate_f1
from .sphere import (build_grid, format_rows, json_text, read_grid_function,
                     write_grid_function)


# OpenBLAS thread setters, by the symbol names its builds export
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


def _mapped_openblas(maps_lines):
    """Existing OpenBLAS files named in lines of /proc/self/maps, sorted.

    The pathname is everything after the fifth field, so it may hold
    spaces; a mapping of a file since deleted ends in " (deleted)" and is
    skipped, as it names no file that can be opened.
    """
    paths = set()
    for line in maps_lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in fields[5].lower():
            path = fields[5].rstrip("\n")
            if os.path.isfile(path):
                paths.add(path)
    return sorted(paths)


def _apply_thread_cap():
    """Cap the threads of every OpenBLAS loaded into this process.

    BLAS reads its thread variables only when it loads, which importing
    numpy has already done, so the cap goes through each library's setter.
    """
    cap = os.environ.get("CMK_THREADS")
    if not cap:
        return
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        print(f"warning: ignoring CMK_THREADS={cap!r}: not a positive integer",
              file=sys.stderr)
        return
    try:
        with open("/proc/self/maps") as fh:
            paths = _mapped_openblas(fh)
    except OSError:
        paths = []
    capped = False
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, s) for s in BLAS_SETTERS if hasattr(lib, s)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(limit)
            capped = True
    if not capped:
        print("warning: CMK_THREADS has no effect: no loaded BLAS exposes "
              "a thread setter", file=sys.stderr)


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json_text(payload, indent=2) + "\n")


def _cmd_solve(cfg):
    _, spec = build_problem(cfg)
    trace = continue_path(spec)
    out = ensure_out_dir(cfg)
    # for the report, diagnostics and mesh: the corrector's, when it has one;
    # released before solution.csv and trace.jsonl are written
    ev = trace.ev if trace.ev is not None else evaluate(spec, trace.h, 1.0)
    trace.ev = None
    f1 = validate_f1(spec)
    payload = {
        "problem": {"n": spec.n, "k": spec.k, "p": spec.p, "q": spec.q,
                    "grid": list(spec.grid.shape), "binom_nk": spec.binom_nk},
        "warnings": list(spec.warnings),
        "success": trace.success,
        "message": trace.message,
        "fallback": trace.fallback,
        "steps": max(len(trace.steps) - 1, 0),
        "solve_grid": list(trace.solve_grid),
        "wall_time": trace.wall_time,
        "residual": {"linf": ev.linf, "l2": ev.l2},
        "counters": trace.counters(),
        "f1": f1,
        "diagnostics": diag.run_diagnostics(spec, ev, f1).to_dict(),
    }
    _write_json(os.path.join(out, "report.json"), payload)
    if cfg.out_mesh:
        mesh = reconstruct_body(trace.h, ev.hf)
        if cfg.n == 2:
            write_obj(mesh, os.path.join(out, "mesh.obj"))
        else:
            write_polyline(mesh, os.path.join(out, "body.csv"))
        del mesh
    del ev
    write_grid_function(trace.h, os.path.join(out, "solution.csv"))
    trace.to_jsonl(os.path.join(out, "trace.jsonl"))
    print(json_text({"success": trace.success,
                     "residual_linf": payload["residual"]["linf"],
                     "steps": payload["steps"]}))
    return 0 if trace.success else 1


def _cmd_verify(cfg, solution_path):
    _, spec = build_problem(cfg)
    try:
        h = read_grid_function(spec.grid, solution_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read solution '{solution_path}': {exc}") from exc
    ev = evaluate(spec, h, 1.0)
    payload = {
        "solution": solution_path,
        "residual": {"linf": ev.linf, "l2": ev.l2},
        "tol_newton": spec.tol_newton,
        "passes": ev.linf <= spec.tol_newton,
        "warnings": list(spec.warnings),
        "diagnostics": diag.run_diagnostics(spec, ev, validate_f1(spec)).to_dict(),
    }
    out = ensure_out_dir(cfg)
    _write_json(os.path.join(out, "verify.json"), payload)
    print(json_text(payload))
    return 0 if payload["passes"] else 1


def _cmd_manufacture(cfg):
    grid = build_grid(cfg.n, **cfg.grid_args())
    h_star = build_h_star(cfg, grid)
    try:
        f = diag.manufacture(h_star, cfg.k, cfg.p, cfg.q)
    except UnsupportedParameterError as exc:
        raise parameter_error(cfg, exc) from exc
    out = ensure_out_dir(cfg)
    write_grid_function(f, os.path.join(out, "f.csv"))
    write_grid_function(h_star, os.path.join(out, "h_star.csv"))
    print(json_text({"f_min": float(np.min(f.values)),
                     "f_max": float(np.max(f.values)),
                     "out": out}))
    return 0


def _cmd_spectrum(cfg):
    _, spec = build_problem(cfg)
    eigs = diag.l0_spectrum(spec)
    out = ensure_out_dir(cfg)
    with open(os.path.join(out, "spectrum.csv"), "w") as fh:
        fh.write("eigenvalue\n")
        fh.write(format_rows("%.17g", eigs[:, None]))
    # a zero eigenvalue (p = q) is a rounding residue of either sign: not positive
    payload = {
        "top": float(eigs[0]),
        "top_analytic": diag.l0_top_eigenvalue_analytic(spec),
        "positive_count": int(np.sum(eigs > PIVOT_RTOL * np.max(np.abs(eigs)))),
        "warnings": list(spec.warnings),
    }
    print(json_text(payload))
    return 0


def _cmd_isotropic(cfg):
    if cfg.f_kind != "constant" or cfg.f_value != 1.0:
        raise ConfigError(f"{cfg.path}: isotropic runs need f.kind = constant "
                          f"and f.value = 1")
    _, spec = build_problem(cfg)
    result = diag.isotropic_experiment(
        spec, restarts=cfg.isotropic_restarts, seed=cfg.seed,
        amplitude=cfg.isotropic_amplitude)
    out = ensure_out_dir(cfg)
    payload = {k: v for k, v in result.items() if k != "h_final" and k != "trace"}
    _write_json(os.path.join(out, "isotropic.json"), payload)
    write_grid_function(result["h_final"], os.path.join(out, "solution.csv"))
    print(json_text(payload))
    ok = result["trace"].success and all(
        e <= 1e-6 for e in result["restart_errors"])
    return 0 if ok else 1


def _cmd_sweep(cfg):
    if not cfg.sweep_p or not cfg.sweep_q:
        raise ConfigError(f"{cfg.path}: sweep needs sweep.p and sweep.q lists")
    # one grid for every point: its cached frame operators, its cached
    # ring grid, on which ring-constant data are solved, and its cached
    # coarse grid, from which other data are sequenced, do not depend on
    # (p, q), while f does, through the quadratic family's exponent.
    # Bad f data would fail every point: a config error before the first
    grid = build_grid(cfg.n, **cfg.grid_args())
    build_f(cfg, grid)
    out = ensure_out_dir(cfg)
    all_ok = True
    path = os.path.join(out, "sweep.jsonl")
    with open(path, "w") as fh:
        for p, q in itertools.product(cfg.sweep_p, cfg.sweep_q):
            point = dict(p=p, q=q)
            try:
                _, spec = build_problem(dataclasses.replace(cfg, p=p, q=q), grid)
                trace = continue_path(spec)
                last = trace.steps[-1] if trace.steps else {}
                point.update(success=trace.success,
                             steps=max(len(trace.steps) - 1, 0),
                             solve_grid=list(trace.solve_grid),
                             **trace.counters(),
                             residual=last.get("residual"),
                             R=last.get("R"), r=last.get("r"),
                             ratio=last.get("ratio"),
                             min_b_eig=last.get("min_b_eig"),
                             wall_time=trace.wall_time,
                             message=trace.message,
                             fallback=trace.fallback)
                all_ok = all_ok and trace.success
                del trace  # and its Evaluation, before the next point's solve
            except (ConfigError, DomainError, AdmissibilityError,
                    SingularJacobianError) as exc:
                point.update(success=False, message=str(exc))
                all_ok = False
            fh.write(json_text(point) + "\n")
            fh.flush()
    print(json_text({"out": path, "all_converged": all_ok}))
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmkit",
        description="Curvature-measure solver for convex bodies: homotopy "
                    "continuation for sigma_k support-function equations on "
                    "the circle and the 2-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "run homotopy continuation and write solution, trace, report"),
            ("verify", "recompute the residual of a stored solution"),
            ("manufacture", "build data f whose exact solution is a chosen h"),
            ("spectrum", "eigenvalues of the even-subspace linearization at h = 1"),
            ("isotropic", "f = 1 uniqueness experiment with perturbed restarts"),
            ("sweep", "continuation over a grid of (p, q) exponents")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a key = value config file")
        if name == "verify":
            cmd.add_argument("--solution", required=True,
                             help="solution CSV to verify against the config")
    return parser


def main(argv=None):
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg, args.solution)
        if args.command == "manufacture":
            return _cmd_manufacture(cfg)
        if args.command == "spectrum":
            return _cmd_spectrum(cfg)
        if args.command == "isotropic":
            return _cmd_isotropic(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, AdmissibilityError, SingularJacobianError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
