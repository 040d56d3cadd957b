"""Correctness gate: re-read what each cmkit command wrote and check it.

A case fails when the command crashed, when it reported a failure the
benchmark does not expect, or when a reported success does not hold up:
the solution is re-read from solution.csv and its residual, positivity,
evenness and Gamma_k admissibility are recomputed here.  The one failure
the benchmark expects, the circle sweep point with q = p + 1, counts as
`declined` when the program reports it as failed; a success there still
has to pass the gate.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from cmkit.config import build_problem, parse_config
from cmkit.errors import ConfigError
from cmkit.problem import residual
from cmkit.sphere import hessian_field, odd_defect, read_grid_function
from cmkit.symfunc import in_gamma_k

@dataclass
class Outcome:
    """Gate result of one or more cases, plus counts read from the files."""

    attempted: int = 0
    failed: int = 0
    declined: int = 0
    newton_iters: int = 0
    cont_steps: int = 0
    problems: list = field(default_factory=list)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.declined += other.declined
        self.newton_iters += other.newton_iters
        self.cont_steps += other.cont_steps
        self.problems.extend(other.problems)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def trace_counts(rows):
    """(Newton iterations, accepted continuation steps) of a trace.jsonl."""
    return sum(r["newton_iterations"] for r in rows), max(len(rows) - 1, 0)


def solution_problems(spec, h):
    """Why h is not an accepted solution of spec at t = 1 (empty if it is)."""
    problems = []
    if not np.all(np.isfinite(h.values)) or np.any(h.values <= 0):
        return ["solution is not finite and positive"]
    if odd_defect(h) > 1e-12:
        problems.append(f"solution is not even (defect {odd_defect(h):.3e})")
    linf = residual(spec, h, 1.0).linf
    if not linf <= spec.tol_newton:
        problems.append(f"recomputed residual {linf:.3e} > tol {spec.tol_newton:g}")
    ok, margin = in_gamma_k(hessian_field(h).lam, spec.k)
    if not np.all(ok):
        problems.append(f"b(h) leaves Gamma_k (margin {np.min(margin):.3e})")
    return problems


def _load_problem(case):
    return build_problem(parse_config(case.config))


def check_solve(case, rc):
    oc = Outcome(attempted=1)
    try:
        report = read_json(os.path.join(case.out, "report.json"))
        rows = read_jsonl(os.path.join(case.out, "trace.jsonl"))
        grid, spec = _load_problem(case)
        h = read_grid_function(grid, os.path.join(case.out, "solution.csv"))
        oc.newton_iters, oc.cont_steps = trace_counts(rows)
        t_end = rows[-1]["t"]
    except (OSError, ValueError, KeyError, IndexError, ConfigError) as exc:
        oc.problems.append(f"unreadable output: {exc!r}")
    else:
        if rc != 0 or report.get("success") is not True:
            oc.problems.append(f"solve reported failure (exit {rc}): "
                               f"{report.get('message')}")
        if report.get("steps") != oc.cont_steps or t_end != 1.0:
            oc.problems.append("trace.jsonl does not end at t = 1 with the "
                               "reported step count")
        oc.problems.extend(solution_problems(spec, h))
        if case.expect.get("h_star"):
            # acceptance criterion 03: the error against the exact pair is
            # below the operator's own defect at h*
            h_star = read_grid_function(grid, case.expect["h_star"])
            defect = residual(spec, h_star, 1.0).linf
            err = float(np.max(np.abs(h.values - h_star.values)))
            if not err <= defect:
                oc.problems.append(f"manufactured error {err:.3e} > defect {defect:.3e}")
        if case.expect.get("mesh"):
            oc.problems.extend(_mesh_problems(case, grid.node_count))
    oc.failed = int(bool(oc.problems))
    return oc


def _mesh_problems(case, nodes):
    try:
        with open(os.path.join(case.out, "mesh.obj")) as fh:
            verts = [line.split()[1:] for line in fh if line.startswith("v ")]
    except OSError as exc:
        return [f"no mesh: {exc}"]
    if len(verts) != nodes or not np.all(np.isfinite(np.array(verts, dtype=float))):
        return [f"mesh has {len(verts)} finite vertices, expected {nodes}"]
    return []


def check_sweep(case, rc):
    points = [tuple(pq) for pq in case.expect["points"]]
    may_fail = {tuple(pq) for pq in case.expect.get("may_fail", ())}
    tol = parse_config(case.config).newton_tol
    oc = Outcome(attempted=len(points))
    try:
        rows = read_jsonl(os.path.join(case.out, "sweep.jsonl"))
    except (OSError, ValueError) as exc:
        rows = []
        oc.problems.append(f"unreadable sweep.jsonl: {exc}")
    bad = max(len(points) - len(rows), 0)
    all_ok = len(rows) == len(points)
    for (p, q), row in zip(points, rows):
        if (row.get("p"), row.get("q")) != (p, q):
            oc.problems.append(f"sweep row {row.get('p')},{row.get('q')} "
                               f"out of order, expected {p},{q}")
            bad += 1
            continue
        if row.get("success") is True:
            oc.cont_steps += row.get("steps", 0)
            res, R, r = row.get("residual"), row.get("R"), row.get("r")
            if res is None or not res <= tol or not r > 0 \
                    or not R >= r or row.get("steps", 0) < 1:
                oc.problems.append(f"point ({p}, {q}) claims success with "
                                   f"residual {res}, r {r}, R {R}")
                bad += 1
            continue
        all_ok = False
        if (p, q) in may_fail:
            oc.declined += 1
        else:
            oc.problems.append(f"point ({p}, {q}) failed: {row.get('message')}")
            bad += 1
    if rc != (0 if all_ok else 1):
        oc.problems.append(f"sweep exit code {rc} does not match its points")
        bad = max(bad, 1)
    oc.failed = min(bad, len(points))
    return oc


def _node_coords(lat, lon):
    return np.column_stack([np.cos(lat) * np.cos(lon),
                            np.cos(lat) * np.sin(lon), np.sin(lat)])


def check_manufacture(case, rc):
    oc = Outcome(attempted=1)
    h = case.expect["h"]
    try:
        hs = np.loadtxt(os.path.join(case.out, "h_star.csv"), delimiter=",", skiprows=1)
        fv = np.loadtxt(os.path.join(case.out, "f.csv"), delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        oc.problems.append(f"unreadable output: {exc}")
    else:
        axis = np.asarray(h["h.axis"]) / np.linalg.norm(h["h.axis"])
        proj = _node_coords(hs[:, 0], hs[:, 1]) @ axis
        exact = h["h.value"] * (1.0 + h["h.epsilon"] * proj ** 2)
        if rc != 0:
            oc.problems.append(f"manufacture exit code {rc}")
        if np.max(np.abs(hs[:, 2] - exact)) > 1e-12 * np.max(exact):
            oc.problems.append("h_star.csv differs from the configured h")
        if fv.shape != hs.shape or not np.all(np.isfinite(fv[:, 2])) \
                or np.any(fv[:, 2] <= 0):
            oc.problems.append("f.csv is not a positive field on the same nodes")
    oc.failed = int(bool(oc.problems))
    return oc


def check_verify(case, rc):
    oc = Outcome(attempted=1)
    try:
        payload = read_json(os.path.join(case.out, "verify.json"))
        grid, spec = _load_problem(case)
        h = read_grid_function(grid, case.args[-1])
    except (OSError, ValueError, KeyError, ConfigError) as exc:
        oc.problems.append(f"unreadable output: {exc}")
    else:
        if rc != 0 or payload.get("passes") is not True:
            oc.problems.append(f"verify did not pass (exit {rc})")
        if "error" in payload.get("diagnostics", {"error": "missing"}):
            oc.problems.append("verify.json has no diagnostics")
        oc.problems.extend(solution_problems(spec, h))
    oc.failed = int(bool(oc.problems))
    return oc


def check_spectrum(case, rc):
    oc = Outcome(attempted=1)
    cfg = parse_config(case.config)
    try:
        ev = np.loadtxt(os.path.join(case.out, "spectrum.csv"), skiprows=1, ndmin=1)
    except (OSError, ValueError) as exc:
        oc.problems.append(f"unreadable spectrum.csv: {exc}")
    else:
        # acceptance criterion 04: one positive even eigenvalue, within 1%
        # of binom(n-1, k-1) n (q-p) / k
        top = math.comb(cfg.n - 1, cfg.k - 1) * cfg.n * (cfg.q - cfg.p) / cfg.k
        if rc != 0:
            oc.problems.append(f"spectrum exit code {rc}")
        if len(ev) != cfg.m_lat * cfg.m_lon // 2:
            oc.problems.append(f"{len(ev)} eigenvalues for the even subspace")
        elif np.sum(ev > 0) != 1 or abs(np.max(ev) - top) > 0.01 * abs(top):
            oc.problems.append(f"spectrum top {np.max(ev):.6g} vs {top:.6g}, "
                               f"{int(np.sum(ev > 0))} positive")
    oc.failed = int(bool(oc.problems))
    return oc


CHECKS = {"solve": check_solve, "sweep": check_sweep,
          "manufacture": check_manufacture, "verify": check_verify,
          "spectrum": check_spectrum}


def check(case, rc):
    """Gate one case given the command's exit code (None if it crashed)."""
    if rc is None:
        n = len(case.expect.get("points", ())) or 1
        return Outcome(attempted=n, failed=n, problems=[f"{case.name} crashed"])
    return CHECKS[case.command](case, rc)
