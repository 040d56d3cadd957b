"""Config parsing and the command-line front end."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit.cli import main
from cmkit.config import build_f, build_problem, parse_config
from cmkit.continuation import continue_path
from cmkit.diagnostics import l0_spectrum
from cmkit.errors import ConfigError
from cmkit.sphere import build_grid, read_grid_function

BASE = """\
n = 2
k = 1
p = 1.5
q = 2.0
grid.m_lat = 16
grid.m_lon = 32
f.kind = constant
f.value = 2.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_with_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "n = 1\nk = 1\np = 1.5\nq = 2.0\n"))
    assert (cfg.n, cfg.k, cfg.p, cfg.q) == (1, 1, 1.5, 2.0)
    assert cfg.m_theta == 256  # n = 1 default
    assert cfg.newton_tol == 1e-10 and cfg.dt0 == 0.1
    assert cfg.out_dir == "out" and cfg.seed == 0


def test_parse_comments_and_spacing(tmp_path):
    text = "# full-line comment\n\nn = 2  # trailing comment\nk=1\np =1.5\nq= 2.0\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.n == 2 and cfg.k == 1
    assert cfg.m_lat == 32 and cfg.m_lon == 64  # n = 2 defaults
    assert cfg.lines["n"] == 3


@pytest.mark.parametrize("text,fragment,line_no", [
    ("n = 2\nk = 1\np = 1.5\nq = 2.0\nbogus.key = 3\n", "unknown key 'bogus.key'", 5),
    ("n = 2\nk = one\np = 1.5\nq = 2.0\n", "'k' expects an integer", 2),
    ("n = 2\nk = 1\np = 1.5\nq 2.0\n", "expected 'key = value'", 4),
    ("n = 2\nk = 1\np =\nq = 2.0\n", "empty value", 3),
    ("n = 2\nk = 1\np = 1.5\nq = 2.0\nf.axis = 1,2\n", "f.axis needs 3 components", 5),
    ("n = 2\nk = 1\np = 1.5\nq = 2.0\nf.kind = cubic\n", "f.kind must be", 5),
    ("n = 2\nk = 1\np = 1.5\nq = 2.0\ngrid.m_lon = 33\n", "even m_lon", 5),
    ("n = 2\nk = 1\np = 1.5\nq = 2.0\nout.mesh = maybe\n", "expects true/false", 5),
])
def test_parse_errors_carry_line_numbers(tmp_path, text, fragment, line_no):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert fragment in str(err.value)
    assert f":{line_no}:" in str(err.value)


def test_parse_rejects_duplicates_and_missing(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key 'k'"):
        parse_config(write_cfg(tmp_path, "n = 2\nk = 1\nk = 2\np = 1.5\nq = 2.0\n"))
    with pytest.raises(ConfigError, match="missing required key 'q'"):
        parse_config(write_cfg(tmp_path, "n = 2\nk = 1\np = 1.5\n"))
    with pytest.raises(ConfigError, match="n must be 1 or 2"):
        parse_config(write_cfg(tmp_path, "n = 3\nk = 1\np = 1.5\nq = 2.0\n"))


def test_invalid_problem_parameters_become_config_errors(tmp_path, capsys):
    # k = 3 on S^2 is set on line 2; solve and manufacture both name it
    path = write_cfg(tmp_path, "n = 2\nk = 3\np = 1.5\nq = 2.0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}:2: invalid problem parameters"):
        build_problem(parse_config(path))
    for command in ("solve", "manufacture"):
        assert main([command, path]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {path}:2: invalid problem parameters: need 1 <= k <= n")


# ProblemSpec field -> (config key, invalid values)
SOLVER_CONTROLS = {
    "dt0": ("continuation.dt0", ("0", "-0.1", "inf", "nan")),
    "dt_min": ("continuation.dt_min", ("0", "-0.1", "inf", "nan")),
    "dt_max": ("continuation.dt_max", ("0", "-0.1", "inf", "nan")),
    "tol_newton": ("newton.tol", ("0", "-1", "inf", "nan")),
    "max_newton": ("newton.max_iter", ("0", "-3")),
}


@pytest.mark.parametrize("key", list(SOLVER_CONTROLS))
def test_step_size_controls_must_be_positive_and_finite(tmp_path, capsys, key):
    # a zero step size used to make `cmkit solve` loop forever, a negative
    # one to fail with exit 1 on the t range instead of a config error; a
    # tolerance or iteration cap that cannot be met ran until the line
    # search or the step size gave up, with exit 1
    from cmkit.problem import ProblemSpec
    from cmkit.sphere import constant_function

    f = constant_function(build_grid(1, m_theta=64), 1.0)
    cfg_key, values = SOLVER_CONTROLS[key]
    convert = int if key == "max_newton" else float
    for value in values:
        with pytest.raises(ValueError, match=key):
            ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=f, **{key: convert(value)})
        path = write_cfg(tmp_path, BASE + f"{cfg_key} = {value}\n")
        assert main(["solve", path]) == 2
        # the error names the line that set the value, the last one
        line_no = len(BASE.splitlines()) + 1
        assert capsys.readouterr().err.startswith(
            f"config error: {path}:{line_no}: invalid problem parameters: {key}")


def test_step_sizes_must_be_ordered(tmp_path, capsys):
    # dt0 = 0.9 above dt_max = 0.5 used to be accepted: the first step
    # went to t = 0.9 and only the later ones were capped
    from cmkit.problem import ProblemSpec
    from cmkit.sphere import constant_function

    f = constant_function(build_grid(1, m_theta=64), 1.0)
    for bad in (dict(dt0=0.9, dt_max=0.5), dict(dt0=0.1, dt_min=0.2)):
        with pytest.raises(ValueError, match="dt_min <= dt0 <= dt_max"):
            ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=f, **bad)
        text = "".join(f"continuation.{key} = {value}\n" for key, value in bad.items())
        path = write_cfg(tmp_path, BASE + text)
        assert main(["solve", path]) == 2
        assert "config error" in capsys.readouterr().err
    ProblemSpec(n=1, k=1, p=1.5, q=2.0, f=f, dt0=0.5, dt_min=0.5, dt_max=0.5)


# ---------------------------------------------------------------------------
# data families
# ---------------------------------------------------------------------------

def test_quadratic_family_closed_form(tmp_path):
    text = BASE.replace("f.kind = constant", "f.kind = quadratic") + \
        "f.a = 0.5\nf.axis = 0,0,1\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    g = build_grid(2, m_lat=16, m_lon=32)
    f = build_f(cfg, g)
    z = g.coords[:, 2]
    expected = (1.0 + 0.5 * z ** 2) ** (-(cfg.k + cfg.p - 1))
    assert_allclose(f.values, expected, rtol=1e-15)


def test_csv_family_resolves_relative_to_config(tmp_path):
    g = build_grid(2, m_lat=16, m_lon=32)
    from cmkit.sphere import constant_function, write_grid_function
    write_grid_function(constant_function(g, 1.25), os.path.join(tmp_path, "f.csv"))
    text = BASE.replace("f.kind = constant", "f.kind = csv")
    text = text.replace("f.value = 2.0", "f.path = f.csv")
    cfg = parse_config(write_cfg(tmp_path, text))
    f = build_f(cfg, g)
    assert np.all(f.values == 1.25)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def test_solve_round_body(tmp_path):
    path = write_cfg(tmp_path, BASE + "out.mesh = true\n")
    assert main(["solve", path]) == 0
    out = os.path.join(tmp_path, "out")
    g = build_grid(2, m_lat=16, m_lon=32)
    h = read_grid_function(g, os.path.join(out, "solution.csv"))
    assert np.all(h.values == 1.0)
    report = json.loads(Path(out, "report.json").read_text())
    assert report["success"] and report["steps"] == 1
    assert report["residual"]["linf"] <= 1e-12
    assert report["diagnostics"]["min_b_eig"] > 0
    assert os.path.exists(os.path.join(out, "mesh.obj"))
    rows = [json.loads(line)
            for line in Path(out, "trace.jsonl").read_text().splitlines()]
    assert [row["t"] for row in rows] == [0.0, 1.0]


def test_solve_report_f1_is_the_f1_check_of_the_data(tmp_path):
    # the f1 check is the report's, not the path's: report.json's "f1" and
    # the diagnostics' f1_satisfied are validate_f1 of the config's data
    from cmkit.problem import validate_f1

    path = write_cfg(tmp_path, BASE.replace(
        "f.kind = constant\nf.value = 2.0\n", "f.kind = quadratic\nf.a = 0.5\n"))
    assert main(["solve", path]) == 0
    report = json.loads(Path(tmp_path, "out", "report.json").read_text())
    f1 = validate_f1(build_problem(parse_config(path))[1])
    assert report["f1"] == f1
    assert report["diagnostics"]["f1_satisfied"] == f1["satisfied"]


def test_solve_report_counts_newton_and_krylov_work(tmp_path):
    # a tilted quadratic 16x32 solve: the counters sum the accepted steps
    # of trace.jsonl, every Newton step spent 1..KRYLOV_MAX_ITER GMRES
    # iterations, and each corrector built its preconditioner at its first
    # step and at most once more per later step
    from cmkit.newton import KRYLOV_MAX_ITER

    path = write_cfg(tmp_path, BASE.replace(
        "f.kind = constant\nf.value = 2.0\n",
        "f.kind = quadratic\nf.a = 0.5\nf.axis = 0.6,0,0.8\n"))
    assert main(["solve", path]) == 0
    out = os.path.join(tmp_path, "out")
    counters = json.loads(Path(out, "report.json").read_text())["counters"]
    rows = [json.loads(line)
            for line in Path(out, "trace.jsonl").read_text().splitlines()]
    assert counters["newton_iterations"] == sum(row["newton_iterations"] for row in rows) > 0
    assert counters["newton_iterations"] <= counters["krylov_iterations"] \
        <= KRYLOV_MAX_ITER * counters["newton_iterations"]
    assert 0 < counters["preconditioner_builds"] <= counters["newton_iterations"]


@pytest.mark.parametrize("axis, solve_grid", [("0,0,1", [16, 8]), ("0.6,0,0.8", [16, 32])])
def test_solve_report_names_the_grid_of_the_step_loop(tmp_path, axis, solve_grid):
    # polar data run the loop on the ring grid, tilted data on their own;
    # the solution and the report's residual are the full grid's either
    # way, and the exponent note (q > k + 1) appears once
    from cmkit.problem import RANGE_NOTE, evaluate

    path = write_cfg(tmp_path, BASE.replace("k = 1\np = 1.5\nq = 2.0", "k = 2\np = 1.5\nq = 3.2")
                     .replace("f.kind = constant\nf.value = 2.0\n",
                              f"f.kind = quadratic\nf.a = 0.5\nf.axis = {axis}\n"))
    assert main(["solve", path]) == 0
    out = os.path.join(tmp_path, "out")
    report = json.loads(Path(out, "report.json").read_text())
    assert report["solve_grid"] == solve_grid and report["problem"]["grid"] == [16, 32]
    assert report["warnings"] == [RANGE_NOTE]
    grid, spec = build_problem(parse_config(path))
    h = read_grid_function(grid, os.path.join(out, "solution.csv"))
    assert report["residual"]["linf"] == evaluate(spec, h, 1.0).linf <= spec.tol_newton


def test_verify_solution_round_trip(tmp_path):
    path = write_cfg(tmp_path, BASE)
    assert main(["solve", path]) == 0
    sol = os.path.join(tmp_path, "out", "solution.csv")
    assert main(["verify", path, "--solution", sol]) == 0
    report = json.loads(Path(tmp_path, "out", "verify.json").read_text())
    assert report["passes"] and report["residual"]["linf"] <= 1e-10


def test_verify_flags_wrong_solution(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    assert main(["solve", path]) == 0
    sol = os.path.join(tmp_path, "out", "solution.csv")
    # perturb the stored solution: residual must blow past the tolerance
    lines = Path(sol).read_text().splitlines()
    head, rows = lines[0], lines[1:]
    bad = [head]
    for row in rows:
        *coords, val = row.split(",")
        bad.append(",".join(coords + [repr(float(val) * 1.01)]))
    with open(sol, "w") as fh:
        fh.write("\n".join(bad) + "\n")
    assert main(["verify", path, "--solution", sol]) == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not payload["passes"]


def test_manufacture_then_solve_then_verify(tmp_path):
    man = write_cfg(tmp_path, """\
n = 2
k = 1
p = 1.5
q = 2.0
grid.m_lat = 16
grid.m_lon = 32
h.kind = quadratic
h.value = 1.0
h.epsilon = 0.05
h.axis = 0,0,1
out.dir = made
""", name="man.cfg")
    assert main(["manufacture", man]) == 0
    solve = write_cfg(tmp_path, """\
n = 2
k = 1
p = 1.5
q = 2.0
grid.m_lat = 16
grid.m_lon = 32
f.kind = csv
f.path = made/f.csv
out.dir = solved
""", name="solve.cfg")
    assert main(["solve", solve]) == 0
    sol = os.path.join(tmp_path, "solved", "solution.csv")
    assert main(["verify", solve, "--solution", sol]) == 0
    report = json.loads(Path(tmp_path, "solved", "verify.json").read_text())
    assert report["residual"]["linf"] <= 1e-12
    # verify evaluates the solution as solve did, and reports it the same
    solved = json.loads(Path(tmp_path, "solved", "report.json").read_text())
    assert report["residual"] == solved["residual"]
    assert report["diagnostics"] == solved["diagnostics"]

    # the recovered solution is the manufactured target up to newton tol
    g = build_grid(2, m_lat=16, m_lon=32)
    h = read_grid_function(g, sol)
    h_star = read_grid_function(g, os.path.join(tmp_path, "made", "h_star.csv"))
    assert np.max(np.abs(h.values - h_star.values)) <= 1e-9


def test_spectrum_command(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE.replace("m_lat = 16", "m_lat = 24")
                     .replace("m_lon = 32", "m_lon = 48"))
    assert main(["spectrum", path]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["positive_count"] == 1
    assert abs(payload["top"] - payload["top_analytic"]) <= 0.01 * abs(payload["top_analytic"])
    eigs = np.loadtxt(os.path.join(tmp_path, "out", "spectrum.csv"), skiprows=1)
    assert np.all(np.diff(eigs) <= 0)
    # byte for byte the earlier per-row writer's file
    ref = "eigenvalue\n" + "".join(
        f"{ev:.17g}\n" for ev in l0_spectrum(build_problem(parse_config(path))[1]))
    assert Path(tmp_path, "out", "spectrum.csv").read_text() == ref


@pytest.mark.parametrize("m_lat, q, positive, note", [
    (24, "1.5", 0, "EQUAL_EXPONENT_NOTE"), (32, "1.5", 0, "EQUAL_EXPONENT_NOTE"),
    (24, "1.501", 1, None), (32, "1.501", 1, None)])
def test_spectrum_positive_count_leaves_out_rounding_residue(tmp_path, capsys,
                                                             m_lat, q, positive, note):
    # at p = q the top even eigenvalue is 0 analytically and computed as
    # +-1e-14, whose sign is not a positive eigenvalue; at q - p = 1e-3 it
    # is 1e-3 and counts
    from cmkit import problem

    path = write_cfg(tmp_path, BASE.replace("q = 2.0", f"q = {q}")
                     .replace("m_lat = 16", f"m_lat = {m_lat}")
                     .replace("m_lon = 32", f"m_lon = {2 * m_lat}"))
    assert main(["spectrum", path]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["positive_count"] == positive
    assert payload["warnings"] == ([getattr(problem, note)] if note else [])


def test_isotropic_command(tmp_path, capsys):
    path = write_cfg(tmp_path, """\
n = 2
k = 1
p = 1.5
q = 2.1
grid.m_lat = 16
grid.m_lon = 32
f.kind = constant
f.value = 1.0
isotropic.restarts = 1
""")
    assert main(["isotropic", path]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["window_ok"]
    assert payload["sphere_radius_error"] <= 1e-6
    # wrong f is a config error
    bad = write_cfg(tmp_path, BASE, name="bad.cfg")
    assert main(["isotropic", bad]) == 2


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 does."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_failed_isotropic_path_writes_strict_json(tmp_path, capsys):
    # the path fails, so the radius error is inf: written as null
    path = write_cfg(tmp_path, """\
n = 2
k = 1
p = 1.5
q = 2.0
grid.m_lat = 8
grid.m_lon = 16
f.kind = constant
f.value = 1
newton.max_iter = 1
continuation.dt_min = 0.05
""")
    assert main(["isotropic", path]) == 1
    stdout = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    written = _strict_json(Path(tmp_path, "out", "isotropic.json").read_text())
    assert stdout == written
    assert written["sphere_radius_error"] is None and written["restart_errors"] == []


def test_declined_isotropic_restart_is_inf_and_outputs_are_written(monkeypatch, tmp_path,
                                                                  capsys):
    # every linear step after the path has returned is declined: the
    # restart's corrector ends unconverged, its error is inf (null), and the
    # command still writes its outputs and exits 1
    from cmkit import diagnostics, newton
    from cmkit.errors import SingularJacobianError

    returned = []
    continue_path, solve_linear = diagnostics.continue_path, newton.solve_linear

    def path_then_mark(spec):
        trace = continue_path(spec)
        returned.append(trace.success)
        return trace

    def declining(*args, **kwargs):
        if returned:
            raise SingularJacobianError("forced")
        return solve_linear(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "continue_path", path_then_mark)
    monkeypatch.setattr(newton, "solve_linear", declining)
    path = write_cfg(tmp_path, "n = 1\nk = 1\np = 1.5\nq = 2.0\ngrid.m_theta = 32\n"
                               "f.kind = constant\nf.value = 1\nisotropic.restarts = 1\n")
    assert main(["isotropic", path]) == 1
    assert returned == [True]
    written = _strict_json(Path(tmp_path, "out", "isotropic.json").read_text())
    assert written["sphere_radius_error"] <= 1e-6 and written["restart_errors"] == [None]
    assert Path(tmp_path, "out", "solution.csv").is_file()


def test_huge_residual_report_has_finite_l2_in_strict_json(tmp_path, capsys):
    # the run fails honestly; its report still holds finite norms
    path = write_cfg(tmp_path, "n = 1\nk = 1\np = 1.5\nq = 2.0\ngrid.m_theta = 16\n"
                               "f.kind = constant\nf.value = 1e200\n")
    assert main(["solve", path]) == 1
    stdout = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    out = Path(tmp_path, "out")
    report = _strict_json(Path(out, "report.json").read_text())
    for line in Path(out, "trace.jsonl").read_text().splitlines():
        _strict_json(line)
    linf, l2 = report["residual"]["linf"], report["residual"]["l2"]
    assert not report["success"] and stdout["residual_linf"] == linf > 1e154
    assert 0.0 < l2 < float("inf")


def test_sweep_command(tmp_path):
    path = write_cfg(tmp_path, """\
n = 1
k = 1
p = 1.5
q = 2.0
grid.m_theta = 64
f.kind = constant
f.value = 1.3
sweep.p = 1.2, 1.8
sweep.q = 2.0, 2.4
""")
    assert main(["sweep", path]) == 0
    rows = [json.loads(line) for line in
            Path(tmp_path, "out", "sweep.jsonl").read_text().splitlines()]
    assert len(rows) == 4
    assert all(row["success"] for row in rows)
    assert {(row["p"], row["q"]) for row in rows} == \
        {(1.2, 2.0), (1.2, 2.4), (1.8, 2.0), (1.8, 2.4)}
    for row in rows:
        assert_allclose(row["R"], 1.3 ** (1.0 / (row["q"] - row["p"])), rtol=1e-8)
    # each row carries the work counters of its point's accepted steps
    cfg = parse_config(path)
    for row in rows:
        spec = build_problem(dataclasses.replace(cfg, p=row["p"], q=row["q"]))[1]
        trace = continue_path(spec)
        assert row["newton_iterations"] == sum(s["newton_iterations"] for s in trace.steps) > 0
        assert {key: row[key] for key in trace.counters()} == trace.counters()


# bad f data: (the config lines after BASE's first six, the key at fault,
# a fragment of the message)
BAD_F = {
    "missing-csv": ("f.kind = csv\nf.path = missing.csv\n", "f.path", "not found"),
    "csv-row-count": ("f.kind = csv\nf.path = small.csv\n", "f.path", "expected 512 rows"),
    "negative-base": ("f.kind = quadratic\nf.a = -2\n", "f.a", "f.a = -2 makes"),
    "zero-axis": ("f.kind = quadratic\nf.a = 0.5\nf.axis = 0,0,0\n", "f.axis",
                  "f.axis must be a finite nonzero vector"),
    "nan-value": ("f.kind = constant\nf.value = nan\n", "f.value",
                  "f must be positive and finite, got nan"),
    "negative-value": ("f.kind = constant\nf.value = -1\n", "f.value",
                       "f must be positive and finite, got -1"),
}


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("case", list(BAD_F))
def test_bad_f_data_is_a_config_error_at_its_line(tmp_path, capsys, command, case):
    # f data that give no positive, finite f exit 2 with the file and the
    # line of the key at fault, and no traceback or warning; a sweep stops
    # before its first point and writes no sweep.jsonl
    from cmkit.sphere import constant_function, write_grid_function

    write_grid_function(constant_function(build_grid(2, m_lat=8, m_lon=16), 1.0),
                        os.path.join(tmp_path, "small.csv"))
    lines, key, fragment = BAD_F[case]
    text = "".join(BASE.splitlines(keepends=True)[:6]) + lines
    if command == "sweep":
        text += "sweep.p = 1.2, 1.5\nsweep.q = 2.0\n"
    path = write_cfg(tmp_path, text)
    line_no = text.splitlines().index(
        next(line for line in text.splitlines() if line.startswith(key + " "))) + 1
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:{line_no}: ")
    assert fragment in err
    assert "Traceback" not in err and "Warning" not in err
    assert not Path(tmp_path, "out", "sweep.jsonl").exists()


def test_zero_h_axis_is_a_config_error_at_its_line(tmp_path, capsys):
    text = "n = 2\nk = 1\np = 1.5\nq = 2.0\nh.kind = quadratic\nh.axis = 0,0,0\n"
    assert main(["manufacture", write_cfg(tmp_path, text)]) == 2
    assert ":6: h.axis must be a finite nonzero vector" in capsys.readouterr().err


# h.* lines -> (the key at fault, how the value the error shows begins)
BAD_H = {
    "negative-value": ("h.value = -1\n", "h.value", "-1"),
    "inf-value": ("h.value = inf\n", "h.value", "inf"),
    "nan-value": ("h.value = nan\n", "h.value", "nan"),
    "negative-epsilon": ("h.kind = quadratic\nh.epsilon = -2\n", "h.epsilon", "-"),
    "nan-epsilon": ("h.kind = quadratic\nh.epsilon = nan\n", "h.epsilon", "nan"),
    "negative-quadratic-value": ("h.kind = quadratic\nh.value = -1\nh.epsilon = 0.1\n",
                                 "h.value", "-"),
    "inf-quadratic-value": ("h.kind = quadratic\nh.value = inf\nh.epsilon = 0.1\n",
                            "h.value", "inf"),
}


@pytest.mark.parametrize("case", list(BAD_H))
def test_bad_h_data_is_a_config_error_at_its_line(tmp_path, capsys, case):
    # h data that give no positive, finite h* used to exit 1 with no line
    lines, key, shown = BAD_H[case]
    text = "n = 2\nk = 1\np = 1.5\nq = 2.0\ngrid.m_lat = 8\ngrid.m_lon = 16\n" + lines
    path = write_cfg(tmp_path, text)
    line_no = next(i for i, line in enumerate(text.splitlines(), 1)
                   if line.startswith(key + " "))
    assert main(["manufacture", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: {path}:{line_no}: h must be positive and finite, got {shown}")
    assert not Path(tmp_path, "out").exists()


@pytest.mark.parametrize("f_lines", ["f.kind = constant\n", "f.kind = quadratic\nf.a = 0.5\n",
                                     "f.kind = csv\nf.path = f.csv\n"])
@pytest.mark.parametrize("key", ["p", "q", "sweep.p", "sweep.q"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_exponents_are_config_errors_at_their_line(tmp_path, capsys, f_lines,
                                                              key, value):
    # p = inf used to end in a ZeroDivisionError traceback (a sweep also
    # left an empty sweep.jsonl), q = nan and p = nan in exit 1
    from cmkit.sphere import constant_function, write_grid_function

    write_grid_function(constant_function(build_grid(2, m_lat=8, m_lon=16), 1.0),
                        os.path.join(tmp_path, "f.csv"))
    head = "n = 2\nk = 1\ngrid.m_lat = 8\ngrid.m_lon = 16\n" + f_lines
    exponents = {"p": "1.5", "q": "2.0", "sweep.p": "1.2, 1.5", "sweep.q": "2.0"}
    exponents[key] = value if key in ("p", "q") else f"{exponents[key]}, {value}"
    text = head + "".join(f"{name} = {val}\n" for name, val in exponents.items())
    path = write_cfg(tmp_path, text)
    line_no = len(head.splitlines()) + list(exponents).index(key) + 1
    assert main(["sweep" if key.startswith("sweep") else "solve", path]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path}:{line_no}: {key} must be finite, got {value}\n"
    assert not Path(tmp_path, "out").exists()


def test_negative_seed_is_a_config_error_at_its_line(tmp_path, capsys):
    # seed = -1 used to exit 1 with numpy's "expected non-negative integer"
    text = "n = 1\nk = 1\np = 1.5\nq = 2.0\ngrid.m_theta = 16\nseed = -1\n"
    path = write_cfg(tmp_path, text)
    assert main(["isotropic", path]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}:6: seed must be non-negative, got -1\n")
    assert parse_config(write_cfg(tmp_path, text.replace("-1", "0"), name="ok.cfg")).seed == 0


@pytest.mark.parametrize("command", ["solve", "sweep", "manufacture"])
def test_out_dir_under_a_file_is_a_config_error_at_its_line(tmp_path, capsys, monkeypatch,
                                                            command):
    # an out.dir under a regular file used to end `cmkit solve` in a
    # NotADirectoryError traceback, exit 1, after the whole solve
    from cmkit import cli

    def no_path(spec):
        raise AssertionError("continue_path ran")

    monkeypatch.setattr(cli, "continue_path", no_path)
    Path(tmp_path, "afile").write_text("")
    text = BASE + "sweep.p = 1.2, 1.5\nsweep.q = 2.0\nout.dir = afile/x\n"
    path = write_cfg(tmp_path, text)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:11: out.dir cannot be made: ")
    assert "afile is not a directory" in err and "Traceback" not in err


def test_out_dir_that_cannot_be_made_after_parsing_is_a_config_error(tmp_path):
    # the parse-time check sees a tree that may change before the output is
    # written; making out.dir then fails with a ConfigError at its line
    from cmkit.config import ensure_out_dir

    cfg = parse_config(write_cfg(tmp_path, BASE + "out.dir = later/x\n"))
    Path(tmp_path, "later").write_text("")
    with pytest.raises(ConfigError, match=r":9: out.dir cannot be made: "):
        ensure_out_dir(cfg)


@pytest.mark.parametrize("line,message", [
    ("isotropic.restarts = -1", "isotropic.restarts must be non-negative, got -1"),
    ("isotropic.restarts = -5", "isotropic.restarts must be non-negative, got -5"),
    ("isotropic.amplitude = nan", "isotropic.amplitude must be finite and in [0, 1), got nan"),
    ("isotropic.amplitude = inf", "isotropic.amplitude must be finite and in [0, 1), got inf"),
    ("isotropic.amplitude = -5", "isotropic.amplitude must be finite and in [0, 1), got -5.0"),
    ("isotropic.amplitude = 1", "isotropic.amplitude must be finite and in [0, 1), got 1.0"),
    ("isotropic.amplitude = 2", "isotropic.amplitude must be finite and in [0, 1), got 2.0"),
])
def test_bad_isotropic_keys_are_config_errors_at_their_line(tmp_path, capsys, line, message):
    # restarts = -1 used to run as 0 restarts, -5 to end in a RuntimeError
    # traceback and amplitude = nan in exit 1
    text = f"n = 1\nk = 1\np = 1.5\nq = 2.0\ngrid.m_theta = 16\n{line}\n"
    path = write_cfg(tmp_path, text)
    assert main(["isotropic", path]) == 2
    assert capsys.readouterr().err == f"config error: {path}:6: {message}\n"
    assert not Path(tmp_path, "out").exists()


def test_inadmissible_isotropic_amplitude_exits_1_naming_it(tmp_path, capsys):
    # on the circle with k = 1 every amplitude >= 1/3 leaves Gamma_1, so no
    # perturbed start is found: an error, not a traceback
    text = "n = 1\nk = 1\np = 1.5\nq = 2.0\ngrid.m_theta = 16\nisotropic.amplitude = 0.9\n"
    assert main(["isotropic", write_cfg(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "amplitude 0.9 " in err


def test_out_of_theorem_warning_recorded(tmp_path):
    path = write_cfg(tmp_path, """\
n = 1
k = 1
p = 0.5
q = 0.2
grid.m_theta = 64
f.kind = constant
f.value = 1.0
""")
    assert main(["solve", path]) == 0
    report = json.loads(Path(tmp_path, "out", "report.json").read_text())
    assert report["warnings"]


def test_exit_codes_for_usage_and_config_errors(tmp_path):
    assert main(["solve", os.path.join(tmp_path, "missing.cfg")]) == 2
    bad = write_cfg(tmp_path, "n = 2\nk = 1\np = 1.5\nq = 2.0\nwho = 1\n")
    assert main(["solve", bad]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus-flag", "x.cfg"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.cfg"])
    assert exc.value.code == 2


def test_thread_cap_is_harmless(tmp_path, monkeypatch):
    monkeypatch.setenv("CMK_THREADS", "1")
    path = write_cfg(tmp_path, "n = 1\nk = 1\np = 1.5\nq = 2.0\n"
                     "grid.m_theta = 64\nf.value = 1.0\n")
    assert main(["solve", path]) == 0
    monkeypatch.setenv("CMK_THREADS", "lots")
    assert main(["solve", path]) == 0  # warns and continues


# reads the thread count of every loaded OpenBLAS after the cap is applied
THREAD_PROBE = """
import ctypes, json
from cmkit import cli
cli._apply_thread_cap()
with open("/proc/self/maps") as fh:
    paths = cli._mapped_openblas(fh)
counts = []
for path in paths:
    lib = ctypes.CDLL(path)
    getters = [s.replace("_set_", "_get_") for s in cli.BLAS_SETTERS]
    getter = getattr(lib, next(s for s in getters if hasattr(lib, s)))
    getter.argtypes = []
    getter.restype = ctypes.c_int
    counts.append(getter())
print(json.dumps(counts))
"""


def test_thread_cap_sets_blas_threads():
    # BLAS is loaded with two threads before the cap is read
    import cmkit

    src = os.path.dirname(os.path.dirname(os.path.abspath(cmkit.__file__)))
    env = {**os.environ, "CMK_THREADS": "1", "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    counts = json.loads(out.stdout)
    if not counts:
        pytest.skip("no OpenBLAS loaded (numpy built against another BLAS)")
    assert all(c == 1 for c in counts)
    assert "CMK_THREADS" not in out.stderr


# runs cmkit solves in a fresh interpreter and lists the scipy modules loaded
NO_SCIPY_PROBE = """
import json, sys
from cmkit import cli
codes = [cli.main(["solve", path]) for path in sys.argv[1:]]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_solves_import_no_scipy(tmp_path):
    # the circle, 8x16 and a tilted 16x32 solve, each through cli.main in
    # one fresh process: none of them imports scipy
    import cmkit

    paths = []
    for name, grid, data in (
            ("circle", "grid.m_theta = 32\n", "f.kind = constant\nf.value = 2.0\n"),
            ("small", "grid.m_lat = 8\ngrid.m_lon = 16\n",
             "f.kind = quadratic\nf.a = 0.5\n"),
            ("tilted", "grid.m_lat = 16\ngrid.m_lon = 32\n",
             "f.kind = quadratic\nf.a = 0.5\nf.axis = 0.6,0,0.8\n")):
        n = 1 if name == "circle" else 2
        out = os.path.join(tmp_path, name)
        text = f"n = {n}\nk = 1\np = 1.5\nq = 2.0\n{grid}{data}out.dir = {out}\n"
        paths.append(write_cfg(tmp_path, text, name=f"{name}.cfg"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmkit.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, *paths], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}
    for name in ("circle", "small", "tilted"):
        assert json.loads(Path(tmp_path, name, "report.json").read_text())["success"]


def test_numpy_is_the_only_runtime_dependency():
    # pyproject.toml read as text (Python 3.10 has no tomllib): the
    # [project] dependencies name numpy alone, and scipy, which only the
    # tests use, sits in the test extra
    text = Path(__file__).resolve().parents[1].joinpath("pyproject.toml").read_text()

    def names(section, key):
        body = "\n" + text.split(f"\n{section}\n", 1)[1].split("\n[", 1)[0]
        items = body.split(f"\n{key} = [", 1)[1].split("]", 1)[0]
        return [re.split(r"[<>=!~ ;\[]", item.strip().strip(",").strip('"'))[0]
                for item in items.splitlines() if item.strip()]

    assert names("[project]", "dependencies") == ["numpy"]
    assert "scipy" in names("[project.optional-dependencies]", "test")


def test_mapped_openblas_reads_whole_pathnames(tmp_path):
    from cmkit import cli

    lib = tmp_path / "My Projects" / "libscipy_openblas64_.so"
    lib.parent.mkdir()
    lib.write_bytes(b"")
    gone = tmp_path / "libopenblas.so"
    lines = [f"7f0000-7f1000 r-xp 00000000 08:01 1234   {lib}\n",
             f"7f1000-7f2000 r--p 00001000 08:01 1234   {lib}\n",
             f"7f2000-7f3000 r-xp 00000000 08:01 999    {gone} (deleted)\n",
             "7f3000-7f4000 rw-p 00000000 00:00 0 \n",
             "7f4000-7f5000 r-xp 00000000 08:01 77     /usr/lib/libc.so.6\n"]
    assert cli._mapped_openblas(lines) == [str(lib)]


def test_thread_cap_warns_when_a_library_does_not_load(tmp_path, monkeypatch, capsys):
    from cmkit import cli

    bogus = tmp_path / "libopenblas.so"
    bogus.write_text("not a shared object")
    monkeypatch.setattr(cli, "_mapped_openblas", lambda lines: [str(bogus)])
    monkeypatch.setenv("CMK_THREADS", "1")
    cli._apply_thread_cap()
    assert "CMK_THREADS has no effect" in capsys.readouterr().err


def test_thread_cap_warns_without_a_setter(monkeypatch, capsys):
    from cmkit import cli

    monkeypatch.setattr(cli, "BLAS_SETTERS", ())
    monkeypatch.setenv("CMK_THREADS", "1")
    cli._apply_thread_cap()
    assert "CMK_THREADS has no effect" in capsys.readouterr().err
