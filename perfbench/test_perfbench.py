"""Tests of the benchmark itself, on tiny grids.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os

import numpy as np
import pytest

from cmkit import cli, continuation, problem, sphere
from cmkit.config import build_problem, parse_config

import gate
import run
import tracer
import workloads
from worker import run_case

TINY = {"n": 2, "k": 2, "p": 1.5, "q": 2.5, "grid.m_lat": 8, "grid.m_lon": 16,
        "f.kind": "quadratic", "f.a": 0.5, "out.mesh": True}


def solve_case(root, name="tiny", **overrides):
    return workloads._case(str(root), name, "solve", {**TINY, **overrides}, mesh=True)


@pytest.fixture
def solved(tmp_path):
    case = solve_case(tmp_path)
    rc, _ = run_case(case)
    return case, rc


def test_solve_outputs_pass_and_counts_match_the_library(solved):
    case, rc = solved
    oc = gate.check(case, rc)
    assert (rc, oc.attempted, oc.failed, oc.problems) == (0, 1, 0, [])
    trace = continuation.continue_path(build_problem(parse_config(case.config))[1])
    assert oc.cont_steps == len(trace.steps) - 1
    assert oc.newton_iters == sum(s["newton_iterations"] for s in trace.steps)
    report = gate.read_json(os.path.join(case.out, "report.json"))
    assert report["steps"] == oc.cont_steps


def test_corrupted_solution_is_counted_failed(solved):
    case, rc = solved
    path = os.path.join(case.out, "solution.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    lat, lon, value = lines[5].split(",")
    lines[5] = f"{lat},{lon},{float(value) * 1.01!r}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    oc = gate.check(case, rc)
    assert oc.failed == 1
    assert any("not even" in p or "residual" in p for p in oc.problems)


def test_non_converging_case_is_counted_failed(tmp_path):
    case = solve_case(tmp_path, **{"newton.max_iter": 1, "continuation.dt_min": 0.05})
    rc, _ = run_case(case)
    oc = gate.check(case, rc)
    assert rc == 1
    assert (oc.attempted, oc.failed) == (1, 1)


def test_crash_is_counted_failed(tmp_path):
    case = solve_case(tmp_path)
    assert gate.check(case, None).failed == 1


def tiny_sweep(tmp_path):
    spec = (("circle", 1, 1, {"grid.m_theta": 32}, (1.2, 1.5), (1.8, 2.5)),)
    return workloads.sweep_small(str(tmp_path), np.random.default_rng(0), sweeps=spec)[0]


def test_sweep_points_and_the_expected_failure(tmp_path):
    case = tiny_sweep(tmp_path)
    rc, _ = run_case(case)
    oc = gate.check(case, rc)
    rows = gate.read_jsonl(os.path.join(case.out, "sweep.jsonl"))
    assert rc == 1  # the q = p + 1 point fails, so the sweep exits 1
    assert (oc.attempted, oc.failed, oc.declined) == (4, 0, 1)
    assert oc.cont_steps == sum(r["steps"] for r in rows if r["success"])

    # a success claim that does not hold up counts, and so does a failure
    # of a point the benchmark expects to converge
    rows[0]["residual"] = 1e-3
    rows[1]["success"] = False
    with open(os.path.join(case.out, "sweep.jsonl"), "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)
    assert gate.check(case, rc).failed == 2


def test_tracer_counts_layers_and_restores_modules(tmp_path):
    cases = [solve_case(tmp_path), tiny_sweep(tmp_path)]
    originals = (problem.hessian_field, sphere.hessian_field, cli.continue_path,
                 sphere.SphereGrid.operator_matrices)
    with tracer.Tracer() as tr:
        assert problem.hessian_field is not originals[0]
        assert cli.continue_path is not originals[2]
        codes = [run_case(case)[0] for case in cases]
    assert (problem.hessian_field, sphere.hessian_field, cli.continue_path,
            sphere.SphereGrid.operator_matrices) == originals
    oc = gate.Outcome()
    for case, rc in zip(cases, codes):
        oc.add(gate.check(case, rc))
    assert oc.failed == 0
    m = {k: v for k, (v, _) in tracer.layer_metrics(tr.spans).items()}
    assert m["continuation.steps"] == oc.cont_steps > 0
    assert m["assemble.calls"] == m["linsolve.calls"] > m["newton.iters"] > 0
    # the singular q = p + 1 point raises inside the dense solve
    assert m["linsolve.dense_calls"] == m["linsolve.calls"]
    assert 0 < m["continuation.rejects"] < m["continuation.attempts"]
    assert 0 < m["continuation.accept_ratio"] < 1
    assert m["hessian_field.per_newton_iter"] > 1.0
    assert m["newton.self_s"] < m["newton.iter_s"] * m["newton.iters"]
    assert m["write_obj.s"] > 0 and m["config.parse_s"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
