"""Seeded inputs for the benchmark workloads.

Each workload is a fixed list of cases, and each case is one `cmkit`
command on a config file written here.  The seed moves the data only
inside ranges where every seed does the same solver work (the same
continuation steps and Newton iterations), so the spread between seeds
measures the program and the machine rather than the draw.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from cmkit.sphere import GridFunction, build_grid, write_grid_function

WORKLOADS = ("solve-default", "solve-large", "sweep-small", "verify")

POLAR = (0.0, 0.0, 1.0)


@dataclass
class Case:
    """One cmkit command: `cmkit <command> <config> <args...>`.

    `out` is the out.dir the config names; `expect` carries what the
    correctness gate needs to know about the inputs.
    """

    name: str
    command: str
    config: str
    out: str
    args: tuple = ()
    expect: dict = field(default_factory=dict)

    @property
    def argv(self):
        return [self.command, self.config, *self.args]


def write_config(path, entries):
    with open(path, "w") as fh:
        for key, value in entries.items():
            if isinstance(value, (tuple, list)):
                value = ",".join(repr(float(v)) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, (float, np.floating)):
                value = repr(float(value))
            fh.write(f"{key} = {value}\n")


def _case(root, name, command, entries, args=(), **expect):
    cdir = os.path.join(root, name)
    os.makedirs(cdir, exist_ok=True)
    path = os.path.join(cdir, "run.cfg")
    write_config(path, {**entries, "out.dir": "out"})
    return Case(name, command, path, os.path.join(cdir, "out"),
                tuple(args), dict(expect))


def _sphere(k, p, q, m_lat, **extra):
    return {"n": 2, "k": k, "p": p, "q": q,
            "grid.m_lat": m_lat, "grid.m_lon": 2 * m_lat, **extra}


def _unit_vector(rng, dim):
    v = rng.standard_normal(dim)
    return tuple(v / np.linalg.norm(v))


def manufactured_k1(m_lat, eps, p=1.5):
    """The closed-form pair of acceptance criterion 03 (k = 1, q = 2):
    h* = 1 + eps P2(z), and sigma_1(b(h*)) = 2 - 4 eps P2 exactly, so
    f = (2 - 4 eps P2) / h*^(p-1).  Returns (f, h*) as GridFunctions."""
    g = build_grid(2, m_lat=m_lat, m_lon=2 * m_lat)
    P2 = 0.5 * (3.0 * g.coords[:, 2] ** 2 - 1.0)
    h_star = 1.0 + eps * P2
    f = (2.0 - 4.0 * eps * P2) / h_star ** (p - 1.0)
    return GridFunction(g, f), GridFunction(g, h_star)


def solve_default(root, rng, m_lat=32):
    # polar axis (axisymmetric data); a below 0.6 keeps the iteration
    # counts of both solves fixed across seeds
    a1, a2 = rng.uniform(0.3, 0.55, size=2)
    cases = [
        _case(root, "k1", "solve", _sphere(
            1, 1.5, 2.0, m_lat, **{"f.kind": "quadratic", "f.a": a1,
                                   "f.axis": POLAR, "out.mesh": True}),
            mesh=True),
        _case(root, "k2", "solve", _sphere(
            2, 1.5, 2.5, m_lat, **{"f.kind": "quadratic", "f.a": a2,
                                   "f.axis": POLAR, "out.mesh": True}),
            mesh=True),
    ]
    f, h_star = manufactured_k1(m_lat, rng.uniform(0.03, 0.07))
    mdir = os.path.join(root, "manufactured")
    os.makedirs(mdir, exist_ok=True)
    write_grid_function(f, os.path.join(mdir, "f.csv"))
    write_grid_function(h_star, os.path.join(mdir, "h_star.csv"))
    cases.append(_case(root, "manufactured", "solve", _sphere(
        1, 1.5, 2.0, m_lat, **{"f.kind": "csv", "f.path": "f.csv",
                               "out.mesh": True}),
        mesh=True, h_star=os.path.join(mdir, "h_star.csv")))
    return cases


def _grid_turn(rng, m):
    """A rotation angle by a whole number of the m grid steps."""
    return 2.0 * math.pi * int(rng.integers(m)) / m


def solve_large(root, rng, m_lat=64):
    # tilted axis: the data is not axisymmetric.  The seed is not used:
    # on this grid the Newton count flips between 15 and 19 under
    # rounding-level changes of the data, even an exact longitude shift,
    # because the residual's rounding floor is near newton.tol = 1e-10.
    tilt = 0.4
    axis = (math.sin(tilt), 0.0, math.cos(tilt))
    return [_case(root, "large", "solve", _sphere(
        2, 1.5, 2.5, m_lat, **{"f.kind": "quadratic", "f.a": 0.5, "f.axis": axis}))]


# (name, n, k, grid keys, p list, q list).  The lists reach inside and
# outside 1 < p < q <= k+1; the circle point (1.5, 2.5) has q = p + 1,
# where the full-space Jacobian at h = 1 is singular along the odd
# translation modes.
SWEEPS = (
    ("circle-k1", 1, 1, {"grid.m_theta": 256}, (1.2, 1.5), (1.8, 2.5)),
    ("sphere-k1", 2, 1, {"grid.m_lat": 16, "grid.m_lon": 32}, (1.2, 1.5), (1.8, 2.5)),
    ("sphere-k2", 2, 2, {"grid.m_lat": 16, "grid.m_lon": 32}, (1.2, 1.5), (1.8, 3.2)),
)


def sweep_small(root, rng, sweeps=SWEEPS):
    cases = []
    for name, n, k, grid_keys, ps, qs in sweeps:
        for a in (0.5, 2.0):
            if n == 1:
                turn = _grid_turn(rng, grid_keys["grid.m_theta"])
                axis = (math.cos(turn), math.sin(turn))
            else:
                axis = POLAR
            points = [(p, q) for p in ps for q in qs]
            may_fail = [(p, q) for p, q in points if n == 1 and q == p + 1]
            cases.append(_case(root, f"{name}-a{a:g}", "sweep", {
                "n": n, "k": k, "p": ps[0], "q": qs[0], **grid_keys,
                "f.kind": "quadratic", "f.a": a, "f.axis": axis,
                "sweep.p": ps, "sweep.q": qs}, points=points, may_fail=may_fail))
    return cases


def verify(root, rng, grids=(32, 64), spectrum_m_lat=24):
    cases = []
    for m_lat, k in zip(grids, (1, 2)):
        p = rng.uniform(1.1, 1.6)
        q = rng.uniform(p + 0.2, k + 1.0)
        h = {"h.kind": "quadratic", "h.value": rng.uniform(0.8, 1.25),
             "h.epsilon": rng.uniform(0.02, 0.08), "h.axis": _unit_vector(rng, 3)}
        man = _case(root, f"manufacture-{m_lat}", "manufacture",
                    _sphere(k, p, q, m_lat, **h), h=h)
        cases.append(man)
        cases.append(_case(
            root, f"verify-{m_lat}", "verify",
            _sphere(k, p, q, m_lat, **{"f.kind": "csv",
                                       "f.path": os.path.join(man.out, "f.csv")}),
            args=("--solution", os.path.join(man.out, "h_star.csv"))))
    # the acceptance criterion 04 draw: 1 < p < q <= k+1
    k = int(rng.integers(1, 3))
    q = rng.uniform(1.1, k + 1.0)
    p = rng.uniform(1.01, q - 0.05)
    cases.append(_case(root, "spectrum", "spectrum",
                       _sphere(k, p, q, spectrum_m_lat, **{"f.kind": "constant"})))
    return cases


def generate(workload, seed, root):
    """Write the workload's inputs under root; return its cases in run order."""
    rng = np.random.default_rng(seed)
    builders = {"solve-default": solve_default, "solve-large": solve_large,
                "sweep-small": sweep_small, "verify": verify}
    return builders[workload](root, rng)


def warm_up_cases(root):
    """One tiny case per command kind, so lazy imports and first-call costs
    land in set-up time instead of the first measured pass."""
    rng = np.random.default_rng(0)
    tiny_sweep = (("circle", 1, 1, {"grid.m_theta": 16}, (1.5,), (1.8,)),)
    return [
        *solve_default(os.path.join(root, "solve"), rng, m_lat=8)[1:],
        *sweep_small(os.path.join(root, "sweep"), rng, sweeps=tiny_sweep)[:1],
        *verify(os.path.join(root, "verify"), rng, grids=(8,), spectrum_m_lat=8),
    ]
