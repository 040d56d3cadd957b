"""
Run configuration: flat key = value text with dotted key names.

Lines are `key = value`, blank, or # comments.  Every key is declared once,
in `_KEYS`, which names the RunConfig field it sets: the field's type picks
the key's parser, and the field's default is the key's (the grid sizes
default by n).  The keys whose fields have no default are required.  Every
key is checked: unknown names, duplicates, and malformed values are
rejected with the line number.  The parsed config is validated against the
problem invariants before any compute starts.
"""

import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .problem import ProblemSpec
from .sphere import GridFunction, build_grid, read_grid_function


@dataclass
class RunConfig:
    path: str
    n: int
    k: int
    p: float
    q: float
    m_theta: int = 0  # the grid sizes default by n in parse_config
    m_lat: int = 0
    m_lon: int = 0
    f_kind: str = "constant"
    f_value: float = 1.0
    f_a: float = 0.0
    f_axis: tuple = ()
    f_path: str = ""
    h_kind: str = "constant"
    h_value: float = 1.0
    h_epsilon: float = 0.0
    h_axis: tuple = ()
    newton_tol: float = ProblemSpec.tol_newton
    newton_max_iter: int = ProblemSpec.max_newton
    dt0: float = ProblemSpec.dt0
    dt_min: float = ProblemSpec.dt_min
    dt_max: float = ProblemSpec.dt_max
    out_dir: str = "out"
    out_mesh: bool = False
    seed: int = 0
    isotropic_restarts: int = 3
    isotropic_amplitude: float = 0.03
    sweep_p: tuple = ()
    sweep_q: tuple = ()
    lines: dict = field(default_factory=dict, repr=False)

    def grid_args(self):
        if self.n == 1:
            return dict(m_theta=self.m_theta)
        return dict(m_lat=self.m_lat, m_lon=self.m_lon)


# config key -> the RunConfig field it sets
_KEYS = {
    "n": "n", "k": "k", "p": "p", "q": "q",
    "grid.m_theta": "m_theta", "grid.m_lat": "m_lat", "grid.m_lon": "m_lon",
    "f.kind": "f_kind", "f.value": "f_value", "f.a": "f_a", "f.axis": "f_axis",
    "f.path": "f_path",
    "h.kind": "h_kind", "h.value": "h_value", "h.epsilon": "h_epsilon", "h.axis": "h_axis",
    "newton.tol": "newton_tol", "newton.max_iter": "newton_max_iter",
    "continuation.dt0": "dt0", "continuation.dt_min": "dt_min",
    "continuation.dt_max": "dt_max",
    "out.dir": "out_dir", "out.mesh": "out_mesh", "seed": "seed",
    "isotropic.restarts": "isotropic_restarts",
    "isotropic.amplitude": "isotropic_amplitude",
    "sweep.p": "sweep_p", "sweep.q": "sweep_q",
}


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


# a field's type -> the parser of its value text and what the key expects
_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    str: (str, "a string"),
    bool: (_bool, "true/false"),
    tuple: (lambda text: tuple(float(x) for x in text.split(",")), "comma-separated numbers"),
}


def _located(path, line, msg):
    """ConfigError naming the config file and, when known, the line."""
    return ConfigError(f"{path}:{line}: {msg}" if line else f"{path}: {msg}")


def parse_config(path):
    """Parse and validate a config file into a RunConfig."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key '{key}'")
            if key in entries:
                raise ConfigError(
                    f"{path}:{line_no}: duplicate key '{key}' (first at line {entries[key][0]})")
            if not value:
                raise ConfigError(f"{path}:{line_no}: empty value for '{key}'")
            entries[key] = (line_no, value)

    def fail(key, msg):
        raise _located(path, entries.get(key, (None,))[0], msg)

    field_of = {f.name: f for f in fields(RunConfig)}

    def parse(key):
        if key not in entries:
            raise ConfigError(f"{path}: missing required key '{key}'")
        convert, what = _PARSERS[field_of[_KEYS[key]].type]
        text = entries[key][1]
        try:
            return convert(text)
        except ValueError:
            fail(key, f"'{key}' expects {what}, got {text!r}")

    n = parse("n")
    if n not in (1, 2):
        fail("n", f"n must be 1 or 2, got {n}")
    values = dict(m_theta=256) if n == 1 else dict(m_lat=32, m_lon=64)
    values.update((name, parse(key)) for key, name in _KEYS.items()
                  if key in entries or field_of[name].default is MISSING)
    cfg = RunConfig(path=path, lines={k: v[0] for k, v in entries.items()}, **values)

    for key, val in (("p", (cfg.p,)), ("q", (cfg.q,)),
                     ("sweep.p", cfg.sweep_p), ("sweep.q", cfg.sweep_q)):
        bad = [x for x in val if not math.isfinite(x)]
        if bad:
            fail(key, f"{key} must be finite, got {bad[0]}")
    if cfg.seed < 0:
        fail("seed", f"seed must be non-negative, got {cfg.seed}")
    if cfg.isotropic_restarts < 0:
        fail("isotropic.restarts",
             f"isotropic.restarts must be non-negative, got {cfg.isotropic_restarts}")
    if not 0 <= cfg.isotropic_amplitude < 1:
        fail("isotropic.amplitude",
             f"isotropic.amplitude must be finite and in [0, 1), got {cfg.isotropic_amplitude}")
    # out.dir is made after parsing; its first existing ancestor must be a
    # directory, or making it would fail after the compute
    ancestor = resolve_path(cfg, cfg.out_dir)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        fail("out.dir", f"out.dir cannot be made: {ancestor} is not a directory")
    if cfg.f_kind not in ("constant", "quadratic", "csv"):
        fail("f.kind", f"f.kind must be constant, quadratic, or csv, got '{cfg.f_kind}'")
    if cfg.f_kind == "csv" and not cfg.f_path:
        fail("f.kind", "f.kind = csv needs f.path")
    if cfg.h_kind not in ("constant", "quadratic"):
        fail("h.kind", f"h.kind must be constant or quadratic, got '{cfg.h_kind}'")
    for key, val in (("f.axis", cfg.f_axis), ("h.axis", cfg.h_axis)):
        if val and len(val) != n + 1:
            fail(key, f"{key} needs {n + 1} components for n = {n}, got {len(val)}")
    if n == 1 and (cfg.m_theta < 8 or cfg.m_theta % 2):
        fail("grid.m_theta", f"grid.m_theta must be even and >= 8, got {cfg.m_theta}")
    if n == 2 and (cfg.m_lat < 8 or cfg.m_lon < 8 or cfg.m_lon % 2):
        fail("grid.m_lat" if cfg.m_lat < 8 else "grid.m_lon",
             f"grid sizes must be >= 8 with even m_lon, got {cfg.m_lat}x{cfg.m_lon}")
    return cfg


def _default_axis(n):
    return (0.0, 1.0) if n == 1 else (0.0, 0.0, 1.0)


def _unit(cfg, key, axis):
    v = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0):
        raise _located(cfg.path, cfg.lines.get(key), f"{key} must be a finite nonzero vector")
    return v / norm


def build_f(cfg, grid):
    """Data function f on the grid from the config's f.* keys; data that
    give no positive, finite f are a ConfigError at the line that set them."""
    if cfg.f_kind == "constant":
        key, values = "f.value", np.full(grid.node_count, cfg.f_value)
    elif cfg.f_kind == "quadratic":
        # (1 + a <x,axis>^2)^(-(k+p-1)): respects the structure condition
        # on f for small a through g = f^(-1/(k+p-1)).
        key = "f.a"
        proj = grid.coords @ _unit(cfg, "f.axis", cfg.f_axis or _default_axis(cfg.n))
        base = 1.0 + cfg.f_a * proj ** 2
        if not np.all(base > 0):
            raise _located(cfg.path, cfg.lines.get(key), f"f.a = {cfg.f_a:g} makes "
                           f"1 + a <x,axis>^2 = {base.min():.3g} somewhere; f needs it > 0")
        values = base ** (-(cfg.k + cfg.p - 1))
    else:
        key, path = "f.path", resolve_path(cfg, cfg.f_path)
        try:
            values = read_grid_function(grid, path).values
        except (OSError, ValueError) as exc:
            raise _located(cfg.path, cfg.lines.get(key), f"cannot read f: {exc}") from exc
    return _positive(cfg, key, "f", grid, values)


def build_h_star(cfg, grid):
    """Target support function from the h.* keys (for manufacture runs); an
    h that is not positive and finite is a ConfigError at the line of
    h.value, or of h.epsilon when h.value is positive and finite."""
    if cfg.h_kind == "constant":
        return _positive(cfg, "h.value", "h", grid, np.full(grid.node_count, cfg.h_value))
    v = _unit(cfg, "h.axis", cfg.h_axis or _default_axis(cfg.n))
    proj = grid.coords @ v
    key = "h.epsilon" if 0 < cfg.h_value < np.inf else "h.value"
    return _positive(cfg, key, "h", grid, cfg.h_value * (1.0 + cfg.h_epsilon * proj ** 2))


def _positive(cfg, key, name, grid, values):
    """The GridFunction of values when they are positive and finite; else a
    ConfigError at the line of key."""
    ok = np.isfinite(values) & (values > 0)
    if not ok.all():
        raise _located(cfg.path, cfg.lines.get(key),
                       f"{name} must be positive and finite, got {values[~ok][0]:g}")
    return GridFunction(grid, values)


def build_problem(cfg, grid=None):
    """Grid + ProblemSpec from a RunConfig; invalid combinations become
    ConfigError before any compute.  grid is the config's grid, built here
    when not given."""
    if grid is None:
        grid = build_grid(cfg.n, **cfg.grid_args())
    f = build_f(cfg, grid)
    try:
        spec = ProblemSpec(
            n=cfg.n, k=cfg.k, p=cfg.p, q=cfg.q, f=f,
            tol_newton=cfg.newton_tol, max_newton=cfg.newton_max_iter,
            dt0=cfg.dt0, dt_min=cfg.dt_min, dt_max=cfg.dt_max)
    except ValueError as exc:
        raise parameter_error(cfg, exc) from exc
    return grid, spec


# the config key that sets each ProblemSpec field
_SPEC_KEYS = {"k": "k", "p": "p", "q": "q", "f": "f.path", "tol_newton": "newton.tol",
              "max_newton": "newton.max_iter", "dt0": "continuation.dt0",
              "dt_min": "continuation.dt_min", "dt_max": "continuation.dt_max"}


def parameter_error(cfg, exc):
    """ConfigError for a ProblemSpec error, at the line of the first field
    it blames, likeliest first, that the config sets."""
    keys = [_SPEC_KEYS[name] for name in getattr(exc, "fields", ())]
    line = next((cfg.lines[key] for key in keys if key in cfg.lines), None)
    return _located(cfg.path, line, f"invalid problem parameters: {exc}")


def resolve_path(cfg, path):
    """Relative paths in a config are taken relative to the config file."""
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(cfg.path)), path)


def ensure_out_dir(cfg):
    """Make the config's out.dir; an OSError is a ConfigError at its line."""
    out = resolve_path(cfg, cfg.out_dir)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise _located(cfg.path, cfg.lines.get("out.dir"),
                       f"out.dir cannot be made: {exc}") from exc
    return out
