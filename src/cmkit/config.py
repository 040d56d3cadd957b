"""
Run configuration: flat key = value text with dotted key names.

Lines are `key = value`, blank, or # comments.  Every key is checked: unknown
names, duplicates, and malformed values are rejected with the line number.
The parsed config is validated against the problem invariants before any
compute starts.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedParameterError
from .problem import ProblemSpec
from .sphere import GridFunction, build_grid, read_grid_function

_KNOWN_KEYS = {
    "n", "k", "p", "q", "seed",
    "grid.m_theta", "grid.m_lat", "grid.m_lon",
    "f.kind", "f.value", "f.a", "f.axis", "f.path",
    "h.kind", "h.value", "h.epsilon", "h.axis",
    "newton.tol", "newton.max_iter",
    "continuation.dt0", "continuation.dt_min", "continuation.dt_max",
    "out.dir", "out.mesh",
    "isotropic.restarts", "isotropic.amplitude",
    "sweep.p", "sweep.q",
}


@dataclass
class RunConfig:
    path: str
    n: int
    k: int
    p: float
    q: float
    m_theta: int = 0
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
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    dt0: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.5
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


class _Raw:
    """Raw key -> (line_no, text) store with typed, line-precise getters."""

    def __init__(self, path, entries):
        self.path = path
        self.entries = entries  # key -> (line_no, value string)

    def fail(self, key, msg):
        raise _located(self.path, self.entries.get(key, (None,))[0], msg)

    def _convert(self, key, conv, what, default):
        if key not in self.entries:
            if default is _REQUIRED:
                raise ConfigError(f"{self.path}: missing required key '{key}'")
            return default
        _, text = self.entries[key]
        try:
            return conv(text)
        except ValueError:
            self.fail(key, f"'{key}' expects {what}, got {text!r}")

    def get_int(self, key, default=None):
        return self._convert(key, int, "an integer", default)

    def get_float(self, key, default=None):
        return self._convert(key, float, "a number", default)

    def get_str(self, key, default=None):
        return self._convert(key, str, "a string", default)

    def get_bool(self, key, default=None):
        def conv(s):
            t = s.strip().lower()
            if t in ("true", "yes", "1", "on"):
                return True
            if t in ("false", "no", "0", "off"):
                return False
            raise ValueError(s)
        return self._convert(key, conv, "true/false", default)

    def get_floats(self, key, default=None):
        def conv(s):
            return tuple(float(x) for x in s.split(","))
        return self._convert(key, conv, "comma-separated numbers", default)


_REQUIRED = object()


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
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key '{key}'")
            if key in entries:
                raise ConfigError(
                    f"{path}:{line_no}: duplicate key '{key}' (first at line {entries[key][0]})")
            if not value:
                raise ConfigError(f"{path}:{line_no}: empty value for '{key}'")
            entries[key] = (line_no, value)

    raw = _Raw(path, entries)
    n = raw.get_int("n", _REQUIRED)
    if n not in (1, 2):
        raw.fail("n", f"n must be 1 or 2, got {n}")
    cfg = RunConfig(
        path=path,
        n=n,
        k=raw.get_int("k", _REQUIRED),
        p=raw.get_float("p", _REQUIRED),
        q=raw.get_float("q", _REQUIRED),
        m_theta=raw.get_int("grid.m_theta", 256 if n == 1 else 0),
        m_lat=raw.get_int("grid.m_lat", 32 if n == 2 else 0),
        m_lon=raw.get_int("grid.m_lon", 64 if n == 2 else 0),
        f_kind=raw.get_str("f.kind", "constant"),
        f_value=raw.get_float("f.value", 1.0),
        f_a=raw.get_float("f.a", 0.0),
        f_axis=raw.get_floats("f.axis", ()),
        f_path=raw.get_str("f.path", ""),
        h_kind=raw.get_str("h.kind", "constant"),
        h_value=raw.get_float("h.value", 1.0),
        h_epsilon=raw.get_float("h.epsilon", 0.0),
        h_axis=raw.get_floats("h.axis", ()),
        newton_tol=raw.get_float("newton.tol", 1e-10),
        newton_max_iter=raw.get_int("newton.max_iter", 30),
        dt0=raw.get_float("continuation.dt0", 0.1),
        dt_min=raw.get_float("continuation.dt_min", 1e-4),
        dt_max=raw.get_float("continuation.dt_max", 0.5),
        out_dir=raw.get_str("out.dir", "out"),
        out_mesh=raw.get_bool("out.mesh", False),
        seed=raw.get_int("seed", 0),
        isotropic_restarts=raw.get_int("isotropic.restarts", 3),
        isotropic_amplitude=raw.get_float("isotropic.amplitude", 0.03),
        sweep_p=raw.get_floats("sweep.p", ()),
        sweep_q=raw.get_floats("sweep.q", ()),
        lines={k: v[0] for k, v in entries.items()},
    )

    if cfg.f_kind not in ("constant", "quadratic", "csv"):
        raw.fail("f.kind", f"f.kind must be constant, quadratic, or csv, got '{cfg.f_kind}'")
    if cfg.f_kind == "csv" and not cfg.f_path:
        raw.fail("f.kind", "f.kind = csv needs f.path")
    if cfg.h_kind not in ("constant", "quadratic"):
        raw.fail("h.kind", f"h.kind must be constant or quadratic, got '{cfg.h_kind}'")
    for key, val in (("f.axis", cfg.f_axis), ("h.axis", cfg.h_axis)):
        if val and len(val) != n + 1:
            raw.fail(key, f"{key} needs {n + 1} components for n = {n}, got {len(val)}")
    if n == 1 and (cfg.m_theta < 8 or cfg.m_theta % 2):
        raw.fail("grid.m_theta", f"grid.m_theta must be even and >= 8, got {cfg.m_theta}")
    if n == 2 and (cfg.m_lat < 8 or cfg.m_lon < 8 or cfg.m_lon % 2):
        raw.fail("grid.m_lat" if cfg.m_lat < 8 else "grid.m_lon",
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
    ok = np.isfinite(values) & (values > 0)
    if not ok.all():
        raise _located(cfg.path, cfg.lines.get(key),
                       f"f must be positive and finite, got {values[~ok][0]:g}")
    return GridFunction(grid, values)


def build_h_star(cfg, grid):
    """Target support function from the h.* keys (for manufacture runs)."""
    if cfg.h_kind == "constant":
        return GridFunction(grid, np.full(grid.node_count, cfg.h_value))
    v = _unit(cfg, "h.axis", cfg.h_axis or _default_axis(cfg.n))
    proj = grid.coords @ v
    return GridFunction(grid, cfg.h_value * (1.0 + cfg.h_epsilon * proj ** 2))


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
    except (ValueError, DomainError, UnsupportedParameterError) as exc:
        raise ConfigError(f"{cfg.path}: invalid problem parameters: {exc}") from exc
    return grid, spec


def resolve_path(cfg, path):
    """Relative paths in a config are taken relative to the config file."""
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(cfg.path)), path)


def ensure_out_dir(cfg):
    out = resolve_path(cfg, cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    return out
