"""Grid construction and sphere calculus tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit import (
    GridFunction,
    apply_symmetry,
    build_grid,
    even_project,
    hessian_field,
    integrate,
    laplace_beltrami,
    read_grid_function,
    write_grid_function,
)
from cmkit.sphere import constant_function, coordinate_function, odd_defect


@pytest.fixture(scope="module")
def g2():
    return build_grid(2, m_lat=32, m_lon=64)


@pytest.fixture(scope="module")
def g1():
    return build_grid(1, m_theta=64)


# ---------------------------------------------------------------------------
# grid invariants
# ---------------------------------------------------------------------------

def test_nodes_on_unit_sphere(g1, g2):
    for g in (g1, g2):
        r = np.linalg.norm(g.coords, axis=1)
        assert_allclose(r, 1.0, atol=1e-14)


def test_weights_positive_sum_to_measure(g1, g2):
    for g in (g1, g2):
        assert np.all(g.weights > 0)
        assert abs(g.weights.sum() - g.surface_measure()) < 1e-12


def test_antipodal_perm_exact(g1, g2):
    # coordinates of the antipodal node are the exact IEEE negation
    for g in (g1, g2):
        assert np.array_equal(g.coords[g.antipodal_perm], -g.coords)
        # involution
        assert np.array_equal(g.antipodal_perm[g.antipodal_perm],
                              np.arange(g.node_count))


def test_no_polar_nodes(g2):
    assert np.max(np.abs(g2.sinlat)) < 1.0
    assert np.min(g2.coslat) > 0.0


def test_quadrature_exact_low_degree(g2):
    z = g2.coords[:, 2]
    assert abs(integrate(GridFunction(g2, z ** 2)) - 4 * np.pi / 3) < 1e-13
    assert abs(integrate(GridFunction(g2, z ** 4)) - 4 * np.pi / 5) < 1e-13
    x, y = g2.coords[:, 0], g2.coords[:, 1]
    assert abs(integrate(GridFunction(g2, x * y))) < 1e-13
    assert abs(integrate(GridFunction(g2, x ** 2 * z ** 2)) - 4 * np.pi / 15) < 1e-13


def test_bad_grid_args():
    with pytest.raises(ValueError):
        build_grid(3, m_lat=16, m_lon=32)
    with pytest.raises(ValueError):
        build_grid(1)
    with pytest.raises(ValueError):
        build_grid(1, m_theta=63)  # odd
    with pytest.raises(ValueError):
        build_grid(2, m_lat=4, m_lon=32)
    with pytest.raises(ValueError):
        build_grid(2, m_lat=16, m_lon=31)  # odd


def test_grid_function_validation(g2):
    with pytest.raises(ValueError):
        GridFunction(g2, np.ones(7))
    with pytest.raises(ValueError):
        GridFunction(g2, np.full(g2.node_count, np.nan))


# ---------------------------------------------------------------------------
# exactness on constants (the solver's fixed-point checks rely on this)
# ---------------------------------------------------------------------------

def test_constant_hessian_exact(g1, g2):
    for g in (g1, g2):
        h = constant_function(g, 1.3)
        hf = hessian_field(h)
        c = hf.components
        for i in range(g.n):
            for j in range(i, g.n):
                assert np.array_equal(c[f"b{i + 1}{j + 1}"],
                                      np.full(g.shape, 1.3 if i == j else 0.0))
        assert np.all(hf.grad == 0.0)
        assert np.all(hf.lam == 1.3)
        lap = laplace_beltrami(h)
        assert np.all(lap.values == 0.0)


def test_sphere_of_radius_r_eigenvalues_exact(g2):
    hf = hessian_field(constant_function(g2, 0.7))
    assert np.all(hf.lam == 0.7)


# ---------------------------------------------------------------------------
# accuracy on known fields
# ---------------------------------------------------------------------------

def _max_abs_b(hf):
    """max |b_ij| over every node and entry of b."""
    return max(np.max(np.abs(hf.components[key])) for key in ("b11", "b12", "b22"))


def test_linear_function_flat_hessian(g2):
    # b vanishes identically for h = <x, v>
    for v in [(0, 0, 1), (1, 0, 0), (0.3, -0.5, 0.81)]:
        hf = hessian_field(coordinate_function(g2, v))
        assert _max_abs_b(hf) < 2e-2


def test_linear_function_flat_hessian_converges():
    errs = []
    for (ml, mo) in [(16, 32), (32, 64), (64, 128)]:
        g = build_grid(2, m_lat=ml, m_lon=mo)
        hf = hessian_field(coordinate_function(g, (0.3, -0.5, 0.81)))
        errs.append(_max_abs_b(hf))
    assert errs[0] / errs[1] > 2.5
    assert errs[1] / errs[2] > 2.5


def test_gradient_of_height_function(g2):
    # h = <x, e3> = sin(lat): d/dlat = cos(lat), longitude derivative 0
    gr = hessian_field(coordinate_function(g2, (0, 0, 1))).grad
    gr1 = gr[:, 0].reshape(g2.shape)
    assert np.max(np.abs(gr1 - g2.coslat[:, None])) < 5e-3
    assert np.max(np.abs(gr[:, 1])) < 1e-12


def test_laplace_on_spherical_harmonics(g2):
    # eigenfunctions: -l(l+1) on S^2
    h1 = coordinate_function(g2, (0, 0, 1))
    assert np.max(np.abs(laplace_beltrami(h1).values + 2 * h1.values)) < 5e-3
    z = g2.coords[:, 2]
    h2 = GridFunction(g2, 0.5 * (3 * z ** 2 - 1))
    assert np.max(np.abs(laplace_beltrami(h2).values + 6 * h2.values)) < 5e-2
    x, y = g2.coords[:, 0], g2.coords[:, 1]
    hxy = GridFunction(g2, x * y)
    assert np.max(np.abs(laplace_beltrami(hxy).values + 6 * hxy.values)) < 5e-2


def test_laplace_circle(g1):
    th = g1.thetas
    h = GridFunction(g1, np.cos(2 * th))
    # spectral differentiation: machine accuracy on band-limited data
    assert np.max(np.abs(laplace_beltrami(h).values + 4 * h.values)) < 1e-11


def test_circle_hessian_of_support_of_segment(g1):
    # h = |cos(theta)| smoothed: use h = sin(theta) shifted instead; for
    # h = a + b cos th + c sin th (support of a point), b = h'' + h = a
    th = g1.thetas
    h = GridFunction(g1, 1.5 + 0.3 * np.cos(th) - 0.2 * np.sin(th))
    hf = hessian_field(h)
    assert np.max(np.abs(hf.components["b11"] - 1.5)) < 1e-11


def test_trace_identity_bitwise(g1, g2):
    # laplace_beltrami is defined as trace(b) - n h; check the identity
    # in exactly that arrangement
    rng = np.random.default_rng(7)
    for g in (g1, g2):
        h = GridFunction(g, 1.5 + 0.1 * rng.standard_normal(g.node_count))
        hf = hessian_field(h)
        lap = laplace_beltrami(h)
        assert np.array_equal(lap.values, hf.trace() - g.n * h.values)


def test_integration_by_parts():
    # int u * lap(v) == int v * lap(u) up to truncation, decaying 2nd order
    defects = []
    for (ml, mo) in [(32, 64), (64, 128)]:
        g = build_grid(2, m_lat=ml, m_lon=mo)
        z, x = g.coords[:, 2], g.coords[:, 0]
        u = GridFunction(g, np.exp(0.4 * z))
        v = GridFunction(g, 1.0 + 0.3 * x * z)
        a = integrate(GridFunction(g, u.values * laplace_beltrami(v).values))
        b = integrate(GridFunction(g, v.values * laplace_beltrami(u).values))
        defects.append(abs(a - b))
    assert defects[0] < 5e-3
    assert defects[0] / defects[1] > 3.0


# ---------------------------------------------------------------------------
# symmetry: bitwise equivariance of all operators
# ---------------------------------------------------------------------------

def _random_field(g, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(g, 1.5 + 0.2 * rng.standard_normal(g.node_count))


@pytest.mark.parametrize("kind,steps", [
    ("antipodal", 0), ("lon_shift", 5), ("lat_flip", 0)])
def test_hessian_equivariance_bitwise(g2, kind, steps):
    h = _random_field(g2, 3)
    hs = apply_symmetry(h, kind, steps=steps)
    lam = hessian_field(h).lam.reshape(32, 64, 2)
    lam_s = hessian_field(hs).lam.reshape(32, 64, 2)
    if kind == "antipodal":
        expect = hessian_field(h).lam[g2.antipodal_perm].reshape(32, 64, 2)
    elif kind == "lon_shift":
        expect = np.roll(lam, -steps, axis=1)
    else:
        expect = lam[::-1]
    assert np.array_equal(lam_s, expect)


def test_lon_shift_equivariance_circle(g1):
    h = _random_field(g1, 11)
    hs = apply_symmetry(h, "lon_shift", steps=9)
    b = hessian_field(h).components["b11"]
    bs = hessian_field(hs).components["b11"]
    assert np.array_equal(bs, np.roll(b, -9))


def test_antipodal_equivariance_circle(g1):
    h = _random_field(g1, 12)
    hs = apply_symmetry(h, "antipodal")
    b = hessian_field(h).components["b11"]
    bs = hessian_field(hs).components["b11"]
    assert np.array_equal(bs, b[g1.antipodal_perm])


def test_even_project_properties(g1, g2):
    for g in (g1, g2):
        h = _random_field(g, 23)
        he = even_project(h)
        assert odd_defect(he) == 0.0
        # idempotent bitwise
        assert np.array_equal(even_project(he).values, he.values)
        # exact annihilation of the odd linear part
        lin = coordinate_function(g, np.arange(1, g.n + 2) / 3.0)
        assert np.all(even_project(lin).values == 0.0)
        # preserves even functions' mean
        assert abs(integrate(he) - integrate(h)) < 1e-12


def test_hessian_of_even_function_is_even(g2):
    h = even_project(_random_field(g2, 31))
    lam = hessian_field(h).lam
    assert np.array_equal(lam, lam[g2.antipodal_perm])


def test_apply_symmetry_errors(g1):
    h = _random_field(g1, 1)
    with pytest.raises(ValueError):
        apply_symmetry(h, "lat_flip")
    with pytest.raises(ValueError):
        apply_symmetry(h, "rotate17")


# ---------------------------------------------------------------------------
# operator matrices agree with the kernel applications
# ---------------------------------------------------------------------------

def test_operator_matrices_match_kernels(g2):
    mats = g2.operator_matrices()
    h = _random_field(g2, 40)
    F = h.field
    assert_allclose(mats["lat1"] @ h.values, g2.lat_d1(F).ravel(),
                    rtol=0, atol=1e-12)
    assert_allclose(mats["lat2"] @ h.values, g2.lat_d2(F).ravel(),
                    rtol=0, atol=1e-11)
    assert_allclose(mats["lon1"] @ h.values, g2._lon_apply1(F).ravel(),
                    rtol=0, atol=1e-12)
    assert_allclose(mats["lon2"] @ h.values, g2._lon_apply2(F).ravel(),
                    rtol=0, atol=1e-11)


def test_operator_matrices_circle(g1):
    mats = g1.operator_matrices()
    h = _random_field(g1, 41)
    assert_allclose(mats["lon1"] @ h.values, g1._lon_apply1(h.values),
                    rtol=0, atol=1e-12)
    assert_allclose(mats["lon2"] @ h.values, g1._lon_apply2(h.values),
                    rtol=0, atol=1e-11)


@pytest.mark.parametrize("n", [1, 2])
def test_frame_operators_match_hessian_field(g1, g2, n):
    g = g1 if n == 1 else g2
    ops = g.frame_operators()
    assert g.frame_operators() is ops  # built once per grid
    h = _random_field(g, 42)
    hf = hessian_field(h)
    c = hf.components
    parts = {"hess11": "b11", "grad1": "g1"}
    if n == 2:
        parts.update(hess12="b12", hess22="b22", grad2="g2")
    for key, comp in parts.items():
        expect = np.ravel(c[comp])
        assert_allclose(ops[key] @ h.values, expect, rtol=0,
                        atol=1e-14 * np.max(np.abs(expect)))


@pytest.mark.parametrize("m_lat", [32, 9])
def test_frame_symbols_act_on_longitude_modes(m_lat):
    # on phi = c_s exp(2 pi i m l / m_lon) in ring s, every frame operator
    # acts as its banded mode-m symbol on the ring amplitudes c
    from cmkit.sphere import RING_REACH

    g = build_grid(2, m_lat=m_lat, m_lon=64)
    M, L = g.shape
    syms = g.frame_symbols()
    assert g.frame_symbols() is syms  # built once per grid
    rng = np.random.default_rng(5)
    for m in (0, 1, 7, L // 2):
        c = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        wave = np.exp(2j * np.pi * m * np.arange(L) / L)
        phi = (c[:, None] * wave).ravel()
        for key, op in g.frame_operators().items():
            got = (op @ phi.real + 1j * (op @ phi.imag)).reshape(M, L)
            band = syms[key][:, :, m]
            amp = np.zeros(M, dtype=complex)
            for o in range(-RING_REACH, RING_REACH + 1):
                j = np.arange(max(0, -o), min(M, M - o))
                amp[j] += band[o + RING_REACH, j] * c[j + o]
            scale = np.max(np.abs(op).sum(axis=1)) * np.max(np.abs(c))
            assert np.max(np.abs(got - amp[:, None] * wave)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_roundtrip(tmp_path, g1, g2):
    for g, name in [(g1, "c.csv"), (g2, "s.csv")]:
        h = _random_field(g, 99)
        p = tmp_path / name
        write_grid_function(h, p)
        h2 = read_grid_function(g, p)
        assert np.array_equal(h.values, h2.values)


def test_csv_grid_mismatch(tmp_path, g2):
    h = _random_field(g2, 99)
    p = tmp_path / "s.csv"
    write_grid_function(h, p)
    other = build_grid(2, m_lat=32, m_lon=66)
    with pytest.raises(ValueError):
        read_grid_function(other, p)
