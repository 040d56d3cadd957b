"""Grid construction and sphere calculus tests."""

import math

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
from cmkit.sphere import (COARSE_LAT, RING_REACH, constant_function, coordinate_function,
                          interpolate, odd_defect)


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

def test_operator_matrices_match_kernels():
    # both orders of both kernels, on every sphere grid of KERNEL_GRIDS
    for shape in [s for s in KERNEL_GRIDS if s[0] > 1]:
        g = _kernel_grid(shape)
        mats = g.operator_matrices()
        h = _random_field(g, 40)
        derivs = g.lat_derivs(h.field) + g.lon_derivs(h.field)
        for key, out, atol in zip(("lat1", "lat2", "lon1", "lon2"), derivs,
                                  (1e-12, 1e-11, 1e-12, 1e-11)):
            assert_allclose(mats[key] @ h.values, out.ravel(), rtol=0, atol=atol,
                            err_msg=f"{key} on {shape}")


def test_operator_matrices_circle():
    # both orders, on every circle grid of KERNEL_GRIDS
    for shape in [s for s in KERNEL_GRIDS if s[0] == 1]:
        g = _kernel_grid(shape)
        mats = g.operator_matrices()
        h = _random_field(g, 41)
        for key, out, atol in zip(("lon1", "lon2"), g.lon_derivs(h.values), (1e-12, 1e-11)):
            assert_allclose(mats[key] @ h.values, out, rtol=0, atol=atol,
                            err_msg=f"{key} on {shape}")


def _apply_taps(taps, F):
    # per-ring taps (stencil_taps, ring_taps) applied node by node: the
    # weight of node (j + o, i + d) in the row of node (j, i), summed over
    # o and d
    width, M, L = taps.shape
    R = width // 2
    out = np.zeros((M, L))
    for o in range(-R, R + 1):
        for j in range(max(0, -o), min(M, M - o)):
            for d in range(L):
                out[j] += taps[o + R, j, d] * np.roll(F[j + o], -d)
    return out


@pytest.mark.parametrize("shape", [(1, 64), (9, 16), (16, 32), (33, 64)],
                         ids=["c64", "9x16", "16x32", "33x64"])
def test_stencil_taps_match_kernels(shape):
    # each stencil_taps entry, applied node by node, is its kernel: the
    # identity, lon_derivs, lat_derivs and lat1 of lon_derivs' first order
    g = _kernel_grid(shape)
    taps = g.stencil_taps()
    assert g.stencil_taps() is taps  # built once per grid
    h = _random_field(g, 43)
    F = np.reshape(h.values, (-1, shape[1]))
    lon1, lon2 = g.lon_derivs(F)
    expect = {"identity": F, "lon1": lon1, "lon2": lon2}
    if g.n == 2:
        expect["lat1"], expect["lat2"] = g.lat_derivs(F)
        expect["lat1_lon1"], = g.lat_derivs(lon1, order=1)
    assert taps.keys() == expect.keys()
    for key, out in expect.items():
        got = _apply_taps(taps[key], F)
        scale = np.max(np.abs(taps[key]).sum(axis=(0, 2))) * np.max(np.abs(F))
        assert np.max(np.abs(got - out)) <= 1e-14 * scale, f"{key} on {shape}"


def _frame_taps(g, key):
    # the frame operator of one linearization weight alone, as per-ring taps
    from cmkit.problem import ring_taps

    N = g.node_count
    return ring_taps(g, {key: np.ones(N), "diag": np.zeros(N)})


@pytest.mark.parametrize("n", [1, 2])
def test_frame_operators_match_hessian_field(g1, g2, n):
    # the frame operators, held as per-ring taps, reproduce the frame
    # fields of hessian_field
    g = g1 if n == 1 else build_grid(2, m_lat=9, m_lon=16)
    h = _random_field(g, 42)
    c = hessian_field(h).components
    parts = {"hess11": "b11", "grad1": "g1"}
    if n == 2:
        parts.update(hess12="b12", hess22="b22", grad2="g2")
    for key, comp in parts.items():
        expect = np.reshape(c[comp], (-1, g.shape[-1]))
        got = _apply_taps(_frame_taps(g, key), np.reshape(h.values, expect.shape))
        assert_allclose(got, expect, rtol=0, atol=1e-14 * np.max(np.abs(expect)))


@pytest.mark.parametrize("m_lat", [32, 9])
def test_frame_symbols_act_on_longitude_modes(m_lat):
    # on phi = c_s exp(2 pi i m l / m_lon) in ring s, every frame operator
    # (the frame fields of hessian_field) acts as its banded mode-m symbol
    # on the ring amplitudes c: the ring blocks of that operator alone
    from cmkit.problem import ring_blocks
    from cmkit.sphere import RING_REACH

    g = build_grid(2, m_lat=m_lat, m_lon=64)
    M, L = g.shape
    parts = {"hess11": "b11", "hess12": "b12", "hess22": "b22", "grad1": "g1", "grad2": "g2"}
    taps = {key: _frame_taps(g, key) for key in parts}
    syms = {key: ring_blocks(taps[key]) for key in parts}
    rng = np.random.default_rng(5)
    for m in (0, 1, 7, L // 2):
        c = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        wave = np.exp(2j * np.pi * m * np.arange(L) / L)
        phi = (c[:, None] * wave).ravel()
        re, im = (hessian_field(GridFunction(g, part)).components for part in (phi.real, phi.imag))
        for key, comp in parts.items():
            got = re[comp] + 1j * im[comp]
            band = syms[key][:, :, m]
            amp = np.zeros(M, dtype=complex)
            for o in range(-RING_REACH, RING_REACH + 1):
                j = np.arange(max(0, -o), min(M, M - o))
                amp[j] += band[o + RING_REACH, j] * c[j + o]
            scale = np.max(np.abs(taps[key]).sum(axis=(0, 2))) * np.max(np.abs(c))
            assert np.max(np.abs(got - amp[:, None] * wave)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# loop-free kernels against the per-shift and per-row references
# ---------------------------------------------------------------------------

KERNEL_GRIDS = [(1, 64), (1, 256), (8, 16), (9, 16), (16, 32), (17, 32),
                (32, 64), (33, 64), (64, 128)]


def _kernel_grid(shape):
    if shape[0] == 1:
        return build_grid(1, m_theta=shape[1])
    return build_grid(2, m_lat=shape[0], m_lon=shape[1])


def _reference_lat_entries(g):
    """Per-row latitude stencils, lists of (source ring, across the pole,
    weight) for the first and second derivative, built row by row."""
    from cmkit.sphere import fd_weights

    M, lat = g.m_lat, g.lats
    ent1, ent2 = [None] * M, [None] * M
    for j in range(M // 2):
        if j == 0:
            w = fd_weights(lat[0], [-np.pi - lat[0], lat[0], lat[1], lat[2]], 2)
            taps = [(0, True, 0), (1, False, 2), (2, False, 3)]
        else:
            w = fd_weights(lat[j], [lat[j - 1], lat[j], lat[j + 1], lat[j + 2]], 2)
            taps = [(j - 1, False, 0), (j + 1, False, 2), (j + 2, False, 3)]
        ent1[j] = [(s, across, w[1, c]) for s, across, c in taps]
        ent2[j] = [(s, across, w[2, c]) for s, across, c in taps]
    if M % 2:
        eq = M // 2
        w = fd_weights(lat[eq], lat[eq - 2:eq + 3], 2)
        w1 = 0.5 * (w[1] - w[1][::-1])
        w2 = 0.5 * (w[2] + w[2][::-1])
        ent1[eq] = [(eq + o, False, w1[o + 2]) for o in (-2, -1, 1, 2)]
        ent2[eq] = [(eq + o, False, w2[o + 2]) for o in (-2, -1, 1, 2)]
    for j in range(M // 2):
        ent1[M - 1 - j] = [(M - 1 - s, across, -w) for s, across, w in ent1[j]]
        ent2[M - 1 - j] = [(M - 1 - s, across, w) for s, across, w in ent2[j]]
    return ent1, ent2


def _reference_lat_apply(g, entries, field):
    # one latitude ring at a time, the pole crossing by np.roll; on odd
    # m_lat every row has four taps (a three-tap row a zero pad last),
    # summed in mirrored pairs
    half = g.m_lon // 2
    out = np.zeros_like(field)
    for j, ent in enumerate(entries):
        row = field[j]
        terms = []
        for (src, across, wgt) in ent:
            vals = field[src]
            if across:
                vals = np.roll(vals, -half)
            terms.append(wgt * (vals - row))
        if g.m_lat % 2:
            terms += [np.zeros_like(row)] * (4 - len(terms))
            out[j] = (terms[0] + terms[3]) + (terms[1] + terms[2])
        else:
            out[j] = (terms[0] + terms[1]) + terms[2]
    return out


def _closed_form_lon_weights(m):
    """The longitude kernel weights from their closed forms: for 0 < d < m/2
    the first derivative's c1 = -(-1)^d / (2 tan(pi d/m)) and the second's
    c2 = -(-1)^d / (2 sin^2(pi d/m)), as arrays over d = 1 .. m/2 - 1, and
    the second's weight -(-1)^(m/2) / 2 at d = m/2."""
    d = np.arange(1, m // 2)
    sign = (-1.0) ** d
    ang = np.pi * d / m
    return (-sign / (2.0 * np.tan(ang)), -sign / (2.0 * np.sin(ang) ** 2),
            -(-1.0) ** (m // 2) / 2.0)


def _reference_lon_apply1(field):
    c, _, _ = _closed_form_lon_weights(field.shape[-1])
    out = np.zeros_like(field)
    for idx in range(len(c)):
        d = idx + 1
        out += c[idx] * (np.roll(field, -d, axis=-1) - np.roll(field, d, axis=-1))
    return out


def _reference_lon_apply2(field):
    m = field.shape[-1]
    _, c, c_half = _closed_form_lon_weights(m)
    out = np.zeros_like(field)
    for idx in range(len(c)):
        d = idx + 1
        out += c[idx] * ((np.roll(field, -d, axis=-1) - field)
                         + (np.roll(field, d, axis=-1) - field))
    out += c_half * (np.roll(field, -(m // 2), axis=-1) - field)
    return out


@pytest.mark.parametrize("shape", KERNEL_GRIDS, ids=lambda s: f"{s[0]}x{s[1]}")
def test_kernels_match_roll_and_per_row_references(shape):
    g = _kernel_grid(shape)
    F = _random_field(g, 60).values.reshape(g.shape)
    h_t, h_tt = g.lon_derivs(F)
    assert np.array_equal(h_t, _reference_lon_apply1(F))
    assert np.array_equal(h_tt, _reference_lon_apply2(F))
    if g.n == 2:
        ent1, ent2 = _reference_lat_entries(g)
        for field in (F, h_t):
            first, second = g.lat_derivs(field)
            assert np.array_equal(first, _reference_lat_apply(g, ent1, field))
            assert np.array_equal(second, _reference_lat_apply(g, ent2, field))


@pytest.mark.parametrize("m", [0, 2])
def test_fd_weights_batch_is_bitwise_per_point(m):
    # a batch of points and node sets gives each point the bits of its
    # own call
    from cmkit.sphere import fd_weights

    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(-1.5, 1.5, (3, 7, 5)), axis=-1)
    z = rng.uniform(-1.5, 1.5, (3, 7))
    batch = fd_weights(z, x, m)
    assert batch.shape == (3, 7, m + 1, 5)
    for b in np.ndindex(z.shape):
        assert np.array_equal(batch[b].view(np.int64), fd_weights(z[b], x[b], m).view(np.int64))


@pytest.mark.parametrize("shape", KERNEL_GRIDS, ids=lambda s: f"{s[0]}x{s[1]}")
def test_kernels_of_constants_are_exactly_zero(shape):
    g = _kernel_grid(shape)
    F = np.full(g.shape, 0.37)
    derivs = g.lon_derivs(F)
    if g.n == 2:
        derivs += g.lat_derivs(F)
    for out in derivs:
        assert np.all(out == 0.0)
    hf = hessian_field(constant_function(g, 0.37))
    assert np.all(hf.lam == 0.37)
    assert np.all(hf.grad == 0.0)


# On odd m_lat the equator ring sums its four taps in mirrored pairs,
# (-2, 2) and (-1, 1), which the flip maps to themselves.
@pytest.mark.parametrize("shape", [(8, 16), (16, 32), (64, 128), (9, 16), (33, 64)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kind,steps", [("antipodal", 0), ("lat_flip", 0)])
def test_hessian_flip_equivariance_bitwise_across_grids(shape, kind, steps):
    _check_hessian_equivariance(shape, kind, steps)


@pytest.mark.parametrize("shape", [(8, 16), (9, 16), (16, 32), (33, 64), (64, 128)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_hessian_lon_shift_equivariance_bitwise_across_grids(shape):
    _check_hessian_equivariance(shape, "lon_shift", 3)


def _check_hessian_equivariance(shape, kind, steps):
    g = _kernel_grid(shape)
    h = _random_field(g, 61)
    hf = hessian_field(h)
    hs = apply_symmetry(h, kind, steps=steps)
    lam_s = hessian_field(hs).lam
    perm = apply_symmetry(GridFunction(g, np.arange(g.node_count, dtype=float)),
                          kind, steps=steps).values.astype(int)
    assert np.array_equal(lam_s, hf.lam[perm])
    if kind == "lon_shift":
        for key, comp in hessian_field(hs).components.items():
            assert np.array_equal(comp, np.roll(hf.components[key], -steps, axis=1))


def _reference_operator_matrices(g):
    # the operator matrices built entry by entry: circulant rows by a loop
    # over shifts and kron, latitude rows from per-row stencil lists
    from scipy import sparse

    def lon_block(m):
        half = m // 2
        c1, c2, c2_half = _closed_form_lon_weights(m)
        row1 = np.zeros(m)
        row2 = np.zeros(m)
        for idx in range(len(c1)):
            d = idx + 1
            row1[d] += c1[idx]
            row1[m - d] -= c1[idx]
            row2[d] += c2[idx]
            row2[m - d] += c2[idx]
        row2[half] += c2_half
        row1[0] = -row1.sum()
        row2[0] = -row2.sum()
        i = np.repeat(np.arange(m), m)
        jcols = (np.tile(np.arange(m), m) + i) % m
        return [sparse.csr_matrix((np.tile(row, m), (i, jcols)), shape=(m, m))
                for row in (row1, row2)]

    if g.n == 1:
        return dict(zip(("lon1", "lon2"), lon_block(g.m_theta)))
    M, L = g.shape
    eye = sparse.identity(M, format="csr")
    mats = {key: sparse.kron(eye, b, format="csr")
            for key, b in zip(("lon1", "lon2"), lon_block(L))}
    for key, entries in zip(("lat1", "lat2"), _reference_lat_entries(g)):
        rows, cols, vals = [], [], []
        for j, ent in enumerate(entries):
            selfw = 0.0
            for (src, across, wgt) in ent:
                shift = L // 2 if across else 0
                rows += [j * L + i for i in range(L)]
                cols += [src * L + (i + shift) % L for i in range(L)]
                vals += [wgt] * L
                selfw -= wgt
            rows += [j * L + i for i in range(L)]
            cols += [j * L + i for i in range(L)]
            vals += [selfw] * L
        mats[key] = sparse.csr_matrix((vals, (rows, cols)), shape=(M * L, M * L))
    return mats


@pytest.mark.parametrize("shape", [(1, 64), (8, 16), (9, 16), (32, 64)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_operator_matrices_match_entry_by_entry_reference(shape):
    g = _kernel_grid(shape)
    mats = g.operator_matrices()
    ref = _reference_operator_matrices(g)
    assert mats.keys() == ref.keys()
    for key, A in mats.items():
        B = ref[key]
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert A.data.tobytes() == B.data.tobytes()


# ---------------------------------------------------------------------------
# one hemisphere for even fields
# ---------------------------------------------------------------------------

HEMISPHERE_GRIDS = [(8, 16), (9, 16), (16, 8), (32, 8), (16, 32), (33, 66), (64, 128)]


def _bits(a):
    # equality of bits: the sign of a zero counts
    return np.ascontiguousarray(a).view(np.int64)


def _reference_hessian_field(h):
    # hessian_field before its hemisphere path: every ring of every field
    # from the roll and per-row reference kernels; (lam, components)
    g = h.grid
    F = h.field
    ent1, ent2 = _reference_lat_entries(g)
    h_l, h_ll = _reference_lat_apply(g, ent1, F), _reference_lat_apply(g, ent2, F)
    h_t, h_tt = _reference_lon_apply1(F), _reference_lon_apply2(F)
    h_lt = _reference_lat_apply(g, ent1, h_t)
    invcos = g.invcos[:, None]
    tanlat = g.tanlat[:, None]
    b11 = h_ll + F
    b12 = invcos * (h_lt + tanlat * h_t)
    b22 = (invcos ** 2 * h_tt - tanlat * h_l) + F
    mid = 0.5 * (b11 + b22)
    rad = np.hypot(0.5 * (b11 - b22), b12)
    lam = np.column_stack([(mid - rad).ravel(), (mid + rad).ravel()])
    return lam, {"b11": b11, "b12": b12, "b22": b22, "g1": h_l, "g2": invcos * h_t}


def _assert_hessian_field_is_the_reference(h):
    hf = hessian_field(h)
    lam, comps = _reference_hessian_field(h)
    assert np.array_equal(_bits(hf.lam), _bits(lam))
    assert hf.components.keys() == comps.keys()
    for key, comp in comps.items():
        assert np.array_equal(_bits(hf.components[key]), _bits(comp)), key


def _even_fields(g):
    # an even random field, and even quadratic data on a tilted and on the
    # polar axis (ring-constant): what the solver differentiates
    tilted = np.array([math.sin(0.4), 0.0, math.cos(0.4)])
    return {"random": even_project(_random_field(g, 70)),
            "tilted": GridFunction(g, 1.1 * (1.0 + 0.05 * (g.coords @ tilted) ** 2)),
            "polar": GridFunction(g, 1.1 * (1.0 + 0.05 * g.coords[:, 2] ** 2))}


@pytest.mark.parametrize("shape", HEMISPHERE_GRIDS, ids=lambda s: f"{s[0]}x{s[1]}")
def test_hemisphere_path_is_bitwise_the_whole_grid_computation(shape):
    g = _grid(shape)
    for name, h in _even_fields(g).items():
        assert g._hemisphere_rings(h.field) == (shape[0] + 1) // 2, name
        _assert_hessian_field_is_the_reference(h)


@pytest.mark.parametrize("shape", HEMISPHERE_GRIDS, ids=lambda s: f"{s[0]}x{s[1]}")
def test_fields_not_exactly_even_take_the_whole_grid(shape):
    g = _grid(shape)
    v = _even_fields(g)["tilted"].values
    # one ulp off at one node: on the first ring, and on ring m_lat // 2,
    # which on odd m_lat is the equator ring, its own antipodal ring
    off = v.copy()
    off[5] = np.nextafter(off[5], 2.0)
    off_mid = v.copy()
    mid = (shape[0] // 2) * shape[1] + 1
    off_mid[mid] = np.nextafter(off_mid[mid], 2.0)
    # bitwise even, but holding -0.0 (at a node and at its antipode)
    signed = v.copy()
    signed[[3, g.antipodal_perm[3]]] = -0.0
    for w in (off, off_mid, signed):
        assert g._hemisphere_rings(w.reshape(g.shape)) == shape[0]
        _assert_hessian_field_is_the_reference(GridFunction(g, w))


def test_first_order_latitude_rows_weigh_both_signs():
    # the hemisphere path's exact negation relies on it: a zero sum of a
    # row's terms is then +0.0 on a ring and on its antipodal ring alike
    for shape in [s for s in KERNEL_GRIDS if s[0] > 1] + HEMISPHERE_GRIDS:
        w = _kernel_grid(shape)._lat_w1[..., 0]
        assert np.all((w > 0).any(axis=0) & (w < 0).any(axis=0)), shape


@pytest.mark.parametrize("shape", [(1, 64), (1, 256), (16, 8), (9, 16), (64, 128)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_lon_derivs_of_ring_constant_fields_are_positive_zeros(shape):
    g = _kernel_grid(shape)
    rings = np.random.default_rng(71).standard_normal(shape[0])
    F = np.repeat(rings, shape[1]).reshape(g.shape)
    for out, ref in zip(g.lon_derivs(F), (_reference_lon_apply1(F), _reference_lon_apply2(F))):
        assert np.all(out == 0.0) and not np.signbit(out).any()
        assert np.array_equal(_bits(out), _bits(ref))


@pytest.mark.parametrize("shape", [(8, 16), (9, 16), (33, 66)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_lat_derivs_of_fewer_rings_and_orders_are_slices_of_the_whole(shape):
    g = _grid(shape)
    M = shape[0]
    F = _random_field(g, 72).field
    first, second = g.lat_derivs(F)
    for rings in (1, M // 2, M - M // 2, M):
        part = g.lat_derivs(F, rings=rings)
        assert np.array_equal(_bits(part[0]), _bits(first[:rings]))
        assert np.array_equal(_bits(part[1]), _bits(second[:rings]))
        # the field may stop where the asked rings' taps stop reading
        only, = g.lat_derivs(F[:rings + RING_REACH], rings=rings, order=1)
        assert np.array_equal(_bits(only), _bits(first[:rings]))


# ---------------------------------------------------------------------------
# interpolation between sphere grids
# ---------------------------------------------------------------------------

INTERP_PAIRS = [((16, 32), (64, 128)), ((64, 128), (16, 32)), ((16, 32), (24, 48)),
                ((33, 64), (16, 32)), ((32, 64), (32, 64))]


def _grid(shape):
    return build_grid(2, m_lat=shape[0], m_lon=shape[1])


def _smooth_even(g):
    x, y, z = g.coords.T
    return GridFunction(g, np.exp(0.7 * z ** 2 + 0.5 * x * y - 0.3 * x ** 2))


@pytest.mark.parametrize("src, dst", INTERP_PAIRS, ids=lambda s: f"{s[0]}x{s[1]}")
def test_interpolate_maps_constants_to_themselves_bitwise(src, dst):
    for c in (1.0, 0.1, 2.0 / 3.0, 7.123456789012345e5):
        out = interpolate(constant_function(_grid(src), c), _grid(dst))
        assert out.grid.shape == dst
        assert np.all(out.values == c)


@pytest.mark.parametrize("src, dst", INTERP_PAIRS, ids=lambda s: f"{s[0]}x{s[1]}")
def test_interpolate_output_is_bitwise_even(src, dst):
    g = _grid(src)
    out = interpolate(even_project(_random_field(g, 5)), _grid(dst))
    assert odd_defect(out) == 0.0


def test_interpolate_is_exact_on_longitude_trigonometric_data():
    # even longitude modes below the coarse grid's Nyquist mode 16, the
    # same on every ring: the meridian reads the same value past the poles
    def trig(g):
        lon = g.lons
        return GridFunction(g, np.broadcast_to(
            1.0 + 0.3 * np.cos(2 * lon) - 0.2 * np.sin(6 * lon) + 0.1 * np.cos(14 * lon),
            g.shape))

    coarse, fine = _grid((16, 32)), _grid((64, 128))
    assert_allclose(interpolate(trig(coarse), fine).values, trig(fine).values,
                    rtol=0, atol=1e-14)
    assert_allclose(interpolate(trig(fine), coarse).values, trig(coarse).values,
                    rtol=0, atol=1e-14)


def test_interpolation_error_falls_at_the_design_order():
    # longitude is spectral, so the latitude stencils' order, 6, sets the
    # rate: halving the source's spacing divides the error by about 2^6
    def error(src, dst):
        dst = _grid(dst)
        return np.max(np.abs(interpolate(_smooth_even(_grid(src)), dst).values
                             - _smooth_even(dst).values))

    up = error((16, 32), (64, 128)), error((32, 64), (64, 128))
    down = error((64, 128), (16, 32)), error((128, 256), (16, 32))
    assert up[0] < 1e-3 and down[0] < 1e-7
    assert math.log2(up[0] / up[1]) > 5.5
    assert math.log2(down[0] / down[1]) > 5.5


@pytest.mark.parametrize("src, dst", [((16, 32), (8, 16)), ((8, 16), (16, 32)),
                                      ((64, 128), (16, 48)), ((16, 32), (1, 64))],
                         ids=["target-8-rings", "source-8-rings", "not-nested", "circle"])
def test_interpolate_refuses_grids_it_does_not_serve(src, dst):
    target = build_grid(1, m_theta=dst[1]) if dst[0] == 1 else _grid(dst)
    with pytest.raises(ValueError):
        interpolate(constant_function(_grid(src), 1.0), target)


def test_coarse_grid_halves_down_to_sixteen_rings_and_is_built_once():
    assert COARSE_LAT == 16
    for shape, coarse in [((32, 64), (16, 32)), ((64, 128), (16, 32)), ((128, 256), (16, 32)),
                          ((48, 96), (24, 48)), ((64, 40), (16, 10)), ((64, 20), (32, 10)),
                          ((32, 16), (16, 8))]:
        g = _grid(shape)
        assert g.coarse_grid().shape == coarse
        assert g.coarse_grid() is g.coarse_grid()
    for shape in [(16, 32), (31, 64), (33, 66), (32, 8), (32, 12), (24, 48)]:
        assert _grid(shape).coarse_grid() is None


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


def _write_grid_function_per_row(gf, path):
    # the earlier writer, kept as the reference: one f-string per node
    g = gf.grid
    with open(path, "w") as fh:
        if g.n == 1:
            fh.write("theta,value\n")
            for th, v in zip(g.thetas, gf.values):
                fh.write(f"{th:.17g},{v:.17g}\n")
        else:
            fh.write("lat,lon,value\n")
            vals = gf.field
            for j in range(g.m_lat):
                for i in range(g.m_lon):
                    fh.write(f"{g.lats[j]:.17g},{g.lons[i]:.17g},{vals[j, i]:.17g}\n")


# signed zeros, values that need all 17 digits, the extreme magnitudes
AWKWARD = (-0.0, 0.0, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 5e-324, 1.7976931348623157e308, 1e16)


@pytest.mark.parametrize("shape", [(64,), (8, 16), (9, 16), (32, 64), (33, 66)],
                         ids=lambda s: "x".join(map(str, s)))
def test_write_grid_function_matches_per_row_writer(tmp_path, shape):
    if len(shape) == 1:
        g = build_grid(1, m_theta=shape[0])
    else:
        g = build_grid(2, m_lat=shape[0], m_lon=shape[1])
    v = _random_field(g, 3).values
    v[:len(AWKWARD)] = AWKWARD
    write_grid_function(GridFunction(g, v), tmp_path / "new.csv")
    _write_grid_function_per_row(GridFunction(g, v), tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
