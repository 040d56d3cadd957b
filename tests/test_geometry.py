"""Body reconstruction, the radial function, and mesh export."""

import csv
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmkit.errors import AdmissibilityError
from cmkit.geometry import radial_function, reconstruct_body, write_obj, write_polyline
from cmkit.sphere import GridFunction, build_grid, constant_function, hessian_field


def translated_sphere(g, v, c):
    return GridFunction(g, g.coords @ np.asarray(v) + c)


def body(h):
    return reconstruct_body(h, hessian_field(h))


def legendre_body(g, eps=0.05):
    z = g.coords[:, -1]
    return GridFunction(g, 1.0 + eps * 0.5 * (3.0 * z ** 2 - 1.0))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,kw", [(1, dict(m_theta=128)),
                                  (2, dict(m_lat=16, m_lon=32))])
def test_round_body_has_constant_radius(n, kw):
    g = build_grid(n, **kw)
    mesh = body(constant_function(g, 1.7))
    assert_allclose(mesh.radii(), 1.7, rtol=1e-15)
    assert mesh.warning == ""
    assert mesh.vertices.shape == (g.node_count, n + 1)
    assert np.array_equal(mesh.normals, g.coords)
    assert np.array_equal(mesh.support, np.full(g.node_count, 1.7))


def test_translated_sphere_vertices():
    # h = <x,v> + c supports the sphere of radius c centered at v
    g = build_grid(2, m_lat=32, m_lon=64)
    v, c = np.array([0.2, -0.1, 0.15]), 1.3
    mesh = body(translated_sphere(g, v, c))
    # gradient truncation is second order; measured 1.9e-5 at 32x64
    assert np.max(np.abs(mesh.vertices - (v + c * g.coords))) < 1e-4


def test_support_identity_and_radial_consistency():
    g = build_grid(2, m_lat=16, m_lon=32)
    h = translated_sphere(g, [0.15, 0.1, -0.2], 1.2)
    mesh = body(h)
    # <X(x), x> = h(x) and |X| = sqrt(h^2 + |grad h|^2), both to rounding
    dots = np.sum(mesh.vertices * g.coords, axis=1)
    assert np.max(np.abs(dots - h.values)) < 1e-13
    hf = hessian_field(h)
    rho = np.sqrt(h.values ** 2 + hf.grad_norm_sq())
    assert_allclose(mesh.radii(), rho, rtol=1e-13)


def test_even_body_is_bitwise_origin_symmetric():
    g = build_grid(2, m_lat=16, m_lon=32)
    mesh = body(legendre_body(g))
    assert np.array_equal(mesh.vertices[g.antipodal_perm], -mesh.vertices)
    R = np.max(mesh.radii())
    assert np.linalg.norm(mesh.centroid()) <= 1e-10 * R


def test_faces_cover_the_grid():
    g = build_grid(2, m_lat=16, m_lon=32)
    mesh = body(constant_function(g, 1.0))
    M, L = g.shape
    assert mesh.faces.shape == ((M - 1) * L, 4)
    assert mesh.faces.min() == 0 and mesh.faces.max() == g.node_count - 1

    g1 = build_grid(1, m_theta=64)
    mesh1 = body(constant_function(g1, 1.0))
    assert mesh1.faces.shape == (64, 2)
    assert mesh1.faces[-1, 1] == 0  # the polyline closes


def test_degenerate_body_reconstructs_with_warning():
    g = build_grid(2, m_lat=16, m_lon=32)
    mesh = body(legendre_body(g, eps=0.8))
    assert "not positive definite" in mesh.warning


def test_reconstruct_rejects_nonpositive_h():
    g = build_grid(1, m_theta=64)
    with pytest.raises(ValueError):
        body(constant_function(g, 0.0))


# ---------------------------------------------------------------------------
# radial function
# ---------------------------------------------------------------------------

def test_radial_of_round_body_is_constant():
    g = build_grid(2, m_lat=16, m_lon=32)
    dirs = np.array([[1.0, 0, 0], [0, 0, 1.0], [0.6, -0.48, 0.64]])
    rho = radial_function(constant_function(g, 2.3), dirs)
    assert_allclose(rho, 2.3, rtol=1e-12)


def test_radial_translated_sphere_closed_form():
    rng = np.random.default_rng(3)
    v, c = np.array([0.2, -0.1, 0.15]), 1.3
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    uv = dirs @ v
    exact = uv + np.sqrt(c ** 2 - v @ v + uv ** 2)

    errs = []
    for m_lat in (32, 64):
        g = build_grid(2, m_lat=m_lat, m_lon=2 * m_lat)
        rho = radial_function(translated_sphere(g, v, c), dirs)
        errs.append(np.max(np.abs(rho - exact)))
    assert errs[0] < 2e-3
    assert errs[0] / errs[1] > 2.0  # refinement helps


def test_radial_circle_closed_form():
    g = build_grid(1, m_theta=256)
    v, c = np.array([0.3, -0.2]), 1.1
    rng = np.random.default_rng(4)
    dirs = rng.normal(size=(20, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    uv = dirs @ v
    exact = uv + np.sqrt(c ** 2 - v @ v + uv ** 2)
    rho = radial_function(translated_sphere(g, v, c), dirs)
    assert np.max(np.abs(rho - exact)) < 1e-3


@pytest.mark.parametrize("n,kw", [(1, dict(m_theta=64)), (2, dict(m_lat=16, m_lon=32))])
def test_radial_function_evaluates_b_once(monkeypatch, n, kw):
    # the convexity check and the reconstruction share one hessian_field,
    # and the radii are those of an unobserved call, bitwise
    from cmkit import geometry

    g = build_grid(n, **kw)
    h = legendre_body(g)
    dirs = np.array([[0.6, 0.8], [1.0, 0.0]]) if n == 1 \
        else np.array([[0.6, -0.48, 0.64], [0.0, 0.0, 1.0]])
    ref = radial_function(h, dirs)
    calls = []

    def spy(h):
        calls.append(h)
        return hessian_field(h)

    monkeypatch.setattr(geometry, "hessian_field", spy)
    rho = radial_function(h, dirs)
    assert len(calls) == 1 and calls[0] is h
    assert np.array_equal(rho, ref)


def test_radial_scalar_direction():
    g = build_grid(1, m_theta=64)
    out = radial_function(constant_function(g, 1.5), [1.0, 0.0])
    assert isinstance(out, float)
    assert_allclose(out, 1.5, rtol=1e-12)


def test_radial_support_round_trip():
    # h(x) = max_u rho(u) <u, x>: with u ranging over the mesh's own
    # normal directions this is the vertex-cloud support, exact for even h
    g = build_grid(2, m_lat=16, m_lon=32)
    h = legendre_body(g)
    hs = np.max(g.coords @ body(h).vertices.T, axis=1)
    assert np.max(np.abs(hs - h.values)) < 1e-13


def test_radial_rejects_nonconvex_body():
    g = build_grid(2, m_lat=16, m_lon=32)
    with pytest.raises(AdmissibilityError):
        radial_function(legendre_body(g, eps=0.8), [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# mesh files
# ---------------------------------------------------------------------------

def test_obj_round_trip_bitwise(tmp_path):
    g = build_grid(2, m_lat=16, m_lon=32)
    mesh = body(legendre_body(g))
    path = os.path.join(tmp_path, "body.obj")
    write_obj(mesh, path)
    with open(path) as fh:
        records = [line.split() for line in fh]
    vs = np.array([r[1:] for r in records if r[0] == "v"], dtype=float)
    ns = np.array([r[1:] for r in records if r[0] == "vn"], dtype=float)
    assert np.array_equal(vs, mesh.vertices)
    assert np.array_equal(ns, mesh.normals)
    # every quad splits into two triangles
    assert sum(r[0] == "f" for r in records) == 2 * len(mesh.faces)


def test_polyline_round_trip_bitwise(tmp_path):
    g = build_grid(1, m_theta=64)
    mesh = body(constant_function(g, 1.2))
    path = os.path.join(tmp_path, "body.csv")
    write_polyline(mesh, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y"]
    arr = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert np.array_equal(arr, mesh.vertices)


def _write_obj_per_row(mesh, path):
    # the earlier writer, kept as the reference: one f-string per record
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for nrm in mesh.normals:
            fh.write(f"vn {nrm[0]:.17g} {nrm[1]:.17g} {nrm[2]:.17g}\n")
        for a, b, c, d in mesh.faces + 1:
            fh.write(f"f {a}//{a} {b}//{b} {c}//{c}\n")
            fh.write(f"f {a}//{a} {c}//{c} {d}//{d}\n")


def _write_polyline_per_row(mesh, path):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g},{v[1]:.17g}\n")


# signed zeros, values that need all 17 digits, the extreme magnitudes
AWKWARD = (-0.0, 0.0, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 5e-324, -1.7976931348623157e308, 1e16)


@pytest.mark.parametrize("n,kw", [(1, dict(m_theta=64)), (2, dict(m_lat=8, m_lon=16)),
                                  (2, dict(m_lat=9, m_lon=16)), (2, dict(m_lat=32, m_lon=64)),
                                  (2, dict(m_lat=33, m_lon=66))])
def test_mesh_writers_match_per_row_writers(tmp_path, n, kw):
    g = build_grid(n, **kw)
    mesh = body(legendre_body(g))
    mesh.vertices.flat[:len(AWKWARD)] = AWKWARD
    mesh.normals = mesh.normals.copy()
    mesh.normals.flat[-len(AWKWARD):] = AWKWARD
    write, reference = (write_polyline, _write_polyline_per_row) if n == 1 else \
        (write_obj, _write_obj_per_row)
    write(mesh, os.path.join(tmp_path, "new"))
    reference(mesh, os.path.join(tmp_path, "ref"))
    with open(os.path.join(tmp_path, "new"), "rb") as new, \
            open(os.path.join(tmp_path, "ref"), "rb") as ref:
        assert new.read() == ref.read()


def test_mesh_writers_check_dimension(tmp_path):
    g1 = build_grid(1, m_theta=64)
    g2 = build_grid(2, m_lat=16, m_lon=32)
    m1 = body(constant_function(g1, 1.0))
    m2 = body(constant_function(g2, 1.0))
    with pytest.raises(ValueError):
        write_obj(m1, os.path.join(tmp_path, "x.obj"))
    with pytest.raises(ValueError):
        write_polyline(m2, os.path.join(tmp_path, "x.csv"))
