"""
Convex-body reconstruction from the support function, the radial function,
and mesh export.

The boundary point with outer normal x is X(x) = grad h(x) + h(x) x.  The
frame vectors are assembled from the grid's symmetrized coordinate arrays,
so for even h the antipodal symmetry X(-x) = -X(x) holds bitwise, not just
to rounding.
"""

import numpy as np

from .errors import AdmissibilityError
from .sphere import format_rows, hessian_field


class BodyMesh:
    """Reconstructed boundary mesh.

    vertices: (N, n+1) boundary points, one per grid node;
    faces: (n=2) quads of node indices between adjacent latitude rings,
           (n=1) consecutive segment pairs closing the curve;
    normals: the grid nodes themselves (outer unit normals);
    support: the support values h the mesh was built from (the identity
           <X(x), x> = h(x) is definitional for these stored values; the
           recomputed dot product agrees to rounding).
    """

    def __init__(self, grid, vertices, faces, support):
        self.grid = grid
        self.vertices = vertices
        self.faces = faces
        self.normals = grid.coords
        self.support = support

    def centroid(self):
        return self.vertices.mean(axis=0)

    def radii(self):
        return np.linalg.norm(self.vertices, axis=1)


def _frame_vectors(g):
    """Ambient unit tangent vectors of the coordinate frame per node."""
    if g.n == 1:
        # e_theta = (-sin, cos)
        return (np.column_stack([-g.coords[:, 1], g.coords[:, 0]]),)
    M, L = g.shape
    sinlat = np.repeat(g.sinlat, L)
    coslat = np.repeat(g.coslat, L)
    coslon = np.tile(g.coslon, M)
    sinlon = np.tile(g.sinlon, M)
    e_lat = np.column_stack([-sinlat * coslon, -sinlat * sinlon, coslat])
    e_lon = np.column_stack([-sinlon, coslon, np.zeros(M * L)])
    return e_lat, e_lon


def reconstruct_body(h, hf):
    """BodyMesh with vertices X = grad h + h x over all grid nodes, where
    hf is hessian_field(h).

    Warns (on the returned mesh's `warning` attribute) when b(h) has a
    non-positive eigenvalue somewhere: the map x -> X(x) is then not a
    convex embedding and faces may fold.
    """
    g = h.grid
    if np.any(h.values <= 0):
        raise ValueError("reconstruction needs h > 0")
    frame = _frame_vectors(g)
    grad = hf.grad
    X = h.values[:, None] * g.coords
    for a in range(g.n):
        X = X + grad[:, a][:, None] * frame[a]

    if g.n == 1:
        m = g.m_theta
        faces = np.column_stack([np.arange(m), (np.arange(m) + 1) % m])
    else:
        M, L = g.shape
        j, i = np.meshgrid(np.arange(M - 1), np.arange(L), indexing="ij")
        i1 = (i + 1) % L
        faces = np.column_stack([
            (j * L + i).ravel(), (j * L + i1).ravel(),
            ((j + 1) * L + i1).ravel(), ((j + 1) * L + i).ravel()])

    mesh = BodyMesh(g, X, faces, h.values.copy())
    mesh.warning = ("b(h) is not positive definite everywhere; "
                    "mesh may self-intersect") if np.min(hf.lam[:, 0]) <= 0 else ""
    return mesh


# ---------------------------------------------------------------------------
# radial function
# ---------------------------------------------------------------------------

def radial_function(h, directions):
    """Distance from the origin to the boundary along each direction.

    Picks the grid vertex best aligned with the direction, then sharpens
    with a local quadratic fit of the alignment and the radius over the
    surrounding grid patch.  Requires a strictly convex body.
    """
    g = h.grid
    hf = hessian_field(h)
    if np.min(hf.lam[:, 0]) <= 0:
        raise AdmissibilityError(
            "radial function needs a strictly convex body (b > 0)",
            margin=float(np.min(hf.lam[:, 0])))
    mesh = reconstruct_body(h, hf)
    X = mesh.vertices
    rad = np.linalg.norm(X, axis=1)
    Xhat = X / rad[:, None]

    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    directions = directions / np.linalg.norm(directions, axis=1)[:, None]
    out = np.empty(len(directions))
    for idx, u in enumerate(directions):
        align = Xhat @ u
        best = int(np.argmax(align))
        if g.n == 1:
            out[idx] = _refine_circle(g, align, rad, best)
        else:
            out[idx] = _refine_sphere(g, align, rad, best)
    return out if out.size > 1 else float(out[0])


def _refine_circle(g, align, rad, best):
    m = g.m_theta
    ids = [(best - 1) % m, best, (best + 1) % m]
    ts = np.array([-1.0, 0.0, 1.0]) * (2 * np.pi / m)
    a = np.polyfit(ts, align[ids], 2)
    t_star = -a[1] / (2 * a[0]) if a[0] != 0 else 0.0
    t_star = float(np.clip(t_star, ts[0], ts[-1]))
    r = np.polyfit(ts, rad[ids], 2)
    return float(np.polyval(r, t_star))


def _refine_sphere(g, align, rad, best):
    M, L = g.shape
    j0, i0 = divmod(best, L)
    js = [j for j in (j0 - 1, j0, j0 + 1) if 0 <= j < M]
    if len(js) < 3:  # polar row: take three rows one-sided
        js = [0, 1, 2] if j0 == 0 else [M - 3, M - 2, M - 1]
    cols = [(i0 - 1) % L, i0, (i0 + 1) % L]
    pts, va, vr = [], [], []
    for j in js:
        for i in cols:
            node = j * L + i
            dlon = (i - i0 + L // 2) % L - L // 2
            pts.append((g.lats[j] - g.lats[j0], dlon * 2 * np.pi / L))
            va.append(align[node])
            vr.append(rad[node])
    pts = np.array(pts)
    A = np.column_stack([np.ones(len(pts)), pts[:, 0], pts[:, 1],
                         pts[:, 0] ** 2, pts[:, 0] * pts[:, 1], pts[:, 1] ** 2])
    ca, *_ = np.linalg.lstsq(A, np.array(va), rcond=None)
    cr, *_ = np.linalg.lstsq(A, np.array(vr), rcond=None)
    # maximize the fitted alignment quadratic
    H = np.array([[2 * ca[3], ca[4]], [ca[4], 2 * ca[5]]])
    rhs = -np.array([ca[1], ca[2]])
    try:
        step = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        step = np.zeros(2)
    lim_lat = np.max(np.abs(pts[:, 0])) or 1.0
    lim_lon = np.max(np.abs(pts[:, 1])) or 1.0
    step[0] = np.clip(step[0], -lim_lat, lim_lat)
    step[1] = np.clip(step[1], -lim_lon, lim_lon)
    basis = np.array([1.0, step[0], step[1], step[0] ** 2,
                      step[0] * step[1], step[1] ** 2])
    return float(cr @ basis)


# ---------------------------------------------------------------------------
# mesh files
# ---------------------------------------------------------------------------

def write_obj(mesh, path):
    """Wavefront OBJ (n = 2 only): v/vn records at 17 significant digits
    (%.17g), quads split into two triangles, faces as v//vn (1-based).
    Each distinct normal z (by its bits; sin(lat), one per ring, for the
    grid's normals) and each node's token i//i are formatted once; the
    bytes are those of formatting every number of every record."""
    g = mesh.grid
    if g.n != 2:
        raise ValueError("OBJ export is for n = 2; use write_polyline for n = 1")
    z = mesh.normals[:, 2]
    _, first, which = np.unique(z.view(np.int64), return_index=True, return_inverse=True)
    normals = np.empty(mesh.normals.shape, dtype=object)
    normals[:, :2] = mesh.normals[:, :2]
    normals[:, 2] = np.array(["%.17g" % v for v in z[first].tolist()], dtype=object)[which]
    tokens = np.array([f"{i}//{i}" for i in range(1, g.node_count + 1)], dtype=object)
    # quad a, b, c, d -> triangles a, b, c and a, c, d
    tris = tokens[mesh.faces[:, [0, 1, 2, 0, 2, 3]]]
    with open(path, "w") as fh:
        fh.write(format_rows("v %.17g %.17g %.17g", mesh.vertices))
        fh.write(format_rows("vn %.17g %.17g %s", normals))
        fh.write(format_rows("f %s %s %s\nf %s %s %s", tris))


def write_polyline(mesh, path):
    """Closed-curve CSV x,y (n = 1), node order, 17 significant digits."""
    if mesh.grid.n != 1:
        raise ValueError("polyline export is for n = 1")
    with open(path, "w") as fh:
        fh.write("x,y\n")
        fh.write(format_rows("%.17g,%.17g", mesh.vertices))
