"""
Structured grids and calculus on the unit sphere (S^1 and S^2).

S^1 is an equispaced periodic grid with dense trigonometric differentiation.
S^2 is a latitude-longitude grid: latitudes at arcsin of Gauss-Legendre
nodes (no node sits on a pole), longitudes equispaced.  Longitude
derivatives use the closed-form trigonometric kernels, latitude derivatives
use local finite-difference stencils whose meridians continue across the
poles through the longitude column theta + pi.

Two floating-point properties are engineered to hold exactly, not just to
tolerance, because downstream symmetry checks rely on them:

  * derivatives of constant fields are exactly zero (all stencils are
    applied in difference form, sum of w*(other - self));
  * the antipodal map, whole-step longitude shifts and the latitude flip
    commute with every operator bitwise (circulant kernels applied via
    np.roll with fixed pairwise accumulation; northern-hemisphere stencil
    weights are exact IEEE mirrors of the southern ones).
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# finite-difference weights on arbitrary nodes (Fornberg's recursion)
# ---------------------------------------------------------------------------

def fd_weights(z, x, m):
    """Weights of the derivatives 0..m at z over the nodes x.

    Returns an (m+1, len(x)) array; row k holds the k-th derivative
    weights in the given node order.  The recursion is sign-homogeneous in
    the node differences: negating z and every node negates the odd-order
    rows bitwise and leaves the even-order rows bitwise unchanged, which
    the latitude-flip symmetry of the grid depends on.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - z
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

class SphereGrid:
    """Node set, quadrature and differentiation stencils for S^n, n in {1,2}.

    Construct through build_grid.  Instances are immutable in use; the
    sparse frame operators needed by Jacobian assembly are built lazily
    and cached (frame_operators).
    """

    def __init__(self, n, m_theta=None, m_lat=None, m_lon=None):
        if n not in (1, 2):
            raise ValueError(f"sphere dimension must be 1 or 2, got {n}")
        self.n = n
        if n == 1:
            if m_theta is None:
                raise ValueError("n=1 grid needs m_theta")
            if m_theta < 8:
                raise ValueError(f"m_theta must be >= 8, got {m_theta}")
            if m_theta % 2:
                raise ValueError(
                    f"m_theta must be even for exact antipodal symmetrization, got {m_theta}")
            self.m_theta = m_theta
            self._build_circle()
        else:
            if m_lat is None or m_lon is None:
                raise ValueError("n=2 grid needs m_lat and m_lon")
            if m_lat < 8 or m_lon < 8:
                raise ValueError(f"resolution must be >= 8 per direction, got {m_lat}x{m_lon}")
            if m_lon % 2:
                raise ValueError(
                    f"m_lon must be even for exact antipodal symmetrization, got {m_lon}")
            self.m_lat = m_lat
            self.m_lon = m_lon
            self._build_sphere()
        self._frame_ops = None

    # -- construction -------------------------------------------------------

    def _build_circle(self):
        m = self.m_theta
        self.thetas = 2.0 * np.pi * np.arange(m) / m
        cos_t = np.cos(self.thetas)
        sin_t = np.sin(self.thetas)
        half = m // 2
        # antipodal nodes get exactly negated coordinates
        cos_t[half:] = -cos_t[:half]
        sin_t[half:] = -sin_t[:half]
        self.coords = np.column_stack([cos_t, sin_t])
        self.weights = np.full(m, 2.0 * np.pi / m)
        self.node_count = m
        self.shape = (m,)
        self.antipodal_perm = (np.arange(m) + half) % m
        self._build_lon_kernels(m)

    def _build_sphere(self):
        M, L = self.m_lat, self.m_lon
        x, w = np.polynomial.legendre.leggauss(M)
        # enforce exact antipodal symmetry of the latitude set
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
        lat = np.arcsin(x)
        lat = 0.5 * (lat - lat[::-1])  # arcsin is not guaranteed odd in floats
        self.sinlat = x
        self.lats = lat
        self.coslat = np.sqrt((1.0 - x) * (1.0 + x))
        self.invcos = 1.0 / self.coslat
        self.tanlat = x * self.invcos
        self.lons = 2.0 * np.pi * np.arange(L) / L
        cos_l = np.cos(self.lons)
        sin_l = np.sin(self.lons)
        half = L // 2
        cos_l[half:] = -cos_l[:half]
        sin_l[half:] = -sin_l[:half]
        self.coslon = cos_l
        self.sinlon = sin_l

        cx = self.coslat[:, None] * cos_l[None, :]
        cy = self.coslat[:, None] * sin_l[None, :]
        cz = np.broadcast_to(x[:, None], (M, L))
        self.coords = np.column_stack([cx.ravel(), cy.ravel(), cz.ravel()])
        self.weights = np.broadcast_to(
            (w * (2.0 * np.pi / L))[:, None], (M, L)).ravel().copy()
        self.node_count = M * L
        self.shape = (M, L)

        jj, ii = np.meshgrid(np.arange(M), np.arange(L), indexing="ij")
        self.antipodal_perm = ((M - 1 - jj) * L + (ii + half) % L).ravel()

        self._build_lon_kernels(L)
        self._build_lat_stencils()

    def _build_lon_kernels(self, m):
        # trigonometric differentiation kernels for the periodic direction;
        # c1[d] multiplies h[i+d]-h[i-d], c2[d] multiplies the symmetric pair
        half = m // 2
        d = np.arange(1, half)
        ang = np.pi * d / m
        sign = np.where(d % 2 == 0, 1.0, -1.0)
        self._lon_c1 = -0.5 * sign / np.tan(ang)
        self._lon_c2 = -0.5 * sign / np.sin(ang) ** 2
        self._lon_c2_half = -0.5 if half % 2 == 0 else 0.5
        self._lon_half = half

    def _build_lat_stencils(self):
        # difference-form stencil entries per latitude row: lists of
        # (source_row, across_pole, weight); the self term is implicit.
        # Southern rows are built from node sets, northern rows are their
        # exact IEEE mirrors (negated for odd derivative order).
        M = self.m_lat
        lat = self.lats
        ent1 = [None] * M
        ent2 = [None] * M

        south = M // 2  # rows 0..south-1 have lat < 0
        for j in range(south):
            if j == 0:
                nodes = [-np.pi - lat[0], lat[0], lat[1], lat[2]]
                w = fd_weights(lat[0], nodes, 2)
                ent1[0] = [(0, True, w[1, 0]), (1, False, w[1, 2]), (2, False, w[1, 3])]
                ent2[0] = [(0, True, w[2, 0]), (1, False, w[2, 2]), (2, False, w[2, 3])]
            else:
                # 4-point stencils: first-derivative truncation O(dx^3) so the
                # 1/cos(lat) frame factors near the poles cost only one order
                nodes = [lat[j - 1], lat[j], lat[j + 1], lat[j + 2]]
                w = fd_weights(lat[j], nodes, 2)
                ent1[j] = [(j - 1, False, w[1, 0]), (j + 1, False, w[1, 2]),
                           (j + 2, False, w[1, 3])]
                ent2[j] = [(j - 1, False, w[2, 0]), (j + 1, False, w[2, 2]),
                           (j + 2, False, w[2, 3])]
        if M % 2:
            # equator row of odd-height grids: symmetric 5-point stencil with
            # the weights explicitly (anti)symmetrized so the latitude flip
            # stays a bitwise symmetry
            eq = M // 2
            nodes = lat[eq - 2:eq + 3]
            w = fd_weights(lat[eq], nodes, 2)
            w1 = 0.5 * (w[1] - w[1][::-1])
            w2 = 0.5 * (w[2] + w[2][::-1])
            offs = [-2, -1, 1, 2]
            ent1[eq] = [(eq + o, False, w1[o + 2]) for o in offs]
            ent2[eq] = [(eq + o, False, w2[o + 2]) for o in offs]
        for j in range(south):
            jm = M - 1 - j
            ent1[jm] = [(M - 1 - s, across, -wgt) for (s, across, wgt) in ent1[j]]
            ent2[jm] = [(M - 1 - s, across, wgt) for (s, across, wgt) in ent2[j]]
        self._lat_ent1 = ent1
        self._lat_ent2 = ent2

    # -- kernels applied in difference form ----------------------------------

    def _lon_apply1(self, field):
        c = self._lon_c1
        out = np.zeros_like(field)
        for idx in range(len(c)):
            d = idx + 1
            out += c[idx] * (np.roll(field, -d, axis=-1) - np.roll(field, d, axis=-1))
        return out

    def _lon_apply2(self, field):
        c = self._lon_c2
        half = self._lon_half
        out = np.zeros_like(field)
        for idx in range(len(c)):
            d = idx + 1
            out += c[idx] * ((np.roll(field, -d, axis=-1) - field)
                             + (np.roll(field, d, axis=-1) - field))
        out += self._lon_c2_half * (np.roll(field, -half, axis=-1) - field)
        return out

    def _lat_apply(self, entries, field):
        half = self.m_lon // 2
        out = np.zeros_like(field)
        for j, ent in enumerate(entries):
            row = field[j]
            acc = None
            for (src, across, wgt) in ent:
                vals = field[src]
                if across:
                    vals = np.roll(vals, -half)
                term = wgt * (vals - row)
                acc = term if acc is None else acc + term
            out[j] = acc
        return out

    def lat_d1(self, field):
        return self._lat_apply(self._lat_ent1, field)

    def lat_d2(self, field):
        return self._lat_apply(self._lat_ent2, field)

    # -- sparse operator matrices for linearization assembly -----------------

    def operator_matrices(self):
        """Sparse CSR versions of the derivative operators, built per call.

        Returns a dict with keys 'lon1', 'lon2' (n=1: on m_theta nodes;
        n=2: on all nodes, acting along longitude) and for n=2 also 'lat1',
        'lat2'.  These reproduce the kernel applications up to summation
        order.  They are not cached: frame_operators() composes them once
        into the operators Jacobian assembly uses, and holds the grid's
        only cached set.
        """
        from scipy import sparse

        def lon_block(m):
            half = m // 2
            c1 = self._lon_c1
            c2 = self._lon_c2
            row1 = np.zeros(m)
            row2 = np.zeros(m)
            for idx in range(len(c1)):
                d = idx + 1
                row1[d] += c1[idx]
                row1[m - d] -= c1[idx]
                row2[d] += c2[idx]
                row2[m - d] += c2[idx]
            row2[half] += self._lon_c2_half
            row1[0] = -row1.sum()
            row2[0] = -row2.sum()
            i = np.repeat(np.arange(m), m)
            jcols = (np.tile(np.arange(m), m) + i) % m
            b1 = sparse.csr_matrix((np.tile(row1, m), (i, jcols)), shape=(m, m))
            b2 = sparse.csr_matrix((np.tile(row2, m), (i, jcols)), shape=(m, m))
            return b1, b2

        if self.n == 1:
            b1, b2 = lon_block(self.m_theta)
            return {"lon1": b1, "lon2": b2}

        M, L = self.shape
        b1, b2 = lon_block(L)
        eye = sparse.identity(M, format="csr")
        lon1 = sparse.kron(eye, b1, format="csr")
        lon2 = sparse.kron(eye, b2, format="csr")

        def lat_matrix(entries):
            half = L // 2
            rows, cols, vals = [], [], []
            for j, ent in enumerate(entries):
                selfw = 0.0
                for (src, across, wgt) in ent:
                    shift = half if across else 0
                    for i in range(L):
                        rows.append(j * L + i)
                        cols.append(src * L + (i + shift) % L)
                        vals.append(wgt)
                    selfw -= wgt
                for i in range(L):
                    rows.append(j * L + i)
                    cols.append(j * L + i)
                    vals.append(selfw)
            return sparse.csr_matrix((vals, (rows, cols)),
                                     shape=(self.node_count, self.node_count))

        return {
            "lon1": lon1, "lon2": lon2,
            "lat1": lat_matrix(self._lat_ent1),
            "lat2": lat_matrix(self._lat_ent2),
        }

    def frame_operators(self):
        """The h-independent operators of the linearization, built once.

        Returns a cached dict of CSR matrices over flat node values.
        'hess11', 'hess12', 'hess22' map phi to the frame components of
        hess(phi) + phi*I, and 'grad1', 'grad2' to the frame gradient, as
        in hessian_field (n=1: only 'hess11' and 'grad1').  Jacobian
        assembly then only scales their rows and adds them.
        """
        if self._frame_ops is not None:
            return self._frame_ops
        from scipy import sparse

        mats = self.operator_matrices()
        eye = sparse.identity(self.node_count, format="csr")
        if self.n == 1:
            ops = {"hess11": mats["lon2"] + eye, "grad1": mats["lon1"]}
        else:
            D = sparse.diags_array
            lat1, lon1 = mats["lat1"], mats["lon1"]
            invcos = np.repeat(self.invcos, self.m_lon)
            tanlat = np.repeat(self.tanlat, self.m_lon)
            ops = {
                "hess11": mats["lat2"] + eye,
                "hess12": D(invcos) @ ((lat1 + D(tanlat)) @ lon1),
                "hess22": D(invcos ** 2) @ mats["lon2"] - D(tanlat) @ lat1 + eye,
                "grad1": lat1,
                "grad2": D(invcos) @ lon1,
            }
        self._frame_ops = {key: sparse.csr_array(op) for key, op in ops.items()}
        for op in self._frame_ops.values():
            op.sum_duplicates()  # canonical CSR keeps the assembly sums fast
        return self._frame_ops

    # -- misc ----------------------------------------------------------------

    def surface_measure(self):
        return 2.0 * np.pi if self.n == 1 else 4.0 * np.pi

    def __repr__(self):
        if self.n == 1:
            return f"SphereGrid(n=1, m_theta={self.m_theta})"
        return f"SphereGrid(n=2, m_lat={self.m_lat}, m_lon={self.m_lon})"


def build_grid(n, m_theta=None, m_lat=None, m_lon=None):
    """Build a SphereGrid.

    n=1 takes m_theta (even, >= 8); n=2 takes m_lat and m_lon (m_lon even,
    both >= 8).  Node coordinates are unit vectors, quadrature weights are
    positive and sum to the surface measure, and the antipodal map is an
    exact node permutation.
    """
    return SphereGrid(n, m_theta=m_theta, m_lat=m_lat, m_lon=m_lon)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

class GridFunction:
    """Samples of a scalar field, one value per grid node (flat, node order)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape == grid.shape:
            values = values.ravel()
        if values.shape != (grid.node_count,):
            raise ValueError(
                f"value count {values.shape} does not match node count {grid.node_count}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values

    @property
    def field(self):
        """Values viewed in grid shape ((m_lat, m_lon) for n=2)."""
        return self.values.reshape(self.grid.shape)

    def copy(self):
        return GridFunction(self.grid, self.values.copy())

    def __repr__(self):
        return f"GridFunction({self.grid!r}, min={self.values.min():g}, max={self.values.max():g})"


def constant_function(grid, value):
    return GridFunction(grid, np.full(grid.node_count, float(value)))


def coordinate_function(grid, v):
    """The linear function x -> <x, v> sampled on the grid."""
    v = np.asarray(v, dtype=float)
    return GridFunction(grid, grid.coords @ v)


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

class HessianField:
    """Per-node data of b = (Hessian of h in the orthonormal frame) + h*I.

    Stores lam (N,n), the eigenvalues sorted ascending, and the component
    fields in grid shape: b11 and the frame gradient g1 for n=1, plus b12,
    b22 and g2 for n=2.  The (N,n,n) matrices b and the (N,n) gradient
    grad are derived from the components on access.
    """

    def __init__(self, grid, lam, components):
        self.grid = grid
        self.lam = lam
        self.components = components

    @property
    def b(self):
        c = self.components
        n = self.grid.n
        b = np.empty((self.grid.node_count, n, n))
        for i in range(n):
            for j in range(i, n):
                b[:, i, j] = b[:, j, i] = c[f"b{i + 1}{j + 1}"].ravel()
        return b

    @property
    def grad(self):
        c = self.components
        return np.column_stack([c[f"g{i + 1}"].ravel() for i in range(self.grid.n)])

    def trace(self):
        """trace(b) per node."""
        c = self.components
        if self.grid.n == 1:
            return c["b11"]
        return (c["b11"] + c["b22"]).ravel()

    def grad_norm_sq(self):
        c = self.components
        if self.grid.n == 1:
            return c["g1"] ** 2
        return c["g1"].ravel() ** 2 + c["g2"].ravel() ** 2


def hessian_field(h):
    """b = (covariant Hessian of h) + h*I in the local orthonormal frame.

    The S^2 frame is e1 = d/dlat, e2 = (1/cos lat) d/dlon; the mixed and
    longitudinal entries carry the tan(lat) Christoffel corrections:
        b11 = h_ll + h
        b12 = (h_lt + tan(lat) h_t) / cos(lat)
        b22 = h_tt / cos^2(lat) - tan(lat) h_l + h
    (l = latitude, t = longitude; validated against b = 0 for h = <x,v>).
    """
    g = h.grid
    if g.n == 1:
        b11 = g._lon_apply2(h.values) + h.values
        return HessianField(g, b11[:, None],
                            {"b11": b11, "g1": g._lon_apply1(h.values)})

    F = h.field
    h_l = g.lat_d1(F)
    h_t = g._lon_apply1(F)
    h_ll = g.lat_d2(F)
    h_tt = g._lon_apply2(F)
    h_lt = g.lat_d1(h_t)

    invcos = g.invcos[:, None]
    tanlat = g.tanlat[:, None]
    b11 = h_ll + F
    b12 = invcos * (h_lt + tanlat * h_t)
    b22 = (invcos ** 2 * h_tt - tanlat * h_l) + F

    mid = 0.5 * (b11 + b22)
    rad = np.hypot(0.5 * (b11 - b22), b12)
    lam = np.column_stack([(mid - rad).ravel(), (mid + rad).ravel()])
    return HessianField(g, lam, {"b11": b11, "b12": b12, "b22": b22,
                                 "g1": h_l, "g2": invcos * h_t})


def laplace_beltrami(h):
    """Laplace-Beltrami of h, defined as trace(hessian_field(h)) - n*h."""
    hf = hessian_field(h)
    return GridFunction(h.grid, hf.trace() - h.grid.n * h.values)


def integrate(gf):
    """Quadrature sum(weights * values), accumulated deterministically."""
    return math.fsum(gf.grid.weights * gf.values)


def integrate_values(grid, values):
    return math.fsum(grid.weights * values)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def even_project(h):
    """Antipodal average: output satisfies h(x) = h(-x) bitwise; idempotent."""
    v = h.values
    out = (v + v[h.grid.antipodal_perm]) * 0.5
    return GridFunction(h.grid, out)


def odd_defect(h):
    """max |h(x) - h(-x)| over nodes; 0.0 exactly for projected functions."""
    v = h.values
    return float(np.max(np.abs(v - v[h.grid.antipodal_perm])))


def apply_symmetry(h, kind, steps=0):
    """Pull h back along a grid-compatible isometry (a node permutation).

    kind: 'antipodal', 'lon_shift' (with whole-step count), or 'lat_flip'
    (n=2 only).  Returns the GridFunction x -> h(s(x)).
    """
    g = h.grid
    if kind == "antipodal":
        return GridFunction(g, h.values[g.antipodal_perm])
    if kind == "lon_shift":
        if g.n == 1:
            return GridFunction(g, np.roll(h.values, -steps))
        return GridFunction(g, np.roll(h.field, -steps, axis=1))
    if kind == "lat_flip":
        if g.n != 2:
            raise ValueError("lat_flip requires n=2")
        return GridFunction(g, h.field[::-1])
    raise ValueError(f"unknown symmetry kind {kind!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_grid_function(gf, path):
    """CSV with header lat,lon,value (n=2) or theta,value (n=1), node order,
    17 significant digits."""
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


def read_grid_function(grid, path):
    """Read a CSV written by write_grid_function onto a matching grid.

    The node coordinates in the file must match the grid's within 1e-12;
    a mismatch means the file belongs to a different grid.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    if grid.n == 1:
        if data.shape != (grid.m_theta, 2):
            raise ValueError(
                f"{path}: expected {grid.m_theta} rows of theta,value, got {data.shape}")
        if np.max(np.abs(data[:, 0] - grid.thetas)) > 1e-12:
            raise ValueError(f"{path}: theta column does not match the grid")
        return GridFunction(grid, data[:, 1])
    M, L = grid.shape
    if data.shape != (M * L, 3):
        raise ValueError(
            f"{path}: expected {M * L} rows of lat,lon,value, got {data.shape}")
    lats = data[:, 0].reshape(M, L)
    lons = data[:, 1].reshape(M, L)
    if np.max(np.abs(lats - grid.lats[:, None])) > 1e-12:
        raise ValueError(f"{path}: lat column does not match the grid")
    if np.max(np.abs(lons - grid.lons[None, :])) > 1e-12:
        raise ValueError(f"{path}: lon column does not match the grid")
    return GridFunction(grid, data[:, 2])
