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
    commute with every operator bitwise (circulant kernels read shifted
    views of one periodically padded copy of the field and accumulate the
    pairwise differences in a fixed order; northern-hemisphere stencil
    weights are exact IEEE mirrors of the southern ones; odd-m_lat rows sum
    their four taps in mirrored pairs, which the flip maps to themselves).

The kernels SphereGrid.lon_derivs and SphereGrid.lat_derivs each return the
first and second derivative from one pass.  The longitude weights are held
once, as the circulant rows _lon_rows, and the latitude stencils as per-ring
tap arrays; the kernels, the frame taps and the operator matrices all
come from them.  interpolate moves a grid function between sphere grids,
with an even result, for grid sequencing (continuation).

The same exactness makes the antipodal map free to use: hessian_field of
an exactly even field computes its southern rings (and the equator ring of
odd-height grids) and copies the northern ones from them, bit for bit
what the whole-grid computation gives.
"""

import json
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

# latitude rings any S^2 stencil reaches on either side of its own ring
RING_REACH = 2
# longitudes of SphereGrid.ring_grid: the fewest a sphere grid allows
RING_LON = 8
# latitude rings of the coarsest SphereGrid.coarse_grid, and the fewest
# either grid of interpolate may have
COARSE_LAT = 16
# latitude nodes of interpolate's Lagrange stencils, half on either side
INTERP_POINTS = 6
# the bits of -0.0 read as an int64: the smallest int64
_NEG_ZERO_BITS = np.iinfo(np.int64).min


class SphereGrid:
    """Node set, quadrature and differentiation stencils for S^n, n in {1,2}.

    Construct through build_grid.  Instances are immutable in use.
    lon_derivs and lat_derivs (n=2 only) are the derivative kernels, each
    returning (first, second); lat_derivs can stop at the first order and
    at a given ring.  The longitude weights live once, in _lon_rows.  The
    frame operators' taps needed by the linearization are built lazily and
    cached (frame_taps), as are the ring grid (ring_grid) and the coarse
    grid (coarse_grid); their longitude-Fourier symbols come from
    problem.ring_blocks.
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
        self._frame_taps = None
        self._ring_grid = None
        self._coarse_grid = None

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
        # trigonometric differentiation kernels for the periodic direction,
        # held once: row o of _lon_rows is the weight of node i + d in
        # derivative o + 1 at i.  For 0 < d < m/2, rows[0, d] (c1) multiplies
        # h[i+d]-h[i-d] and rows[1, d] (c2) the symmetric pair.
        half = m // 2
        d = np.arange(1, half)
        ang = np.pi * d / m
        sign = np.where(d % 2 == 0, 1.0, -1.0)
        c1 = -0.5 * sign / np.tan(ang)
        c2 = -0.5 * sign / np.sin(ang) ** 2
        rows = np.zeros((2, m))
        rows[:, 1:half] = c1, c2
        rows[:, m - 1:half:-1] = -c1, c2
        rows[1, half] = -0.5 if half % 2 == 0 else 0.5
        rows[:, 0] = -rows.sum(axis=1)
        self._lon_rows = rows
        self._lon_syms = np.conj(np.fft.rfft(rows, axis=-1))

    def _build_lat_stencils(self):
        # difference-form stencils as tap arrays, one row per latitude ring
        # (the self term is implicit): source ring, shift in longitude
        # (m_lon/2 across the pole) and the weights of the first and second
        # derivative.  Southern rows are built from node sets, northern rows
        # are their exact IEEE mirrors (negated for odd derivative order).
        # Rows are padded to the widest, the equator row of odd-height
        # grids; pad taps come last, have weight 0 and read their own ring,
        # so they add +0.0.
        M, L = self.m_lat, self.m_lon
        lat = self.lats
        T = 4 if M % 2 else 3
        src = np.arange(M)[:, None].repeat(T, axis=1)
        shift = np.zeros((M, T), dtype=int)
        w1 = np.zeros((M, T))
        w2 = np.zeros((M, T))

        south = M // 2  # rows 0..south-1 have lat < 0
        for j in range(south):
            if j == 0:
                nodes = [-np.pi - lat[0], lat[0], lat[1], lat[2]]
                src[0, :3] = (0, 1, 2)
                shift[0, 0] = L // 2
            else:
                # 4-point stencils: first-derivative truncation O(dx^3) so the
                # 1/cos(lat) frame factors near the poles cost only one order
                nodes = [lat[j - 1], lat[j], lat[j + 1], lat[j + 2]]
                src[j, :3] = (j - 1, j + 1, j + 2)
            w = fd_weights(lat[j], nodes, 2)
            w1[j, :3] = w[1, [0, 2, 3]]
            w2[j, :3] = w[2, [0, 2, 3]]
        if M % 2:
            # equator row of odd-height grids: symmetric 5-point stencil with
            # the weights explicitly (anti)symmetrized
            eq = M // 2
            w = fd_weights(lat[eq], lat[eq - 2:eq + 3], 2)
            src[eq] = eq + np.array([-2, -1, 1, 2])
            w1[eq] = (0.5 * (w[1] - w[1][::-1]))[[0, 1, 3, 4]]
            w2[eq] = (0.5 * (w[2] + w[2][::-1]))[[0, 1, 3, 4]]
        north = np.arange(M - 1, M - 1 - south, -1)
        src[north] = M - 1 - src[:south]
        shift[north] = shift[:south]
        w1[north] = -w1[:south]
        w2[north] = w2[:south]

        # tap-major: _lat_src[t, j, i] is the node tap t of node (j, i)
        # reads, _lat_w1/_lat_w2[t, j, 0] its weights
        lon = (np.arange(L) + shift.T[:, :, None]) % L
        self._lat_src = src.T[:, :, None] * L + lon
        self._lat_w1 = w1.T[:, :, None]
        self._lat_w2 = w2.T[:, :, None]

    # -- kernels applied in difference form ----------------------------------

    def lon_derivs(self, field):
        """(first, second) longitude derivatives along the last axis, in one
        loop over d from one periodically padded copy (column half + i + d
        holds field[..., (i + d) % m]), with the weights of _lon_rows.  A
        field constant along every ring gets the +0.0 arrays the loop would
        give it, without the loop."""
        row1, row2 = self._lon_rows
        m = field.shape[-1]
        half = m // 2
        first, second = np.zeros_like(field), np.zeros_like(field)
        if (field == field[..., :1]).all():
            return first, second
        pad = np.concatenate([field[..., -half:], field, field[..., :half]], axis=-1)
        term, back = np.empty_like(field), np.empty_like(field)
        for d in range(1, half):
            fwd, bwd = pad[..., half + d:half + d + m], pad[..., half - d:half - d + m]
            np.subtract(fwd, bwd, out=term)
            term *= row1[d]
            first += term
            np.subtract(fwd, field, out=term)
            np.subtract(bwd, field, out=back)
            term += back
            term *= row2[d]
            second += term
        second += row2[half] * (pad[..., 2 * half:2 * half + m] - field)
        return first, second

    def lat_derivs(self, field, rings=None, order=2):
        """The latitude derivatives of orders 1 .. order (2 or 1) of a
        grid-shaped field, on its first `rings` rings (all by default);
        the field may end RING_REACH rings past the last one asked.  Each
        tap's difference flat[src] - field is formed once for every order,
        and a ring's values do not depend on how many are asked."""
        diff = field.ravel()[self._lat_src[:, :rings]] - field[:rings]
        # three taps summed in stencil order, four (odd m_lat) in mirrored
        # pairs, which the flip keeps on the equator ring
        out = []
        for weights in (self._lat_w1, self._lat_w2)[:order]:
            t = weights[:, :rings] * diff
            out.append((t[0] + t[3]) + (t[1] + t[2]) if len(t) == 4 else (t[0] + t[1]) + t[2])
        return tuple(out)

    # -- the antipodal map on grid-shaped stacks -------------------------------

    def _antipodes(self, stack):
        """Views (south, north) of stack (..., m_lat, m_lon), shaped (...,
        m_lat // 2, 2, m_lon / 2): the southern rings, and node for node
        their antipodes (ring m_lat-1-j, longitude i + m_lon/2)."""
        S, half = self.m_lat // 2, self.m_lon // 2
        shape = stack.shape[:-2] + (S, 2, half)
        south = stack[..., :S, :].reshape(shape)
        north = stack[..., ::-1, :][..., :S, :].reshape(shape)[..., ::-1, :]
        return south, north

    def _hemisphere_rings(self, field):
        """How many leading rings of a grid-shaped field hessian_field
        computes: ceil(m_lat / 2), the southern rings and the equator ring
        of odd m_lat, when the field is exactly even (its bits equal its
        antipodes', the equator ring's included) and holds no -0.0; m_lat
        otherwise."""
        bits = field.view(np.int64)
        south, north = self._antipodes(bits)
        even = (south == north).all()
        if self.m_lat % 2:  # the equator ring is its own antipodal ring
            eq = bits[self.m_lat // 2].reshape(2, -1)
            even = even and (eq[0] == eq[1]).all()
        if even and bits.min() > _NEG_ZERO_BITS:
            return self.m_lat - self.m_lat // 2
        return self.m_lat

    def _mirror(self, stack, odd=False):
        """Fill the northern rings of stack (..., m_lat, m_lon) in place from
        the southern ones by the antipodal map; negated, as 0.0 - x, when
        odd."""
        south, north = self._antipodes(stack)
        if odd:
            np.subtract(0.0, south, out=north)
        else:
            north[...] = south

    # -- frame operators as per-ring taps ------------------------------------

    def operator_matrices(self):
        """Sparse CSR versions of the derivative operators, built per call.

        Returns a dict with keys 'lon1', 'lon2' (n=1: on m_theta nodes;
        n=2: on all nodes, acting along longitude) and for n=2 also 'lat1',
        'lat2'.  These reproduce the kernel applications up to summation
        order; the latitude ones are built from the kernels' own tap
        arrays.  No solve uses them: they are a reference for the kernels
        and the frame taps, and they need scipy, which cmkit's test extra
        installs.
        """
        from scipy import sparse

        def lon_blocks(m, copies):
            # the circulant kernel rows, repeated on `copies` diagonal blocks
            offset = (np.arange(m) - np.arange(m)[:, None]) % m
            cols = (np.arange(copies, dtype=np.int32)[:, None] * m
                    + np.tile(np.arange(m, dtype=np.int32), m)).ravel()
            indptr = np.arange(0, copies * m * m + 1, m)
            return tuple(
                sparse.csr_matrix((np.tile(row[offset].ravel(), copies), cols.copy(), indptr),
                                  shape=(copies * m, copies * m))
                for row in self._lon_rows)

        if self.n == 1:
            lon1, lon2 = lon_blocks(self.m_theta, 1)
            return {"lon1": lon1, "lon2": lon2}

        M, L = self.shape
        N = self.node_count
        lon1, lon2 = lon_blocks(L, M)
        T = self._lat_src.shape[0]
        rows = np.tile(np.arange(N), T + 1)
        cols = np.concatenate([self._lat_src.ravel(), np.arange(N)])

        def lat_matrix(weights):
            # a pad tap adds its zero weight to the self term
            selfw = np.zeros((M, 1))
            for w in weights:
                selfw -= w
            vals = np.broadcast_to(np.concatenate([weights, selfw[None]]), (T + 1, M, L))
            return sparse.csr_matrix((vals.ravel(), (rows, cols)), shape=(N, N))

        return {
            "lon1": lon1, "lon2": lon2,
            "lat1": lat_matrix(self._lat_w1),
            "lat2": lat_matrix(self._lat_w2),
        }

    def frame_taps(self):
        """The frame operators of the linearization as per-ring taps, built once.

        'hess11', 'hess12', 'hess22' map phi to the frame components of
        hess(phi) + phi*I, 'grad1', 'grad2' to the frame gradient, as in
        hessian_field (n=1: 'hess11', 'grad1').  They commute with longitude
        shifts, so a cached dict of the first row of each ring is returned:
        arrays (2*RING_REACH + 1, m_lat, m_lon) ((1, 1, m_theta) for n=1)
        whose entry [o + RING_REACH, j, d] weighs node (j + o, i + d) in the
        row of node (j, i), zero where ring j + o does not exist.
        """
        if self._frame_taps is not None:
            return self._frame_taps
        row1, row2 = self._lon_rows
        if self.n == 1:
            self._frame_taps = {"hess11": (row2 + np.eye(1, row2.size))[None],
                                "grad1": row1[None, None]}
            return self._frame_taps
        R = RING_REACH
        M, L = self.shape
        invcos = self.invcos[None, :, None]
        tanlat = self.tanlat[:, None]
        ring, lon = np.divmod(self._lat_src[:, :, 0], L)
        lat1, hess11 = np.zeros((2, 2 * R + 1, M, L))
        for taps, w in ((lat1, self._lat_w1[..., 0]), (hess11, self._lat_w2[..., 0])):
            np.add.at(taps, (ring - np.arange(M) + R, np.arange(M), lon), w)
            taps[R, :, 0] -= w.sum(axis=0)  # the self term
        hess11[R, :, 0] += 1.0
        # lat1 after lon1: a latitude tap at longitude offset e carries the
        # lon1 row shifted by e (e is 0, or m_lon/2 across a pole)
        hess12 = sum(lat1[:, :, e, None] * np.roll(row1, e)
                     for e in np.flatnonzero(lat1.any(axis=(0, 1))))
        hess12[R] += tanlat * row1
        hess12 *= invcos
        hess22 = -tanlat * lat1
        hess22[R] += invcos[0] ** 2 * row2
        hess22[R, :, 0] += 1.0
        grad2 = np.zeros_like(lat1)
        grad2[R] = invcos[0] * row1
        self._frame_taps = {"hess11": hess11, "hess12": hess12, "hess22": hess22,
                            "grad1": lat1, "grad2": grad2}
        return self._frame_taps

    def ring_grid(self):
        """The m_lat x RING_LON grid on this grid's latitudes (n=2), built once.

        Its latitude stencils are bitwise this grid's, and on a field
        constant on every ring the longitude kernels give exact zeros, so
        hessian_field of such a field is, node by node, that of its
        restriction to the ring grid.
        """
        if self._ring_grid is None:
            self._ring_grid = build_grid(2, m_lat=self.m_lat, m_lon=RING_LON)
        return self._ring_grid

    def coarse_grid(self):
        """The coarsest grid of the halving chain (m_lat / 2^j, m_lon / 2^j)
        with at least COARSE_LAT rings and an even m_lon of at least
        RING_LON (n=2), built once; None when this grid has no coarser
        member (m_lat < 2 COARSE_LAT, odd m_lat, odd m_lon / 2).  Its
        longitudes are every 2^j-th of this grid's.
        """
        M, L = self.shape
        while M % 2 == 0 and M // 2 >= COARSE_LAT and L % 4 == 0 and L // 2 >= RING_LON:
            M, L = M // 2, L // 2
        if (M, L) == self.shape:
            return None
        if self._coarse_grid is None:
            self._coarse_grid = build_grid(2, m_lat=M, m_lon=L)
        return self._coarse_grid

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
    b22 and g2 for n=2.  The (N,n) gradient grad is derived from the
    components on access.
    """

    def __init__(self, grid, lam, components):
        self.grid = grid
        self.lam = lam
        self.components = components

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
    One grid.lon_derivs and one grid.lat_derivs pass give both orders of
    each; h_lt is the first order of grid.lat_derivs(h_t).

    An exactly even field (grid._hemisphere_rings) is computed on its first
    ceil(m_lat / 2) rings, the southern ones and the equator ring of odd
    m_lat, and grid._mirror fills the northern rings: lambda, b11, b22 and
    g2 are copied, b12 and g1 = h_l negated.  That is bit for bit the
    whole-grid computation.  A northern ring reads the mirrored values of
    its antipodal ring through taps of equal weight (longitude, second
    order in latitude) or negated weight (first order in latitude, and
    tan(lat)), so each of its terms is the southern one or its exact
    negation.  A sum of negated terms is the negated sum, except that a
    zero sum is +0.0 on both rings, which is what 0.0 - x gives: every
    latitude stencil row has weights of both signs, and neither the field
    nor h_t holds -0.0, so the terms of a zero sum are never all -0.0.  In
    b22, tan(lat) h_l is the same on both rings up to the sign of a zero,
    which h_tt / cos^2(lat), never -0.0, absorbs.  lon_derivs runs on
    RING_REACH more rings than are computed: the taps of h_lt on the last
    ones read them.
    """
    g = h.grid
    if g.n == 1:
        h_t, h_tt = g.lon_derivs(h.values)
        b11 = h_tt + h.values
        return HessianField(g, b11[:, None], {"b11": b11, "g1": h_t})

    F = h.field
    M, L = g.shape
    H = g._hemisphere_rings(F)
    south = F[:H]
    h_l, h_ll = g.lat_derivs(F, rings=H)
    # the taps of h_lt on ring H-1 read h_t up to ring H-1+RING_REACH
    h_t, h_tt = g.lon_derivs(F[:H + RING_REACH])
    h_lt, = g.lat_derivs(h_t, rings=H, order=1)
    h_t, h_tt = h_t[:H], h_tt[:H]

    # the southern rings are computed into the full arrays, in place:
    # b11, b22, g2 and the eigenvalues (even), then b12 and g1 (odd)
    out = np.empty((7, M, L))
    b11, b22, g2, lo, hi, b12, g1 = out[:, :H]
    invcos = g.invcos[:H, None]
    tanlat = g.tanlat[:H, None]
    np.add(h_ll, south, out=b11)
    np.multiply(invcos, h_lt + tanlat * h_t, out=b12)
    np.add(invcos ** 2 * h_tt - tanlat * h_l, south, out=b22)
    np.multiply(invcos, h_t, out=g2)
    g1[...] = h_l

    mid = 0.5 * (b11 + b22)
    rad = np.hypot(0.5 * (b11 - b22), b12)
    np.subtract(mid, rad, out=lo)
    np.add(mid, rad, out=hi)
    if H < M:
        g._mirror(out[:5])
        g._mirror(out[5:], odd=True)
    b11, b22, g2, _, _, b12, g1 = out
    # lam[:, 0] and lam[:, 1] are the contiguous rows lo and hi
    return HessianField(g, out[3:5].reshape(2, -1).T,
                        {"b11": b11, "b12": b12, "b22": b22, "g1": g1, "g2": g2})


def laplace_beltrami(h):
    """Laplace-Beltrami of h, defined as trace(hessian_field(h)) - n*h."""
    hf = hessian_field(h)
    return GridFunction(h.grid, hf.trace() - h.grid.n * h.values)


def integrate_values(grid, values):
    """Quadrature sum(weights * values), accumulated deterministically."""
    return math.fsum(grid.weights * values)


def integrate(gf):
    """integrate_values of a GridFunction on its own grid."""
    return integrate_values(gf.grid, gf.values)


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


def interpolate(gf, grid):
    """gf interpolated to another sphere grid, as a bitwise even GridFunction.

    Longitude first: trigonometric interpolation by a zero-padded rfft
    going up, the Nyquist term split between +m and -m, and sampling
    going down, which needs the target's longitudes among the source's.
    Then latitude: INTERP_POINTS-point Lagrange weights (fd_weights) along
    the double-Fourier-sphere meridian, which continues across each pole
    through the longitude theta + pi, as the latitude stencils do.  Both
    steps act in difference form, on the deviation from one source value,
    so a constant maps to itself bitwise; the output goes through
    even_project.  Both grids need n=2 and at least COARSE_LAT rings.
    """
    src = gf.grid
    for g in (src, grid):
        if g.n != 2 or g.m_lat < COARSE_LAT:
            raise ValueError(f"interpolate needs n=2 grids with m_lat >= {COARSE_LAT}, got {g!r}")
    L0, L = src.m_lon, grid.m_lon
    if L < L0 and L0 % L:
        raise ValueError(f"cannot sample {L} longitudes from {L0}: they are not nested")
    F = gf.field
    if L > L0:
        spec = np.fft.rfft(F - F[:, :1], axis=1) * (L / L0)
        spec[:, L0 // 2] *= 0.5
        F = F[:, :1] + np.fft.irfft(spec, n=L, axis=1)
    elif L < L0:
        F = F[:, ::L0 // L]

    # the meridian: half a stencil of rings past either pole, read at theta + pi
    P = INTERP_POINTS // 2
    lat = src.lats
    flip = np.roll(F, L // 2, axis=1)
    x = np.concatenate([-np.pi - lat[P - 1::-1], lat, np.pi - lat[:-P - 1:-1]])
    rows = np.concatenate([flip[P - 1::-1], F, flip[:-P - 1:-1]])
    # nodes s - P + 1 .. s + P around the bracket x[s] <= z < x[s + 1]
    first = np.searchsorted(x, grid.lats, side="right") - P
    taps = first[:, None] + np.arange(INTERP_POINTS)
    w = np.array([fd_weights(z, x[t], 0)[0] for z, t in zip(grid.lats, taps)])
    base = rows[first + P - 1]
    out = base + np.einsum("jt,jtl->jl", w, rows[taps] - base[:, None])
    return even_project(GridFunction(grid, out))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_rows(template, rows):
    """rows (a 2-d array) formatted by the %-template, one line per row,
    in a single % call."""
    return ((template + "\n") * len(rows)) % tuple(rows.ravel().tolist())


def _finite(obj):
    """obj with every non-finite float, in dicts and lists too, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def json_text(obj, indent=None):
    """obj as strict JSON (RFC 8259), the one encoding of every JSON and
    JSON Lines file and of every stdout line: a non-finite float, which
    the format cannot hold, is written as null."""
    return json.dumps(_finite(obj), indent=indent, allow_nan=False)


def write_grid_function(gf, path):
    """CSV with header lat,lon,value (n=2) or theta,value (n=1), node order,
    every number as %.17g.  On n=2 each latitude is formatted once per
    ring and each longitude once per meridian into one template of the
    lines, which one % call fills with the values; the bytes are those of
    formatting all three numbers of every node."""
    g = gf.grid
    with open(path, "w") as fh:
        if g.n == 1:
            fh.write("theta,value\n")
            fh.write(format_rows("%.17g,%.17g", np.column_stack([g.thetas, gf.values])))
            return
        cells = [",%.17g,%%.17g\n" % lon for lon in g.lons.tolist()]
        rings = ["%.17g" % lat for lat in g.lats.tolist()]
        fh.write("lat,lon,value\n")
        fh.write("".join(lat + lat.join(cells) for lat in rings) % tuple(gf.values.tolist()))


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
