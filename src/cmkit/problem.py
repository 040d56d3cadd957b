"""
Problem data and the discrete equation.

The equation solved is, node-wise on the grid,

    sigma_k(b(h)) = f_t * h^(p-1) * rho^(k+1-q),      rho^2 = h^2 + |grad h|^2,

with b(h) = hessian_field(h) and f_t the continuation data interpolating
from the constant binom(n, k) at t = 0 to the user's f at t = 1 along

    f_t = [ (1-t) * binom(n,k)^(-1/(k+p-1)) + t * f^(-1/(k+p-1)) ]^(-(k+p-1)).

evaluate() computes both sides and their difference, the residual, once
per iterate into one Evaluation, which every reader of the iterate takes,
from the corrector to the report, the diagnostics and manufactured data;
assemble_jacobian() reads its linearization in h from it, a matrix-free
LinearizedOperator on every grid.  ring_taps() gives the ring-averaged
linearization, whose infinity norm scales the Newton step, ring_blocks()
its longitude-mode blocks and parity_fold() their parts symmetric and
antisymmetric about the equator: the Newton preconditioner factors them,
and at h = 1 they give diagnostics.l0_spectrum the exact even spectrum.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, DomainError, UnsupportedParameterError
from .sphere import GridFunction, HessianField, hessian_field, odd_defect
from .symfunc import _prefix_sigmas, in_gamma_k

# exponent ranges with a solvability guarantee; outside them the solver
# still runs but flags the spec
RANGE_NOTE = "exponents outside 1 < p < q <= k+1; continuation may fail"
EQUAL_EXPONENT_NOTE = ("p = q: constant data admits a one-parameter family "
                       "of dilated solutions; the target radius is undefined")


@dataclass
class ProblemSpec:
    """Equation data and solver controls.

    n, k: sphere dimension and Hessian order (1 <= k <= n);
    p, q: the two exponents, finite; f: positive even GridFunction;
    the rest are Newton / continuation controls, whose defaults are
    RunConfig's too, with the tolerance tol_newton and the step sizes
    dt0, dt_min and dt_max positive and finite, dt_min <= dt0 <= dt_max,
    and max_newton at least 1.
    """

    n: int
    k: int
    p: float
    q: float
    f: GridFunction
    tol_newton: float = 1e-10
    max_newton: int = 30
    dt0: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.5

    def __post_init__(self):
        if self.f.grid.n != self.n:
            raise ValueError(
                f"f lives on a dimension-{self.f.grid.n} grid, spec has n={self.n}")
        if not (1 <= self.k <= self.n):
            raise UnsupportedParameterError(
                f"need 1 <= k <= n, got k={self.k}, n={self.n}", ("k",))
        for name in ("p", "q"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UnsupportedParameterError(f"{name} must be finite, got {value}", (name,))
        # a zero step size stalls the continuation, a negative one leaves
        # [0, 1]; a tolerance that is not positive and finite cannot be met
        for name in ("tol_newton", "dt0", "dt_min", "dt_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise UnsupportedParameterError(
                    f"{name} must be positive and finite, got {value}", (name,))
        if not (self.dt_min <= self.dt0 <= self.dt_max):
            raise UnsupportedParameterError(
                f"need dt_min <= dt0 <= dt_max, got {self.dt_min}, {self.dt0}, "
                f"{self.dt_max}", ("dt0", "dt_min", "dt_max"))
        if self.max_newton < 1:
            raise UnsupportedParameterError(
                f"max_newton must be at least 1, got {self.max_newton}", ("max_newton",))
        if self.k + self.p - 1 <= 0:
            raise UnsupportedParameterError(
                f"k+p-1 = {self.k + self.p - 1:g} <= 0: the data homotopy "
                "exponent -1/(k+p-1) is undefined", ("p",))
        fv = self.f.values
        if np.any(fv <= 0):
            i = int(np.argmin(fv))
            raise DomainError("f must be positive everywhere",
                              node=i, value=float(fv[i]))
        defect = odd_defect(self.f)
        if defect > 1e-12:
            raise UnsupportedParameterError(
                f"f must be even: antipodal defect {defect:.3e} exceeds 1e-12", ("f",))

    @property
    def grid(self):
        return self.f.grid

    @property
    def binom_nk(self):
        return float(math.comb(self.n, self.k))

    def exponents_in_range(self):
        return 1 < self.p < self.q <= self.k + 1

    @property
    def warnings(self):
        """Notes on exponents without a solvability guarantee."""
        if self.p == self.q:
            return [EQUAL_EXPONENT_NOTE]
        return [] if self.exponents_in_range() else [RANGE_NOTE]


# ---------------------------------------------------------------------------
# continuation data
# ---------------------------------------------------------------------------

def homotopy_f(spec, t):
    """The interpolated data f_t; exactly constant at t=0, exactly f at t=1."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    g = spec.grid
    if t == 0.0:
        return GridFunction(g, np.full(g.node_count, spec.binom_nk))
    if t == 1.0:
        return GridFunction(g, spec.f.values.copy())
    e = -1.0 / (spec.k + spec.p - 1)
    base = spec.binom_nk ** e
    mix = (1.0 - t) * base + t * spec.f.values ** e
    return GridFunction(g, mix ** (1.0 / e))


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

@dataclass
class Evaluation:
    """Iterate h at continuation parameter t, evaluated once: hf =
    hessian_field(h), the per-node Gamma_k margin (min over i <= k of
    sigma_i), sigma_k of b(h), rho2 = h^2 + |grad h|^2, the right side rhs
    = f_t h^(p-1) rho^(k+1-q), the residual sigma_k - rhs, its max norm
    linf and, summed on first read, its quadrature-weighted 2-norm l2,
    whose squares cannot overflow."""

    h: GridFunction
    t: float
    hf: HessianField
    margin: np.ndarray
    sigma_k: np.ndarray
    rho2: np.ndarray
    rhs: np.ndarray
    residual: GridFunction
    linf: float

    @cached_property
    def l2(self):
        res = self.residual
        # squares of residuals scaled into [0, 2) by a power of two cannot
        # overflow, and the scaling is exact: where the unscaled squares
        # neither overflowed nor underflowed, l2 keeps its bits
        s = math.ldexp(0.5, math.frexp(self.linf)[1])
        return s * math.sqrt(math.fsum(res.grid.weights * (res.values / s) ** 2))


def evaluate(spec, h, t):
    """The Evaluation of h > 0 at t: one hessian_field, and one pass of the
    elementary symmetric functions for the margin and sigma_k alike."""
    hv = h.values
    if np.any(hv <= 0):
        i = int(np.argmin(hv))
        raise DomainError("h must be positive everywhere", node=i, value=float(hv[i]))
    hf = hessian_field(h)
    e = _prefix_sigmas(hf.lam, spec.k)
    sk = e[:, spec.k].copy()  # a view would keep all k+1 columns alive
    rho2 = hv ** 2 + hf.grad_norm_sq()
    rhs = homotopy_f(spec, t).values * hv ** (spec.p - 1.0) \
        * rho2 ** (0.5 * (spec.k + 1.0 - spec.q))
    res = sk - rhs
    return Evaluation(h, t, hf, e[:, 1:].min(axis=1), sk, rho2, rhs,
                      GridFunction(spec.grid, res), float(np.max(np.abs(res))))


def residual(spec, h, t):
    """evaluate(spec, h, t), whose residual and linf are the node-wise
    equation residual at t and its max norm."""
    return evaluate(spec, h, t)


def admissibility_margin(spec, h):
    """Per-node Gamma_k margin of b(h): min over i <= k of sigma_i."""
    return in_gamma_k(hessian_field(h).lam, spec.k)[1]


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def ellipticity_weights(hf, k):
    """sigma_k^{ij} = d sigma_k / d b_ij at b(h), as per-node weights.

    Keys name the frame component of hess(phi) + phi*I each weight scales
    (hess11, hess12, hess22: hessian_field's b11, b12, b22).  The
    off-diagonal weight is doubled, as it multiplies both b12 and b21, and
    left out where it vanishes identically: sigma_1^{ij} is the identity,
    sigma_2^{ij} for n = 2 the adjugate of b.
    """
    N = hf.grid.node_count
    if hf.grid.n == 1:
        return {"hess11": np.ones(N)}
    if k == 1:
        return {"hess11": np.ones(N), "hess22": np.ones(N)}
    c = hf.components
    return {"hess11": c["b22"].ravel(), "hess12": -2.0 * c["b12"].ravel(),
            "hess22": c["b11"].ravel()}


def linearization_weights(spec, ev):
    """Per-node coefficients of the linearization at the Evaluation ev.

    The row scale of each frame field of phi it multiplies: sigma_k^{ij}
    from ellipticity_weights, 'grad1', 'grad2' of the frame gradient (g1,
    g2 in hessian_field), and 'diag', the zeroth-order term.  The right
    side's derivatives in h and in rho^2 are c1 = (p-1) rhs / h and c2 =
    (k+1-q) rhs / rho^2, from ev's own rhs and rho2.
    """
    hv = ev.h.values
    c1 = (spec.p - 1.0) * ev.rhs / hv
    c2 = (spec.k + 1.0 - spec.q) * ev.rhs / ev.rho2

    weights = ellipticity_weights(ev.hf, spec.k)
    for i in range(spec.grid.n):
        weights[f"grad{i + 1}"] = -c2 * ev.hf.components[f"g{i + 1}"].ravel()
    weights["diag"] = -(c1 + c2 * hv)
    return weights


def _stencil_coefficients(grid, weights):
    """Weights keyed as linearization_weights, per node in grid shape or
    per ring as (rings, 1), a missing key zero, as coefficients of the
    stencil_taps operators, in J.v's order.  The one home of the frame
    formulas (l, t = latitude, longitude; s = tan(lat), c = 1/cos(lat)):
        hess11 = phi_ll + phi, hess12 = c (phi_lt + s phi_t), grad1 = phi_l,
        hess22 = c^2 phi_tt - s phi_l + phi, grad2 = c phi_t;
    on the circle hess11 = phi_tt + phi and grad1 = phi_t.
    """
    zero = np.zeros_like(next(iter(weights.values())))
    w = dict.fromkeys(("diag", "hess11", "hess12", "hess22", "grad1", "grad2"), zero) | weights
    if grid.n == 1:
        return {"identity": w["diag"] + w["hess11"], "lon2": w["hess11"], "lon1": w["grad1"]}
    invcos, tanlat = grid.invcos[:, None], grid.tanlat[:, None]
    w12 = invcos * w["hess12"]
    return {"identity": w["diag"] + w["hess11"] + w["hess22"], "lat2": w["hess11"],
            "lat1": w["grad1"] - tanlat * w["hess22"], "lon2": invcos ** 2 * w["hess22"],
            "lon1": tanlat * w12 + invcos * w["grad2"], "lat1_lon1": w12}


class LinearizedOperator:
    """The linearization at one iterate: the grid and its linearization_weights.

    J.v is one pass over the kernels of v with the nonzero coefficients of
    _stencil_coefficients; its longitude derivatives use rfft/irfft with
    the symbols of the longitude kernels.  toarray() comes from the same
    coefficients over the stencil taps, ring by ring.  nnz counts the
    weights held, N per key, not the nonzeros of the matrix, which is
    never formed; the scale of a Newton step is the infinity norm of its
    ring average, ring_taps().
    """

    def __init__(self, grid, weights):
        self.grid = grid
        self.weights = weights
        self.shape = (grid.node_count, grid.node_count)
        self.nnz = sum(w.size for w in weights.values())

    @cached_property
    def _coef(self):
        # the nonzero stencil coefficients; the longitude orders J.v reads, and their symbols
        g = self.grid
        w = {key: val.reshape(g.shape) for key, val in self.weights.items()}
        coef = {key: c for key, c in _stencil_coefficients(g, w).items() if np.count_nonzero(c)}
        lon = ("lon1", "lon2") if {"lon1", "lat1_lon1"} & coef.keys() else ("lon2",)
        return coef, lon, g._lon_syms[-len(lon):].reshape(len(lon), *[1] * (g.n - 1), -1)

    def dot(self, v):
        g = self.grid
        coef, lon, syms = self._coef
        F = v.reshape(g.shape)
        d = dict(zip(lon, np.fft.irfft(np.fft.rfft(F) * syms, n=F.shape[-1])), identity=F)
        if g.n == 2:
            d["lat1"], d["lat2"] = g.lat_derivs(F)
        if "lat1_lon1" in coef:
            d["lat1_lon1"], = g.lat_derivs(d["lon1"], order=1)
        first, *rest = coef
        out = coef[first] * d[first]
        for key in rest:
            out += coef[key] * d[key]
        return out.ravel()

    def _ring_rows(self):
        # per ring j: P[i, c] weighs node (j + o, i + d) in the row of node
        # (j, i), (o + R, d) = divmod(cols[c], m_lon); all-zero columns left out
        taps = self.grid.stencil_taps()
        M, L = taps["identity"].shape[1:]
        # W[j] (L, K) holds the coefficients of ring j and T[j] (K, width * L) its taps
        coef = self._coef[0]
        W = np.stack([np.broadcast_to(coef.get(key, 0.0), (M, L)) for key in taps], axis=2)
        T = self.grid._tap_stack
        for j in range(M):
            cols = np.flatnonzero(T[j].any(axis=0))
            yield j, cols, W[j] @ T[j][:, cols]

    def toarray(self):
        width, M, L = self.grid.stencil_taps()["identity"].shape
        J = np.zeros((M, L, M, L))
        i = np.arange(L)[:, None]
        for j, cols, P in self._ring_rows():
            o, d = np.divmod(cols, L)
            J[j, i, j + o - width // 2, (i + d) % L] = P
        return J.reshape(M * L, M * L)


def assemble_jacobian(spec, ev):
    """The linearization at the Evaluation ev of (h, t), over flat node values.

    phi -> sigma_k^{ij} (hess phi + phi I)_ij
           - f_t [ (p-1) h^(p-2) rho^(k+1-q) phi
                   + (k+1-q) h^(p-1) rho^(k-1-q) (h phi + <grad h, grad phi>) ]

    Returned as a LinearizedOperator of linearization_weights(spec, ev),
    which newton.solve_linear solves by preconditioned GMRES; its
    toarray() is the dense matrix.  Requires b(h) in Gamma_k at every
    node (ev.margin > 0) so the sigma_k^{ij} weights carry the right
    sign, and finite weights.
    """
    if not np.all(ev.margin > 0.0):
        i = int(np.argmin(ev.margin))
        raise AdmissibilityError("b(h) leaves Gamma_k", node=i, margin=float(ev.margin[i]))

    weights = linearization_weights(spec, ev)
    if not all(np.all(np.isfinite(w)) for w in weights.values()):
        raise ValueError("Jacobian has non-finite entries")
    return LinearizedOperator(spec.grid, weights)


def ring_taps(grid, weights):
    """The ring-averaged linearization, one row per ring.

    weights are the linearization_weights at some (h, t) on grid.  With
    every weight replaced by its mean over each ring (the circle has one)
    the operator commutes with longitude shifts; the row of node (j, 0)
    of each ring, from the stencil coefficients of those means, is
    returned in the layout of SphereGrid.stencil_taps(), (width, M, L).
    It is the mean of its ring's rows of J, aligned by the shift, so its
    absolute sum is at most |J|_inf, and equal to it when h and f_t are
    axisymmetric: the weights are then constant along rings.
    """
    taps = grid.stencil_taps()
    width, M, L = taps["identity"].shape
    means = np.stack(list(weights.values())).reshape(len(weights), M, -1).mean(axis=2)
    coef = _stencil_coefficients(grid, dict(zip(weights, means[:, :, None])))
    C = np.concatenate([coef[key] for key in taps], axis=1)[:, None]
    return (C @ grid._tap_stack).reshape(M, width, L).transpose(1, 0, 2)


def ring_blocks(taps):
    """The longitude-mode blocks of taps = ring_taps(...), their conjugate
    rfft along longitude: [o + width // 2, j, m] couples ring j to ring
    j + o in mode m (on the circle, [0, 0, m] is the symbol of mode m)."""
    return np.conj(np.fft.rfft(taps, axis=-1))


def parity_fold(blocks):
    """Split every mode's block into its symmetric and antisymmetric part.

    blocks is the (width, M, K) output of ring_blocks.  With R the
    reflection of ring j to ring M-1-j, (A + R A R) / 2 maps vectors with
    c_(M-1-j) = +-c_j into themselves; on the first H = ceil(M/2) rings
    it acts as a banded block whose couplings past the fold land on the
    mirrored rings, with sign +-.  Returns those blocks in the same
    layout, (width, H, 2K): the symmetric parts of the K modes, then the
    antisymmetric parts.  On odd M the antisymmetric part has c = 0 on
    the middle ring, which gets an identity row.  For even iterates and
    data A = R A R up to rounding, so this is A on each part.
    """
    width, M, K = blocks.shape
    R = width // 2
    H = (M + 1) // 2
    top = 0.5 * (blocks[:, :H] + blocks[::-1, ::-1, :][:, :H])
    out = np.stack((top, top), axis=2)  # (width, H, 2, K)
    # coupling [R + o, j] of ring j to ring j + o >= H lands on its mirror,
    # ring M-1-j-o < H, at offset M-1-2j-o from ring j
    reach = np.arange(H)[:, None] + np.arange(-R, R + 1)
    jj, oo = np.nonzero((reach >= H) & (reach < M))
    fold = M - 1 - 2 * jj - oo + 2 * R
    out[oo, jj] = 0.0
    out[fold, jj, 0] += top[oo, jj]
    out[fold, jj, 1] -= top[oo, jj]
    if M % 2:
        mid = H - 1
        out[:, mid, 1] = 0.0
        out[R, mid, 1] = 1.0
        above = np.arange(max(0, mid - R), mid)
        out[R + mid - above, above, 1] = 0.0
    return out.reshape(width, H, 2 * K)


# ---------------------------------------------------------------------------
# data admissibility
# ---------------------------------------------------------------------------

def validate_f1(spec):
    """Check spherical convexity of g = f^(-1/(k+p-1)).

    Sufficient condition on the data for the a-priori estimates behind the
    continuation to hold; advisory only.  Returns {satisfied, worst_margin,
    worst_node} where the margin is the minimum eigenvalue of b(g) over all
    nodes and satisfied means margin >= -1e-8.
    """
    e = -1.0 / (spec.k + spec.p - 1)
    gfun = GridFunction(spec.grid, spec.f.values ** e)
    lam = hessian_field(gfun).lam
    worst = int(np.argmin(lam[:, 0]))
    margin = float(lam[worst, 0])
    return {"satisfied": margin >= -1e-8,
            "worst_margin": margin,
            "worst_node": worst}
