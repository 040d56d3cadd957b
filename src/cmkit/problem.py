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
LinearizedOperator on every grid.  ring_blocks() gives the longitude-mode
blocks of the ring-averaged linearization: the Newton preconditioner,
and at h = 1 the exact operator.
"""

import math
from dataclasses import dataclass, field
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
    warnings: list = field(default_factory=list)

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
        if self.p == self.q:
            self.warnings.append(EQUAL_EXPONENT_NOTE)
        elif not self.exponents_in_range():
            self.warnings.append(RANGE_NOTE)

    @property
    def grid(self):
        return self.f.grid

    @property
    def binom_nk(self):
        return float(math.comb(self.n, self.k))

    def exponents_in_range(self):
        return 1 < self.p < self.q <= self.k + 1


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
    linf and, summed on first read, its quadrature-weighted 2-norm l2."""

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
        return math.sqrt(math.fsum(res.grid.weights * res.values ** 2))


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

    Keys name the SphereGrid.frame_taps() entry each weight scales
    (hess11, hess12, hess22).  The off-diagonal weight is doubled, as it
    multiplies both b12 and b21, and left out where it vanishes
    identically: sigma_1^{ij} is the identity, sigma_2^{ij} for n = 2 the
    adjugate of b.
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

    The row scale of each frame operator, keyed as in
    SphereGrid.frame_taps() (sigma_k^{ij} from ellipticity_weights
    and the two gradient weights), and 'diag', the zeroth-order term.
    The right side's derivatives in h and in rho^2 are c1 = (p-1) rhs / h
    and c2 = (k+1-q) rhs / rho^2, from ev's own rhs and rho2.
    """
    hv = ev.h.values
    c1 = (spec.p - 1.0) * ev.rhs / hv
    c2 = (spec.k + 1.0 - spec.q) * ev.rhs / ev.rho2

    weights = ellipticity_weights(ev.hf, spec.k)
    for i in range(spec.grid.n):
        weights[f"grad{i + 1}"] = -c2 * ev.hf.components[f"g{i + 1}"].ravel()
    weights["diag"] = -(c1 + c2 * hv)
    return weights


class LinearizedOperator:
    """The linearization at one iterate: the grid and its linearization_weights.

    J.v (n = 2) is one pass of the frame fields of v, as in hessian_field,
    with the weights folded in; its longitude derivatives use rfft/irfft
    with the symbols of the longitude kernels, as do both derivatives on
    the circle.  norm_inf() is exact and O(N log m_lon): it sums each
    row's absolute values from the same folded coefficients, the latitude
    taps and the parity of the two longitude kernel rows.  toarray() comes
    from the frame taps, ring by ring.  nnz counts the weights held, N
    per key, not the nonzeros of the matrix, which is never formed.
    """

    def __init__(self, grid, weights):
        self.grid = grid
        self.weights = weights
        self.shape = (grid.node_count, grid.node_count)
        self.nnz = sum(w.size for w in weights.values())

    @cached_property
    def _coef(self):
        # of v, lat2 v, lat1 v, v_tt; then of lat1 v_t, v_t (0 if axisymmetric)
        g = self.grid
        w = {key: val.reshape(g.shape) for key, val in self.weights.items()}
        invcos, tanlat = g.invcos[:, None], g.tanlat[:, None]
        w12 = invcos * w.get("hess12", 0.0)
        coef_t = (w12, tanlat * w12 + invcos * w["grad2"])
        return ((w["diag"] + w["hess11"] + w["hess22"], w["hess11"],
                 w["grad1"] - tanlat * w["hess22"], invcos ** 2 * w["hess22"]),
                coef_t if any(np.any(c) for c in coef_t) else ())

    def dot(self, v):
        g = self.grid
        if g.n == 1:
            w = self.weights
            d1, d2 = np.fft.irfft(np.fft.rfft(v) * g._lon_syms, n=v.size)
            return (w["diag"] + w["hess11"]) * v + w["hess11"] * d2 + w["grad1"] * d1
        M, L = g.shape
        (c0, c11, c1, ctt), coef_t = self._coef
        F = np.reshape(v, (M, L))
        V = np.fft.rfft(F, axis=1)
        out = c0 * F + c11 * g.lat_d2(F) + c1 * g.lat_d1(F) \
            + ctt * np.fft.irfft(V * g._lon_syms[1], n=L, axis=1)
        if coef_t:
            F_t = np.fft.irfft(V * g._lon_syms[0], n=L, axis=1)
            out += coef_t[1] * F_t
            if "hess12" in self.weights:  # sigma_k^{12} is 0 for k = 1
                out += coef_t[0] * g.lat_d1(F_t)
        return out.ravel()

    __matmul__ = dot

    def _ring_rows(self):
        # per ring j: P[i, c] weighs node (j + o, i + d) in the row of node
        # (j, i), (o + R, d) = divmod(cols[c], m_lon); all-zero columns left out
        taps = dict(self.grid.frame_taps(), diag=np.zeros_like(self.grid.frame_taps()["hess11"]))
        width, M, L = taps["diag"].shape
        taps["diag"][width // 2, :, 0] = 1.0
        keys = [key for key in taps if key in self.weights and self.weights[key].any()]
        # T[j] (K, width * L) holds the taps and W[j] (L, K) the weights of ring j
        T = np.stack([taps[key] for key in keys]).transpose(2, 0, 1, 3).reshape(M, len(keys), -1)
        W = np.stack([self.weights[key].reshape(M, L) for key in keys], axis=2)
        for j in range(M):
            cols = np.flatnonzero(T[j].any(axis=0))
            yield j, cols, W[j] @ T[j][:, cols]

    def _abs_row_sums(self):
        # sum_c |J[r, c]| per node r, from the coefficients of dot.  On its
        # own ring, row (j, i) holds a0 at column (j, i) plus ctt * row2 +
        # bs * row1 read from i on; the grid's sorted kernel ratios sum its
        # columns in pairs (d, m_lon - d).  A latitude tap onto another ring
        # adds a point a plus b * row1, both read from its column.  The tap
        # across the pole, one per pole ring, lands on the node's own ring
        # at shift m_lon / 2, so those two rings' own columns are summed in
        # full.
        g = self.grid
        row1, row2 = g._lon_rows
        L = row1.size
        half = L // 2
        if g.n == 1:
            w = self.weights
            a0, ctt, bs = w["diag"] + w["hess11"], w["hess11"], w["grad1"]
        else:
            (c0, c11, c1, ctt), coef_t = self._coef
            c12, ct = coef_t or (0.0, 0.0)
            w1, w2 = g._lat_w1, g._lat_w2
            a0 = c0 - c11 * w2.sum(axis=0) - c1 * w1.sum(axis=0)
            bs = ct - c12 * w1.sum(axis=0)
        act, bct = np.abs(ctt), np.abs(bs)
        tau = np.divide(act, bct, where=bct > 0, out=np.full_like(act, np.inf))
        j = np.searchsorted(g._lon_ratio, tau, side="right")
        sums = (np.abs(a0 + ctt * row2[0] + bs * row1[0])
                + np.abs(ctt * row2[half] + bs * row1[half])
                + 2.0 * (act * g._lon_c2_head[j] + bct * g._lon_c1_tail[j]))
        if g.n == 2:
            a = c11 * w2 + c1 * w1
            b = c12 * w1
            taps = np.abs(a + b * row1[0]) + np.abs(b) * np.abs(row1[1:]).sum()
            shift = g._lat_src[:, :, 0] % L
            for t, r in zip(*np.nonzero(shift)):
                own = ctt[r, :, None] * row2 + bs[r, :, None] * row1 \
                    + b[t, r, :, None] * np.roll(row1, shift[t, r])
                own[:, 0] += a0[r]
                own[:, shift[t, r]] += a[t, r]
                sums[r] = np.abs(own).sum(axis=1)
                taps[t, r] = 0.0
            sums += taps.sum(axis=0)
        return sums.ravel()

    def norm_inf(self):
        """The exact infinity norm of J, its largest absolute row sum."""
        return float(self._abs_row_sums().max())

    def toarray(self):
        width, M, L = self.grid.frame_taps()["hess11"].shape
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


def ring_blocks(grid, weights):
    """Longitude-mode blocks of the ring-averaged linearization.

    weights are the linearization_weights at some (h, t) on grid.  Every
    coefficient is replaced by its mean over each ring (the circle has
    one), which makes the operator commute with longitude shifts, and the
    means are combined with the grid's frame_symbols().  Returns bands in
    that layout, (width, M, K): [o + width // 2, j, m] couples ring j to
    ring j + o in longitude mode m.  When h and f_t are axisymmetric
    the coefficients are constant along rings and the blocks are the
    Jacobian's own.
    """
    syms = grid.frame_symbols()
    width, M, _ = syms["hess11"].shape
    means = {key: w.reshape(M, -1).mean(axis=1)[:, None] for key, w in weights.items()}
    blocks = np.zeros_like(syms["hess11"])
    blocks[width // 2] = means.pop("diag")
    for key, mean in means.items():
        blocks += mean * syms[key]
    return blocks


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
