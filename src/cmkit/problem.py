"""
Problem data and the discrete equation.

The equation solved is, node-wise on the grid,

    sigma_k(b(h)) = f_t * h^(p-1) * rho^(k+1-q),      rho^2 = h^2 + |grad h|^2,

with b(h) = hessian_field(h) and f_t the continuation data interpolating
from the constant binom(n, k) at t = 0 to the user's f at t = 1 along

    f_t = [ (1-t) * binom(n,k)^(-1/(k+p-1)) + t * f^(-1/(k+p-1)) ]^(-(k+p-1)).

residual() evaluates the left minus right side, assemble_jacobian() its
linearization in h.  Both share one code path for n = 1 and n = 2.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import AdmissibilityError, DomainError, UnsupportedParameterError
from .sphere import GridFunction, hessian_field, odd_defect
from .symfunc import in_gamma_k, sigma_k

# exponent ranges with a solvability guarantee; outside them the solver
# still runs but flags the spec
RANGE_NOTE = "exponents outside 1 < p < q <= k+1; continuation may fail"
EQUAL_EXPONENT_NOTE = ("p = q: constant data admits a one-parameter family "
                       "of dilated solutions; the target radius is undefined")


@dataclass
class ProblemSpec:
    """Equation data and solver controls.

    n, k: sphere dimension and Hessian order (1 <= k <= n);
    p, q: the two exponents; f: positive even GridFunction;
    the rest are Newton / continuation controls, with the step sizes
    dt0, dt_min and dt_max positive and finite.
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
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        # a zero step size stalls the continuation, a negative one leaves [0, 1]
        for name in ("dt0", "dt_min", "dt_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.k + self.p - 1 <= 0:
            raise UnsupportedParameterError(
                f"k+p-1 = {self.k + self.p - 1:g} <= 0: the data homotopy "
                "exponent -1/(k+p-1) is undefined")
        fv = self.f.values
        if np.any(fv <= 0):
            i = int(np.argmin(fv))
            raise DomainError("f must be positive everywhere",
                              node=i, value=float(fv[i]))
        defect = odd_defect(self.f)
        if defect > 1e-12:
            raise ValueError(
                f"f must be even: antipodal defect {defect:.3e} exceeds 1e-12")
        if self.p == self.q:
            self.warnings.append(EQUAL_EXPONENT_NOTE)
        elif not (1 < self.p < self.q <= self.k + 1):
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
class ResidualReport:
    residual: GridFunction
    linf: float
    l2: float  # quadrature-weighted


def _require_positive(h):
    v = h.values
    if np.any(v <= 0):
        i = int(np.argmin(v))
        raise DomainError("h must be positive everywhere",
                          node=i, value=float(v[i]))


def _rhs_fields(spec, h, hf, ft):
    """f_t * h^(p-1) * rho^(k+1-q) and the shared intermediate powers."""
    hv = h.values
    rho2 = hv ** 2 + hf.grad_norm_sq()
    hp1 = hv ** (spec.p - 1.0)
    rho_pow = rho2 ** (0.5 * (spec.k + 1.0 - spec.q))
    return ft.values * hp1 * rho_pow, rho2


def residual(spec, h, t):
    """Node-wise equation residual at continuation parameter t."""
    _require_positive(h)
    hf = hessian_field(h)
    ft = homotopy_f(spec, t)
    lhs = sigma_k(hf.lam, spec.k)
    rhs, _ = _rhs_fields(spec, h, hf, ft)
    res = GridFunction(spec.grid, lhs - rhs)
    linf = float(np.max(np.abs(res.values)))
    l2 = math.sqrt(math.fsum(spec.grid.weights * res.values ** 2))
    return ResidualReport(residual=res, linf=linf, l2=l2)


def admissibility_margin(spec, h):
    """Per-node Gamma_k margin of b(h): min over i <= k of sigma_i."""
    hf = hessian_field(h)
    _, margin = in_gamma_k(hf.lam, spec.k)
    return margin


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def ellipticity_weights(hf, k):
    """sigma_k^{ij} = d sigma_k / d b_ij at b(h), as per-node weights.

    Keys name the SphereGrid.frame_operators() entry each weight scales
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


def _scale_rows(w, A):
    """diag(w) @ A for a CSR array, keeping A's sparsity pattern."""
    return sparse.csr_array((A.data * np.repeat(w, np.diff(A.indptr)),
                             A.indices, A.indptr), shape=A.shape)


def assemble_jacobian(spec, h, t):
    """Matrix of the linearization at (h, t), over flat node values.

    phi -> sigma_k^{ij} (hess phi + phi I)_ij
           - f_t [ (p-1) h^(p-2) rho^(k+1-q) phi
                   + (k+1-q) h^(p-1) rho^(k-1-q) (h phi + <grad h, grad phi>) ]

    Assembled from the grid's cached frame operators by row scaling and
    addition.  Returned dense on the circle, whose spectral Jacobian is a
    full matrix, and for N <= 256 nodes; both factor faster with LAPACK
    (one solve on 2 cores, OpenBLAS at 1 thread: 8x16 0.3 ms dense vs
    0.9 ms sparse, 8x32 0.7-1.2 vs 2.0-2.2 ms, 16x16 1.0-1.2 vs 1.3-1.4 ms;
    sparse wins from about 400 nodes, 16x32 4.0 vs 6.0 ms).
    Otherwise CSR: the sphere Jacobian couples each latitude ring only to
    rings at most two steps away, so in node order it is banded and the
    sparse LU keeps that band.  Requires b(h) in Gamma_k at every node so
    the sigma_k^{ij} weights carry the right sign.
    """
    _require_positive(h)
    hf = hessian_field(h)
    ok, margin = in_gamma_k(hf.lam, spec.k)
    if not np.all(ok):
        i = int(np.argmin(margin))
        raise AdmissibilityError(
            "b(h) leaves Gamma_k", node=i, margin=float(margin[i]))

    g = spec.grid
    ops = g.frame_operators()
    ft = homotopy_f(spec, t).values
    hv = h.values
    rho2 = hv ** 2 + hf.grad_norm_sq()
    c1 = ft * (spec.p - 1.0) * hv ** (spec.p - 2.0) \
        * rho2 ** (0.5 * (spec.k + 1.0 - spec.q))
    c2 = ft * (spec.k + 1.0 - spec.q) * hv ** (spec.p - 1.0) \
        * rho2 ** (0.5 * (spec.k - 1.0 - spec.q))

    weights = ellipticity_weights(hf, spec.k)
    for i in range(g.n):
        weights[f"grad{i + 1}"] = -c2 * hf.components[f"g{i + 1}"].ravel()
    J = sparse.diags_array(-(c1 + c2 * hv), format="csr")
    # a fixed order, sparsest operator first, so every sum but the last
    # stays narrow
    for key in ("hess11", "grad1", "grad2", "hess22", "hess12"):
        if key in weights:
            J = J + _scale_rows(weights[key], ops[key])
    if g.n == 1 or g.node_count <= 256:
        return J.toarray()
    return J


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
