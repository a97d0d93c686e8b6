"""Reference computations the tests check chaoslim against, the means to
compare with them, and the exhaustive and Monte Carlo checks the acceptance
criteria run: the chaos rewrites of pinning and the Ising model, the GKS
decoupling and the L^2 growth of f_Omega."""

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy.special import gammaln, roots_jacobi

from chaoslim import pinning
from chaoslim.chaos import Kernel
from chaoslim.errors import DomainError, InputError, NumericError, ResourceError
from chaoslim.ising import LatticeSpinSystem, Rect, _rfim_partition_batch

# the math module with scipy's gammaln in place of lgamma: patched in as a
# module's ``math``, it runs that module's log-Gamma calls through scipy
SCIPY_GAMMA_MATH = SimpleNamespace(**{**vars(math), "lgamma": gammaln})


def value_or_error(f, *args):
    """``f(*args)``, or the message of the NumericError it raises without the
    partial sum the message quotes."""
    try:
        return f(*args)
    except NumericError as err:
        return re.sub(r"partial sum \S+", "partial sum", str(err))


@lru_cache(maxsize=128)
def _rule_01(order: int, upper: float, lower: float):
    """Nodes u and weights w with  int_0^1 g(u) (1-u)^upper u^lower du = sum w g(u).

    ``upper``/``lower`` are the endpoint exponents absorbed into the rule.
    """
    if upper == 0.0 and lower == 0.0:
        x, w = np.polynomial.legendre.leggauss(order)
    else:
        x, w = roots_jacobi(order, upper, lower)
    u = (x + 1.0) / 2.0
    return u, w * 2.0 ** (-(1.0 + upper + lower))


def _chain_eval(level: int, s: np.ndarray, chi: float, order: int) -> np.ndarray:
    """R_level(s) = int_{0<t_1<...<t_level<s} of the level+1 gap factors.

    R_0(s) = s^{-chi}; R_j(s) = int_0^s R_{j-1}(t) (s-t)^{-chi} dt.  After the
    substitution t = s*u both endpoint singularities u^{-chi}, (1-u)^{-chi}
    are absorbed into a Gauss-Jacobi rule; the residual R_{j-1}(s u) u^{chi}
    is mildly regular, so a moderate fixed order converges fast.
    """
    if level == 0:
        return s ** (-chi)
    u, w = _rule_01(order, -chi, -chi)
    inner = _chain_eval(level - 1, s[..., None] * u, chi, order)
    return s ** (1.0 - chi) * ((inner * u**chi) @ w)


def dirichlet_quadrature(
    k: int, chi: float, conditioned: bool = True, order: int = 32
) -> float:
    """Nested Gauss-Jacobi evaluation of the ordered-simplex gap integral.

    Independent of the Gamma closed form ``simplex.dirichlet_closed_form``:
    the k-dimensional integral is evaluated as k nested one-dimensional
    quadratures with the power-law endpoint weights absorbed into each rule.
    Cost grows like order**k.
    """
    if k < 0:
        raise InputError("k must be >= 0")
    if chi >= 1.0 or chi < 0.0:
        raise DomainError("need 0 <= chi < 1")
    if k == 0:
        return 1.0
    if order**k > 20_000_000:
        raise InputError("order**k too large; lower the order or k")
    u, w = _rule_01(order, -chi if conditioned else 0.0, -chi)
    vals = _chain_eval(k - 1, u, chi, order) * u**chi
    return float(vals @ w)


# ---------------------------------------------------------------------------
# chaos rewrites: a partition function as a multilinear polynomial
# ---------------------------------------------------------------------------


def eval_multilinear(kernel: Kernel, values) -> float:
    """Evaluate Psi(x) = sum_I psi(I) prod_{i in I} x_i at the point
    ``values``, a mapping from site to x_i."""
    total = 0.0
    for index_set, coef in kernel.entries.items():
        term = coef
        for i in index_set:
            if i not in values:
                raise InputError(f"no value supplied for site {i}")
            term *= values[i]
        total += term
    return total


def a_n_scale(law: pinning.RenewalLaw, n_steps: int) -> float:
    """The variance normalization a_N of pinning: beta_N at beta_hat = 1,
    1/sqrt(N) or L/N^{alpha-1/2}."""
    return pinning.scale_couplings(law, 1.0, 0.0, n_steps)[0]


def chaos_kernel(law: pinning.RenewalLaw, n_steps: int, mode: str = "conditioned") -> Kernel:
    """Exhaustive polynomial-chaos kernel of pinning over sites {1..N}.

    psi(I) = a_N^{|I|} P(I subset tau | N in tau) (or unconditioned in free
    mode); with zeta_n = (e^{beta omega_n - Lambda + h} - 1)/a_N the expansion
    1 + sum_I psi(I) zeta^I reproduces the partition function exactly.
    Exponential in N, so N is at most 16.
    """
    if n_steps > 16:
        raise ResourceError("exhaustive chaos kernel is limited to N <= 16")
    if mode not in ("conditioned", "free"):
        raise InputError(f"unknown mode {mode!r}")
    u = pinning.renewal_mass(law, n_steps)
    a = a_n_scale(law, n_steps)
    entries = {(): 1.0}
    for mask in range(1, 1 << n_steps):
        sites = tuple(i + 1 for i in range(n_steps) if mask >> i & 1)
        prob = 1.0
        prev = 0
        for s in sites:
            prob *= u[s - prev]
            prev = s
        if mode == "conditioned":
            prob *= u[n_steps - sites[-1]] / u[n_steps]
        entries[sites] = prob * a ** len(sites)
    return Kernel(entries)


def correlation(system: LatticeSpinSystem, sites) -> float:
    """E+[prod_{x in I} sigma_x], one transfer row; I = [] gives 1."""
    interior = system.interior
    down = np.ones((1, system.n_sites))
    down[0, [interior.index((int(i), int(j))) for i, j in sites]] = -1.0
    return float(_rfim_partition_batch(system, np.ones_like(down), down)[0])


def chaos_rewrite(system: LatticeSpinSystem, xi) -> tuple[float, Kernel]:
    """(prod_x cosh(xi_x), kernel I -> E+[sigma^I]) over the site indices.

    Evaluating the kernel at tanh(xi) and multiplying by the prefactor
    reconstructs ``rfim_partition_xi`` exactly.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (system.n_sites,):
        raise InputError("xi must have one entry per interior site")
    n = system.n_sites
    if n > 12:
        raise ResourceError("exhaustive chaos kernel is limited to 12 interior spins")
    # row m carries -1 on the sites of the subset with bitmask m
    down = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    corr = _rfim_partition_batch(system, np.ones_like(down), down)
    entries = {tuple(k for k in range(n) if mask >> k & 1): float(corr[mask])
               for mask in range(1 << n)}
    return float(np.prod(np.cosh(xi))), Kernel(entries)


# ---------------------------------------------------------------------------
# GKS decoupling
# ---------------------------------------------------------------------------


def _closure(sites) -> set:
    """The sites and their nearest-neighbour hull."""
    return {(i + di, j + dj) for i, j in sites
            for di, dj in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))}


def gks_decoupling_check(system: LatticeSpinSystem, subdomains):
    """Verify 0 <= E+[prod sigma_{x_i}] <= prod_i E+_{Omega_i}[sigma_{x_i}].

    ``subdomains`` is a sequence of (sites, marked_site) pairs, each a
    rectangle of sites of the system; their closures Omega_i cup
    boundary(Omega_i) must be pairwise disjoint.  Returns (lhs, rhs, holds).
    """
    closures, marked = [], []
    for sites, x in subdomains:
        i, j = zip(*sites)
        sub = LatticeSpinSystem(range(min(i), max(i) + 1), range(min(j), max(j) + 1))
        x = (int(x[0]), int(x[1]))
        if set(sub.interior) != set(sites):
            raise InputError("subdomain is not a rectangle")
        if not set(sub.interior) <= set(system.interior):
            raise InputError("subdomain is not contained in the system")
        if x not in sub.interior:
            raise InputError("marked site must lie in its subdomain")
        closures.append(_closure(sub.interior))
        marked.append((sub, x))
    for a in range(len(closures)):
        for b in range(a + 1, len(closures)):
            if closures[a] & closures[b]:
                raise InputError("subdomain closures overlap")
    lhs = correlation(system, [x for _, x in marked])
    rhs = 1.0
    for sub, x in marked:
        rhs *= correlation(sub, [x])
    holds = (-1e-12 <= lhs) and (lhs <= rhs + 1e-12)
    return lhs, rhs, holds


# ---------------------------------------------------------------------------
# the continuum singular product f_Omega
# ---------------------------------------------------------------------------


def sample_interior(domain: Rect, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform points of the rectangle, shape (size, 2)."""
    u = rng.random((size, 2))
    return np.stack([domain.x0 + u[:, 0] * (domain.x1 - domain.x0),
                     domain.y0 + u[:, 1] * (domain.y1 - domain.y0)], axis=-1)


def f_omega_sq_batch(samples: np.ndarray, domain: Rect) -> np.ndarray:
    """f_Omega(x_1..x_n)^2 for a batch of point tuples, shape (m, n, 2), where
    f_Omega(I) = prod_i d(x_i, boundary(Omega) cup I \\ {x_i})^{-1/8}."""
    m, n, _ = samples.shape
    d_bnd = np.minimum.reduce([samples[:, :, 0] - domain.x0, domain.x1 - samples[:, :, 0],
                               samples[:, :, 1] - domain.y0, domain.y1 - samples[:, :, 1]])
    if n > 1:
        diff = samples[:, :, None, :] - samples[:, None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        dist[:, np.arange(n), np.arange(n)] = np.inf
        d_bnd = np.minimum(d_bnd, dist.min(axis=2))
    return np.prod(d_bnd ** (-0.25), axis=1)


@dataclass(frozen=True)
class L2RatioEstimate:
    ratio: float
    se: float


def f_omega_l2_ratio(domain: Rect, n: int, mc_samples: int, seed: int) -> L2RatioEstimate:
    """Monte Carlo estimate of ||f||^2_{L2(Omega^n)} / ||f||^2_{L2(Omega^{n-1})}.

    Independent uniform samples for numerator and denominator; the standard
    error combines both by the ratio delta method.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    area = (domain.x1 - domain.x0) * (domain.y1 - domain.y0)

    def norm_sq(m_points: int):
        if m_points == 0:
            return 1.0, 0.0
        pts = sample_interior(domain, rng, mc_samples * m_points).reshape(
            mc_samples, m_points, 2)
        vals = f_omega_sq_batch(pts, domain) * area**m_points
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_samples))

    num, num_se = norm_sq(n)
    den, den_se = norm_sq(n - 1)
    ratio = num / den
    se = ratio * math.sqrt((num_se / num) ** 2 + (den_se / den) ** 2)
    return L2RatioEstimate(ratio, se)
