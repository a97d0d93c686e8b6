"""Disordered pinning model: renewal laws, transfer recursions, kernels,
exact second-moment dynamic programs and the finite-mean lognormal limit.

The partition function reweights a non-terminating renewal process tau by
site energies beta*omega_n - Lambda(beta) + h at its renewal times:

    Z = E[ exp( sum_{n<=N} (beta omega_n - Lambda(beta) + h) 1_{n in tau} ) ]

free, or conditioned on {N in tau}.  Everything discrete here is exact:
the transfer recursion, the renewal mass function, and the pair-renewal
second moment (computed in O(N^2) by factorizing over first common renewal
points rather than by the naive age-pair state space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, zeta

from .chaos import Kernel
from .dists import GAUSSIAN_DISORDER, DisorderLaw
from .errors import (
    ConditioningError,
    DomainError,
    InputError,
    ResourceError,
)

_N_CAP = 200_000
_LATTICE_TOL = 1e-9


def c_alpha(alpha: float) -> float:
    """The renewal-theorem constant alpha*sin(pi*alpha)/pi."""
    return alpha * math.sin(math.pi * alpha) / math.pi


@dataclass(frozen=True)
class RenewalLaw:
    """Inter-arrival law K(n) = P(tau_1 = n), n = 1..n_max, summing to 1.

    ``probs[n]`` stores K(n) with probs[0] = 0.  ``regime`` is either
    ``finite_mean`` or ``alpha`` (tail index in (1/2, 1) with constant
    slowly-varying part ``tail_constant``).
    """

    probs: np.ndarray
    regime: str
    alpha: float | None = None
    tail_constant: float | None = None

    def __post_init__(self):
        k = np.asarray(self.probs, dtype=float)
        if k.ndim != 1 or k.size < 2 or k[0] != 0.0:
            raise InputError("probs must be [0, K(1), ..., K(n_max)]")
        if np.any(k < 0) or abs(k.sum() - 1.0) > 1e-9:
            raise InputError("jump probabilities must be nonnegative and sum to 1")
        support = np.nonzero(k)[0]
        if math.gcd(*(int(s) for s in support)) != 1:
            raise InputError("renewal law must be aperiodic")
        if self.regime not in ("finite_mean", "alpha"):
            raise InputError(f"unknown regime {self.regime!r}")
        if self.regime == "alpha":
            if self.alpha is None or not 0.5 < self.alpha < 1.0:
                raise DomainError("alpha regime requires alpha in (1/2, 1)")
            ratio = k[support] * support.astype(float) ** (1.0 + self.alpha)
            ratio = ratio / self.tail_constant
            if ratio[:-1].size and (ratio[:-1].max() > 10.0 or ratio[:-1].min() < 0.1):
                raise InputError("K(n) n^{1+alpha}/L is not bounded on the stored range")
        k.setflags(write=False)
        object.__setattr__(self, "probs", k)

    @classmethod
    def from_probabilities(cls, probs) -> "RenewalLaw":
        """Finite-mean law from explicit [K(1), K(2), ...]."""
        k = np.concatenate([[0.0], np.asarray(probs, dtype=float)])
        return cls(k, "finite_mean")

    @classmethod
    def heavy_tail(cls, alpha: float, n_max: int) -> "RenewalLaw":
        """K(n) = c / n^{1+alpha} for n < n_max, with the exact tail mass
        sum_{n >= n_max} c n^{-(1+alpha)} folded into the n_max atom."""
        if not 0.5 < alpha < 1.0:
            raise DomainError("alpha must lie in (1/2, 1)")
        if n_max < 2:
            raise InputError("n_max must be >= 2")
        n = np.arange(1, n_max + 1, dtype=float)
        raw = n ** -(1.0 + alpha)
        raw[-1] += float(zeta(1.0 + alpha, n_max + 1))
        c = 1.0 / float(zeta(1.0 + alpha, 1.0))
        k = np.concatenate([[0.0], c * raw])
        return cls(k, "alpha", alpha=alpha, tail_constant=c)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def tail(self, length: int) -> np.ndarray:
        """P(tau_1 > j) for j = 0..length."""
        cdf = np.cumsum(self.probs)
        out = np.empty(length + 1)
        m = min(length, self.n_max)
        out[: m + 1] = 1.0 - cdf[: m + 1]
        out[m + 1 :] = 0.0
        return np.clip(out, 0.0, None)


def _renewal_solve(kernel: np.ndarray, n_steps: int, weights=None) -> np.ndarray:
    """x(0) = 1, x(n) = w(n) sum_{m=1}^{min(n, n_max)} kernel[m] x(n-m).

    ``kernel`` is [0, K(1), ..., K(n_max)] with any constant site weight
    folded in; each row of ``weights`` holds one sample's w(1..n_steps), and
    None means w = 1.  Returns x(0..n_steps), one row per sample.
    """
    rev = np.ascontiguousarray(kernel[:0:-1])  # K(n_max), ..., K(1)
    n_max = rev.size
    # x(n) starts as w(n); time-major, so every step reads and writes
    # contiguous memory
    x = np.ones((n_steps + 1,) + np.shape(weights)[:-1])
    if weights is not None:
        x[1:] = weights.T
    for n in range(1, n_steps + 1):
        m = min(n, n_max)
        x[n] *= rev[n_max - m :] @ x[n - m : n]
    return x.T


def renewal_mass(law: RenewalLaw, n_points: int) -> np.ndarray:
    """u(n) = P(n in tau) for n = 0..n_points, by convolution recursion."""
    if n_points > _N_CAP:
        raise ResourceError(f"N = {n_points} exceeds the cap {_N_CAP}")
    return _renewal_solve(law.probs, n_points)


def _check_tail_range(law: RenewalLaw, n_steps: int) -> None:
    if law.regime == "alpha" and n_steps > law.n_max:
        raise InputError(
            f"N = {n_steps} exceeds the stored tail range n_max = {law.n_max}; "
            "beyond it the folded law no longer has the declared tail index"
        )


def a_n_scale(law: RenewalLaw, n_steps: int) -> float:
    """The variance normalization a_N: 1/sqrt(N), or L/N^{alpha-1/2}."""
    if law.regime == "finite_mean":
        return 1.0 / math.sqrt(n_steps)
    _check_tail_range(law, n_steps)
    return law.tail_constant / n_steps ** (law.alpha - 0.5)


def scale_couplings(law: RenewalLaw, beta_hat: float, h_hat: float, n_steps: int):
    """(beta_N, h_N) for the law's regime."""
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    if law.regime == "finite_mean":
        return beta_hat / math.sqrt(n_steps), h_hat / n_steps
    _check_tail_range(law, n_steps)
    lam = law.tail_constant
    return (
        beta_hat * lam / n_steps ** (law.alpha - 0.5),
        h_hat * lam / n_steps**law.alpha,
    )


def _site_weights(
    omega: np.ndarray, beta: float, h: float, disorder: DisorderLaw
) -> np.ndarray:
    return np.exp(beta * omega - disorder.log_mgf(beta) + h)


def partition_function(
    law: RenewalLaw,
    omega,
    beta: float,
    h: float,
    mode: str = "conditioned",
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
) -> float:
    """Pinning partition function by the transfer recursion.

    z(0) = 1, z(n) = e^{beta omega_n - Lambda(beta) + h} sum_m z(n-m) K(m);
    conditioned mode returns z(N)/u(N), free mode sums z(n) P(tau_1 > N-n).
    """
    omega = np.asarray(omega, dtype=float)
    out = partition_function_batch(law, omega[None, :], beta, h, mode, disorder)
    return float(out[0])


def partition_function_batch(
    law: RenewalLaw,
    omega: np.ndarray,
    beta: float,
    h: float,
    mode: str = "conditioned",
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
) -> np.ndarray:
    """Vectorized transfer recursion over rows of ``omega`` (one per sample)."""
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    omega = np.asarray(omega, dtype=float)
    n_steps = omega.shape[1]
    z = _renewal_solve(law.probs, n_steps, _site_weights(omega, beta, h, disorder))
    if mode == "conditioned":
        u = renewal_mass(law, n_steps)
        if u[n_steps] <= 0.0:
            raise ConditioningError(f"u({n_steps}) = 0: cannot condition")
        return z[:, n_steps] / u[n_steps]
    return z @ law.tail(n_steps)[::-1]


def _lattice_index(t: float, n_steps: int) -> int:
    j = round(t * n_steps)
    if abs(t * n_steps - j) > _LATTICE_TOL * n_steps:
        raise InputError(f"time {t} is not on the lattice with mesh 1/{n_steps}")
    return int(j)


def discrete_kernel(law: RenewalLaw, n_steps: int, times) -> float:
    """a_N^k P({N t_1, ..., N t_k} in tau | N in tau) via the gap product.

    Vanishes when two times coincide; times must lie on the 1/N lattice in
    (0, 1].
    """
    ts = sorted(float(t) for t in times)
    if any(t <= 0.0 or t > 1.0 for t in ts):
        raise InputError("times must lie in (0, 1]")
    idx = [_lattice_index(t, n_steps) for t in ts]
    if len(set(idx)) != len(idx):
        return 0.0
    u = renewal_mass(law, n_steps)
    if u[n_steps] <= 0.0:
        raise ConditioningError(f"u({n_steps}) = 0")
    a = a_n_scale(law, n_steps)
    value = u[n_steps - idx[-1]] / u[n_steps]
    prev = 0
    for j in idx:
        value *= a * u[j - prev]
        prev = j
    return float(value)


def continuum_kernel(
    regime: str,
    times,
    t: float,
    mode: str = "conditioned",
    alpha: float | None = None,
    mean: float | None = None,
) -> float:
    """Limit kernel: the alpha-regime gap product, or (1/E[tau_1])^k."""
    ts = sorted(float(s) for s in times)
    if len(set(ts)) != len(ts):
        raise DomainError("kernel diverges on coincident times")
    if any(s <= 0 or s >= t for s in ts):
        raise InputError("times must lie strictly inside (0, t)")
    if regime == "finite_mean":
        if not mean or mean <= 0:
            raise InputError("finite-mean kernel needs E[tau_1] > 0")
        return (1.0 / mean) ** len(ts)
    if regime != "alpha":
        raise InputError(f"unknown regime {regime!r}")
    if alpha is None or not 0.5 < alpha < 1.0:
        raise DomainError("alpha regime requires alpha in (1/2, 1)")
    ca = c_alpha(alpha)
    gaps = np.diff(np.array([0.0] + ts))
    value = ca ** len(ts) / float(np.prod(gaps ** (1.0 - alpha)))
    if mode == "conditioned":
        value *= t ** (1.0 - alpha) / (t - ts[-1]) ** (1.0 - alpha)
    elif mode != "free":
        raise InputError(f"unknown mode {mode!r}")
    return value


def chaos_kernel(law: RenewalLaw, n_steps: int, mode: str = "conditioned") -> Kernel:
    """Exhaustive polynomial-chaos kernel over sites {1..N}.

    psi(I) = a_N^{|I|} P(I subset tau | N in tau) (or unconditioned in free
    mode); with zeta_n = (e^{beta omega_n - Lambda + h} - 1)/a_N the expansion
    1 + sum_I psi(I) zeta^I reproduces the partition function exactly.
    Exponential in N; intended for N <= ~14.
    """
    if n_steps > 16:
        raise ResourceError("exhaustive chaos kernel is limited to N <= 16")
    u = renewal_mass(law, n_steps)
    tail = law.tail(n_steps)
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
        elif mode == "free":
            pass  # P(I subset tau) is just the gap product
        else:
            raise InputError(f"unknown mode {mode!r}")
        entries[sites] = prob * a ** len(sites)
    return Kernel(entries)


# ---------------------------------------------------------------------------
# exact second moments
# ---------------------------------------------------------------------------


def second_moment_exact(
    law: RenewalLaw,
    n_steps: int,
    beta: float,
    h: float,
    mode: str = "conditioned",
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
) -> float:
    """E[Z^2] over the disorder, exactly, by pair-renewal dynamic programming.

    Averaging the disorder leaves site weights e^{2h + Lambda(2b) - 2Lambda(b)}
    where both renewal chains visit and e^h where exactly one does.  The pair
    measure factorizes over common renewal points, so with

        d(n)  = single-chain e^h-weighted renewal mass,
        F(n)  = weighted mass of pairs whose first common point is n
                (weight at n excluded),
        A(n)  = fully weighted mass of pairs with a common point at n,

    one has G := d^2 = 1 + e^{2h} F * G, so F = (1 - 1/G) / e^{2h} with the
    series inverse 1/G solved by the same renewal recursion as d and A;
    A = e^{2h+gamma} F * A, and the free moment sums A against the weighted
    no-more-common-points tail.  All recursions are O(N^2).
    """
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    if n_steps > _N_CAP:
        raise ResourceError(f"N = {n_steps} exceeds the cap {_N_CAP}")
    lam2 = disorder.log_mgf(2.0 * beta)
    if not math.isfinite(lam2):
        raise DomainError("Lambda(2 beta) must be finite")
    gamma = lam2 - 2.0 * disorder.log_mgf(beta)
    e2h = math.exp(2.0 * h)

    d = _renewal_solve(math.exp(h) * law.probs, n_steps)
    big_g = d * d

    # e^{2h} F = 1 - 1/G, and 1/G is the renewal solve with kernel -G
    f = -_renewal_solve(-big_g, n_steps) / e2h
    f[0] = 0.0

    a = _renewal_solve(e2h * math.exp(gamma) * f, n_steps)

    if mode == "conditioned":
        u = renewal_mass(law, n_steps)
        if u[n_steps] <= 0.0:
            raise ConditioningError(f"u({n_steps}) = 0: cannot condition")
        return float(a[n_steps] / u[n_steps] ** 2)

    t1 = np.convolve(d, law.tail(n_steps))[: n_steps + 1]
    g_free = t1 * t1
    t_pair = g_free - e2h * np.convolve(f, g_free)[: n_steps + 1]
    return float(a @ t_pair[::-1])


@lru_cache(maxsize=None)
def _pair_constant(m: int, alpha: float) -> float:
    """sum_{a+b=m} c_a c_b with c_j = Gamma(alpha)^{j+1} / Gamma((j+1) alpha)."""
    c = [
        math.exp((j + 1) * gammaln(alpha) - gammaln((j + 1) * alpha))
        for j in range(m + 1)
    ]
    return float(sum(c[a] * c[m - a] for a in range(m + 1)))


@lru_cache(maxsize=None)
def _free_pair_constant(m: int, alpha: float) -> float:
    """sum_{a+b=m} f_a f_b with f_j = Gamma(alpha)^j / Gamma(j alpha + 1)."""
    fc = [math.exp(j * gammaln(alpha) - gammaln(j * alpha + 1.0)) for j in range(m + 1)]
    return float(sum(fc[a] * fc[m - a] for a in range(m + 1)))


def continuum_second_moment(
    regime: str,
    beta_hat: float,
    h_hat: float = 0.0,
    t: float = 1.0,
    k_max: int = 12,
    mode: str = "conditioned",
    alpha: float | None = None,
    mean: float | None = None,
    m_max: int | None = None,
) -> float:
    """Second moment of the continuum partition function.

    Finite-mean regime: the lognormal moment exp(2 rho h t + rho^2 b^2 t).
    Alpha regime: the bias is integrated out gap by gap in closed form
    (Liouville simplex integrals), leaving a double series in beta_hat^2 and
    h_hat whose coefficients are pure Gamma-function expressions; for
    h_hat = 0 and t = 1 this reduces to
    1 + sum_k b^{2k} C_a^{2k} Gamma(1-chi)^{k+1} / Gamma((k+1)(1-chi)) with
    chi = 2(1-alpha) in conditioned mode.
    """
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    if regime == "finite_mean":
        if not mean or mean <= 0:
            raise InputError("finite-mean regime needs E[tau_1] > 0")
        rho = 1.0 / mean
        return math.exp(2.0 * rho * h_hat * t + rho * rho * beta_hat * beta_hat * t)
    if regime != "alpha":
        raise InputError(f"unknown regime {regime!r}")
    if alpha is None or alpha <= 0.5:
        raise DomainError(
            "alpha <= 1/2: the continuum kernel is not square integrable"
        )
    if alpha >= 1.0:
        raise DomainError("alpha regime requires alpha < 1")
    if m_max is None:
        m_max = 0 if h_hat == 0.0 else max(k_max, 8)
    ca = c_alpha(alpha)
    x = (beta_hat * ca) ** 2
    y = h_hat * ca
    conditioned = mode == "conditioned"
    gap_poly = np.array(
        [
            _pair_constant(m, alpha) * math.exp(gammaln((m + 2) * alpha - 1.0))
            for m in range(m_max + 1)
        ]
    )
    if not conditioned:
        trail_poly = np.array(
            [
                _free_pair_constant(m, alpha) * math.exp(gammaln(m * alpha + 1.0))
                for m in range(m_max + 1)
            ]
        )
    # r pair gaps closed by a common point: j + 1 when conditioned (the last
    # one closed at t), j in free mode, which ends with the trailing stretch
    lead = 2.0 * (1.0 - alpha) if conditioned else 0.0
    shift = 0.0 if conditioned else 1.0
    power = np.array([1.0])  # gap_poly^r truncated at degree m_max
    total = 0.0
    for j in range(k_max + 1):
        r = j + 1 if conditioned else j
        if r:
            power = np.convolve(power, gap_poly)[: m_max + 1]
        poly = power if conditioned else np.convolve(power, trail_poly)[: m_max + 1]
        for m_total in range(m_max + 1):
            sum_a = (m_total + 2 * r) * alpha - r + shift
            log_term = (
                math.log(max(poly[m_total], 5e-324))
                - gammaln(sum_a)
                + (lead + sum_a - 1.0) * math.log(t)
            )
            total += x**j * y**m_total * math.exp(log_term)
    return float(total)


def lognormal_limit_law(mean_tau: float, beta_hat: float, h_hat: float, t: float):
    """(drift, volatility) of log Z-bar in the finite-mean limit:
    N((rho h - rho^2 b^2 / 2) t, rho^2 b^2 t), rho = 1/E[tau_1]."""
    if mean_tau <= 0:
        raise InputError("E[tau_1] must be positive")
    rho = 1.0 / mean_tau
    drift = (rho * h_hat - 0.5 * rho * rho * beta_hat * beta_hat) * t
    volatility = rho * abs(beta_hat) * math.sqrt(t)
    return drift, volatility
