"""(Long-range) directed polymer in an i.i.d. space-time environment.

The walk law is an explicit finite pmf with zero mean; the heavy-tail
constructor materializes P(S_1 = +-n) proportional to n^{-(1+alpha)} on a
large window (with unit-step atoms adjusted so the mean is exactly zero),
which satisfies the normal-domain-of-attraction tail condition on the stored
range while keeping every dynamic program an exact finite sum.

The limiting stable density is evaluated by inverting its characteristic
function  exp(-c_a C |t|^alpha (1 - i gamma sign(t) tan(pi alpha/2)))  with
c_a = pi / (2 sin(pi alpha / 2) Gamma(alpha)), the constant that matches
P(S_1 > n) ~ C (1+gamma)/2 n^{-alpha}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .dists import GAUSSIAN_DISORDER, DisorderLaw
from .errors import (
    ConditioningError,
    DomainError,
    InputError,
    NumericError,
    ResourceError,
)

_SUPPORT_CAP = 50_000_000
_LATTICE_TOL = 1e-9
_TRAPEZOID_CELLS = 1 << 20  # (point, node) cells per trapezoid block: 8 MB a temporary


@dataclass(frozen=True)
class WalkLaw:
    """Zero-mean increment pmf on the integers, with period bookkeeping."""

    offsets: np.ndarray
    probs: np.ndarray
    alpha: float = 2.0
    gamma_skew: float = 0.0
    c_tail: float | None = None

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=int)
        p = np.asarray(self.probs, dtype=float)
        if off.ndim != 1 or p.shape != off.shape or off.size < 2:
            raise InputError("need at least two atoms with matching probabilities")
        order = np.argsort(off)
        off, p = off[order], p[order]
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise InputError("probabilities must be nonnegative and sum to 1")
        if abs(float(off @ p)) > 1e-9:
            raise InputError("increments must have zero mean")
        if not 1.0 < self.alpha <= 2.0:
            raise DomainError("alpha must lie in (1, 2]")
        off.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "_pmf_cache", {})

    @classmethod
    def simple_symmetric(cls) -> "WalkLaw":
        return cls(np.array([-1, 1]), np.array([0.5, 0.5]))

    @classmethod
    def from_pmf(cls, offsets, probs) -> "WalkLaw":
        return cls(np.asarray(offsets), np.asarray(probs))

    @classmethod
    def heavy_tail(cls, alpha: float, gamma_skew: float = 0.0, window: int = 2000) -> "WalkLaw":
        """P(+-n) = c (1 +- gamma) n^{-(1+alpha)} for 2 <= n <= window, with
        the +-1 atoms solving for total mass 1 and mean exactly 0."""
        if not 1.0 < alpha < 2.0:
            raise DomainError("heavy-tail constructor needs alpha in (1, 2)")
        if abs(gamma_skew) >= 1.0:
            raise InputError("|gamma| must be < 1")
        if window < 4:
            raise InputError("window must be >= 4")
        n = np.arange(2, window + 1, dtype=float)
        w = n ** -(1.0 + alpha)
        # c keeps the +-1 atoms strictly positive after the mean correction:
        # tail mass 2 c S0 <= 1/2 and tail mean 2 c |gamma| S1 <= 1/2
        c = 0.25 / (w.sum() + abs(gamma_skew) * float((n * w).sum()))
        mass_tail = c * (2.0 * w.sum())
        mean_tail = c * gamma_skew * 2.0 * float((n * w).sum())
        m1 = 1.0 - mass_tail  # p(+1) + p(-1)
        d1 = -mean_tail  # p(+1) - p(-1)
        p_plus, p_minus = (m1 + d1) / 2.0, (m1 - d1) / 2.0
        if min(p_plus, p_minus) <= 0:
            raise InputError("skew too large for the unit-atom mean correction")
        offsets = np.concatenate([-n[::-1].astype(int), [-1, 1], n.astype(int)])
        probs = np.concatenate(
            [c * (1.0 - gamma_skew) * w[::-1], [p_minus, p_plus], c * (1.0 + gamma_skew) * w]
        )
        return cls(offsets, probs, alpha=alpha, gamma_skew=gamma_skew, c_tail=2.0 * c / alpha)

    @property
    def sigma2(self) -> float:
        return float((self.offsets.astype(float) ** 2) @ self.probs)

    @property
    def period(self) -> int:
        diffs = np.diff(self.offsets)
        return int(math.gcd(*[int(d) for d in diffs]))

    @property
    def residue(self) -> int:
        return int(self.offsets[0]) % self.period

    def stable_density(self) -> "StableDensity":
        if self.alpha == 2.0:
            return StableDensity(2.0, sigma2=self.sigma2)
        return StableDensity(self.alpha, gamma_skew=self.gamma_skew, c_tail=self.c_tail)


@dataclass(frozen=True)
class Pmf:
    """Integer-lattice pmf as (first offset, contiguous probability array)."""

    lo: int
    probs: np.ndarray

    def __getitem__(self, k: int) -> float:
        i = int(k) - self.lo
        if 0 <= i < self.probs.size:
            return float(self.probs[i])
        return 0.0

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.probs.size)

    def as_dict(self) -> dict[int, float]:
        return {int(k): float(q) for k, q in zip(self.offsets, self.probs) if q > 0.0}


def _dense(law: WalkLaw) -> Pmf:
    lo, hi = int(law.offsets[0]), int(law.offsets[-1])
    probs = np.zeros(hi - lo + 1)
    probs[law.offsets - lo] = law.probs
    return Pmf(lo, probs)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full convolution of two nonnegative arrays by real FFT, with the
    roundoff below zero clipped."""
    size = a.size + b.size - 1
    n = 1 << (size - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[:size]
    return np.clip(out, 0.0, None)


def _convolve(a: Pmf, b: Pmf) -> Pmf:
    if a.probs.size + b.probs.size > _SUPPORT_CAP:
        raise ResourceError("pmf support exceeds the size cap")
    if min(a.probs.size, b.probs.size) > 500:
        out = _fft_convolve(a.probs, b.probs)
    else:
        out = np.convolve(a.probs, b.probs)
    return Pmf(a.lo + b.lo, out)


def walk_pmf(law: WalkLaw, n: int) -> Pmf:
    """q_n(k) = P(S_n = k): exact n-fold convolution (binary squaring)."""
    if n < 0:
        raise InputError("n must be >= 0")
    cache = law._pmf_cache
    if n in cache:
        return cache[n]
    if n == 0:
        out = Pmf(0, np.array([1.0]))
    elif n == 1:
        out = _dense(law)
    else:
        half = walk_pmf(law, n // 2)
        out = _convolve(half, half)
        if n % 2:
            out = _convolve(out, _dense(law))
    if len(cache) < 64:
        cache[n] = out
    return out


@dataclass(frozen=True)
class StableDensity:
    """Density of the stable limit law, by characteristic-function inversion.

    alpha = 2 is the centered Gaussian with variance sigma2; for alpha < 2
    the density table is built by adaptive-trapezoid inversion on t in
    [0, T] with T chosen so exp(-a T^alpha) < 1e-10.
    """

    alpha: float
    sigma2: float | None = None
    gamma_skew: float = 0.0
    c_tail: float | None = None
    quad_tol: float = 1e-9

    def __post_init__(self):
        if self.alpha == 2.0:
            if self.sigma2 is None or self.sigma2 <= 0:
                raise DomainError("alpha = 2 needs sigma2 > 0")
        elif 1.0 < self.alpha < 2.0:
            if self.c_tail is None or self.c_tail <= 0:
                raise DomainError("alpha < 2 needs the tail constant C > 0")
        else:
            raise DomainError("alpha must lie in (1, 2]")

    @property
    def _scale_a(self) -> float:
        """Coefficient a in |char(t)| = exp(-a t^alpha)."""
        if self.alpha == 2.0:
            return 0.5 * self.sigma2
        c_a = math.pi / (2.0 * math.sin(math.pi * self.alpha / 2.0) * math.gamma(self.alpha))
        return c_a * self.c_tail

    def pdf(self, x) -> np.ndarray:
        """g(x), vectorized (chunked characteristic-function inversion)."""
        x = np.asarray(x, dtype=float)
        if self.alpha == 2.0:
            return np.exp(-0.5 * x**2 / self.sigma2) / math.sqrt(2 * math.pi * self.sigma2)
        a = self._scale_a
        b = a * self.gamma_skew * math.tan(math.pi * self.alpha / 2.0)
        t_max = (math.log(1e10) / a) ** (1.0 / self.alpha)
        flat = np.atleast_1d(x).ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, 1024):
            out[start : start + 1024] = self._invert(flat[start : start + 1024], a, b, t_max)
        return out.reshape(np.shape(x))

    def _invert(self, xs: np.ndarray, a: float, b: float, t_max: float) -> np.ndarray:
        """(1/pi) int_0^T e^{-a t^alpha} cos(b t^alpha - t x) dt, adaptive trapezoid.

        Node counts double until the whole of ``xs`` moves by less than
        ``quad_tol``; each count runs over row blocks of at most
        _TRAPEZOID_CELLS (point, node) cells, which bounds the temporaries.
        """
        n = 512
        prev = None
        while n <= 1 << 15:
            t = np.linspace(0.0, t_max, n + 1)
            ta = t**self.alpha
            envelope = np.exp(-a * ta)
            drift = b * ta
            rows = max(1, _TRAPEZOID_CELLS // (n + 1))
            vals = np.empty(xs.size)
            for r0 in range(0, xs.size, rows):
                f = xs[r0 : r0 + rows, None] * t
                np.subtract(drift, f, out=f)
                np.cos(f, out=f)
                f *= envelope
                vals[r0 : r0 + rows] = np.trapezoid(f, t, axis=-1)
            if prev is not None and np.max(np.abs(vals - prev)) < self.quad_tol:
                return vals / math.pi
            prev = vals
            n *= 2
        raise NumericError(
            f"characteristic-function inversion did not converge at {n // 2} nodes "
            f"(alpha={self.alpha}, |x| up to {np.max(np.abs(xs)):.3g})"
        )

    def pdf_scaled(self, t: float, x) -> np.ndarray:
        """g_t(x) = t^{-1/alpha} g(x t^{-1/alpha})."""
        if t <= 0:
            raise DomainError("time must be positive")
        s = t ** (-1.0 / self.alpha)
        return s * self.pdf(np.asarray(x, dtype=float) * s)

    def l2_norm_sq(self) -> float:
        """c_g = int g(x)^2 dx = Gamma(1/alpha) / (pi alpha (2a)^{1/alpha})."""
        a = self._scale_a
        return math.gamma(1.0 / self.alpha) / (math.pi * self.alpha * (2.0 * a) ** (1.0 / self.alpha))


def gnedenko_gap(law: WalkLaw, n: int, x_cut: float = 40.0) -> float:
    """sup_k | n^{1/alpha} q_n(k) - p g(k / n^{1/alpha}) | over the step-n lattice.

    For alpha < 2 the density is inverted only on |k| <= x_cut * n^{1/alpha};
    outside, |gap| <= n^{1/alpha} q_n(k) + p g_bound(k) with the stable-tail
    envelope g_bound(x) = alpha C (1+|gamma|)/2 |x|^{-1-alpha} (up to a safety
    factor), which is taken into the sup directly.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    q = walk_pmf(law, n)
    g = law.stable_density()
    p = law.period
    scale = n ** (1.0 / law.alpha)
    pad = int(math.ceil(4.0 * scale / p)) * p  # lattice points past the support
    ks = np.arange(q.lo - pad, q.lo + q.probs.size + pad)
    qs = np.concatenate([np.zeros(pad), q.probs, np.zeros(pad)])
    on_lattice = (ks - law.residue * n) % p == 0
    ks = ks[on_lattice]
    qs = qs[on_lattice]
    xs = ks / scale
    if law.alpha == 2.0:
        return float(np.max(np.abs(scale * qs - p * g.pdf(xs))))
    center = np.abs(xs) <= x_cut
    gap = float(np.max(np.abs(scale * qs[center] - p * g.pdf(xs[center]))))
    if np.any(~center):
        envelope = (
            2.0 * law.alpha * law.c_tail * (1.0 + abs(law.gamma_skew)) / 2.0
        ) * np.abs(xs[~center]) ** (-1.0 - law.alpha)
        far = float(np.max(scale * qs[~center] + p * envelope))
        gap = max(gap, far)
    return gap


def scale_beta(alpha: float, beta_hat: float, n_steps: int) -> float:
    """beta_N = beta_hat / N^{(alpha-1)/(2 alpha)}."""
    if not 1.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (1, 2]")
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    return beta_hat / n_steps ** ((alpha - 1.0) / (2.0 * alpha))


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeField:
    """Disorder values omega(n, k) for n = 1..N on k in [k_lo, k_lo + width)."""

    values: np.ndarray
    k_lo: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise InputError("field must be a 2-d array (time, space)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]


def reachable_window(law: WalkLaw, n_steps: int) -> tuple[int, int]:
    return int(law.offsets[0]) * n_steps, int(law.offsets[-1]) * n_steps


def _half_width(law: WalkLaw, n_steps: int, copies: int) -> int:
    """Default spatial half-width 6.5 N^{1/alpha} s of a DP window, where s is
    the spread of the sum of ``copies`` independent walks: sqrt(copies sigma^2)
    for alpha = 2, (copies C)^{1/alpha} for alpha < 2.  The difference walk
    S - S' has the spread of two copies."""
    if law.alpha == 2.0:
        spread = math.sqrt(copies * law.sigma2)
    else:
        spread = (copies * (law.c_tail or 1.0)) ** (1.0 / law.alpha)
    return int(math.ceil(6.5 * n_steps ** (1.0 / law.alpha) * spread))


def _partition_batch(
    law: WalkLaw,
    k_lo: int,
    rows: int,
    width: int,
    blocks,
    beta: float,
    mode: str = "free",
    y: int | None = None,
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
    mass_tol: float = 1e-8,
) -> np.ndarray:
    """Partition functions of ``rows`` disorder fields on the spatial window
    [k_lo, k_lo + width).

    ``blocks`` yields consecutive time blocks of the fields as arrays of
    shape (steps, rows, width): entry [j, r, x] is omega(n, k_lo + x) of
    field r at the block's j-th step. Each block is overwritten with the
    weights e^{beta omega - Lambda(beta)}, so a caller may hand the same
    buffer back for the next block.

    All rows advance together, one step at a time, through the transfer
    recursion z_n(y) = sum_x z_{n-1}(x) p(y-x) w_n(y). The rows lie end to
    end in one flat array, each followed by a gap of zeros as wide as the
    longest jump, so one np.convolve a step moves every row and no row
    reaches into the next; mass a step pushes past either edge of the window lands in a gap
    and is dropped. That walk probability mass is measured once, on a
    unit-weight row carried through the same loop, against the mass
    (sum p)^n the walk carries without a window; the call aborts if the
    loss exceeds ``mass_tol``. Returns one partition function per row, in
    the given mode.
    """
    if mode not in ("free", "point2point", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    if mode != "free" and y is None:
        raise InputError(f"mode {mode!r} needs a target site y")
    if k_lo > 0 or k_lo + width <= 0:
        raise InputError("field window must contain the origin")
    lam = disorder.log_mgf(beta)
    inc = _dense(law)
    stride = width + max(-inc.lo, inc.lo + inc.probs.size - 1)  # a row and its gap
    flat = np.zeros((rows + 1) * stride)  # row `rows` is the bare walk
    flat[-k_lo::stride] = 1.0
    n_steps = 0
    for block in blocks:
        block *= beta
        block -= lam
        np.exp(block, out=block)
        for w in block:
            # entry k of row r lands at flat index r * stride + k - inc.lo
            flat = np.convolve(flat, inc.probs)[-inc.lo : -inc.lo + flat.size]
            z = flat.reshape(rows + 1, stride)
            z[:, width:] = 0.0
            z[:rows, :width] *= w
        n_steps += block.shape[0]
    z = flat.reshape(rows + 1, stride)[:, :width]
    lost = float(inc.probs.sum()) ** n_steps - float(z[rows].sum())
    if lost > mass_tol:
        raise NumericError(
            f"truncated walk mass {lost:.3e} exceeds mass_tol={mass_tol:.1e}; "
            "widen the disorder field window"
        )
    z = z[:rows]
    if mode == "free":
        return z.sum(axis=1)
    idx = int(y) - k_lo
    if not 0 <= idx < width:
        raise InputError(f"target y={y} outside the field window")
    if mode == "point2point":
        return z[:, idx].copy()
    qy = walk_pmf(law, n_steps)[int(y)]
    if qy <= 0.0:
        raise ConditioningError(f"q_{n_steps}({y}) = 0: cannot condition")
    return z[:, idx] / qy


def polymer_partition(
    law: WalkLaw,
    omega: SpaceTimeField,
    beta: float,
    mode: str = "free",
    y: int | None = None,
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
    mass_tol: float = 1e-8,
) -> float:
    """Space-time transfer recursion z_n(y) = sum_x z_{n-1}(x) p(y-x) w_n(y).

    free sums z_N; point2point returns z_N(y); conditioned divides by q_N(y).
    Walk probability mass driven outside the field's spatial window is
    dropped and measured; the run aborts if it exceeds ``mass_tol``. This is
    the one-row call of the batched transfer loop that ``sample_polymer``
    runs over groups of samples.
    """
    block = omega.values[:, None, :].copy()
    return float(_partition_batch(law, omega.k_lo, 1, block.shape[2], [block], beta,
                                  mode, y, disorder, mass_tol)[0])


def _on_lattice(value: float, scale: float) -> int:
    j = round(value * scale)
    if abs(value * scale - j) > _LATTICE_TOL * max(1.0, scale):
        raise InputError(f"coordinate {value} is off the rescaled lattice")
    return int(j)


def polymer_kernel_discrete(
    law: WalkLaw, n_steps: int, points, endpoint=None, mode: str = "conditioned"
) -> float:
    """Discrete chaos kernel: product of walk-pmf ratios with one factor
    N^{-(alpha-1)/(2 alpha)} per point; vanishes on coincident points.

    ``points`` are (t_i, x_i) on the rescaled lattice (t in Z/N, x in
    N^{-1/alpha}(pZ + r n)); ``endpoint`` is the conditioning point (1, x).
    """
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    space_scale = n_steps ** (1.0 / law.alpha)
    a_n = n_steps ** (-(law.alpha - 1.0) / (2.0 * law.alpha))
    p, r = law.period, law.residue
    pts = []
    for t, x in points:
        n = _on_lattice(float(t), float(n_steps))
        k = _on_lattice(float(x), space_scale)
        if not 0 < n <= n_steps:
            raise InputError("time coordinates must lie in (0, 1]")
        if (k - r * n) % p != 0:
            raise InputError(f"site ({t}, {x}) violates the period-{p} lattice")
        pts.append((n, k))
    if len(set(pts)) != len(pts):
        return 0.0
    pts.sort()
    if len({n for n, _ in pts}) != len(pts):
        return 0.0  # distinct space at equal time: the walk cannot be at both
    value = 1.0
    prev = (0, 0)
    for n, k in pts:
        value *= a_n * walk_pmf(law, n - prev[0])[k - prev[1]]
        prev = (n, k)
    if mode == "conditioned":
        if endpoint is None:
            raise InputError("conditioned mode needs the endpoint (1, x)")
        t_end, x_end = endpoint
        n_end = _on_lattice(float(t_end), float(n_steps))
        k_end = _on_lattice(float(x_end), space_scale)
        q_end = walk_pmf(law, n_steps)[k_end]
        if q_end <= 0.0:
            raise ConditioningError(f"q_N({x_end}) = 0: cannot condition")
        value *= walk_pmf(law, n_end - prev[0])[k_end - prev[1]] / q_end
    return float(value)


def polymer_kernel_continuum(
    density: StableDensity,
    points,
    endpoint=None,
    mode: str = "conditioned",
    period: int = 1,
) -> float:
    """prod_i sqrt(p) g_{t_i - t_{i-1}}(x_i - x_{i-1}), times the endpoint
    ratio g_{t-t_k}(x - x_k)/g_t(x) in conditioned mode."""
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    pts = sorted((float(t), float(x)) for t, x in points)
    times = [t for t, _ in pts]
    if len(set(times)) != len(times):
        raise DomainError("kernel is not defined at coincident times")
    value = 1.0
    prev = (0.0, 0.0)
    for t, x in pts:
        if t <= prev[0]:
            raise DomainError("times must be strictly increasing and positive")
        value *= math.sqrt(period) * float(density.pdf_scaled(t - prev[0], x - prev[1]))
        prev = (t, x)
    if mode == "conditioned":
        if endpoint is None:
            raise InputError("conditioned mode needs the endpoint (t, x)")
        t_end, x_end = float(endpoint[0]), float(endpoint[1])
        if t_end <= prev[0]:
            raise DomainError("endpoint time must exceed the last point time")
        value *= float(density.pdf_scaled(t_end - prev[0], x_end - prev[1])) / float(
            density.pdf_scaled(t_end, x_end)
        )
    return float(value)


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------


def overlap_weight(beta: float, disorder: DisorderLaw = GAUSSIAN_DISORDER) -> float:
    """gamma(beta) = Lambda(2 beta) - 2 Lambda(beta); E[Z^2] = E[e^{gamma L}]."""
    lam2 = disorder.log_mgf(2.0 * beta)
    if not math.isfinite(lam2):
        raise DomainError("Lambda(2 beta) must be finite")
    return lam2 - 2.0 * disorder.log_mgf(beta)


def polymer_second_moment_exact(
    law: WalkLaw,
    n_steps: int,
    beta: float,
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
    window: int | None = None,
    mass_tol: float = 1e-8,
) -> float:
    """E[Z_free^2] = E[exp(gamma * #{n <= N : V_n = 0})] over the difference
    walk V = S - S', by dynamic programming on the spatial window
    [-window, window], by default 6.5 N^{1/alpha} times the spread of V.

    Mass leaving the window is absorbed with weight 1 (it no longer collides);
    the run aborts if the absorbed mass exceeds ``mass_tol``.
    """
    gamma = overlap_weight(beta, disorder)
    dense = _dense(law)
    # difference-walk increment pmf: (p * p-reflected), supported on +-(size-1)
    diff = np.convolve(dense.probs, dense.probs[::-1])
    diff_lo = -(dense.probs.size - 1)
    if window is None:
        window = _half_width(law, n_steps, 2)
    window = max(window, dense.probs.size + 1)
    if 2 * window + 1 > _SUPPORT_CAP:
        raise ResourceError("difference-walk window exceeds the size cap")
    v = np.zeros(2 * window + 1)
    v[window] = 1.0
    boost = math.exp(gamma)
    absorbed = 0.0
    use_fft = v.size * diff.size > 4_000_000  # fft roundoff ~1e-15 relative
    for _ in range(n_steps):
        if use_fft:
            full = _fft_convolve(v, diff)
        else:
            full = np.convolve(v, diff)
        start = -diff_lo
        kept = full[start : start + v.size]
        absorbed += float(full.sum() - kept.sum())
        v = kept
        v[window] *= boost
    if absorbed > mass_tol:
        raise NumericError(
            f"absorbed difference-walk mass {absorbed:.3e} exceeds "
            f"mass_tol={mass_tol:.1e}; enlarge window"
        )
    return float(v.sum() + absorbed)


def polymer_second_moment_continuum(
    density: StableDensity,
    beta_hat: float,
    t: float = 1.0,
    k_max: int = 40,
    period: int = 1,
) -> float:
    """1 + sum_k (p beta_hat^2 c_g)^k t^{k(1-1/a)} Gamma(1-1/a)^k / Gamma(k(1-1/a)+1)
    with c_g = int g^2; the free-endpoint Liouville form of the moment series."""
    if beta_hat == 0.0:
        return 1.0
    chi = 1.0 / density.alpha
    x = period * beta_hat * beta_hat * density.l2_norm_sq() * t ** (1.0 - chi)
    terms = [
        x**k * math.exp(k * gammaln(1.0 - chi) - gammaln(k * (1.0 - chi) + 1.0))
        for k in range(k_max + 1)
    ]
    if len(terms) >= 3 and terms[-1] > terms[-2] and terms[-1] > 1e-12 * sum(terms):
        raise NumericError(
            "second-moment series is not decaying by k_max; reported as non-summable"
        )
    return float(sum(terms))
