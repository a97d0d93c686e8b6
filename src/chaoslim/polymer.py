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

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import dists, simplex
from .dists import GAUSSIAN_DISORDER, Atoms, StdGaussian, overlap_weight, site_weights
from .errors import (
    ConditioningError,
    DomainError,
    InputError,
    NumericError,
    ResourceError,
)
from .pinning import _chaos_second_moment, _check_cap

_SUPPORT_CAP = 50_000_000
_INVERSION_CELLS = 1 << 20  # (point, node) cells per row block of the inversion: 8 MB a temporary
_INVERSION_NODES_CAP = 1 << 20  # most quadrature nodes one inversion may use
_GRADED_PANELS = 30  # panels halving toward t = 0, which absorb the t^alpha cusp
_FIELD_BLOCK_CELLS = 1 << 20  # disorder values per time block of a batched transfer


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

    @classmethod
    def simple_symmetric(cls) -> "WalkLaw":
        return cls(np.array([-1, 1]), np.array([0.5, 0.5]))

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
        if 2 * window + 1 > _SUPPORT_CAP:
            raise ResourceError(
                f"window = {window} gives a support 2 * window + 1 above the size cap "
                f"{_SUPPORT_CAP}"
            )
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
        return int(np.gcd.reduce(np.diff(self.offsets)))

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


def _dense(law: WalkLaw) -> Pmf:
    lo, hi = int(law.offsets[0]), int(law.offsets[-1])
    probs = np.zeros(hi - lo + 1)
    probs[law.offsets - lo] = law.probs
    return Pmf(lo, probs)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full convolution of two nonnegative arrays: directly unless both have
    more than 500 entries, else by real FFT (roundoff ~1e-15 relative), with
    the roundoff below zero clipped."""
    if a.size + b.size > _SUPPORT_CAP:
        raise ResourceError("convolution support exceeds the size cap")
    if min(a.size, b.size) <= 500:
        return np.convolve(a, b)
    size = a.size + b.size - 1
    n = 1 << (size - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[:size]
    return np.clip(out, 0.0, None)


def walk_pmf(law: WalkLaw, n: int) -> Pmf:
    """q_n(k) = P(S_n = k): exact n-fold convolution (binary squaring)."""
    if n < 0:
        raise InputError("n must be >= 0")
    if n == 0:
        return Pmf(0, np.array([1.0]))
    if n == 1:
        return _dense(law)
    half = walk_pmf(law, n // 2)
    out = Pmf(2 * half.lo, _convolve(half.probs, half.probs))
    if n % 2:
        inc = _dense(law)
        out = Pmf(out.lo + inc.lo, _convolve(out.probs, inc.probs))
    return out


@dataclass(frozen=True)
class StableDensity:
    """Density of the stable limit law, by characteristic-function inversion.

    alpha = 2 is the centered Gaussian with variance sigma2. For alpha < 2,
    g(x) = (1/pi) int_0^T e^{-a t^alpha} cos(b t^alpha - t x) dt by one
    composite Gauss-Legendre rule shared by all requested points (see
    ``_inversion_rule``); T is chosen so that e^{-a T^alpha} <= 1e-17, and the
    result is exact to rounding (about 1e-16 absolute).
    """

    alpha: float
    sigma2: float | None = None
    gamma_skew: float = 0.0
    c_tail: float | None = None

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
        """g(x), vectorized; for alpha < 2 one quadrature rule for all of ``x``,
        run over row blocks of at most _INVERSION_CELLS (point, node) cells."""
        x = np.asarray(x, dtype=float)
        if self.alpha == 2.0:
            return np.exp(-0.5 * x**2 / self.sigma2) / math.sqrt(2 * math.pi * self.sigma2)
        a = self._scale_a
        b = a * self.gamma_skew * math.tan(math.pi * self.alpha / 2.0)
        flat = x.ravel()
        t, w = _inversion_rule(self.alpha, a, b, float(np.max(np.abs(flat), initial=0.0)))
        t_alpha = t**self.alpha
        drift = b * t_alpha
        w *= np.exp(-a * t_alpha) / math.pi
        out = np.empty(flat.size)
        rows = max(1, _INVERSION_CELLS // t.size)
        for r0 in range(0, flat.size, rows):
            f = flat[r0 : r0 + rows, None] * t
            np.subtract(drift, f, out=f)
            np.cos(f, out=f)
            f *= w
            # a row sum (not a BLAS product) gives each point the same bits in any block
            out[r0 : r0 + rows] = f.sum(axis=1)
        return out.reshape(x.shape)

    def l2_norm_sq(self) -> float:
        """c_g = int g(x)^2 dx = Gamma(1/alpha) / (pi alpha (2a)^{1/alpha})."""
        a = self._scale_a
        return math.gamma(1.0 / self.alpha) / (math.pi * self.alpha * (2.0 * a) ** (1.0 / self.alpha))


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre nodes and weights on [-1, 1], built on first use:
    the eigenvalue solve behind them adds about 1 MB of RSS to a process."""
    return np.polynomial.legendre.leggauss(24)


def _inversion_rule(alpha: float, a: float, b: float, x_max: float):
    """Nodes and weights of the composite Gauss-Legendre rule for
    int_0^T e^{-a t^alpha} cos(b t^alpha - t x) dt at every |x| <= x_max.

    With omega = x_max + alpha |b| T^{alpha-1}, the fastest rate of the phase,
    and t1 = min(T, 2 pi / omega): _GRADED_PANELS panels halving from t1 toward
    0 absorb the t^alpha cusp, and uniform panels of at most one period
    2 pi / omega cover [t1, T]; each panel has 24 nodes. A rule above
    _INVERSION_NODES_CAP nodes (|x| of order 1e4 in units of the law's
    scale) is a NumericError.
    """
    t_max = (math.log(1e17) / a) ** (1.0 / alpha)
    omega = max(x_max + alpha * abs(b) * t_max ** (alpha - 1.0), 1.0)
    t1 = min(t_max, 2.0 * math.pi / omega)
    uniform = (t_max - t1) * omega / (2.0 * math.pi)  # nan or inf for non-finite x
    nodes, weights = _panel_rule()
    if not (_GRADED_PANELS + uniform) * nodes.size <= _INVERSION_NODES_CAP:
        raise NumericError(
            f"characteristic-function inversion at |x| up to {x_max:.3g} needs more than "
            f"{_INVERSION_NODES_CAP} quadrature nodes (alpha={alpha})"
        )
    edges = np.concatenate([
        [0.0],
        np.ldexp(t1, np.arange(1 - _GRADED_PANELS, 1)),
        np.linspace(t1, t_max, math.ceil(uniform) + 1)[1:],
    ])
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    w = (half * weights).ravel()
    return t, w


GNEDENKO_X_CUT = 40.0  # |x| beyond which gnedenko_gap bounds g by its tail envelope


def gnedenko_gap(law: WalkLaw, n: int) -> float:
    """sup_k | n^{1/alpha} q_n(k) - p g(k / n^{1/alpha}) | over the step-n lattice.

    For alpha < 2 the density is inverted only on |k| <= GNEDENKO_X_CUT * n^{1/alpha};
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
    center = np.abs(xs) <= GNEDENKO_X_CUT
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


def _half_width(law: WalkLaw, n_steps: int) -> int:
    """Default spatial half-width 6.5 N^{1/alpha} s of a field window, where
    s is the spread of the walk: sigma for alpha = 2, C^{1/alpha} for
    alpha < 2."""
    if law.alpha == 2.0:
        spread = math.sqrt(law.sigma2)
    else:
        spread = (law.c_tail or 1.0) ** (1.0 / law.alpha)
    return int(math.ceil(6.5 * n_steps ** (1.0 / law.alpha) * spread))


def field_window(law: WalkLaw, n_steps: int, mode: str = "free", x: float = 0.0):
    """(k_lo, width, y, norm) of a polymer of N = ``n_steps`` steps: its field
    window [k_lo, k_lo + width), the sites the walk reaches within
    ``_half_width`` of the origin, and how its path ends. Free, y is None;
    else y is x N^{1/alpha} rounded, then moved down onto the sites the walk
    reaches at step N. The norm is q_N(y) conditioned, 1 otherwise."""
    if mode not in ("free", "point2point", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    half = _half_width(law, n_steps)
    k_lo = max(int(law.offsets[0]) * n_steps, -half)
    k_hi = min(int(law.offsets[-1]) * n_steps, half)
    y, norm = None, 1.0
    if mode != "free":
        target = x * n_steps ** (1.0 / law.alpha)
        if not k_lo - 0.5 <= target <= k_hi + 0.5:
            raise InputError(f"x = {x!r} puts the target x N^(1/alpha) = {target:.6g} "
                             f"outside the field window [{k_lo}, {k_hi}]")
        y = int(round(target))
        y -= (y - law.residue * n_steps) % law.period
        if not k_lo <= y <= k_hi:
            raise InputError(f"x = {x!r} puts the endpoint y = {y} outside the field "
                             f"window [{k_lo}, {k_hi}]")
    if mode == "conditioned":
        norm = walk_pmf(law, n_steps)[y]
        if norm <= 0.0:
            raise ConditioningError(f"q_{n_steps}({y}) = 0: cannot condition")
    return k_lo, k_hi - k_lo + 1, y, norm


def _partition_batch(
    law: WalkLaw,
    k_lo: int,
    rows: int,
    width: int,
    n_steps: int,
    weights,
    y: int | None = None,
    mass_tol: float = 1e-8,
) -> np.ndarray:
    """Partition functions of ``rows`` disorder fields of N = ``n_steps``
    steps on the spatial window [k_lo, k_lo + width): each row's sum over
    the window, or with a site ``y`` its entry there, unnormalized.
    ``field_window`` picks the window, y and the norm a caller divides by.

    A law of period p and residue r reaches at step n only the sites
    k = r n (mod p), so a field holds values only there. ``weights(n0, out)``
    writes the site weights of steps n0+1..n0+k of every field into the
    transfer's own sample-major (rows, k, ceil(width / p)) block buffer
    ``out``, of at most _FIELD_BLOCK_CELLS values, once a block, in time
    order: entry [s, j, i] is the weight, e^{beta omega - Lambda(beta)} for
    a sampled field, of site k_lo + off_n + i p at step n = n0+1+j of field
    s, where off_n = (r n - k_lo) mod p. A step whose sublattice has one
    site fewer leaves its last entry unused. The transfer reads the block
    and may then overwrite it.

    All rows advance together, one step at a time, through the transfer
    recursion z_n(y) = sum_x z_{n-1}(x) p(y-x) w_n(y). The rows lie end to
    end in one flat array, each followed by a gap of zeros as wide as the
    longest jump, so one np.convolve a step moves every row and no row
    reaches into the next; mass a step pushes past either edge of the window lands in a gap
    and is dropped. After the convolve every site off the step's sublattice
    holds exactly 0, so only the sublattice sites are weighted. The
    dropped walk probability mass is measured once, on a
    unit-weight row carried through the same loop, against the mass
    (sum p)^n the walk carries without a window; the call aborts if the
    loss exceeds ``mass_tol``.
    """
    if k_lo > 0 or k_lo + width <= 0:
        raise InputError("field window must contain the origin")
    if not mass_tol >= 0.0:
        raise InputError(f"mass_tol = {mass_tol!r} must be >= 0")
    inc = _dense(law)
    stride = width + max(-inc.lo, inc.lo + inc.probs.size - 1)  # a row and its gap
    flat = np.zeros((rows + 1) * stride)  # row `rows` is the bare walk
    flat[-k_lo::stride] = 1.0
    p, res = law.period, law.residue
    cols = -(-width // p)
    steps = max(1, _FIELD_BLOCK_CELLS // (rows * cols))
    buf = np.empty((rows, min(steps, n_steps), cols))
    for n0 in range(0, n_steps, steps):
        block = buf[:, : min(steps, n_steps - n0)]
        weights(n0, block)
        for n, w in enumerate(block.swapaxes(0, 1), n0 + 1):
            # entry k of row r lands at flat index r * stride + k - inc.lo
            flat = np.convolve(flat, inc.probs)[-inc.lo : -inc.lo + flat.size]
            z = flat.reshape(rows + 1, stride)
            z[:, width:] = 0.0
            sites = z[:rows, (res * n - k_lo) % p : width : p]
            sites *= w[:, : sites.shape[1]]
    z = flat.reshape(rows + 1, stride)[:, :width]
    lost = float(inc.probs.sum()) ** n_steps - float(z[rows].sum())
    if lost > mass_tol:
        raise NumericError(
            f"truncated walk mass {lost:.3e} exceeds mass_tol={mass_tol:.1e}; "
            "widen the disorder field window"
        )
    if y is None:
        return z[:rows].sum(axis=1)
    return z[:rows, int(y) - k_lo].copy()


def _sublattice_source(law: WalkLaw, omega: SpaceTimeField, beta: float):
    """The block source ``_partition_batch`` reads of the one field
    ``omega``: its Gaussian weights e^{beta omega - beta^2 / 2} on the walk's
    sublattice, the only sites the transfer reads."""
    p, res = law.period, law.residue
    n_steps, width = omega.values.shape
    cols = -(-width // p)
    padded = np.zeros((n_steps, cols * p))
    padded[:, :width] = omega.values
    offs = (res * np.arange(1, n_steps + 1) - omega.k_lo) % p
    block = np.take_along_axis(padded, offs[:, None] + p * np.arange(cols), axis=1)[None]
    site_weights(block, beta, GAUSSIAN_DISORDER)
    return lambda n0, out: np.copyto(out, block[:, n0 : n0 + out.shape[1]])


def polymer_partition(law: WalkLaw, omega: SpaceTimeField, beta: float) -> float:
    """Space-time transfer recursion z_n(y) = sum_x z_{n-1}(x) p(y-x) w_n(y),
    summed over the endpoint y: the free partition function.

    Gaussian disorder; walk probability mass driven outside the field's
    spatial window is dropped and measured, and the run aborts if it exceeds
    1e-8. This is the one-row call of the batched transfer loop that
    ``sample_polymer`` runs over groups of samples.
    """
    n_steps, width = omega.values.shape
    return float(_partition_batch(law, omega.k_lo, 1, width, n_steps,
                                  _sublattice_source(law, omega, beta))[0])


def _fill_weights(disorder, rngs, block, beta: float) -> None:
    """Fill sample i of ``block`` from ``rngs[i]``, then turn the block into
    its site weights in place."""
    for rng, field in zip(rngs, block):
        disorder.fill(rng, field)
    site_weights(block, beta, disorder)


def sample_polymer(
    law: WalkLaw,
    beta_hat: float,
    n_steps: int,
    n_samples: int,
    seed: int,
    mode: str = "free",
    x: float = 0.0,
    disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER,
    mass_tol: float = 1e-8,
) -> np.ndarray:
    """Free / point-to-point / conditioned polymer partition samples: the
    transfer's row sums or entries at y over the norm, with the window, y
    and norm of ``field_window``.

    Sample i draws its field, on the walk's sublattice only, from the i-th
    Generator spawned from ``SeedSequence(seed)``, whose seeds are spawned
    a group at a time.  Groups of samples go through one
    ``_partition_batch`` loop; each sample fills its own contiguous part
    of a time block straight from its own Generator, so no sample's whole
    (n_steps, width) field is held at once.
    A full block splits its cells about evenly between samples and steps:
    many samples a step keep the per-step overhead of the loop small, many
    steps a draw keep the per-call overhead of the Generators small. The
    samples of a block split into one contiguous range a worker thread,
    and each worker fills its range and turns it into weights
    e^{beta_N omega - Lambda(beta_N)} in place. Each sample reads its own
    stream in time order, with the same elementwise arithmetic, so the
    samples depend on neither the grouping nor the number of cores.
    """
    beta_n = scale_beta(law.alpha, beta_hat, n_steps)
    k_lo, width, y, norm = field_window(law, n_steps, mode, x)
    group = max(1, math.isqrt(_FIELD_BLOCK_CELLS // -(-width // law.period)))
    # spawn keys run on across calls, so one spawn a group gives the same
    # children as one up front, without all n_samples seeds at once
    parent = np.random.SeedSequence(seed)
    out = np.empty(n_samples)
    for s0 in range(0, n_samples, group):
        rngs = [np.random.default_rng(ss) for ss in parent.spawn(min(group, n_samples - s0))]
        parts = min(dists.cpu_count(), len(rngs))
        ranges = [(len(rngs) * j // parts, len(rngs) * (j + 1) // parts) for j in range(parts)]

        def weights(n0, block, rngs=rngs, ranges=ranges):
            dists.run_on_pool([(_fill_weights, disorder, rngs[a:b], block[a:b], beta_n)
                               for a, b in ranges])

        out[s0 : s0 + len(rngs)] = _partition_batch(
            law, k_lo, len(rngs), width, n_steps, weights, y, mass_tol) / norm
    return out


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------


def _meeting_mass(law: WalkLaw, n_steps: int) -> np.ndarray:
    """u(n) = P(V_n = 0), n = 0..N, for the difference walk V = S - S': the
    mean of psi^n over M DFT bins, psi = |rfft(p, M)|^2 the transform of
    V_1's pmf.  That mean is sum_l P(V_n = l M), so it is exact for M the
    smallest power of two above J N, J = max |V_1|.  O(N M) time, O(M) memory.
    """
    _check_cap(n_steps)
    span = int(law.offsets[-1] - law.offsets[0])  # J
    bins = 1 << (span * n_steps).bit_length()
    if bins > _SUPPORT_CAP:
        raise ResourceError(f"the difference walk reaches |V| = {span * n_steps} in N = "
                            f"{n_steps} steps: {bins} DFT bins exceed the size cap")
    spec = np.fft.rfft(_dense(law).probs, bins)
    psi = spec.real**2 + spec.imag**2
    # w psi^n, w = 1/M for bins 0 and M/2 and 2/M for the rest, each of
    # which also stands for its mirror bin M - k
    power = np.full(psi.size, 2.0 / bins)
    power[0] = power[-1] = 1.0 / bins
    u = np.ones(n_steps + 1)
    for n in range(1, n_steps + 1):
        power *= psi
        u[n] = power.sum()
    return u


def polymer_second_moment_exact(
    law: WalkLaw,
    n_steps: int,
    beta: float,
    disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER,
) -> float:
    """E[Z_free^2] = E[exp(gamma L_N)] exactly, L_N = #{1 <= n <= N : V_n = 0}
    the zeros of the difference walk V = S - S'.

    They form a renewal of mass u = ``_meeting_mass``, and a walk that ends
    free ends the pair with weight 1, so E[e^{gamma L_N}] is the chaos sum
    sum_{n<=N} R(n) of ``_chaos_second_moment``: one renewal solve.
    """
    u = _meeting_mass(law, n_steps)
    return _chaos_second_moment(u, n_steps, overlap_weight(beta, disorder), np.ones(n_steps + 1))


def polymer_second_moment_continuum(law: WalkLaw, beta_hat: float) -> float:
    """Second moment at time 1 of the continuum limit of ``law``'s polymer:
    1 + sum_k (p beta_hat^2 c_g)^k D_k(1/a), with p the law's period,
    c_g = int g^2 of its stable density g and D_k the free ordered-simplex
    gap integral Gamma(1-1/a)^k / Gamma(k(1-1/a)+1), summed until the terms
    vanish."""
    density = law.stable_density()
    chi = 1.0 / density.alpha
    # a Python float, whose powers overflow as an OverflowError
    x = float(law.period * beta_hat * beta_hat * density.l2_norm_sq())
    return simplex.sum_series(
        (x**k * simplex.dirichlet_closed_form(k, chi, False) for k in itertools.count()),
        "beta_hat",
    )
