"""Disordered pinning model: renewal laws, transfer recursions, kernels,
exact second-moment dynamic programs and the finite-mean lognormal limit.

The partition function reweights a non-terminating renewal process tau by
site energies beta*omega_n - Lambda(beta) + h at its renewal times:

    Z = E[ exp( sum_{n<=N} (beta omega_n - Lambda(beta) + h) 1_{n in tau} ) ]

free, or conditioned on {N in tau}.  Everything discrete here is exact:
the transfer recursion, the renewal mass function, and the second moment
as its chaos sum, one O(N^2) renewal solve over the meeting points of a
pair of chains, which the polymer's second moment shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dists, simplex, wiener
from .dists import GAUSSIAN_DISORDER, Atoms, StdGaussian, overlap_weight, site_weights
from .errors import (
    ConditioningError,
    DomainError,
    InputError,
    NumericError,
    ResourceError,
)

_N_CAP = 200_000


def c_alpha(alpha: float) -> float:
    """The renewal-theorem constant alpha*sin(pi*alpha)/pi."""
    return alpha * math.sin(math.pi * alpha) / math.pi


# B_2, B_4, ..., B_16: the Bernoulli numbers of the Euler-Maclaurin tail
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _hurwitz_zeta(s: float, a: float) -> float:
    """sum_{k >= 0} (a + k)^{-s} for s > 1, a >= 1: 16 terms, then the
    Euler-Maclaurin tail at b = a + 16,
    b^{1-s}/(s-1) + b^{-s}/2 + sum_j B_2j/(2j)! s(s+1)..(s+2j-2) b^{-s-2j+1}.
    It matches scipy.special.zeta within 1e-15 relative for s = 1 + alpha,
    alpha in [0.51, 0.99], and keeps scipy.special out of the law's set-up."""
    b = a + 16
    terms = [(a + k) ** -s for k in range(16)] + [b ** (1 - s) / (s - 1), 0.5 * b**-s]
    rise, fact, power = s, 2.0, b ** (-s - 1)
    for j, bernoulli in enumerate(_BERNOULLI, 1):
        terms.append(bernoulli / fact * rise * power)
        rise *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        power /= b * b
    return math.fsum(terms)


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
        if int(np.gcd.reduce(support)) != 1:
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
        if n_max > 2 * _N_CAP:
            raise ResourceError(
                f"n_max = {n_max} exceeds the cap {2 * _N_CAP}, twice the largest N"
            )
        n = np.arange(1, n_max + 1, dtype=float)
        raw = n ** -(1.0 + alpha)
        raw[-1] += _hurwitz_zeta(1.0 + alpha, n_max + 1.0)
        c = 1.0 / _hurwitz_zeta(1.0 + alpha, 1.0)
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


_BLOCK_STEPS = 64  # steps per block of the transfer; a larger buffer falls out of cache
# a power-law kernel's lags past the block before, as a sum of exponentials:
# trapezoid step and cut in u of m^{-p} = (1/Gamma(p)) int e^{pu - m e^u} du,
# and the relative error the sum must keep on every lag it replaces
_EXP_STEP = 0.25
_EXP_CUT = 1e-14
_EXP_TOL = 1e-13
# terms with s_k * reach below _EXP_SLOW differ on lags up to reach only by a
# smooth function of s_k, so they merge into _EXP_NODES terms at Chebyshev
# nodes in s (at 5 nodes the kernel (m/M)^{-1/4} misses _EXP_TOL)
_EXP_SLOW = 0.05
_EXP_NODES = 6


def _check_cap(n_steps: int) -> None:
    if n_steps < 0:
        raise InputError(f"N = {n_steps} must be >= 0")
    if n_steps > _N_CAP:
        raise ResourceError(f"N = {n_steps} exceeds the cap {_N_CAP}")


def _power_exponentials(kernel: np.ndarray, reach: int):
    """(near, decay, hist) of a sum of J exponentials, sum_k a_k e^{-s_k m},
    that matches ``kernel[m]`` within _EXP_TOL relative on every lag
    65..reach, or None if there is none or it costs more than the Toeplitz.

    p and c of kernel[m] = c m^{-p} are read from lags 64 and ``reach``; the
    trapezoid at step 1/4 on [log(_EXP_CUT)/p - log(reach), log(40/64)] of
    c m^{-p} = (c/Gamma(p)) int e^{pu - m e^u} du gives 104 terms at p = 7/4
    and reach 2000.  The 63 of them with s_k * reach < _EXP_SLOW merge into
    _EXP_NODES, so J = 47.  The returned arrays are near[j-1, k] =
    a_k e^{-s_k j}, decay[k] = e^{-64 s_k} and hist[k, i] = e^{-s_k (127 - i)},
    i = 0..63.
    The check against the kernel itself, not against the fitted power, is
    what a folded tail atom, a changed lag or a power too steep for the step
    fails; a fit steeper than m^{-4} is refused before it.  J accumulators
    cost 64 + 2J per step, the Toeplitz's blocks reach / 2 on average, so a
    longer sum is refused (the N from which an alpha law takes the sum is in
    ``_renewal_solve``); measured at 200 rows, the two break even near N = 300.
    """
    b = _BLOCK_STEPS
    if reach <= b or not (kernel[b] > 0 and kernel[reach] > 0):
        return None
    p = (math.log(kernel[b]) - math.log(kernel[reach])) / math.log(reach / b)
    if not 0 < p <= 4:  # at step 1/4, m^{-4} is already 4.8e-13 off
        return None
    hi = math.log(40 / b)
    terms = math.ceil((hi - math.log(_EXP_CUT) / p + math.log(reach)) / _EXP_STEP) + 1
    u = hi - _EXP_STEP * np.arange(terms)
    s = np.exp(u)
    a = kernel[b] * b**p * _EXP_STEP / math.gamma(p) * np.exp(p * u)
    slow = s * reach < _EXP_SLOW
    if np.count_nonzero(slow) > _EXP_NODES:
        # the slow terms sum a_k e^{-s_k m}, and on [s_lo, s_hi] e^{-s m} is
        # its interpolant through the nodes t_j, sum_j L_j(s) e^{-t_j m}, to
        # within 2 (m (s_hi - s_lo) / 4)^6 / 6!, under 1.1e-14 on these lags;
        # so the nodes take the weights sum_k a_k L_j(s_k)
        lo, up = s[slow][[-1, 0]]
        t = (up + lo) / 2 + (up - lo) / 2 * np.cos(
            (2 * np.arange(_EXP_NODES) + 1) * np.pi / (2 * _EXP_NODES))
        gaps = s[slow] - t[:, None]
        lagrange = [np.prod(np.delete(gaps, j, 0), axis=0) / np.prod(np.delete(t[j] - t, j))
                    for j in range(_EXP_NODES)]
        a = np.append(a[~slow], np.array(lagrange) @ a[slow])
        s = np.append(s[~slow], t)
    if 2 * (b + 2 * s.size) >= reach:
        return None
    near = a * np.exp(-np.outer(np.arange(1, b + 1), s))
    # lag 64 i + j is near[j - 1] @ decay^i, so the sum on lags 65..reach is
    # one (64 x J) by (J x reach/64) product
    blocks = -(-reach // b) - 1
    approx = (near @ np.exp(-b * np.outer(s, np.arange(1, blocks + 1)))).T.ravel()
    k = kernel[b + 1 : reach + 1]
    if not np.all(np.abs(approx[: k.size] - k) <= _EXP_TOL * k):
        return None
    hist = np.exp(-np.outer(s, np.arange(2 * b - 1, b - 1, -1)))
    return near, np.exp(-b * s)[:, None], hist


def _far_history(kernel: np.ndarray, n_steps: int):
    """(rows, exps) of a weighted transfer over ``n_steps`` steps: the rows a
    sample of history and block it holds at most, and the sum of
    exponentials that takes the lags past the block before, or None.

    The sum is tried only where n_max >= N, since no sum of exponentials is
    0 past n_max.  With it a block reads only the _BLOCK_STEPS rows before
    it; without it, the min(N, n_max) rows the kernel reaches.  The transfer
    holds those and the _BLOCK_STEPS + 1 rows up to the block's end (sizes
    in ``_renewal_solve``)."""
    reach = min(n_steps, kernel.size - 1)
    exps = _power_exponentials(kernel, reach) if reach == n_steps else None
    return (reach if exps is None else _BLOCK_STEPS) + _BLOCK_STEPS + 1, exps


def _renewal_series(kernel: np.ndarray, n_steps: int) -> np.ndarray:
    """x(0..N) of x(0) = 1, x(n) = sum_{m=1}^{min(n, n_max)} kernel[m] x(n-m),
    the weighted transfer with w = 1: the power series 1/(1 - K(z)),
    K(z) = sum_m kernel[m] z^m, to degree N.

    The first _BLOCK_STEPS steps are one dot each.  A later 64-step block
    takes the lags that reach back before it (its far term y) in one
    ``np.convolve`` window, then solves (I - T_K) x = y, T_K the strictly
    lower Toeplitz of K; the inverse is the lower Toeplitz whose first
    column is x(0..63) itself.  So a block costs two convolves and no
    per-step loop, and the whole series O(N min(N, n_max)).
    """
    n_max = kernel.size - 1
    far = min(_BLOCK_STEPS, n_max)  # the most steps of a block the far term reaches
    # kpad[m] = K(m), zero past n_max, so that every block reads whole windows
    kpad = np.concatenate([kernel, np.zeros(_BLOCK_STEPS)])
    x = np.empty(n_steps + 1)
    x[0] = 1.0
    for n in range(1, min(n_steps, _BLOCK_STEPS) + 1):
        m = min(n, n_max)
        x[n] = kernel[m:0:-1] @ x[n - m : n]
    for n0 in range(_BLOCK_STEPS, n_steps, _BLOCK_STEPS):
        n1 = min(n0 + _BLOCK_STEPS, n_steps)
        past = x[max(0, n0 + 1 - n_max) : n0 + 1]
        f = min(n1 - n0, far)
        block = x[n0 + 1 : n0 + 1 + f]
        block[:] = np.convolve(past, kpad[1 : past.size + f], "valid")
        x[n0 + 1 : n1 + 1] = np.convolve(block, x[: n1 - n0])[: n1 - n0]
    return x


def _renewal_solve(
    kernel: np.ndarray, n_steps: int, weights, n_rows: int, ends=None
) -> np.ndarray:
    """The end sums sum_n e(n) x(n), one a sample, of the weighted transfer
    x(0) = 1, x(n) = w(n) sum_{m=1}^{min(n, n_max)} kernel[m] x(n-m).

    ``kernel`` is [0, K(1), ..., K(n_max)] with any constant site weight
    folded in.  ``weights(n0, out)`` writes w(n0+1..n0+k) for ``n_rows``
    samples into the solve's own time-major (k, n_rows) block buffer
    ``out``, one column a sample, once a block, in time order.  Each block
    adds to the end sums as it is solved.  ``ends`` holds e(n) for the last
    ``ends.size`` n up to N, and e = 0 before them; the default [1] gives
    x(N).

    The steps run in blocks of _BLOCK_STEPS.  The lags of a block's steps
    that reach back before the block (its far history) enter all of them at
    once: one (block x min(N, n_max)) Toeplitz of K times the history rows.
    Each step then adds only its in-block lags.  So the far history costs
    one matrix product per block instead of one matrix-vector product per
    step.

    With n_max >= N and a kernel that ``_power_exponentials`` writes as a
    sum of J exponentials on lags 65..N (a pure power c m^{-p} with p up to
    about 3, and N > 2 (64 + 2J)), the Toeplitz covers only lags 1..127,
    the block before.  The history before that is J accumulators
    H_k = sum_i e^{-s_k (n0 - i)} x(i), which decay by e^{-64 s_k} and take
    in one block a step.  A block then costs (64 + 2J) * 64 per row in
    place of min(N, n_max) * 64, and the far lags hold K within 1e-13
    relative, not to roundoff.  An alpha law (p = 1 + alpha, J ~ 50 at
    alpha = 3/4) takes the sum from N of about 285 on.

    One time-major buffer holds the rows of ``_far_history``, the history
    slid to the front between blocks, and one more holds the block's
    weights.  On the Toeplitz that is min(N, n_max) + 65 rows a sample,
    plus the Toeplitz itself, at most _BLOCK_STEPS * min(N, n_max) floats;
    with the sum of exponentials it is 129 rows a sample, whatever N, plus
    J * (n_rows + 128) floats for the accumulators.  The block buffer adds
    _BLOCK_STEPS rows.  ``sample_pinning`` holds at most 16777
    history rows a sample in its 500-sample tiles, so only the Toeplitz
    past min(N, n_max) = 16712 shrinks them.
    """
    n_max = kernel.size - 1
    held, exps = _far_history(kernel, n_steps)
    hist = held - _BLOCK_STEPS - 1  # the far-history rows a block reads, and the buffer keeps
    far = min(_BLOCK_STEPS, n_max)  # the most steps of a block they reach
    # kpad[m] = K(m), zero past n_max, so that every block reads whole
    # windows; kernel[0] is never read
    kpad = np.concatenate([kernel, np.zeros(_BLOCK_STEPS)])
    # step j of a block dots coef into the buffer rows x(n - c + e .. n - 1 + e),
    # c = coef.size.  While the far history reaches it (j <= n_max) the
    # coef is [K(j-1), ..., K(1), 1] and e = 1: the in-block lags, then the
    # far term, which the row of x(n) holds until the step writes x(n).
    # After that it is [K(n_max), ..., K(1)] and e = 0.
    near = np.append(kpad[_BLOCK_STEPS - 1 : 0 : -1], 1.0)
    steps = [(near[-j:], 1) if j <= n_max else (near[-n_max - 1 : -1], 0)
             for j in range(1, _BLOCK_STEPS + 1)]
    # buffer row i holds x(base + i); time-major, so every step reads and
    # writes contiguous memory
    x = np.empty((min(n_steps + 1, held), n_rows))
    # toeplitz[j - 1, c] = K(hist - 1 + j - c); a block whose far
    # history is p rows long takes the last p columns
    toeplitz = np.ascontiguousarray(sliding_window_view(kpad[1 : hist + far], hist)[:, ::-1])
    if exps is not None:
        exp_near, exp_decay, exp_hist = exps
        acc = np.zeros((exp_decay.size, n_rows))
    buf = np.empty((_BLOCK_STEPS, n_rows))
    if ends is None:
        ends = np.ones(1)
    first = n_steps + 1 - ends.size  # the n of ends[0]
    total = np.full(n_rows, ends[0] if first == 0 else 0.0)  # e(0) x(0)
    x[0] = 1.0
    base = 0
    for n0 in range(0, n_steps, _BLOCK_STEPS):
        n1 = min(n0 + _BLOCK_STEPS, n_steps)
        if n1 - base >= x.shape[0]:  # slide x(n0 - hist .. n0) to the front
            # in runs no longer than the shift, none of which overlaps its
            # source, so that numpy copies no temporary of the whole history
            shift = n0 - hist - base
            for r in range(0, hist + 1, shift):
                k = min(shift, hist + 1 - r)
                x[r : r + k] = x[r + shift : r + shift + k]
            base = n0 - hist
        # the far history x(max(0, n0 + 1 - hist) .. n0) and the rows of
        # the steps it reaches
        past = x[max(base, n0 + 1 - hist) - base : n0 + 1 - base]
        f = min(n1 - n0, far)
        block = x[n0 + 1 - base : n0 + 1 + f - base]
        w = buf[: n1 - n0]
        weights(n0, w)
        # with a sum of exponentials the Toeplitz takes only the block
        # before; the accumulators add the history before that, then take
        # that block in: H <- e^{-64 s} H + hist @ x
        cols = slice(hist - past.shape[0], None)
        np.matmul(toeplitz[:f, cols], past, out=block)
        if exps is not None:
            block += exp_near[:f] @ acc
            acc *= exp_decay
            acc += exp_hist[:, cols] @ past
        for i, (coef, e), w_n in zip(range(n0 + 1 - base, n1 + 1 - base), steps, w):
            np.multiply(coef @ x[i + e - coef.size : i + e], w_n, out=x[i])
        lo = max(n0 + 1, first)
        if lo <= n1:
            total += ends[lo - first : n1 + 1 - first] @ x[lo - base : n1 + 1 - base]
    return total


def renewal_mass(law: RenewalLaw, n_points: int) -> np.ndarray:
    """u(n) = P(n in tau) for n = 0..n_points, the series 1/(1 - K):
    64 steps, then two convolves per 64-step block."""
    _check_cap(n_points)
    return _renewal_series(law.probs, n_points)


def _check_tail_range(law: RenewalLaw, n_steps: int) -> None:
    if law.regime == "alpha" and n_steps > law.n_max:
        raise InputError(
            f"N = {n_steps} exceeds the stored tail range n_max = {law.n_max}; "
            "beyond it the folded law no longer has the declared tail index"
        )


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


def _array_weights(weights: np.ndarray):
    """The block form ``_renewal_solve`` reads of a fixed (samples, N) array
    of site weights."""
    return lambda n0, out: np.copyto(out, weights[:, n0 : n0 + out.shape[0]].T)


def path_end(law: RenewalLaw, n_steps: int, mode: str):
    """(tail, norm) of the way a path of N = ``n_steps`` steps ends: it ends
    at n with weight tail[N - n] / norm, 0 past the end of tail.

    A free path ends free, tail(m) = P(tau_1 > m) for m = 0..min(N, n_max)
    (it is 0 past n_max), and norm 1.  A conditioned one ends at N, tail
    [1], and is divided by norm u(N), which is solved here once a call.
    """
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    _check_cap(n_steps)
    if mode == "free":
        return law.tail(min(n_steps, law.n_max)), 1.0
    u_n = renewal_mass(law, n_steps)[n_steps]
    if u_n <= 0.0:
        raise ConditioningError(f"u({n_steps}) = 0: cannot condition")
    return np.ones(1), u_n


def partition_function(
    law: RenewalLaw, omega, beta: float, h: float, mode: str = "conditioned"
) -> float:
    """Pinning partition function by the transfer recursion.

    z(0) = 1, z(n) = e^{beta omega_n - Lambda(beta) + h} sum_m z(n-m) K(m);
    conditioned mode returns z(N)/u(N), free mode sums z(n) P(tau_1 > N-n).
    """
    omega = np.array(omega, dtype=float)  # a copy, weighted in place
    if omega.ndim != 1:
        raise InputError(f"omega must be 1-D, one value a site, not of shape {omega.shape}")
    weights = site_weights(omega[None], beta, GAUSSIAN_DISORDER, h)
    return float(partition_function_batch(law, _array_weights(weights), 1, omega.size, mode)[0])


def partition_function_batch(
    law: RenewalLaw, weights, n_samples: int, n_steps: int, mode: str = "conditioned"
) -> np.ndarray:
    """Vectorized transfer recursion over ``n_samples`` rows of site weights
    e^{beta omega_n - Lambda(beta) + h}, n = 1..N = ``n_steps``.

    The weights come in time blocks: ``weights(n0, out)`` writes
    w_{n0+1..n0+k} of every sample into the time-major (k, n_samples) block
    ``out`` of the transfer's own, once a block, in time order.  So no
    (samples, N) array need exist; ``_array_weights`` reads a fixed one.

    Each 64-step block takes the history before it in one matrix product,
    (64 x min(N, n_max)) by (min(N, n_max) x samples), or, for an alpha law
    with n_max > N, as a sum of exponential accumulators, and then runs its
    steps over their in-block lags only (see ``_renewal_solve``, which also
    gives the sizes).  ``path_end`` gives how a path ends, which the transfer
    adds up block by block: the free sum of x(n) P(tau_1 > N - n), or x(N)
    divided by u(N) when conditioned.  So it holds only the history its
    blocks read.
    """
    # before the transfer, so that the u(N) solve's buffer never meets its buffers
    tail, norm = path_end(law, n_steps, mode)
    return _renewal_solve(law.probs, n_steps, weights, n_samples, tail[::-1].copy()) / norm


_PINNING_TILE = 500  # samples a tile of sample_pinning draws from its own Generator
_PINNING_HISTORY = 1 << 23  # the most history values one pinning transfer holds


def sample_pinning(
    law: RenewalLaw,
    beta_hat: float,
    h_hat: float,
    n_steps: int,
    n_samples: int,
    seed: int,
    mode: str = "conditioned",
    disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER,
) -> np.ndarray:
    """Partition-function samples at the scaled couplings (beta_N, h_N).

    The samples split into tiles of _PINNING_TILE.  Tile i draws from the
    i-th Generator spawned from ``SeedSequence(seed)`` and goes through one
    transfer call, which reads its site weights a 64-step block at a time,
    time-major: w_n of every sample of the tile, then w_{n+1}.  The tile's
    thread draws each block straight into the transfer's block buffer as
    the transfer reads it and turns it into site weights there, so no
    (samples, N) omega is built; the memory is the transfer's, which
    ``_renewal_solve`` sizes.  Where the history rows of ``_far_history``
    would pass _PINNING_HISTORY values (67 MB), a tile has fewer samples.

    One tile runs on the calling thread.  More run on the draw pool, as
    many at once as hold _PINNING_HISTORY history values between them: a
    draw releases the GIL, so one tile draws while another runs its
    per-step loop.  The tiles depend on neither the core count nor each
    other, and a call of one tile gives the samples of tile 0 of any call.
    """
    beta_n, h_n = scale_couplings(law, beta_hat, h_hat, n_steps)
    _check_cap(n_steps)
    history = _far_history(law.probs, n_steps)[0]
    tile = min(_PINNING_TILE, max(1, _PINNING_HISTORY // history))
    streams = np.random.SeedSequence(seed).spawn(math.ceil(n_samples / tile))
    out = np.empty(n_samples)

    def run(pos, ss):
        rng = np.random.default_rng(ss)

        def source(n0, block):
            disorder.fill(rng, block)
            site_weights(block, beta_n, disorder, h_n)

        size = min(tile, n_samples - pos)
        out[pos : pos + size] = partition_function_batch(law, source, size, n_steps, mode)

    dists.run_on_pool([(run, pos, ss) for pos, ss in zip(range(0, n_samples, tile), streams)],
                      max(1, _PINNING_HISTORY // (history * tile)))
    return out


def pinning_alpha_reference(
    alpha: float,
    beta_hat: float,
    cells: int = 32,
    n_samples: int = 10_000,
    seed: int = 0,
) -> np.ndarray:
    """Reference sample of the conditioned alpha-regime chaos limit on the
    lattice t = n/M, M = ``cells``.

    The degree-k kernel c_alpha^k prod_{i=1}^{k+1} (t_i - t_{i-1})^{alpha-1},
    with t_0 = 0 and t_{k+1} = 1, is a renewal product, so on the lattice the
    series over every degree is the pinning transfer: x(0) = 1 and
    x(n) = w(n) sum_m K(m) x(n - m) with K(m) = (m/M)^{alpha-1},
    w(n) = beta_hat c_alpha W_n for n < M and w(M) = 1, and Z = x(M).  The
    empty site set gives K(M) = 1, the degree-0 term.  W_1..W_{M-1} are the
    first M - 1 cells of ``wiener.sample_noise_batch``, each N(0, 1/M).  A
    finite lattice has a finite series, so nothing is truncated.  K is a
    power m^{-p} with p = 1 - alpha; at alpha = 3/4 the sum of exponentials
    of ``_renewal_solve`` needs J = 39 to 48 terms from M = 285 to 2560, so
    from there the solve holds the rows and J accumulators that its
    docstring sizes, and 5,000 rows take about 0.9 s at M = 2048.  It returns
    x(M) alone.  The same recursion on K^2 with w(n) = (beta_hat c_alpha)^2 / M
    for n < M gives the exact grid E Z^2; at alpha = 3/4 the grid variance
    is 0.912 of the continuum value at M = 128, a deficit that falls like
    M^{-(2 alpha - 1)}.
    """
    if beta_hat <= 0:
        raise InputError("beta_hat must be positive")
    w = beta_hat * c_alpha(alpha) * wiener.sample_noise_batch(cells, seed, n_samples)
    w[:, -1] = 1.0
    kernel = np.append(0.0, (np.arange(1, cells + 1) / cells) ** (alpha - 1.0))
    return _renewal_solve(kernel, cells, _array_weights(w), n_samples)


# ---------------------------------------------------------------------------
# exact second moments
# ---------------------------------------------------------------------------


def _chaos_second_moment(meeting, n_steps: int, gamma: float, ends) -> float:
    """E[Z^2] = sum_{n<=N} R(n) e(N - n) for a pair of chains with meeting
    mass G = ``meeting``, G(0) = 1, and end weights e = ``ends``.  Each
    meeting carries a centred weight of variance s = e^gamma - 1, so degree
    k of the chaos has squared mass (s (G - delta_0))^{*k}, and R, their sum
    over k, is one renewal solve on the nonnegative kernel s G."""
    try:
        kernel = math.expm1(gamma) * meeting
    except OverflowError:
        raise NumericError(f"e^gamma = inf at gamma = {gamma!r}; lower beta_hat or N") from None
    m2 = float(_renewal_series(kernel, n_steps) @ ends[::-1])
    if not math.isfinite(m2):
        raise NumericError(f"E[Z^2] = {m2!r} is not finite; lower beta_hat or N")
    return m2


def second_moment_exact(
    law: RenewalLaw,
    n_steps: int,
    beta: float,
    h: float,
    mode: str = "conditioned",
    disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER,
) -> float:
    """E[Z^2] over the disorder, exactly, as the pair of chains' chaos sum.

    Averaging the disorder leaves site weights e^{2h + gamma} where both
    renewal chains visit and e^h where exactly one does.  With
    d = 1/(1 - e^h K) the chains meet with mass G = d^2 at gamma = 0.
    A chain ends at n with t(n)/norm, t(n) = sum_m d(m) tail(n - m), from
    the (tail, norm) of ``path_end``, and the pair with its square.  So
    conditioned mode ends the pair with G/u(N)^2, and free mode with t1^2,
    t1(n) = sum_m d(m) P(tau_1 > n - m), a convolution of positive terms
    that keeps its relative accuracy at any bias.  The series solves, for
    d, u(N) when conditioned and the chaos sum, are O(N^2), in 64-step
    blocks of two convolves each.
    """
    tail, norm = path_end(law, n_steps, mode)
    gamma = overlap_weight(beta, disorder)
    d = _renewal_series(math.exp(h) * law.probs, n_steps)
    t = np.convolve(d, tail)[: n_steps + 1]
    ends = t * t / (norm * norm)
    return _chaos_second_moment(d * d, n_steps, gamma, ends)


def continuum_second_moment(
    law: RenewalLaw, beta_hat: float, h_hat: float, mode: str
) -> float:
    """Second moment at time 1 of the continuum limit of ``law``'s model.

    Finite-mean regime: the lognormal moment exp(2 rho h + rho^2 b^2),
    rho = 1/E[tau_1].  Alpha regime: the bias is integrated out gap by gap
    in closed form (Liouville simplex integrals), leaving a double series in
    beta_hat^2 and h_hat whose coefficients are pure Gamma-function
    expressions.  It is summed by total degree in (beta_hat^2, h_hat) until
    the terms vanish.  For h_hat = 0 it reduces to
    1 + sum_k b^{2k} C_a^{2k} Gamma(1-chi)^{k+1} / Gamma((k+1)(1-chi))
    with chi = 2(1-alpha) in conditioned mode.
    """
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    if law.regime == "finite_mean":
        rho = 1.0 / law.mean()
        try:
            m2 = math.exp(2.0 * rho * h_hat + rho * rho * beta_hat * beta_hat)
        except OverflowError:
            raise NumericError("the continuum second moment overflows; "
                               "lower beta_hat or h_hat") from None
        if m2 == 0.0:
            raise NumericError("the continuum second moment underflows to 0; raise h_hat")
        return m2
    alpha = law.alpha
    ca = c_alpha(alpha)
    x = (beta_hat * ca) ** 2
    y = h_hat * ca
    conditioned = mode == "conditioned"
    # r pair gaps closed by a common point: j + 1 when conditioned (the last
    # one closed at 1), j in free mode, which ends with the trailing stretch
    shift = 0.0 if conditioned else 1.0

    def pair_sum(log_w, log_gamma):
        d = len(log_w) - 1
        return sum(math.exp(log_w[a] + log_w[d - a] + log_gamma) for a in range(d + 1))

    def terms():
        # log c_j = log Gamma(alpha)^{j+1} / Gamma((j+1) alpha) and
        # log f_j = log Gamma(alpha)^j / Gamma(j alpha + 1), the gap polynomials' factors
        log_c, log_f, gap, trail = [], [], [], []
        rows = []  # rows[j][m]: the y^m coefficient of gap^r, times trail in free mode
        for d in itertools.count():
            # a pair gap holding d bias points: sum_{a+b=d} c_a c_b Gamma((d+2) alpha - 1);
            # the free trailing stretch has f_a f_b Gamma(d alpha + 1) in their place.
            # Without a bias only degree 0 is read.
            if y or not gap:
                log_c.append((d + 1) * math.lgamma(alpha) - math.lgamma((d + 1) * alpha))
                gap.append(pair_sum(log_c, math.lgamma((d + 2) * alpha - 1.0)))
                if not conditioned:
                    log_f.append(d * math.lgamma(alpha) - math.lgamma(d * alpha + 1.0))
                    trail.append(pair_sum(log_f, math.lgamma(d * alpha + 1.0)))
            term = 0.0
            # degree j in x and m = d - j in y; a zero x or y keeps only its degree 0
            for j in range(0 if y else d, (d if x else 0) + 1):
                m = d - j
                if j == len(rows):
                    rows.append([])
                rows[j].append(np.dot(rows[j - 1][: m + 1], gap[m::-1]) if j
                               else (gap if conditioned else trail)[m])
                r = j + 1 if conditioned else j
                term += x**j * y**m * math.exp(math.log(max(rows[j][m], 5e-324))
                                               - math.lgamma((m + 2 * r) * alpha - r + shift))
            yield term

    with np.errstate(over="ignore"):  # an overflowed coefficient ends the sum as not finite
        return simplex.sum_series(terms(), "beta_hat or |h_hat|")


def lognormal_limit_law(law: RenewalLaw, beta_hat: float, h_hat: float):
    """(drift, volatility) of log Z-bar at time 1 in the finite-mean limit:
    N(rho h - rho^2 b^2 / 2, rho^2 b^2), rho = 1/E[tau_1]."""
    if law.regime != "finite_mean":
        raise DomainError("the lognormal limit holds for finite-mean laws only")
    rho = 1.0 / law.mean()
    drift = rho * h_hat - 0.5 * rho * rho * beta_hat * beta_hat
    return drift, rho * abs(beta_hat)
