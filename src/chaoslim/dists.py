"""Small probability-law helpers shared by the chaos, tilting and model modules.

Everything here is either an exact finite atom list or a closed-form law, so
that expectations used in bounds and oracles are exact finite sums.  Both
law types serve as Lindeberg inputs and as model disorder alike, and
``fill(rng, out)`` draws either into a caller's array, in C order.  The
model samplers draw on one shared thread pool, ``run_on_pool``.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError

_ATOL = 1e-12
# 1/k! for k = 19 down to 2: the Horner coefficients of e^x - 1 - x on |x| < 1
_EXP_TAIL_COEFS = tuple(1.0 / math.factorial(k) for k in range(19, 1, -1))
_POOL = None  # the draw pool, built on first use


@dataclass(frozen=True)
class Atoms:
    """Discrete law given by atoms ``values`` with probabilities ``probs``."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.ndim != 1 or p.shape != v.shape:
            raise InputError("values and probs must be 1-d arrays of equal length")
        if np.any(p < -_ATOL):
            raise InputError("negative probability")
        if abs(p.sum() - 1.0) > 1e-9:
            raise InputError(f"probabilities sum to {p.sum()!r}, not 1")
        order = np.argsort(v)
        object.__setattr__(self, "values", v[order])
        object.__setattr__(self, "probs", np.clip(p[order], 0.0, None))

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def second_moment(self) -> float:
        return float((self.values**2) @ self.probs)

    def var(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def m2_above(self, m: float) -> float:
        """E[X^2 1_{|X| > m}], exact."""
        mask = np.abs(self.values) > m
        return float((self.values[mask] ** 2) @ self.probs[mask])

    def m3_below(self, m: float) -> float:
        """E[|X|^3 1_{|X| <= m}], exact."""
        mask = np.abs(self.values) <= m
        return float((np.abs(self.values[mask]) ** 3) @ self.probs[mask])

    def standardized(self) -> "Atoms":
        sd = math.sqrt(self.var())
        if sd == 0.0:
            raise InputError("degenerate law cannot be standardized")
        return Atoms((self.values - self.mean()) / sd, self.probs)

    def log_mgf(self, t: float) -> float:
        x = t * self.values
        if np.max(np.abs(x)) < 1.0:
            # log1p(t E[X] + E[e^{tX} - 1 - tX]) keeps its relative accuracy as
            # t -> 0, where the log-sum-exp below cancels against log 1
            tail = np.zeros_like(x)
            for c in _EXP_TAIL_COEFS:
                tail = tail * x + c
            return math.log1p(t * self.mean() + float(self.probs @ (tail * x * x)))
        a = x + np.log(np.maximum(self.probs, 1e-300))
        amax = a.max()
        return float(amax + np.log(np.exp(a - amax).sum()))

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """The draws of ``rng.choice(values, out.shape, p=probs)``: a uniform
        each, inverted through the cdf, without choice's uniform and value
        arrays; ``out`` holds the uniforms, then the values."""
        cdf = np.cumsum(self.probs / self.probs.sum())
        cdf /= cdf[-1]
        idx = cdf.searchsorted(rng.random(out=out), side="right")
        # mode="raise" would gather into a temporary before writing out
        return np.take(self.values, idx, out=out, mode="clip")


RADEMACHER = Atoms(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


class StdGaussian:
    """Standard normal with closed-form truncated moments."""

    def mean(self):
        return 0.0

    def m2_above(self, m: float) -> float:
        if not math.isfinite(m):
            return 0.0
        if m <= 0:
            return 1.0
        phi = math.exp(-0.5 * m * m) / math.sqrt(2 * math.pi)
        tail = 0.5 * math.erfc(m / math.sqrt(2))
        return 2.0 * (m * phi + tail)

    def m3_below(self, m: float) -> float:
        # 2 * int_0^m x^3 phi(x) dx = sqrt(2/pi) * (2 - (m^2+2) e^{-m^2/2})
        if not math.isfinite(m):
            return 2.0 * math.sqrt(2.0 / math.pi)
        if m <= 0:
            return 0.0
        return math.sqrt(2.0 / math.pi) * (2.0 - (m * m + 2.0) * math.exp(-0.5 * m * m))

    def log_mgf(self, t: float) -> float:
        return 0.5 * t * t

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return rng.standard_normal(out=out)


# the default disorder law of every model; a law's Lambda(t) is its log_mgf
GAUSSIAN_DISORDER = StdGaussian()


def overlap_weight(beta: float, disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER) -> float:
    """gamma(beta) = Lambda(2 beta) - 2 Lambda(beta), the weight a shared site
    carries in E[Z^2] for pinning and the polymer alike."""
    lam2 = disorder.log_mgf(2.0 * beta)
    if not math.isfinite(lam2):
        raise DomainError("Lambda(2 beta) must be finite")
    return lam2 - 2.0 * disorder.log_mgf(beta)


def site_weights(out: np.ndarray, beta: float, disorder: Atoms | StdGaussian,
                 h: float = 0.0) -> np.ndarray:
    """The site weights e^{beta x - Lambda(beta) + h} of every transfer,
    written over the disorder values x in ``out``."""
    out *= beta
    out -= disorder.log_mgf(beta)
    if h:
        out += h
    return np.exp(out, out=out)


def cpu_count() -> int:
    """The CPUs this process may run on: the draw pool's workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool():
    """The draw pool, one worker a CPU, built on first use."""
    global _POOL
    if _POOL is None:
        # imported here: the module costs 13 ms, which a run without a pool skips
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(cpu_count(), thread_name_prefix="chaoslim-draw")
    return _POOL


def run_on_pool(calls, at_once: int | None = None) -> None:
    """Run each ``(function, *args)`` of ``calls`` on the draw pool, one
    worker a CPU, while the caller waits; ``at_once`` calls at a time at
    most, in call order, so that a caller can bound the memory its calls
    hold between them.  A lone call runs on the calling thread and builds
    no pool.

    numpy draws and fills arrays without the GIL, so the workers overlap
    each other and any Python loop that holds it.  Each call runs in a copy
    of the caller's contextvars context, which holds ``np.errstate``; a
    worker's own context would warn where the caller silenced.  A round
    waits for all of its calls, then raises the first error among them in
    call order, so no call is left running when the caller moves on.
    """
    if len(calls) < 2:
        for function, *args in calls:
            function(*args)
        return
    at_once = at_once or len(calls)
    for r in range(0, len(calls), at_once):
        tasks = [_pool().submit(contextvars.copy_context().run, *call)
                 for call in calls[r : r + at_once]]
        for err in [t.exception() for t in tasks]:  # waits for every call first
            if err is not None:
                raise err
