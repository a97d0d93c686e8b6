"""Ordered-simplex integrals of products of power-law gap factors.

The central object is

    D_k(chi) = int_{0 < t_1 < ... < t_k < 1}
               t_1^{-chi} (t_2-t_1)^{-chi} ... (t_k-t_{k-1})^{-chi}
               [ (1-t_k)^{-chi} ]  dt_1 ... dt_k

with the bracketed last-gap factor present in the "conditioned" variant and
absent in the "free" one.  Every continuum limit lives on [0, 1], so these
are taken at time 1.  Both have Gamma-function closed forms (Liouville /
Dirichlet-density identities); the free one gives the terms of the polymer's
continuum second-moment series.  The pinning double series integrates its
bias gap by gap and writes its own Gamma coefficients.  Both series are
summed by ``sum_series``, which runs until their terms vanish.  A nested
Gauss-Jacobi quadrature of the same integral, built without the closed
form, serves as the numerical oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, InputError, NumericError

_SERIES_TERMS = 400  # the most terms sum_series takes before it gives up
_SERIES_RTOL = 1e-17  # below half an ulp of the sum, so the term adds nothing


def sum_series(terms) -> float:
    """Sum ``terms`` (an iterable over degrees 0, 1, ...) until they vanish.

    Stops at the first term after degree 0 that is at most 1e-17 of the
    running sum, which no longer changes it.  A sum that is not finite, a
    term that overflows, or 400 terms without stopping is a NumericError:
    the series is not summable in floating point.
    """
    total, k = 0.0, -1
    try:
        for k, term in zip(range(_SERIES_TERMS), terms):
            total += term
            if not math.isfinite(total):
                break
            if k and abs(term) <= _SERIES_RTOL * abs(total):
                return total
    except OverflowError:
        pass
    raise NumericError(
        f"continuum series not summable: partial sum {total!r} after {k + 1} terms; "
        "lower beta_hat"
    )


def dirichlet_closed_form(k: int, chi: float, conditioned: bool) -> float:
    """Closed form of the ordered-simplex gap integral on (0, 1).

    conditioned: Gamma(1-chi)^{k+1} / Gamma((k+1)(1-chi))
    free:        Gamma(1-chi)^k     / Gamma(k(1-chi)+1)
    """
    if k < 0:
        raise InputError("k must be >= 0")
    if chi >= 1.0:
        raise DomainError(f"chi = {chi} >= 1: gap factors are not integrable")
    from scipy.special import gammaln
    a = 1.0 - chi
    if conditioned:
        log_val = (k + 1) * gammaln(a) - gammaln((k + 1) * a)
    else:
        log_val = k * gammaln(a) - gammaln(k * a + 1.0)
    return float(math.exp(log_val))


@lru_cache(maxsize=128)
def _rule_01(order: int, upper: float, lower: float):
    """Nodes u and weights w with  int_0^1 g(u) (1-u)^upper u^lower du = sum w g(u).

    ``upper``/``lower`` are the endpoint exponents absorbed into the rule.
    """
    if upper == 0.0 and lower == 0.0:
        x, w = np.polynomial.legendre.leggauss(order)
    else:
        from scipy.special import roots_jacobi
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

    Independent of the Gamma closed form: the k-dimensional integral is
    evaluated as k nested one-dimensional quadratures with the power-law
    endpoint weights absorbed into each rule.  Cost grows like order**k.
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
