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
summed by ``sum_series``, which runs until their terms vanish.  The
numerical oracle, a nested Gauss-Jacobi quadrature of the same integral
built without the closed form, lives in the tests.
"""

from __future__ import annotations

import math

from .errors import DomainError, InputError, NumericError

_SERIES_TERMS = 400  # the most terms sum_series takes before it gives up
_SERIES_RTOL = 1e-17  # below half an ulp of the sum, so the term adds nothing


def sum_series(terms, lower: str) -> float:
    """Sum ``terms`` (an iterable over degrees 0, 1, ...) until they vanish.

    Stops at the first term after degree 0 that is at most 1e-17 of the
    running sum, which no longer changes it.  A sum that is not finite, a
    term that overflows, or 400 terms without stopping is a NumericError
    that names the couplings to ``lower``: the series is not summable.
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
        f"lower {lower}"
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
    a = 1.0 - chi
    if conditioned:
        log_val = (k + 1) * math.lgamma(a) - math.lgamma((k + 1) * a)
    else:
        log_val = k * math.lgamma(a) - math.lgamma(k * a + 1.0)
    return math.exp(log_val)
