"""Sparse multi-linear polynomial (polynomial chaos) algebra.

A kernel maps finite index sets I (canonical sorted tuples of ints) to real
coefficients psi(I); the associated polynomial is

    Psi(x) = sum_I psi(I) * prod_{i in I} x_i,   with x^emptyset = 1.

The module provides the squared-coefficient mass C_Psi, the maximal variable
influence, degree truncation, truncated-moment extraction, and the
computable Lindeberg-type distance bound for zero-mean inputs.

Conventions: the empty-set entry is stored like any other coefficient but is
excluded from ``c_psi`` and ``max_influence``, which describe the
fluctuating part only.  Kernels are immutable value objects; every operation returns a
new kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .dists import Atoms, StdGaussian
from .errors import InputError, PreconditionError

IndexSet = tuple[int, ...]


def _canonical(index_set) -> IndexSet:
    t = tuple(int(i) for i in index_set)
    if len(set(t)) != len(t):
        raise InputError(f"index set {t} has repeated sites")
    return tuple(sorted(t))


@dataclass(frozen=True)
class Kernel:
    """Immutable sparse kernel of a multi-linear polynomial."""

    entries: Mapping[IndexSet, float]

    def __post_init__(self):
        clean = {}
        for index_set, coef in self.entries.items():
            c = float(coef)
            if c == 0.0:
                continue
            clean[_canonical(index_set)] = c
        object.__setattr__(self, "entries", MappingProxyType(clean))


def c_psi(kernel: Kernel) -> float:
    """Sum of squared coefficients over non-empty index sets.

    Equals Var(Psi(zeta)) for independent zero-mean unit-variance inputs.
    """
    return sum(c * c for i, c in kernel.entries.items() if i)


def max_influence(kernel: Kernel) -> float:
    """Largest squared-coefficient mass of the entries containing one site."""
    acc: dict[int, float] = {}
    for index_set, coef in kernel.entries.items():
        for i in index_set:
            acc[i] = acc.get(i, 0.0) + coef * coef
    return max(acc.values(), default=0.0)


def truncate(kernel: Kernel, ell: int) -> tuple[Kernel, Kernel]:
    """Split into (entries with |I| <= ell, entries with |I| > ell)."""
    if ell < 0:
        raise InputError("truncation degree must be >= 0")
    low = {i: c for i, c in kernel.entries.items() if len(i) <= ell}
    high = {i: c for i, c in kernel.entries.items() if len(i) > ell}
    return Kernel(low), Kernel(high)


# ---------------------------------------------------------------------------
# truncated moments and Lindeberg-type bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedMoments:
    """Maximal truncated moments of a collection of standardized variables.

    ``m2_above``  = sup_X E[X^2 1_{|X| >  M}]
    ``m3_below``  = sup_X E[|X|^3 1_{|X| <= M}]
    """

    m2_above: float
    m3_below: float

    def __post_init__(self):
        if self.m2_above < 0 or self.m3_below < 0:
            raise InputError("truncated moments must be nonnegative")


def truncated_moments(laws: Iterable[Atoms | StdGaussian], threshold: float) -> TruncatedMoments:
    """Compute maximal truncated moments over a family of laws.

    Laws must be centered; non-centered input is an error rather than
    silently recentered.
    """
    m2 = 0.0
    m3 = 0.0
    for law in laws:
        if abs(law.mean()) > 1e-9:
            raise InputError(f"variable is not centered: mean={law.mean():.3e}")
        m2 = max(m2, law.m2_above(threshold))
        m3 = max(m3, law.m3_below(threshold))
    return TruncatedMoments(m2, m3)


def lindeberg_bound(
    kernel: Kernel, ell: int, moments: TruncatedMoments, c_f: float
) -> float:
    """Computable bound on |E f(Psi(zeta)) - E f(Psi(xi))| for zero-mean inputs.

    Both input families must be independent, zero mean, unit variance, with
    maximal truncated moments given by ``moments``; f must be C^3 with
    max(|f'|, |f''|, |f'''|) <= c_f.  Requires m2_above <= 1/4.
    """
    if moments.m2_above > 0.25:
        raise PreconditionError(
            f"m2 above threshold is {moments.m2_above:.4f} > 1/4; "
            "increase the truncation level M"
        )
    if ell < 1:
        raise InputError("truncation degree ell must be >= 1")
    low, high = truncate(kernel, ell)
    c_low = c_psi(low)
    c_high = c_psi(high)
    if c_low == 0.0 and c_high == 0.0:
        return 0.0
    tail = 2.0 * math.sqrt(c_high)
    second = c_low * 16.0 * ell * ell * moments.m2_above
    third = (
        c_low
        * 70.0 ** (ell + 1)
        * moments.m3_below**ell
        * math.sqrt(max_influence(low))
    )
    return c_f * (tail + second + third)
