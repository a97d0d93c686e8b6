"""Sparse multi-linear polynomial (polynomial chaos) algebra.

A kernel maps finite index sets I (canonical sorted tuples of ints) to real
coefficients psi(I); the associated polynomial is

    Psi(x) = sum_I psi(I) * prod_{i in I} x_i,   with x^emptyset = 1.

The module provides evaluation, the squared-coefficient mass C_Psi, variable
influences, degree truncation, the (1+eps)^{|I|/2} inflation, the exact
mean-shift transform, truncated-moment extraction, and the two computable
Lindeberg-type distance bounds (zero-mean and mean-shifted).

Conventions: the empty-set entry is stored like any other coefficient but is
excluded from ``c_psi`` and ``influence``, which describe the fluctuating
part only.  Kernels are immutable value objects; every operation returns a
new kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .dists import Atoms, StdGaussian, VariableFamily  # noqa: F401  (re-export)
from .errors import InputError, PreconditionError

IndexSet = tuple[int, ...]

_ZERO_TOL = 0.0  # exact zeros are dropped; everything else is kept


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
            if c == _ZERO_TOL:
                continue
            clean[_canonical(index_set)] = c
        object.__setattr__(self, "entries", MappingProxyType(clean))

    def __len__(self) -> int:
        return len(self.entries)

    def coefficient(self, index_set) -> float:
        return self.entries.get(_canonical(index_set), 0.0)

    def degree(self) -> int:
        return max((len(i) for i in self.entries), default=0)

    def sites(self) -> set[int]:
        out: set[int] = set()
        for index_set in self.entries:
            out.update(index_set)
        return out


def eval_multilinear(kernel: Kernel, values: Mapping[int, float]) -> float:
    """Evaluate Psi(x) = sum_I psi(I) prod_{i in I} x_i at the given point."""
    total = 0.0
    for index_set, coef in kernel.entries.items():
        term = coef
        for i in index_set:
            if i not in values:
                raise InputError(f"no value supplied for site {i}")
            term *= values[i]
        total += term
    return total


def c_psi(kernel: Kernel) -> float:
    """Sum of squared coefficients over non-empty index sets.

    Equals Var(Psi(zeta)) for independent zero-mean unit-variance inputs.
    """
    return sum(c * c for i, c in kernel.entries.items() if i)


def influence(kernel: Kernel, site: int) -> float:
    """Squared-coefficient mass of the entries containing ``site``."""
    site = int(site)
    return sum(c * c for i, c in kernel.entries.items() if site in i)


def max_influence(kernel: Kernel) -> float:
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


def epsilon_inflate(kernel: Kernel, eps: float) -> Kernel:
    """Scale each entry by (1+eps)^{|I|/2}."""
    if eps < 0:
        raise InputError("eps must be >= 0")
    return Kernel({i: c * (1.0 + eps) ** (len(i) / 2.0) for i, c in kernel.entries.items()})


def shift_kernel(kernel: Kernel, mu: Mapping[int, float]) -> Kernel:
    """Kernel of x -> Psi(x + mu): psi~(J) = sum_{I >= J} psi(I) mu^{I \\ J}.

    Exact algebraic identity: eval(shifted, x) == eval(kernel, x + mu).
    """
    support = {int(i): float(v) for i, v in mu.items() if float(v) != 0.0}
    out: dict[IndexSet, float] = {}
    for index_set, coef in kernel.entries.items():
        movable = [i for i in index_set if i in support]
        fixed = tuple(i for i in index_set if i not in support)
        m = len(movable)
        for mask in range(1 << m):
            kept = []
            weight = coef
            for b in range(m):
                if mask >> b & 1:
                    kept.append(movable[b])
                else:
                    weight *= support[movable[b]]
            j = tuple(sorted(fixed + tuple(kept)))
            out[j] = out.get(j, 0.0) + weight
    return Kernel({j: c for j, c in out.items() if c != 0.0})


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
    threshold: float = math.inf

    def __post_init__(self):
        if self.m2_above < 0 or self.m3_below < 0:
            raise InputError("truncated moments must be nonnegative")


def truncated_moments(variables: Iterable, threshold: float) -> TruncatedMoments:
    """Compute maximal truncated moments over a family of laws.

    Each element may be an :class:`Atoms` law, a :class:`StdGaussian`, or a
    1-d array of samples (reduced to a weighted atom list after empirical
    standardization).  Exact laws must be centered; non-centered input is an
    error rather than silently recentered.
    """
    m2 = 0.0
    m3 = 0.0
    for v in variables:
        if isinstance(v, StdGaussian):
            law = v
        else:
            if not isinstance(v, Atoms):
                law = Atoms.from_samples(np.asarray(v, dtype=float)).standardized()
            else:
                law = v
            if abs(law.mean()) > 1e-9:
                raise InputError(f"variable is not centered: mean={law.mean():.3e}")
        m2 = max(m2, law.m2_above(threshold))
        m3 = max(m3, law.m3_below(threshold))
    return TruncatedMoments(m2, m3, threshold)


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


def lindeberg_bound_mean(
    kernel: Kernel,
    eps: float,
    c_mu: float,
    ell: int,
    moments: TruncatedMoments,
    c_f: float,
) -> float:
    """Mean-shifted variant: inputs are zeta + mu with sum mu_i^2 = c_mu.

    Evaluates exp(2 c_mu / eps) times the zero-mean bound applied to the
    (1+eps)-inflated kernel.
    """
    if eps <= 0:
        raise InputError("eps must be > 0")
    if c_mu < 0:
        raise InputError("c_mu must be >= 0")
    inflated = epsilon_inflate(kernel, eps)
    return math.exp(2.0 * c_mu / eps) * lindeberg_bound(inflated, ell, moments, c_f)


# ---------------------------------------------------------------------------
# serialization: one entry per line, "i1,i2,...<TAB>coefficient", "-" for the
# empty set; round-trips exactly for any float (repr is shortest-exact).
# ---------------------------------------------------------------------------


def dumps_kernel(kernel: Kernel) -> str:
    lines = []
    for index_set in sorted(kernel.entries, key=lambda i: (len(i), i)):
        head = ",".join(str(s) for s in index_set) if index_set else "-"
        lines.append(f"{head}\t{float(kernel.entries[index_set])!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def loads_kernel(text: str) -> Kernel:
    entries: dict[IndexSet, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, value = line.split("\t")
        except ValueError as err:
            raise InputError(f"line {lineno}: expected 'sites<TAB>coef'") from err
        index_set = () if head == "-" else tuple(int(s) for s in head.split(","))
        key = _canonical(index_set)
        if key in entries:
            raise InputError(f"line {lineno}: duplicate index set {key}")
        entries[key] = float(value)
    return Kernel(entries)


def save_kernel(kernel: Kernel, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_kernel(kernel))


def load_kernel(path) -> Kernel:
    with open(path, "r", encoding="ascii") as fh:
        return loads_kernel(fh.read())
