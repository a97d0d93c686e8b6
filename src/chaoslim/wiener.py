"""Discretized white noise on [0, 1], factorized Wiener-chaos series and the
Cameron-Martin weight.

White noise on [0, 1] is discretized on n equal cells: the cell values are
i.i.d. centered Gaussians with variance 1/n, drawn from a counter-based
generator so that the field is a pure function of (seed, cell index).  A
field is a row of ``sample_noise_batch``, and every evaluation below takes a
matrix of such rows and reads the cell count from its width.

A factorized chaos series has the constant degree-k kernel rho^k.  Its
degree-k multiple integral sums over ordered k-tuples of *pairwise
distinct* cells (off-diagonal, so the Ito isometry holds exactly on the
grid), which is k! times the elementary symmetric polynomial e_k of the cell
values.  A constant bias mu0 dy integrates to mu0 over [0, 1], and the
regrouped series is summed in degree-ascending order after an L2
summability check.  The Cameron-Martin weight completes the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError


def sample_noise_batch(n_cells: int, seed: int, n: int) -> np.ndarray:
    """Matrix of n independent fields (rows) of ``n_cells`` i.i.d.
    N(0, 1/n_cells) values, field j keyed by (seed, j).

    Philox is counter-based: draw i is a fixed function of (seed, i), so a
    field does not depend on evaluation order.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.standard_normal((n, n_cells)) * math.sqrt(1.0 / n_cells)


def elementary_symmetric(vals: np.ndarray, k_max: int) -> np.ndarray:
    """e_0..e_k_max of the entries of ``vals`` (last axis), Newton identities.

    Returns shape vals.shape[:-1] + (k_max+1,).  k! * e_k equals the
    off-diagonal sum of ordered k-tuple products, which is how factorized
    multiple integrals are evaluated without touching C^k tuples.
    """
    vals = np.asarray(vals, dtype=float)
    lead = vals.shape[:-1]
    p = np.empty(lead + (k_max + 1,))
    e = np.zeros(lead + (k_max + 1,))
    for j in range(1, k_max + 1):
        p[..., j] = np.sum(vals**j, axis=-1)
    e[..., 0] = 1.0
    for k in range(1, k_max + 1):
        acc = np.zeros(lead)
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[..., k - i] * p[..., i]
        e[..., k] = acc / k
    return e


# ---------------------------------------------------------------------------
# chaos series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosSeriesSpec:
    """Specification of a (possibly biased) factorized chaos series: the
    degree-k kernel is the constant rho^k for every k <= k_max.

    ``sigma0`` multiplies the noise; ``mu0`` is the constant bias density,
    integrated as mu0 dy, and 0 leaves the series unbiased.
    """

    sigma0: float
    rho: float
    mu0: float = 0.0
    k_max: int = 8

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise InputError("sigma0 must be positive")
        if self.k_max < 0:
            raise InputError("k_max must be >= 0")

    def check_l2(self) -> None:
        """Raise unless the terms t_k = (1+eps)^k sigma0^{2k} rho^{2k} / k!,
        k = 0..k_max, decay by k_max: the L2 summability condition on [0, 1],
        where ||rho^k||^2 = rho^{2k}.  A bias asks for the margin eps = 1/2."""
        eps = 0.5 if self.mu0 != 0.0 else 0.0
        t = [(1.0 + eps) ** k * self.sigma0 ** (2 * k) * (self.rho**k) ** 2
             / math.factorial(k) for k in range(self.k_max + 1)]
        if len(t) >= 3 and t[-1] > t[-2] >= t[-3] and t[-1] > 0:
            raise PreconditionError(
                "chaos series terms are not decaying by k_max; "
                "the L2 summability condition fails"
            )


def chaos_series_eval_batch(spec: ChaosSeriesSpec, fields: np.ndarray) -> np.ndarray:
    """Evaluate sum_k (1/k!) int rho^k prod(sigma0 W(dy) + mu0 dy) up to k_max
    on each row of ``fields``, after checking L2 summability.

    The deterministic coordinates integrate to mu0 each, and the regrouped
    series is summed in degree-ascending order.
    """
    spec.check_l2()
    m = float(spec.mu0)
    e = elementary_symmetric(fields, spec.k_max)
    out = np.zeros(fields.shape[0])
    for k in range(spec.k_max + 1):
        coef = spec.rho**k
        if coef == 0.0:
            continue
        term = np.zeros(fields.shape[0])
        for j in range(k + 1):
            term += spec.sigma0**j * e[:, j] * m ** (k - j) / math.factorial(k - j)
        out += coef * term
    return out


def cameron_martin_weight_batch(fields: np.ndarray, nu: float) -> np.ndarray:
    """Radon-Nikodym weight exp(W(nu) - 0.5 E[W(nu)^2]) of each row of
    ``fields`` for the constant shift ``nu``.

    E[W(nu)^2] uses the exact grid variance sum(nu_c^2) / n, so the weight
    has mean exactly 1 under resampling.
    """
    n_cells = fields.shape[1]
    vals = np.full(n_cells, float(nu))
    return np.exp(fields @ vals - 0.5 * float(vals @ vals) * (1.0 / n_cells))
