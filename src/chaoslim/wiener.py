"""Discretized white noise, factorized Wiener-chaos series and the
Cameron-Martin weight.

White noise on a box in R^d is discretized on a uniform tessellation: the
cell values are i.i.d. centered Gaussians with variance equal to the cell
volume, drawn from a counter-based generator so that the field is a pure
function of (seed, cell index).  A field is a row of ``sample_noise_batch``,
and every evaluation below takes a matrix of such rows.

A factorized chaos series has the constant degree-k kernel
``factor_coefs(k)``.  Its degree-k multiple integral sums over ordered
k-tuples of *pairwise distinct* cells (off-diagonal, so the Ito isometry
holds exactly on the grid), which is k! times the elementary symmetric
polynomial e_k of the cell values.  A bias mu0(y) dy integrates the
deterministic coordinates by midpoint quadrature per cell, and the regrouped
series is summed in degree-ascending order after an L2 summability check.
The Cameron-Martin weight completes the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, PreconditionError


@dataclass(frozen=True)
class Tessellation:
    """Uniform axis-aligned tessellation of a box in R^d."""

    low: tuple[float, ...]
    high: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        low = tuple(float(x) for x in np.atleast_1d(self.low))
        high = tuple(float(x) for x in np.atleast_1d(self.high))
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        if not (len(low) == len(high) == len(shape)):
            raise InputError("low, high, shape must have the same length")
        if any(h <= l for l, h in zip(low, high)) or any(n < 1 for n in shape):
            raise InputError("degenerate box or empty tessellation")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "shape", shape)

    @classmethod
    def unit_interval(cls, n_cells: int) -> "Tessellation":
        return cls((0.0,), (1.0,), (int(n_cells),))

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def sides(self) -> np.ndarray:
        return (np.array(self.high) - np.array(self.low)) / np.array(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.sides))

    def centers(self) -> np.ndarray:
        """Cell centers, shape (n_cells, d), row-major cell order."""
        axes = [
            self.low[a] + (np.arange(self.shape[a]) + 0.5) * self.sides[a]
            for a in range(self.dimension)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def sample_noise_batch(tess: Tessellation, seed: int, n: int) -> np.ndarray:
    """Matrix of n independent fields (rows) of per-cell N(0, cell_volume)
    values, field j keyed by (seed, j).

    Philox is counter-based: draw i is a fixed function of (seed, i), so a
    field does not depend on evaluation order.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.standard_normal((n, tess.n_cells)) * math.sqrt(tess.cell_volume)


def _eval_on_centers(f, tess: Tessellation) -> np.ndarray:
    if f is None:
        return np.ones(tess.n_cells)
    if np.isscalar(f):
        return np.full(tess.n_cells, float(f))
    if isinstance(f, np.ndarray):
        if f.shape != (tess.n_cells,):
            raise InputError("gridded function has wrong length")
        return f.astype(float)
    centers = tess.centers()
    if tess.dimension == 1:
        return np.asarray([float(f(c[0])) for c in centers])
    return np.asarray([float(f(*c)) for c in centers])


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
    degree-k kernel is the constant ``factor_coefs(k)`` for every k <= k_max.

    ``sigma0`` multiplies the noise; ``mu0`` (callable, constant or None)
    is the bias density integrated as mu0(y) dy.
    """

    sigma0: float
    factor_coefs: Callable[[int], float]
    mu0: object = None
    k_max: int = 8

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise InputError("sigma0 must be positive")
        if self.k_max < 0:
            raise InputError("k_max must be >= 0")

    def coef(self, k: int) -> float:
        return float(self.factor_coefs(k))

    @property
    def biased(self) -> bool:
        if self.mu0 is None:
            return False
        return not (np.isscalar(self.mu0) and float(self.mu0) == 0.0)

    def check_l2(self, tess: Tessellation) -> None:
        """Raise unless the terms t_k = (1+eps)^k sigma0^{2k} ||f_k||^2 / k!,
        k = 0..k_max, decay by k_max: the grid form of the L2 summability
        condition.  ||f_k||^2 is taken on the grid (piecewise-constant
        extension), and a bias asks for the margin eps = 1/2."""
        eps = 0.5 if self.biased else 0.0
        volume = float(tess.n_cells * tess.cell_volume)
        t = [(1.0 + eps) ** k * self.sigma0 ** (2 * k) * (self.coef(k) ** 2 * volume**k)
             / math.factorial(k) for k in range(self.k_max + 1)]
        if len(t) >= 3 and t[-1] > t[-2] >= t[-3] and t[-1] > 0:
            raise PreconditionError(
                "chaos series terms are not decaying by k_max; "
                "the L2 summability condition fails"
            )


def chaos_series_eval_batch(
    spec: ChaosSeriesSpec, tess: Tessellation, fields: np.ndarray
) -> np.ndarray:
    """Evaluate sum_k (1/k!) int f_k prod(sigma0 W(dy) + mu0(y) dy) up to k_max
    on each row of ``fields``, after checking L2 summability.

    Deterministic coordinates are integrated by midpoint quadrature per cell
    and the regrouped series is summed in degree-ascending order.
    """
    spec.check_l2(tess)
    m = 0.0
    if spec.biased:
        # ones @ mu, not mu.sum(): the two round differently, and outputs keep their bits
        mu = _eval_on_centers(spec.mu0, tess)
        m = float(np.ones(tess.n_cells) @ mu * tess.cell_volume)
    e = elementary_symmetric(fields, spec.k_max)
    out = np.zeros(fields.shape[0])
    for k in range(spec.k_max + 1):
        coef = spec.coef(k)
        if coef == 0.0:
            continue
        term = np.zeros(fields.shape[0])
        for j in range(k + 1):
            term += spec.sigma0**j * e[:, j] * m ** (k - j) / math.factorial(k - j)
        out += coef * term
    return out


def cameron_martin_weight_batch(tess: Tessellation, fields: np.ndarray, nu) -> np.ndarray:
    """Radon-Nikodym weight exp(W(nu) - 0.5 E[W(nu)^2]) of each row of ``fields``.

    E[W(nu)^2] uses the exact grid variance sum(nu_c^2) * v, so the weight
    has mean exactly 1 under resampling.
    """
    vals = _eval_on_centers(nu, tess)
    v = tess.cell_volume
    return np.exp(fields @ vals - 0.5 * float(vals @ vals) * v)
