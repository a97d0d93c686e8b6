"""Discretized white noise and Wiener-chaos series evaluation.

White noise on a box in R^d is discretized on a uniform tessellation: the
cell values are i.i.d. centered Gaussians with variance equal to the cell
volume, drawn from a counter-based generator so that the field is a pure
function of (seed, cell index).

Multiple stochastic integrals sum the kernel over ordered tuples of
*pairwise distinct* cells (off-diagonal), which is what makes the Ito
isometry  Cov(W^k(f), W^l(g)) = k! 1_{k=l} <f,g>  hold exactly on the grid
(with the off-diagonal grid inner product).  Chaos series with a bias
mu0(y) dy integrate the deterministic coordinates by midpoint quadrature per
cell and regroup in degree-ascending order; the L2 summability of the
regrouped series makes the value order-independent in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InputError, PreconditionError, ResourceError

_DENSE_CAP = 4_000_000


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

    def refine(self, factor: int = 2) -> "Tessellation":
        return Tessellation(self.low, self.high, tuple(n * factor for n in self.shape))


@dataclass(frozen=True)
class GridWhiteNoise:
    """One realization of the discretized white noise field."""

    tess: Tessellation
    values: np.ndarray
    seed: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.tess.n_cells,):
            raise InputError("values must have one entry per cell")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def integral(self, f) -> float:
        """W(f) = sum_c f(center_c) * W_c for the piecewise-constant extension."""
        return float(_eval_on_centers(f, self.tess) @ self.values)

    def to_csv(self, path) -> None:
        centers = self.tess.centers()
        with open(path, "w", encoding="ascii") as fh:
            coords = ",".join(f"x{a}_center" for a in range(self.tess.dimension))
            fh.write(f"cell_index,{coords},value\n")
            for i in range(self.tess.n_cells):
                mid = ",".join(repr(float(x)) for x in centers[i])
                fh.write(f"{i},{mid},{float(self.values[i])!r}\n")


def sample_noise(tess: Tessellation, seed: int) -> GridWhiteNoise:
    """Draw per-cell N(0, cell_volume) values, deterministic in the seed.

    Philox is counter-based: draw i is a fixed function of (seed, i), so the
    field does not depend on evaluation order.
    """
    return GridWhiteNoise(tess, sample_noise_batch(tess, seed, 1)[0], int(seed))


def sample_noise_batch(tess: Tessellation, seed: int, n: int) -> np.ndarray:
    """Matrix of n independent fields (rows), field j keyed by (seed, j)."""
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


def _dense_kernel(f, tess: Tessellation, k: int) -> np.ndarray:
    if isinstance(f, np.ndarray):
        if f.shape != (tess.n_cells,) * k:
            raise InputError(f"gridded degree-{k} kernel has wrong shape")
        return f.astype(float)
    if tess.n_cells**k > _DENSE_CAP:
        raise ResourceError(
            f"dense degree-{k} kernel on {tess.n_cells} cells exceeds the size cap"
        )
    centers = tess.centers()
    grids = np.meshgrid(*(np.arange(tess.n_cells),) * k, indexing="ij")
    flat = [centers[g.ravel()] for g in grids]
    if tess.dimension == 1:
        args = [x[:, 0] for x in flat]
    else:
        args = flat
    vals = np.asarray(f(*args), dtype=float)
    return vals.reshape((tess.n_cells,) * k)


def _check_symmetric(arr: np.ndarray, k: int, tol: float = 1e-9) -> None:
    if k < 2:
        return
    scale = float(np.max(np.abs(arr))) or 1.0
    for perm in list(permutations(range(k)))[1 : min(6, math.factorial(k))]:
        if np.max(np.abs(arr - arr.transpose(perm))) > tol * scale:
            raise InputError("kernel is not symmetric under argument permutation")


def _distinct_mask(n: int, k: int) -> np.ndarray:
    grids = np.meshgrid(*(np.arange(n),) * k, indexing="ij")
    mask = np.ones((n,) * k, dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            mask &= grids[a] != grids[b]
    return mask


def _off_diagonal_sums(g: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Per row w of ``fields``: the sum of g(c_1..c_j) w_{c_1} ... w_{c_j} over
    ordered j-tuples of pairwise distinct cells, j = g.ndim >= 2."""
    gm = g * _distinct_mask(g.shape[0], g.ndim)
    out = np.empty(fields.shape[0])
    for s, w in enumerate(fields):
        outer = w
        for _ in range(g.ndim - 1):
            outer = np.multiply.outer(outer, w)
        out[s] = np.sum(gm * outer)
    return out


def multiple_integral(f, noise: GridWhiteNoise, k: int) -> float:
    """Off-diagonal multiple integral: sum over ordered k-tuples of distinct
    cells of f * prod of cell values.  k = 0 returns the constant f."""
    if k < 0:
        raise InputError("k must be >= 0")
    if k == 0:
        return float(f)
    if k == 1:
        return noise.integral(f)
    arr = _dense_kernel(f, noise.tess, k)
    _check_symmetric(arr, k)
    return float(_off_diagonal_sums(arr, noise.values[None, :])[0])


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
    """Specification of a (possibly biased) chaos series.

    Either ``factor_coefs`` is given -- the degree-k kernel is
    ``factor_coefs[k] * prod_i base(x_i)`` for every k <= k_max -- or
    ``kernels`` lists general symmetric callables/arrays f_0..f_K.

    ``sigma0`` multiplies the noise; ``mu0`` (callable, constant or None)
    is the bias density integrated as mu0(y) dy.
    """

    sigma0: float
    mu0: object = None
    k_max: int = 8
    factor_coefs: Sequence[float] | Callable[[int], float] | None = None
    factor_base: object = None
    kernels: Sequence | None = None

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise InputError("sigma0 must be positive")
        if (self.factor_coefs is None) == (self.kernels is None):
            raise InputError("specify exactly one of factor_coefs or kernels")
        if self.k_max < 0:
            raise InputError("k_max must be >= 0")

    def coef(self, k: int) -> float:
        if callable(self.factor_coefs):
            return float(self.factor_coefs(k))
        return float(self.factor_coefs[k]) if k < len(self.factor_coefs) else 0.0

    @property
    def biased(self) -> bool:
        if self.mu0 is None:
            return False
        return not (np.isscalar(self.mu0) and float(self.mu0) == 0.0)

    def degree_norm2(self, tess: Tessellation, k: int) -> float:
        """||f_k||^2 on the grid (piecewise-constant extension)."""
        v = tess.cell_volume
        if self.factor_coefs is not None:
            base = _eval_on_centers(self.factor_base, tess)
            return self.coef(k) ** 2 * float(np.sum(base**2) * v) ** k
        if k >= len(self.kernels):
            return 0.0
        if k == 0:
            return float(self.kernels[0]) ** 2
        arr = _dense_kernel(self.kernels[k], tess, k)
        return float(np.sum(arr**2)) * v**k

    def series_terms(self, tess: Tessellation, eps: float = 0.5) -> np.ndarray:
        """t_k = (1+eps)^k sigma0^{2k} ||f_k||^2 / k! for k = 0..k_max."""
        out = np.empty(self.k_max + 1)
        for k in range(self.k_max + 1):
            out[k] = (
                (1.0 + eps) ** k
                * self.sigma0 ** (2 * k)
                * self.degree_norm2(tess, k)
                / math.factorial(k)
            )
        return out

    def tail_bound(self, tess: Tessellation) -> float:
        """Geometric bound on sum_{k > k_max} sigma0^{2k} ||f_k||^2 / k!."""
        t = self.series_terms(tess, eps=0.0)
        if t[-1] == 0.0:
            return 0.0
        if self.k_max == 0:
            return math.inf
        r = t[-1] / t[-2] if t[-2] > 0 else math.inf
        return float(t[-1] * r / (1.0 - r)) if r < 1.0 else math.inf

    def check_l2(self, tess: Tessellation) -> None:
        eps = 0.5 if self.biased else 0.0
        t = self.series_terms(tess, eps=eps)
        if self.k_max >= 2 and t[-1] > t[-2] >= t[-3] and t[-1] > 0:
            raise PreconditionError(
                "chaos series terms are not decaying by k_max; "
                "the L2 summability condition fails"
            )


def chaos_series_eval(spec: ChaosSeriesSpec, noise: GridWhiteNoise) -> float:
    """Evaluate sum_k (1/k!) int f_k prod(sigma0 W(dy) + mu0(y) dy) up to k_max.

    Deterministic coordinates are integrated by midpoint quadrature per cell
    and the regrouped series is summed in degree-ascending order.
    """
    spec.check_l2(noise.tess)
    return float(chaos_series_eval_batch(spec, noise.tess, noise.values[None, :])[0])


def chaos_series_eval_batch(
    spec: ChaosSeriesSpec, tess: Tessellation, fields: np.ndarray
) -> np.ndarray:
    """Vectorized evaluation over many noise fields (rows of ``fields``)."""
    v = tess.cell_volume
    mu = None
    if spec.biased:
        mu = _eval_on_centers(spec.mu0, tess)
    if spec.factor_coefs is not None:
        base = _eval_on_centers(spec.factor_base, tess)
        e = elementary_symmetric(fields * base, spec.k_max)
        m = float(base @ mu * v) if mu is not None else 0.0
        out = np.zeros(fields.shape[0])
        for k in range(spec.k_max + 1):
            coef = spec.coef(k)
            if coef == 0.0:
                continue
            term = np.zeros(fields.shape[0])
            for j in range(k + 1):
                term += (
                    spec.sigma0**j
                    * e[:, j]
                    * m ** (k - j)
                    / math.factorial(k - j)
                )
            out += coef * term
        return out
    # general kernel list: contract deterministic coordinates with mu(y) v per
    # cell (diagonals with stochastic coordinates are Lebesgue-null in the
    # continuum, so the contraction runs over all cells), then take
    # off-diagonal stochastic sums; by symmetry the k-choose-j coordinate
    # subsets of one size contribute identically.
    out = np.zeros(fields.shape[0])
    muv = mu * v if mu is not None else None
    top = min(spec.k_max, len(spec.kernels) - 1)
    for k in range(top + 1):
        if k == 0:
            out += float(spec.kernels[0])
            continue
        arr = _dense_kernel(spec.kernels[k], tess, k)
        _check_symmetric(arr, k)
        for j in range(k, -1, -1):
            if j < k and muv is None:
                break
            g = arr
            for _ in range(k - j):
                g = g @ muv
            if j == 0:
                stoch = np.full(fields.shape[0], float(g))
            elif j == 1:
                stoch = fields @ g
            else:
                stoch = _off_diagonal_sums(g, fields)
            out += (math.comb(k, j) * spec.sigma0**j / math.factorial(k)) * stoch
    return out


def cameron_martin_weight(noise: GridWhiteNoise, nu) -> float:
    """Radon-Nikodym weight exp(W(nu) - 0.5 E[W(nu)^2]) on the grid.

    E[W(nu)^2] uses the exact grid variance sum(nu_c^2) * v, so the weight
    has mean exactly 1 under resampling.
    """
    return float(cameron_martin_weight_batch(noise.tess, noise.values[None, :], nu)[0])


def cameron_martin_weight_batch(tess: Tessellation, fields: np.ndarray, nu) -> np.ndarray:
    vals = _eval_on_centers(nu, tess)
    v = tess.cell_volume
    return np.exp(fields @ vals - 0.5 * float(vals @ vals) * v)


def factorized_moment(rho: float, lam: float, h: float, zeta: float, volume: float) -> float:
    """Exact moment E[Z^zeta] of the factorized-kernel chaos limit.

    Z = exp(rho*lam*W(Omega) + (rho*h - (rho*lam)^2/2) * Leb(Omega)) gives
    E[Z^zeta] = exp(rho*zeta*(h - rho*lam^2*(1-zeta)/2) * Leb(Omega)).
    """
    if volume <= 0:
        raise DomainError("volume must be positive")
    return math.exp(rho * zeta * (h - 0.5 * rho * lam * lam * (1.0 - zeta)) * volume)
