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
values.  A constant bias mu0 dy integrates to mu0 over [0, 1].  Summed over
all its degrees the series is a product over the cells, so nothing is
truncated.  The Cameron-Martin weight completes the module.
"""

from __future__ import annotations

import math

import numpy as np


def sample_noise_batch(n_cells: int, seed: int, n: int) -> np.ndarray:
    """Matrix of n independent fields (rows) of ``n_cells`` i.i.d.
    N(0, 1/n_cells) values, field j keyed by (seed, j).

    Philox is counter-based: draw i is a fixed function of (seed, i), so a
    field does not depend on evaluation order.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.standard_normal((n, n_cells)) * math.sqrt(1.0 / n_cells)


def chaos_series_eval_batch(
    fields: np.ndarray, sigma0: float, rho: float, mu0: float
) -> np.ndarray:
    """Evaluate sum_k (1/k!) int rho^k prod(sigma0 W(dy) + mu0 dy) over all
    degrees k on each row of ``fields``.

    The degree-j noise integral is j! e_j of the cell values and each bias
    coordinate integrates to mu0, so the series is
    sum_{j,i} (rho sigma0)^j e_j (rho mu0)^i / i!, which factors as
    exp(rho mu0) prod_c (1 + rho sigma0 W_c).
    """
    return np.exp(rho * mu0) * np.prod(1.0 + rho * sigma0 * fields, axis=1)


def cameron_martin_weight_batch(fields: np.ndarray, nu: float) -> np.ndarray:
    """Radon-Nikodym weight exp(nu W([0, 1]) - nu^2 / 2) of each row of
    ``fields`` for the constant shift ``nu``; it has mean exactly 1, since
    W([0, 1]) is N(0, 1) on every grid."""
    return np.exp(nu * fields.sum(axis=1) - 0.5 * nu * nu)
