"""Tests for discretized white noise and chaos-series evaluation.

Three sums are the oracles.  The general dense-kernel chaos series sums
every ordered tuple of distinct cells, so it is exponential in the degree.
The truncated factorized series builds each degree from elementary symmetric
polynomials (Newton identities) and sums the degrees one by one.  The
factorized product is checked against both.  The alpha-regime pinning
reference is checked against a sum over all site sets of the lattice.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from chaoslim import harness, pinning
from chaoslim.wiener import (
    cameron_martin_weight_batch,
    chaos_series_eval_batch,
    sample_noise_batch,
)


def distinct_mask(n, k):
    grids = np.meshgrid(*(np.arange(n),) * k, indexing="ij")
    mask = np.ones((n,) * k, dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            mask &= grids[a] != grids[b]
    return mask


def multiple_integral(g, fields):
    """Off-diagonal multiple integral of each row w of ``fields``: the sum of
    g(c_1..c_j) w_{c_1} ... w_{c_j} over ordered j-tuples of pairwise distinct
    cells, j = g.ndim (a scalar g is the constant degree-0 integral)."""
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        return np.full(fields.shape[0], float(g))
    if g.ndim == 1:
        return fields @ g
    gm = g * distinct_mask(g.shape[0], g.ndim)
    out = np.empty(fields.shape[0])
    for s, w in enumerate(fields):
        outer = w
        for _ in range(g.ndim - 1):
            outer = np.multiply.outer(outer, w)
        out[s] = np.sum(gm * outer)
    return out


def dense_chaos_series(kernels, sigma0, fields):
    """sum_k (1/k!) int f_k prod(sigma0 W(dy)) over the symmetric dense
    kernels f_0..f_K (f_k of shape (n_cells,) * k), each degree an
    off-diagonal sum over ordered tuples of distinct cells."""
    out = np.zeros(fields.shape[0])
    for k, arr in enumerate(kernels):
        out += (sigma0**k / math.factorial(k)) * multiple_integral(arr, fields)
    return out


def elementary_symmetric(vals, k_max):
    """e_0..e_k_max of the entries of ``vals`` (last axis), Newton identities;
    shape vals.shape[:-1] + (k_max+1,)."""
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


def truncated_chaos_series(fields, sigma0, rho, mu0, k_max):
    """sum_{k <= k_max} (1/k!) int rho^k prod(sigma0 W(dy) + mu0 dy) on each
    row of ``fields``, summed degree by degree.  Of the k coordinates, j
    carry noise (C(k, j) choices, j! e_j over ordered j-tuples of distinct
    cells) and each of the others gives mu0, so the degree-k term is
    rho^k sum_j sigma0^j e_j mu0^(k-j) / (k-j)!."""
    e = elementary_symmetric(fields, k_max)
    out = np.zeros(fields.shape[0])
    for k in range(k_max + 1):
        term = np.zeros(fields.shape[0])
        for j in range(k + 1):
            term += sigma0**j * e[:, j] * mu0 ** (k - j) / math.factorial(k - j)
        out += rho**k * term
    return out


def alpha_subset_series(alpha, beta_hat, fields):
    """Conditioned alpha-regime chaos series on the lattice t = n/M, M =
    fields.shape[1] + 1, summed over every site set S of {1..M-1}: each
    contributes (beta_hat c_alpha)^|S| prod_i (t_i - t_{i-1})^{alpha-1}
    prod_{n in S} W_n, with t_0 = 0 and t_{|S|+1} = 1."""
    m = fields.shape[1] + 1
    rho = beta_hat * pinning.c_alpha(alpha)
    out = np.zeros(fields.shape[0])
    for k in range(m):
        for sites in itertools.combinations(range(1, m), k):
            gaps = np.diff([0, *sites, m]) / m
            weight = rho**k * float(np.prod(gaps ** (alpha - 1.0)))
            out += weight * np.prod(fields[:, [n - 1 for n in sites]], axis=1)
    return out


def test_same_seed_reproduces_field():
    a = sample_noise_batch(16, 99, 1)
    b = sample_noise_batch(16, 99, 1)
    assert np.array_equal(a, b)
    c = sample_noise_batch(16, 100, 1)
    assert not np.array_equal(a, c)


def test_total_mass_variance_and_independence():
    fields = sample_noise_batch(32, 0, 100_000)
    # W([0, 1/2]) over the first 16 cells has variance 1/2, and W([1/2, 1]) is independent
    w_a = fields[:, :16].sum(axis=1)
    w_b = fields[:, 16:].sum(axis=1)
    se = float((w_a**2).std(ddof=1) / math.sqrt(w_a.size))
    assert abs(w_a.var(ddof=1) - 0.5) <= 3 * se
    cov = float(np.mean(w_a * w_b))
    cov_se = float((w_a * w_b).std(ddof=1) / math.sqrt(w_a.size))
    assert abs(cov) <= 3 * cov_se


def test_multiple_integral_k1_is_plain_integral():
    fields = sample_noise_batch(8, 5, 1)
    assert multiple_integral(np.ones(8), fields)[0] == pytest.approx(fields[0].sum())
    assert multiple_integral(1.0, fields)[0] == 1.0


def test_multiple_integral_matches_brute_force_4_cells():
    fields = sample_noise_batch(4, 9, 1)
    w = fields[0]
    brute = sum(w[i] * w[j] for i in range(4) for j in range(4) if i != j)
    assert multiple_integral(np.ones((4, 4)), fields)[0] == pytest.approx(
        brute, rel=1e-12)
    brute3 = sum(
        w[i] * w[j] * w[k]
        for i in range(4) for j in range(4) for k in range(4)
        if i != j and j != k and i != k
    )
    assert multiple_integral(np.ones((4, 4, 4)), fields)[0] == pytest.approx(
        brute3, rel=1e-12)


def test_multiple_integral_second_moment_grid_isometry():
    # E[(W^2(f))^2] = 2 * sum_{i != j} v^2 on the grid (off-diagonal isometry)
    fields = sample_noise_batch(32, 1, 50_000)
    s = fields.sum(axis=1)
    q = (fields**2).sum(axis=1)
    x = s**2 - q
    v = 1.0 / 32
    exact = 2.0 * 32 * 31 * v * v
    se = float((x**2).std(ddof=1) / math.sqrt(x.size))
    assert abs(x.var(ddof=1) - exact) <= 3 * se


def test_ito_isometry_cross_orders():
    # Cov(W^k(f), W^l(g)) = k! 1_{k=l} <f, g> with the off-diagonal grid
    # inner product, for k, l up to 3 on a coarse grid
    rng = np.random.default_rng(6)
    f = rng.random(8) + 0.5
    g = rng.random(8) + 0.5
    f2 = np.add.outer(f, f) / 2.0
    g2 = np.add.outer(g, g) / 2.0
    g3 = np.add.outer(np.add.outer(g, g), g) / 3.0
    fields = sample_noise_batch(8, 3, 8_000)
    vals = {}
    for name, ker in (("f1", f), ("g1", g), ("f2", f2), ("g2", g2), ("g3", g3)):
        vals[name] = multiple_integral(ker, fields)
    v = 1.0 / 8

    def offdiag_inner(a, b, k):
        return float(np.sum(a * b * distinct_mask(8, k))) * v**k

    for a, b, k_a, k_b, inner in (
        ("f1", "g1", 1, 1, float(f @ g) * v),
        ("f2", "g2", 2, 2, offdiag_inner(f2, g2, 2)),
        ("f1", "g2", 1, 2, 0.0),
        ("f2", "g3", 2, 3, 0.0),
    ):
        prod = vals[a] * vals[b]
        cov = float(prod.mean())
        se = float(prod.std(ddof=1) / math.sqrt(prod.size))
        target = math.factorial(k_a) * inner if k_a == k_b else 0.0
        assert abs(cov - target) <= 3.5 * se, (a, b, cov, target, se)


def test_multiple_integral_permutation_invariance():
    fields = sample_noise_batch(5, 3, 1)
    rng = np.random.default_rng(0)
    base = rng.standard_normal((5, 5))
    f = base + base.T
    assert multiple_integral(f, fields)[0] == pytest.approx(
        multiple_integral(f.T, fields)[0], rel=1e-12
    )


def test_elementary_symmetric_small_case():
    vals = np.array([[1.0, 2.0, 3.0]])
    e = elementary_symmetric(vals, 3)
    assert np.allclose(e[0], [1.0, 6.0, 11.0, 6.0])


def test_chaos_series_factorized_equals_general():
    # without a bias, 6 cells carry degrees 0..6 only, so the dense sum is the whole series
    fields = sample_noise_batch(6, 3, 4)
    rho = 0.7
    kernels = [rho**k * np.ones((6,) * k) for k in range(7)]
    np.testing.assert_allclose(chaos_series_eval_batch(fields, 1.3, rho, 0.0),
                               dense_chaos_series(kernels, 1.3, fields), rtol=1e-12)


@pytest.mark.parametrize("mu0", [0.0, 0.5])
@pytest.mark.parametrize("n_cells", [8, 32, 128])
def test_chaos_series_product_matches_degree_sum(n_cells, mu0):
    # the degree sum carries every noise degree (e_k = 0 for k > n_cells) and
    # 40 more bias degrees, whose terms (rho mu0)^i / i! are then below 1e-60
    fields = sample_noise_batch(n_cells, 11, 200)
    sigma0, rho = 1.0, 0.8
    product = chaos_series_eval_batch(fields, sigma0, rho, mu0)
    reference = truncated_chaos_series(fields, sigma0, rho, mu0, n_cells + 40)
    np.testing.assert_allclose(product, reference, rtol=1e-13)


@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("cells", [4, 8, 12])
def test_pinning_alpha_reference_matches_subset_oracle(alpha, cells):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = harness.pinning_alpha_reference(alpha, 1.0, cells=cells, n_samples=200, seed=5)
    fields = sample_noise_batch(cells, 5, 200)[:, : cells - 1]
    oracle = alpha_subset_series(alpha, 1.0, fields)
    assert np.max(np.abs(ref - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_refinement_changes_moment_within_discretization_estimate():
    # exact grid second moment of the unbiased factorized series,
    # prod_c E[(1 + rho sigma W_c)^2] = (1 + rho^2 sigma^2 / n)^n, against
    # the continuum exp(rho^2 sigma^2)
    rho, sigma = 0.8, 1.0

    def grid_m2(n_cells):
        return (1.0 + (rho * sigma) ** 2 / n_cells) ** n_cells

    def emp_m2(n_cells, seed, n_samples=40_000):
        fields = sample_noise_batch(n_cells, seed, n_samples)
        vals = chaos_series_eval_batch(fields, sigma, rho, 0.0)
        m2 = float((vals**2).mean())
        se = float((vals**2).std(ddof=1) / math.sqrt(n_samples))
        return m2, se

    cont = math.exp((rho * sigma) ** 2)
    est = abs(grid_m2(16) - cont) + abs(grid_m2(32) - cont)
    m16, se16 = emp_m2(16, 7)
    m32, se32 = emp_m2(32, 8)
    assert abs(m16 - m32) <= est + 4 * (se16 + se32)


def test_factorized_series_matches_lognormal_law():
    # f_k = rho^k on [0,1] with noise scale lam and bias h: the limit law is
    # exp(rho lam W_1 + (rho h - rho^2 lam^2 / 2)), i.e. log Z is Gaussian
    from scipy.special import ndtr

    from chaoslim.harness import ks_statistic

    rho, lam, h = 0.8, 1.0, 0.5
    drift = rho * h - 0.5 * rho**2 * lam**2
    vol = rho * lam
    fields = sample_noise_batch(128, 0, 10_000)
    vals = chaos_series_eval_batch(fields, lam, rho, h)
    assert np.all(vals > 0)
    ks = ks_statistic(np.log(vals), lambda t: ndtr((t - drift) / vol))
    assert ks < 1.3581 / math.sqrt(10_000)  # 5% one-sample level


def test_cameron_martin_weight_basics():
    assert cameron_martin_weight_batch(sample_noise_batch(32, 12, 1), 0.0)[0] == (
        pytest.approx(1.0))
    fields = sample_noise_batch(32, 2, 50_000)
    w = cameron_martin_weight_batch(fields, 0.7)
    se = float(w.std(ddof=1) / math.sqrt(w.size))
    assert abs(w.mean() - 1.0) <= 3 * se
    # reweighted mean of W([0,1]) equals the shift
    rw = w * fields.sum(axis=1)
    se_rw = float(rw.std(ddof=1) / math.sqrt(rw.size))
    assert abs(rw.mean() - 0.7) <= 3 * se_rw


def factorized_moment(rho, lam, h, zeta, volume):
    """Exact moment E[Z^zeta] of the factorized-kernel chaos limit.

    Z = exp(rho*lam*W(Omega) + (rho*h - (rho*lam)^2/2) * Leb(Omega)) gives
    E[Z^zeta] = exp(rho*zeta*(h - rho*lam^2*(1-zeta)/2) * Leb(Omega)).
    """
    return math.exp(rho * zeta * (h - 0.5 * rho * lam * lam * (1.0 - zeta)) * volume)


def test_factorized_moment_values():
    assert factorized_moment(1.0, 0.5, 0.3, 1.0, 2.0) == pytest.approx(math.exp(0.6))
    assert factorized_moment(1.0, 0.0, 0.3, 2.0, 1.0) == pytest.approx(math.exp(0.6))


def test_factorized_moment_against_mc_second_moment():
    rho, lam, h = 0.8, 0.9, 0.2
    fields = sample_noise_batch(32, 21, 60_000)
    vals = chaos_series_eval_batch(fields, lam, rho, h)
    m2 = float((vals**2).mean())
    se = float((vals**2).std(ddof=1) / math.sqrt(vals.size))
    target = factorized_moment(rho, lam, h, 2.0, 1.0)
    # allow the grid discretization on top of the MC band
    assert abs(m2 - target) <= 4 * se + 0.02 * target

