"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, in the test that enforces it.  Monte Carlo
criteria run at fixed master seeds so the suite is deterministic; trend
checks allow a single inversion within the combined sampling noise.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from chaoslim import chaos, harness, ising, pinning, polymer, simplex, tilting, wiener
from chaoslim.dists import Atoms, GAUSSIAN_DISORDER, StdGaussian
from chaoslim.errors import PreconditionError
from oracles import (
    a_n_scale,
    chaos_kernel,
    chaos_rewrite,
    correlation,
    dirichlet_quadrature,
    eval_multilinear,
    f_omega_l2_ratio,
    gks_decoupling_check,
)


def _report(num, name, passed, detail):
    print(f"\nACCEPTANCE {num:02d} [{name}]: {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. exact chaos-rewrite identities
# ---------------------------------------------------------------------------


def test_criterion_01_chaos_rewrite_identities():
    t0 = time.time()
    rng = np.random.default_rng(1)

    law = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    n = 10
    kernel = chaos_kernel(law, n, "conditioned")
    a_n = a_n_scale(law, n)
    beta, h = 0.6, 0.05
    lam = GAUSSIAN_DISORDER.log_mgf(beta)
    worst_pin = 0.0
    for _ in range(100):
        omega = rng.standard_normal(n)
        zeta = (np.exp(beta * omega - lam + h) - 1.0) / a_n
        via = eval_multilinear(kernel, {i + 1: zeta[i] for i in range(n)})
        direct = pinning.partition_function(law, omega, beta, h, "conditioned")
        worst_pin = max(worst_pin, abs(via / direct - 1.0))

    system = ising.LatticeSpinSystem(range(2), range(2))
    worst_rfim = 0.0
    for _ in range(100):
        xi = rng.standard_normal(4) * 0.9
        pre, ker = chaos_rewrite(system, xi)
        via = pre * eval_multilinear(ker, {i: math.tanh(xi[i]) for i in range(4)})
        direct = ising.rfim_partition_xi(system, xi)
        worst_rfim = max(worst_rfim, abs(via / direct - 1.0))

    elapsed = time.time() - t0
    ok = worst_pin < 1e-10 and worst_rfim < 1e-10 and elapsed < 10.0
    _report(1, "exact chaos rewrites", ok,
            f"pinning rel err {worst_pin:.2e}, RFIM rel err {worst_rfim:.2e}, "
            f"{elapsed:.1f}s (< 10 s)")


# ---------------------------------------------------------------------------
# 2. Ito isometry on the grid
# ---------------------------------------------------------------------------


def test_criterion_02_ito_isometry():
    t0 = time.time()
    fields = wiener.sample_noise_batch(32, 0, 100_000)
    s = fields.sum(axis=1)
    q = (fields**2).sum(axis=1)
    x = s**2 - q
    var = float(x.var(ddof=1))
    se = float((x**2).std(ddof=1) / math.sqrt(x.size))
    elapsed = time.time() - t0
    ok = abs(var - 2.0) <= 3.0 * se and elapsed < 30.0
    _report(2, "Ito isometry Var(W^2(1)) = 2", ok,
            f"empirical {var:.4f}, |dev| {abs(var - 2):.4f} <= 3 s.e. = {3 * se:.4f}, "
            f"{elapsed:.1f}s (< 30 s)")


# ---------------------------------------------------------------------------
# 3. Dirichlet closed form vs adaptive quadrature
# ---------------------------------------------------------------------------


def test_criterion_03_dirichlet_closed_form():
    worst = 0.0
    for k in range(1, 5):
        for chi in (0.0, 0.5):
            closed = simplex.dirichlet_closed_form(k, chi, conditioned=True)
            quad = dirichlet_quadrature(k, chi, conditioned=True, order=32)
            worst = max(worst, abs(quad / closed - 1.0))
    exact_half = simplex.dirichlet_closed_form(2, 0.0, conditioned=True)
    exact_pi = simplex.dirichlet_closed_form(1, 0.5, conditioned=True)
    ok = (worst < 0.01
          and exact_half == pytest.approx(0.5, rel=1e-12)
          and exact_pi == pytest.approx(math.pi, rel=1e-12))
    _report(3, "Dirichlet Gamma formula vs quadrature", ok,
            f"max rel err {worst:.2e} (< 1%), k=2/chi=0 -> {exact_half}, "
            f"k=1/chi=0.5 -> {exact_pi:.6f}")


# ---------------------------------------------------------------------------
# 4. pinning finite-mean limit law (KS)
# ---------------------------------------------------------------------------


def test_criterion_04_pinning_lognormal_limit():
    t0 = time.time()
    law = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    drift, vol = pinning.lognormal_limit_law(law, 1.0, 0.0)
    grid = (250, 500, 1000, 2000)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(42).spawn(4)]
    ks_values = []
    for n, seed in zip(grid, seeds):
        z = pinning.sample_pinning(law, 1.0, 0.0, n, 10_000, seed, "conditioned")
        ks_values.append(harness.ks_statistic(np.log(z),
                                              lambda t: ndtr((t - drift) / vol)))
    # the shipped study's rule: four values within 2/sqrt(10000) of each
    # other sit at the noise floor and show no trend to judge
    trend_ok = harness._ks_settles(ks_values, 10_000)
    elapsed = time.time() - t0
    ok = trend_ok and ks_values[-1] < 0.05 and elapsed < 300.0
    _report(4, "pinning lognormal limit (KS)", ok,
            f"KS = {['%.4f' % v for v in ks_values]}, trend {trend_ok}, "
            f"KS(2000) = {ks_values[-1]:.4f} < 0.05, {elapsed:.1f}s (< 5 min)")


# ---------------------------------------------------------------------------
# 5. pinning second moments
# ---------------------------------------------------------------------------


def test_criterion_05_pinning_second_moments():
    t0 = time.time()
    law = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    target = pinning.continuum_second_moment(law, 1.0, 0.0, "conditioned")
    assert target == pytest.approx(math.exp((2.0 / 3.0) ** 2), rel=1e-12)
    beta_n, h_n = pinning.scale_couplings(law, 1.0, 0.0, 2000)
    m2 = pinning.second_moment_exact(law, 2000, beta_n, h_n, "conditioned")
    gap_fm = abs(m2 / target - 1.0)

    heavy = pinning.RenewalLaw.heavy_tail(0.75, 20_000)
    target_a = pinning.continuum_second_moment(heavy, 1.0, 0.0, "conditioned")
    gaps = []
    for n in (500, 1000, 2000):
        b_n, hh_n = pinning.scale_couplings(heavy, 1.0, 0.0, n)
        m2_a = pinning.second_moment_exact(heavy, n, b_n, hh_n, "conditioned")
        gaps.append(abs(m2_a / target_a - 1.0))
    elapsed = time.time() - t0
    ok = gap_fm < 0.05 and gaps[0] > gaps[1] > gaps[2] and elapsed < 120.0
    _report(5, "pinning second moments", ok,
            f"finite-mean gap {gap_fm:.3%} (< 5%), alpha=3/4 gaps "
            f"{['%.3f' % g for g in gaps]} shrinking, {elapsed:.1f}s (< 2 min)")


# ---------------------------------------------------------------------------
# 6. polymer second moments
# ---------------------------------------------------------------------------


def test_criterion_06_polymer_second_moments():
    law = polymer.WalkLaw.simple_symmetric()
    target = polymer.polymer_second_moment_continuum(law, 0.5)
    beta_n = polymer.scale_beta(2.0, 0.5, 2000)
    m2 = polymer.polymer_second_moment_exact(law, 2000, beta_n)
    gap = abs(m2 / target - 1.0)

    gamma = polymer.overlap_weight(0.8)
    worst = 0.0
    for n in (4, 6):
        dp = polymer.polymer_second_moment_exact(law, n, 0.8)
        total = 0.0
        paths = []
        for incs in itertools.product((-1, 1), repeat=n):
            pos = np.concatenate([[0], np.cumsum(incs)])
            paths.append(pos)
        for p1 in paths:
            for p2 in paths:
                hits = int(np.sum(p1[1:] == p2[1:]))
                total += math.exp(gamma * hits)
        brute = total / 4.0**n
        worst = max(worst, abs(dp / brute - 1.0))
    ok = gap < 0.05 and worst < 1e-10
    _report(6, "polymer second moments", ok,
            f"DP vs Dirichlet series gap {gap:.3%} (< 5%) at N=2000, "
            f"path-pair oracle rel err {worst:.2e} (< 1e-10)")


# ---------------------------------------------------------------------------
# 7. Gnedenko local limit gap
# ---------------------------------------------------------------------------


def test_criterion_07_gnedenko_gap():
    law = polymer.WalkLaw.simple_symmetric()
    gaps = [polymer.gnedenko_gap(law, n) for n in (10, 100, 1000)]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.02
    _report(7, "Gnedenko gap", ok,
            f"gap(10,100,1000) = {['%.5f' % g for g in gaps]}, "
            f"decreasing and gap(1000) < 0.02")


# ---------------------------------------------------------------------------
# 8. Lindeberg audit
# ---------------------------------------------------------------------------


def test_criterion_08_lindeberg_audit():
    moments_m3 = 2.0 * math.sqrt(2.0 / math.pi)
    rows = {}
    master = np.random.SeedSequence(314).spawn(2)
    for seed, n in zip(master, (16, 256)):
        kernel = chaos.Kernel({(i,): 1.0 / math.sqrt(n) for i in range(n)})
        moments = chaos.truncated_moments(
            [Atoms([-1.0, 1.0], [0.5, 0.5]), StdGaussian()], math.inf)
        bound = chaos.lindeberg_bound(kernel, 1, moments, c_f=1.0)
        rng = np.random.default_rng(seed)
        zeta = rng.choice([-1.0, 1.0], size=(100_000, n)).sum(axis=1) / math.sqrt(n)
        xi = rng.standard_normal(100_000)
        fz = harness.smooth_test_function(zeta)
        fg = harness.smooth_test_function(xi)
        d_hat = float(fz.mean() - fg.mean())
        se = math.sqrt(fz.var(ddof=1) / fz.size + fg.var(ddof=1) / fg.size)
        ci_upper = abs(d_hat) + harness.Z99 * se
        exact = harness.exact_flat_kernel_distance(n)
        rows[n] = (ci_upper, bound, exact, d_hat, se)
        assert bound == pytest.approx(70.0**2 * moments_m3 / math.sqrt(n), rel=1e-12)

    ci_ok = all(rows[n][0] <= rows[n][1] for n in (16, 256))
    shrink_ok = rows[256][1] < rows[16][1] and rows[256][2] < rows[16][2]
    consistent = all(abs(rows[n][3] - rows[n][2]) <= harness.Z99 * rows[n][4]
                     for n in (16, 256))
    ok = ci_ok and shrink_ok and consistent
    _report(8, "Lindeberg audit", ok,
            f"n=16: CI99 {rows[16][0]:.2e} <= bound {rows[16][1]:.1f}; "
            f"n=256: CI99 {rows[256][0]:.2e} <= bound {rows[256][1]:.1f}; "
            f"exact distances {rows[16][2]:.2e} -> {rows[256][2]:.2e} shrink; "
            f"MC consistent with exact: {consistent}")


# ---------------------------------------------------------------------------
# 9. tilting
# ---------------------------------------------------------------------------


def test_criterion_09_tilting():
    dist = Atoms([-1.0, 1.0], [0.499, 0.501])
    result = tilting.tilt_zero_mean(dist, "two-sided")
    lam_exact = 0.5 * math.log(0.499 / 0.501)
    lam_ok = abs(result.lam - lam_exact) < 1e-10
    mean_ok = abs(result.tilted.mean()) < 1e-12
    bounds = tilting.verify_tilt_bounds(result, p_list=(-1.0, 0.5, 2.0))
    names = {row[0] for row in bounds}
    all_hold = all(ok for *_, ok in bounds)
    four_ok = all_hold and names == {
        "density_moment", "second_moment", "second_moment_improved", "tilt_size"}
    try:
        tilting.tilt_zero_mean(Atoms([-1.0, 1.0], [0.45, 0.55]))
        raised = False
    except PreconditionError:
        raised = True
    ok = lam_ok and mean_ok and four_ok and raised
    _report(9, "exponential tilting", ok,
            f"lambda err {abs(result.lam - lam_exact):.1e} (< 1e-10), "
            f"tilted mean {abs(result.tilted.mean()):.1e} (< 1e-12), "
            f"all four bounds hold: {all_hold}, "
            f"hypothesis violation raised: {raised}")


# ---------------------------------------------------------------------------
# 10. Ising enumerations
# ---------------------------------------------------------------------------


def test_criterion_10_ising_enumerations():
    one = ising.LatticeSpinSystem(range(1), range(1))
    corr = correlation(one, [(0, 0)])
    corr_ok = abs(corr - math.tanh(4.0 * ising.BETA_C)) < 1e-12

    configs_2x3 = [
        [([(0, 0)], (0, 0)), ([(1, 2)], (1, 2))],
        [([(0, 0)], (0, 0))],
    ]
    configs_3x3 = [
        [([(0, 0)], (0, 0)), ([(2, 2)], (2, 2))],
        [([(0, 2)], (0, 2)), ([(2, 0)], (2, 0))],
        [([(0, 0), (1, 0)], (0, 0))],
    ]
    gks_ok = True
    for system, configs in ((ising.LatticeSpinSystem(range(2), range(3)), configs_2x3),
                            (ising.LatticeSpinSystem(range(3), range(3)), configs_3x3)):
        for cfg in configs:
            lhs, rhs, holds = gks_decoupling_check(system, cfg)
            gks_ok = gks_ok and holds and lhs >= 0.0

    ratios = {}
    for n in range(2, 6):
        est = f_omega_l2_ratio(ising.Rect.unit_square(), n, mc_samples=100_000, seed=10 + n)
        ratios[n] = est.ratio / n**0.25
    ratio_ok = all(v <= 2.0 for v in ratios.values())
    ok = corr_ok and gks_ok and ratio_ok
    _report(10, "Ising enumerations", ok,
            f"E+[s0] err {abs(corr - math.tanh(4 * ising.BETA_C)):.1e} (< 1e-12), "
            f"GKS holds on all configs: {gks_ok}, "
            f"ratio/n^0.25 = {['%.3f' % ratios[n] for n in range(2, 6)]} <= 2.0")


# ---------------------------------------------------------------------------
# 11. Cameron-Martin distributional equality
# ---------------------------------------------------------------------------


def test_criterion_11_cameron_martin():
    lam_hat, h_hat, rho = 1.0, 0.5, 0.8
    f_biased = wiener.sample_noise_batch(64, 1001, 10_000)
    f_plain = wiener.sample_noise_batch(64, 2002, 10_000)
    biased = wiener.chaos_series_eval_batch(f_biased, lam_hat, rho, h_hat)
    unbiased = wiener.chaos_series_eval_batch(f_plain, lam_hat, rho, 0.0)
    weights = wiener.cameron_martin_weight_batch(f_plain, h_hat / lam_hat)
    ks = harness.ks_two_sample(unbiased, biased, wx=weights)
    _report(11, "Cameron-Martin reweighting", ks.passed,
            f"weighted two-sample KS {ks.statistic:.4f} <= 5% critical "
            f"{ks.critical_value:.4f} with 10^4 samples")
