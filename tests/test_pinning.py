"""Tests for the disordered pinning model."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chaoslim import pinning
from chaoslim.chaos import eval_multilinear
from chaoslim.dists import GAUSSIAN_DISORDER, RADEMACHER_DISORDER
from chaoslim.errors import ConditioningError, DomainError, InputError
from chaoslim.pinning import (
    RenewalLaw,
    a_n_scale,
    c_alpha,
    chaos_kernel,
    continuum_kernel,
    continuum_second_moment,
    discrete_kernel,
    lognormal_limit_law,
    partition_function,
    renewal_mass,
    scale_couplings,
    second_moment_exact,
)

LAW_HALF = RenewalLaw.from_probabilities([0.5, 0.5])


# ---------------------------------------------------------------------------
# renewal mass and scalings
# ---------------------------------------------------------------------------


def test_renewal_mass_hand_recursion():
    u = renewal_mass(LAW_HALF, 6)
    assert np.allclose(u, [1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.671875])


def test_renewal_mass_deterministic_law():
    law = RenewalLaw.from_probabilities([1.0])
    assert np.allclose(renewal_mass(law, 10), np.ones(11))


def test_renewal_theorem_limit():
    u = renewal_mass(LAW_HALF, 2000)
    assert abs(u[2000] * LAW_HALF.mean() - 1.0) < 0.01


def test_heavy_tail_law_construction():
    law = RenewalLaw.heavy_tail(0.75, 500)
    assert law.probs.sum() == pytest.approx(1.0)
    assert law.regime == "alpha"
    # K(n) n^{1+alpha} equals the tail constant away from the folded atom
    n = np.arange(2, 400)
    ratios = law.probs[n] * n ** 1.75 / law.tail_constant
    assert np.max(np.abs(ratios - 1.0)) < 1e-12


def test_heavy_tail_rejects_use_beyond_tail_range():
    law = RenewalLaw.heavy_tail(0.75, 100)
    with pytest.raises(InputError):
        scale_couplings(law, 1.0, 0.0, 200)
    with pytest.raises(InputError):
        a_n_scale(law, 101)
    scale_couplings(law, 1.0, 0.0, 100)  # boundary is allowed


def test_heavy_tail_rejects_bad_alpha():
    with pytest.raises(DomainError):
        RenewalLaw.heavy_tail(0.5, 100)
    with pytest.raises(DomainError):
        RenewalLaw.heavy_tail(1.2, 100)


def test_scale_couplings_alpha_example():
    # alpha = 3/4, constant slowly-varying part 1, N = 16
    n = np.arange(1.0, 101.0)
    probs = n**-1.75
    probs /= probs.sum()
    law = RenewalLaw(np.concatenate([[0.0], probs]), "alpha", alpha=0.75,
                     tail_constant=1.0 / float((np.arange(1.0, 101.0) ** -1.75).sum()))
    # force L = 1 for the scaling identity check
    law_l1 = RenewalLaw(law.probs, "alpha", alpha=0.75, tail_constant=1.0)
    beta_n, h_n = scale_couplings(law_l1, 2.0, 8.0, 16)
    assert beta_n == pytest.approx(2.0 / 2.0)
    assert h_n == pytest.approx(8.0 / 8.0)


def test_scale_couplings_finite_mean():
    beta_n, h_n = scale_couplings(LAW_HALF, 3.0, 5.0, 100)
    assert beta_n == pytest.approx(0.3)
    assert h_n == pytest.approx(0.05)
    # exact identity beta_N sqrt(N) = beta_hat
    for n in (10, 1000, 12345):
        b, _ = scale_couplings(LAW_HALF, 3.0, 5.0, n)
        assert b * math.sqrt(n) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------


def _brute_partition(law, omega, beta, h, mode, disorder=GAUSSIAN_DISORDER):
    n = len(omega)
    lam = disorder.log_mgf(beta)
    tail = law.tail(n)
    total_c = 0.0
    total_f = 0.0
    for mask in range(1 << n):
        sites = [i + 1 for i in range(n) if mask >> i & 1]
        prob = 1.0
        prev = 0
        for s in sites:
            gap = s - prev
            prob *= law.probs[gap] if gap <= law.n_max else 0.0
            prev = s
        w = math.exp(sum(beta * omega[s - 1] - lam + h for s in sites))
        if sites and sites[-1] == n:
            total_c += prob * w
        total_f += prob * tail[n - (sites[-1] if sites else 0)] * w
    if mode == "conditioned":
        return total_c / renewal_mass(law, n)[n]
    return total_f


def test_partition_zero_coupling_is_one():
    omega = np.zeros(30)
    assert partition_function(LAW_HALF, omega, 0.0, 0.0, "conditioned") == pytest.approx(1.0)
    assert partition_function(LAW_HALF, omega, 0.0, 0.0, "free") == pytest.approx(1.0)


@pytest.mark.parametrize(
    "law, mode",
    [
        pytest.param(LAW_HALF, "conditioned", id="conditioned"),
        pytest.param(LAW_HALF, "free", id="free"),
        # n_max > N: every step convolves against the whole history
        pytest.param(RenewalLaw.heavy_tail(0.75, 20), "conditioned", id="heavy-conditioned"),
        pytest.param(RenewalLaw.heavy_tail(0.75, 20), "free", id="heavy-free"),
    ],
)
def test_partition_matches_subset_enumeration(law, mode):
    rng = np.random.default_rng(5)
    for _ in range(4):
        omega = rng.standard_normal(10)
        z = partition_function(law, omega, 0.7, 0.1, mode)
        oracle = _brute_partition(law, omega, 0.7, 0.1, mode)
        assert z == pytest.approx(oracle, rel=1e-12)


def test_partition_monotone_in_h():
    omega = np.zeros(40)
    values = [partition_function(LAW_HALF, omega, 0.0, h, "conditioned")
              for h in np.linspace(0.0, 1.0, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_partition_conditioning_error():
    law = RenewalLaw.from_probabilities([1.0])
    bad = RenewalLaw(np.array([0.0, 0.0, 0.5, 0.25, 0.25]), "finite_mean")
    # gcd of {2,3,4} is 1 so the law is aperiodic, but u(1) = 0
    with pytest.raises(ConditioningError):
        partition_function(bad, np.zeros(1), 0.1, 0.0, "conditioned")
    del law


def test_martingale_normalization_exact():
    # with h = 0 the site factors are centered, so E[Z] = 1 exactly;
    # checked by exhaustive enumeration of Rademacher disorder
    n = 8
    total_c = 0.0
    total_f = 0.0
    for bits in itertools.product([-1.0, 1.0], repeat=n):
        om = np.array(bits)
        total_c += partition_function(LAW_HALF, om, 0.4, 0.0, "conditioned", RADEMACHER_DISORDER)
        total_f += partition_function(LAW_HALF, om, 0.4, 0.0, "free", RADEMACHER_DISORDER)
    assert total_c / 2**n == pytest.approx(1.0, abs=1e-12)
    assert total_f / 2**n == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_chaos_rewrite_identity(mode):
    rng = np.random.default_rng(17)
    ker = chaos_kernel(LAW_HALF, 10, mode)
    a_n = a_n_scale(LAW_HALF, 10)
    beta, h = 0.45, -0.07
    lam = GAUSSIAN_DISORDER.log_mgf(beta)
    for _ in range(5):
        omega = rng.standard_normal(10)
        zeta = (np.exp(beta * omega - lam + h) - 1.0) / a_n
        via_chaos = eval_multilinear(ker, {i + 1: zeta[i] for i in range(10)})
        direct = partition_function(LAW_HALF, omega, beta, h, mode)
        assert via_chaos == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_discrete_kernel_deterministic_law():
    law = RenewalLaw.from_probabilities([1.0])
    val = discrete_kernel(law, 10, [0.5])
    assert val == pytest.approx(a_n_scale(law, 10))


def test_discrete_kernel_endpoint_time_uses_u0():
    # t_k = 1 is the conditioning point itself: the closing factor is
    # u(0) = 1, so the value reduces to a_N u(N) / u(N) * earlier gaps
    u = renewal_mass(LAW_HALF, 8)
    a = a_n_scale(LAW_HALF, 8)
    val = discrete_kernel(LAW_HALF, 8, [1.0])
    assert val == pytest.approx(a * u[8] / u[8], rel=1e-12)
    val2 = discrete_kernel(LAW_HALF, 8, [0.5, 1.0])
    assert val2 == pytest.approx(a * u[4] * a * u[4] / u[8], rel=1e-12)


def test_discrete_kernel_coincident_times_vanish():
    assert discrete_kernel(LAW_HALF, 10, [0.3, 0.3]) == 0.0


def test_discrete_kernel_off_lattice_rejected():
    with pytest.raises(InputError):
        discrete_kernel(LAW_HALF, 10, [0.123])


def test_discrete_kernel_against_marker_dp():
    """Joint renewal probability via an independent constrained DP."""
    n, t1, t2 = 64, 0.25, 0.75
    a, b = int(t1 * n), int(t2 * n)
    k = LAW_HALF.probs
    # state: (position, markers hit), absorbing at position n; paths that
    # jump strictly over a marker can never hit both, so they are pruned
    probs = {(0, 0): 1.0}
    for _ in range(n):
        new = {}
        for (pos, hit), p in probs.items():
            if pos == n:
                new[(pos, hit)] = new.get((pos, hit), 0.0) + p
                continue
            for gap in (1, 2):
                nxt = pos + gap
                if nxt > n or any(pos < m < nxt for m in (a, b)):
                    continue
                key = (nxt, hit + sum(1 for m in (a, b) if nxt == m))
                new[key] = new.get(key, 0.0) + p * k[gap]
        probs = new
    joint = sum(p for (pos, hit), p in probs.items() if pos == n and hit == 2)
    oracle = joint / renewal_mass(LAW_HALF, n)[n]
    val = discrete_kernel(LAW_HALF, n, [t1, t2])
    assert val == pytest.approx(a_n_scale(LAW_HALF, n) ** 2 * oracle, rel=1e-12)


def test_continuum_kernel_values():
    assert c_alpha(0.75) == pytest.approx(0.168809, abs=1e-6)
    assert continuum_kernel("finite_mean", [0.2, 0.6], 1.0, mean=1.5) == pytest.approx(4.0 / 9.0)
    with pytest.raises(DomainError):
        continuum_kernel("alpha", [0.3, 0.3], 1.0, alpha=0.75)
    with pytest.raises(DomainError):
        continuum_kernel("alpha", [0.3], 1.0, alpha=0.4)


def test_discrete_kernel_converges_to_continuum():
    """Pointwise convergence, with the N^{alpha-1} correction extrapolated.

    The renewal mass approaches its limit like n^{-(1-alpha)}, so the plain
    gap at N = 4096 is still ~20%; the trend must shrink and the Richardson
    extrapolation in that rate must land near the continuum value.
    """
    law = RenewalLaw.heavy_tail(0.75, 20000)
    gaps = []
    vals = {}
    cont = None
    for n in (1024, 4096, 16384):
        ts = (round(0.3 * n) / n, round(0.7 * n) / n)
        disc = discrete_kernel(law, n, ts) * n ** (len(ts) / 2)
        cont = continuum_kernel("alpha", ts, 1.0, "conditioned", alpha=0.75)
        vals[n] = disc
        gaps.append(abs(disc / cont - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    r = (16384 / 4096) ** -0.25
    extrapolated = (vals[16384] - r * vals[4096]) / (1.0 - r)
    assert abs(extrapolated / cont - 1.0) < 0.05


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------


def _brute_second_moment(law, n, beta, h, mode, disorder=GAUSSIAN_DISORDER):
    lam = disorder.log_mgf(beta)
    gamma = disorder.log_mgf(2 * beta) - 2 * lam
    tail = law.tail(n)
    total = 0.0
    u_n = renewal_mass(law, n)[n]
    subsets = []
    for mask in range(1 << n):
        sites = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        ordered = sorted(sites)
        prob = 1.0
        prev = 0
        for s in ordered:
            gap = s - prev
            prob *= law.probs[gap] if gap <= law.n_max else 0.0
            prev = s
        last = ordered[-1] if ordered else 0
        subsets.append((sites, prob, last))
    for s1, p1, l1 in subsets:
        if mode == "conditioned" and l1 != n:
            continue
        w1 = 1.0 if mode == "conditioned" else tail[n - l1]
        for s2, p2, l2 in subsets:
            if mode == "conditioned" and l2 != n:
                continue
            w2 = 1.0 if mode == "conditioned" else tail[n - l2]
            both = len(s1 & s2)
            single = len(s1 ^ s2)
            total += p1 * p2 * w1 * w2 * math.exp(both * (2 * h + gamma) + single * h)
    return total / u_n**2 if mode == "conditioned" else total


@pytest.mark.parametrize("mode", ["conditioned", "free"])
@pytest.mark.parametrize("beta,h", [(0.0, 0.0), (0.6, 0.0), (0.5, 0.15), (0.3, -0.2)])
def test_second_moment_matches_pair_enumeration(mode, beta, h):
    dp = second_moment_exact(LAW_HALF, 8, beta, h, mode)
    brute = _brute_second_moment(LAW_HALF, 8, beta, h, mode)
    assert dp == pytest.approx(brute, rel=1e-12)


def _second_moment_f_loop(law, n, beta, h, mode, disorder=GAUSSIAN_DISORDER):
    """second_moment_exact with F(k) = G(k)/e^{2h} - sum_{0<m<k} F(m) G(k-m)
    by the deconvolution loop that the series inverse 1/G replaced."""
    gamma = disorder.log_mgf(2 * beta) - 2 * disorder.log_mgf(beta)
    e2h = math.exp(2 * h)
    d = pinning._renewal_solve(math.exp(h) * law.probs, n)
    big_g = d * d
    f = np.zeros(n + 1)
    for k in range(1, n + 1):
        f[k] = big_g[k] / e2h - (f[1:k] @ big_g[k - 1 : 0 : -1] if k > 1 else 0.0)
    a = pinning._renewal_solve(e2h * math.exp(gamma) * f, n)
    if mode == "conditioned":
        return a[n] / renewal_mass(law, n)[n] ** 2
    t1 = np.convolve(d, law.tail(n))[: n + 1]
    g_free = t1 * t1
    t_pair = g_free - e2h * np.convolve(f, g_free)[: n + 1]
    return a @ t_pair[::-1]


@pytest.mark.parametrize("mode", ["conditioned", "free"])
@pytest.mark.parametrize("h_hat", [0.0, 0.4])
@pytest.mark.parametrize("law,n", [
    (LAW_HALF, 1000),
    (LAW_HALF, 8000),
    (RenewalLaw.heavy_tail(0.75, 20000), 2000),
], ids=["two-atom-1000", "two-atom-8000", "alpha-2000"])
def test_second_moment_matches_f_loop(law, n, h_hat, mode):
    beta_n, h_n = scale_couplings(law, 1.0, h_hat, n)
    ref = _second_moment_f_loop(law, n, beta_n, h_n, mode)
    assert second_moment_exact(law, n, beta_n, h_n, mode) == pytest.approx(ref, rel=2e-11)


def test_second_moment_no_disorder_squares_mean():
    for mode in ("conditioned", "free"):
        m2 = second_moment_exact(LAW_HALF, 30, 0.0, 0.12, mode)
        z = partition_function(LAW_HALF, np.zeros(30), 0.0, 0.12, mode)
        assert m2 == pytest.approx(z * z, rel=1e-12)


def test_second_moment_jensen_and_monotone_in_beta():
    values = [second_moment_exact(LAW_HALF, 60, b, 0.0, "conditioned")
              for b in np.linspace(0.0, 0.8, 9)]
    assert all(v >= 1.0 - 1e-12 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_continuum_second_moment_finite_mean_value():
    val = continuum_second_moment("finite_mean", 1.0, 0.0, 1.0, mean=1.5)
    assert val == pytest.approx(math.exp(4.0 / 9.0), rel=1e-12)


def test_continuum_second_moment_alpha_reduces_to_dirichlet_series():
    from chaoslim.simplex import dirichlet_closed_form

    for mode, conditioned in (("conditioned", True), ("free", False)):
        alpha, bhat = 0.8, 0.7
        chi = 2.0 * (1.0 - alpha)
        series = sum(
            (bhat * c_alpha(alpha)) ** (2 * k) * dirichlet_closed_form(k, chi, conditioned)
            for k in range(13)
        )
        val = continuum_second_moment("alpha", bhat, 0.0, 1.0, mode=mode, alpha=alpha)
        assert val == pytest.approx(series, rel=1e-12)


def test_continuum_second_moment_alpha_rejects_small_alpha():
    with pytest.raises(DomainError):
        continuum_second_moment("alpha", 1.0, alpha=0.5)


def test_second_moment_converges_finite_mean():
    target = continuum_second_moment("finite_mean", 1.0, 0.0, 1.0, mean=LAW_HALF.mean())
    gaps = []
    for n in (500, 1000, 2000):
        beta_n, h_n = scale_couplings(LAW_HALF, 1.0, 0.0, n)
        m2 = second_moment_exact(LAW_HALF, n, beta_n, h_n, "conditioned")
        gaps.append(abs(m2 / target - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05


def test_second_moment_converges_with_bias():
    law = RenewalLaw.heavy_tail(0.75, 20000)
    target = continuum_second_moment("alpha", 0.8, 0.6, 1.0, alpha=0.75, k_max=14, m_max=14)
    gaps = []
    for n in (500, 2000, 8000):
        beta_n, h_n = scale_couplings(law, 0.8, 0.6, n)
        gaps.append(abs(second_moment_exact(law, n, beta_n, h_n, "conditioned") / target - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_sampled_law_matches_biased_lognormal():
    from scipy.special import ndtr

    from chaoslim.harness import ks_statistic, sample_pinning

    drift, vol = lognormal_limit_law(LAW_HALF.mean(), 1.0, 0.5, 1.0)
    z = sample_pinning(LAW_HALF, 1.0, 0.5, 1000, 10_000, 0, "conditioned")
    ks = ks_statistic(np.log(z), lambda t: ndtr((t - drift) / vol))
    assert ks < 1.3581 / math.sqrt(10_000)


def test_lognormal_limit_law():
    drift, vol = lognormal_limit_law(1.0, 1.0, 0.0, 1.0)
    assert drift == pytest.approx(-0.5)
    assert vol == pytest.approx(1.0)
    drift0, vol0 = lognormal_limit_law(2.0, 0.0, 0.7, 1.0)
    assert vol0 == 0.0
    assert drift0 == pytest.approx(0.35)
    # lognormal mean identity: E[Z] = exp(drift + vol^2/2) = exp(rho h t)
    drift1, vol1 = lognormal_limit_law(1.5, 0.9, 0.4, 2.0)
    assert math.exp(drift1 + 0.5 * vol1**2) == pytest.approx(math.exp((0.4 / 1.5) * 2.0))


@given(
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
    st.floats(0.0, 0.7),
    st.floats(-0.2, 0.2),
)
def test_second_moment_random_laws_match_enumeration(raw, beta, h):
    weights = np.asarray(raw)
    law = RenewalLaw.from_probabilities(weights / weights.sum())
    for mode in ("conditioned", "free"):
        dp = second_moment_exact(law, 6, beta, h, mode)
        brute = _brute_second_moment(law, 6, beta, h, mode)
        assert dp == pytest.approx(brute, rel=1e-10)
