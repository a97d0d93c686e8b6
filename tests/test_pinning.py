"""Tests for the disordered pinning model."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln, logsumexp, zeta

from chaoslim import harness, pinning, wiener
from chaoslim.dists import GAUSSIAN_DISORDER, RADEMACHER, StdGaussian
from chaoslim.errors import (
    ConditioningError,
    DomainError,
    InputError,
    NumericError,
    ResourceError,
)
from chaoslim.pinning import (
    RenewalLaw,
    c_alpha,
    continuum_second_moment,
    lognormal_limit_law,
    partition_function,
    partition_function_batch,
    renewal_mass,
    scale_couplings,
    second_moment_exact,
)
from chaoslim.simplex import dirichlet_closed_form
from oracles import (
    SCIPY_GAMMA_MATH,
    a_n_scale,
    chaos_kernel,
    eval_multilinear,
    value_or_error,
)

LAW_HALF = RenewalLaw.from_probabilities([0.5, 0.5])


def _batch(law, omega, *args):
    """``partition_function_batch`` on a fixed (samples, N) omega array."""
    return partition_function_batch(law, pinning._array_omega(omega), *omega.shape, *args)


# ---------------------------------------------------------------------------
# renewal mass and scalings
# ---------------------------------------------------------------------------


def test_hurwitz_zeta_matches_scipy():
    for alpha in np.linspace(0.51, 0.99, 13):
        for a in (1, 2, 3, 16, 17, 100, 2001, 4001, 20001, 123457, 200001):
            ref = zeta(1.0 + alpha, a)
            assert abs(pinning._hurwitz_zeta(1.0 + alpha, float(a)) - ref) <= 1e-15 * ref


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


def test_heavy_tail_cap_admits_the_largest_cli_law():
    # chaoslim pinning builds n_max = 2 N, so N = _N_CAP must still fit; the
    # malformed-input CLI table checks that 10**12 is refused
    assert RenewalLaw.heavy_tail(0.75, 2 * pinning._N_CAP).n_max == 2 * pinning._N_CAP


def test_periodic_law_rejected():
    with pytest.raises(InputError, match="aperiodic"):
        RenewalLaw.from_probabilities([0.0, 0.5, 0.0, 0.5])  # support {2, 4}
    assert RenewalLaw.from_probabilities([0.0, 0.5, 0.5]).n_max == 3  # support {2, 3}


def test_heavy_tail_rejects_use_beyond_tail_range():
    law = RenewalLaw.heavy_tail(0.75, 100)
    with pytest.raises(InputError):
        scale_couplings(law, 1.0, 0.0, 200)
    with pytest.raises(InputError):
        scale_couplings(law, 1.0, 0.0, 101)
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
    omega = np.array(list(itertools.product([-1.0, 1.0], repeat=8)))
    for mode in ("conditioned", "free"):
        z = _batch(LAW_HALF, omega, 0.4, 0.0, mode, RADEMACHER)
        assert z.mean() == pytest.approx(1.0, abs=1e-12)


def _one_shot_solve(kernel, n_steps, weights=None):
    """The renewal recursion over one (N+1)-row array holding all of x and
    w, as it ran before the transfer was streamed in time blocks."""
    rev = np.ascontiguousarray(kernel[:0:-1])
    n_max = rev.size
    x = np.ones((n_steps + 1,) + np.shape(weights)[:-1], dtype=kernel.dtype)
    if weights is not None:
        x[1:] = weights.T
    for n in range(1, n_steps + 1):
        m = min(n, n_max)
        x[n] *= rev[n_max - m :] @ x[n - m : n]
    return x.T


def _one_shot_partition_batch(law, omega, beta, h, mode, disorder):
    n = omega.shape[1]
    z = _one_shot_solve(law.probs, n, pinning._site_weights(omega.copy(), beta, h, disorder))
    if mode == "conditioned":
        return z[:, n] / _one_shot_solve(law.probs, n)[n]
    return z @ law.tail(n)[::-1]


_STREAM_LAWS = {
    "two-atom": LAW_HALF,
    "five-atom": RenewalLaw.from_probabilities([0.3, 0.25, 0.2, 0.15, 0.1]),
    "alpha-20000": RenewalLaw.heavy_tail(0.75, 20000),
    "alpha-100": RenewalLaw.heavy_tail(0.75, 100),
    # the history the kernel reaches is exactly one block
    "n_max-64": RenewalLaw.from_probabilities(np.full(64, 1.0 / 64)),
    # 64 < n_max < 128: the far history grows through the second block and
    # is n_max rows long from the third
    "geometric-96": RenewalLaw.from_probabilities(0.97 ** np.arange(96) * 0.03 / (1 - 0.97**96)),
}


def _assert_matches_one_shot(law, got, ref, context=None):
    """The blocked transfer sums the far history in another order than the
    one-shot loop.  With two atoms of mass 1/2 every product is exact and
    each step sums at most two of them, so there the results are equal;
    otherwise they agree to a few units of the float64 rounding per step."""
    if law is LAW_HALF:
        assert np.array_equal(got, ref), context
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0, err_msg=str(context))


@pytest.mark.parametrize("disorder", [GAUSSIAN_DISORDER, RADEMACHER],
                         ids=["gaussian", "rademacher"])
@pytest.mark.parametrize("law", _STREAM_LAWS.values(), ids=_STREAM_LAWS.keys())
def test_blocked_transfer_matches_one_shot(law, disorder):
    # free mode sums x(n) P(tau_1 > N - n) block by block inside the
    # transfer.  The alpha-20000 law takes the sum of exponentials from N of
    # about 285 on, whose buffer keeps only the 129 rows its blocks read
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 63, 64, 65, 129, 700, 1000, 2000) + (8000,) * (law.n_max >= 8000):
        omega = disorder.fill(rng, np.empty((7, n)))
        beta, h = 1.0 / math.sqrt(max(n, 1)), 0.4 / max(n, 1)
        for mode in ("conditioned", "free"):
            z = _batch(law, omega, beta, h, mode, disorder)
            ref = _one_shot_partition_batch(law, omega, beta, h, mode, disorder)
            _assert_matches_one_shot(law, z, ref, (n, mode))
    assert np.array_equal(_batch(law, np.zeros((3, 0)), 0.5, 0.1, "free"),
                          np.ones(3))


def test_renewal_solve_hands_its_source_one_block_buffer():
    # the solve owns one (64, rows) buffer and hands the source its first
    # k rows, once a block, in time order; the source fills it and returns
    # nothing.  The solve returns x(N), one value a row
    w = np.random.default_rng(3).uniform(0.5, 1.5, (3, 150))
    calls = []

    def source(n0, out):
        calls.append((n0, out.shape, out.__array_interface__["data"][0]))
        np.copyto(out, w[:, n0 : n0 + out.shape[0]].T)

    x = pinning._renewal_solve(LAW_HALF.probs, 150, source, 3)
    assert [c[:2] for c in calls] == [(0, (64, 3)), (64, (64, 3)), (128, (22, 3))]
    assert len({c[2] for c in calls}) == 1
    assert np.array_equal(x, _one_shot_solve(LAW_HALF.probs, 150, w)[:, -1])


def test_renewal_mass_matches_one_shot():
    # up to N = 64 only the first block's step loop runs; past it each block
    # is one convolve of its far term with x(0..63), whole or cut short
    for name, law in _STREAM_LAWS.items():
        for n in (0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 2000):
            _assert_matches_one_shot(law, renewal_mass(law, n), _one_shot_solve(law.probs, n),
                                     (name, n))
    _assert_matches_one_shot(LAW_HALF, renewal_mass(LAW_HALF, 8000),
                             _one_shot_solve(LAW_HALF.probs, 8000))


@pytest.mark.parametrize("law", [LAW_HALF, RenewalLaw.heavy_tail(0.75, 20000)],
                         ids=["two-atom", "alpha-20000"])
def test_unweighted_block_solve_on_signed_kernels(law):
    # the two full-length kernels second_moment_exact solves after d: -G, whose
    # solution 1/G changes sign, and -e^gamma/G, which is e^{2h+gamma} F past
    # index 0.  Terms of 1/G that cancel to (near) zero keep no relative
    # accuracy in any summation order, so the solve is held to 1e-13 of the
    # solution's largest term
    n = 2000
    beta, h = scale_couplings(law, 1.0, 0.4, n)
    d = _one_shot_solve(math.exp(h) * law.probs, n)
    f = -_one_shot_solve(-d * d, n) / math.exp(2 * h)
    f[0] = 0.0
    gamma = GAUSSIAN_DISORDER.log_mgf(2 * beta) - 2 * GAUSSIAN_DISORDER.log_mgf(beta)
    for kernel in (-d * d, math.exp(2 * h + gamma) * f):
        ref = _one_shot_solve(kernel, n)
        np.testing.assert_allclose(pinning._renewal_solve(kernel, n), ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_partition_batch_memory_is_bounded(mode):
    # the (256, 8000) omega is 16.4 MB; the full weight and history arrays
    # it replaced took 32.8 MB more
    omega = np.random.default_rng(2).standard_normal((256, 8000))
    beta, h = scale_couplings(LAW_HALF, 1.0, 0.4, 8000)
    tracemalloc.start()
    try:
        _batch(LAW_HALF, omega, beta, h, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    # a long kernel on the Toeplitz holds at most the (64, reach) block
    # Toeplitz and reach + 65 history rows, reach = min(N, n_max), as n_max =
    # 1500 < N does; the n_max = 20000 law takes the sum of exponentials at
    # N = 2000 and holds 129 rows.  Before the history slid in runs, numpy
    # copied the whole history on each slide, and the Toeplitz peaked at 1.8
    # times the bound
    law = RenewalLaw.heavy_tail(0.75, 20000)
    omega = np.random.default_rng(2).standard_normal((256, 2000))
    beta, h = scale_couplings(law, 1.0, 0.4, 2000)
    for law, reach, held in ((RenewalLaw.heavy_tail(0.75, 1500), 1500, 1565), (law, 2000, 129)):
        assert pinning._far_history(law.probs, 2000)[0] == held
        tracemalloc.start()
        try:
            _batch(law, omega, beta, h, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (64 * reach + (reach + 64) * 256) * 8, (reach, peak)


def test_sample_pinning_memory_is_bounded():
    # the transfer draws omega a 64-step block at a time, so it holds the
    # history, at most min(N, n_max) + 65 rows, and the 64-row block buffer
    # the draw fills, and no (256, N) omega: at N = 8000 that was 16.4 MB.
    # The alpha law takes the sum of exponentials at both sizes, which holds
    # 129 rows whatever N; it held 5.1 MB at N = 2000 and 17.4 MB at 8000
    # with the whole min(N, n_max) + 65 rows
    harness.sample_pinning(LAW_HALF, 1.0, 0.0, 100, 4, seed=1)  # first-call caches
    alpha = RenewalLaw.heavy_tail(0.75, 20000)
    rows, peaks = 256, {}
    for law, n in ((LAW_HALF, 2000), (LAW_HALF, 8000), (LAW_HALF, 16000),
                   (alpha, 2000), (alpha, 8000)):
        tracemalloc.start()
        try:
            harness.sample_pinning(law, 1.0, 0.0, n, rows, seed=1)
            peaks[law.n_max, n] = peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * rows * (min(n, law.n_max) + 64) * 8, (law.n_max, n)
    assert peaks[2, 16000] <= 1.1 * peaks[2, 2000]
    assert peaks[20000, 8000] <= 1.1 * peaks[20000, 2000]


def test_sample_pinning_caps_chunk_rows_by_the_history(monkeypatch):
    # a transfer holds min(N, n_max) + 65 history rows a sample on the
    # Toeplitz, 67 for the two-atom law; past _PINNING_HISTORY values a chunk
    # takes fewer samples, still in one transfer call
    calls = []
    batch = pinning.partition_function_batch

    def counted(law, omega, rows, *args):
        calls.append(rows)
        return batch(law, omega, rows, *args)

    monkeypatch.setattr(pinning, "partition_function_batch", counted)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_PINNING_HISTORY", 67 * 300 + 66)
        harness.sample_pinning(LAW_HALF, 1.0, 0.0, 100, 700, 0)
    assert calls == [300, 300, 100]
    # the alpha law takes the sum of exponentials from N of about 285 on and
    # holds 129 rows at any N, so the cap of 67 MB never binds; the 8065
    # rows of the Toeplitz would have capped a chunk at 1040 samples at N = 8000
    alpha = RenewalLaw.heavy_tail(0.75, 20000)
    assert pinning._far_history(alpha.probs, 8000)[0] == 129
    assert harness._PINNING_HISTORY // 129 >= harness._PINNING_CHUNK
    calls.clear()
    monkeypatch.setattr(harness, "_PINNING_HISTORY", 129 * 300)
    harness.sample_pinning(alpha, 1.0, 0.0, 700, 700, 0)
    harness.sample_pinning(alpha, 1.0, 0.0, 250, 200, 0)  # the Toeplitz: 315 rows
    assert calls == [300, 300, 100, 122, 78]


def test_partition_batch_bad_input():
    with pytest.raises(InputError):
        partition_function(LAW_HALF, np.zeros((1, 10)), 0.1, 0.0)
    with pytest.raises(InputError):
        renewal_mass(LAW_HALF, -1)

    def no_draw(n0, out):
        raise AssertionError("disorder read")

    for mode in ("conditioned", "free"):
        with pytest.raises(ResourceError):
            partition_function_batch(LAW_HALF, no_draw, 1, pinning._N_CAP + 1, 0.1, 0.0, mode)
    with pytest.raises(InputError):
        partition_function_batch(LAW_HALF, no_draw, 1, 10, 0.1, 0.0, "quenched")


def test_sample_pinning_checks_cap_before_drawing():
    class NoDraw(StdGaussian):
        def fill(self, rng, out):
            raise AssertionError("disorder drawn")

    with pytest.raises(ResourceError):
        harness.sample_pinning(LAW_HALF, 1.0, 0.0, 300_000, 2, 0, "free", NoDraw())


@pytest.mark.parametrize("mode", ["conditioned", "free"])
@pytest.mark.parametrize("disorder", [GAUSSIAN_DISORDER, RADEMACHER],
                         ids=["gaussian", "rademacher"])
def test_sample_pinning_streams_time_major_blocks(disorder, mode):
    # 2100 samples cross the 2000-sample chunk boundary.  Each chunk's
    # transfer draws its omega a 64-step block at a time, time-major, from
    # the chunk's Generator, so the whole time-major omega drawn at once gives
    # the same samples.  The alpha law's matrix products may sum in another
    # order, so there they are held to a few units of rounding
    for law, n in ((LAW_HALF, 300), (RenewalLaw.heavy_tail(0.75, 20000), 700)):
        got = harness.sample_pinning(law, 1.0, 0.4, n, 2100, 3, mode, disorder)
        beta, h = scale_couplings(law, 1.0, 0.4, n)
        ref = np.concatenate([
            _batch(law, disorder.fill(np.random.default_rng(ss), np.empty((n, rows))).T,
                   beta, h, mode, disorder)
            for ss, rows in zip(np.random.SeedSequence(3).spawn(2), (2000, 100))])
        if law is LAW_HALF:
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# the far history of a power-law kernel as a sum of exponentials
# ---------------------------------------------------------------------------


def _sum_on_far_lags(exps, reach):
    """The sum of exponentials on lags 65..reach: lag 64 i + j is
    near[j - 1] @ decay^i."""
    near, decay, _ = exps
    blocks = -(-reach // 64) - 1
    return (near @ decay ** np.arange(1, blocks + 1)).T.ravel()[: reach - 64]


def test_power_exponentials_match_the_kernel():
    k = RenewalLaw.heavy_tail(0.75, 20000).probs
    # the slow end of the trapezoid merges into 6 terms: J = 47 and 53, not
    # the trapezoid's 104 and 109
    for reach, most_terms in ((2000, 47), (8000, 53)):
        exps = pinning._power_exponentials(k, reach)
        assert exps[1].size <= most_terms
        np.testing.assert_allclose(_sum_on_far_lags(exps, reach), k[65 : reach + 1],
                                   rtol=1e-14, atol=0)
    # the folded tail atom at lag N, one changed lag, a power too steep for
    # the step, and a law whose Toeplitz costs less keep the Toeplitz
    assert pinning._power_exponentials(RenewalLaw.heavy_tail(0.55, 4000).probs, 4000) is None
    bent = k.copy()
    bent[1000] *= 1 + 1e-9
    assert pinning._power_exponentials(bent, 2000) is None
    steep = np.append(0.0, np.arange(1.0, 2001.0) ** -3.8)
    assert pinning._power_exponentials(steep, 2000) is None
    assert pinning._power_exponentials(k, 284) is None
    # a geometric law fits p = 234, whose weights would overflow
    geometric = RenewalLaw.from_probabilities(0.5 ** np.arange(1, 1001) / (1 - 0.5**1000))
    assert pinning._power_exponentials(geometric.probs, 1000) is None
    omega = np.random.default_rng(1).standard_normal((2, 1000))
    _assert_matches_one_shot(geometric, _batch(geometric, omega, 0.1, 0.0),
                             _one_shot_partition_batch(geometric, omega, 0.1, 0.0,
                                                       "conditioned", GAUSSIAN_DISORDER))


@pytest.mark.parametrize("disorder", [GAUSSIAN_DISORDER, RADEMACHER],
                         ids=["gaussian", "rademacher"])
@pytest.mark.parametrize("h_hat", [0.0, 0.4])
def test_far_history_sum_matches_one_shot(disorder, h_hat):
    # from N of about 285 the transfer takes lags past 127 as ~50
    # exponentials; below it the Toeplitz.  The worst gap measured was 6.8e-15
    law = RenewalLaw.heavy_tail(0.75, 20000)
    rng = np.random.default_rng(13)
    for n in (63, 64, 65, 127, 128, 129, 255, 2000, 8000):
        omega = disorder.fill(rng, np.empty((5, n)))
        beta, h = scale_couplings(law, 1.0, h_hat, n)
        z = _one_shot_solve(law.probs, n, pinning._site_weights(omega.copy(), beta, h, disorder))
        refs = {"conditioned": z[:, n] / _one_shot_solve(law.probs, n)[n],
                "free": z @ law.tail(n)[::-1]}
        for mode, ref in refs.items():
            got = _batch(law, omega, beta, h, mode, disorder)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0, err_msg=f"{n} {mode}")


def test_other_kernels_keep_the_toeplitz(monkeypatch):
    # with the tolerance below zero no sum passes the check, which forces the
    # Toeplitz; a kernel that fails it by itself must give the same bits
    law = RenewalLaw.heavy_tail(0.75, 20000)
    bent = law.probs.copy()
    bent[1000] *= 1 + 1e-9
    bent_law = RenewalLaw(bent, "alpha", 0.75, law.tail_constant)
    folded = RenewalLaw.heavy_tail(0.55, 4000)
    omega = np.random.default_rng(5).standard_normal((6, 4000))
    cases = [(law, omega[:, :2000]), (bent_law, omega[:, :2000]), (folded, omega)]
    got = [_batch(lw, om, 0.05, 0.001, mode)
           for lw, om in cases for mode in ("conditioned", "free")]
    monkeypatch.setattr(pinning, "_EXP_TOL", -1.0)
    toeplitz = [_batch(lw, om, 0.05, 0.001, mode)
                for lw, om in cases for mode in ("conditioned", "free")]
    assert not np.array_equal(got[0], toeplitz[0])  # the pure power takes the sum
    for a, b in zip(got[2:], toeplitz[2:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_power_kernel_takes_the_sum(mode):
    # the (64, 8000) Toeplitz is 4.1 MB on top of the 4.1 MB history buffer
    # of all 8001 rows; the sum of exponentials takes the Toeplitz's place
    # and holds 129 rows, and the peak was 0.53 MB (0.59 MB free)
    law = RenewalLaw.heavy_tail(0.75, 20000)
    omega = np.random.default_rng(2).standard_normal((64, 8000))
    beta, h = scale_couplings(law, 1.0, 0.4, 8000)
    tracemalloc.start()
    try:
        _batch(law, omega, beta, h, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8001 * 64 * 8 / 4


@pytest.mark.parametrize("cells", [128, 2048, 2560])
def test_alpha_reference_matches_one_shot(cells):
    # the reference kernel (m/M)^{alpha - 1} is a power with p = 1/4, which
    # takes J ~ 48 exponentials and the sum from M = 285 on.  Its
    # weights are signed, so the gap is held to a multiple of max |Z|
    rows = 100
    w = c_alpha(0.75) * wiener.sample_noise_batch(cells, 9, rows)
    w[:, -1] = 1.0
    kernel = np.append(0.0, (np.arange(1, cells + 1) / cells) ** -0.25)
    ref = _one_shot_solve(kernel, cells, w)[:, -1]
    got = harness.pinning_alpha_reference(0.75, 1.0, cells=cells, n_samples=rows, seed=9)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert got.base is None  # x(M) alone, not a view that keeps the transfer's buffer


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
    val = chaos_kernel(law, 10).entries[(5,)]
    assert val == pytest.approx(a_n_scale(law, 10))


def test_discrete_kernel_endpoint_time_uses_u0():
    # site N is the conditioning point itself: the closing factor is
    # u(0) = 1, so the value reduces to a_N u(N) / u(N) * earlier gaps
    u = renewal_mass(LAW_HALF, 8)
    a = a_n_scale(LAW_HALF, 8)
    ker = chaos_kernel(LAW_HALF, 8)
    assert ker.entries[(8,)] == pytest.approx(a * u[8] / u[8], rel=1e-12)
    assert ker.entries[(4, 8)] == pytest.approx(a * u[4] * a * u[4] / u[8], rel=1e-12)


def test_discrete_kernel_against_marker_dp():
    """Joint renewal probability via an independent constrained DP."""
    n, a, b = 16, 4, 12
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
    val = chaos_kernel(LAW_HALF, n).entries[(a, b)]
    assert val == pytest.approx(a_n_scale(LAW_HALF, n) ** 2 * oracle, rel=1e-12)


def test_c_alpha_value():
    assert c_alpha(0.75) == pytest.approx(0.168809, abs=1e-6)


def test_discrete_kernel_converges_to_continuum():
    """Pointwise convergence, with the N^{alpha-1} correction extrapolated.

    The discrete kernel at sites i_1 < i_2 is a_N^2 u(i_1) u(i_2 - i_1)
    u(N - i_2) / u(N); rescaled by N^{k/2} it tends to the conditioned
    continuum kernel c_alpha^2 (t_1 (t_2 - t_1) (1 - t_2))^{alpha-1}.
    The renewal mass approaches its limit like n^{-(1-alpha)}, so the plain
    gap at N = 4096 is still ~20%; the trend must shrink and the Richardson
    extrapolation in that rate must land near the continuum value.
    """
    law = RenewalLaw.heavy_tail(0.75, 20000)
    gaps = []
    vals = {}
    cont = None
    for n in (1024, 4096, 16384):
        i1, i2 = round(0.3 * n), round(0.7 * n)
        u = renewal_mass(law, n)
        a = a_n_scale(law, n)
        disc = a * u[i1] * a * u[i2 - i1] * u[n - i2] / u[n] * n
        t1, t2 = i1 / n, i2 / n
        cont = c_alpha(0.75) ** 2 * (t1 * (t2 - t1) * (1.0 - t2)) ** -0.25
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


def _second_moment_longdouble(law, n, beta, h, mode):
    """second_moment_exact's recursions in np.longdouble, one step at a time."""
    probs = law.probs.astype(np.longdouble)
    lam = GAUSSIAN_DISORDER.log_mgf
    gamma = np.longdouble(lam(2 * beta) - 2 * lam(beta))
    e_h = np.exp(np.longdouble(h))
    d = _one_shot_solve(e_h * probs, n)
    big_g = d * d
    f = -_one_shot_solve(-big_g, n) / e_h**2
    f[0] = 0.0
    a = _one_shot_solve(e_h**2 * np.exp(gamma) * f, n)
    if mode == "conditioned":
        return a[n] / _one_shot_solve(probs, n)[n] ** 2
    # P(tau_1 > j) for j = 0..n, zero from n_max on, as RenewalLaw.tail builds it
    tail = np.zeros(n + 1, dtype=np.longdouble)
    m = min(n, law.n_max)
    tail[: m + 1] = np.clip(1.0 - np.cumsum(probs)[: m + 1], 0.0, None)
    t1 = np.convolve(d, tail)[: n + 1]
    g_free = t1 * t1
    t_pair = g_free - e_h**2 * np.convolve(f, g_free)[: n + 1]
    return a @ t_pair[::-1]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_second_moment_matches_longdouble(mode):
    alpha_law = RenewalLaw.heavy_tail(0.75, 4000)
    for law, n, beta_hat, h_hat in (
        (LAW_HALF, 2000, 1.0, 0.0),
        (LAW_HALF, 2000, 1.0, 0.4),
        (LAW_HALF, 3000, 6.0, -0.5),
        # strong coupling with N < n_max, where the tail is cut at N
        (alpha_law, 1000, 4.0, 0.4),
        (alpha_law, 2000, 8.0, 0.4),
    ):
        beta_n, h_n = scale_couplings(law, beta_hat, h_hat, n)
        ref = _second_moment_longdouble(law, n, beta_n, h_n, mode)
        got = second_moment_exact(law, n, beta_n, h_n, mode)
        assert abs(np.longdouble(got) / ref - 1) < 2e-11, (n, beta_hat, h_hat)


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
    val = continuum_second_moment(LAW_HALF, 1.0, 0.0, "conditioned")  # E[tau_1] = 3/2
    assert val == pytest.approx(math.exp(4.0 / 9.0), rel=1e-12)


def test_continuum_second_moment_alpha_reduces_to_dirichlet_series():
    # at h_hat = 0 the series is sum_k (bhat c_alpha)^{2k} D_k(2(1 - alpha)), with
    # D_k the simplex integral in its Gamma closed form; 2,000 terms in log space
    # hold the whole sum, which at bhat = 8 still grows past degree 12
    k = np.arange(2000)
    for alpha, bhat in ((0.8, 0.7), (0.75, 5.0), (0.75, 8.0), (0.75, 10.0)):
        a = 2.0 * alpha - 1.0
        for mode, log_d in (("conditioned", (k + 1) * gammaln(a) - gammaln((k + 1) * a)),
                            ("free", k * gammaln(a) - gammaln(k * a + 1.0))):
            series = math.exp(logsumexp(2.0 * k * math.log(bhat * c_alpha(alpha)) + log_d))
            val = continuum_second_moment(RenewalLaw.heavy_tail(alpha, 2), bhat, 0.0, mode)
            assert val == pytest.approx(series, rel=1e-13), (alpha, bhat, mode)


@pytest.mark.parametrize("mode", ["conditioned", "free"])
@pytest.mark.parametrize("h_hat", [-4.0, -2.0, 0.6, 4.0])
def test_continuum_second_moment_alpha_bias_is_square_of_dirichlet_series(h_hat, mode):
    # at bhat = 0 the limit is the number sum_k (h_hat c_alpha)^k D_k(1 - alpha),
    # with D_k the simplex integral in its Gamma closed form, so the second
    # moment is its square; 200 terms hold the whole sum
    alpha = 0.75
    y = h_hat * c_alpha(alpha)
    z = sum(y**k * dirichlet_closed_form(k, 1.0 - alpha, mode == "conditioned")
            for k in range(200))
    val = continuum_second_moment(RenewalLaw.heavy_tail(alpha, 2), 0.0, h_hat, mode)
    assert val == pytest.approx(z * z, rel=1e-13)


@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_continuum_second_moment_matches_scipy_gammaln(mode, monkeypatch):
    # the alpha series takes its log-Gammas from math.lgamma; with scipy's
    # gammaln in its place it is summed as before, term for term.  A series
    # that was not summable (alpha = 0.55, bhat = 2, h_hat = 0.4 conditioned,
    # and bhat = 20, 30) still fails with the same error after as many terms
    grid = [(alpha, bhat, h_hat) for alpha in (0.55, 0.6, 0.7, 0.75, 0.9)
            for bhat in (0.5, 1.0, 2.0) for h_hat in (0.0, 0.4, -0.3)]
    grid += [(0.75, 20.0, 0.0), (0.75, 30.0, 0.0)]

    def outcomes():
        return [value_or_error(continuum_second_moment, RenewalLaw.heavy_tail(alpha, 2),
                                bhat, h_hat, mode) for alpha, bhat, h_hat in grid]

    values = outcomes()
    monkeypatch.setattr(pinning, "math", SCIPY_GAMMA_MATH)
    refs = outcomes()
    for point, value, ref in zip(grid, values, refs):
        if isinstance(ref, str):
            assert value == ref, point
        else:
            assert abs(value / ref - 1.0) <= 1e-13, point
    assert sum(isinstance(ref, str) for ref in refs) == (3 if mode == "conditioned" else 2)


@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_continuum_second_moment_not_summable_is_numeric_error(mode):
    law = RenewalLaw.heavy_tail(0.75, 2)
    with pytest.raises(NumericError, match="not summable"):
        continuum_second_moment(law, 30.0, 0.0, mode)
    with pytest.raises(NumericError, match="overflows"):
        continuum_second_moment(LAW_HALF, 40.0, 0.0, mode)


def test_second_moment_converges_finite_mean():
    target = continuum_second_moment(LAW_HALF, 1.0, 0.0, "conditioned")
    gaps = []
    for n in (500, 1000, 2000):
        beta_n, h_n = scale_couplings(LAW_HALF, 1.0, 0.0, n)
        m2 = second_moment_exact(LAW_HALF, n, beta_n, h_n, "conditioned")
        gaps.append(abs(m2 / target - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05


def test_second_moment_converges_with_bias():
    law = RenewalLaw.heavy_tail(0.75, 20000)
    target = continuum_second_moment(law, 0.8, 0.6, "conditioned")
    gaps = []
    for n in (500, 2000, 8000):
        beta_n, h_n = scale_couplings(law, 0.8, 0.6, n)
        gaps.append(abs(second_moment_exact(law, n, beta_n, h_n, "conditioned") / target - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_sampled_law_matches_biased_lognormal():
    from scipy.special import ndtr

    from chaoslim.harness import ks_statistic, sample_pinning

    drift, vol = lognormal_limit_law(LAW_HALF, 1.0, 0.5)
    z = sample_pinning(LAW_HALF, 1.0, 0.5, 1000, 10_000, 0, "conditioned")
    ks = ks_statistic(np.log(z), lambda t: ndtr((t - drift) / vol))
    assert ks < 1.3581 / math.sqrt(10_000)


def test_lognormal_limit_law():
    drift, vol = lognormal_limit_law(RenewalLaw.from_probabilities([1.0]), 1.0, 0.0)
    assert drift == pytest.approx(-0.5)
    assert vol == pytest.approx(1.0)
    drift0, vol0 = lognormal_limit_law(RenewalLaw.from_probabilities([0.5, 0.0, 0.5]), 0.0, 0.7)
    assert vol0 == 0.0
    assert drift0 == pytest.approx(0.35)
    # lognormal mean identity: E[Z] = exp(drift + vol^2/2) = exp(rho h)
    drift1, vol1 = lognormal_limit_law(LAW_HALF, 0.9, 0.4)
    assert math.exp(drift1 + 0.5 * vol1**2) == pytest.approx(math.exp(0.4 / 1.5))
    with pytest.raises(DomainError):
        lognormal_limit_law(RenewalLaw.heavy_tail(0.75, 2), 1.0, 0.0)


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
