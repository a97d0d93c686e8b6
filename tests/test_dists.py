"""Tests for the shared probability laws."""

import math

import numpy as np
import pytest

from chaoslim.dists import RADEMACHER, Atoms, overlap_weight


def _log_cosh(t):
    """The closed form the Rademacher disorder law used before it became an
    atom law: log cosh t = |t| + log1p(e^{-2|t|}) - log 2."""
    a = abs(t)
    return a + math.log1p(math.exp(-2 * a)) - math.log(2.0)


def test_rademacher_log_mgf_matches_log_cosh():
    t = np.concatenate([np.linspace(-40.0, 40.0, 8001), np.geomspace(1e-12, 1.0, 200)])
    ref = np.array([_log_cosh(x) for x in t])
    got = np.array([RADEMACHER.log_mgf(x) for x in t])
    # the closed form cancels against log 2 near t = 0, so allow one unit
    # of roundoff there on top of 1e-15 relative
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref) + np.finfo(float).eps)
    far = np.abs(t) >= 0.5
    assert np.all(np.abs(got[far] - ref[far]) <= 1e-15 * ref[far])


def test_rademacher_log_mgf_relative_accuracy_near_zero():
    # Taylor series of log cosh, which has no cancellation; at |t| <= 1e-2
    # the first omitted term is below 1e-20 relative
    t = np.concatenate([np.geomspace(1e-8, 1e-2, 61), -np.geomspace(1e-8, 1e-2, 61)])
    ref = t**2 / 2 - t**4 / 12 + t**6 / 45 - 17 * t**8 / 2520
    got = np.array([RADEMACHER.log_mgf(x) for x in t])
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)
    # gamma(beta) = Lambda(2 beta) - 2 Lambda(beta) by the same series
    beta = np.geomspace(1e-4, 1e-2, 21)
    ref = beta**2 - 7 * beta**4 / 6 + 62 * beta**6 / 45 - 17 * 127 * beta**8 / 1260
    got = np.array([overlap_weight(b, RADEMACHER) for b in beta])
    assert np.all(np.abs(got - ref) <= 2e-15 * ref)


def test_atoms_log_mgf_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    for law in (RADEMACHER, Atoms([-1.0, 2.0, 0.5], [0.2, 0.3, 0.5])):
        for t in (*np.geomspace(1e-6, 40.0, 40), -1e-3, -0.7, -5.0):
            with mpmath.workdps(40):
                ref = mpmath.log(sum(mpmath.mpf(float(p)) * mpmath.exp(t * mpmath.mpf(float(v)))
                                     for v, p in zip(law.values, law.probs)))
            assert abs(law.log_mgf(t) - ref) <= 1e-15 * abs(ref), (law, t)


@pytest.mark.parametrize("law", [RADEMACHER, Atoms([-1.0, 2.0, 0.5], [0.2, 0.3, 0.5]),
                                 Atoms([0.0, 1.0, 3.0, 7.0], [0.1, 0.0, 0.6, 0.3])],
                         ids=["rademacher", "three-atom", "zero-prob-atom"])
@pytest.mark.parametrize("shape", [(1,), (7,), (13, 5), (4, 3, 17)])
def test_atoms_fill_draws_what_rng_choice_draws(law, shape):
    # the draws rng.choice made before fill inverted the cdf itself
    for seed in range(3):
        ref = np.random.default_rng(seed).choice(law.values, size=shape,
                                                 p=law.probs / law.probs.sum())
        out = np.empty(shape)
        assert law.fill(np.random.default_rng(seed), out) is out
        assert np.array_equal(out, ref)
