"""Tests for the sparse multi-linear polynomial algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chaoslim.chaos import (
    Kernel,
    TruncatedMoments,
    c_psi,
    lindeberg_bound,
    max_influence,
    truncate,
    truncated_moments,
)
from chaoslim.dists import Atoms, StdGaussian
from chaoslim.errors import InputError, PreconditionError
from oracles import eval_multilinear

index_sets = st.frozensets(st.integers(0, 7), max_size=4).map(lambda s: tuple(sorted(s)))
coefs = st.floats(-10, 10, allow_nan=False).filter(lambda c: c != 0.0)
kernels = st.dictionaries(index_sets, coefs, max_size=12).map(Kernel)


def influence(kernel, site):
    """Squared-coefficient mass of the entries containing ``site``: the
    oracle for ``max_influence``, one site at a time."""
    return sum(c * c for i, c in kernel.entries.items() if site in i)


def random_kernel(rng, n_sites=6, max_degree=3, n_entries=12):
    entries = {}
    for _ in range(n_entries):
        size = rng.integers(0, max_degree + 1)
        sites = tuple(sorted(rng.choice(n_sites, size=size, replace=False).tolist()))
        entries[sites] = float(rng.standard_normal())
    return Kernel(entries)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_direct_expansion():
    ker = Kernel({(): 1.0, (1,): 2.0, (1, 2): 3.0})
    assert eval_multilinear(ker, {1: 1.0, 2: -1.0}) == pytest.approx(0.0, abs=1e-15)


def test_eval_constant_polynomial():
    ker = Kernel({(): 4.5})
    assert eval_multilinear(ker, {}) == 4.5
    assert eval_multilinear(ker, {3: 100.0}) == 4.5


def test_eval_missing_site_is_input_error():
    ker = Kernel({(0, 1): 1.0})
    with pytest.raises(InputError):
        eval_multilinear(ker, {0: 1.0})


def test_eval_matches_term_by_term_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ker = random_kernel(rng)
        x = {i: float(rng.standard_normal()) for i in range(6)}
        oracle = 0.0
        for sites, coef in ker.entries.items():
            term = coef
            for s in sites:
                term = term * x[s]
            oracle += term
        assert eval_multilinear(ker, x) == pytest.approx(oracle, abs=1e-12)


@given(kernels, kernels, st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
def test_eval_linearity(k1, k2, a, b):
    combined = dict()
    for sites in set(k1.entries) | set(k2.entries):
        combined[sites] = a * k1.entries.get(sites, 0.0) + b * k2.entries.get(sites, 0.0)
    ker = Kernel(combined)
    x = {i: 0.5 + 0.1 * i for i in range(8)}
    lhs = eval_multilinear(ker, x)
    rhs = a * eval_multilinear(k1, x) + b * eval_multilinear(k2, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# coefficient mass, influences
# ---------------------------------------------------------------------------


def test_c_psi_values():
    assert c_psi(Kernel({(1,): 1.0, (1, 2): 2.0})) == 5.0
    assert c_psi(Kernel({})) == 0.0
    # empty-set entry is excluded from the fluctuating mass
    assert c_psi(Kernel({(): 7.0, (1,): 1.0})) == 1.0


def test_c_psi_recomputation_oracle():
    rng = np.random.default_rng(1)
    ker = random_kernel(rng, n_entries=10)
    oracle = sum(c * c for sites, c in ker.entries.items() if sites)
    assert c_psi(ker) == pytest.approx(oracle, rel=1e-15)


def test_influence_values():
    ker = Kernel({(1,): 1.0, (1, 2): 2.0})
    assert influence(ker, 1) == 5.0
    assert influence(ker, 2) == 4.0
    assert influence(ker, 3) == 0.0


@given(kernels)
def test_influence_sum_identity(ker):
    total = sum(influence(ker, s) for s in set().union(*ker.entries))
    by_size = sum(len(sites) * c * c for sites, c in ker.entries.items())
    assert total == pytest.approx(by_size, rel=1e-12, abs=1e-12)


@given(kernels)
def test_max_influence_is_largest_site_influence(ker):
    sites = set().union(*ker.entries)
    assert max_influence(ker) == max((influence(ker, s) for s in sites), default=0.0)


def test_influence_is_conditional_variance():
    # E[ Var(Psi | zeta_{!=i}) ] = Inf_i for zero-mean unit-variance inputs;
    # the inner variance is B^2 with B the partial derivative in zeta_i.
    rng = np.random.default_rng(7)
    ker = random_kernel(rng, n_sites=5, n_entries=8)
    site = 2
    deriv = Kernel(
        {tuple(s for s in sites if s != site): c
         for sites, c in ker.entries.items() if site in sites}
    )
    n = 40_000
    zeta = rng.standard_normal((n, 5))
    b = np.array([eval_multilinear(deriv, {i: z[i] for i in range(5)}) for z in zeta[:4000]])
    est = float((b**2).mean())
    se = float((b**2).std(ddof=1) / math.sqrt(b.size))
    assert abs(est - influence(ker, site)) <= 3 * se


def test_parseval_variance():
    rng = np.random.default_rng(3)
    ker = random_kernel(rng, n_sites=5, n_entries=8)
    n = 20_000
    zeta = rng.standard_normal((n, 5))
    vals = np.array([eval_multilinear(ker, dict(enumerate(z))) for z in zeta[:5000]])
    var = float(vals.var(ddof=1))
    se = float(((vals - vals.mean()) ** 2).std(ddof=1) / math.sqrt(vals.size))
    assert abs(var - c_psi(ker)) <= 4 * se


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncate_examples():
    ker = Kernel({(1,): 1.0, (1, 2): 2.0})
    low, high = truncate(ker, 1)
    assert dict(low.entries) == {(1,): 1.0}
    assert dict(high.entries) == {(1, 2): 2.0}
    ker0 = Kernel({(): 3.0, (1,): 1.0, (1, 2): 2.0})
    low0, high0 = truncate(ker0, 0)
    assert dict(low0.entries) == {(): 3.0}
    assert set(high0.entries) == {(1,), (1, 2)}


@given(kernels, st.integers(0, 4))
def test_truncate_mass_additivity(ker, ell):
    low, high = truncate(ker, ell)
    assert c_psi(low) + c_psi(high) == pytest.approx(c_psi(ker), rel=1e-12, abs=1e-12)
    recombined = dict(low.entries)
    recombined.update(high.entries)
    assert recombined == dict(ker.entries)


# ---------------------------------------------------------------------------
# truncated moments and the distance bounds
# ---------------------------------------------------------------------------


def test_truncated_moments_fair_coin():
    m = truncated_moments([Atoms([-1.0, 1.0], [0.5, 0.5])], 2.0)
    assert m.m2_above == 0.0
    assert m.m3_below == 1.0


def test_truncated_moments_gaussian():
    m = truncated_moments([StdGaussian()], math.inf)
    assert m.m3_below == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
    assert m.m2_above == 0.0


def test_truncated_moments_atoms_example():
    law = Atoms([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    m = truncated_moments([law], 1.0)
    assert m.m2_above == pytest.approx(2.0)


def test_truncated_moments_nonzero_mean_rejected():
    with pytest.raises(InputError):
        truncated_moments([Atoms([0.0, 1.0], [0.5, 0.5])], 1.0)


def _flat_kernel(n):
    return Kernel({(i,): 1.0 / math.sqrt(n) for i in range(n)})


def test_lindeberg_bound_flat_kernel_formula():
    n = 25
    m3 = 2.0 * math.sqrt(2.0 / math.pi)
    moments = TruncatedMoments(0.0, m3)
    bound = lindeberg_bound(_flat_kernel(n), 1, moments, c_f=1.0)
    assert bound == pytest.approx(70.0**2 * m3 / math.sqrt(n), rel=1e-12)


def test_lindeberg_bound_empty_kernel():
    assert lindeberg_bound(Kernel({}), 1, TruncatedMoments(0.0, 1.0), 1.0) == 0.0


def test_lindeberg_bound_precondition():
    with pytest.raises(PreconditionError):
        lindeberg_bound(_flat_kernel(4), 1, TruncatedMoments(0.3, 1.0), 1.0)


@given(
    st.floats(0, 0.25, allow_nan=False),
    st.floats(0, 0.25, allow_nan=False),
    st.floats(0.1, 3.0, allow_nan=False),
    st.floats(0.1, 3.0, allow_nan=False),
)
def test_lindeberg_bound_monotone(m2a, m2b, m3a, m3b):
    ker = Kernel({(0,): 0.5, (1, 2): 0.7, (0, 1, 2): 0.2})
    lo = lindeberg_bound(ker, 2, TruncatedMoments(min(m2a, m2b), min(m3a, m3b)), 1.0)
    hi = lindeberg_bound(ker, 2, TruncatedMoments(max(m2a, m2b), max(m3a, m3b)), 2.0)
    assert lo <= hi + 1e-12


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_kernel_drops_zero_entries_and_canonicalizes():
    ker = Kernel({(3, 1): 2.0, (5,): 0.0})
    assert dict(ker.entries) == {(1, 3): 2.0}
    with pytest.raises(InputError):
        Kernel({(1, 1): 1.0})


def test_kernel_degree_and_sites():
    ker = Kernel({(): 1.0, (2, 5): 1.5})
    assert set(ker.entries) == {(), (2, 5)}
    assert set().union(*ker.entries) == {2, 5}
