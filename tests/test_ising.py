"""Tests for the desk-scale critical Ising / RFIM machinery."""

import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from chaoslim import harness, ising
from chaoslim.dists import GAUSSIAN_DISORDER, RADEMACHER
from chaoslim.errors import InputError, ResourceError
from chaoslim.ising import (
    BETA_C,
    FieldProfiles,
    LatticeSpinSystem,
    Rect,
    normalization_prefactor,
    rfim_partition_xi,
    scale_fields,
    _rfim_partition_batch,
)
from oracles import (
    chaos_rewrite,
    correlation,
    eval_multilinear,
    f_omega_l2_ratio,
    f_omega_sq_batch,
    gks_decoupling_check,
    sample_interior,
)


def rect(width, height):
    """The width x height block of sites with a corner at the origin."""
    return LatticeSpinSystem(range(width), range(height))


ONE = rect(1, 1)
SQ22 = rect(2, 2)
SQ33 = rect(3, 3)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_single_site_closed_form():
    assert correlation(ONE, [(0, 0)]) == pytest.approx(math.tanh(4.0 * BETA_C), abs=1e-12)


def test_empty_set_correlation_is_one():
    assert correlation(SQ33, []) == 1.0


def test_correlations_in_unit_interval():
    for i in range(3):
        for j in range(3):
            c = correlation(SQ33, [(i, j)])
            assert 0.0 < c < 1.0


def test_fkg_monotone_in_domain():
    assert correlation(SQ33, [(1, 1)]) < correlation(ONE, [(0, 0)])


def test_pair_correlation_symmetry():
    assert correlation(SQ22, [(0, 0), (1, 1)]) == pytest.approx(
        correlation(SQ22, [(1, 1), (0, 0)])
    )
    # lattice symmetry of the square
    assert correlation(SQ22, [(0, 0)]) == pytest.approx(correlation(SQ22, [(1, 1)]), rel=1e-12)


def test_transfer_cap():
    # sites x 2^(frontier spins): 25 x 2^5 builds, 13 x 13 x 2^13 > 2^20 does not
    assert rect(5, 5).n_sites == 25
    assert LatticeSpinSystem.from_domain(Rect.unit_square(), 1 / 6).n_sites == 25
    with pytest.raises(ResourceError, match="transfer cap"):
        rect(13, 13)
    with pytest.raises(ResourceError, match="transfer cap"):
        LatticeSpinSystem.from_domain(Rect.unit_square(), 1 / 14)
    # a strip of 2^21 sites, though its frontier holds one spin: refused on
    # its sites alone
    with pytest.raises(ResourceError, match="more sites than the transfer cap"):
        rect(1, 1 << 21)


def test_system_is_two_axis_ranges():
    system = LatticeSpinSystem.from_domain(Rect(-0.5, 0.25, 1.0, 1.0), 0.25)
    assert (system.xs, system.ys) == (range(-1, 4), range(2, 4))
    assert system == LatticeSpinSystem(range(-1, 4), range(2, 4))
    assert hash(system) == hash(LatticeSpinSystem(range(-1, 4), range(2, 4)))
    # the weight order: sorted sites, x-major
    assert system.interior == tuple(sorted(system.interior))
    assert system.interior[:3] == ((-1, 2), (-1, 3), (0, 2))
    assert (system.n_sites, system.frontier_spins) == (10, 2)
    # a benchmark tracer keeps weak references to systems
    assert weakref.ref(system)() is system


@pytest.mark.parametrize("xs, ys", [
    (range(0, 6, 2), range(3)), (range(3), range(3, 0, -1)), ((0, 1, 2), range(3)),
    (range(3), [0, 1]), (range(3), range(0)), (range(2, 1), range(3)),
], ids=["step-2", "step-minus-1", "tuple", "list", "empty", "reversed"])
def test_system_rejects_what_is_not_two_ranges(xs, ys):
    with pytest.raises(InputError):
        LatticeSpinSystem(xs, ys)


# ---------------------------------------------------------------------------
# RFIM partition function and the chaos rewrite
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _spin_table(system):
    """Boltzmann weights of all 2^n configurations c, spin k being -1 where
    bit k of c is set, so that prod_{k in I} spin_k is (-1)^{popcount(c & I)}
    and all correlations come out of one Walsh-Hadamard transform."""
    inner = {s: k for k, s in enumerate(system.interior)}
    n = system.n_sites
    bonds, bcount = [], np.zeros(n)
    for (i, j), k in inner.items():
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb not in inner:
                bcount[k] += 1.0
            elif inner[nb] > k:
                bonds.append((k, inner[nb]))
    weights = np.empty(1 << n)
    chunk = min(1 << n, 1 << 16)
    for start in range(0, 1 << n, chunk):
        c = np.arange(start, start + chunk)
        s = 1.0 - 2.0 * ((c[:, None] >> np.arange(n)) & 1)
        energy = s @ bcount
        for a, b in bonds:
            energy += s[:, a] * s[:, b]
        weights[start : start + chunk] = np.exp(BETA_C * energy)
    return weights


def _rfim_partition_enum(system, xi):
    """E+[exp(xi . sigma)] by enumeration: the spin table's Boltzmann weights
    against prod_k e^{xi_k sigma_k} over all 2^n configurations."""
    weights = _spin_table(system)
    factor = np.ones(1)
    for v in xi:
        factor = np.concatenate([factor * math.exp(v), factor * math.exp(-v)])
    return float(weights @ factor / weights.sum())


def _correlations_enum(system):
    """E+[sigma^I] for every subset bitmask I: the spin table's fast
    Walsh-Hadamard transform over its total weight."""
    v = _spin_table(system).copy()
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        v[:, :h] = left + v[:, h:]
        v[:, h:] = left - v[:, h:]
        v = v.ravel()
        h *= 2
    return v / v[0]


# every rectangle of at most 20 spins, the reach of the enumeration oracle,
# in both orientations: the shapes from_domain builds, and the 1 x k and
# k x 1 strips among them
SHAPES = {f"{a}x{b}": rect(a, b) for a in range(1, 21) for b in range(1, 21) if a * b <= 20}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_transfer_matches_enumeration(name):
    system = SHAPES[name]
    rng = np.random.default_rng(len(name) * 7 + system.n_sites)
    xi = np.concatenate([rng.uniform(-5.0, 5.0, (4, system.n_sites)),
                         rng.normal(0.0, 0.5, (4, system.n_sites)),
                         np.full((1, system.n_sites), 5.0), np.full((1, system.n_sites), -5.0)])
    z = _rfim_partition_batch(system, np.exp(xi), np.exp(-xi))
    ref = np.array([_rfim_partition_enum(system, row) for row in xi])
    assert np.max(np.abs(z / ref - 1.0)) <= 1e-12


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_transfer_correlations_match_enumeration(name):
    # every subset through chaos_rewrite up to 12 spins; every singleton and
    # pair through correlation beyond
    system = SHAPES[name]
    n = system.n_sites
    ref = _correlations_enum(system)
    if n <= 12:
        kernel = chaos_rewrite(system, np.zeros(n))[1]
        corr = {m: kernel.entries.get(tuple(k for k in range(n) if m >> k & 1), 0.0)
                for m in range(1 << n)}
    else:
        corr = {(1 << a) | (1 << b): correlation(system, [system.interior[a], system.interior[b]])
                for a in range(n) for b in range(a, n)}
    assert max(abs(c - ref[m]) for m, c in corr.items()) <= 1e-12


def test_transfer_rejects_a_misshapen_field():
    for up, down in ((np.ones(4), np.ones(4)), (np.ones((2, 3)), np.ones((2, 3))),
                     (np.ones((2, 4)), np.ones((1, 4)))):
        with pytest.raises(InputError):
            _rfim_partition_batch(SQ22, up, down)


def test_rfim_reference_normalization():
    assert rfim_partition_xi(SQ22, np.zeros(4)) == pytest.approx(1.0, abs=1e-14)


def test_rfim_single_site_closed_form():
    xi = 0.37
    val = rfim_partition_xi(ONE, [xi])
    assert val == pytest.approx(math.cosh(xi) + math.sinh(xi) * math.tanh(4 * BETA_C), rel=1e-14)


def test_rfim_symmetric_site_swap_invariance():
    # (0,0) and (1,1) are equivalent under the square's symmetry, so swapping
    # their disorder values leaves the partition function unchanged
    profiles = FieldProfiles(1.0, 0.3, Rect.unit_square(), 0.5)
    rng = np.random.default_rng(1)
    omega = rng.standard_normal(4)
    idx_a = SQ22.interior.index((0, 0))
    idx_b = SQ22.interior.index((1, 1))
    swapped = omega.copy()
    swapped[[idx_a, idx_b]] = swapped[[idx_b, idx_a]]
    lam, h = scale_fields(profiles, SQ22)
    assert rfim_partition_xi(SQ22, lam * omega + h) == pytest.approx(
        rfim_partition_xi(SQ22, lam * swapped + h), rel=1e-12
    )


def test_chaos_rewrite_zero_field():
    pre, kernel = chaos_rewrite(SQ22, np.zeros(4))
    assert pre == 1.0
    assert eval_multilinear(kernel, {i: 0.0 for i in range(4)}) == pytest.approx(1.0)


def test_chaos_rewrite_identity_one_site():
    rng = np.random.default_rng(2)
    for _ in range(20):
        xi = rng.standard_normal(1) * 1.5
        pre, kernel = chaos_rewrite(ONE, xi)
        val = pre * eval_multilinear(kernel, {0: math.tanh(xi[0])})
        assert val == pytest.approx(rfim_partition_xi(ONE, xi), rel=1e-12)


def test_chaos_rewrite_identity_2x2():
    rng = np.random.default_rng(3)
    for _ in range(100):
        xi = rng.standard_normal(4)
        pre, kernel = chaos_rewrite(SQ22, xi)
        val = pre * eval_multilinear(kernel, {i: math.tanh(xi[i]) for i in range(4)})
        assert val == pytest.approx(rfim_partition_xi(SQ22, xi), rel=1e-10)


# ---------------------------------------------------------------------------
# field scalings
# ---------------------------------------------------------------------------


def test_sample_ising_matches_per_sample_rfim_partition():
    profiles = FieldProfiles(1.3, -0.4, Rect.unit_square(), 0.25)
    z = harness.sample_ising(profiles, 20, 11)
    system = LatticeSpinSystem.from_domain(profiles.domain, profiles.delta)
    prefactor = normalization_prefactor(profiles)
    omegas = np.random.default_rng(np.random.SeedSequence(11)).standard_normal(
        (20, system.n_sites))
    lam, h = scale_fields(profiles, system)
    reference = [prefactor * rfim_partition_xi(system, lam * om + h) for om in omegas]
    assert z.tolist() == reference


def test_sample_ising_sweeps_rows_in_bounded_chunks():
    # at delta = 1/12 the frontier holds 11 spins, so a sweep of 2^20 state
    # values takes 512 rows and 520 samples go in two; in one sweep of 1000
    # samples the peak was 87 MB
    profiles = FieldProfiles(1.0, 0.2, Rect.unit_square(), 1 / 12)
    tracemalloc.start()
    try:
        z = harness.sample_ising(profiles, 520, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * (1 << 20)
    system = LatticeSpinSystem.from_domain(profiles.domain, profiles.delta)
    lam, h = scale_fields(profiles, system)
    xi = lam * np.random.default_rng(np.random.SeedSequence(4)).standard_normal(
        (520, system.n_sites)) + h
    one_sweep = normalization_prefactor(profiles) * _rfim_partition_batch(
        system, np.exp(xi), np.exp(-xi))
    assert z.tobytes() == one_sweep.tobytes()


@pytest.mark.parametrize("disorder", [GAUSSIAN_DISORDER, RADEMACHER],
                         ids=["gaussian", "rademacher"])
def test_sample_ising_draws_xi_a_sweep_chunk_at_a_time(monkeypatch, disorder):
    # at delta = 1/3 (4 sites, 2 frontier spins) a cap of 2^12 state values
    # sweeps 1024 rows a chunk; 100,000 samples hold 3.2 MB of xi, drawn
    # whole (with its scaled copy, 6.4 MB) unless each chunk draws its own
    profiles = FieldProfiles(1.0, 0.2, Rect.unit_square(), 1 / 3)
    one_sweep = harness.sample_ising(profiles, 100_000, 6, disorder)
    monkeypatch.setattr(ising, "_SWEEP_CAP", 1 << 12)
    tracemalloc.start()
    try:
        z = harness.sample_ising(profiles, 100_000, 6, disorder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < z.nbytes + (1 << 20)
    assert z.tobytes() == one_sweep.tobytes()


def test_sweep_memory_is_bounded_by_its_state():
    # at delta = 1/3 (4 sites, 2 frontier spins) a full chunk sweeps 2^18
    # rows, and its state holds 2^20 values, 8.4 MB.  Stacking every site's
    # weights into one (sites, 2, rows + 1) array peaked at 8.0 times that,
    # and a per-site product of every left spin beside the old state at 6.5
    system = LatticeSpinSystem.from_domain(Rect.unit_square(), 1 / 3)
    rows = ising._SWEEP_CAP >> system.frontier_spins
    xi = np.random.default_rng(8).normal(0.0, 0.5, (rows, system.n_sites))
    up, down = np.exp(xi), np.exp(-xi)
    tracemalloc.start()
    try:
        _rfim_partition_batch(system, up, down)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state = 8 * (rows + 1) << system.frontier_spins
    assert peak < 4 * state, peak / state


@pytest.mark.parametrize("delta", [1 / 8, 1 / 10], ids=["1/8", "1/10"])
def test_transfer_is_symmetric_under_the_square(delta):
    # the + boundary of the unit square is kept by its reflections, its
    # transpose and its rotations; the sweep runs its columns in one fixed
    # order, so each moves every field to another column or row of it
    system = LatticeSpinSystem.from_domain(Rect.unit_square(), delta)
    nx, ny = len(system.xs), len(system.ys)
    xi = np.random.default_rng(10).normal(0.0, 0.8, (16, nx, ny)) + 0.1
    z = _rfim_partition_batch(system, np.exp(xi.reshape(16, -1)), np.exp(-xi.reshape(16, -1)))
    for moved in (xi[:, ::-1], xi[:, :, ::-1], xi.transpose(0, 2, 1),
                  np.rot90(xi, axes=(1, 2))):
        moved = moved.reshape(16, -1)
        got = _rfim_partition_batch(system, np.exp(moved), np.exp(-moved))
        assert np.max(np.abs(got / z - 1.0)) <= 1e-13


def test_scale_fields_powers():
    profiles = FieldProfiles(2.0, 3.0, Rect.unit_square(), 1.0)
    system = rect(2, 2)
    lam, h = scale_fields(profiles, system)
    assert np.allclose(lam, 2.0)
    assert np.allclose(h, 3.0)
    profiles256 = FieldProfiles(1.0, 1.0, Rect.unit_square(), 1.0 / 256)
    system256 = LatticeSpinSystem(range(10, 11), range(10, 11))
    lam, h = scale_fields(profiles256, system256)
    assert lam[0] == pytest.approx(2.0**-7)
    assert h[0] == pytest.approx(2.0**-15)


def test_normalization_prefactor_values():
    assert normalization_prefactor(FieldProfiles(0.0 + 1e-300, 0.0, Rect.unit_square(), 0.1)) == pytest.approx(1.0)
    assert normalization_prefactor(FieldProfiles(1.0, 0.0, Rect.unit_square(), 1.0 / 16)) == pytest.approx(math.exp(-1.0), rel=1e-12)
    # a constant lam_hat needs no quadrature: the prefactor is exp(-lam_hat^2 |Omega| delta^{-1/4} / 2)
    domain = Rect(-0.5, 0.25, 1.0, 1.0)
    area = (domain.x1 - domain.x0) * (domain.y1 - domain.y0)
    exact = math.exp(-0.5 * 1.3**2 * area * 0.2 ** (-0.25))
    assert normalization_prefactor(FieldProfiles(1.3, 0.7, domain, 0.2)) == pytest.approx(
        exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lam_hat, h_hat", [
    (0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf),
])
def test_field_profiles_reject_bad_constants(lam_hat, h_hat):
    with pytest.raises(InputError):
        FieldProfiles(lam_hat, h_hat, Rect.unit_square(), 0.25)


def test_rescaled_partition_mean_approaches_one():
    # Gaussian disorder integrates out exactly: E_w[exp(lam w s)] = e^{lam^2/2}
    # regardless of s, so E[rescaled Z] = exp((sum_x lam_x^2 - ||lam||^2
    # delta^{-1/4})/2); the lattice sum and the cell quadrature must agree as
    # delta shrinks
    logs = []
    for delta in (1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0):
        profiles = FieldProfiles(1.0, 0.0, Rect.unit_square(), delta)
        system = LatticeSpinSystem.from_domain(Rect.unit_square(), delta)
        lam, _ = scale_fields(profiles, system)
        log_mean = 0.5 * float(lam @ lam) + math.log(normalization_prefactor(profiles))
        logs.append(abs(log_mean))
    assert logs[0] > logs[1] > logs[2]
    assert logs[-1] < 0.5


@pytest.mark.parametrize("h_hat", [0.0, 0.7, -1.3])
def test_ising_mean_matches_enumeration(h_hat):
    # Gaussian disorder: prefactor e^{n lam^2/2} E+[e^{h sum sigma}], which is
    # prefactor e^{n lam^2/2} at h_hat = 0; Rademacher disorder: the mean of
    # the enumerated Z over all 2^n sign vectors
    for delta in (1 / 3, 1 / 4):
        profiles = FieldProfiles(1.3, h_hat, Rect.unit_square(), delta)
        system = LatticeSpinSystem.from_domain(profiles.domain, delta)
        n = system.n_sites
        lam, h = scale_fields(profiles, system)
        prefactor = normalization_prefactor(profiles)
        gaussian = prefactor * math.exp(0.5 * n * lam[0] ** 2) * _rfim_partition_enum(system, h)
        assert harness._ising_mean(profiles, GAUSSIAN_DISORDER) == pytest.approx(
            gaussian, rel=1e-12, abs=0.0)
        signs = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
        exact = prefactor * np.mean([_rfim_partition_enum(system, lam * w + h) for w in signs])
        assert harness._ising_mean(profiles, RADEMACHER) == pytest.approx(
            exact, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# GKS decoupling
# ---------------------------------------------------------------------------


def test_gks_single_subdomain_equality():
    lhs, rhs, holds = gks_decoupling_check(SQ33, [(SQ33.interior, (1, 1))])
    assert holds
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gks_two_singletons_2x3():
    system = rect(2, 3)
    lhs, rhs, holds = gks_decoupling_check(system, [([(0, 0)], (0, 0)), ([(1, 2)], (1, 2))])
    assert holds
    assert 0.0 <= lhs <= rhs


def test_gks_configurations_3x3():
    corners = [([(0, 0)], (0, 0)), ([(2, 2)], (2, 2))]
    lhs, rhs, holds = gks_decoupling_check(SQ33, corners)
    assert holds and 0.0 <= lhs <= rhs
    block = [([(0, 0), (0, 1)], (0, 1))]
    lhs, rhs, holds = gks_decoupling_check(SQ33, block)
    assert holds


def test_gks_overlap_rejected():
    with pytest.raises(InputError):
        gks_decoupling_check(SQ33, [([(0, 0)], (0, 0)), ([(1, 1)], (1, 1))])


# ---------------------------------------------------------------------------
# f_Omega
# ---------------------------------------------------------------------------


def f_omega(points, domain):
    """f_Omega of one point tuple, from the batched square."""
    return math.sqrt(float(f_omega_sq_batch(np.array(points, dtype=float)[None], domain)[0]))


def test_f_omega_center_point():
    assert f_omega([(0.5, 0.5)], Rect.unit_square()) == pytest.approx(0.5**-0.125)


def test_f_omega_mutual_distance_case():
    # two points closer to each other than to the boundary both use the
    # mutual distance
    pts = [(0.5, 0.5), (0.5, 0.6)]
    val = f_omega(pts, Rect.unit_square())
    assert val == pytest.approx(0.1 ** (-0.125 * 2))


def test_f_omega_permutation_invariance():
    pts = [(0.2, 0.3), (0.7, 0.6), (0.4, 0.8)]
    assert f_omega(pts, Rect.unit_square()) == pytest.approx(
        f_omega(pts[::-1], Rect.unit_square())
    )


def _f_omega_reference(points, domain):
    """f_Omega by the scalar loop over points and pairs."""
    pts = [np.asarray(p, dtype=float) for p in points]
    value = 1.0
    for i, p in enumerate(pts):
        d = min(p[0] - domain.x0, domain.x1 - p[0], p[1] - domain.y0, domain.y1 - p[1])
        for j, q in enumerate(pts):
            if j != i:
                d = min(d, float(np.hypot(*(p - q))))
        value *= d ** (-0.125)
    return value


@pytest.mark.parametrize("domain", [Rect.unit_square(), Rect(-0.5, 0.25, 2.0, 1.0)],
                         ids=["unit_square", "rectangle"])
def test_f_omega_matches_scalar_loop(domain):
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for _ in range(40):
            pts = sample_interior(domain, rng, n)
            assert abs(f_omega(pts, domain) / _f_omega_reference(pts, domain) - 1.0) <= 1e-14


def test_f_omega_coincident_points():
    # the mutual distance 0 makes f_Omega diverge
    with np.errstate(divide="ignore"):
        assert f_omega([(0.5, 0.5), (0.5, 0.5)], Rect.unit_square()) == math.inf


def test_f_omega_l2_n1_matches_closed_form():
    # int d(x, boundary)^{-1/4} over the unit square, by the layer-cake
    # formula: int_0^{1/2} 4(1-2t) t^{-1/4} dt
    exact = 4.0 * ((4.0 / 3.0) * 0.5**0.75 - (8.0 / 7.0) * 0.5**1.75)
    # at n = 1 the denominator is the empty product 1, so the ratio is the norm
    est = f_omega_l2_ratio(Rect.unit_square(), 1, mc_samples=200_000, seed=2)
    assert est.ratio == pytest.approx(exact, rel=0.02)


def test_f_omega_ratio_growth_is_bounded():
    ratios = {}
    for n in range(2, 6):
        est = f_omega_l2_ratio(Rect.unit_square(), n, mc_samples=60_000, seed=5)
        assert est.ratio > 0
        ratios[n] = est.ratio / n**0.25
    assert all(v <= 2.0 for v in ratios.values())
