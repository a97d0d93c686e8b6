"""Tests for the (long-range) directed polymer model."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chaoslim import harness, polymer, simplex
from chaoslim.chaos import Kernel
from chaoslim.dists import GAUSSIAN_DISORDER, RADEMACHER
from chaoslim.errors import (
    ConditioningError,
    DomainError,
    InputError,
    NumericError,
    ResourceError,
)
from chaoslim.polymer import (
    SpaceTimeField,
    StableDensity,
    WalkLaw,
    gnedenko_gap,
    overlap_weight,
    polymer_partition,
    polymer_second_moment_continuum,
    polymer_second_moment_exact,
    scale_beta,
    walk_pmf,
)
from oracles import SCIPY_GAMMA_MATH, eval_multilinear, value_or_error

SIMPLE = WalkLaw.simple_symmetric()
LAZY = WalkLaw([-2, -1, 0, 1, 2], [0.1, 0.2, 0.4, 0.2, 0.1])
THREE = WalkLaw([-2, 1], [1 / 3, 2 / 3])  # period 3, residue 1


# ---------------------------------------------------------------------------
# walk pmf and stable density
# ---------------------------------------------------------------------------


def test_walk_pmf_simple_binomial():
    q2, q0 = walk_pmf(SIMPLE, 2), walk_pmf(SIMPLE, 0)
    assert (q2.lo, q2.probs.tolist()) == (-2, [0.25, 0.0, 0.5, 0.0, 0.25])
    assert (q0.lo, q0.probs.tolist()) == (0, [1.0])


def test_walk_pmf_normalization_and_lattice():
    for n in (1, 7, 50):
        q = walk_pmf(SIMPLE, n)
        assert q.probs.sum() == pytest.approx(1.0, abs=1e-12)
        for k in np.arange(q.lo, q.lo + q.probs.size)[q.probs > 0.0]:
            assert (k - SIMPLE.residue * n) % SIMPLE.period == 0
    assert walk_pmf(SIMPLE, 5)[0] == 0.0  # off the step-5 parity lattice


def test_period_detection():
    assert SIMPLE.period == 2 and SIMPLE.residue == 1
    assert LAZY.period == 1
    three = WalkLaw([-3, 3], [0.5, 0.5])
    assert three.period == 6 and three.residue == 3


@pytest.mark.parametrize("law,period,residue", [
    (SIMPLE, 2, 1), (LAZY, 1, 0), (WalkLaw.heavy_tail(1.5, 0.0, 2000), 1, 0), (THREE, 3, 1),
], ids=["simple", "lazy", "heavy", "three"])
def test_period_and_residue_match_the_pairwise_gcd(law, period, residue):
    gcd = math.gcd(*(int(d) for d in np.diff(law.offsets)))
    assert (law.period, law.residue) == (gcd, int(law.offsets[0]) % gcd) == (period, residue)
    assert type(law.period) is int and type(law.residue) is int


def test_walk_law_validation():
    with pytest.raises(InputError):
        WalkLaw([-1, 1], [0.4, 0.6])  # nonzero mean
    with pytest.raises(InputError):
        WalkLaw([-1, 1], [0.7, 0.7])


def test_heavy_tail_law_tails():
    law = WalkLaw.heavy_tail(1.5, 0.3, window=2000)
    assert law.probs.sum() == pytest.approx(1.0)
    assert abs(float(law.offsets @ law.probs)) < 1e-12
    n = np.arange(10, 1000)
    plus = np.array([law.probs[list(law.offsets).index(k)] for k in n])
    c_plus = plus * n**2.5
    assert np.max(np.abs(c_plus / c_plus[0] - 1.0)) < 1e-9  # exact power law
    # stored tail constant matches P(S > n) ~ C (1+gamma)/2 n^{-alpha} well
    # away from the window cutoff
    big = 50
    empirical = float(law.probs[law.offsets > big].sum())
    predicted = law.c_tail * (1 + law.gamma_skew) / 2 * big**-1.5
    assert empirical == pytest.approx(predicted, rel=0.05)


def test_stable_density_gaussian_case():
    g = StableDensity(2.0, sigma2=1.0)
    assert float(g.pdf(0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert float(pdf_scaled(g, 4.0, 0.0)) == pytest.approx(1.0 / math.sqrt(8 * math.pi))
    assert g.l2_norm_sq() == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))


def test_stable_density_symmetry_and_normalization():
    from scipy.integrate import simpson

    g = StableDensity(1.5, gamma_skew=0.0, c_tail=1.0)
    xs = np.linspace(0.25, 8.0, 32)
    assert np.max(np.abs(g.pdf(xs) - g.pdf(-xs))) < 1e-8
    # Simpson over |x| <= X plus the first-order tail C X^{-alpha}; the
    # neglected tail correction is O(X^{-2 alpha}) ~ 6e-8
    grid = np.linspace(-250.0, 250.0, 8001)
    mass = float(simpson(g.pdf(grid), x=grid)) + 1.0 * 250.0**-1.5
    assert abs(mass - 1.0) < 1e-6


def test_stable_density_against_scipy():
    from scipy.stats import levy_stable

    g = StableDensity(1.5, gamma_skew=0.3, c_tail=1.2)
    scale = g._scale_a ** (1.0 / 1.5)
    xs = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])
    ref = levy_stable.pdf(xs, 1.5, 0.3, scale=scale)
    assert np.max(np.abs(g.pdf(xs) - ref)) < 1e-12


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_stable_density_symmetric_against_scipy(alpha):
    from scipy.stats import levy_stable

    g = StableDensity(alpha, gamma_skew=0.0, c_tail=1.0)
    xs = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])
    ref = levy_stable.pdf(xs, alpha, 0.0, scale=g._scale_a ** (1.0 / alpha))
    assert np.max(np.abs(g.pdf(xs) - ref)) < 1e-12


def trapezoid_pdf(g, x, quad_tol=1e-9):
    """The adaptive trapezoid that StableDensity.pdf ran before its
    Gauss-Legendre rule: (1/pi) int_0^T e^{-a t^alpha} cos(b t^alpha - t x) dt
    with e^{-a T^alpha} = 1e-10, node counts doubling from 512 until no point
    moves by ``quad_tol``. Accurate to about 3e-11 where it converges."""
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    a = g._scale_a
    b = a * g.gamma_skew * math.tan(math.pi * g.alpha / 2.0)
    t_max = (math.log(1e10) / a) ** (1.0 / g.alpha)
    prev = None
    for n in (512 << k for k in range(7)):
        t = np.linspace(0.0, t_max, n + 1)
        ta = t**g.alpha
        rows = max(1, (1 << 20) // (n + 1))  # bounds the (point, node) temporaries
        vals = np.concatenate([
            np.trapezoid(np.exp(-a * ta) * np.cos(b * ta - xs[r0 : r0 + rows, None] * t), t)
            for r0 in range(0, xs.size, rows)
        ])
        if prev is not None and np.max(np.abs(vals - prev)) < quad_tol:
            return vals.reshape(np.shape(x)) / math.pi
        prev = vals
    raise NumericError("trapezoid did not converge")


@pytest.mark.parametrize("alpha, gamma_skew, c_tail, x_max", [
    (1.5, 0.3, 1.2, 8.0), (1.4, 0.2, 0.9, 40.0), (1.9, -0.4, 2.0, 20.0), (1.25, -0.5, 3.0, 30.0),
])
def test_stable_density_matches_trapezoid(alpha, gamma_skew, c_tail, x_max):
    g = StableDensity(alpha, gamma_skew=gamma_skew, c_tail=c_tail)
    xs = np.linspace(-x_max, x_max, 161)
    assert np.max(np.abs(g.pdf(xs) - trapezoid_pdf(g, xs))) < 1e-10


def test_stable_density_l2_norm_quadrature():
    from scipy.integrate import simpson

    g = StableDensity(1.4, gamma_skew=0.2, c_tail=0.9)
    grid = np.linspace(-60.0, 60.0, 4001)
    quad = float(simpson(g.pdf(grid) ** 2, x=grid))
    assert quad == pytest.approx(g.l2_norm_sq(), rel=1e-4)


def test_stable_density_row_blocks_leave_values_unchanged(monkeypatch):
    g = StableDensity(1.5, gamma_skew=0.3, c_tail=1.2)
    xs = np.linspace(-8.0, 8.0, 41)
    whole = g.pdf(xs)  # one block
    for cells in (1, 5000):  # one point a block; 5 points a block
        monkeypatch.setattr(polymer, "_INVERSION_CELLS", cells)
        assert np.array_equal(g.pdf(xs), whole)


def test_stable_density_huge_x_is_a_numeric_error():
    # the node count grows with |x|; past the cap pdf refuses before allocating
    g = StableDensity(1.5, gamma_skew=0.0, c_tail=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match="quadrature nodes"):
            g.pdf([1e9])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_stable_density_domain_errors():
    with pytest.raises(DomainError):
        StableDensity(2.0)
    with pytest.raises(DomainError):
        StableDensity(1.5)
    with pytest.raises(DomainError):
        StableDensity(0.9, c_tail=1.0)


# ---------------------------------------------------------------------------
# Gnedenko gap and coupling scale
# ---------------------------------------------------------------------------


def test_gnedenko_gap_n2_value():
    # the k = 0 term |sqrt(2)/2 - 2 g(0)| dominates at n = 2
    gap = gnedenko_gap(SIMPLE, 2)
    assert gap == pytest.approx(abs(math.sqrt(2) * 0.5 - 2.0 / math.sqrt(2 * math.pi)), rel=1e-10)
    assert gap == pytest.approx(0.0908, abs=2e-4)


def test_gnedenko_gap_decreases():
    gaps = [gnedenko_gap(SIMPLE, n) for n in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2] >= 0.0
    assert gaps[2] < 0.02


def test_gnedenko_gap_no_growth_on_doubling():
    for n in (8, 16, 32, 64):
        assert gnedenko_gap(SIMPLE, 2 * n) <= gnedenko_gap(SIMPLE, n) + 1e-6


def test_gnedenko_gap_heavy_tail_trend():
    law = WalkLaw.heavy_tail(1.5, 0.0, window=4000)
    gaps = [gnedenko_gap(law, n) for n in (4, 16, 64)]
    assert gaps[0] > gaps[1] > gaps[2] >= 0.0


def test_gnedenko_gap_memory_is_bounded(monkeypatch):
    # one (507 points, 1680 nodes) temporary is 6.8 MB; the adaptive trapezoid peaked at 25.7 MB
    law = WalkLaw.heavy_tail(1.5, 0.0, 200)
    tracemalloc.start()
    try:
        gap = gnedenko_gap(law, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    monkeypatch.setattr(StableDensity, "pdf", trapezoid_pdf)
    assert abs(gap - gnedenko_gap(law, 16)) < 1e-10


@pytest.mark.parametrize("alpha, gamma_skew", [(1.1, 0.0), (1.1, 0.5), (1.2, 0.0)])
def test_gnedenko_gap_small_alpha_is_finite(alpha, gamma_skew):
    # the adaptive trapezoid never converged here
    gap = gnedenko_gap(WalkLaw.heavy_tail(alpha, gamma_skew, 200), 4)
    assert math.isfinite(gap) and gap >= 0.0


def test_scale_beta_values():
    assert scale_beta(2.0, 3.0, 10_000) == pytest.approx(0.3)
    assert scale_beta(2.0, 3.0, 1) == pytest.approx(3.0)
    assert scale_beta(1.5, 3.0, 4096) == pytest.approx(3.0 / 4.0)
    with pytest.raises(DomainError):
        scale_beta(1.0, 1.0, 10)


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------


def _weight_source(law, field, beta, disorder=GAUSSIAN_DISORDER):
    """The weights e^{beta omega - Lambda(beta)} of one field on the walk's
    sublattice: the Gaussian ones ``polymer_partition`` passes, times
    e^{beta^2 / 2 - Lambda(beta)} for another disorder law."""
    source = polymer._sublattice_source(law, field, beta)
    if disorder is GAUSSIAN_DISORDER:
        return source
    factor = math.exp(GAUSSIAN_DISORDER.log_mgf(beta) - disorder.log_mgf(beta))

    def weights(n0, out):
        source(n0, out)
        out *= factor

    return weights


def _partition(law, field, beta, mode="free", y=None, disorder=GAUSSIAN_DISORDER,
               mass_tol=1e-8):
    """Z of one field in any mode, by the batched transfer that
    ``sample_polymer`` runs, on the one-row source ``polymer_partition`` passes,
    with the mode's end (y, norm) as ``polymer.field_window`` gives it."""
    n = field.values.shape[0]
    end = None if mode == "free" else y
    norm = walk_pmf(law, n)[y] if mode == "conditioned" else 1.0
    if norm <= 0.0:
        raise ConditioningError(f"q_{n}({y}) = 0: cannot condition")
    return float(polymer._partition_batch(
        law, field.k_lo, 1, field.values.shape[1], n,
        _weight_source(law, field, beta, disorder), end, mass_tol)[0] / norm)


def _brute_partition(law, field, beta, mode, y=None, disorder=GAUSSIAN_DISORDER):
    lam = disorder.log_mgf(beta)
    n = field.values.shape[0]
    free = 0.0
    p2p = {}
    for incs in itertools.product(range(len(law.offsets)), repeat=n):
        prob, pos, energy = 1.0, 0, 0.0
        for step, i in enumerate(incs, start=1):
            prob *= law.probs[i]
            pos += int(law.offsets[i])
            energy += beta * field.values[step - 1, pos - field.k_lo] - lam
        w = prob * math.exp(energy)
        free += w
        p2p[pos] = p2p.get(pos, 0.0) + w
    if mode == "free":
        return free
    if mode == "point2point":
        return p2p.get(y, 0.0)
    return p2p.get(y, 0.0) / walk_pmf(law, n)[y]


def test_partition_zero_coupling():
    field = SpaceTimeField(np.zeros((12, 25)), -12)
    assert polymer_partition(SIMPLE, field, 0.0) == pytest.approx(1.0)
    assert _partition(SIMPLE, field, 0.0, "conditioned", 0) == pytest.approx(1.0)


@pytest.mark.parametrize("law", [SIMPLE, LAZY], ids=["simple", "window2"])
@pytest.mark.parametrize("mode,y", [("free", None), ("point2point", 2), ("conditioned", 0)])
def test_partition_matches_path_enumeration(law, mode, y):
    rng = np.random.default_rng(11)
    n = 6 if law is SIMPLE else 4
    width = 2 * n * int(law.offsets[-1]) + 1
    field = SpaceTimeField(rng.standard_normal((n, width)), -(width // 2))
    z = _partition(law, field, 0.6, mode, y)
    oracle = _brute_partition(law, field, 0.6, mode, y)
    assert z == pytest.approx(oracle, rel=1e-12)


def test_partition_free_decomposes_over_endpoints():
    rng = np.random.default_rng(4)
    n = 10
    field = SpaceTimeField(rng.standard_normal((n, 2 * n + 1)), -n)
    q = walk_pmf(SIMPLE, n)
    free = polymer_partition(SIMPLE, field, 0.5)
    total = sum(
        _partition(SIMPLE, field, 0.5, "conditioned", y) * q[y]
        for y in range(-n, n + 1)
        if q[y] > 0
    )
    assert free == pytest.approx(total, rel=1e-12)


def test_partition_conditioning_error_off_lattice_endpoint():
    field = SpaceTimeField(np.zeros((4, 9)), -4)
    with pytest.raises(ConditioningError):
        _partition(SIMPLE, field, 0.1, "conditioned", 1)  # parity violation


def test_field_window_modes():
    # simple walk at N = 100: half-width ceil(6.5 sqrt(100)) = 65 inside the
    # reach of 100; at N = 4 the reach, 4, is the narrower
    assert polymer.field_window(SIMPLE, 100) == (-65, 131, None, 1.0)
    assert polymer.field_window(SIMPLE, 4, "free", 0.9) == (-4, 9, None, 1.0)
    # 0.3 * 10 = 3 moves down onto the even sites of step 100
    assert polymer.field_window(SIMPLE, 100, "point2point", 0.3) == (-65, 131, 2, 1.0)
    assert polymer.field_window(SIMPLE, 100, "conditioned", -0.2) == (
        -65, 131, -2, walk_pmf(SIMPLE, 100)[-2])
    # period 3 at N = 9: sites 0 mod 3 in the reach [-18, 9]; 1.5 rounds to 2,
    # then moves down to 0
    assert polymer.field_window(THREE, 9, "conditioned", 0.5) == (
        -18, 28, 0, math.comb(9, 3) / 3**9 * 2**6)
    with pytest.raises(InputError, match="unknown mode"):
        polymer.field_window(SIMPLE, 100, "pointtopoint", 0.3)
    with pytest.raises(InputError, match=r"target x N\^\(1/alpha\) = 66 outside"):
        polymer.field_window(SIMPLE, 100, "point2point", 6.6)
    # steps -2, -1, +3 reach 1 with probability 0 in one step
    gappy = WalkLaw([-2, -1, 3], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ConditioningError):
        polymer.field_window(gappy, 1, "conditioned", 1.0)
    assert polymer.field_window(gappy, 1, "point2point", 1.0)[2:] == (1, 1.0)


def test_field_window_endpoint_stays_inside_the_window():
    # at N = 999 the window starts at -ceil(6.5 sqrt(999)) = -206, an even
    # site off the odd sublattice of step 999: a target of -206.4 passes the
    # target check, rounds to -206 and moves down to -207, past the edge
    scale = 999**0.5
    assert polymer.field_window(SIMPLE, 999)[:2] == (-206, 413)
    with pytest.raises(InputError, match="endpoint y = -207 outside"):
        polymer.field_window(SIMPLE, 999, "point2point", -206.4 / scale)
    assert polymer.field_window(SIMPLE, 999, "conditioned", -205.4 / scale)[2] == -205


def test_conditioned_sample_polymer_solves_q_n_once(monkeypatch):
    # groups of 2 samples (see the bit-identical test below), so 5 samples
    # take 3 transfer calls, and one q_N(y) serves them all
    monkeypatch.setattr(polymer, "_FIELD_BLOCK_CELLS", 396)
    solved = []
    walk = polymer.walk_pmf

    def counted(law, n):
        solved.append(n)
        return walk(law, n)

    monkeypatch.setattr(polymer, "walk_pmf", counted)
    z = harness.sample_polymer(SIMPLE, 0.7, 100, 5, 3, "conditioned", -0.2)
    assert solved.count(100) == 1
    assert np.all(np.isfinite(z))


def test_walk_pmf_leaves_the_law_unchanged():
    # a law holds its fields and nothing else, before and after walk_pmf
    law = WalkLaw.heavy_tail(1.5, 0.0, 50)
    before = dict(vars(law))
    walk_pmf(law, 37)
    assert vars(law).keys() == {f.name for f in dataclasses.fields(law)}
    assert vars(law).keys() == before.keys()
    assert all(vars(law)[k] is v for k, v in before.items())


def test_partition_mass_loss_abort():
    field = SpaceTimeField(np.zeros((10, 3)), -1)  # window far too narrow
    with pytest.raises(NumericError):
        polymer_partition(SIMPLE, field, 0.1)


def test_partition_mass_tol_measures_walk_mass():
    # the window edges carry omega = -40, so the disorder-weighted mass that
    # leaves the window stays near 1e-18 while most of the walk leaves it
    values = np.zeros((10, 3))
    values[:, [0, 2]] = -40.0
    field = SpaceTimeField(values, -1)
    with pytest.raises(NumericError, match="truncated walk mass 9.688e-01"):
        polymer_partition(SIMPLE, field, 1.0)


@pytest.mark.parametrize("excess,half,raises", [(-5e-10, 100, False), (5e-10, 38, True)],
                         ids=["short-law-whole-range", "long-law-narrow-window"])
def test_partition_mass_tol_ignores_the_law_mass_deficit(excess, half, raises):
    # a law whose mass is off 1 by 5e-10 carries (1 + excess)^100, about
    # 1 + 100 excess, after 100 steps; the window loses nothing at half-width
    # 100 and about 5e-8 of walk mass at half-width 38
    law = WalkLaw([-1, 0, 1], [0.25, 0.5 + excess, 0.25])
    field = SpaceTimeField(np.zeros((100, 2 * half + 1)), -half)
    if raises:
        with pytest.raises(NumericError, match="truncated walk mass 5.025e-08"):
            polymer_partition(law, field, 0.0)
    else:
        z = polymer_partition(law, field, 0.0)
        assert z == pytest.approx((1.0 + excess) ** 100, rel=1e-14)


def test_normalization_exact_over_rademacher_disorder():
    n, width = 2, 5
    total = 0.0
    for bits in itertools.product([-1.0, 1.0], repeat=n * width):
        field = SpaceTimeField(np.array(bits).reshape(n, width), -2)
        total += _partition(SIMPLE, field, 0.3, disorder=RADEMACHER)
    assert total / 2 ** (n * width) == pytest.approx(1.0, abs=1e-12)


def test_chaos_rewrite_identity_small_system():
    """The partition function equals the exhaustive polynomial chaos sum with
    kernels from polymer_kernel_discrete and zeta = (site weight - 1)/a_N."""
    n = 4
    rng = np.random.default_rng(23)
    field = SpaceTimeField(rng.standard_normal((n, 2 * n + 1)), -n)
    beta = 0.37
    lam = GAUSSIAN_DISORDER.log_mgf(beta)
    a_n = n ** (-(SIMPLE.alpha - 1.0) / (2.0 * SIMPLE.alpha))
    scale = n ** (1.0 / SIMPLE.alpha)

    lattice = [(step, k) for step in range(1, n + 1) for k in range(-step, step + 1)
               if (k - step) % 2 == 0]
    endpoint_k = 0
    entries = {(): 1.0}
    site_index = {pt: i for i, pt in enumerate(lattice)}
    for r in range(1, len(lattice) + 1):
        for combo in itertools.combinations(lattice, r):
            if len({p[0] for p in combo}) != len(combo):
                continue  # same-time pairs carry zero kernel weight
            pts = [(step / n, k / scale) for step, k in combo]
            val = polymer_kernel_discrete(SIMPLE, n, pts, endpoint=(1.0, endpoint_k / scale))
            if val != 0.0:
                entries[tuple(sorted(site_index[p] for p in combo))] = val
    kernel = Kernel(entries)
    zeta = {
        site_index[(step, k)]: (math.exp(beta * field.values[step - 1, k - field.k_lo] - lam) - 1.0) / a_n
        for (step, k) in lattice
    }
    via_chaos = eval_multilinear(kernel, zeta)
    direct = _partition(SIMPLE, field, beta, "conditioned", endpoint_k)
    assert via_chaos == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# batched transfer against the per-sample loop it replaced
# ---------------------------------------------------------------------------

HEAVY50 = WalkLaw.heavy_tail(1.5, 0.0, 50)


def _reference_z(law, field, beta, disorder=GAUSSIAN_DISORDER):
    """z_N on the field's window by the per-sample loop: one np.convolve
    with the dense increment pmf per step, then the step's weights."""
    lo = int(law.offsets[0])
    dense = np.zeros(int(law.offsets[-1]) - lo + 1)
    dense[law.offsets - lo] = law.probs
    lam = disorder.log_mgf(beta)
    width = field.values.shape[1]
    z = np.zeros(width)
    z[-field.k_lo] = 1.0
    for row in field.values:
        z = np.convolve(z, dense)[-lo : -lo + width] * np.exp(beta * row - lam)
    return z


def _off_lattice(law, n_steps, k_lo, width):
    """Mask of the (step, site) cells of a field that no walk path visits:
    cell [n - 1, x] is site k_lo + x at step n, which the walk reaches only
    if k_lo + x = r n (mod p)."""
    n = np.arange(1, n_steps + 1)[:, None]
    k = k_lo + np.arange(width)
    return (k - law.residue * n) % law.period != 0


def _embed(law, values, k_lo, width, junk):
    """Full (n_steps, width) field with values[n - 1, i] on the i-th site of
    step n's sublattice in the window and ``junk`` on every other cell."""
    field = junk.copy()
    on = ~_off_lattice(law, values.shape[0], k_lo, width)
    for row, vals, mask in zip(field, values, on):
        row[mask] = vals[: mask.sum()]
    return field


def _reference_samples(law, beta_hat, n_steps, n_samples, seed, mode, x, disorder):
    """harness.sample_polymer as a loop over samples, each drawing all its
    sublattice values, ceil(width / p) a step, at once and running the
    per-sample loop on them embedded in a field whose other cells hold
    non-zero junk."""
    beta = scale_beta(law.alpha, beta_hat, n_steps)
    spread = math.sqrt(law.sigma2) if law.alpha == 2.0 else law.c_tail ** (1.0 / law.alpha)
    half = int(math.ceil(6.5 * n_steps ** (1.0 / law.alpha) * spread))
    k_lo = max(int(law.offsets[0]) * n_steps, -half)
    k_hi = min(int(law.offsets[-1]) * n_steps, half)
    width = k_hi - k_lo + 1
    y = int(round(x * n_steps ** (1.0 / law.alpha)))
    y -= (y - law.residue * n_steps) % law.period
    junk = np.random.default_rng(seed + 1).uniform(1.0, 2.0, (n_steps, width))
    out = []
    for ss in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(ss)
        values = disorder.fill(rng, np.empty((n_steps, -(-width // law.period))))
        field = SpaceTimeField(_embed(law, values, k_lo, width, junk), k_lo)
        z = _reference_z(law, field, beta, disorder)
        if mode == "free":
            out.append(float(z.sum()))
        elif mode == "point2point":
            out.append(float(z[y - k_lo]))
        else:
            out.append(float(z[y - k_lo] / walk_pmf(law, n_steps)[y]))
    return np.array(out)


MODES = [("free", 0.0), ("point2point", 0.3), ("conditioned", -0.2)]


@pytest.mark.parametrize("disorder", [GAUSSIAN_DISORDER, RADEMACHER],
                         ids=["gaussian", "rademacher"])
@pytest.mark.parametrize("mode,x", MODES, ids=[m for m, _ in MODES])
def test_sample_polymer_bit_identical_to_per_sample_loop(monkeypatch, mode, x, disorder):
    # the 131-site window (half-width 65 at N = 100, narrower than the
    # reachable range) holds ceil(131 / 2) = 66 sublattice values a step;
    # 396 = 6 * 66 values a block give groups of isqrt(6) = 2 samples and
    # 3-step blocks, and 6-step blocks for the last sample, so both splits
    # are crossed
    monkeypatch.setattr(polymer, "_FIELD_BLOCK_CELLS", 396)
    z = harness.sample_polymer(SIMPLE, 0.7, 100, 5, 3, mode, x, disorder)
    assert np.array_equal(z, _reference_samples(SIMPLE, 0.7, 100, 5, 3, mode, x, disorder))


@pytest.mark.parametrize("mode,x", MODES, ids=[m for m, _ in MODES])
def test_sample_polymer_period_three_matches_per_sample_loop(monkeypatch, mode, x):
    # the 100-site window [-59, 40] at N = 40 holds ceil(100 / 3) = 34 values a
    # step; 306 = 9 * 34 values a block give groups of 3 samples and 3-step
    # blocks, and 9-step blocks for the last sample
    monkeypatch.setattr(polymer, "_FIELD_BLOCK_CELLS", 306)
    z = harness.sample_polymer(THREE, 0.7, 40, 4, 5, mode, x)
    ref = _reference_samples(THREE, 0.7, 40, 4, 5, mode, x, GAUSSIAN_DISORDER)
    assert np.array_equal(z, ref)


def test_partition_batch_calls_its_source_block_by_block(monkeypatch):
    # 3 fields of 17 steps on a 131-site window hold 66 sublattice values a
    # step; 396 = 2 * 3 * 66 values a block give 2-step blocks, so the
    # transfer calls its source ceil(17 / 2) = 9 times, the last for 1 step,
    # each time with the same buffer of the transfer's own
    monkeypatch.setattr(polymer, "_FIELD_BLOCK_CELLS", 396)
    n, k_lo, width = 17, -65, 131
    values = np.random.default_rng(4).standard_normal((3, n, 66))
    weights = np.exp(0.6 * values - GAUSSIAN_DISORDER.log_mgf(0.6))
    calls = []

    def source(n0, out):
        calls.append((n0, out.shape, out.__array_interface__["data"][0]))
        np.copyto(out, weights[:, n0 : n0 + out.shape[1]])

    z = polymer._partition_batch(SIMPLE, k_lo, 3, width, n, source, mass_tol=1.0)
    assert [c[:2] for c in calls] == [(n0, (3, 2, 66)) for n0 in range(0, 16, 2)] + [
        (16, (3, 1, 66))]
    assert len({c[2] for c in calls}) == 1
    assert all(math.prod(c[1]) <= 396 for c in calls)
    fields = [SpaceTimeField(_embed(SIMPLE, v, k_lo, width, np.zeros((n, width))), k_lo)
              for v in values]
    assert np.array_equal(z, [_partition(SIMPLE, f, 0.6, mass_tol=1.0) for f in fields])


@pytest.mark.parametrize("mode", ["free", "point2point", "conditioned"])
@pytest.mark.parametrize("law,n_steps,k_lo,width", [
    (SIMPLE, 9, -6, 12), (SIMPLE, 9, -6, 13), (SIMPLE, 8, 0, 1),
    (THREE, 9, -12, 18), (THREE, 9, -12, 20), (THREE, 9, -18, 28), (THREE, 8, -1, 2),
], ids=["simple-12", "simple-13", "simple-1", "three-18", "three-20", "three-28", "three-2"])
def test_partition_reads_only_the_walk_sublattice(law, n_steps, k_lo, width, mode):
    rng = np.random.default_rng(31)
    values = rng.standard_normal((n_steps, width))
    # a target site on the step-N sublattice, the one nearest the origin
    y = min((k for k in range(k_lo, k_lo + width) if (k - law.residue * n_steps) % law.period == 0),
            key=abs)
    z = _partition(law, SpaceTimeField(values.copy(), k_lo), 0.6, mode, y, mass_tol=1.0)
    off = _off_lattice(law, n_steps, k_lo, width)
    values[off] = rng.uniform(3.0, 4.0, off.sum())
    assert _partition(law, SpaceTimeField(values, k_lo), 0.6, mode, y, mass_tol=1.0) == z


def test_partition_period_three_matches_path_enumeration():
    n = 6
    lo, hi = int(THREE.offsets[0]) * n, int(THREE.offsets[-1]) * n
    field = SpaceTimeField(np.random.default_rng(8).standard_normal((n, hi - lo + 1)), lo)
    for mode, y in [("free", None), ("point2point", 3), ("conditioned", 0)]:
        assert _partition(THREE, field, 0.6, mode, y) == pytest.approx(
            _brute_partition(THREE, field, 0.6, mode, y), rel=1e-12)


@pytest.mark.parametrize("mode,x", MODES, ids=[m for m, _ in MODES])
@pytest.mark.parametrize("law,n_steps,n_samples", [(LAZY, 40, 6), (HEAVY50, 6, 4)],
                         ids=["lazy", "heavy"])
def test_sample_polymer_close_to_per_sample_loop(law, n_steps, n_samples, mode, x):
    # one np.convolve over all padded rows may round the window's edge sites
    # differently from one call per row
    z = harness.sample_polymer(law, 0.7, n_steps, n_samples, 9, mode, x, mass_tol=1.0)
    ref = _reference_samples(law, 0.7, n_steps, n_samples, 9, mode, x, GAUSSIAN_DISORDER)
    assert z == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("law", [SIMPLE, LAZY], ids=["simple", "window2"])
@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_partition_windows_narrower_than_the_jumps(law, width):
    rng = np.random.default_rng(5)
    fields = [SpaceTimeField(rng.standard_normal((7, width)), -(width // 2))
              for _ in range(6)]
    ref = [float(_reference_z(law, f, 0.4).sum()) for f in fields]
    rows = [_partition(law, f, 0.4, mass_tol=1.0) for f in fields]
    assert rows == pytest.approx(ref, rel=1e-12)


def test_sample_polymer_memory_is_bounded():
    # 300 whole fields of 400 x 261 values would take about 250 MB
    tracemalloc.start()
    try:
        harness.sample_polymer(SIMPLE, 0.5, 400, 300, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25e6


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


# The discrete and continuum chaos kernels are oracles: the chaos rewrite
# checks polymer_partition against the first, and the second is the limit of
# the first.

_LATTICE_TOL = 1e-9


def pdf_scaled(density, t, x):
    """g_t(x) = t^{-1/alpha} g(x t^{-1/alpha})."""
    s = t ** (-1.0 / density.alpha)
    return s * density.pdf(np.asarray(x, dtype=float) * s)


def _on_lattice(value: float, scale: float) -> int:
    j = round(value * scale)
    if abs(value * scale - j) > _LATTICE_TOL * max(1.0, scale):
        raise InputError(f"coordinate {value} is off the rescaled lattice")
    return int(j)


def polymer_kernel_discrete(law: WalkLaw, n_steps: int, points, endpoint) -> float:
    """Discrete conditioned chaos kernel: product of walk-pmf ratios with one
    factor N^{-(alpha-1)/(2 alpha)} per point; vanishes on coincident points.

    ``points`` are (t_i, x_i) on the rescaled lattice (t in Z/N, x in
    N^{-1/alpha}(pZ + r n)); ``endpoint`` is the conditioning point (1, x).
    """
    space_scale = n_steps ** (1.0 / law.alpha)
    a_n = n_steps ** (-(law.alpha - 1.0) / (2.0 * law.alpha))
    p, r = law.period, law.residue
    pts = []
    for t, x in points:
        n = _on_lattice(float(t), float(n_steps))
        k = _on_lattice(float(x), space_scale)
        if not 0 < n <= n_steps:
            raise InputError("time coordinates must lie in (0, 1]")
        if (k - r * n) % p != 0:
            raise InputError(f"site ({t}, {x}) violates the period-{p} lattice")
        pts.append((n, k))
    if len(set(pts)) != len(pts):
        return 0.0
    pts.sort()
    if len({n for n, _ in pts}) != len(pts):
        return 0.0  # distinct space at equal time: the walk cannot be at both
    value = 1.0
    prev = (0, 0)
    for n, k in pts:
        value *= a_n * walk_pmf(law, n - prev[0])[k - prev[1]]
        prev = (n, k)
    t_end, x_end = endpoint
    n_end = _on_lattice(float(t_end), float(n_steps))
    k_end = _on_lattice(float(x_end), space_scale)
    q_end = walk_pmf(law, n_steps)[k_end]
    if q_end <= 0.0:
        raise ConditioningError(f"q_N({x_end}) = 0: cannot condition")
    return float(value * (walk_pmf(law, n_end - prev[0])[k_end - prev[1]] / q_end))


def polymer_kernel_continuum(
    density: StableDensity,
    points,
    endpoint=None,
    mode: str = "conditioned",
    period: int = 1,
) -> float:
    """prod_i sqrt(p) g_{t_i - t_{i-1}}(x_i - x_{i-1}), times the endpoint
    ratio g_{t-t_k}(x - x_k)/g_t(x) in conditioned mode."""
    if mode not in ("free", "conditioned"):
        raise InputError(f"unknown mode {mode!r}")
    pts = sorted((float(t), float(x)) for t, x in points)
    times = [t for t, _ in pts]
    if len(set(times)) != len(times):
        raise DomainError("kernel is not defined at coincident times")
    value = 1.0
    prev = (0.0, 0.0)
    for t, x in pts:
        if t <= prev[0]:
            raise DomainError("times must be strictly increasing and positive")
        value *= math.sqrt(period) * float(pdf_scaled(density, t - prev[0], x - prev[1]))
        prev = (t, x)
    if mode == "conditioned":
        if endpoint is None:
            raise InputError("conditioned mode needs the endpoint (t, x)")
        t_end, x_end = float(endpoint[0]), float(endpoint[1])
        if t_end <= prev[0]:
            raise DomainError("endpoint time must exceed the last point time")
        value *= float(pdf_scaled(density, t_end - prev[0], x_end - prev[1])) / float(
            pdf_scaled(density, t_end, x_end)
        )
    return float(value)


def test_kernel_discrete_examples():
    val = polymer_kernel_discrete(SIMPLE, 4, [(0.5, 0.0)], endpoint=(1.0, 0.0))
    a_n = 4.0 ** -0.25
    expected = a_n * walk_pmf(SIMPLE, 2)[0] ** 2 / walk_pmf(SIMPLE, 4)[0]
    assert val == pytest.approx(expected, rel=1e-12)
    assert polymer_kernel_discrete(SIMPLE, 4, [(0.5, 0.0), (0.5, 0.0)], endpoint=(1.0, 0.0)) == 0.0
    with pytest.raises(InputError):
        polymer_kernel_discrete(SIMPLE, 4, [(0.5, 0.33)], endpoint=(1.0, 0.0))


def test_kernel_discrete_converges_to_continuum():
    n = 4096
    scale = math.sqrt(n)

    def snap(step, x):
        k = round(x * scale)
        k -= (k - SIMPLE.residue * step) % SIMPLE.period
        return k / scale

    n1 = n // 4
    pts = [(n1 / n, snap(n1, 0.3))]
    end = (1.0, snap(n, 0.1))
    disc = polymer_kernel_discrete(SIMPLE, n, pts, endpoint=end)
    v_n = SIMPLE.period * n ** (-1.0 - 1.0 / SIMPLE.alpha)
    cont = polymer_kernel_continuum(SIMPLE.stable_density(), pts, endpoint=end,
                                    period=SIMPLE.period)
    assert abs(disc * v_n**-0.5 / cont - 1.0) < 0.05


def test_kernel_continuum_examples():
    g = StableDensity(2.0, sigma2=1.0)
    val = polymer_kernel_continuum(g, [(1.0, 0.0)], mode="free", period=2)
    assert val == pytest.approx(math.sqrt(2.0) / math.sqrt(2 * math.pi), rel=1e-12)
    # spatial reflection symmetry for gamma = 0
    g15 = StableDensity(1.5, gamma_skew=0.0, c_tail=1.0)
    pts = [(0.3, 0.4), (0.7, -0.2)]
    refl = [(t, -x) for t, x in pts]
    assert polymer_kernel_continuum(g15, pts, mode="free") == pytest.approx(
        polymer_kernel_continuum(g15, refl, mode="free"), rel=1e-9
    )
    with pytest.raises(DomainError):
        polymer_kernel_continuum(g, [(0.5, 0.0), (0.5, 1.0)], mode="free")


def test_kernel_l2_over_space_matches_quadrature():
    # p int g_t(x)^2 dx = p c_g t^{-1/alpha}
    g = StableDensity(2.0, sigma2=1.0)
    t = 0.7
    xs = np.linspace(-12, 12, 4001)
    vals = 2.0 * np.asarray(pdf_scaled(g, t, xs)) ** 2
    quad = float(np.trapezoid(vals, xs))
    assert quad == pytest.approx(2.0 * g.l2_norm_sq() * t**-0.5, rel=1e-8)


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------


def _brute_second_moment(law, n, beta):
    gamma = overlap_weight(beta)
    idx = np.asarray(list(itertools.product(range(len(law.offsets)), repeat=n)))
    positions = np.cumsum(np.asarray(law.offsets)[idx], axis=1)
    path_probs = np.prod(np.asarray(law.probs)[idx], axis=1)
    hits = (positions[:, None, :] == positions[None, :, :]).sum(axis=2)
    return float(path_probs @ np.exp(gamma * hits) @ path_probs)


def test_second_moment_zero_coupling():
    assert polymer_second_moment_exact(SIMPLE, 20, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("law,n", [(SIMPLE, 4), (SIMPLE, 6), (LAZY, 4)],
                         ids=["simple4", "simple6", "window2"])
def test_second_moment_matches_pair_enumeration(law, n):
    dp = polymer_second_moment_exact(law, n, 0.8)
    brute = _brute_second_moment(law, n, 0.8)
    assert dp == pytest.approx(brute, rel=1e-10)


def test_second_moment_monotone_in_beta():
    values = [polymer_second_moment_exact(SIMPLE, 40, b) for b in np.linspace(0.0, 0.6, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_second_moment_continuum_values():
    g = StableDensity(2.0, sigma2=1.0)
    assert polymer_second_moment_continuum(SIMPLE, 0.0) == 1.0
    assert g.l2_norm_sq() == pytest.approx(0.28209, abs=1e-5)


def test_second_moment_continuum_matches_scipy_gammaln(monkeypatch):
    # the series' simplex integrals take their log-Gammas from math.lgamma;
    # with scipy's gammaln in its place the series is summed as before.  A
    # series that was not summable (alpha = 1.2 at bhat = 2, and bhat = 40)
    # still fails with the same error after as many terms
    laws = [WalkLaw.heavy_tail(alpha, 0.0, 2000) for alpha in (1.2, 1.5, 1.8)] + [SIMPLE]

    def outcomes():
        return [value_or_error(polymer_second_moment_continuum, law, bhat)
                for law in laws for bhat in (0.5, 1.0, 2.0, 40.0)]

    with np.errstate(over="ignore"):
        values = outcomes()
        monkeypatch.setattr(simplex, "math", SCIPY_GAMMA_MATH)
        refs = outcomes()
    for value, ref in zip(values, refs):
        if isinstance(ref, str):
            assert value == ref
        else:
            assert abs(value / ref - 1.0) <= 1e-13
    assert sum(isinstance(ref, str) for ref in refs) == 5


def test_unsummable_series_fails_without_numpy_warnings():
    # the series' powers overflow as Python floats, so no numpy warning comes
    # first and the error quotes a plain float
    config = harness.ExperimentConfig("polymer", {"alpha": 1.5, "beta_hat": 40}, [50], 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not summable") as err:
            harness.run_convergence_study(config)
    assert "np.float64" not in str(err.value)


def test_second_moment_converges():
    target = polymer_second_moment_continuum(SIMPLE, 0.5)
    gaps = []
    for n in (500, 1000, 2000):
        beta_n = scale_beta(2.0, 0.5, n)
        m2 = polymer_second_moment_exact(SIMPLE, n, beta_n)
        gaps.append(abs(m2 / target - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05


def test_second_moment_converges_heavy_tail():
    # alpha < 2: collisions of the difference walk against the Dirichlet
    # series with c_g from the stable-density L2 closed form
    law = WalkLaw.heavy_tail(1.5, 0.0, window=3000)
    target = polymer_second_moment_continuum(law, 0.4)
    gaps = []
    for n in (50, 100, 200):
        beta_n = scale_beta(1.5, 0.4, n)
        m2 = polymer_second_moment_exact(law, n, beta_n)
        gaps.append(abs(m2 / target - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.01


def test_second_moment_heavy_tail_skewed():
    law = WalkLaw.heavy_tail(1.4, 0.5, window=3000)
    target = polymer_second_moment_continuum(law, 0.4)
    beta_n = scale_beta(1.4, 0.4, 200)
    m2 = polymer_second_moment_exact(law, 200, beta_n)
    assert abs(m2 / target - 1.0) < 0.05


def _direct_second_moment(law, n, beta, window):
    """(E[Z^2], lost mass) by the difference-walk DP on [-window, window],
    one direct np.convolve a step.  Mass a step moves out of the window is
    absorbed with weight 1, as if it never collided again, and summed."""
    probs = np.zeros(int(law.offsets[-1] - law.offsets[0]) + 1)
    probs[law.offsets - law.offsets[0]] = law.probs
    diff = np.convolve(probs, probs[::-1])
    v = np.zeros(2 * window + 1)
    v[window] = 1.0
    lost = 0.0
    for _ in range(n):
        full = np.convolve(v, diff)
        kept = full[probs.size - 1 : probs.size - 1 + v.size]
        lost += float(full[: probs.size - 1].sum() + full[probs.size - 1 + v.size :].sum())
        v = kept
        v[window] *= math.exp(overlap_weight(beta))
    return float(v.sum() + lost), lost


@pytest.mark.parametrize("n", [4, 16, 64])
def test_second_moment_heavy_tail_matches_direct_convolution(n):
    # at its default window, 6.5 N^{1/alpha} spreads of V, the windowed DP
    # this replaced lost 9.4e-7 of its mass at N = 16 and aborted.  Half the
    # reach of V, 400 N, loses at most 2e-17 here
    law = WalkLaw.heavy_tail(1.5, 0.0, 200)
    beta = scale_beta(1.5, 1.0, n)
    ref, lost = _direct_second_moment(law, n, beta, 200 * n)
    assert lost < 1e-15
    assert abs(polymer_second_moment_exact(law, n, beta) / ref - 1.0) <= 1e-13


@pytest.mark.parametrize("n", [1, 250, 2000])
def test_second_moment_simple_walk_matches_direct_convolution(n):
    # the window 2N holds every site V reaches, so the DP loses nothing
    beta = scale_beta(2.0, 0.5, n)
    ref, lost = _direct_second_moment(SIMPLE, n, beta, 2 * n)
    assert lost == 0.0
    assert abs(polymer_second_moment_exact(SIMPLE, n, beta) / ref - 1.0) <= 1e-13


@pytest.mark.parametrize("law", [SIMPLE, LAZY], ids=["simple", "lazy"])
def test_meeting_mass_matches_pair_sums(law):
    # P(V_n = 0) = sum_k q_n(k)^2, the pairs of paths that end together.
    # One DFT bin count too few aliases P(V_n = +-M) into u(n): 1/8 at
    # N = 2 for the simple walk, whose M would be 4
    inc = np.zeros(int(law.offsets[-1] - law.offsets[0]) + 1)
    inc[law.offsets - law.offsets[0]] = law.probs
    q, pairs = np.ones(1), [1.0]
    for _ in range(8):
        q = np.convolve(q, inc)
        pairs.append(float(q @ q))
    for n in range(9):
        np.testing.assert_allclose(polymer._meeting_mass(law, n), pairs[: n + 1],
                                   rtol=1e-14, atol=1e-16)


def test_meeting_mass_simple_walk_is_central_binomial():
    # u(n) = C(2n, n) / 4^n, built by its ratio: gammaln is good to about
    # 1e-11 here
    n = np.arange(1, 2001)
    ref = np.concatenate([[1.0], np.cumprod((2 * n - 1) / (2 * n))])
    np.testing.assert_allclose(polymer._meeting_mass(SIMPLE, 2000), ref, rtol=0, atol=1e-13)


def test_second_moment_above_the_bin_cap_raises_before_allocating():
    # J N = 4000 * 20000 = 8e7 sites needs 2^27 bins, above the cap
    law = WalkLaw.heavy_tail(1.5, 0.0, 2000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="size cap"):
            polymer_second_moment_exact(law, 20000, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_second_moment_series_divergence_reported():
    # the terms grow up to degree about 5e6, far past the float range
    with pytest.raises(NumericError, match="not summable"):
        polymer_second_moment_continuum(SIMPLE, 40.0)


from hypothesis import given, strategies as st


@given(
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3),
    st.floats(0.0, 0.8),
)
def test_second_moment_random_walks_match_enumeration(raw, beta):
    # symmetric zero-mean laws on {-m..m} built from random half-weights
    half = np.asarray(raw)
    m = half.size
    probs = np.concatenate([half[::-1], [2.0 * half.sum()], half])
    probs /= probs.sum()
    law = WalkLaw(np.arange(-m, m + 1), probs)
    dp = polymer_second_moment_exact(law, 4, beta)
    brute = _brute_second_moment(law, 4, beta)
    assert dp == pytest.approx(brute, rel=1e-10)
