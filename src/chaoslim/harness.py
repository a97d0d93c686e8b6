"""Experiment orchestration: seeded Monte Carlo, convergence studies over
N / delta grids, Kolmogorov-Smirnov and moment diagnostics, report emission.

Every report row is tagged with its provenance -- ``formula-exact``,
``dp-exact`` or ``mc-ci`` -- and every pass/fail verdict carries the
tolerance it was checked against.  Reruns with the same config and master
seed produce bit-identical output: per-grid-point / per-chunk generators are
spawned from one SeedSequence, and grid points run in grid order.

Convergence-rate thresholds are calibration choices, not theorem-backed
constants; they are labeled as such in the emitted reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr

from . import chaos, ising, pinning, polymer, wiener
from .dists import GAUSSIAN_DISORDER, Atoms, DisorderLaw, StdGaussian
from .errors import InputError

KS_TWO_SAMPLE_C05 = 1.3581  # Smirnov 5% coefficient
Z99 = 2.5758293035489004  # two-sided 99% normal quantile


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics
# ---------------------------------------------------------------------------


def ks_statistic(samples, cdf, cdf_left=None) -> float:
    """sup_x |F_emp(x) - F(x)| against a target cdf.

    ``cdf_left`` (defaults to ``cdf``) is the left limit F(x-), needed only
    for targets with atoms; with it a point-mass target compared against
    identical samples yields exactly 0.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise InputError("need at least one sample")
    up = np.arange(1, n + 1) / n
    low = np.arange(0, n) / n
    f_right = np.asarray(cdf(x), dtype=float)
    f_left = f_right if cdf_left is None else np.asarray(cdf_left(x), dtype=float)
    return float(max(np.max(up - f_right), np.max(f_left - low), 0.0))


def point_mass_cdf(a: float):
    """(cdf, cdf_left) pair of the Dirac mass at ``a``."""
    return (lambda x: (np.asarray(x) >= a).astype(float),
            lambda x: (np.asarray(x) > a).astype(float))


@dataclass(frozen=True)
class TwoSampleKS:
    statistic: float
    critical_value: float
    alpha: float
    n_eff_x: float
    n_eff_y: float

    @property
    def passed(self) -> bool:
        return self.statistic <= self.critical_value


def ks_two_sample(x, y, wx=None, wy=None, alpha: float = 0.05) -> TwoSampleKS:
    """Two-sample KS with optional nonnegative weights.

    Weighted empirical CDFs are compared at all pooled points; the critical
    value uses effective sample sizes (sum w)^2 / sum w^2 in the Smirnov
    formula, a calibration choice for the weighted case.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = np.ones(x.size) if wx is None else np.asarray(wx, dtype=float)
    wy = np.ones(y.size) if wy is None else np.asarray(wy, dtype=float)
    if np.any(wx < 0) or np.any(wy < 0):
        raise InputError("weights must be nonnegative")
    grid = np.sort(np.concatenate([x, y]))

    def wecdf(values, weights):
        order = np.argsort(values)
        v, w = values[order], weights[order]
        cum = np.cumsum(w) / w.sum()
        idx = np.searchsorted(v, grid, side="right")
        return np.concatenate([[0.0], cum])[idx]

    stat = float(np.max(np.abs(wecdf(x, wx) - wecdf(y, wy))))
    n_x = float(wx.sum() ** 2 / (wx**2).sum())
    n_y = float(wy.sum() ** 2 / (wy**2).sum())
    if alpha != 0.05:
        c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    else:
        c = KS_TWO_SAMPLE_C05
    crit = c * math.sqrt(1.0 / n_x + 1.0 / n_y)
    return TwoSampleKS(stat, crit, alpha, n_x, n_y)


def trend_nonincreasing(values, noises=None, allowed_inversions: int = 1) -> bool:
    """Monotone-shrinking check: any rise beyond combined noise fails; rises
    within noise are tolerated up to ``allowed_inversions``."""
    v = np.asarray(values, dtype=float)
    s = np.zeros_like(v) if noises is None else np.asarray(noises, dtype=float)
    soft = 0
    for i in range(v.size - 1):
        rise = v[i + 1] - v[i]
        if rise > s[i] + s[i + 1]:
            return False
        if rise > 0:
            soft += 1
    return soft <= allowed_inversions


# ---------------------------------------------------------------------------
# configs and reports
# ---------------------------------------------------------------------------

_MODELS = ("pinning", "polymer", "ising", "wiener", "lindeberg", "tilt")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    params: dict
    grid: tuple
    samples: int
    seed: int
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise InputError(f"unknown model {self.model!r}; choose from {_MODELS}")
        grid = tuple(self.grid)
        if len(grid) >= 2:
            diffs = np.diff(np.asarray(grid, dtype=float))
            if not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise InputError("grid must be strictly monotone")
        if self.params.get("diagnostic") == "ks" and self.samples < 100:
            raise InputError("KS runs need at least 100 samples")
        object.__setattr__(self, "grid", grid)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(
            model=raw["model"],
            params=raw.get("params", {}),
            grid=tuple(raw.get("grid", ())),
            samples=int(raw.get("samples", 0)),
            seed=int(raw.get("seed", 0)),
            out_csv=raw.get("out_csv"),
            out_json=raw.get("out_json"),
        )


@dataclass
class ReportRow:
    grid_value: float
    quantity: str
    value: float
    se: float | None = None
    oracle: float | None = None
    gap: float | None = None
    provenance: str = "mc-ci"
    passed: bool | None = None
    tolerance: str | None = None


@dataclass
class ComparisonReport:
    model: str
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    def to_csv(self, path) -> None:
        cols = ["grid_value", "quantity", "value", "se", "oracle", "gap",
                "provenance", "passed", "tolerance"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for r in self.rows:
                rec = asdict(r)
                fh.write(",".join("" if rec[c] is None else str(rec[c]) for c in cols) + "\n")

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"model": self.model, "passed": self.passed,
                 "rows": [asdict(r) for r in self.rows]},
                fh, indent=2, default=float,
            )
            fh.write("\n")

    def emit(self, out_csv=None, out_json=None) -> None:
        if out_csv:
            self.to_csv(out_csv)
        if out_json:
            self.to_json(out_json)


# ---------------------------------------------------------------------------
# model samplers
# ---------------------------------------------------------------------------


def _pinning_law(params: dict) -> pinning.RenewalLaw:
    kind = params.get("law", "finite_mean")
    if kind == "finite_mean":
        return pinning.RenewalLaw.from_probabilities(params.get("probs", [0.5, 0.5]))
    if kind == "alpha":
        return pinning.RenewalLaw.heavy_tail(
            float(params["alpha"]), int(params.get("n_max", 20000))
        )
    raise InputError(f"unknown pinning law {kind!r}")


def _disorder(params: dict) -> DisorderLaw:
    kind = params.get("disorder", "gaussian")
    if kind in ("gaussian", "rademacher"):
        return DisorderLaw(kind)
    raise InputError(f"unknown disorder {kind!r}")


_PINNING_CHUNK = 2000  # samples a Generator draws for sample_pinning


def sample_pinning(
    law: pinning.RenewalLaw,
    beta_hat: float,
    h_hat: float,
    n_steps: int,
    n_samples: int,
    seed: int,
    mode: str = "conditioned",
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
) -> np.ndarray:
    """Partition-function samples at the scaled couplings (beta_N, h_N); each
    chunk of _PINNING_CHUNK samples draws from its own spawned Generator."""
    beta_n, h_n = pinning.scale_couplings(law, beta_hat, h_hat, n_steps)
    streams = np.random.SeedSequence(seed).spawn(math.ceil(n_samples / _PINNING_CHUNK))
    out = np.empty(n_samples)
    pos = 0
    for ss in streams:
        m = min(_PINNING_CHUNK, n_samples - pos)
        rng = np.random.default_rng(ss)
        omega = disorder.sample(rng, (m, n_steps))
        out[pos : pos + m] = pinning.partition_function_batch(
            law, omega, beta_n, h_n, mode, disorder
        )
        pos += m
    return out


_FIELD_BLOCK_CELLS = 1 << 20  # disorder values per time block of a sample group


def _field_blocks(rngs, n_steps: int, width: int, disorder: DisorderLaw):
    """Fields of one sample group, one Generator each, as time blocks of
    shape (steps, samples, width) drawn into one reused buffer."""
    steps = max(1, _FIELD_BLOCK_CELLS // (len(rngs) * width))
    buf = np.empty((min(steps, n_steps), len(rngs), width))
    for n0 in range(0, n_steps, steps):
        c = min(steps, n_steps - n0)
        for i, rng in enumerate(rngs):
            buf[:c, i] = disorder.sample(rng, (c, width))
        yield buf[:c]


def sample_polymer(
    law: polymer.WalkLaw,
    beta_hat: float,
    n_steps: int,
    n_samples: int,
    seed: int,
    mode: str = "free",
    x: float = 0.0,
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
    mass_tol: float = 1e-8,
) -> np.ndarray:
    """Free / point-to-point / conditioned polymer partition samples, on a
    field over the reachable sites within 6.5 N^{1/alpha} walk spreads of
    the origin.

    Sample i draws its field from the i-th Generator spawned from
    ``SeedSequence(seed)``. Groups of samples go through one batched
    transfer loop, each group drawing its fields in time blocks of at most
    _FIELD_BLOCK_CELLS values into one reused buffer, so no sample's whole
    (n_steps, width) field is held at once. A full block splits its cells
    about evenly between samples and steps: many samples a step keep the
    per-step overhead of the loop small, many steps a draw keep the
    per-call overhead of the Generators small. The blocks split the same
    stream of draws, so the samples do not depend on the grouping.
    """
    beta_n = polymer.scale_beta(law.alpha, beta_hat, n_steps)
    half = polymer._half_width(law, n_steps, 1)
    lo, hi = polymer.reachable_window(law, n_steps)
    k_lo, k_hi = max(lo, -half), min(hi, half)
    y = None
    if mode != "free":
        scale = n_steps ** (1.0 / law.alpha)
        y = int(round(x * scale))
        p, r = law.period, law.residue
        y -= (y - r * n_steps) % p
    width = k_hi - k_lo + 1
    group = max(1, math.isqrt(_FIELD_BLOCK_CELLS // width))
    streams = np.random.SeedSequence(seed).spawn(n_samples)
    out = np.empty(n_samples)
    for s0 in range(0, n_samples, group):
        rngs = [np.random.default_rng(ss) for ss in streams[s0 : s0 + group]]
        fields = _field_blocks(rngs, n_steps, width, disorder)
        out[s0 : s0 + len(rngs)] = polymer._partition_batch(
            law, k_lo, len(rngs), width, fields, beta_n, mode, y, disorder, mass_tol
        )
    return out


def sample_ising(
    profiles: ising.FieldProfiles,
    n_samples: int,
    seed: int,
    disorder: DisorderLaw = GAUSSIAN_DISORDER,
) -> np.ndarray:
    """Rescaled RFIM partition samples e^{-||lam||^2 d^{-1/4}/2} Z on the
    lattice Omega cap (delta Z)^2."""
    system = ising.LatticeSpinSystem.from_domain(profiles.domain, profiles.delta)
    prefactor = ising.normalization_prefactor(profiles)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    omegas = disorder.sample(rng, (n_samples, system.n_sites))
    return np.array(
        [prefactor * ising.rfim_partition(system, om, profiles) for om in omegas]
    )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def _pinning_point(config, n_steps, stream_seed) -> list[ReportRow]:
    params = config.params
    law = _pinning_law(params)
    disorder = _disorder(params)
    beta_hat = float(params.get("beta_hat", 1.0))
    h_hat = float(params.get("h_hat", 0.0))
    mode = params.get("mode", "conditioned")
    rows = []

    beta_n, h_n = pinning.scale_couplings(law, beta_hat, h_hat, n_steps)
    m2 = pinning.second_moment_exact(law, n_steps, beta_n, h_n, mode, disorder)
    if law.regime == "finite_mean":
        oracle = pinning.continuum_second_moment(
            "finite_mean", beta_hat, h_hat, 1.0, mode=mode, mean=law.mean()
        )
    else:
        oracle = pinning.continuum_second_moment(
            "alpha", beta_hat, h_hat, 1.0, mode=mode, alpha=law.alpha
        )
    rows.append(ReportRow(n_steps, "second_moment", m2, None, oracle,
                          abs(m2 / oracle - 1.0), "dp-exact"))

    if config.samples > 0:
        z = sample_pinning(law, beta_hat, h_hat, n_steps, config.samples,
                           stream_seed, mode, disorder)
        se = float(z.std(ddof=1) / math.sqrt(z.size))
        rows.append(ReportRow(n_steps, "mean_Z", float(z.mean()), se, None, None, "mc-ci"))
        if law.regime == "finite_mean":
            drift, vol = pinning.lognormal_limit_law(law.mean(), beta_hat, h_hat, 1.0)
            if vol == 0.0:
                cdf, cdf_left = point_mass_cdf(drift)
                ks = ks_statistic(np.log(z), cdf, cdf_left)
            else:
                ks = ks_statistic(np.log(z), lambda t: ndtr((t - drift) / vol))
            rows.append(ReportRow(n_steps, "ks_lognormal", ks, None, None, None, "mc-ci"))
    return rows


def _polymer_point(config, n_steps, stream_seed) -> list[ReportRow]:
    params = config.params
    alpha = float(params.get("alpha", 2.0))
    if alpha == 2.0:
        law = polymer.WalkLaw.simple_symmetric()
    else:
        law = polymer.WalkLaw.heavy_tail(alpha, float(params.get("gamma", 0.0)),
                                         int(params.get("window", 2000)))
    disorder = _disorder(params)
    beta_hat = float(params.get("beta_hat", 0.5))
    rows = []
    beta_n = polymer.scale_beta(law.alpha, beta_hat, n_steps)
    mass_tol = float(params.get("mass_tol", 1e-8))
    m2 = polymer.polymer_second_moment_exact(law, n_steps, beta_n, disorder,
                                             mass_tol=mass_tol)
    oracle = polymer.polymer_second_moment_continuum(
        law.stable_density(), beta_hat, 1.0, period=law.period
    )
    rows.append(ReportRow(n_steps, "second_moment", m2, None, oracle,
                          abs(m2 / oracle - 1.0), "dp-exact"))
    if config.samples > 0:
        z = sample_polymer(law, beta_hat, n_steps, config.samples, stream_seed,
                           params.get("mode", "free"), float(params.get("x", 0.0)),
                           disorder, mass_tol=mass_tol)
        se = float(z.std(ddof=1) / math.sqrt(z.size))
        rows.append(ReportRow(n_steps, "mean_Z", float(z.mean()), se, 1.0,
                              abs(float(z.mean()) - 1.0), "mc-ci",
                              abs(float(z.mean()) - 1.0) <= 3 * se, "3 s.e. (calibration)"))
    return rows


def _ising_point(config, delta, stream_seed) -> list[ReportRow]:
    params = config.params
    domain = ising.Rect(*params.get("domain", (0.0, 0.0, 1.0, 1.0)))
    profiles = ising.FieldProfiles(
        params.get("lam_hat", 1.0), params.get("h_hat", 0.0), domain, float(delta)
    )
    z = sample_ising(profiles, config.samples, stream_seed, _disorder(params))
    se = float(z.std(ddof=1) / math.sqrt(z.size))
    return [
        ReportRow(delta, "mean_rescaled_Z", float(z.mean()), se, None, None, "mc-ci"),
        ReportRow(delta, "var_rescaled_Z", float(z.var(ddof=1)), None, None, None, "mc-ci"),
    ]


def _wiener_point(config, n_cells, stream_seed) -> list[ReportRow]:
    params = config.params
    tess = wiener.Tessellation.unit_interval(int(n_cells))
    fields = wiener.sample_noise_batch(tess, stream_seed, config.samples)
    diagnostic = params.get("diagnostic", "isometry")
    if diagnostic == "isometry":
        s = fields.sum(axis=1)
        q = (fields**2).sum(axis=1)
        x2 = (s**2 - q) ** 2
        var = float((s**2 - q).var(ddof=1))
        se = float(x2.std(ddof=1) / math.sqrt(x2.size))
        v = tess.cell_volume
        oracle = 2.0 * (v * v) * tess.n_cells * (tess.n_cells - 1)
        return [ReportRow(n_cells, "var_double_integral", var, se, oracle,
                          abs(var - oracle), "mc-ci",
                          abs(var - oracle) <= 3 * se, "3 s.e.")]
    if diagnostic == "cameron_martin":
        spec_b = wiener.ChaosSeriesSpec(
            sigma0=float(params.get("lam_hat", 1.0)),
            mu0=float(params.get("h_hat", 0.5)),
            k_max=int(params.get("k_max", 8)),
            factor_coefs=lambda k: float(params.get("rho", 0.8)) ** k,
        )
        spec_0 = wiener.ChaosSeriesSpec(
            sigma0=spec_b.sigma0, mu0=None, k_max=spec_b.k_max,
            factor_coefs=spec_b.factor_coefs,
        )
        nu = spec_b.mu0 / spec_b.sigma0
        f1 = wiener.sample_noise_batch(tess, stream_seed, config.samples)
        f2 = wiener.sample_noise_batch(tess, stream_seed + 1, config.samples)
        biased = wiener.chaos_series_eval_batch(spec_b, tess, f1)
        unbiased = wiener.chaos_series_eval_batch(spec_0, tess, f2)
        weights = wiener.cameron_martin_weight_batch(tess, f2, nu)
        ks = ks_two_sample(unbiased, biased, wx=weights)
        return [ReportRow(n_cells, "ks_cameron_martin", ks.statistic, None,
                          ks.critical_value, None, "mc-ci", ks.passed,
                          "5% two-sample KS")]
    raise InputError(f"unknown wiener diagnostic {diagnostic!r}")


def pinning_alpha_reference(
    alpha: float,
    beta_hat: float,
    cells: int = 32,
    k_max: int = 3,
    n_samples: int = 10_000,
    seed: int = 0,
) -> np.ndarray:
    """Reference sample of the conditioned alpha-regime chaos limit, built by
    evaluating the gap-product kernels at cell centers on a time grid.

    Center evaluation underestimates the mass of the gap singularities, so
    with coarse grids the reference is systematically light in the tails
    (about 10% of the variance at 32 cells for alpha = 3/4); it serves as a
    qualitative target, not a calibrated one.
    """
    ca = pinning.c_alpha(alpha)

    def gap_kernel(k):
        def f(*args):
            pts = np.sort(np.stack(args, axis=-1), axis=-1)
            pad_lo = np.zeros(pts.shape[:-1] + (1,))
            pad_hi = np.ones(pts.shape[:-1] + (1,))
            gaps = np.diff(np.concatenate([pad_lo, pts, pad_hi], axis=-1), axis=-1)
            vals = ca**k * np.prod(np.maximum(gaps, 1e-300) ** (alpha - 1.0), axis=-1)
            coincident = np.any(np.diff(pts, axis=-1) == 0.0, axis=-1)
            return np.where(coincident, 0.0, vals)

        return f

    kernels = [1.0] + [gap_kernel(k) for k in range(1, k_max + 1)]
    tess = wiener.Tessellation.unit_interval(cells)
    spec = wiener.ChaosSeriesSpec(sigma0=beta_hat, mu0=None, k_max=k_max,
                                  kernels=kernels)
    fields = wiener.sample_noise_batch(tess, seed, n_samples)
    return wiener.chaos_series_eval_batch(spec, tess, fields)


def _flat_kernel(n: int) -> chaos.Kernel:
    return chaos.Kernel({(i,): 1.0 / math.sqrt(n) for i in range(n)})


def smooth_test_function(x):
    """sin(x + 0.3): C^3 with max(|f'|, |f''|, |f'''|) = 1."""
    return np.sin(np.asarray(x, dtype=float) + 0.3)


def exact_flat_kernel_distance(n: int) -> float:
    """|E f(sum zeta/sqrt n) - E f(xi)| for Rademacher vs Gaussian, exactly:
    a binomial sum against Gauss-Hermite integration of the smooth test
    function."""
    j = np.arange(n + 1)
    log_w = (
        np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in j])
        - n * math.log(2.0)
    )
    vals = smooth_test_function((2 * j - n) / math.sqrt(n))
    rademacher = float(np.exp(log_w) @ vals)
    nodes, weights = np.polynomial.hermite_e.hermegauss(120)
    gaussian = float((weights / math.sqrt(2 * math.pi)) @ smooth_test_function(nodes))
    return abs(rademacher - gaussian)


def lindeberg_audit(config: ExperimentConfig) -> ComparisonReport:
    """MC estimate of |E f(Psi(zeta)) - E f(Psi(xi))| with CI, the computable
    bound, exact values where available, and the verdict CI-upper <= bound."""
    params = config.params
    report = ComparisonReport("lindeberg")
    threshold = float(params.get("M", math.inf))
    seeds = np.random.SeedSequence(config.seed).spawn(len(config.grid))
    zeta_kind = params.get("zeta", "rademacher")
    for ss, n in zip(seeds, config.grid):
        n = int(n)
        kernel = _flat_kernel(n)
        if zeta_kind == "rademacher":
            zeta_law = Atoms([-1.0, 1.0], [0.5, 0.5])
        else:
            zeta_law = Atoms(params["zeta_values"], params["zeta_probs"]).standardized()
        moments = chaos.truncated_moments([zeta_law, StdGaussian()], threshold)
        bound = chaos.lindeberg_bound(kernel, 1, moments, c_f=1.0)

        rng = np.random.default_rng(ss)
        z_samples = zeta_law.sample(rng, (config.samples, n)).sum(axis=1) / math.sqrt(n)
        g_samples = rng.standard_normal(config.samples)
        fz = smooth_test_function(z_samples)
        fg = smooth_test_function(g_samples)
        d_hat = float(fz.mean() - fg.mean())
        se = math.sqrt(fz.var(ddof=1) / fz.size + fg.var(ddof=1) / fg.size)
        ci_upper = abs(d_hat) + Z99 * se

        report.rows.append(ReportRow(n, "mc_distance", abs(d_hat), se, None, None, "mc-ci"))
        if zeta_kind == "rademacher":
            exact = exact_flat_kernel_distance(n)
            report.rows.append(ReportRow(
                n, "exact_distance", exact, None, None, None, "formula-exact",
                abs(d_hat - exact) <= Z99 * se + 1e-12, "99% CI consistency"))
        report.rows.append(ReportRow(
            n, "bound_vs_ci", ci_upper, se, bound, bound - ci_upper,
            "formula-exact", ci_upper <= bound, "CI99 upper edge <= bound"))
    return report


_POINT_RUNNERS = {
    "pinning": _pinning_point,
    "polymer": _polymer_point,
    "ising": _ising_point,
    "wiener": _wiener_point,
}


def run_convergence_study(config: ExperimentConfig) -> ComparisonReport:
    """Run the model's sampler/oracles at each grid point and attach trend
    verdicts; grid points run in grid order."""
    if config.model == "lindeberg":
        report = lindeberg_audit(config)
        report.emit(config.out_csv, config.out_json)
        return report
    if config.model == "tilt":
        report = _tilt_report(config)
        report.emit(config.out_csv, config.out_json)
        return report
    runner = _POINT_RUNNERS[config.model]
    report = ComparisonReport(config.model)
    child_seeds = [int(s.generate_state(1)[0]) for s in
                   np.random.SeedSequence(config.seed).spawn(len(config.grid))]
    for grid_value, stream_seed in zip(config.grid, child_seeds):
        report.rows.extend(runner(config, grid_value, stream_seed))

    gaps = [(r.grid_value, r.gap) for r in report.rows
            if r.quantity == "second_moment" and r.gap is not None]
    if len(gaps) >= 2:
        ok = trend_nonincreasing([g for _, g in gaps])
        report.rows.append(ReportRow(gaps[-1][0], "second_moment_gap_trend",
                                     gaps[-1][1], None, None, None, "dp-exact",
                                     ok, "nonincreasing (calibration)"))
    ks_rows = [(r.grid_value, r.value) for r in report.rows if r.quantity == "ks_lognormal"]
    if len(ks_rows) >= 2:
        noise = [1.0 / math.sqrt(config.samples)] * len(ks_rows)
        ok = trend_nonincreasing([v for _, v in ks_rows], noise)
        report.rows.append(ReportRow(ks_rows[-1][0], "ks_trend", ks_rows[-1][1],
                                     None, None, None, "mc-ci", ok,
                                     "nonincreasing within 1/sqrt(samples)"))
    report.emit(config.out_csv, config.out_json)
    return report


def _tilt_report(config: ExperimentConfig) -> ComparisonReport:
    from . import tilting

    params = config.params
    atoms = Atoms(params["values"], params["probs"])
    interval = params.get("interval", "two-sided")
    p_list = tuple(params.get("p_list", (2.0, 0.5, -1.0)))
    result = tilting.tilt_zero_mean(atoms, interval)
    bounds = tilting.verify_tilt_bounds(result, atoms, p_list)
    report = ComparisonReport("tilt")
    report.rows.append(ReportRow(0.0, "tilt_lambda", result.lam, None, None, None,
                                 "formula-exact"))
    report.rows.append(ReportRow(0.0, "tilted_mean", result.tilted.mean(), None, 0.0,
                                 abs(result.tilted.mean()), "formula-exact",
                                 abs(result.tilted.mean()) <= 1e-10, "1e-10"))
    for row in bounds.rows:
        name, p_exp, lhs, rhs, ok = row
        label = name if p_exp is None else f"{name}[p={p_exp}]"
        report.rows.append(ReportRow(0.0, label, lhs, None, rhs, rhs - lhs,
                                     "formula-exact", ok, "theorem bound"))
    return report
