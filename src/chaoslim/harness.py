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
import numbers
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import chaos, ising, pinning, polymer, tilting, wiener
from .dists import GAUSSIAN_DISORDER, RADEMACHER, Atoms, StdGaussian, site_weights
from .errors import InputError, NumericError

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


def _normal_cdf(x) -> list[float]:
    """The standard normal cdf Phi(x) = erfc(-x / sqrt 2) / 2 at each x."""
    return [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x]


def point_mass_cdf(a: float):
    """(cdf, cdf_left) pair of the Dirac mass at ``a``."""
    return (lambda x: (np.asarray(x) >= a).astype(float),
            lambda x: (np.asarray(x) > a).astype(float))


@dataclass(frozen=True)
class TwoSampleKS:
    statistic: float
    critical_value: float

    @property
    def passed(self) -> bool:
        return self.statistic <= self.critical_value


def ks_two_sample(x, y, wx=None) -> TwoSampleKS:
    """Two-sample KS at the 5% level, with optional nonnegative weights on x.

    Weighted empirical CDFs are compared at all pooled points; the critical
    value uses effective sample sizes (sum w)^2 / sum w^2 in the Smirnov
    formula, a calibration choice for the weighted case.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = np.ones(x.size) if wx is None else np.asarray(wx, dtype=float)
    if np.any(wx < 0):
        raise InputError("weights must be nonnegative")
    grid = np.sort(np.concatenate([x, y]))

    def wecdf(values, weights):
        order = np.argsort(values)
        v, w = values[order], weights[order]
        cum = np.cumsum(w) / w.sum()
        idx = np.searchsorted(v, grid, side="right")
        return np.concatenate([[0.0], cum])[idx]

    stat = float(np.max(np.abs(wecdf(x, wx) - wecdf(y, np.ones(y.size)))))
    n_x = float(wx.sum() ** 2 / (wx**2).sum())
    n_y = float(y.size)
    crit = KS_TWO_SAMPLE_C05 * math.sqrt(1.0 / n_x + 1.0 / n_y)
    return TwoSampleKS(stat, crit)


TREND_ALLOWED_INVERSIONS = 1  # rises within noise that a trend may still show


def trend_nonincreasing(values, noises=None) -> bool:
    """Monotone-shrinking check: any rise beyond combined noise fails; rises
    within noise are tolerated up to TREND_ALLOWED_INVERSIONS."""
    v = np.asarray(values, dtype=float)
    s = np.zeros_like(v) if noises is None else np.asarray(noises, dtype=float)
    soft = 0
    for i in range(v.size - 1):
        rise = v[i + 1] - v[i]
        if rise > s[i] + s[i + 1]:
            return False
        if rise > 0:
            soft += 1
    return soft <= TREND_ALLOWED_INVERSIONS


# ---------------------------------------------------------------------------
# configs and reports
# ---------------------------------------------------------------------------

_SAMPLE_ONLY = ("ising", "wiener", "lindeberg")  # models whose every row needs samples
# the most samples a study grid point or a sampler command draws, checked
# before any seed is spawned or array allocated: ten times the largest
# shipped study
MAX_SAMPLES = 10**6


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
        if self.model not in _STUDIES:
            raise InputError(f"unknown model {self.model!r}; choose from {tuple(_STUDIES)}")
        grid = self.grid
        try:
            finite = isinstance(grid, (list, tuple)) and all(
                isinstance(g, numbers.Real) and math.isfinite(g) for g in grid)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise InputError(f"grid must be a list of finite numbers, got {grid!r}")
        if not grid and self.model != "tilt":
            raise InputError(f"{self.model} studies need a non-empty grid")
        if not isinstance(self.params, dict):
            raise InputError(f"params must be a JSON object, got {self.params!r}")
        grid = tuple(grid)
        # every grid but the ising delta values counts steps or cells
        if self.model not in ("ising", "tilt"):
            if not all(g >= 1 and g == math.floor(g) for g in grid):
                raise InputError(f"{self.model} grid values count steps or cells and must "
                                 f"be integers >= 1, got {list(grid)!r}")
            grid = tuple(int(g) for g in grid)
        if len(grid) >= 2:
            diffs = np.diff(np.asarray(grid, dtype=float))
            if not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise InputError("grid must be strictly monotone")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        # 0 samples gives exact rows only; 1 sample gives a nan standard error
        least = 2 if self.model in _SAMPLE_ONLY else 0
        if self.samples < least or self.samples == 1:
            allowed = ">= 2" if least else "0 or >= 2"
            raise InputError(f"{self.model} studies need samples {allowed}, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise InputError(f"samples must be <= {MAX_SAMPLES}, got {self.samples}")
        # finite-mean pinning samples feed the ks_lognormal and ks_trend rows
        if (self.model == "pinning" and self.params.get("law", "finite_mean") == "finite_mean"
                and 0 < self.samples < 100):
            raise InputError(f"finite-mean pinning studies need at least 100 samples "
                             f"for their KS rows, got {self.samples}")
        object.__setattr__(self, "grid", grid)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as err:
            raise InputError(f"cannot read config {path}: {err}") from None
        if not isinstance(raw, dict) or "model" not in raw:
            raise InputError(f"config {path} must be a JSON object with a \"model\" key")
        counts = []
        for key in ("samples", "seed"):
            value = raw.get(key, 0)
            if not (isinstance(value, numbers.Integral)
                    or isinstance(value, float) and value.is_integer()):
                raise InputError(f"config {path}: {key} must be an integer, got {value!r}")
            counts.append(int(value))
        samples, seed = counts
        for key in ("out_csv", "out_json"):
            if not isinstance(raw.get(key), (str, type(None))):
                raise InputError(f"config {path}: {key} must be a path or null, got {raw[key]!r}")
        return cls(
            model=raw["model"],
            params=raw.get("params", {}),
            grid=raw.get("grid", ()),
            samples=samples,
            seed=seed,
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


# the report's columns: the CSV header, and the keys of each JSON row
_COLUMNS = ("grid_value", "quantity", "value", "se", "oracle", "gap", "provenance",
            "passed", "tolerance")


@dataclass
class ComparisonReport:
    model: str
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    def to_csv(self, path) -> None:
        lines = [",".join(_COLUMNS)]
        lines += [",".join("" if (v := getattr(r, c)) is None else str(v) for c in _COLUMNS)
                  for r in self.rows]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path) -> None:
        rows = [{c: getattr(r, c) for c in _COLUMNS} for r in self.rows]
        text = json.dumps({"model": self.model, "passed": self.passed, "rows": rows},
                          indent=2, default=float)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    def emit(self, out_csv=None, out_json=None) -> None:
        if out_csv:
            self.to_csv(out_csv)
        if out_json:
            self.to_json(out_json)


def _number(params: dict, key: str, default, kind=float):
    """``params[key]``, or ``default`` when absent, as ``kind``; a value that
    is not a number, or is NaN or infinite where the default is not, is an
    InputError."""
    value = params.get(key, default)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if math.isfinite(out) or out == default:
        return out
    raise InputError(f"param {key!r} must be a finite number, got {value!r}")


def _numbers(params: dict, key: str, default=None) -> list[float]:
    """``params[key]``, or ``default`` when absent, as a list of floats; a
    value that is not a list of finite numbers, or a missing list with no
    default, is an InputError."""
    value = params.get(key, default)
    if value is None:
        raise InputError(f"param {key!r} is required")
    if isinstance(value, (list, tuple)):
        try:
            out = [float(v) for v in value]
        except (TypeError, ValueError, OverflowError):
            out = [math.nan]
        if all(map(math.isfinite, out)):
            return out
    raise InputError(f"param {key!r} must be a list of finite numbers, got {value!r}")


# ---------------------------------------------------------------------------
# model samplers
# ---------------------------------------------------------------------------


def pinning_law(params: dict) -> pinning.RenewalLaw:
    """The renewal law a pinning study or ``chaoslim pinning`` runs on."""
    kind = params.get("law", "finite_mean")
    if kind == "finite_mean":
        return pinning.RenewalLaw.from_probabilities(_numbers(params, "probs", [0.5, 0.5]))
    if kind == "alpha":
        return pinning.RenewalLaw.heavy_tail(
            _number(params, "alpha", None), _number(params, "n_max", 20000, int)
        )
    raise InputError(f"unknown pinning law {kind!r}")


def polymer_law(params: dict) -> polymer.WalkLaw:
    """The walk law a polymer study or ``chaoslim polymer`` runs on."""
    alpha = _number(params, "alpha", 2.0)
    if alpha == 2.0:
        return polymer.WalkLaw.simple_symmetric()
    return polymer.WalkLaw.heavy_tail(alpha, _number(params, "gamma", 0.0),
                                      _number(params, "window", 2000, int))


def _disorder(params: dict) -> Atoms | StdGaussian:
    kind = params.get("disorder", "gaussian")
    if kind == "gaussian":
        return GAUSSIAN_DISORDER
    if kind == "rademacher":
        return RADEMACHER
    raise InputError(f"unknown disorder {kind!r}")


_PINNING_CHUNK = 2000  # samples a Generator draws for sample_pinning
_PINNING_HISTORY = 1 << 23  # the most history values one pinning transfer holds
_POOL = None  # the polymer draw pool, built on first use


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool():
    """The thread pool ``sample_polymer`` fills its sample ranges on, one
    worker a CPU, while the caller waits for them.  numpy fills an array
    without the GIL, so the workers overlap each other; nothing overlaps
    the transfer.  A worker calls only ``fill`` and numpy, so no traced
    function runs off the main thread."""
    global _POOL
    if _POOL is None:
        # imported here: the module costs 13 ms, which a run without samples skips
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(_cpu_count(), thread_name_prefix="chaoslim-draw")
    return _POOL


def sample_pinning(
    law: pinning.RenewalLaw,
    beta_hat: float,
    h_hat: float,
    n_steps: int,
    n_samples: int,
    seed: int,
    mode: str = "conditioned",
    disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER,
) -> np.ndarray:
    """Partition-function samples at the scaled couplings (beta_N, h_N).

    Each chunk of _PINNING_CHUNK samples draws from its own spawned
    Generator and goes through one transfer call, which reads its site
    weights a 64-step block at a time, time-major: w_n of every sample of
    the chunk, then w_{n+1}.  The calling thread draws each block straight
    into the transfer's block buffer as the transfer reads it and turns it
    into site weights there, so no (samples, N) omega is built; the memory
    is the transfer's: the rows a sample of history and block that
    ``pinning._far_history`` gives, which also size the chunk, 64 * rows for
    the block, and at most 64 * min(N, n_max) for the Toeplitz.  Where those
    rows would pass _PINNING_HISTORY values (67 MB), the chunk has fewer
    samples; ``pinning._renewal_solve`` gives the rows, and where they pass
    it.  No pool draws ahead: the transfer's per-step loop holds the GIL, so
    a worker's draw ran after the block, not beside it.
    """
    beta_n, h_n = pinning.scale_couplings(law, beta_hat, h_hat, n_steps)
    pinning._check_cap(n_steps)
    history = pinning._far_history(law.probs, n_steps)[0]
    chunk = min(_PINNING_CHUNK, max(1, _PINNING_HISTORY // history))
    streams = np.random.SeedSequence(seed).spawn(math.ceil(n_samples / chunk))
    out = np.empty(n_samples)
    for pos, ss in zip(range(0, n_samples, chunk), streams):
        rng = np.random.default_rng(ss)

        def source(n0, block, rng=rng):
            disorder.fill(rng, block)
            site_weights(block, beta_n, disorder, h_n)

        size = min(chunk, n_samples - pos)
        out[pos : pos + size] = pinning.partition_function_batch(law, source, size, n_steps, mode)
    return out


def _fill_weights(disorder, rngs, block, beta: float) -> None:
    """Fill sample i of ``block`` from ``rngs[i]``, then turn the block into
    its site weights in place."""
    for rng, field in zip(rngs, block):
        disorder.fill(rng, field)
    site_weights(block, beta, disorder)


def sample_polymer(
    law: polymer.WalkLaw,
    beta_hat: float,
    n_steps: int,
    n_samples: int,
    seed: int,
    mode: str = "free",
    x: float = 0.0,
    disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER,
    mass_tol: float = 1e-8,
) -> np.ndarray:
    """Free / point-to-point / conditioned polymer partition samples: the
    transfer's row sums or entries at y over the norm, with the window, y
    and norm of ``polymer.field_window``.

    A walk of period p and residue r visits at step n only the sites
    k = r n (mod p), so a field holds values only there: ceil(width / p)
    a step, of which a step whose sublattice has one site fewer leaves the
    last unused. Sample i draws its field from the i-th Generator spawned from
    ``SeedSequence(seed)``, whose seeds are spawned a group at a time. Groups of samples go through one batched
    transfer loop, which takes their weights in time blocks of at most
    polymer._FIELD_BLOCK_CELLS values; each sample fills its own contiguous
    part of a block straight from its own Generator, so no sample's whole
    (n_steps, width) field is held at once.
    A full block splits its cells about evenly between samples and steps:
    many samples a step keep the per-step overhead of the loop small, many
    steps a draw keep the per-call overhead of the Generators small. The
    samples of a block split into one contiguous range a worker thread,
    and each worker fills its range and turns it into weights
    e^{beta_N omega - Lambda(beta_N)} in place. Each sample reads its own
    stream in time order, with the same elementwise arithmetic, so the
    samples depend on neither the grouping nor the number of cores.
    """
    beta_n = polymer.scale_beta(law.alpha, beta_hat, n_steps)
    k_lo, width, y, norm = polymer.field_window(law, n_steps, mode, x)
    group = max(1, math.isqrt(polymer._FIELD_BLOCK_CELLS // -(-width // law.period)))
    # spawn keys run on across calls, so one spawn a group gives the same
    # children as one up front, without all n_samples seeds at once
    parent = np.random.SeedSequence(seed)
    out = np.empty(n_samples)
    for s0 in range(0, n_samples, group):
        rngs = [np.random.default_rng(ss) for ss in parent.spawn(min(group, n_samples - s0))]
        parts = min(_cpu_count(), len(rngs))
        ranges = [(len(rngs) * j // parts, len(rngs) * (j + 1) // parts) for j in range(parts)]

        def weights(n0, block, rngs=rngs, ranges=ranges):
            tasks = [_pool().submit(_fill_weights, disorder, rngs[a:b], block[a:b], beta_n)
                     for a, b in ranges]
            for err in [t.exception() for t in tasks]:  # waits for every worker first
                if err is not None:
                    raise err

        out[s0 : s0 + len(rngs)] = polymer._partition_batch(
            law, k_lo, len(rngs), width, n_steps, weights, y, mass_tol) / norm
    return out


def positive_samples(z: np.ndarray, lower: str) -> np.ndarray:
    """``z``, if every partition-function sample in it is finite and
    positive; else a NumericError that names what to ``lower``."""
    bad = np.flatnonzero(~(np.isfinite(z) & (z > 0.0)))
    if bad.size:
        raise NumericError(
            f"{bad.size} of {z.size} partition-function samples are not finite and "
            f"positive (sample {bad[0]} is {float(z[bad[0]])!r}); lower {lower}")
    return z


def sample_ising(
    profiles: ising.FieldProfiles,
    n_samples: int,
    seed: int,
    disorder: Atoms | StdGaussian = GAUSSIAN_DISORDER,
) -> np.ndarray:
    """Rescaled RFIM partition samples e^{-||lam||^2 d^{-1/4}/2} Z on the
    lattice Omega cap (delta Z)^2, by batched transfer sweeps.  A sweep's
    state holds 2^(frontier spins) values a row, so the rows go in chunks
    whose states hold at most the transfer cap, 2^20 values, together; a
    chunk draws its xi from the one Generator in turn, and each row is swept
    alone, so the chunks do not change its bytes.  At large lam_hat the
    prefactor underflows to 0 and Z overflows: a NumericError."""
    system = ising.LatticeSpinSystem.from_domain(profiles.domain, profiles.delta)
    prefactor = ising.normalization_prefactor(profiles)
    lam, h = ising.scale_fields(profiles, system)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = max(1, ising._SWEEP_CAP >> system.frontier_spins)
    z = np.empty(n_samples)
    for r0 in range(0, n_samples, rows):
        x = lam * disorder.fill(rng, np.empty((min(rows, n_samples - r0), system.n_sites))) + h
        z[r0 : r0 + rows] = ising._rfim_partition_batch(system, np.exp(x), np.exp(-x))
    z *= prefactor
    return positive_samples(z, f"lam_hat = {profiles.lam_hat!r} or h_hat = {profiles.h_hat!r}")


def _ising_mean(profiles: ising.FieldProfiles, disorder: Atoms | StdGaussian) -> float:
    """E[rescaled Z] = prefactor e^{n Lambda(lam)} E+[e^{h sum_x sigma_x}], the
    mean of ``sample_ising``.  Both disorder laws are symmetric, so
    E e^{lam omega sigma} = e^{Lambda(lam)} at either spin, and only the bias
    h is left in the spin average: one transfer row."""
    system = ising.LatticeSpinSystem.from_domain(profiles.domain, profiles.delta)
    lam, h = ising.scale_fields(profiles, system)
    prefactor = ising.normalization_prefactor(profiles)
    n_lambda = system.n_sites * disorder.log_mgf(lam[0])
    return prefactor * math.exp(n_lambda) * ising.rfim_partition_xi(system, h)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def _mean_row(grid_value, quantity: str, z: np.ndarray, oracle=None) -> ReportRow:
    """The sample mean of ``z`` with its standard error; given the exact
    mean ``oracle``, judged to lie within 3 s.e. of it."""
    mean = float(z.mean())
    se = float(z.std(ddof=1) / math.sqrt(z.size))
    if oracle is None:
        return ReportRow(grid_value, quantity, mean, se, None, None, "mc-ci")
    gap = abs(mean - oracle)
    return ReportRow(grid_value, quantity, mean, se, oracle, gap, "mc-ci",
                     gap <= 3 * se, "3 s.e. (calibration)")


def _pinning_study(config):
    params = config.params
    law = pinning_law(params)
    disorder = _disorder(params)
    beta_hat = _number(params, "beta_hat", 1.0)
    h_hat = _number(params, "h_hat", 0.0)
    mode = params.get("mode", "conditioned")
    oracle = pinning.continuum_second_moment(law, beta_hat, h_hat, mode)

    def point(n_steps, stream_seed) -> list[ReportRow]:
        beta_n, h_n = pinning.scale_couplings(law, beta_hat, h_hat, n_steps)
        m2 = pinning.second_moment_exact(law, n_steps, beta_n, h_n, mode, disorder)
        rows = [ReportRow(n_steps, "second_moment", m2, None, oracle,
                          abs(m2 / oracle - 1.0), "dp-exact")]
        if config.samples > 0:
            z = sample_pinning(law, beta_hat, h_hat, n_steps, config.samples,
                               stream_seed, mode, disorder)
            rows.append(_mean_row(n_steps, "mean_Z", z))
            if law.regime == "finite_mean":
                drift, vol = pinning.lognormal_limit_law(law, beta_hat, h_hat)
                if vol == 0.0:
                    cdf, cdf_left = point_mass_cdf(drift)
                    ks = ks_statistic(np.log(z), cdf, cdf_left)
                else:
                    ks = ks_statistic(np.log(z), lambda t: _normal_cdf((t - drift) / vol))
                rows.append(ReportRow(n_steps, "ks_lognormal", ks, None, None, None, "mc-ci"))
        return rows

    return point


def _polymer_study(config):
    """Rows per N: ``second_moment``, the exact free-mode E[Z^2] in every
    mode, and with samples ``mean_Z`` against E Z: q_N(y) point-to-point,
    at the y of ``polymer.field_window``, 1 otherwise."""
    params = config.params
    law = polymer_law(params)
    disorder = _disorder(params)
    beta_hat = _number(params, "beta_hat", 0.5)
    mass_tol = _number(params, "mass_tol", 1e-8)
    mode = params.get("mode", "free")
    x = _number(params, "x", 0.0)
    oracle = polymer.polymer_second_moment_continuum(law, beta_hat)

    def point(n_steps, stream_seed) -> list[ReportRow]:
        beta_n = polymer.scale_beta(law.alpha, beta_hat, n_steps)
        m2 = polymer.polymer_second_moment_exact(law, n_steps, beta_n, disorder)
        rows = [ReportRow(n_steps, "second_moment", m2, None, oracle,
                          abs(m2 / oracle - 1.0), "dp-exact")]
        if config.samples > 0:
            z = sample_polymer(law, beta_hat, n_steps, config.samples, stream_seed,
                               mode, x, disorder, mass_tol=mass_tol)
            mean_z = (polymer.walk_pmf(law, n_steps)[polymer.field_window(law, n_steps, mode, x)[2]]
                      if mode == "point2point" else 1.0)
            rows.append(_mean_row(n_steps, "mean_Z", z, mean_z))
        return rows

    return point


def _ising_study(config):
    """Rows per delta: ``mean_rescaled_Z`` against its exact mean, and
    ``var_rescaled_Z`` without an oracle."""
    params = config.params
    domain = _numbers(params, "domain", [0.0, 0.0, 1.0, 1.0])
    if len(domain) != 4:
        raise InputError(f"param 'domain' must be [x0, y0, x1, y1], got {domain!r}")
    domain = ising.Rect(*domain)
    lam_hat = _number(params, "lam_hat", 1.0)
    h_hat = _number(params, "h_hat", 0.0)
    disorder = _disorder(params)

    def point(delta, stream_seed) -> list[ReportRow]:
        profiles = ising.FieldProfiles(lam_hat, h_hat, domain, float(delta))
        z = sample_ising(profiles, config.samples, stream_seed, disorder)
        return [
            _mean_row(delta, "mean_rescaled_Z", z, _ising_mean(profiles, disorder)),
            ReportRow(delta, "var_rescaled_Z", float(z.var(ddof=1)), None, None, None, "mc-ci"),
        ]

    return point


def _wiener_study(config):
    params = config.params
    diagnostic = params.get("diagnostic", "isometry")
    if diagnostic == "isometry":
        def point(n_cells, stream_seed) -> list[ReportRow]:
            fields = wiener.sample_noise_batch(n_cells, stream_seed, config.samples)
            s = fields.sum(axis=1)
            q = (fields**2).sum(axis=1)
            x2 = (s**2 - q) ** 2
            var = float((s**2 - q).var(ddof=1))
            se = float(x2.std(ddof=1) / math.sqrt(x2.size))
            v = 1.0 / n_cells
            oracle = 2.0 * (v * v) * n_cells * (n_cells - 1)
            return [ReportRow(n_cells, "var_double_integral", var, se, oracle,
                              abs(var - oracle), "mc-ci",
                              abs(var - oracle) <= 3 * se, "3 s.e.")]
        return point
    if diagnostic == "cameron_martin":
        lam_hat = _number(params, "lam_hat", 1.0)
        if lam_hat <= 0:
            raise InputError(f"param 'lam_hat' must be positive, got {lam_hat!r}")
        rho = _number(params, "rho", 0.8)
        h_hat = _number(params, "h_hat", 0.5)

        def point(n_cells, stream_seed) -> list[ReportRow]:
            fields = wiener.sample_noise_batch(n_cells, stream_seed, config.samples)
            plain = wiener.sample_noise_batch(n_cells, stream_seed + 1, config.samples)
            biased = wiener.chaos_series_eval_batch(fields, lam_hat, rho, h_hat)
            unbiased = wiener.chaos_series_eval_batch(plain, lam_hat, rho, 0.0)
            if not (np.isfinite(biased).all() and np.isfinite(unbiased).all()):
                raise NumericError("the chaos series overflows; lower rho or h_hat")
            weights = wiener.cameron_martin_weight_batch(plain, h_hat / lam_hat)
            ks = ks_two_sample(unbiased, biased, wx=weights)
            return [ReportRow(n_cells, "ks_cameron_martin", ks.statistic, None,
                              ks.critical_value, None, "mc-ci", ks.passed,
                              "5% two-sample KS")]
        return point
    raise InputError(f"unknown wiener diagnostic {diagnostic!r}")


def pinning_alpha_reference(
    alpha: float,
    beta_hat: float,
    cells: int = 32,
    n_samples: int = 10_000,
    seed: int = 0,
) -> np.ndarray:
    """Reference sample of the conditioned alpha-regime chaos limit on the
    lattice t = n/M, M = ``cells``.

    The degree-k kernel c_alpha^k prod_{i=1}^{k+1} (t_i - t_{i-1})^{alpha-1},
    with t_0 = 0 and t_{k+1} = 1, is a renewal product, so on the lattice the
    series over every degree is the pinning transfer: x(0) = 1 and
    x(n) = w(n) sum_m K(m) x(n - m) with K(m) = (m/M)^{alpha-1},
    w(n) = beta_hat c_alpha W_n for n < M and w(M) = 1, and Z = x(M).  The
    empty site set gives K(M) = 1, the degree-0 term.  W_1..W_{M-1} are the
    first M - 1 cells of ``wiener.sample_noise_batch``, each N(0, 1/M).  A
    finite lattice has a finite series, so nothing is truncated.  K is a
    power m^{-p} with p = 1 - alpha; at alpha = 3/4 the sum of exponentials
    of ``pinning._renewal_solve`` needs J = 39 to 48 terms from M = 285 to
    2560, so from there the solve holds the rows and J accumulators that its
    docstring sizes, and 5,000 rows take about 0.9 s at M = 2048.  It returns
    x(M) alone.  The same recursion on K^2 with w(n) = (beta_hat c_alpha)^2 / M
    for n < M gives the exact grid E Z^2; at alpha = 3/4 the grid variance
    is 0.912 of the continuum value at M = 128, a deficit that falls like
    M^{-(2 alpha - 1)}.
    """
    if beta_hat <= 0:
        raise InputError("beta_hat must be positive")
    w = beta_hat * pinning.c_alpha(alpha) * wiener.sample_noise_batch(cells, seed, n_samples)
    w[:, -1] = 1.0
    kernel = np.append(0.0, (np.arange(1, cells + 1) / cells) ** (alpha - 1.0))
    return pinning._renewal_solve(kernel, cells, pinning._array_weights(w), n_samples)


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
    threshold = _number(params, "M", math.inf)
    seeds = np.random.SeedSequence(config.seed).spawn(len(config.grid))
    zeta_kind = params.get("zeta", "rademacher")
    if zeta_kind == "rademacher":
        zeta_law = RADEMACHER
    else:
        zeta_law = Atoms(_numbers(params, "zeta_values"),
                         _numbers(params, "zeta_probs")).standardized()
    moments = chaos.truncated_moments([zeta_law, GAUSSIAN_DISORDER], threshold)
    for ss, n in zip(seeds, config.grid):
        n = int(n)
        kernel = _flat_kernel(n)
        bound = chaos.lindeberg_bound(kernel, 1, moments, c_f=1.0)

        # zeta row-summed in chunks of at most 2^20 values: the draws of one
        # (samples, n) matrix, which took 2.4 GB at 100,000 x 1024
        rng = np.random.default_rng(ss)
        rows = max(1, (1 << 20) // n)
        z_samples = np.concatenate([
            zeta_law.fill(rng, np.empty((min(rows, config.samples - r0), n))).sum(axis=1)
            for r0 in range(0, config.samples, rows)]) / math.sqrt(n)
        g_samples = GAUSSIAN_DISORDER.fill(rng, np.empty(config.samples))
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


def _ks_settles(ks, samples: int) -> bool:
    """KS values along the grid that all sit within the noise floor of each
    other show no trend to judge; otherwise they must not rise beyond it."""
    noise = 1.0 / math.sqrt(samples)
    return max(ks) - min(ks) <= 2.0 * noise or trend_nonincreasing(ks, [noise] * len(ks))


# the quantity whose rows a trend row judges ->
# (trend row, the column it judges, rule(values, samples), tolerance); the
# trend row sits at the last grid value with the last judged value, and takes
# the provenance of the rows it judges
_TRENDS = {
    "second_moment": ("second_moment_gap_trend", "gap",
                      lambda gaps, samples: trend_nonincreasing(gaps),
                      "nonincreasing (calibration)"),
    "ks_lognormal": ("ks_trend", "value", _ks_settles,
                     "spread <= 2/sqrt(samples) or nonincreasing within 1/sqrt(samples)"),
}


def _grid_report(study, config: ExperimentConfig) -> ComparisonReport:
    """Set up ``study`` once, run the ``point(grid_value, stream_seed)`` it
    returns at each grid point, in grid order, and add the trend row of each
    ``_TRENDS`` quantity that has at least two rows."""
    point = study(config)
    report = ComparisonReport(config.model)
    child_seeds = [int(s.generate_state(1)[0]) for s in
                   np.random.SeedSequence(config.seed).spawn(len(config.grid))]
    for grid_value, stream_seed in zip(config.grid, child_seeds):
        report.rows.extend(point(grid_value, stream_seed))

    for quantity, (name, column, rule, tolerance) in _TRENDS.items():
        judged = [r for r in report.rows if r.quantity == quantity]
        if len(judged) >= 2:
            values = [getattr(r, column) for r in judged]
            last = judged[-1]
            report.rows.append(ReportRow(last.grid_value, name, values[-1], None, None, None,
                                         last.provenance, rule(values, config.samples),
                                         tolerance))
    return report


def _tilt_report(config: ExperimentConfig) -> ComparisonReport:
    params = config.params
    atoms = Atoms(_numbers(params, "values"), _numbers(params, "probs"))
    interval = params.get("interval", "two-sided")
    p_list = _numbers(params, "p_list", [2.0, 0.5, -1.0])
    result = tilting.tilt_zero_mean(atoms, interval)
    bounds = tilting.verify_tilt_bounds(result, atoms, p_list)
    report = ComparisonReport("tilt")
    report.rows.append(ReportRow(0.0, "tilt_lambda", result.lam, None, None, None,
                                 "formula-exact"))
    report.rows.append(ReportRow(0.0, "tilted_mean", result.tilted.mean(), None, 0.0,
                                 abs(result.tilted.mean()), "formula-exact",
                                 abs(result.tilted.mean()) <= 1e-10, "1e-10"))
    for row in bounds:
        name, p_exp, lhs, rhs, ok = row
        label = name if p_exp is None else f"{name}[p={p_exp}]"
        report.rows.append(ReportRow(0.0, label, lhs, None, rhs, rhs - lhs,
                                     "formula-exact", ok, "theorem bound"))
    return report


# the study each model runs; ExperimentConfig accepts exactly these models
_STUDIES = {
    "pinning": partial(_grid_report, _pinning_study),
    "polymer": partial(_grid_report, _polymer_study),
    "ising": partial(_grid_report, _ising_study),
    "wiener": partial(_grid_report, _wiener_study),
    "lindeberg": lindeberg_audit,
    "tilt": _tilt_report,
}


def run_convergence_study(config: ExperimentConfig) -> ComparisonReport:
    """Build the model's report and write it to the config's CSV/JSON paths."""
    report = _STUDIES[config.model](config)
    report.emit(config.out_csv, config.out_json)
    return report
