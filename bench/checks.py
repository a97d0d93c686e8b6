"""Correctness checks computed apart from chaoslim.

The oracles here are written from the models' definitions (enumeration of
renewal sets, walk paths and spin configurations) or come from scipy; none
calls into chaoslim.  ``static_checks`` compares chaoslim with them on small
seed-drawn inputs; the statistical checks test the benchmark's sampled
outputs against exact moments.  Gaussian disorder throughout, so
Lambda(beta) = beta^2 / 2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))
MEAN_SIGMAS = 5.0  # a check of an exact mean fails by chance with p ~ 1e-6
# The variance estimator's error, estimated from the same skewed sample, is
# too small when the sample misses rare large Z; over 100-120 seeds per
# workload the sampled variances reached 4 (pinning) and 3.3 (field) such
# errors below the exact value, so the variance check allows 6.
VARIANCE_SIGMAS = 6.0


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def close(name: str, got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> Check:
    err = abs(got - want)
    return Check(name, bool(err <= atol + rtol * abs(want)),
                 f"got {got!r}, want {want!r}, |diff| {err:.3g}")


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def _members(n: int) -> np.ndarray:
    """(2^n, n) booleans: site i+1 belongs to the set with bit mask row."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def renewal_set_probs(k, n: int, mode: str) -> np.ndarray:
    """P(tau cap [1, n] = A) for every A (free), or P(... = A, n in tau)
    (conditioned), from the inter-arrival law k[m] = P(tau_1 = m)."""
    k = np.asarray(k, dtype=float)

    def kk(m):
        return k[m] if m < k.size else 0.0

    probs = np.empty(1 << n)
    for mask in range(1 << n):
        p, prev = 1.0, 0
        for i in range(1, n + 1):
            if mask >> (i - 1) & 1:
                p *= kk(i - prev)
                prev = i
        if mode == "free":
            p *= 1.0 - sum(kk(m) for m in range(1, n - prev + 1))
        elif prev != n:
            p = 0.0
        probs[mask] = p
    return probs


def pinning_brute(k, omega, beta: float, h: float, mode: str) -> float:
    """Pinning partition function by summing over all renewal sets."""
    omega = np.asarray(omega, dtype=float)
    probs = renewal_set_probs(k, omega.size, mode)
    weights = np.exp(_members(omega.size) @ (beta * omega - 0.5 * beta * beta + h))
    z = float(probs @ weights)
    return z / float(probs.sum()) if mode == "conditioned" else z


def pinning_second_moment_brute(k, n: int, beta: float, h: float, mode: str) -> float:
    """E[Z^2] over pairs of renewal sets: e^{beta^2 + 2h} on common sites,
    e^h on sites of one set only."""
    probs = renewal_set_probs(k, n, mode)
    masks = np.arange(1 << n)
    popcount = _members(n).sum(axis=1)
    both = popcount[masks[:, None] & masks[None, :]]
    total = popcount[:, None] + popcount[None, :]
    m2 = float(probs @ np.exp(beta * beta * both + h * total) @ probs)
    return m2 / float(probs.sum()) ** 2 if mode == "conditioned" else m2


def _walk_paths(n: int) -> np.ndarray:
    """Positions S_1..S_n of all 2^n simple-walk paths."""
    steps = np.where(_members(n), 1, -1)
    return np.cumsum(steps, axis=1)


def walk_brute(values, k_lo: int, beta: float) -> float:
    """Free simple-walk polymer partition function over all paths, with
    omega(n, x) = values[n - 1, x - k_lo]."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    pos = _walk_paths(n)
    energy = values[np.arange(n), pos - k_lo].sum(axis=1)
    return float(np.mean(np.exp(beta * energy - 0.5 * n * beta * beta)))


def walk_second_moment_brute(n: int, beta: float) -> float:
    """E[Z^2] = E[exp(beta^2 #{m <= n : S_m = S'_m})] over path pairs."""
    pos = _walk_paths(n)
    meets = (pos[:, None, :] == pos[None, :, :]).sum(axis=2)
    return float(np.mean(np.exp(beta * beta * meets)))


def _ising_configurations(sites) -> tuple[np.ndarray, np.ndarray]:
    """(spins, Boltzmann weights) of every configuration of the interior
    ``sites`` at beta_c with + boundary; row c has spin -1 where bit is set."""
    index = {s: i for i, s in enumerate(sites)}
    spins = np.where(_members(len(sites)), -1.0, 1.0)
    energy = np.zeros(spins.shape[0])
    for (a, b), i in index.items():
        for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            if nb not in index:
                energy += spins[:, i]  # + boundary neighbour
            elif index[nb] > i:
                energy += spins[:, i] * spins[:, index[nb]]
    return spins, np.exp(BETA_C * energy)


def ising_brute(sites, xi) -> float:
    """E+[exp(sum_x xi_x sigma_x)] by summing over every configuration."""
    spins, weights = _ising_configurations(sites)
    return float(weights @ np.exp(spins @ np.asarray(xi, dtype=float)) / weights.sum())


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2, h)
        v = np.stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1).reshape(-1)
        h *= 2
    return v


def ising_second_moment_brute(sites, lam) -> float:
    """E[Z^2] for Z = E+[exp(sum_x lam_x omega_x sigma_x)], omega Gaussian:
    E+ x E+[exp(sum_x lam_x^2 (1 + sigma_x sigma'_x))].  The pair sum
    depends on the two configurations only through their XOR d, so it is
    sum_d f(d) A(d) with A the XOR autocorrelation of the weights."""
    lam2 = np.asarray(lam, dtype=float) ** 2
    spins, weights = _ising_configurations(sites)
    autocorr = _walsh_hadamard(_walsh_hadamard(weights) ** 2) / weights.size
    f = np.exp(spins @ lam2)  # spins of configuration d are sigma_x sigma'_x
    return float(np.exp(lam2.sum()) * (f @ autocorr) / weights.sum() ** 2)


def stable_pdf_reference(xs, alpha: float, a: float) -> np.ndarray:
    """Symmetric stable density with characteristic function exp(-a |t|^alpha)."""
    from scipy.stats import levy_stable

    return levy_stable.pdf(xs, alpha, 0.0, scale=a ** (1.0 / alpha))


# ---------------------------------------------------------------------------
# statistical checks on sampled outputs
# ---------------------------------------------------------------------------


def mean_check(name: str, mean: float, n: int, target: float, variance: float) -> Check:
    """Sample mean of n draws against an exact mean, in standard errors
    from the exact variance.  (The sample's own standard deviation is too
    small exactly when a skewed sample missed its rare large values.)"""
    se = math.sqrt(variance / n)
    gap = abs(mean - target)
    return Check(name, bool(gap <= MEAN_SIGMAS * se),
                 f"mean {mean:.6g} vs {target:.6g}: {gap / se:.2f} s.e.")


def variance_check(name: str, z, target: float) -> Check:
    """Sample variance against an exact variance, within VARIANCE_SIGMAS standard
    errors of the variance estimator: sqrt((m4 - s^4) / n) from the sample,
    but at least the Gaussian value target * sqrt(2 / (n - 1)), which heavier
    tails only exceed."""
    z = np.asarray(z, dtype=float)
    s2 = float(z.var(ddof=1))
    m4 = float(np.mean((z - z.mean()) ** 4))
    se = max(math.sqrt(max(m4 - s2 * s2, 0.0) / z.size),
             target * math.sqrt(2.0 / (z.size - 1)))
    gap = abs(s2 - target)
    return Check(name, bool(gap <= VARIANCE_SIGMAS * se),
                 f"variance {s2:.6g} vs {target:.6g}: {gap / se:.2f} s.e.")


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """(Z, logZ) columns of a sampler CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([float(r["Z"]) for r in rows]),
            np.array([float(r["logZ"]) for r in rows]))


def log_column_check(name: str, z, log_z) -> Check:
    ok = bool(np.all(np.isfinite(log_z)) and np.all(z > 0)
              and np.allclose(log_z, np.log(z), rtol=1e-12, atol=1e-12))
    return Check(name, ok, f"{z.size} rows, logZ finite and equal to log(Z): {ok}")


# ---------------------------------------------------------------------------
# chaoslim against the oracles
# ---------------------------------------------------------------------------


def static_checks(rng: np.random.Generator) -> list[Check]:
    """chaoslim's partition functions, second moments, Ising enumeration and
    stable density against the oracles above, on inputs drawn from ``rng``."""
    from chaoslim import ising, pinning, polymer

    out = []
    n = 7
    for law_name, law in (("two-atom", pinning.RenewalLaw.from_probabilities([0.5, 0.5])),
                          ("alpha", pinning.RenewalLaw.heavy_tail(0.75, 20000))):
        beta, h = 0.4 + 0.4 * rng.random(), 0.2 * rng.standard_normal()
        omega = rng.standard_normal(n)
        for mode in ("conditioned", "free"):
            out.append(close(f"pinning Z {law_name} {mode} N={n}",
                             pinning.partition_function(law, omega, beta, h, mode),
                             pinning_brute(law.probs, omega, beta, h, mode), rtol=1e-12))
            out.append(close(f"pinning E[Z^2] {law_name} {mode} N={n}",
                             pinning.second_moment_exact(law, n, beta, h, mode),
                             pinning_second_moment_brute(law.probs, n, beta, h, mode),
                             rtol=1e-12))

    n = 8
    walk = polymer.WalkLaw.simple_symmetric()
    beta = 0.3 + 0.5 * rng.random()
    values = rng.standard_normal((n, 2 * n + 1))
    out.append(close(f"polymer Z N={n}",
                     polymer.polymer_partition(walk, polymer.SpaceTimeField(values, -n), beta),
                     walk_brute(values, -n, beta), rtol=1e-12))
    out.append(close(f"polymer E[Z^2] N={n}",
                     polymer.polymer_second_moment_exact(walk, n, beta),
                     walk_second_moment_brute(n, beta), rtol=1e-12))

    sites = [(1, 1), (1, 2), (2, 1), (2, 2)]
    system = ising.LatticeSpinSystem.from_domain(ising.Rect.unit_square(), 1 / 3)
    out.append(Check("ising delta=1/3 sites", list(system.interior) == sites,
                     f"{list(system.interior)}"))
    xi = 0.5 * rng.standard_normal(len(sites))
    out.append(close("ising rfim_partition_xi delta=1/3",
                     ising.rfim_partition_xi(system, xi), ising_brute(sites, xi), rtol=1e-12))

    alpha = 1.5
    heavy = polymer.WalkLaw.heavy_tail(alpha, 0.0, 200)
    a = heavy.c_tail * math.pi / (2.0 * math.sin(math.pi * alpha / 2.0) * math.gamma(alpha))
    # fixed points: within about 0.01 of 0 (but not at 0) scipy's default
    # levy_stable method is itself off by up to 1e-6
    xs = np.array([-6.0, -2.5, -0.7, 0.0, 0.35, 1.2, 4.0])
    got = heavy.stable_density().pdf(xs)
    out.append(close("StableDensity.pdf alpha=1.5 vs levy_stable",
                     float(np.max(np.abs(got - stable_pdf_reference(xs, alpha, a)))),
                     0.0, atol=1e-9))
    return out


def ising_rescaled_moments(delta: float, lam_hat: float) -> tuple[float, float]:
    """(mean, variance) of the rescaled RFIM partition function at h_hat = 0
    on the unit square.  The rescaling factor is exp(-lam_hat^2
    delta^{-1/4} / 2); E[Z] = exp(sum_x lambda_x^2 / 2) with lambda_x =
    lam_hat delta^{7/8} on the (1/delta - 1)^2 interior sites."""
    m = round(1.0 / delta) - 1
    sites = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    lam = lam_hat * delta**0.875
    prefactor = math.exp(-0.5 * lam_hat**2 * delta**-0.25)
    mean = prefactor * math.exp(0.5 * len(sites) * lam * lam)
    second = prefactor**2 * ising_second_moment_brute(sites, [lam] * len(sites))
    return mean, second - mean * mean
