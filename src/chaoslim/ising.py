"""Desk-scale critical 2D Ising with + boundary, and its random-field
perturbation.

One column transfer over the system's sites computes everything: the
random-field partition function Z, and the spin correlations E+[sigma^I]
that make the chaos-rewrite identity

    Z = prod_x cosh(xi_x) * sum_{I subset interior} E+[sigma^I] tanh(xi)^I

an exact algebraic statement rather than a sampled one.  Its frontier is the
system's shorter side, w spins, so it costs 2^w a site.
The inverse temperature is pinned at the critical point
beta_c = log(1+sqrt(2))/2, and the random field has a constant strength
lam_hat and bias h_hat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dists import GAUSSIAN_DISORDER, Atoms, StdGaussian
from .errors import InputError, ResourceError, positive_samples

BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))
_BOND = math.exp(BETA_C), math.exp(-BETA_C)  # e^{beta_c s s'} for s s' = +1, -1

_SWEEP_CAP = 1 << 20  # sites x 2^(frontier spins): the transfer's work a row


@dataclass(frozen=True)
class Rect:
    """Open axis-aligned rectangle (x0, x1) x (y0, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise InputError("degenerate rectangle")

    @classmethod
    def unit_square(cls) -> "Rect":
        return cls(0.0, 0.0, 1.0, 1.0)


def _axis_range(lo: float, hi: float, delta: float) -> range:
    """The integers i with lo < i * delta < hi: the lattice points of one
    side of an open Rect."""
    try:
        i0, i1 = math.floor(lo / delta), math.ceil(hi / delta)
    except OverflowError:  # an axis count beyond the float range
        raise ResourceError(
            f"delta = {delta!r} gives more sites than the transfer cap {_SWEEP_CAP}"
        ) from None
    while i0 <= i1 and not lo < i0 * delta:
        i0 += 1
    while i1 >= i0 and not i1 * delta < hi:
        i1 -= 1
    return range(i0, i1 + 1)


@dataclass(frozen=True)
class LatticeSpinSystem:
    """The sites xs x ys of Z^2, two axis ranges of step 1, with + boundary
    on their nearest-neighbour hull."""

    xs: range
    ys: range

    def __post_init__(self):
        if not all(isinstance(r, range) and r.step == 1 for r in (self.xs, self.ys)):
            raise InputError("the sites must be two axis ranges of step 1")
        # stop - start, not len(): len() of a range past 2^63 raises OverflowError
        nx, ny = self.xs.stop - self.xs.start, self.ys.stop - self.ys.start
        if nx <= 0 or ny <= 0:
            raise InputError("interior must be non-empty")
        # the transfer's work a row is sites x 2^(frontier spins), its
        # frontier the shorter side; sites are checked alone first, so the
        # shift stays small
        if nx * ny > _SWEEP_CAP:
            raise ResourceError(f"the system has more sites than the transfer cap {_SWEEP_CAP}")
        if nx * ny << min(nx, ny) > _SWEEP_CAP:
            raise ResourceError(f"{nx * ny} sites x 2^{min(nx, ny)} frontier states "
                                f"exceed the transfer cap {_SWEEP_CAP}")

    @classmethod
    def from_domain(cls, domain: Rect, delta: float) -> "LatticeSpinSystem":
        """The sites of Omega cap (delta Z)^2, as integer coordinates."""
        if delta <= 0:
            raise InputError("delta must be positive")
        return cls(_axis_range(domain.x0, domain.x1, delta),
                   _axis_range(domain.y0, domain.y1, delta))

    @property
    def n_sites(self) -> int:
        return len(self.xs) * len(self.ys)

    @property
    def frontier_spins(self) -> int:
        """The spins the transfer's frontier holds: the shorter side."""
        return min(len(self.xs), len(self.ys))

    @property
    def interior(self) -> tuple[tuple[int, int], ...]:
        """The sites in sorted order, the order of the per-site weights."""
        return tuple((i, j) for i in self.xs for j in self.ys)


@functools.lru_cache(maxsize=None)
def _site_factors(left: bool, above: bool, sides: int):
    """The new site's bond to the spin left of it, e^{beta_c s t} of shape
    (s, t, 1, 1, 1), and its field from the spin above it and ``sides`` +
    neighbours past the system's bottom and right sides, e^{beta_c s (a +
    sides)} of shape (s, a, 1, 1), to broadcast over state views.  The spin
    left and the spin above are +-1 where flagged and a fixed + where not."""
    bond = np.array([[_BOND[0], _BOND[1]], [_BOND[1], _BOND[0]]])[:, : 1 + left]
    field = BETA_C * (np.array([1, -1][: 1 + above]) + sides)
    return bond[..., None, None, None], np.exp(np.array([field, -field]))[..., None, None]


def _rfim_partition_batch(system: LatticeSpinSystem, up, down) -> np.ndarray:
    """E+[prod_x u_x(sigma_x)] for each row of the per-site weights ``up``
    (u_x(+1)) and ``down`` (u_x(-1)), shapes (rows, n_sites).  Weights
    e^{+-xi} give E+[exp(xi . sigma)]; 1, and -1 on the sites of I, give
    E+[sigma^I].

    One site-by-site column-transfer sweep in columns of w sites, w the
    system's shorter side.  The state holds, for each spin configuration of
    the frontier (the latest site of each of the w rows), the Boltzmann
    weight summed over the swept sites, so a site costs 2^w.  The left spin
    is a fixed + in the first column, and the system's sides couple to the +
    boundary.  An extra row of unit weights sums to the normaliser.  Each
    row is swept alone, so its value does not depend on the rows beside it.
    """
    up, down = (np.asarray(a, dtype=float) for a in (up, down))
    if up.ndim != 2 or up.shape != down.shape or up.shape[1] != system.n_sites:
        raise InputError("the weights must have one entry per interior site")
    # (u_k(+1), u_k(-1)) of the site swept, one column a row, the normaliser's 1 last
    weights = np.ones((2, 1, 1, up.shape[0] + 1))
    index = np.arange(system.n_sites).reshape(len(system.xs), len(system.ys))
    if len(system.xs) < len(system.ys):
        index = index.T
    cols, w = index.shape
    state = np.ones((1, weights.shape[-1]))  # the column before the first is all +
    for c, column in enumerate(index.tolist()):
        left = c > 0
        for r, k in enumerate(column):
            # the state index is (rows r + 1.., row r, rows ..r - 1); the spin
            # above is the highest bit of rows ..r - 1, or + past the top side
            above = r > 0
            view = state.reshape(-1, 1, 1 << left, 1 << above, (1 << r) >> above,
                                 weights.shape[-1])
            bond, field = _site_factors(left, above, (r == w - 1) + (c == cols - 1))
            # the new state is built in place, summed over t, so no product
            # of every t sits beside the old state
            state = view[:, :, 0] * bond[:, 0]
            if left:
                state += view[:, :, 1] * bond[:, 1]
            weights[0, 0, 0, :-1], weights[1, 0, 0, :-1] = up[:, k], down[:, k]
            state *= field * weights
    state = state.reshape(-1, weights.shape[-1])
    while state.shape[0] > 1:  # a pairwise sum in a fixed order
        state = state[: state.shape[0] // 2] + state[state.shape[0] // 2 :]
    return state[0, :-1] / state[0, -1]


def rfim_partition_xi(system: LatticeSpinSystem, xi) -> float:
    """E+[exp(sum_x xi_x sigma_x)] for a per-site field vector xi."""
    xi = np.asarray(xi, dtype=float)[None]
    return float(_rfim_partition_batch(system, np.exp(xi), np.exp(-xi))[0])


@dataclass(frozen=True)
class FieldProfiles:
    """Constant disorder strength ``lam_hat`` and bias ``h_hat`` on a
    rectangle domain, at lattice spacing ``delta``."""

    lam_hat: float
    h_hat: float
    domain: Rect
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.lam_hat) and self.lam_hat > 0):
            raise InputError(f"lam_hat must be finite and > 0, got {self.lam_hat!r}")
        if not math.isfinite(self.h_hat):
            raise InputError(f"h_hat must be finite, got {self.h_hat!r}")
        if self.delta <= 0:
            raise InputError("delta must be positive")


def scale_fields(profiles: FieldProfiles):
    """The lattice field strengths lambda = lam_hat delta^{7/8} and bias
    h = h_hat delta^{15/8}, the same at every site."""
    d = profiles.delta
    return profiles.lam_hat * d ** (7.0 / 8.0), profiles.h_hat * d ** (15.0 / 8.0)


def normalization_prefactor(profiles: FieldProfiles) -> float:
    """exp(-lam_hat^2 |Omega| delta^{-1/4} / 2), |Omega| the domain's area;
    0.0 where lam_hat^2 overflows."""
    dom = profiles.domain
    try:
        norm_sq = profiles.lam_hat**2 * ((dom.x1 - dom.x0) * (dom.y1 - dom.y0))
    except OverflowError:
        return 0.0
    return math.exp(-0.5 * norm_sq * profiles.delta ** (-0.25))


def sample_ising(
    profiles: FieldProfiles,
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
    system = LatticeSpinSystem.from_domain(profiles.domain, profiles.delta)
    prefactor = normalization_prefactor(profiles)
    lam, h = scale_fields(profiles)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = max(1, _SWEEP_CAP >> system.frontier_spins)
    z = np.empty(n_samples)
    for r0 in range(0, n_samples, rows):
        x = lam * disorder.fill(rng, np.empty((min(rows, n_samples - r0), system.n_sites))) + h
        z[r0 : r0 + rows] = _rfim_partition_batch(system, np.exp(x), np.exp(-x))
    z *= prefactor
    return positive_samples(z, f"lam_hat = {profiles.lam_hat!r} or h_hat = {profiles.h_hat!r}")
