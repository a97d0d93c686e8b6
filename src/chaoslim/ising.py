"""Desk-scale critical 2D Ising with + boundary, and its random-field
perturbation.

One column transfer over the system's bounding box computes everything: the
random-field partition function Z, and the spin correlations E+[sigma^I]
that make the chaos-rewrite identity

    Z = prod_x cosh(xi_x) * sum_{I subset interior} E+[sigma^I] tanh(xi)^I

an exact algebraic statement rather than a sampled one.  Its frontier holds
only interior spins, so it costs 2^(interior frontier spins) a box position.
The inverse temperature is pinned at the critical point
beta_c = log(1+sqrt(2))/2, and the random field has a constant strength
lam_hat and bias h_hat.

Continuum geometry (distances to the domain boundary, the singular product
f_Omega and its L^2 growth ratios) is measured against the polygonal
boundary of the axis-aligned rectangle domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chaos import Kernel
from .errors import InputError, ResourceError

BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))
_BOND = math.exp(BETA_C), math.exp(-BETA_C)  # e^{beta_c s s'} for s s' = +1, -1

_SWEEP_CAP = 1 << 20  # box positions x 2^(frontier spins): the transfer's work a row
_NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


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

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def sample_interior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random((size, 2))
        return np.stack(
            [self.x0 + u[:, 0] * (self.x1 - self.x0), self.y0 + u[:, 1] * (self.y1 - self.y0)],
            axis=-1,
        )


def _check_sweep_cap(positions: int, frontier_spins: int) -> None:
    """The transfer's work a row, box positions x 2^(frontier spins), must
    stay within _SWEEP_CAP."""
    if positions > _SWEEP_CAP:  # checked alone first, so the shift below stays small
        raise ResourceError(
            f"the bounding box has more positions than the transfer cap {_SWEEP_CAP}")
    if positions << frontier_spins > _SWEEP_CAP:
        raise ResourceError(f"{positions} box positions x 2^{frontier_spins} frontier states "
                            f"exceed the transfer cap {_SWEEP_CAP}")


def _sweep_box(interior) -> tuple[np.ndarray, int]:
    """The transfer's bounding box, columns along its longer side, and the
    most interior spins its frontier holds.  Entry (c, r) of the box is the
    index of the interior site at column c, row r, or -1 for a fixed + spin.
    A box past the transfer cap is a ResourceError."""
    coords = np.array(interior)
    coords -= coords.min(axis=0)
    cols, w = (int(v) + 1 for v in coords.max(axis=0))
    if cols < w:
        coords, cols, w = coords[:, ::-1], w, cols
    _check_sweep_cap(cols * w, 0)
    index = np.full((cols, w), -1)
    index[coords[:, 0], coords[:, 1]] = np.arange(len(coords))
    # the frontier is the last w box positions swept
    swept = np.concatenate([np.zeros(w, dtype=int), np.cumsum(index.ravel() >= 0)])
    spins = int(np.max(swept[w:] - swept[:-w]))
    _check_sweep_cap(cols * w, spins)
    index.setflags(write=False)
    return index, spins


def _axis_range(lo: float, hi: float, delta: float) -> range:
    """The integers i with lo < i * delta < hi: the lattice points of one
    side of an open Rect."""
    try:
        i0, i1 = math.floor(lo / delta), math.ceil(hi / delta)
    except OverflowError:  # an axis count beyond the float range
        raise ResourceError(
            f"delta = {delta!r} gives more box positions than the transfer cap {_SWEEP_CAP}"
        ) from None
    while i0 <= i1 and not lo < i0 * delta:
        i0 += 1
    while i1 >= i0 and not i1 * delta < hi:
        i1 -= 1
    return range(i0, i1 + 1)


@dataclass(frozen=True)
class LatticeSpinSystem:
    """Finite sublattice of Z^2 with + boundary on its nearest-neighbor hull."""

    interior: tuple[tuple[int, int], ...]

    def __post_init__(self):
        sites = tuple(sorted((int(a), int(b)) for a, b in self.interior))
        if len(set(sites)) != len(sites):
            raise InputError("repeated interior sites")
        if not sites:
            raise InputError("interior must be non-empty")
        # the sweep's box and frontier size are attributes, not fields, so
        # equality and hashing see the sites alone
        box, spins = _sweep_box(sites)
        object.__setattr__(self, "interior", sites)
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_frontier_spins", spins)

    @classmethod
    def rectangle(cls, width: int, height: int) -> "LatticeSpinSystem":
        return cls(tuple((i, j) for i in range(width) for j in range(height)))

    @classmethod
    def from_domain(cls, domain: Rect, delta: float) -> "LatticeSpinSystem":
        """Interior sites of Omega cap (delta Z)^2, stored as integer coords.

        The sites of a rectangle are a product of two axis ranges, and its
        frontier holds the shorter one, so the transfer cap is checked on
        their sizes before any site is built.
        """
        if delta <= 0:
            raise InputError("delta must be positive")
        xs = _axis_range(domain.x0, domain.x1, delta)
        ys = _axis_range(domain.y0, domain.y1, delta)
        # stop - start, not len(): len() of a range past 2^63 raises OverflowError
        nx, ny = xs.stop - xs.start, ys.stop - ys.start
        _check_sweep_cap(nx * ny, min(nx, ny))
        return cls(tuple((i, j) for i in xs for j in ys))

    @property
    def n_sites(self) -> int:
        return len(self.interior)

    def site_index(self, site) -> int:
        return self.interior.index((int(site[0]), int(site[1])))

    def boundary(self) -> tuple[tuple[int, int], ...]:
        inner = set(self.interior)
        hull = set()
        for (i, j) in self.interior:
            for di, dj in _NEIGHBOR_STEPS:
                if (i + di, j + dj) not in inner:
                    hull.add((i + di, j + dj))
        return tuple(sorted(hull))


def correlation(system: LatticeSpinSystem, sites) -> float:
    """E+[prod_{x in I} sigma_x], one transfer row; I = [] gives 1."""
    down = np.ones((1, system.n_sites))
    down[0, [system.site_index(s) for s in sites]] = -1.0
    return float(_rfim_partition_batch(system, np.ones_like(down), down)[0])


@functools.lru_cache(maxsize=None)
def _site_factors(spin: bool, left: int, above: int, sides: int):
    """The new site's bond to the spin left of it, e^{beta_c s t} of shape
    (s, t, 1, 1, 1), and its field from the spin above it and ``sides`` +
    neighbours past the box's bottom and right sides, e^{beta_c s (a + sides)}
    of shape (s, a, 1, 1), to broadcast over state views.  Each spin is +-1
    where flagged and + alone where not."""
    bond = np.array([[_BOND[0], _BOND[1]], [_BOND[1], _BOND[0]]])[: 1 + spin, : 1 + left]
    field = BETA_C * (np.array([1, -1][: 1 + above]) + sides)
    field = np.exp(np.array([field, -field][: 1 + spin]))
    return bond[..., None, None, None], field[..., None, None]


def _rfim_partition_batch(system: LatticeSpinSystem, up, down) -> np.ndarray:
    """E+[prod_x u_x(sigma_x)] for each row of the per-site weights ``up``
    (u_x(+1)) and ``down`` (u_x(-1)), shapes (rows, n_sites).  Weights
    e^{+-xi} give E+[exp(xi . sigma)]; 1, and -1 on the sites of I, give
    E+[sigma^I].

    One site-by-site column-transfer sweep over the system's bounding box,
    in columns of w sites, w its shorter side.  The state holds, for each
    spin configuration of the frontier (the latest site of each of the w
    rows), the Boltzmann weight summed over the swept sites.  Row r takes one
    bit of the state index while its frontier site is an interior spin and
    none while it is a fixed + spin, so a box position costs 2^(interior
    frontier spins).  The box's sides couple to the + boundary.  An extra row
    of unit weights sums to the normaliser.  Each row is swept alone, so its
    value does not depend on the rows beside it.
    """
    up, down = (np.asarray(a, dtype=float) for a in (up, down))
    if up.ndim != 2 or up.shape != down.shape or up.shape[1] != system.n_sites:
        raise InputError("the weights must have one entry per interior site")
    ones = np.ones((1, system.n_sites))
    # weights[k] = (u_k(+1), u_k(-1)), one column a row and the normaliser last
    weights = np.stack([np.vstack([up, ones]).T, np.vstack([down, ones]).T], axis=1)
    weights = weights[:, :, None, None]
    index = system._box
    cols, w = index.shape
    bits = [0] * w  # the state bits of each row, its highest for row w - 1
    state = np.ones((1, weights.shape[-1]))  # the column before the box is all +
    for c, column in enumerate(index.tolist()):
        for r, k in enumerate(column):
            # the state index is (rows r + 1.., row r, rows ..r - 1); the spin
            # above is the highest bit of rows ..r - 1, or + (past the top
            # side, or a fixed + spin)
            above = r > 0 and bits[r - 1]
            view = state.reshape(-1, 1, 1 << bits[r], 1 << above, (1 << sum(bits[:r])) >> above,
                                 weights.shape[-1])
            bond, field = _site_factors(k >= 0, bits[r], above, (r == w - 1) + (c == cols - 1))
            terms = view * bond
            state = terms[:, :, 0] + terms[:, :, 1] if bits[r] else terms[:, :, 0]  # sum over t
            state = state * (field * weights[k] if k >= 0 else field)
            bits[r] = int(k >= 0)
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


def scale_fields(profiles: FieldProfiles, system: LatticeSpinSystem):
    """Site maps lambda_x = lam_hat delta^{7/8}, h_x = h_hat delta^{15/8}."""
    d = profiles.delta
    lam = np.full(system.n_sites, profiles.lam_hat * d ** (7.0 / 8.0))
    h = np.full(system.n_sites, profiles.h_hat * d ** (15.0 / 8.0))
    return lam, h


def chaos_rewrite(system: LatticeSpinSystem, xi) -> tuple[float, Kernel]:
    """(prod_x cosh(xi_x), kernel I -> E+[sigma^I]).

    Evaluating the kernel at tanh(xi) and multiplying by the prefactor
    reconstructs rfim_partition_xi exactly.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (system.n_sites,):
        raise InputError("xi must have one entry per interior site")
    n = system.n_sites
    if n > 12:
        raise ResourceError("exhaustive chaos kernel is limited to 12 interior spins")
    # row m carries -1 on the sites of the subset with bitmask m
    down = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    corr = _rfim_partition_batch(system, np.ones_like(down), down)
    entries = {}
    for mask in range(1 << n):
        sites = tuple(k for k in range(n) if mask >> k & 1)
        entries[sites] = float(corr[mask])
    prefactor = float(np.prod(np.cosh(xi)))
    return prefactor, Kernel(entries)


def normalization_prefactor(profiles: FieldProfiles) -> float:
    """exp(-lam_hat^2 |Omega| delta^{-1/4} / 2), with |Omega| counted as the
    nx * ny cells of side about delta that tile the domain."""
    d, dom = profiles.delta, profiles.domain
    nx = max(1, round((dom.x1 - dom.x0) / d))
    ny = max(1, round((dom.y1 - dom.y0) / d))
    cell = ((dom.x1 - dom.x0) / nx) * ((dom.y1 - dom.y0) / ny)
    norm_sq = profiles.lam_hat**2 * nx * ny * cell
    return math.exp(-0.5 * norm_sq * profiles.delta ** (-0.25))


def gks_decoupling_check(system: LatticeSpinSystem, subdomains):
    """Verify 0 <= E+[prod sigma_{x_i}] <= prod_i E+_{Omega_i}[sigma_{x_i}].

    ``subdomains`` is a sequence of (interior_sites, marked_site) pairs whose
    closures Omega_i cup boundary(Omega_i) must be pairwise disjoint subsets
    of the system.
    """
    closures = []
    marked = []
    inner = set(system.interior)
    for sites, x in subdomains:
        sub = LatticeSpinSystem(tuple(sites))
        if not set(sub.interior) <= inner:
            raise InputError("subdomain is not contained in the system")
        if (int(x[0]), int(x[1])) not in set(sub.interior):
            raise InputError("marked site must lie in its subdomain")
        closures.append(set(sub.interior) | set(sub.boundary()))
        marked.append((sub, (int(x[0]), int(x[1]))))
    for a in range(len(closures)):
        for b in range(a + 1, len(closures)):
            if closures[a] & closures[b]:
                raise InputError("subdomain closures overlap")
    lhs = correlation(system, [x for _, x in marked])
    rhs = 1.0
    for sub, x in marked:
        rhs *= correlation(sub, [x])
    holds = (-1e-12 <= lhs) and (lhs <= rhs + 1e-12)
    return lhs, rhs, holds


# ---------------------------------------------------------------------------
# continuum singular product f_Omega
# ---------------------------------------------------------------------------


def _f_omega_sq_batch(samples: np.ndarray, domain: Rect) -> np.ndarray:
    """f_Omega(x_1..x_n)^2 for a batch of point tuples, shape (m, n, 2), where
    f_Omega(I) = prod_i d(x_i, boundary(Omega) cup I \\ {x_i})^{-1/8}."""
    m, n, _ = samples.shape
    d_bnd = np.minimum.reduce(
        [
            samples[:, :, 0] - domain.x0,
            domain.x1 - samples[:, :, 0],
            samples[:, :, 1] - domain.y0,
            domain.y1 - samples[:, :, 1],
        ]
    )
    if n > 1:
        diff = samples[:, :, None, :] - samples[:, None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        dist[:, np.arange(n), np.arange(n)] = np.inf
        d_bnd = np.minimum(d_bnd, dist.min(axis=2))
    return np.prod(d_bnd ** (-0.25), axis=1)


@dataclass(frozen=True)
class L2RatioEstimate:
    ratio: float
    se: float


def f_omega_l2_ratio(
    domain: Rect, n: int, mc_samples: int = 100_000, seed: int = 0
) -> L2RatioEstimate:
    """Monte-Carlo estimate of ||f||^2_{L2(Omega^n)} / ||f||^2_{L2(Omega^{n-1})}.

    Independent uniform samples for numerator and denominator; the standard
    error combines both by the ratio delta method.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def norm_sq(m_points: int):
        if m_points == 0:
            return 1.0, 0.0
        pts = domain.sample_interior(rng, mc_samples * m_points).reshape(
            mc_samples, m_points, 2
        )
        vals = _f_omega_sq_batch(pts, domain) * domain.area**m_points
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_samples))

    num, num_se = norm_sq(n)
    den, den_se = norm_sq(n - 1)
    ratio = num / den
    se = ratio * math.sqrt((num_se / num) ** 2 + (den_se / den) ** 2)
    return L2RatioEstimate(ratio, se)
