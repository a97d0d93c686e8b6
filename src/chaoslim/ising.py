"""Desk-scale critical 2D Ising with + boundary, and its random-field
perturbation.

The random-field partition function Z goes by a column transfer over the
system's bounding box, O(2^w) work a field per box position, w the box's
shorter side.  Correlations go by exact enumeration over the 2^n interior
spin configurations (n capped at 20), which is what makes the chaos-rewrite
identity

    Z = prod_x cosh(xi_x) * sum_{I subset interior} E+[sigma^I] tanh(xi)^I

an exact algebraic statement rather than a sampled one.  The inverse
temperature is pinned at the critical point beta_c = log(1+sqrt(2))/2, and
the random field has a constant strength lam_hat and bias h_hat.

Continuum geometry (distances to the domain boundary, the singular product
f_Omega and its L^2 growth ratios) is measured against the polygonal
boundary of the axis-aligned rectangle domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import Kernel
from .errors import InputError, ResourceError

BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))
_BOND = math.exp(BETA_C), math.exp(-BETA_C)  # e^{beta_c s s'} for s s' = +1, -1

_ENUM_CAP = 20
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


def _check_enum_cap(n_sites: int) -> None:
    if n_sites > _ENUM_CAP:
        raise ResourceError(f"{n_sites} interior spins exceed the enumeration cap {_ENUM_CAP}")


def _axis_range(lo: float, hi: float, delta: float) -> range:
    """The integers i with lo < i * delta < hi: the lattice points of one
    side of an open Rect."""
    try:
        i0, i1 = math.floor(lo / delta), math.ceil(hi / delta)
    except OverflowError:  # an axis count beyond the float range
        raise ResourceError(
            f"delta = {delta!r} gives more interior spins than the enumeration cap {_ENUM_CAP}"
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
        _check_enum_cap(len(sites))
        object.__setattr__(self, "interior", sites)
        object.__setattr__(self, "_cache", {})

    @classmethod
    def rectangle(cls, width: int, height: int) -> "LatticeSpinSystem":
        return cls(tuple((i, j) for i in range(width) for j in range(height)))

    @classmethod
    def from_domain(cls, domain: Rect, delta: float) -> "LatticeSpinSystem":
        """Interior sites of Omega cap (delta Z)^2, stored as integer coords.

        The sites of a rectangle are a product of two axis ranges, so the
        enumeration cap is checked on their sizes before any site is built.
        """
        if delta <= 0:
            raise InputError("delta must be positive")
        xs = _axis_range(domain.x0, domain.x1, delta)
        ys = _axis_range(domain.y0, domain.y1, delta)
        # stop - start, not len(): len() of a range past 2^63 raises OverflowError
        _check_enum_cap((xs.stop - xs.start) * (ys.stop - ys.start))
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

    def _bonds_and_boundary_counts(self):
        inner = {s: k for k, s in enumerate(self.interior)}
        bonds = []
        bcount = np.zeros(self.n_sites)
        for (i, j), k in inner.items():
            for di, dj in _NEIGHBOR_STEPS:
                nb = (i + di, j + dj)
                if nb in inner:
                    if inner[nb] > k:
                        bonds.append((k, inner[nb]))
                else:
                    bcount[k] += 1.0
        return bonds, bcount

    def _spin_table(self):
        """Boltzmann weights of all 2^n configurations, cached.

        spins[c, k] = +-1 with bit k of c equal to 0 mapping to +1, so that
        prod_{k in I} spins[c, k] = (-1)^{popcount(c & I)} and correlations
        for all subsets come out of one Walsh-Hadamard transform.
        """
        if "table" in self._cache:
            return self._cache["table"]
        n = self.n_sites
        bonds, bcount = self._bonds_and_boundary_counts()
        size = 1 << n
        weights = np.empty(size)
        chunk = min(size, 1 << 16)
        bits = np.arange(n)
        for start in range(0, size, chunk):
            c = np.arange(start, min(start + chunk, size), dtype=np.int64)
            s = 1.0 - 2.0 * ((c[:, None] >> bits) & 1)
            energy = s @ bcount
            for a, b in bonds:
                energy += s[:, a] * s[:, b]
            weights[start : start + c.size] = np.exp(BETA_C * energy)
        self._cache["table"] = weights
        return weights

    def _all_correlations(self) -> np.ndarray:
        """E+[sigma^I] for every subset mask I, via fast Walsh-Hadamard."""
        if "corr" in self._cache:
            return self._cache["corr"]
        v = self._spin_table().copy()
        h = 1
        while h < v.size:
            v = v.reshape(-1, 2 * h)
            left = v[:, :h].copy()
            v[:, :h] = left + v[:, h:]
            v[:, h:] = left - v[:, h:]
            v = v.ravel()
            h *= 2
        corr = v / v[0]
        self._cache["corr"] = corr
        return corr


def correlation(system: LatticeSpinSystem, sites) -> float:
    """E+[prod_{x in I} sigma_x] by exact enumeration; I = [] gives 1."""
    sites = list(sites)
    if not sites:
        return 1.0
    mask = 0
    for s in sites:
        mask |= 1 << system.site_index(s)
    return float(system._all_correlations()[mask])


def _rfim_partition_batch(system: LatticeSpinSystem, xi) -> np.ndarray:
    """E+[exp(sum_x xi_x sigma_x)] for each row of ``xi``, shape (rows, n_sites).

    One site-by-site column-transfer sweep over the system's bounding box,
    in columns of w sites, w its shorter side: O(cols w 2^w) work a row.
    The state holds, for each spin configuration of the frontier (the latest
    site of each of the w rows; bit r for row r, 0 for +1), the Boltzmann
    weight summed over the swept sites.  A box position off the interior is
    a fixed + spin, and the box's sides couple to the + boundary.  An extra
    row of zero field sums to the normaliser.  Each row is swept alone, so
    its value does not depend on the rows beside it.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != system.n_sites:
        raise InputError("xi must have one entry per interior site")
    rows = xi.shape[0]
    coords = np.array(system.interior) - np.min(system.interior, axis=0)
    if np.ptp(coords[:, 0]) < np.ptp(coords[:, 1]):
        coords = coords[:, ::-1]
    cols, w = coords.max(axis=0) + 1
    # the weights of spin + and spin - at each box position, column by column
    up, down = np.ones((cols * w, rows + 1)), np.zeros((cols * w, rows + 1))
    pos = coords[:, 0] * w + coords[:, 1]
    down[pos] = 1.0
    up[pos, :rows] = np.exp(xi).T
    down[pos, :rows] = np.exp(-xi).T
    state = np.zeros((1 << w, rows + 1))
    state[0] = 1.0  # the column before the box is all +
    for c in range(cols):
        for r in range(w):
            # the spin above (+ past the top side) from the lower r bits, and
            # the + neighbours past the bottom and right sides
            above = 1 - 2 * (np.arange(1 << r) >> (r - 1)) if r else np.ones(1)
            field = BETA_C * (above + (r == w - 1) + (c == cols - 1))[:, None]
            plus, minus = np.moveaxis(state.reshape(-1, 2, 1 << r, rows + 1), 1, 0)
            state = np.stack(
                ((plus * _BOND[0] + minus * _BOND[1]) * (np.exp(field) * up[c * w + r]),
                 (plus * _BOND[1] + minus * _BOND[0]) * (np.exp(-field) * down[c * w + r])),
                axis=1).reshape(1 << w, rows + 1)
    while state.shape[0] > 1:  # a pairwise sum in a fixed order
        state = state[: state.shape[0] // 2] + state[state.shape[0] // 2 :]
    return state[0, :rows] / state[0, rows]


def rfim_partition_xi(system: LatticeSpinSystem, xi) -> float:
    """E+[exp(sum_x xi_x sigma_x)] for a per-site field vector xi."""
    return float(_rfim_partition_batch(system, np.asarray(xi, dtype=float)[None])[0])


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
    corr = system._all_correlations()
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
