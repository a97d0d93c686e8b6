"""Exponential tilting of a discrete law on a bounded window to kill its mean.

Given X with small mean, the mass on the interval I (either [-A, A] or
[0, A]) is reweighted by e^{lam x - F(lam)} with lam solving

    F'(lam) - F'(0) = -E[X] / P(X in I),        F(lam) = log E[e^{lam Y}],

where Y ~ X | X in I.  F' is monotone, and on |lam| <= Var(Y)/(12 A^3) it is
provably well-conditioned, so the root is found by bisection.  Everything is
an exact finite sum over atoms.

The quantitative consequences are checked, not assumed: the density-moment
bound E[f(X)^p] <= 1 + C_p E[X]^2, the second-moment bounds with C and the
one-sided C', and the tilt-size bound |lam| <= 1/(27 A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import Atoms
from .errors import InputError, NumericError, PreconditionError

_MEAN_TOL = 1e-10
_NORM_TOL = 1e-12


def choose_a_level(dist: Atoms, one_sided: bool = False) -> float:
    """Least atom A = m > 0 with E[X^2 1_{m>A}] <= E[X^2 1_{m>=0}]/4 for
    m = |X|, that is E[X^2 1_{|X|>A}] <= E[X^2]/4.

    With ``one_sided`` (for X with E[X] >= 0, after a sign flip otherwise)
    m = X: the condition is E[X^2 1_{X>A}] <= E[X^2 1_{X>=0}]/4.
    """
    v, p = dist.values, dist.probs
    m = v if one_sided else np.abs(v)
    budget = 0.25 * float((v[m >= 0] ** 2) @ p[m >= 0])
    for a in np.unique(m[m > 0]):
        if float((v[m > a] ** 2) @ p[m > a]) <= budget:
            return float(a)
    raise InputError("no positive atom magnitude satisfies the tail condition")


@dataclass(frozen=True)
class TiltResult:
    """Tilted law with its construction parameters."""

    interval: str
    a_level: float
    epsilon: float
    lam: float
    density: np.ndarray
    tilted: Atoms
    source: Atoms

    def __post_init__(self):
        total = float(self.density @ self.source.probs)
        if abs(total - 1.0) > _NORM_TOL:
            raise NumericError(f"tilted density integrates to {total!r}, not 1")
        if abs(self.tilted.mean()) > _MEAN_TOL:
            raise NumericError(f"tilted mean {self.tilted.mean():.3e} is not 0")


def _one_sided_law(dist: Atoms):
    """(law, P(X >= 0), A, epsilon') of the one-sided tilt of ``dist``: the
    law is ``dist`` with its sign flipped when its mean is negative, and
    epsilon' = E[X^2 | X >= 0]^2 / (144 A^3) for the one-sided level A."""
    work = dist if dist.mean() >= 0.0 else Atoms(-dist.values, dist.probs)
    v, p = work.values, work.probs
    pos = v >= 0
    p_pos = float(p[pos].sum())
    if p_pos <= 0:
        raise InputError("one-sided tilt needs mass on [0, infinity)")
    a_level = choose_a_level(work, one_sided=True)
    m2_pos = float((v[pos] ** 2) @ p[pos]) / p_pos
    return work, p_pos, a_level, m2_pos**2 / (144.0 * a_level**3)


def _mean_tilted(values, probs, lam):
    w = np.exp(lam * values - np.max(lam * values))
    w *= probs
    return float((values @ w) / w.sum())


def tilt_zero_mean(dist: Atoms, interval: str = "two-sided") -> TiltResult:
    """Construct the mean-zero tilt of ``dist`` on the chosen interval.

    Raises :class:`PreconditionError` when the smallness hypothesis on the
    mean fails (no silent fallback).
    """
    if interval not in ("two-sided", "one-sided"):
        raise InputError(f"unknown interval {interval!r}")
    if interval == "two-sided":
        work = dist
        a_level = choose_a_level(dist)
        eps = dist.second_moment() ** 2 / (144.0 * a_level**3)
        mean_for_test = dist.mean()
        in_interval = np.abs(dist.values) <= a_level
    else:
        work, p_pos, a_level, eps = _one_sided_law(dist)
        pos = work.values >= 0
        mean_for_test = float(work.values[pos] @ work.probs[pos]) / p_pos
        in_interval = pos & (work.values <= a_level)
    flipped = work is not dist
    v, p = work.values, work.probs
    if abs(mean_for_test) > eps:
        raise PreconditionError(
            f"mean {mean_for_test:.6g} exceeds the tilting threshold "
            f"epsilon = {eps:.6g} (interval {interval}, A = {a_level})"
        )

    p_in = float(p[in_interval].sum())
    if p_in <= 0:
        raise InputError("the tilting interval carries no mass")
    yv = v[in_interval]
    yp = p[in_interval] / p_in
    var_y = float((yv**2) @ yp) - float(yv @ yp) ** 2
    target = -work.mean() / p_in  # F'(lam) - F'(0) must equal this
    c = var_y / (12.0 * a_level**3)

    if var_y == 0.0:
        if abs(target) > _MEAN_TOL:
            raise PreconditionError("interval law is degenerate; cannot shift its mean")
        lam = 0.0
    else:
        mean_y = float(yv @ yp)
        g = lambda lam: _mean_tilted(yv, yp, lam) - mean_y - target
        lo, hi = -c, c
        g_lo, g_hi = g(lo), g(hi)
        if not g_lo <= 0.0 <= g_hi:
            raise NumericError(
                "no sign change on the guaranteed bracket; hypotheses violated"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)

    log_f_norm = Atoms(yv, yp).log_mgf(lam)
    density = np.ones(v.size)
    density[in_interval] = np.exp(lam * v[in_interval] - log_f_norm)
    tilted = Atoms(v if not flipped else -v, p * density)
    # density reported against the original (unflipped) ascending atom order
    density_out = density if not flipped else density[::-1]
    result = TiltResult(
        interval=interval,
        a_level=a_level,
        epsilon=eps,
        lam=lam,
        density=density_out,
        tilted=tilted,
        source=dist,
    )
    rows = verify_tilt_bounds(result, p_list=(2.0,))
    # the improved quadratic bound is a consequence of the one-sided
    # hypothesis only; the remaining rows are guaranteed for this construction
    guaranteed = [r for r in rows if r[0] != "second_moment_improved"]
    if not all(r[-1] for r in guaranteed):
        raise NumericError(f"a theorem-guaranteed tilt bound failed: {rows}")
    return result


def verify_tilt_bounds(result: TiltResult, p_list=(2.0, 0.5, -1.0)) -> tuple:
    """Exactly evaluate both sides of the quantitative tilting bounds on
    ``result.source``: a tuple of rows (name, p, lhs, rhs, holds).

    Rows: ("density_moment", p) for E[f(X)^p] <= 1 + C_p E[X]^2 with
    C_p = 4 e^{|p|} / (A eps); "second_moment" for
    E[X~^2] <= E[X^2] + C |E[X]| with C = A^{3/2}/sqrt(eps);
    "second_moment_improved" for E[X~^2] <= E[X^2] + C' E[X]^2 with the
    one-sided constant C' = A / (2 P(X>=0) eps'); "tilt_size" for
    |lam| <= 1/(27 A).  The improved row always uses the one-sided
    quantities of the (sign-adjusted) input law, whichever interval produced
    the result.
    """
    a_level, eps, dist = result.a_level, result.epsilon, result.source
    mean = dist.mean()
    rows = []

    for p_exp in p_list:
        lhs = float((result.density**p_exp) @ dist.probs)
        c_p = 4.0 * math.exp(abs(p_exp)) / (a_level * eps)
        rhs = 1.0 + c_p * mean * mean
        rows.append(("density_moment", p_exp, lhs, rhs, lhs <= rhs + 1e-12))

    m2_tilted = result.tilted.second_moment()
    c_two = a_level**1.5 / math.sqrt(eps)
    rhs = dist.second_moment() + c_two * abs(mean)
    rows.append(("second_moment", None, m2_tilted, rhs, m2_tilted <= rhs + 1e-12))

    _, p_pos, a_one, eps_one = _one_sided_law(dist)
    c_improved = a_one / (2.0 * p_pos * eps_one)
    rhs = dist.second_moment() + c_improved * mean * mean
    rows.append(
        ("second_moment_improved", None, m2_tilted, rhs, m2_tilted <= rhs + 1e-12)
    )

    lam_cap = 1.0 / (27.0 * a_level)
    rows.append(("tilt_size", None, abs(result.lam), lam_cap, abs(result.lam) <= lam_cap))

    return tuple(rows)
