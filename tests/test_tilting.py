"""Tests for exponential tilting and its quantitative bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from chaoslim.dists import Atoms
from chaoslim.errors import PreconditionError
from chaoslim.tilting import (
    choose_a_level,
    tilt_zero_mean,
    verify_tilt_bounds,
)

TWO_POINT = Atoms([-1.0, 1.0], [0.499, 0.501])


def test_choose_a_fair_coin():
    assert choose_a_level(Atoms([-1.0, 1.0], [0.5, 0.5])) == 1.0


def test_choose_a_uniform_four_atoms():
    # A = 1 fails: E[X^2 1_{|X|>1}] = 4.5 > E[X^2]/4 = 1.25; A = 3 works
    law = Atoms([-3.0, -1.0, 1.0, 3.0], [0.25] * 4)
    assert choose_a_level(law) == 3.0


def test_choose_a_bounded_law_always_has_a():
    rng = np.random.default_rng(0)
    for _ in range(20):
        vals = np.sort(rng.standard_normal(5)) * 2.0
        probs = rng.random(5)
        probs /= probs.sum()
        law = Atoms(vals, probs)
        a = choose_a_level(law)
        assert a <= np.abs(vals).max() + 1e-12


def test_two_point_closed_form_tilt():
    res = tilt_zero_mean(TWO_POINT, "two-sided")
    assert res.a_level == 1.0
    assert res.epsilon == pytest.approx(1.0 / 144.0)
    assert res.lam == pytest.approx(0.5 * math.log(0.499 / 0.501), abs=1e-10)
    assert abs(res.tilted.mean()) <= 1e-12
    assert float(res.density @ TWO_POINT.probs) == pytest.approx(1.0, abs=1e-12)


def test_already_centered_is_identity():
    res = tilt_zero_mean(Atoms([-1.0, 1.0], [0.5, 0.5]))
    assert res.lam == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.density, 1.0)


def test_hypothesis_violation_raises():
    with pytest.raises(PreconditionError):
        tilt_zero_mean(Atoms([-1.0, 1.0], [0.45, 0.55]))


def test_all_four_bounds_on_two_point_example():
    res = tilt_zero_mean(TWO_POINT, "two-sided")
    rows = verify_tilt_bounds(res, p_list=(-1.0, 0.5, 2.0))
    assert all(ok for *_, ok in rows)
    names = [row[0] for row in rows]
    assert names.count("density_moment") == 3
    assert "second_moment" in names
    assert "second_moment_improved" in names
    assert "tilt_size" in names
    # |lam| <= 1/(27 A) with lots of room on this example
    lam_row = [r for r in rows if r[0] == "tilt_size"][0]
    assert lam_row[2] <= 0.0021 and lam_row[3] == pytest.approx(1.0 / 27.0)


def test_density_moment_p0_trivial():
    res = tilt_zero_mean(TWO_POINT)
    rows = verify_tilt_bounds(res, p_list=(0.0,))
    row = rows[0]
    assert row[2] == pytest.approx(1.0, abs=1e-12)
    assert row[4]


def test_negative_mean_law_flips():
    law = Atoms([-1.0, 1.0], [0.501, 0.499])
    res = tilt_zero_mean(law, "two-sided")
    assert abs(res.tilted.mean()) <= 1e-12
    assert all(ok for *_, ok in verify_tilt_bounds(res))


def test_one_sided_hypothesis_is_never_met_nondegenerately():
    # the one-sided smallness condition E[X | X >= 0] <= E[X^2 | X >= 0]^2
    # / (144 A^3) is scale invariant and fails for every law whose
    # (sign-adjusted) nonnegative part carries mass away from 0: the tail
    # condition caps the conditional second moment at 4/3 in units of A^2
    # while the requirement would need it above 144 times the mean.  The
    # one-sided mode therefore refuses, with no silent fallback.
    for law in (
        TWO_POINT,
        Atoms([-1.0, 0.0, 1.0], [0.35, 0.3, 0.35]),
        Atoms([-2e-4, 0.0, 0.5e-4, 1.0e-4, 1.5e-4], [0.2] * 5),
    ):
        with pytest.raises(PreconditionError):
            tilt_zero_mean(law, "one-sided")


def test_convexity_of_log_mgf_along_probe_points():
    # F''(lam) = Var(Y_lam) >= 0 on the solve interval
    law = Atoms([-2.0, -1.0, 1.0, 2.0], [0.3, 0.2, 0.2, 0.3])
    yv, yp = law.values, law.probs
    for lam in np.linspace(-0.1, 0.1, 11):
        w = yp * np.exp(lam * yv)
        w /= w.sum()
        var = float((yv**2) @ w) - float(yv @ w) ** 2
        assert var >= 0.0


@given(
    st.lists(st.floats(0.5, 3.0), min_size=2, max_size=5),
    st.integers(0, 10**6),
    st.floats(-1e-3, 1e-3),
)
def test_tilt_normalization_property(magnitudes, seed, mean_shift):
    rng = np.random.default_rng(seed)
    vals = np.sort(np.concatenate([-np.asarray(magnitudes), np.asarray(magnitudes)]))
    probs = rng.random(vals.size) + 0.25
    probs /= probs.sum()
    law = Atoms(vals - float(vals @ probs) + mean_shift, probs)
    try:
        res = tilt_zero_mean(law)
    except PreconditionError:
        assume(False)
        return
    assert float(res.density @ law.probs) == pytest.approx(1.0, abs=1e-12)
    assert abs(res.tilted.mean()) <= 1e-10
    rows = verify_tilt_bounds(res)
    for row in rows:
        if row[0] != "second_moment_improved":
            assert row[-1], row
