"""Tests for the experiment harness, KS diagnostics and the CLI."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from chaoslim import cli, dists, harness, ising, pinning, polymer
from chaoslim.errors import InputError, NumericError
from chaoslim.harness import (
    ComparisonReport,
    ExperimentConfig,
    ReportRow,
    exact_flat_kernel_distance,
    ks_statistic,
    ks_two_sample,
    lindeberg_audit,
    point_mass_cdf,
    run_convergence_study,
    smooth_test_function,
    trend_nonincreasing,
)


# ---------------------------------------------------------------------------
# KS statistics
# ---------------------------------------------------------------------------


def test_ks_null_distribution_scale():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_000)
    ks = ks_statistic(x, lambda t: ndtr(t))
    # 99% null quantile for n = 1e4 is about 1.63/sqrt(n); reported here
    assert ks < 1.63 / math.sqrt(10_000)


def test_normal_cdf_matches_ndtr():
    x = np.linspace(-8.0, 8.0, 16001)
    assert np.max(np.abs(np.array(harness._normal_cdf(x)) - ndtr(x))) <= 1e-15


def test_ks_constant_samples_vs_continuous_target():
    ks = ks_statistic(np.zeros(500), lambda t: ndtr(t))
    assert ks >= 0.5


def test_ks_shuffle_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1000)
    ks1 = ks_statistic(x, lambda t: ndtr(t))
    ks2 = ks_statistic(rng.permutation(x), lambda t: ndtr(t))
    assert ks1 == ks2


def test_ks_point_mass_convention():
    cdf, cdf_left = point_mass_cdf(1.0)
    assert ks_statistic(np.ones(200), cdf, cdf_left) == 0.0
    assert ks_statistic(np.full(200, 2.0), cdf, cdf_left) == 1.0


def test_ks_two_sample_same_law_passes():
    rng = np.random.default_rng(3)
    res = ks_two_sample(rng.standard_normal(4000), rng.standard_normal(4000))
    assert res.passed
    assert res.critical_value == pytest.approx(1.3581 * math.sqrt(2 / 4000), rel=1e-3)


def test_ks_two_sample_weighted_effective_size():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1000)
    w = np.ones(1000)
    w[:500] = 3.0
    res = ks_two_sample(x, rng.standard_normal(1000), wx=w)
    n_eff = (w.sum()) ** 2 / (w**2).sum()
    assert res.critical_value == pytest.approx(1.3581 * math.sqrt(1 / n_eff + 1 / 1000),
                                               rel=1e-12)


def test_ks_two_sample_detects_shift():
    rng = np.random.default_rng(5)
    res = ks_two_sample(rng.standard_normal(4000), rng.standard_normal(4000) + 0.5)
    assert not res.passed


def test_trend_nonincreasing():
    assert trend_nonincreasing([3.0, 2.0, 1.0])
    assert trend_nonincreasing([3.0, 3.1, 1.0], noises=[0.2, 0.2, 0.2])
    assert not trend_nonincreasing([3.0, 4.0, 1.0], noises=[0.2, 0.2, 0.2])
    # two soft inversions exceed the single allowance
    assert not trend_nonincreasing([3.0, 3.1, 3.0, 3.1], noises=[0.2] * 4)


@pytest.mark.parametrize("quantity, values, passed", [
    ("ks_lognormal", [0.0264, 0.0329, 0.0323, 0.0445], True),
    ("ks_lognormal", [0.20, 0.10, 0.05, 0.03], True),
    ("ks_lognormal", [0.02, 0.03, 0.15, 0.16], False),
    ("second_moment", [0.08, 0.04, 0.02, 0.01], True),
    ("second_moment", [0.01, 0.02, 0.04, 0.08], False),
], ids=["flat_at_noise_floor", "falling", "rise_beyond_noise", "gaps_falling", "gaps_rising"])
def test_ks_trend_verdict(quantity, values, passed):
    # 500 samples: the KS noise floor is 1/sqrt(500) = 0.045, so KS values
    # that lie within 0.089 of each other show no trend to judge.  A
    # second_moment row is judged on its gap; its value runs the other way,
    # so a trend that read the value would give the opposite verdict.  The
    # rows carry a provenance no study gives them, which the trend row must
    # take from them.
    judged = iter(values)

    def study(config):
        def point(grid_value, stream_seed):
            v = next(judged)
            if quantity == "second_moment":
                return [ReportRow(grid_value, quantity, -v, gap=v, provenance="formula-exact")]
            return [ReportRow(grid_value, quantity, v, provenance="formula-exact")]
        return point

    config = ExperimentConfig("pinning", {}, (1000, 2000, 4000, 8000), 500, 0)
    trend = harness._grid_report(study, config).rows[-1]
    name, _, _, tolerance = harness._TRENDS[quantity]
    assert trend.quantity == name and trend.tolerance == tolerance
    assert (trend.grid_value, trend.value) == (8000, values[-1])
    assert trend.provenance == "formula-exact"
    assert trend.passed is passed


def test_grid_report_names_no_quantity():
    # every row kind's name and rule live in the study or in _TRENDS; the
    # loop that applies them holds no string but its docstring
    tree = ast.parse(inspect.getsource(harness._grid_report))
    function = tree.body[0]
    body = function.body[1:] if ast.get_docstring(function) else function.body
    strings = [node.value for statement in body for node in ast.walk(statement)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert strings == []


# ---------------------------------------------------------------------------
# configs, reports, determinism
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig("nosuch", {}, (1,), 10, 0)
    with pytest.raises(InputError):
        ExperimentConfig("pinning", {}, (100, 50, 75), 10, 0)
    with pytest.raises(InputError):
        ExperimentConfig("pinning", {"diagnostic": "ks"}, (100,), 50, 0)
    # finite-mean samples feed the KS rows, so they need 100 draws ...
    with pytest.raises(InputError):
        ExperimentConfig("pinning", {"law": "finite_mean", "probs": [0.5, 0.5]}, (100,), 50, 0)
    # ... while an alpha-law study writes no KS rows
    ExperimentConfig("pinning", {"law": "alpha", "alpha": 0.75}, (100,), 50, 0)


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "model": "pinning",
        "params": {"law": "finite_mean", "probs": [0.5, 0.5]},
        "grid": [50, 100],
        "samples": 0,
        "seed": 3,
    }))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.model == "pinning"
    assert cfg.grid == (50, 100)


def test_report_passed_logic():
    report = ComparisonReport("pinning")
    report.rows.append(ReportRow(1, "a", 0.0, passed=None))
    assert report.passed
    report.rows.append(ReportRow(2, "b", 0.0, passed=True))
    assert report.passed
    report.rows.append(ReportRow(3, "c", 0.0, passed=False))
    assert not report.passed


def test_study_deterministic_output(tmp_path):
    def run(path):
        cfg = ExperimentConfig(
            model="pinning",
            params={"law": "finite_mean", "probs": [0.5, 0.5], "beta_hat": 1.0},
            grid=(50, 100), samples=300, seed=11,
            out_csv=str(path),
        )
        run_convergence_study(cfg)
        return path.read_bytes()

    assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")


def test_study_rows_in_grid_order(tmp_path):
    cfg = ExperimentConfig(
        model="pinning",
        params={"law": "finite_mean", "probs": [0.5, 0.5]},
        grid=(40, 80), samples=200, seed=1,
        out_csv=str(tmp_path / "t.csv"),
    )
    report = run_convergence_study(cfg)
    grid_sequence = [r.grid_value for r in report.rows if r.quantity == "second_moment"]
    assert grid_sequence == [40, 80]  # reduced in grid order


def test_wiener_isometry_study():
    cfg = ExperimentConfig(
        model="wiener", params={"diagnostic": "isometry"},
        grid=(32,), samples=30_000, seed=0,
    )
    report = run_convergence_study(cfg)
    row = report.rows[0]
    assert row.passed
    assert row.oracle == pytest.approx(2.0 * (1.0 - 1.0 / 32.0))


def test_ising_study_runs():
    cfg = ExperimentConfig(
        model="ising", params={"lam_hat": 1.0, "h_hat": 0.0},
        grid=(1.0 / 3.0,), samples=50, seed=2,
    )
    report = run_convergence_study(cfg)
    row = next(r for r in report.rows if r.quantity == "mean_rescaled_Z")
    profiles = ising.FieldProfiles(1.0, 0.0, ising.Rect.unit_square(), 1.0 / 3.0)
    assert row.oracle == harness._ising_mean(profiles, dists.GAUSSIAN_DISORDER)
    assert row.gap == abs(row.value - row.oracle)
    assert row.passed == (row.gap <= 3 * row.se) and row.tolerance == "3 s.e. (calibration)"


def test_pinning_study_zero_coupling_degenerate_target():
    cfg = ExperimentConfig(
        model="pinning",
        params={"law": "finite_mean", "probs": [0.5, 0.5],
                "beta_hat": 0.0, "h_hat": 0.0},
        grid=(30,), samples=200, seed=0,
    )
    report = run_convergence_study(cfg)
    ks_rows = [r for r in report.rows if r.quantity == "ks_lognormal"]
    assert ks_rows and ks_rows[0].value == 0.0  # Z = 1 vs the point mass


def test_polymer_study_gap_trend():
    cfg = ExperimentConfig(
        model="polymer", params={"alpha": 2.0, "beta_hat": 0.5},
        grid=(200, 400), samples=0, seed=0,
    )
    report = run_convergence_study(cfg)
    trend = [r for r in report.rows if r.quantity == "second_moment_gap_trend"]
    assert trend and trend[0].passed


@pytest.mark.parametrize("mode", ["free", "point2point", "conditioned"])
def test_polymer_study_mean_z_oracle_is_e_z(mode):
    # E Z = q_N(y) point-to-point, 1 otherwise; the point-to-point row
    # reads 0.0982 at N = 64, against q_64(0) = 0.0993
    cfg = ExperimentConfig(model="polymer",
                           params={"alpha": 2.0, "beta_hat": 0.5, "mode": mode},
                           grid=(64,), samples=200, seed=1)
    row, = [r for r in run_convergence_study(cfg).rows if r.quantity == "mean_Z"]
    law = polymer.WalkLaw.simple_symmetric()
    assert row.oracle == (polymer.walk_pmf(law, 64)[0] if mode == "point2point" else 1.0)
    assert row.passed


def test_cli_run_heavy_tail_polymer_moments(tmp_path):
    # the windowed difference-walk DP this replaced lost 1.5e-7 of its mass
    # at N = 256 and exited 2
    config = tmp_path / "heavy.json"
    out_json = tmp_path / "heavy_out.json"
    config.write_text(json.dumps({
        "model": "polymer", "params": {"alpha": 1.5, "window": 2000, "beta_hat": 0.4},
        "grid": [16, 64, 256], "samples": 0, "seed": 0,
        "out_csv": str(tmp_path / "heavy.csv"), "out_json": str(out_json),
    }))
    assert cli.main(["run", "--config", str(config)]) == 0
    rows = json.loads(out_json.read_text())["rows"]
    trend, = [r for r in rows if r["quantity"] == "second_moment_gap_trend"]
    assert trend["passed"]


@pytest.mark.parametrize("model, module, oracle, params", [
    ("pinning", pinning, "continuum_second_moment",
     {"law": "alpha", "alpha": 0.75, "n_max": 2000, "beta_hat": 8, "h_hat": -4}),
    ("polymer", polymer, "polymer_second_moment_continuum", {"alpha": 2.0, "beta_hat": 0.5}),
], ids=["pinning", "polymer"])
def test_study_calls_its_oracle_once(monkeypatch, model, module, oracle, params):
    # the continuum oracle does not depend on N, so a study computes it once
    calls = []
    real = getattr(module, oracle)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, oracle, counted)
    report = run_convergence_study(ExperimentConfig(model, params, (50, 100, 200, 400), 0, 0))
    assert len(calls) == 1
    assert len({r.oracle for r in report.rows if r.quantity == "second_moment"}) == 1


# ---------------------------------------------------------------------------
# Lindeberg audit
# ---------------------------------------------------------------------------


def test_smooth_test_function_derivative_bounds():
    xs = np.linspace(-8, 8, 4001)
    h = xs[1] - xs[0]
    f = smooth_test_function(xs)
    for _ in range(3):
        f = np.gradient(f, h)[8:-8]  # one-sided boundary stencils excluded
        assert np.max(np.abs(f)) <= 1.0 + 0.01


def test_exact_flat_kernel_distance_decreases():
    d16 = exact_flat_kernel_distance(16)
    d256 = exact_flat_kernel_distance(256)
    assert d16 > d256 > 0.0
    # leading Edgeworth term is O(1/n) for symmetric inputs
    assert d16 / d256 == pytest.approx(16.0, rel=0.05)


def test_lindeberg_audit_rademacher_vs_gaussian():
    cfg = ExperimentConfig(
        model="lindeberg", params={"M": math.inf}, grid=(16, 256),
        samples=20_000, seed=5,
    )
    report = lindeberg_audit(cfg)
    assert report.passed
    verdicts = [r for r in report.rows if r.quantity == "bound_vs_ci"]
    assert len(verdicts) == 2
    assert all(v.passed for v in verdicts)
    assert verdicts[0].oracle > verdicts[1].oracle  # the bound shrinks with n


def test_lindeberg_audit_draws_zeta_in_bounded_chunks():
    # 3000 x 1024 zeta values come in chunks of 1024 rows (2^20 values):
    # the chunk and the fill's int64 atom indices, 2 * 8 MB, under 3 * 8 MB,
    # in place of the whole matrix and its temporaries, 74 MB.  The chunks
    # split the same stream of draws, so the distance is the one-matrix
    # distance
    cfg = ExperimentConfig(model="lindeberg", params={"M": math.inf}, grid=(1024,),
                           samples=3000, seed=5)
    tracemalloc.start()
    try:
        report = lindeberg_audit(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 2**20
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
    zeta = dists.RADEMACHER.fill(rng, np.empty((3000, 1024))).sum(axis=1) / 32.0
    xi = dists.GAUSSIAN_DISORDER.fill(rng, np.empty(3000))
    d = abs(float(smooth_test_function(zeta).mean() - smooth_test_function(xi).mean()))
    assert report.rows[0].quantity == "mc_distance" and report.rows[0].value == d


def test_lindeberg_audit_identical_families_ci_contains_zero():
    rng = np.random.default_rng(0)
    a = smooth_test_function(rng.standard_normal(50_000))
    b = smooth_test_function(rng.standard_normal(50_000))
    d = abs(a.mean() - b.mean())
    se = math.sqrt(a.var() / a.size + b.var() / b.size)
    assert d <= harness.Z99 * se


def test_lindeberg_audit_heavy_tailed_finite_m():
    # standardized three-atom law with heavy-ish spread, finite M
    cfg = ExperimentConfig(
        model="lindeberg",
        params={"M": 2.5, "zeta": "atoms",
                "zeta_values": [-4.0, -1.2, 0.0, 1.2, 4.0],
                "zeta_probs": [0.005, 0.84 / 2.88, 1.0 - 0.01 - 2 * 0.84 / 2.88,
                               0.84 / 2.88, 0.005]},
        grid=(64,), samples=20_000, seed=9,
    )
    report = lindeberg_audit(cfg)
    bound_rows = [r for r in report.rows if r.quantity == "bound_vs_ci"]
    assert bound_rows[0].oracle is not None and math.isfinite(bound_rows[0].oracle)
    assert bound_rows[0].passed


# ---------------------------------------------------------------------------
# disorder draws: the shared draw pool, the polymer's sample ranges and the
# pinning tiles
# ---------------------------------------------------------------------------


@pytest.fixture
def pool_of(monkeypatch):
    """Call with a worker count to rebuild the draw pool at that size for
    the rest of the test, whose threads then switch every 10 us; the pools
    built are shut down after it."""
    pools = []
    interval = sys.getswitchinterval()

    def build(workers):
        monkeypatch.setattr(dists, "cpu_count", lambda: workers)
        monkeypatch.setattr(dists, "_POOL", None)
        pools.append(dists._pool())
        sys.setswitchinterval(1e-5)

    try:
        yield build
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.shutdown()


DISORDERS = pytest.mark.parametrize("disorder", [dists.GAUSSIAN_DISORDER, dists.RADEMACHER],
                                    ids=["gaussian", "rademacher"])
POLYMER_MODES = [("free", 0.0), ("point2point", 0.3), ("conditioned", -0.2)]


@DISORDERS
@pytest.mark.parametrize("mode,x", POLYMER_MODES, ids=[m for m, _ in POLYMER_MODES])
@pytest.mark.parametrize("cells", [396, 4620], ids=["groups-of-2", "10-step-blocks"])
def test_sample_polymer_does_not_depend_on_the_worker_count(monkeypatch, pool_of, cells,
                                                            mode, x, disorder):
    # at N = 100 a field holds 66 sublattice values a step: 396 values a
    # block give groups of 2 samples in 3-step blocks, 4620 one group of 7
    # in 10-step blocks, which 3 workers split 2 + 2 + 3
    monkeypatch.setattr(polymer, "_FIELD_BLOCK_CELLS", cells)
    law = polymer.WalkLaw.simple_symmetric()
    ref = polymer.sample_polymer(law, 0.7, 100, 7, 3, mode, x, disorder)
    for workers in (1, 3):
        pool_of(workers)
        assert np.array_equal(polymer.sample_polymer(law, 0.7, 100, 7, 3, mode, x, disorder),
                              ref), workers


def test_sample_polymer_spawns_seeds_a_group_at_a_time(monkeypatch):
    # 396 values a block give groups of 2 samples at N = 100, so 7 samples
    # run in 4 groups; no spawn may ask for the seeds of more than one
    asked = []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            asked.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(polymer, "_FIELD_BLOCK_CELLS", 396)
    law = polymer.WalkLaw.simple_symmetric()
    ref = polymer.sample_polymer(law, 0.7, 100, 7, 3)
    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    assert np.array_equal(polymer.sample_polymer(law, 0.7, 100, 7, 3), ref)
    assert asked == [2, 2, 2, 1]


def test_sample_pinning_draws_each_block_once_in_time_order():
    # each block drawn once, as the transfer reads it, and nothing past
    # step N: 300 = 4 * 64 + 44
    drawn = []

    class Counted(dists.StdGaussian):
        def fill(self, rng, out):
            drawn.append(out.shape)
            return super().fill(rng, out)

    renewal = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    pinning.sample_pinning(renewal, 1.0, 0.0, 300, 30, 1, disorder=Counted())
    assert drawn == [(64, 30)] * 4 + [(44, 30)]


class _RecordsDraws:
    """A disorder law that draws from ``law`` and keeps the Generator, the
    block shape and the thread of each draw."""

    def __init__(self, law):
        self.law = law
        self.draws = []

    def fill(self, rng, out):
        self.draws.append((rng, out.shape, threading.current_thread()))
        return self.law.fill(rng, out)

    def log_mgf(self, t):
        return self.law.log_mgf(t)


@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_sample_pinning_draws_every_block_on_the_calling_thread(mode):
    # a call of one tile runs on the calling thread and reads ceil(N / 64)
    # blocks: N = 300 ends in a 44-step block, N = 40 has one, and the
    # alpha law's N = 700 takes the sum of exponentials.  None is drawn on
    # a worker, and under either disorder law its samples are tile 0 of a
    # call of 1100, whose three tiles run on the pool
    two_atom = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    runs = ((two_atom, 300), (two_atom, 40), (pinning.RenewalLaw.heavy_tail(0.75, 20000), 700))
    for law, n in runs:
        blocks = [min(64, n - n0) for n0 in range(0, n, 64)]
        for disorder in (dists.GAUSSIAN_DISORDER, dists.RADEMACHER):
            recording = _RecordsDraws(disorder)
            got = pinning.sample_pinning(law, 1.0, 0.4, n, 500, 3, mode, recording)
            assert [(shape, thread) for _, shape, thread in recording.draws] == [
                ((k, 500), threading.main_thread()) for k in blocks]
            whole = pinning.sample_pinning(law, 1.0, 0.4, n, 1100, 3, mode, disorder)
            assert np.array_equal(got, whole[:500]), (law.n_max, n, disorder)


@pytest.mark.parametrize("mode", ["conditioned", "free"])
def test_sample_pinning_draws_each_tile_on_one_thread(pool_of, mode):
    # 1100 samples run in tiles of 500, 500 and 100, and each tile reads
    # ceil(N / 64) blocks: N = 300 ends in a 44-step block, N = 40 has one,
    # and the alpha law's N = 700 takes the sum of exponentials.  Under
    # either disorder law and at any pool size the samples are those of
    # each tile's whole time-major omega drawn at once, from the tile's own
    # spawned Generator, and a tile draws its blocks in time order on the
    # one thread that runs its transfer
    two_atom = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    runs = ((two_atom, 300), (two_atom, 40), (pinning.RenewalLaw.heavy_tail(0.75, 20000), 700))
    tiles = (500, 500, 100)
    for law, n in runs:
        blocks = [min(64, n - n0) for n0 in range(0, n, 64)]
        for disorder in (dists.GAUSSIAN_DISORDER, dists.RADEMACHER):
            beta, h = pinning.scale_couplings(law, 1.0, 0.4, n)
            ref = []
            for ss, rows in zip(np.random.SeedSequence(3).spawn(3), tiles):
                omega = disorder.fill(np.random.default_rng(ss), np.empty((n, rows)))
                w = dists.site_weights(omega, beta, disorder, h).T
                ref.append(pinning.partition_function_batch(
                    law, pinning._array_weights(w), rows, n, mode))
            for workers in (1, 3):
                pool_of(workers)
                recording = _RecordsDraws(disorder)
                got = pinning.sample_pinning(law, 1.0, 0.4, n, 1100, 3, mode, recording)
                assert np.array_equal(got, np.concatenate(ref)), (law.n_max, n, disorder)
                by_tile = {}
                for rng, shape, thread in recording.draws:
                    by_tile.setdefault(id(rng), []).append((shape, thread))
                assert sorted(draws[0][0][1] for draws in by_tile.values()) == [100, 500, 500]
                for draws in by_tile.values():
                    rows = draws[0][0][1]
                    assert [shape for shape, _ in draws] == [(k, rows) for k in blocks]
                    assert len({thread for _, thread in draws}) == 1


def test_sample_pinning_holds_no_more_tiles_than_the_history_allows(monkeypatch, pool_of):
    # at N = 2000 a two-atom tile holds 67 history rows a sample; with room
    # for the history of two 500-sample tiles, 4 workers run 2 of the 4
    # tiles at once, and the call holds about what two one-tile calls do.
    # All 4 at once held 3.9 to 5 times one tile
    law = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    assert pinning._far_history(law.probs, 2000)[0] == 67

    def peak(n_samples):
        tracemalloc.start()
        try:
            pinning.sample_pinning(law, 1.0, 0.0, 2000, n_samples, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(500)  # first-call caches
    one_tile = peak(500)
    pool_of(4)
    monkeypatch.setattr(pinning, "_PINNING_HISTORY", 2 * 67 * 500)
    assert peak(2000) < 2.5 * one_tile


class _FailsOnWorkers(dists.StdGaussian):
    """A Gaussian law whose draws off the main thread raise, and which keeps
    the errors it raised."""

    def __init__(self):
        self.raised = []

    def fill(self, rng, out):
        if threading.current_thread() is threading.main_thread():
            return super().fill(rng, out)
        self.raised.append(NumericError("drawn on a worker"))
        raise self.raised[-1]


def test_a_worker_error_reaches_the_caller(pool_of):
    # a polymer fill or a pinning tile that raises on a worker raises from
    # the sampler, and leaves the pool fit for the next call; 2 workers
    # split the polymer's 5 samples, and 600 pinning samples run as two
    # tiles, both on the pool
    pool_of(2)
    law = polymer.WalkLaw.simple_symmetric()
    renewal = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    samplers = (lambda d: polymer.sample_polymer(law, 0.5, 60, 5, 1, disorder=d),
                lambda d: pinning.sample_pinning(renewal, 1.0, 0.0, 200, 600, 1, disorder=d))
    for sample in samplers:
        before = sample(dists.GAUSSIAN_DISORDER)
        failing = _FailsOnWorkers()
        with pytest.raises(NumericError) as err:
            sample(failing)
        assert any(err.value is raised for raised in failing.raised)
        assert np.array_equal(sample(dists.GAUSSIAN_DISORDER), before)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


# each study and each sampler command, with the harness attribute of the
# sampler it must call once: the benchmark's tracer wraps those attributes,
# so a call that went round them would drop out of its spans
SAMPLER_ROUTES = [
    ("sample_pinning", {"model": "pinning", "grid": [20], "samples": 100}),
    ("sample_polymer", {"model": "polymer", "grid": [20], "samples": 4}),
    ("sample_ising", {"model": "ising", "grid": [0.5], "samples": 4}),
    ("sample_pinning", ["pinning", "--N", "20", "--samples", "4"]),
    ("sample_polymer", ["polymer", "--N", "20", "--samples", "4"]),
    ("sample_ising", ["ising", "--delta", "0.5", "--samples", "4"]),
]


@pytest.mark.parametrize("name,route", SAMPLER_ROUTES,
                         ids=["pinning-study", "polymer-study", "ising-study",
                              "pinning-cmd", "polymer-cmd", "ising-cmd"])
def test_samplers_are_reached_through_their_harness_attribute(monkeypatch, tmp_path, name,
                                                               route):
    calls = []
    sampler = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return sampler(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    if isinstance(route, dict):
        config = tmp_path / "study.json"
        config.write_text(json.dumps(route))
        argv = ["run", "--config", str(config)]
    else:
        argv = route + ["--out", str(tmp_path / "z.csv")]
    cli.main(argv)
    assert calls == [name]


def test_cli_pinning_csv(tmp_path):
    out = tmp_path / "pin.csv"
    code = cli.main(["pinning", "--N", "60", "--samples", "25", "--seed", "4",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,N,Z,logZ"
    assert len(lines) == 26
    z = float(lines[1].split(",")[2])
    assert z > 0


def test_cli_parser_is_built_once_and_carries_nothing_between_calls(tmp_path):
    # main shares one parser: a run with --alpha must leave no alpha behind
    # for a later run that omits it
    argv = ["pinning", "--N", "60", "--samples", "25", "--seed", "4", "--out"]
    cli.build_parser.cache_clear()
    assert cli.main(argv + [str(tmp_path / "first.csv")]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(argv[:1] + ["--alpha", "0.6"] + argv[1:]
                    + [str(tmp_path / "alpha.csv")]) == 0
    assert cli.main(argv + [str(tmp_path / "again.csv")]) == 0
    first = (tmp_path / "first.csv").read_bytes()
    assert (tmp_path / "again.csv").read_bytes() == first
    assert (tmp_path / "alpha.csv").read_bytes() != first


def test_cli_polymer_csv(tmp_path):
    out = tmp_path / "poly.csv"
    code = cli.main(["polymer", "--N", "40", "--samples", "10", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "seed,N,mode,x,Z,logZ"


def test_cli_ising_csv(tmp_path):
    out = tmp_path / "is.csv"
    code = cli.main(["ising", "--delta", "0.25", "--samples", "20", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "seed,delta,Z,logZ"


def test_cli_run_config_exit_codes(tmp_path):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({
        "model": "wiener",
        "params": {"diagnostic": "isometry"},
        "grid": [32],
        "samples": 20000,
        "seed": 0,
        "out_csv": str(tmp_path / "rows.csv"),
        "out_json": str(tmp_path / "verdicts.json"),
    }))
    code = cli.main(["run", "--config", str(config)])
    assert code == 0
    verdict = json.loads((tmp_path / "verdicts.json").read_text())
    assert verdict["passed"] is True
    assert (tmp_path / "rows.csv").exists()


_TILT_STUDY = {"model": "tilt", "params": {"values": [-1.0, 1.0], "probs": [0.499, 0.501]}}


@pytest.mark.parametrize("argv, config, message", [
    (["pinning", "--N", "10", "--probs", "0.5,x"], None, "--probs"),
    (["run"], None, "study.json"),
    (["run"], '{"model": "tilt", ', "study.json"),
    (["run"], {"params": {}}, '"model"'),
    (["run"], dict(_TILT_STUDY, samples="many"), "samples"),
    (["run"], {"model": "polymer", "grid": ["a", "b"]}, "grid"),
    (["run"], {"model": "polymer", "grid": 50}, "grid"),
    (["run"], {"model": "polymer", "grid": [50], "params": {"beta_hat": "x"}}, "beta_hat"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 2, "params": {"lam_hat": "x"}},
     "lam_hat"),
    (["run"], {"model": "pinning", "grid": [50], "params": {"probs": ["a", "b"]}}, "probs"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 2, "params": {"domain": 5}},
     "domain"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 2,
               "params": {"domain": [0.0, 0.0, 1.0]}}, "domain"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 2,
               "params": {"domain": "0011"}}, "domain"),
    (["run"], {"model": "lindeberg", "grid": [16], "samples": 2,
               "params": {"zeta": "other"}}, "zeta_values"),
    (["run"], {"model": "tilt", "params": {"probs": [0.499, 0.501]}}, "values"),
    (["run"], {"model": "pinning", "grid": [10.5]}, "grid"),
    (["run"], {"model": "polymer", "grid": [10.5]}, "grid"),
    (["run"], {"model": "wiener", "grid": [4.5], "samples": 2}, "grid"),
    (["run"], {"model": "lindeberg", "grid": [2.5], "samples": 2}, "grid"),
    (["run"], {"model": "lindeberg", "grid": [0], "samples": 2}, "grid"),
    (["run"], {"model": "pinning", "grid": [50],
               "params": {"law": "alpha", "alpha": 0.75, "n_max": 1e12}}, "cap"),
    (["run"], {"model": "pinning", "grid": [], "samples": 0}, "grid"),
    (["run"], {"model": "ising", "grid": [], "samples": 2}, "grid"),
    (["run"], {"model": "pinning", "grid": [10**330]}, "grid"),
    (["pinning", "--alpha", "0.75", "--N", str(10**12)], None, "cap"),
    (["polymer", "--alpha", "1.5", "--window", str(10**12), "--N", "10"], None, "cap"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 10,
               "params": {"lam_hat": math.nan}}, "lam_hat"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 10,
               "params": {"lam_hat": math.inf}}, "lam_hat"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 10,
               "params": {"h_hat": math.nan}}, "h_hat"),
    (["run"], {"model": "polymer", "grid": [64], "samples": 0,
               "params": {"alpha": 1.5, "window": 200, "mass_tol": math.nan}}, "mass_tol"),
    (["run"], {"model": "pinning", "grid": [50, 100], "samples": 0,
               "params": {"law": "alpha", "alpha": 0.75, "h_hat": math.nan}}, "h_hat"),
    (["run"], {"model": "polymer", "grid": [16], "samples": 2,
               "params": {"mode": "point2point", "x": math.inf}}, "'x'"),
    (["run"], {"model": "lindeberg", "grid": [16], "samples": 2,
               "params": {"M": -math.inf}}, "'M'"),
    (["run"], {"model": "pinning", "grid": [50], "params": {"probs": [0.5, math.nan]}},
     "probs"),
    (["polymer", "--alpha", "1.5", "--window", "200", "--N", "64", "--samples", "2",
      "--mass-tol", "nan"], None, "--mass-tol"),
    (["polymer", "--mode", "point2point", "--x", "nan", "--N", "16", "--samples", "2"],
     None, "--x"),
    (["polymer", "--N", "16", "--samples", "2", "--mass-tol", "-1"], None,
     "mass_tol = -1.0 must be >= 0"),
    (["run"], {"model": "polymer", "grid": [16], "samples": 2,
               "params": {"mass_tol": -1}}, "mass_tol = -1.0 must be >= 0"),
    # the target x N^(1/2) = 4e300 is named as a float, not as a 301-digit int
    (["polymer", "--mode", "point2point", "--x", "1e300", "--N", "16", "--samples", "2"],
     None, "x = 1e+300 puts the target x N^(1/alpha) = 4e+300 outside"),
    (["ising", "--delta", "nan"], None, "--delta"),
    (["pinning", "--N", "10", "--beta-hat", "inf"], None, "--beta-hat"),
    (["run"], dict(_TILT_STUDY, out_csv=7), "out_csv"),
    (["run"], dict(_TILT_STUDY, out_json=["a"]), "out_json"),
    (["run"], dict(_TILT_STUDY, out_csv=None, out_json="/nonexistent/d/x.json"),
     "/nonexistent/d"),
    (["pinning", "--N", "10", "--samples", "2", "--out", "/nonexistent/d/x.csv"], None,
     "/nonexistent/d"),
    (["run"], {"model": "pinning", "params": {"beta_hat": 30}, "grid": [100, 200],
               "samples": 0}, "not finite"),
    # the continuum oracle, computed once before the first grid point, overflows
    (["run"], {"model": "pinning", "params": {"beta_hat": 40}, "grid": [100, 200],
               "samples": 0}, "continuum second moment overflows"),
    (["run"], {"model": "pinning", "grid": [2, 4], "samples": 0,
               "params": {"law": "alpha", "alpha": 0.75, "n_max": 100, "beta_hat": 30}},
     "not summable"),
    (["ising", "--delta", "1e-300"], None, "transfer cap"),
    (["ising", "--delta", "1e-320"], None, "transfer cap"),
    (["run"], {"model": "wiener", "grid": [8], "samples": 2,
               "params": {"diagnostic": "cameron_martin", "lam_hat": 0}}, "lam_hat"),
    (["run"], {"model": "wiener", "grid": [8], "samples": 2,
               "params": {"diagnostic": "cameron_martin", "lam_hat": -1.0}}, "lam_hat"),
    (["run"], {"model": "wiener", "grid": [8], "samples": 2,
               "params": {"diagnostic": "cameron_martin", "rho": 2000}}, "overflows"),
    (["run"], {"model": "tilt", "params": {"values": [-1, 1], "probs": [0.45, 0.55]}},
     "exceeds the tilting threshold"),
    (["run"], {"model": "polymer", "grid": [16], "samples": 2, "seed": -1}, "seed"),
    (["pinning", "--N", "10", "--samples", "2", "--seed", "-1"], None, "--seed"),
    (["polymer", "--N", "10", "--samples", "2", "--seed", "-1"], None, "--seed"),
    (["ising", "--delta", "0.25", "--samples", "2", "--seed", "-1"], None, "--seed"),
    (["run"], '{"model": "polymer", "grid": [16], "samples": 1e400}', "samples"),
    (["run"], {"model": "polymer", "grid": [16], "samples": 2.7}, "samples"),
    (["run"], {"model": "polymer", "grid": [16], "samples": 2, "seed": 2.5}, "seed"),
    # e^gamma - 1 overflows at N = 1 (gamma = 900), as does e^-h of the free end
    # at h = -1e4, though there the oracle underflows first
    (["run"], {"model": "pinning", "params": {"beta_hat": 30}, "grid": [1, 2], "samples": 0,
               "seed": 0}, "e^gamma = inf at gamma = 900.0; lower beta_hat or N"),
    (["run"], {"model": "pinning", "params": {"h_hat": -1e6, "mode": "free"},
               "grid": [100, 200], "samples": 0}, "underflows to 0; raise h_hat"),
    (["run"], {"model": "pinning", "params": {"h_hat": -2000}, "grid": [100, 200],
               "samples": 0}, "underflows to 0; raise h_hat"),
    (["run"], {"model": "pinning", "params": {"h_hat": -2000, "mode": "free"},
               "grid": [100, 200], "samples": 0}, "underflows to 0; raise h_hat"),
    (["run"], {"model": "pinning", "params": {"h_hat": 2000}, "grid": [100, 200],
               "samples": 0}, "continuum second moment overflows; lower beta_hat or h_hat"),
    (["ising", "--delta", "0.5", "--samples", "2", "--h-hat-const", "1e300"], None,
     "lower lam_hat = 1.0 or h_hat = 1e+300"),
    (["run"], {"model": "pinning", "grid": [2, 4], "samples": 0,
               "params": {"law": "alpha", "alpha": 0.75, "n_max": 100, "h_hat": -1e4}},
     "terms; lower beta_hat or |h_hat|"),
    # lam_hat^2 overflows a float, so the prefactor is 0
    (["ising", "--delta", "0.25", "--samples", "2", "--lambda-hat-const", "1e160"], None,
     "lower lam_hat = 1e+160"),
    (["run"], {"model": "ising", "grid": [0.25], "samples": 2, "params": {"lam_hat": 1e300}},
     "lower lam_hat = 1e+300"),
    # nu = h_hat / lam_hat = 50: every weight e^{nu W - nu^2 / 2} underflows to 0,
    # and the weighted KS row read nan
    (["run"], {"model": "wiener", "grid": [8, 16], "samples": 200,
               "params": {"diagnostic": "cameron_martin", "lam_hat": 0.01}},
     "lower h_hat = 0.5 or raise lam_hat = 0.01"),
    # nu = 10: the weights keep 1.7 effective samples of 200, so the critical
    # value is 1.36, which no KS statistic exceeds, and the row read 1.0 PASS
    (["run"], {"model": "wiener", "grid": [16], "samples": 200, "seed": 0,
               "params": {"diagnostic": "cameron_martin", "lam_hat": 0.05}},
     "lower h_hat = 0.5, or raise lam_hat = 0.05 or samples = 200"),
    # Z overflows to inf through the bias h_N, not beta_N
    (["pinning", "--N", "10", "--samples", "2", "--h-hat", "1e300"], None,
     "(sample 0 is inf); lower beta_hat, h_hat or N"),
], ids=["probs_not_a_number", "config_missing", "config_not_json", "config_no_model",
        "config_samples_not_int",
        "config_grid_not_numbers", "config_grid_not_a_list", "config_param_not_a_number",
        "config_profile_not_a_number", "config_probs_not_numbers", "config_domain_not_a_list",
        "config_domain_three_entries", "config_domain_a_string", "config_zeta_values_missing",
        "config_tilt_values_missing", "config_pinning_grid_not_int",
        "config_polymer_grid_not_int", "config_wiener_grid_not_int",
        "config_lindeberg_grid_not_int", "config_lindeberg_grid_zero",
        "config_n_max_above_cap", "config_pinning_grid_empty", "config_ising_grid_empty",
        "config_grid_int_beyond_float", "pinning_n_max_above_cap", "polymer_window_above_cap",
        "config_lam_hat_nan", "config_lam_hat_inf", "config_h_hat_nan", "config_mass_tol_nan",
        "config_alpha_pinning_h_hat_nan", "config_x_inf", "config_lindeberg_m_minus_inf",
        "config_probs_nan", "polymer_mass_tol_nan", "polymer_x_nan",
        "polymer_mass_tol_negative", "config_mass_tol_negative", "polymer_x_beyond_window",
        "ising_delta_nan",
        "pinning_beta_hat_inf", "config_out_csv_int", "config_out_json_list",
        "config_out_json_missing_dir", "pinning_out_missing_dir", "config_second_moment_overflows",
        "config_second_moment_overflows_further",
        "config_alpha_series_not_summable", "ising_delta_beyond_int64_count",
        "ising_delta_beyond_float_count", "config_wiener_lam_hat_zero",
        "config_wiener_lam_hat_negative", "config_wiener_series_overflows",
        "config_tilt_past_threshold", "config_seed_negative", "pinning_seed_negative",
        "polymer_seed_negative", "ising_seed_negative", "config_samples_beyond_float",
        "config_samples_fractional", "config_seed_fractional",
        "config_second_moment_overflows_at_n1", "config_free_h_hat_minus_1e6",
        "config_oracle_underflows", "config_oracle_underflows_free",
        "config_oracle_overflows_by_bias",
        "ising_h_hat_overflows", "config_alpha_series_bias_not_summable",
        "ising_lam_hat_squared_overflows", "config_lam_hat_squared_overflows",
        "config_cameron_martin_weights_underflow", "config_cameron_martin_weights_degenerate",
        "pinning_h_hat_overflows"])
def test_cli_malformed_input_exit_code(tmp_path, capsys, argv, config, message):
    out = tmp_path / "out"
    if argv[0] == "run":
        if isinstance(config, dict):
            config = json.dumps({"out_csv": str(out), "out_json": str(out), **config})
        argv = argv + ["--config", str(tmp_path / "study.json")]
    elif "--out" not in argv:
        argv = argv + ["--out", str(out)]
    if config is not None:
        (tmp_path / "study.json").write_text(config)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["pinning", "--N", "4000", "--beta-hat", "80", "--seed", "0"],
    ["polymer", "--N", "1000", "--beta-hat", "12", "--samples", "2", "--seed", "0"],
], ids=["pinning", "polymer"])
def test_cli_underflowed_samples_exit_code(tmp_path, capsys, argv):
    # strong disorder underflows Z to 0; log Z must fail cleanly
    code = cli.main(argv + ["--out", str(tmp_path / "z.csv")])
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_cli_overflowing_samples_print_only_the_error_line(tmp_path):
    # the transfer overflows to inf and then nan; numpy's RuntimeWarnings,
    # which pytest would capture in-process, must not reach stderr
    argv = ["pinning", "--N", "4000", "--beta-hat", "80", "--h-hat", "30000",
            "--seed", "0", "--out", str(tmp_path / "z.csv")]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "chaoslim.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("lam_hat,sample", [("400", "nan"), ("35", "0.0")],
                         ids=["overflow", "underflow"])
@pytest.mark.parametrize("command", ["run", "ising"])
def test_cli_ising_bad_samples_print_only_the_error_line(tmp_path, command, lam_hat, sample):
    # at lam_hat 35 the prefactor underflows to 0; at 400 Z overflows too and
    # the product is nan: neither is a passing study or a CSV of log Z
    out = tmp_path / "z.csv"
    if command == "run":
        config = tmp_path / "ising.json"
        config.write_text(json.dumps({"model": "ising", "params": {"lam_hat": float(lam_hat)},
                                      "grid": [0.2], "samples": 10, "out_csv": str(out),
                                      "out_json": str(tmp_path / "z.json")}))
        argv = ["run", "--config", str(config)]
    else:
        argv = ["ising", "--delta", "0.2", "--lambda-hat-const", lam_hat, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "chaoslim.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert f"is {sample})" in lines[0] and f"lam_hat = {float(lam_hat)}" in lines[0]
    assert not out.exists()


def test_cli_ising_cap_exits_before_building_sites(tmp_path):
    # 1e5 sites an axis: a product of 1e10 sites, checked against the cap unbuilt
    argv = ["ising", "--delta", "1e-5", "--out", str(tmp_path / "z.csv")]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "chaoslim.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=10)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "transfer cap" in result.stderr
    assert not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("argv", [
    ["pinning", "--N", "10", "--samples", "1"],
    ["pinning", "--N", "10", "--samples", "0"],
    ["pinning", "--N", "0", "--samples", "5"],
    # above the N cap: refused before any disorder is drawn
    ["pinning", "--N", "300000", "--samples", "2", "--mode", "free"],
    ["pinning", "--N", "300000", "--samples", "2", "--mode", "conditioned"],
    ["polymer", "--N", "10", "--samples", "0"],
    ["polymer", "--N", "10", "--samples", "1"],
    ["polymer", "--N", "10", "--samples", "-1"],
    ["polymer", "--N", "0"],
    ["ising", "--delta", "0.25", "--samples", "0"],
], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_cli_bad_counts_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "z.csv"
    code = cli.main(argv + ["--out", str(out)])
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


_HUGE = str(10**30)  # a sample count that no array of numpy can hold


@pytest.mark.parametrize("argv", [
    ["pinning", "--N", "10", "--samples", _HUGE],
    ["polymer", "--N", "10", "--samples", _HUGE],
    ["ising", "--delta", "0.25", "--samples", _HUGE],
    ["pinning", "--N", "10", "--samples", str(harness.MAX_SAMPLES + 1)],
    ["run", "pinning"], ["run", "polymer"], ["run", "ising"],
], ids=["pinning", "polymer", "ising", "pinning_one_over", "run_pinning", "run_polymer",
        "run_ising"])
def test_sample_count_above_the_bound_exits_before_drawing(tmp_path, capsys, monkeypatch,
                                                           argv):
    # the count is checked before any seed is spawned or array allocated
    def refuse(*args, **kwargs):
        raise AssertionError("seeds spawned")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    out = tmp_path / "z.csv"
    if argv[0] == "run":
        params, grid = _STUDY_BASES[argv[1]]
        config = tmp_path / "study.json"
        # json writes the int out in digits
        config.write_text(json.dumps({"model": argv[1], "params": params, "grid": grid,
                                      "samples": 10**30, "seed": 0, "out_csv": str(out)}))
        argv = ["run", "--config", str(config)]
    else:
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == 2
    assert str(harness.MAX_SAMPLES) in capsys.readouterr().err
    assert not out.exists()


_STUDY_BASES = {
    "pinning": ({"law": "alpha", "alpha": 0.75, "n_max": 100}, [50]),
    "polymer": ({"alpha": 2.0, "beta_hat": 0.5}, [50]),
    "ising": ({"lam_hat": 1.0}, [0.25]),
    "wiener": ({"diagnostic": "isometry"}, [16]),
    "lindeberg": ({}, [16]),
    "tilt": ({"values": [-1.0, 1.0], "probs": [0.499, 0.501]}, []),
}


@pytest.mark.parametrize("model, samples", [
    ("ising", 1), ("ising", 0), ("wiener", 0), ("wiener", 1), ("lindeberg", 0),
    ("lindeberg", -3), ("pinning", 1), ("pinning", -1), ("polymer", 1),
    ("polymer", -2), ("tilt", 1), ("tilt", -1),
], ids=lambda v: str(v))
def test_cli_run_bad_sample_count_exit_code(tmp_path, capsys, model, samples):
    # one sample gives a nan standard error, and the sample-only models have
    # nothing to report without samples
    params, grid = _STUDY_BASES[model]
    out = tmp_path / "rows.csv"
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"model": model, "params": params, "grid": grid,
                                  "samples": samples, "seed": 0, "out_csv": str(out)}))
    code = cli.main(["run", "--config", str(config)])
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "study", sorted((Path(__file__).resolve().parents[1] / "studies").glob("*.json")),
    ids=lambda p: p.stem)
def test_shipped_study_passes(tmp_path, study):
    config = json.loads(study.read_text())
    config.update(out_csv=str(tmp_path / "rows.csv"), out_json=str(tmp_path / "verdicts.json"))
    copy = tmp_path / study.name
    copy.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(copy)]) == 0
    assert json.loads((tmp_path / "verdicts.json").read_text())["passed"] is True


def test_report_json_ends_with_one_newline(tmp_path):
    out = tmp_path / "report.json"
    report = ComparisonReport("demo", [ReportRow(1.0, "q", 0.5)])
    report.to_json(out)
    text = out.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert json.loads(text)["rows"][0]["value"] == 0.5


def test_tilt_model_through_study():
    cfg = ExperimentConfig(
        model="tilt",
        params={"values": [-1.0, 1.0], "probs": [0.499, 0.501],
                "p_list": [2.0, 0.5, -1.0]},
        grid=(), samples=0, seed=0,
    )
    report = run_convergence_study(cfg)
    assert report.passed
    quantities = {r.quantity for r in report.rows}
    assert "tilt_lambda" in quantities and "tilted_mean" in quantities
    assert any(q.startswith("density_moment") for q in quantities)


def test_tilt_study_labels_keep_p_text():
    cfg = ExperimentConfig("tilt", {"values": [-1.0, 1.0], "probs": [0.499, 0.501]}, (), 0, 0)
    labels = [r.quantity for r in run_convergence_study(cfg).rows
              if r.quantity.startswith("density_moment")]
    assert labels == ["density_moment[p=2.0]", "density_moment[p=0.5]",
                      "density_moment[p=-1.0]"]


def test_disorder_param_gives_the_shared_law_objects():
    assert harness._disorder({"disorder": "rademacher"}) is dists.RADEMACHER
    assert harness._disorder({}) is dists.GAUSSIAN_DISORDER
    with pytest.raises(InputError):
        harness._disorder({"disorder": "cauchy"})


def test_polymer_conditioned_sampling_normalized():
    law = polymer.WalkLaw.simple_symmetric()
    z = polymer.sample_polymer(law, 0.5, 100, 400, seed=8, mode="conditioned", x=0.0)
    se = float(z.std(ddof=1) / math.sqrt(z.size))
    assert abs(float(z.mean()) - 1.0) <= 3.5 * se


def test_cli_run_lindeberg_config(tmp_path):
    config = tmp_path / "lin.json"
    config.write_text(json.dumps({
        "model": "lindeberg",
        "params": {"M": 1e308},
        "grid": [16],
        "samples": 5000,
        "seed": 3,
        "out_json": str(tmp_path / "lin_verdicts.json"),
    }))
    code = cli.main(["run", "--config", str(config)])
    assert code == 0
    payload = json.loads((tmp_path / "lin_verdicts.json").read_text())
    assert payload["passed"] is True


def test_pinning_alpha_reference_sampler_sanity():
    alpha, beta_hat, cells = 0.75, 1.0, 128
    ref = pinning.pinning_alpha_reference(alpha, beta_hat, cells=cells, n_samples=20_000, seed=7)
    # the grid's exact E Z^2: y(n) = v(n) sum_m K(m)^2 y(n - m), the sum over site
    # sets of prod K^2 prod E[w^2], with v(n) = (beta_hat c_alpha)^2 / M and v(M) = 1
    rho2 = (beta_hat * pinning.c_alpha(alpha)) ** 2
    y = [1.0]
    for n in range(1, cells + 1):
        v = rho2 / cells if n < cells else 1.0
        y.append(v * sum((m / cells) ** (2 * (alpha - 1.0)) * y[n - m] for m in range(1, n + 1)))
    exact_var = y[cells] - 1.0
    law = pinning.RenewalLaw.heavy_tail(alpha, 2)  # the continuum reads only its alpha
    target_var = pinning.continuum_second_moment(law, beta_hat, 0.0, "conditioned") - 1.0
    assert exact_var / target_var == pytest.approx(0.912, abs=5e-4)
    assert abs(float(ref.mean()) - 1.0) < 0.01
    dev2 = (ref - ref.mean()) ** 2
    se = float(dev2.std(ddof=1) / math.sqrt(ref.size))
    assert abs(float(ref.var(ddof=1)) - exact_var) <= 4 * se
