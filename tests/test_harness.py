"""Tests for the experiment harness, KS diagnostics and the CLI."""

import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from chaoslim import cli, harness
from chaoslim.errors import InputError
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
    assert res.n_eff_x == pytest.approx(n_eff)


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
    assert any(r.quantity == "mean_rescaled_Z" for r in report.rows)


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
# CLI
# ---------------------------------------------------------------------------


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


def test_cli_tilt_report(tmp_path):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("value,prob\n-1,0.499\n1,0.501\n")
    out = tmp_path / "tilt.json"
    code = cli.main(["tilt", "--atoms", str(atoms), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_bounds_hold"]
    assert payload["lambda"] == pytest.approx(0.5 * math.log(0.499 / 0.501), abs=1e-10)


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


def test_cli_error_exit_code(tmp_path):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("value,prob\n-1,0.45\n1,0.55\n")
    code = cli.main(["tilt", "--atoms", str(atoms), "--out", str(tmp_path / "o.json")])
    assert code == 2  # hypothesis violation surfaces as a clean error


@pytest.mark.parametrize("argv", [
    ["pinning", "--N", "4000", "--beta-hat", "80", "--seed", "0"],
    ["polymer", "--N", "1000", "--beta-hat", "12", "--samples", "2", "--seed", "0"],
], ids=["pinning", "polymer"])
def test_cli_underflowed_samples_exit_code(tmp_path, capsys, argv):
    # strong disorder underflows Z to 0; log Z must fail cleanly
    code = cli.main(argv + ["--out", str(tmp_path / "z.csv")])
    assert code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pinning", "--N", "10", "--samples", "1"],
    ["pinning", "--N", "10", "--samples", "0"],
    ["pinning", "--N", "0", "--samples", "5"],
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


def test_report_json_ends_with_one_newline(tmp_path):
    out = tmp_path / "report.json"
    report = ComparisonReport("demo", [ReportRow(1.0, "q", 0.5)])
    report.to_json(out)
    text = out.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert json.loads(text)["rows"][0]["value"] == 0.5


def test_lindeberg_bound_mean_mc_audit():
    # mean-shifted families zeta + mu vs xi + mu: the MC distance sits below
    # the computable mean-shifted bound
    from chaoslim.chaos import Kernel, lindeberg_bound_mean, truncated_moments
    from chaoslim.dists import Atoms, StdGaussian

    rng = np.random.default_rng(12)
    n = 9
    entries = {(i,): 0.3 for i in range(n)}
    entries[(0, 1)] = 0.4
    entries[(2, 5, 7)] = 0.2
    kernel = Kernel(entries)
    mu = np.full(n, 0.05)
    moments = truncated_moments([Atoms([-1.0, 1.0], [0.5, 0.5]), StdGaussian()], math.inf)
    bound = lindeberg_bound_mean(kernel, 1.0, float(mu @ mu), 2, moments, 1.0)

    def psi(mat):
        out = np.zeros(mat.shape[0])
        for sites, coef in kernel.entries.items():
            term = np.full(mat.shape[0], coef)
            for s in sites:
                term = term * mat[:, s]
            out += term
        return out

    size = 40_000
    zeta = rng.choice([-1.0, 1.0], size=(size, n)) + mu
    xi = rng.standard_normal((size, n)) + mu
    fz = smooth_test_function(psi(zeta))
    fg = smooth_test_function(psi(xi))
    d = abs(float(fz.mean() - fg.mean()))
    se = math.sqrt(fz.var(ddof=1) / size + fg.var(ddof=1) / size)
    assert d + harness.Z99 * se <= bound


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


def test_polymer_conditioned_sampling_normalized():
    from chaoslim import polymer

    law = polymer.WalkLaw.simple_symmetric()
    z = harness.sample_polymer(law, 0.5, 100, 400, seed=8, mode="conditioned", x=0.0)
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
    ref = harness.pinning_alpha_reference(0.75, 1.0, cells=32, k_max=3,
                                          n_samples=20_000, seed=7)
    from chaoslim.pinning import continuum_second_moment

    target_var = continuum_second_moment("alpha", 1.0, 0.0, 1.0, alpha=0.75) - 1.0
    assert abs(float(ref.mean()) - 1.0) < 0.01
    # center-evaluated singular kernels are systematically light, never heavy
    assert 0.5 * target_var < float(ref.var(ddof=1)) < 1.05 * target_var
