"""Tests of the benchmark's correctness checks and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q bench

Each check must pass on chaoslim as it is and fail when the value it
checks is perturbed.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import tracing  # noqa: E402
from chaoslim import cli, harness, ising, pinning, polymer  # noqa: E402

MODULES = {"cli": cli, "harness": harness, "ising": ising,
           "pinning": pinning, "polymer": polymer}


@pytest.mark.parametrize("seed", [0, 1])
def test_static_checks_pass(seed):
    results = checks.static_checks(np.random.default_rng(seed))
    assert len(results) == 13
    assert [c for c in results if not c.passed] == []


def _scaled(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


@pytest.mark.parametrize("owner, attr, prefix", [
    (pinning, "partition_function", "pinning Z "),
    (pinning, "second_moment_exact", "pinning E[Z^2]"),
    (polymer, "polymer_partition", "polymer Z "),
    (polymer, "polymer_second_moment_exact", "polymer E[Z^2]"),
    (ising, "rfim_partition_xi", "ising rfim_partition_xi"),
])
def test_static_checks_reject_perturbed_values(monkeypatch, owner, attr, prefix):
    monkeypatch.setattr(owner, attr, _scaled(getattr(owner, attr), 1.0 + 1e-9))
    results = checks.static_checks(np.random.default_rng(0))
    hit = [c for c in results if c.name.startswith(prefix)]
    assert hit and not any(c.passed for c in hit)
    assert all(c.passed for c in results if not c.name.startswith(prefix))


def test_stable_density_check_rejects_perturbed_pdf(monkeypatch):
    pdf = polymer.StableDensity.pdf
    monkeypatch.setattr(polymer.StableDensity, "pdf", lambda self, x: pdf(self, x) + 1e-8)
    results = {c.name: c.passed for c in checks.static_checks(np.random.default_rng(0))}
    assert results["StableDensity.pdf alpha=1.5 vs levy_stable"] is False


def test_ising_second_moment_matches_double_sum():
    sites = [(1, 1), (1, 2), (2, 1), (2, 2)]
    lam = np.array([0.3, 0.5, 0.7, 0.2])
    spins, weights = checks._ising_configurations(sites)
    direct = sum(weights[a] * weights[b] * math.exp(float(lam**2 @ (1 + spins[a] * spins[b])))
                 for a in range(16) for b in range(16)) / weights.sum() ** 2
    assert checks.ising_second_moment_brute(sites, lam) == pytest.approx(direct, rel=1e-12)


def _pinning_samples():
    law = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    n = 400
    z = harness.sample_pinning(law, 1.0, 0.0, n, 4000, 7)
    beta_n, h_n = pinning.scale_couplings(law, 1.0, 0.0, n)
    return z, pinning.second_moment_exact(law, n, beta_n, h_n) - 1.0


def test_moment_checks_pass_and_reject_perturbed_samples():
    z, var = _pinning_samples()
    assert checks.mean_check("mean", z.mean(), z.size, 1.0, var).passed
    assert checks.variance_check("var", z, var).passed
    assert not checks.mean_check("mean", 1.15 * z.mean(), z.size, 1.0, var).passed
    assert not checks.variance_check("var", 1.0 + 1.3 * (z - 1.0), var).passed


def test_ising_moments_match_samples_and_reject_perturbed_mean():
    delta = 1 / 3
    z = harness.sample_ising(ising.FieldProfiles(1.0, 0.0, ising.Rect.unit_square(), delta),
                             4000, 3)
    mean, var = checks.ising_rescaled_moments(delta, 1.0)
    assert checks.mean_check("mean", z.mean(), z.size, mean, var).passed
    assert checks.variance_check("var", z, var).passed
    assert not checks.mean_check("mean", 1.1 * z.mean(), z.size, mean, var).passed


def test_log_column_check():
    z = np.array([0.5, 2.0])
    assert checks.log_column_check("log", z, np.log(z)).passed
    assert not checks.log_column_check("log", z, np.log(z) + 1e-9).passed
    assert not checks.log_column_check("log", np.array([0.0, 2.0]),
                                       np.array([-np.inf, math.log(2.0)])).passed


def test_self_times_subtract_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span("a", 0.0, 10.0, -1), tracing.Span("b", 1.0, 4.0, 0),
                    tracing.Span("c", 2.0, 3.0, 1), tracing.Span("b", 5.0, 6.0, 0)]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_span_cost_is_a_few_microseconds():
    assert 0.0 < tracing.span_cost_s() < 1e-4


def _layer_attributes():
    out = []
    for name, path, _ in tracing.LAYERS:
        owner = MODULES[name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append(vars(owner)[attr])
    return out


def test_tracer_records_nested_spans_and_restores_modules():
    originals = _layer_attributes()
    tracer = tracing.Tracer()
    law = pinning.RenewalLaw.from_probabilities([0.5, 0.5])
    with tracer.installed(MODULES):
        harness.sample_pinning(law, 1.0, 0.0, 50, 10, 0)
        system = ising.LatticeSpinSystem.from_domain(ising.Rect.unit_square(), 1 / 3)
        ising.rfim_partition_xi(system, np.zeros(4))
        ising.rfim_partition_xi(system, np.zeros(4))
    names = [s.name for s in tracer.spans]
    assert names == ["harness.sample_pinning", "pinning.partition_batch",
                     "pinning.renewal_mass", "ising.system_build",
                     "ising.system_build", "ising.rfim_partition"]
    assert [s.parent for s in tracer.spans[:3]] == [-1, 0, 1]
    assert tracer.samples_drawn == 10
    assert all(a is b for a, b in zip(_layer_attributes(), originals))
