"""The four benchmark workloads and the set-up each one needs.

Each workload is one ``chaoslim run`` study, one sampler command at the
study's largest size, and for two workloads one strong-disorder command
that fails today.  Sample counts are set so that one round (study plus
sampler) takes one to three seconds on a 2-core Xeon, which gives a run of
a few tens of seconds enough rounds for a steady median; the sizes N and
delta set which code path does the work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    study: dict  # chaoslim run config without seed and output paths
    sampler: tuple  # chaoslim argv without --seed and --out
    strong_disorder: tuple = ()  # argv with its own fixed seed; fails today
    local_limit_n: tuple = ()  # n for gnedenko_gap(heavy_tail(1.5, 0, 200), n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # the O(N min(N, n_max)) renewal convolution dominates
            "pinning-alpha",
            {"model": "pinning",
             "params": {"law": "alpha", "alpha": 0.75, "n_max": 20000,
                        "beta_hat": 1.0, "h_hat": 0.0, "mode": "conditioned"},
             "grid": [250, 500, 1000, 2000], "samples": 200},
            ("pinning", "--alpha", "0.75", "--N", "2000", "--beta-hat", "1.0",
             "--h-hat", "0.0", "--mode", "conditioned", "--samples", "200"),
        ),
        Workload(
            # per-step Python overhead of the same layer, with n_max = 2
            "pinning-finite",
            {"model": "pinning",
             "params": {"law": "finite_mean", "probs": [0.5, 0.5],
                        "beta_hat": 1.0, "h_hat": 0.0, "mode": "conditioned"},
             "grid": [1000, 2000, 4000, 8000], "samples": 500},
            ("pinning", "--probs", "0.5,0.5", "--N", "8000", "--beta-hat", "1.0",
             "--h-hat", "0.0", "--mode", "conditioned", "--samples", "1000"),
            ("pinning", "--N", "4000", "--beta-hat", "80", "--seed", "0"),
        ),
        Workload(
            # per-sample transfer loop, then stable-density inversion
            "polymer",
            {"model": "polymer", "params": {"alpha": 2.0, "beta_hat": 0.5},
             "grid": [250, 500, 1000], "samples": 16},
            ("polymer", "--N", "1000", "--beta-hat", "0.5", "--samples", "32"),
            ("polymer", "--N", "1000", "--beta-hat", "12", "--samples", "2",
             "--seed", "0"),
            (4, 16),
        ),
        Workload(
            # 2^16-state enumeration per sample; no other workload in ising
            "field",
            {"model": "ising", "params": {"lam_hat": 1.0, "h_hat": 0.0},
             "grid": [1 / 3, 1 / 4, 1 / 5], "samples": 100},
            ("ising", "--delta", "0.2", "--lambda-hat-const", "1.0",
             "--samples", "100"),
        ),
    )
}


def flag(argv, name: str) -> str:
    """Value of ``--name`` in an argv tuple."""
    return argv[argv.index(name) + 1]


def write_config(workload: Workload, seed: int, path, out_csv, out_json) -> None:
    config = dict(workload.study, seed=seed, out_csv=str(out_csv),
                  out_json=str(out_json))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


def set_up(workload: Workload, config_path):
    """Build what the workload's operations start from: the parsed study
    config, its laws and, for the field workload, its lattice systems."""
    from chaoslim import harness, ising, pinning, polymer

    config = harness.ExperimentConfig.from_json(config_path)
    params = config.params
    if config.model == "pinning":
        if params["law"] == "alpha":
            laws = [pinning.RenewalLaw.heavy_tail(params["alpha"], params["n_max"])]
        else:
            laws = [pinning.RenewalLaw.from_probabilities(params["probs"])]
        return config, laws
    if config.model == "polymer":
        laws = [polymer.WalkLaw.simple_symmetric()]
        if workload.local_limit_n:
            laws.append(polymer.WalkLaw.heavy_tail(1.5, 0.0, 200))
        return config, laws
    domain = ising.Rect.unit_square()
    systems = [ising.LatticeSpinSystem.from_domain(domain, d) for d in config.grid]
    profiles = [ising.FieldProfiles(params["lam_hat"], params["h_hat"], domain, d)
                for d in config.grid]
    return config, systems, profiles
