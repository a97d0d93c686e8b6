"""Command-line entry point: ``chaoslim <model> [flags]`` and
``chaoslim run --config file.json``.

Data goes to CSV, verdicts to JSON; the exit code is 0 only when every
asserted criterion in the run passes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import harness, ising, pinning, polymer
from .dists import Atoms
from .errors import ChaoslimError, NumericError


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def _log_samples(z: np.ndarray) -> list[float]:
    """log Z of every sample; a sample that is not finite and positive (an
    underflow to 0, say) is a NumericError, not a math domain error."""
    bad = np.flatnonzero(~(np.isfinite(z) & (z > 0.0)))
    if bad.size:
        raise NumericError(
            f"{bad.size} of {z.size} partition-function samples are not finite and "
            f"positive (sample {bad[0]} is {float(z[bad[0]])!r}), so log Z is undefined; "
            "lower beta_hat or N"
        )
    return [math.log(v) for v in z]


def _cmd_pinning(args) -> int:
    if args.alpha is not None:
        law = pinning.RenewalLaw.heavy_tail(args.alpha, max(2 * args.N, 4))
    else:
        law = pinning.RenewalLaw.from_probabilities(
            [float(p) for p in args.probs.split(",")]
        )
    z = harness.sample_pinning(
        law, args.beta_hat, args.h_hat, args.N, args.samples, args.seed, args.mode
    )
    log_z = _log_samples(z)
    rows = [(args.seed, args.N, z[i], log_z[i]) for i in range(z.size)]
    _write_csv(args.out, ["seed", "N", "Z", "logZ"], rows)
    print(f"pinning: wrote {z.size} samples to {args.out} "
          f"(mean Z = {z.mean():.6f}, sd = {z.std(ddof=1):.6f})")
    return 0


def _cmd_polymer(args) -> int:
    if args.alpha == 2.0:
        law = polymer.WalkLaw.simple_symmetric()
    else:
        law = polymer.WalkLaw.heavy_tail(args.alpha, args.gamma, args.window)
    z = harness.sample_polymer(
        law, args.beta_hat, args.N, args.samples, args.seed, args.mode, args.x,
        mass_tol=args.mass_tol,
    )
    log_z = _log_samples(z)
    rows = [
        (args.seed, args.N, args.mode, args.x, z[i], log_z[i])
        for i in range(z.size)
    ]
    _write_csv(args.out, ["seed", "N", "mode", "x", "Z", "logZ"], rows)
    print(f"polymer: wrote {z.size} samples to {args.out} "
          f"(mean Z = {z.mean():.6f}, sd = {z.std(ddof=1):.6f})")
    return 0


def _cmd_ising(args) -> int:
    domain = ising.Rect(0.0, 0.0, args.width, args.height)
    profiles = ising.FieldProfiles(
        args.lambda_hat_const, args.h_hat_const, domain, args.delta
    )
    z = harness.sample_ising(profiles, args.samples, args.seed)
    log_z = _log_samples(z)
    rows = [(args.seed, args.delta, z[i], log_z[i]) for i in range(z.size)]
    _write_csv(args.out, ["seed", "delta", "Z", "logZ"], rows)
    print(f"ising: wrote {z.size} samples to {args.out} "
          f"(mean rescaled Z = {z.mean():.6f})")
    return 0


def _cmd_tilt(args) -> int:
    from . import tilting

    values, probs = [], []
    with open(args.atoms, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("value"):
                continue
            v, p = line.split(",")
            values.append(float(v))
            probs.append(float(p))
    atoms = Atoms(np.array(values), np.array(probs))
    p_list = tuple(float(p) for p in args.p.split(","))
    result = tilting.tilt_zero_mean(atoms, args.interval)
    bounds = tilting.verify_tilt_bounds(result, atoms, p_list)
    payload = {
        "interval": result.interval,
        "A": result.a_level,
        "epsilon": result.epsilon,
        "lambda": result.lam,
        "log_normalizer": result.log_normalizer,
        "density": result.density.tolist(),
        "tilted_values": result.tilted.values.tolist(),
        "tilted_probs": result.tilted.probs.tolist(),
        "bounds": [
            {"name": name, "p": p_exp, "lhs": lhs, "rhs": rhs, "holds": ok}
            for name, p_exp, lhs, rhs, ok in bounds.rows
        ],
        "all_bounds_hold": bounds.all_hold,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"tilt: lambda = {result.lam:.12g}, all bounds hold: {bounds.all_hold}")
    return 0 if bounds.all_hold else 1


def _cmd_run(args) -> int:
    config = harness.ExperimentConfig.from_json(args.config)
    report = harness.run_convergence_study(config)
    for row in report.rows:
        status = "" if row.passed is None else ("PASS" if row.passed else "FAIL")
        print(f"[{config.model}] grid={row.grid_value} {row.quantity}: "
              f"{row.value:.6g} ({row.provenance}) {status}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoslim",
        description="Scaling-limit experiments for disordered pinning, "
        "directed polymer and random-field Ising partition functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinning", help="sample pinning partition functions")
    p.add_argument("--alpha", type=float, default=None,
                   help="tail index in (1/2, 1); omit for a finite-mean law")
    p.add_argument("--probs", default="0.5,0.5",
                   help="finite-mean jump probabilities K(1),K(2),...")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--beta-hat", type=float, default=1.0)
    p.add_argument("--h-hat", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["free", "conditioned"], default="conditioned")
    p.add_argument("--out", default="pinning.csv")
    p.set_defaults(func=_cmd_pinning)

    p = sub.add_parser("polymer", help="sample directed-polymer partition functions")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="walk tail index; 2 uses the simple walk")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--window", type=int, default=2000)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--beta-hat", type=float, default=0.5)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--mode", choices=["free", "point2point", "conditioned"],
                   default="free")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mass-tol", type=float, default=1e-8,
                   help="abort threshold for walk mass leaving the DP window; "
                        "loosen for alpha < 2, where stable tails always escape")
    p.add_argument("--out", default="polymer.csv")
    p.set_defaults(func=_cmd_polymer)

    p = sub.add_parser("ising", help="sample rescaled RFIM partition functions")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--height", type=float, default=1.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lambda-hat-const", type=float, default=1.0)
    p.add_argument("--h-hat-const", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="ising.csv")
    p.set_defaults(func=_cmd_ising)

    p = sub.add_parser("tilt", help="exponentially tilt an atom law to zero mean")
    p.add_argument("--atoms", required=True, help="CSV of value,prob rows")
    p.add_argument("--interval", choices=["two-sided", "one-sided"],
                   default="two-sided")
    p.add_argument("--p", default="2,0.5,-1",
                   help="density-moment exponents to verify")
    p.add_argument("--out", default="tilt_report.json")
    p.set_defaults(func=_cmd_tilt)

    p = sub.add_parser("run", help="run a convergence study from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChaoslimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
