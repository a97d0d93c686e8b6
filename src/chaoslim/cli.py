"""Command-line entry point: ``chaoslim {pinning,polymer,ising} [flags]``
writes partition-function samples to CSV, and ``chaoslim run --config
file.json`` runs a study of any model, ``tilt`` included.

Data goes to CSV, verdicts to JSON; the exit code is 0 only when every
asserted criterion in the run passes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import harness, ising
from .errors import ChaoslimError, InputError, positive_samples


def _check_counts(args, least: int) -> None:
    if not least <= args.samples <= harness.MAX_SAMPLES:
        raise InputError(f"--samples must lie in [{least}, {harness.MAX_SAMPLES}], "
                         f"got {args.samples}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _quiet_numerics():
    """Overflow and invalid-value warnings off for a command's numerics: a
    sample or a second moment they leave non-finite is reported as an error."""
    return np.errstate(over="ignore", invalid="ignore")


def _write_samples(args, fixed: dict, z: np.ndarray, lower: str) -> int:
    """One CSV row per sample: the run's ``fixed`` columns, then Z and log Z.

    A sample that is not finite and positive (an underflow to 0, say) is a
    NumericError that names the model's coupling to ``lower``, not a math
    domain error, and no file is written.
    """
    positive_samples(z, lower)
    prefix = "".join((repr(float(v)) if isinstance(v, float) else str(v)) + ","
                     for v in fixed.values())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join([*fixed, "Z", "logZ"]) + "\n")
        fh.writelines(f"{prefix}{v!r},{math.log(v)!r}\n" for v in z.tolist())
    print(f"{args.command}: wrote {z.size} samples to {args.out} (mean Z = {z.mean():.6f})")
    return 0


def _cmd_pinning(args) -> int:
    _check_counts(args, 2)
    if args.alpha is None:
        params = {"probs": _floats(args.probs, "--probs")}
    else:
        params = {"law": "alpha", "alpha": args.alpha, "n_max": max(2 * args.N, 4)}
    with _quiet_numerics():
        z = harness.sample_pinning(harness.pinning_law(params), args.beta_hat, args.h_hat,
                                   args.N, args.samples, args.seed, args.mode)
    return _write_samples(args, {"seed": args.seed, "N": args.N}, z, "beta_hat, h_hat or N")


def _cmd_polymer(args) -> int:
    _check_counts(args, 2)
    law = harness.polymer_law({"alpha": args.alpha, "gamma": args.gamma,
                               "window": args.window})
    with _quiet_numerics():
        z = harness.sample_polymer(
            law, args.beta_hat, args.N, args.samples, args.seed, args.mode, args.x,
            mass_tol=args.mass_tol,
        )
    return _write_samples(
        args, {"seed": args.seed, "N": args.N, "mode": args.mode, "x": args.x}, z,
        "beta_hat or N")


def _cmd_ising(args) -> int:
    _check_counts(args, 1)
    domain = ising.Rect(0.0, 0.0, args.width, args.height)
    profiles = ising.FieldProfiles(
        args.lambda_hat_const, args.h_hat_const, domain, args.delta
    )
    with _quiet_numerics():
        z = harness.sample_ising(profiles, args.samples, args.seed)
    return _write_samples(args, {"seed": args.seed, "delta": args.delta}, z, "lam_hat or h_hat")


def _cmd_run(args) -> int:
    config = harness.ExperimentConfig.from_json(args.config)
    with _quiet_numerics():
        report = harness.run_convergence_study(config)
    for row in report.rows:
        status = "" if row.passed is None else ("PASS" if row.passed else "FAIL")
        print(f"[{config.model}] grid={row.grid_value} {row.quantity}: "
              f"{row.value:.6g} ({row.provenance}) {status}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing leaves it unchanged, so one build serves every ``main`` call of
    a process; importing this module builds nothing."""
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
                   help="abort threshold for walk mass leaving the field window; "
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

    p = sub.add_parser("run", help="run a convergence study from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"--{name.replace('_', '-')} must be a finite number, "
                                 f"got {value!r}")
        return args.func(args)
    except (ChaoslimError, OSError) as err:  # OSError: an output file that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
