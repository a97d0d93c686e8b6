"""One benchmark run of one workload, in its own process (started by run.py).

A run is a sequence of whole rounds.  A round is the workload's study
through ``chaoslim.cli.main(["run", ...])`` plus its local-limit check, the
sampler command through ``chaoslim.cli.main``, and the strong-disorder
command if the workload has one.  The first round is a warm-up; rounds
repeat until ``--seconds`` have passed.  In an untraced run every round
also times a set-up probe in a fresh interpreter; the probes are not
counted as operations.  Every round uses the same seed-derived
inputs, so every round must also reproduce the first round's output files
byte for byte.

With ``--trace 1`` rounds alternate between traced and untraced, and the
per-layer metrics are medians over the traced rounds.  ``trace.overhead_pct``
is the spans of a traced round times the cost of one span (a wrapped no-op
timed in this process), as a share of an untraced round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
from tracing import SPAN_NAMES, Tracer, span_cost_s
from workloads import WORKLOADS, flag, write_config

from chaoslim import cli, harness, ising, pinning, polymer

MIN_ROUNDS = 4  # measured rounds after the warm-up, whatever --seconds says
MAX_RUN_S = 140.0  # no new round starts after this, so the run ends in time
PROBE_TIMEOUT_S = 60.0
BENCH_DIR = Path(__file__).resolve().parent


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Run:
    def __init__(self, workload, seed: int, out_dir: Path):
        self.w = workload
        study_seed, sampler_seed, check_seed = (
            int(x) for x in np.random.SeedSequence(seed).generate_state(3))
        self.check_seed = check_seed
        self.config = out_dir / "study.json"
        self.study_csv = out_dir / "study.csv"
        self.study_json = out_dir / "study_report.json"
        write_config(workload, study_seed, self.config, self.study_csv, self.study_json)
        self.sampler_csv = out_dir / "samples.csv"
        self.sampler_argv = list(workload.sampler) + [
            "--seed", str(sampler_seed), "--out", str(self.sampler_csv)]
        self.strong_csv = out_dir / "strong.csv"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests = None
        self.local_limit_gaps = None
        self.deterministic = True

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _operation(self, label: str, fn) -> float | None:
        """Run one counted operation; its wall time, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            ok = fn()
        except Exception as err:  # a failed operation is counted, not fatal
            ok = False
            self.errors.append(f"{label}: {type(err).__name__}: {err}")
        elapsed = time.perf_counter() - start
        if not ok:
            self.failed += 1
            return None
        return elapsed

    def _study(self) -> bool:
        # exit code 1 is a failed calibration verdict of the study, not a
        # failed run; the benchmark's own checks judge the numbers
        code = self._cli(["run", "--config", str(self.config)])
        if self.w.local_limit_n:
            law = polymer.WalkLaw.heavy_tail(1.5, 0.0, 200)
            gaps = [polymer.gnedenko_gap(law, n) for n in self.w.local_limit_n]
            if self.local_limit_gaps is None:
                self.local_limit_gaps = gaps
            self.deterministic &= gaps == self.local_limit_gaps
        return code in (0, 1)

    def _strong_disorder(self) -> bool:
        argv = list(self.w.strong_disorder) + ["--out", str(self.strong_csv)]
        if self._cli(argv) != 0:
            return False
        z, log_z = checks.read_samples(self.strong_csv)
        return bool(np.all(np.isfinite(log_z)))

    def probe(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), self.w.name,
                        str(self.config)], check=True, timeout=PROBE_TIMEOUT_S,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def round(self, with_probe: bool, traced=contextlib.nullcontext()) -> dict:
        times = {"setup_s": self.probe()} if with_probe else {}
        with traced:
            times["study_s"] = self._operation("study", self._study)
            times["sampler_s"] = self._operation(
                "sampler", lambda: self._cli(self.sampler_argv) == 0)
        if self.w.strong_disorder:
            self._operation("strong-disorder", self._strong_disorder)
        digests = [_digest(p) for p in (self.study_csv, self.sampler_csv)
                   if p.exists()]
        if self.digests is None:
            self.digests = digests
        self.deterministic &= digests == self.digests
        return times

    def _sampler_second_moment(self) -> float:
        """Exact E[Z^2] for the sampler command's law and size."""
        argv = self.w.sampler
        n = int(flag(argv, "--N"))
        beta_hat = float(flag(argv, "--beta-hat"))
        if argv[0] == "polymer":
            return polymer.polymer_second_moment_exact(
                polymer.WalkLaw.simple_symmetric(), n, polymer.scale_beta(2.0, beta_hat, n))
        if "--alpha" in argv:  # the law `chaoslim pinning --alpha` builds
            law = pinning.RenewalLaw.heavy_tail(float(flag(argv, "--alpha")), max(2 * n, 4))
        else:
            law = pinning.RenewalLaw.from_probabilities(
                [float(p) for p in flag(argv, "--probs").split(",")])
        beta_n, h_n = pinning.scale_couplings(law, beta_hat, 0.0, n)
        return pinning.second_moment_exact(law, n, beta_n, h_n, "conditioned")

    def output_checks(self) -> list[checks.Check]:
        w = self.w
        rows = json.loads(self.study_json.read_text())["rows"]
        z, log_z = checks.read_samples(self.sampler_csv)
        out = [checks.log_column_check("sampler logZ", z, log_z),
               checks.Check("reruns byte-identical", self.deterministic,
                            "every round reproduced the first round's outputs")]
        if w.study["model"] == "ising":
            lam_hat = float(w.study["params"]["lam_hat"])
            quantity = "mean_rescaled_Z"

            def exact(delta):
                return checks.ising_rescaled_moments(delta, lam_hat)

            sampler_exact = checks.ising_rescaled_moments(
                float(flag(w.sampler, "--delta")),
                float(flag(w.sampler, "--lambda-hat-const")))
        else:
            # conditioned pinning at h_hat = 0 and the free polymer have
            # E[Z] = 1, so Var Z = E[Z^2] - 1 with E[Z^2] from the exact DP
            second = {r["grid_value"]: r["value"] for r in rows
                      if r["quantity"] == "second_moment"}
            quantity = "mean_Z"

            def exact(n):
                return 1.0, second[n] - 1.0

            sampler_exact = (1.0, self._sampler_second_moment() - 1.0)
        for r in rows:
            if r["quantity"] == quantity:
                mean, var = exact(r["grid_value"])
                out.append(checks.mean_check(f"study E[Z] at {r['grid_value']:.4g}",
                                             r["value"], w.study["samples"], mean, var))
        mean, var = sampler_exact
        out.append(checks.mean_check("sampler E[Z]", float(z.mean()), z.size, mean, var))
        out.append(checks.variance_check("sampler Var Z", z, var))
        if self.local_limit_gaps is not None:
            out.append(checks.Check(
                "gnedenko_gap finite and below 0.1",
                all(0.0 < g < 0.1 for g in self.local_limit_gaps),
                f"gaps {self.local_limit_gaps}"))
        return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "CHAOSLIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    out_dir = Path(args.out_dir)
    run = Run(WORKLOADS[args.workload], args.seed, out_dir)
    tracer = Tracer()
    modules = {"cli": cli, "harness": harness, "ising": ising,
               "pinning": pinning, "polymer": polymer}

    probe = not args.trace
    run.round(probe)  # warm-up
    rounds, layer_rounds = [], []
    measure_start = time.perf_counter()
    while True:
        if args.trace and len(rounds) % 2 == 0:
            first_span, drawn = len(tracer.spans), tracer.samples_drawn
            times = run.round(False, traced=tracer.installed(modules))
            layers = tracer.self_times(first_span)
            layers["harness.samples"] = tracer.samples_drawn - drawn
            layers["trace.spans"] = len(tracer.spans) - first_span
            layer_rounds.append(layers)
        else:
            times = run.round(probe)
        rounds.append(times)
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and (now - measure_start >= args.seconds
                                          or now - started >= MAX_RUN_S):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = checks.static_checks(np.random.default_rng(run.check_seed))
    results += run.output_checks()
    correct = all(c.passed for c in results)

    def median(key):
        values = [r[key] for r in rounds if r.get(key) is not None]
        return statistics.median(values) if values else float("nan")

    def busy_s(r):  # study plus sampler time of a round; None if either failed
        return None if None in (r["study_s"], r["sampler_s"]) else r["study_s"] + r["sampler_s"]

    n_samples = int(flag(run.w.sampler, "--samples"))
    trace_record = {}
    if args.trace:
        per_layer = {f"{name}_s": statistics.median(r.get(name, 0.0) for r in layer_rounds)
                     for name in SPAN_NAMES}
        for count in ("harness.samples", "trace.spans"):
            per_layer[count] = statistics.median(r[count] for r in layer_rounds)
        untraced_s = statistics.median(
            t for t in map(busy_s, rounds[1::2]) if t is not None)
        span_s = span_cost_s()
        per_layer["trace.overhead_pct"] = 100.0 * per_layer["trace.spans"] * span_s / untraced_s
        # each traced round against the untraced round right after it: the
        # machine's round-to-round noise swamps the tracer's cost in this
        # ratio, so it goes to the record only
        pairs = [(busy_s(a), busy_s(b)) for a, b in zip(rounds[::2], rounds[1::2])]
        trace_record = {"span_cost_s": span_s, "paired_overhead_pct": 100.0 * statistics.median(
            a / b - 1.0 for a, b in pairs if None not in (a, b))}
        metrics = {k: {"value": v, "unit": "count" if k in ("harness.samples", "trace.spans")
                       else "%" if k.endswith("_pct") else "s"}
                   for k, v in per_layer.items()}
    else:
        metrics = {
            "study_s": {"value": median("study_s"), "unit": "s"},
            "samples_per_s": {"value": n_samples / median("sampler_s"), "unit": "1/s"},
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "result": result,
        "rounds": rounds, "layer_rounds": layer_rounds,
        **trace_record,
        "errors": sorted(set(run.errors)),
        "checks": [c.__dict__ for c in results],
        "spans": [s.__dict__ for s in tracer.spans],
    }
    Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
