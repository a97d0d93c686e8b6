"""chaoslim benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a chaoslim checkout.  The workload runs in a fresh
child process (bench/measure.py) that imports chaoslim from ./src, with
one chaoslim worker thread and one BLAS thread.  The last line of standard
output is the result as JSON; the full record of the run, with environment,
per-round times, check results and spans, goes to
.bench_out/BENCH_<workload>[_trace].json.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

CHILD_TIMEOUT_S = 170.0
THREAD_SETTINGS = {
    "CHAOSLIM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "chaoslim" / "__init__.py").is_file():
        print(f"error: no chaoslim sources under {src}", file=sys.stderr)
        return 2
    out_root = root / ".bench_out"
    work_dir = out_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    record = out_root / f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"

    env = dict(os.environ, PYTHONPATH=str(src), **THREAD_SETTINGS)
    command = [sys.executable, str(Path(__file__).with_name("measure.py")),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(work_dir), "--record", str(record)]
    # its own process group, so that a timeout also ends the set-up probes it started
    child = subprocess.Popen(command, env=env, cwd=root, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, text=True, preexec_fn=os.setpgrp)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"error: the run took longer than {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: measure.py exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
