"""Benchmark of the ctda CLI: three workloads of real command invocations.

Run from the root of a ctda checkout::

    python3 perfbench/run.py --workload series_batch --seed 1 --seconds 35 --trace 0

It generates the workload's inputs from ``--seed`` in a separate process
(``gen.py``), then starts one warm runner process (``runner.py``) that runs
the workload's jobs through ``ctda.cli.main`` for ``--seconds`` seconds and
checks every output.  The runner prints a JSON report and, as the last line
of standard output, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace
1``.  ``--size smoke`` runs the same jobs on tiny inputs (see
``test_smoke.py``).  ``README.md`` explains the workloads and metrics.

Everything is written under ``.perfbench_work/`` in the checkout and removed
at the end.  Outside a checkout (no ``src/ctda``) it exits with code 2.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# One BLAS thread, so the runner never occupies more than one of the two
# cores and numpy's thread pool cannot add its own scheduling noise.  No
# bytecode is written, so nothing lands outside the checkout; the runner's
# set-up samples keep their own bytecode cache (see runner.setup_sample).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="checked by gen.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ctda", "cli.py")):
        print(f"error: {root} is not a ctda checkout (no src/ctda/cli.py)", file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    deadline = time.monotonic() + 175  # a run must end within 180 s
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--out", work],
            check=True, env=env, timeout=deadline - time.monotonic(),
        )
        runner = subprocess.run(
            [sys.executable, os.path.join(HERE, "runner.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--src", src],
            cwd=work, env=env, timeout=deadline - time.monotonic(),
        )
        return runner.returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
