"""The warm runner: one process that runs a workload's jobs in a closed loop.

Started by ``run.py`` inside the work directory that ``gen.py`` filled, with
``src/`` first on ``PYTHONPATH`` and the BLAS pools pinned to one thread.
It runs one untimed warm-up job, then job after job until ``--seconds``
have passed, each job being the workload's commands called in order through
``ctda.cli.main``.  Between commands it runs the reference probe.  With
``--trace 0`` it also times one fresh-interpreter import after every other
job; with ``--trace 1`` untraced and traced jobs alternate.

It prints a multi-line JSON report, then the one-line result on the last
line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import tracer
import workloads

# Median duration of ``probe()`` on the reference machine (2-vCPU Intel
# Xeon KVM guest, Python 3.11, numpy 2.4.6, one BLAS thread).  Gated timings
# are expressed in reference-machine seconds: raw x PROBE_REF_S / probe.
PROBE_REF_S = 0.030

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_PROBE_LIST = [float(i % 13) for i in range(250)]


def probe() -> float:
    """Fixed work that imports nothing from ctda: a bytecode loop, small
    dense SVDs and small-array numpy calls, in roughly equal parts."""
    start = perf_counter()
    acc = 0.0
    for i in range(120_000):
        acc += (i % 7) * 0.5
    for _ in range(12):
        np.linalg.svd(_PROBE_MATRIX)
    for _ in range(400):
        acc += float(np.asarray(_PROBE_LIST)[-100:].mean())
    return perf_counter() - start


SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import ctda.cli\n"
    "ctda.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)


def setup_sample() -> float:
    """Seconds a fresh interpreter spends importing ctda.cli and building
    its parser: what every CLI invocation pays before doing any work.

    The child reads and writes bytecode under ``pycache/`` in the work
    directory, so after the first (untimed) sample every sample reads
    cached bytecode, as an installed package does, whatever the caller's
    environment says or a stale ``__pycache__`` under ``src/`` holds.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.abspath("pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def highest_percentile(values, beyond: int = 10):
    """Highest whole percentile (nearest rank) with ``beyond`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= beyond:
            return {"percentile": q, "value": ordered[rank - 1]}
    return None


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, cli, workload: str, truth: dict, seed: int):
        self.cli = cli
        self.workload = workload
        self.truth = truth
        self.commands = workloads.commands(workload, truth, seed)
        # Each command writes one file, named by its --out flag.
        self.outputs = [argv[argv.index("--out") + 1] for _, argv in self.commands]
        self.attempted = 0
        self.failures: list = []
        self.checks: dict = {}  # name -> {"attempted", "failed", "detail"}
        self.reference_hash = None

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        entry = self.checks.setdefault(name, {"attempted": 0, "failed": 0, "detail": ""})
        entry["attempted"] += 1
        if not ok:
            entry["failed"] += 1
            self.failures.append(f"{name}: {detail}")
        if not ok or not entry["detail"]:
            entry["detail"] = detail

    def job(self, probes: list) -> dict:
        """Run one job, with a probe before it and after each command.

        Returns each command's raw seconds (``times``) and rescaled seconds
        (``scaled``): raw x PROBE_REF_S / (mean of the probes just before
        and just after the command).  The machine's speed changes within
        a second here, so the probes that bracket a command track it best.
        """
        gc.collect()
        times, scaled = {}, {}
        local = [probe()]
        sink = io.StringIO()
        for label, argv in self.commands:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception:  # a crash is one failed operation, not the end of the run
                    code = traceback.format_exc(limit=3)
                times[label] = perf_counter() - start
            self.record(f"command.{label}", code == 0,
                        "" if code == 0 else f"exit {code}: {sink.getvalue()[-500:]}")
            local.append(probe())
            scaled[label] = times[label] * PROBE_REF_S * 2 / (local[-2] + local[-1])
        probes.extend(local)
        return {"times": times, "total": sum(times.values()), "probes": local,
                "scaled": scaled, "scaled_total": sum(scaled.values())}

    def check_outputs(self, first: bool) -> None:
        """One operation per check: every command's accuracy on the first
        job, and on every job that its output bytes repeat."""
        if first:
            for label, _ in self.commands:
                try:
                    ok, detail = workloads.check(self.workload, label, self.truth)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    ok, detail = False, f"{type(exc).__name__}: {exc}"
                self.record(f"accuracy.{label}", ok, detail)
        try:
            h = digest(self.outputs)
        except OSError as exc:
            self.record("output_hash", False, str(exc))
            return
        if self.reference_hash is None:
            self.reference_hash = h
        self.record("output_hash", h == self.reference_hash, h)


def summarize(values) -> dict:
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "tail": highest_percentile(values),
    }


def provenance(src: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    root = os.path.dirname(src)
    src_lines = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(root),
        "src_lines": src_lines,
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git (a
    benchmark checkout usually has no ``.git``)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer(traced: list) -> tuple:
    """Per-layer metrics from the traced jobs: each job's self times are
    rescaled by its own probe factor and the median is taken; counts are
    the same in every traced job (that is checked), so the first is used.
    Also returns each layer's summed self time and every function's."""
    names = sorted({k for job in traced for k in job["totals"]})

    def self_s(prefix):
        return statistics.median(
            sum(v["self_s"] for k, v in job["totals"].items() if k == prefix or k.startswith(prefix + "."))
            * job["scaled_total"] / job["total"]
            for job in traced
        )

    def count(name, key):
        return traced[0]["totals"].get(name, {}).get(key, 0)

    metrics = {"cli.self_s": self_s("cli")}
    for name in (
        "dataio.load_csv", "dataio.align", "dataio.load_images_csv",
        "dataio.gen_two_class_images", "dataio.apply_channel_to_dataset",
        "equalizer.select_length", "equalizer.fit_weights", "equalizer.estimate_series",
        "fusion.online_alpha_update", "fusion.mrc_weights_lmmse",
        "baselines.fit_bayes", "baselines.predict_series",
        "stats.smoothed_distribution",
        "coupling.build_dtm", "coupling.solve_coupling", "coupling.score_table",
        "scoring.build_image_scorer", "scoring.score_dataset",
        "scoring.score_dataset_per_pixel", "scoring.separation_error",
        "scoring.save_scores_csv", "scoring.error_vs_noise_curve",
    ):
        metrics[f"{name}.self_s"] = self_s(name)
    for name in (
        "dataio.format_timestamp", "equalizer.fit_weights", "equalizer.estimate_series",
        "fusion.online_alpha_update", "baselines.fit_ols", "stats.smoothed_distribution",
        "coupling.build_dtm", "coupling.solve_coupling",
    ):
        metrics[f"{name}.calls"] = count(name, "calls")
    metrics["dataio.load_csv.rows"] = count("dataio.load_csv", "rows")
    metrics["dataio.load_images_csv.cells"] = count("dataio.load_images_csv", "cells")
    metrics["dataio.apply_channel_to_dataset.temp_mb"] = count(
        "dataio.apply_channel_to_dataset", "temp_mb"
    )
    metrics["scoring.score_dataset.items"] = count("scoring.score_dataset", "items")
    read = count("fusion.online_alpha_update", "values_read")
    used = count("fusion.online_alpha_update", "values_used")
    metrics["fusion.online_alpha_update.values_read"] = read
    metrics["fusion.online_alpha_update.useful_ratio"] = used / read if read else 0.0

    layers = {layer: self_s(layer) for layer in tracer.LAYERS}
    functions = {name: {"self_s": self_s(name), "calls": count(name, "calls")} for name in names}
    return metrics, layers, functions


def counts_of(totals: dict) -> dict:
    return {
        name: {k: v for k, v in t.items() if k != "self_s"} for name, t in totals.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="the checkout's src/ directory")
    args = parser.parse_args()

    import ctda
    import ctda.cli

    if not os.path.abspath(ctda.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"error: imported ctda from {ctda.__file__}, not {args.src}", file=sys.stderr)
        return 2
    with open("truth.json", encoding="utf-8") as fh:
        truth = json.load(fh)

    # Enough timed jobs for a median even when one job outlasts --seconds.
    min_jobs = 2 if truth["size"] == "smoke" else 5
    runner = Runner(ctda.cli, args.workload, truth, args.seed)
    trace = tracer.Tracer() if args.trace else None
    probes: list = []
    plain, traced, setups = [], [], []

    runner.job(probes)  # warm-up: caches, lazy imports, first-call costs
    runner.check_outputs(first=True)
    if not trace:
        setup_sample()  # fills the set-up bytecode cache
    reference_counts = None
    if trace:
        with trace:
            runner.job(probes)
        reference_counts = counts_of(trace.take())
        runner.check_outputs(first=False)

    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(plain) < min_jobs or (
        trace and len(traced) < min_jobs
    ):
        if not trace or len(traced) >= len(plain):
            plain.append(runner.job(probes))
            runner.check_outputs(first=False)
            if not trace and len(plain) % 2:
                before = probe()
                sample = setup_sample()
                after = probe()
                probes += [before, after]
                setups.append((sample, (before + after) / 2))
        else:
            with trace:
                job = runner.job(probes)
            job["totals"] = trace.take()
            traced.append(job)
            runner.check_outputs(first=False)
            same = counts_of(job["totals"]) == reference_counts
            runner.record("traced_counts_repeat", same, "" if same else "counts differ")
        if len(runner.failures) > 20:
            break

    def rescaled(jobs, key=None):
        """Median over jobs of the rescaled job (or one command) time."""
        vals = [j["scaled_total"] if key is None else j["scaled"][key] for j in jobs]
        return statistics.median(vals), vals

    job_s, job_vals = rescaled(plain)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": truth["size"],
        "trace": args.trace,
        "provenance": provenance(args.src),
        "probe_ref_s": PROBE_REF_S,
        "probe_median_s": statistics.median(probes),
        "job_s_raw": summarize([j["total"] for j in plain]),
        "job_s_rescaled": summarize(job_vals),
        "jobs": [{"raw_s": j["total"], "commands_s": j["times"], "probes_s": j["probes"]}
                 for j in plain],
        "commands_raw_median_s": {
            label: statistics.median(j["times"][label] for j in plain)
            for label, _ in runner.commands
        },
        "output_sha256": runner.reference_hash,
        "attempted": runner.attempted,
        "failures": runner.failures[:20],
        "checks": runner.checks,
    }
    if trace:
        traced_job_s, _ = rescaled(traced)
        metrics, layers, functions = per_layer(traced)
        for label in ("fit", "infer", "baseline", "score_pooled", "score_per_pixel", "sweep"):
            metrics[f"cli.{label}.wall_s"] = (
                rescaled(plain, label)[0] if label in plain[0]["times"] else 0.0
            )
        metrics["trace.overhead_s"] = traced_job_s - job_s
        report["traced_job_s_rescaled"] = traced_job_s
        report["traced_jobs"] = len(traced)
        report["layer_share_of_traced_job"] = {
            k: v / traced_job_s for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
        }
        report["functions"] = functions
        units = {"calls": "count", "rows": "count", "cells": "count", "items": "count",
                 "values_read": "count", "temp_mb": "MB", "useful_ratio": "ratio"}
        out = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "s")}
               for k, v in sorted(metrics.items())}
    else:
        setup_raw = [s for s, _ in setups]
        setup_vals = [s * PROBE_REF_S / p for s, p in setups]
        report["setup_s_raw"] = summarize(setup_raw)
        report["setup_s_rescaled"] = summarize(setup_vals)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["peak_rss_mb"] = rss_mb
        out = {
            "setup_s": {"value": statistics.median(setup_vals), "unit": "s"},
            "job_s": {"value": job_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps(report, indent=1, sort_keys=True))
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
