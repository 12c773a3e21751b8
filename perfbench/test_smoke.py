"""Smoke test of the benchmark: every workload at tiny sizes, traced and
untraced, in under a minute.  Run from the root of a ctda checkout::

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the package's test suite (``tests/``); it guards the
benchmark itself.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# Layers a workload must never reach: each workload bypasses the other's.
SERIES_ONLY = ("dataio.load_csv.self_s", "equalizer.fit_weights.calls")
IMAGES_ONLY = ("dataio.load_images_csv.cells", "coupling.solve_coupling.calls",
               "scoring.score_dataset.items")


def run_bench(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    report, result = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)

    checks = report["checks"]
    assert checks["output_hash"]["attempted"] >= 2
    assert all(c["failed"] == 0 for c in checks.values())
    if trace:
        # Counts must repeat exactly between traced jobs, and each workload
        # must bypass the other workloads' layers.
        assert checks["traced_counts_repeat"]["attempted"] >= 2
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        absent = SERIES_ONLY if workload == "images" else IMAGES_ONLY
        present = IMAGES_ONLY if workload == "images" else SERIES_ONLY
        assert all(metrics[name] == 0 for name in absent)
        assert all(metrics[name] > 0 for name in present)
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in ("setup_s", "job_s", "peak_rss_mb"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload, tmp_path):
    def generate(seed, name):
        out_dir = tmp_path / name
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--size", "smoke", "--out", str(out_dir)],
            check=True, timeout=60,
        )
        return out_dir

    first, again, other = generate(7, "a"), generate(7, "b"), generate(8, "c")
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(again)) == sorted(os.listdir(other))
    match, mismatch, errors = filecmp.cmpfiles(first, again, names, shallow=False)
    assert not mismatch and not errors
    data = [n for n in names if n.endswith(".csv")]
    assert filecmp.cmpfiles(first, other, data, shallow=False)[1] == data


def test_refuses_to_run_without_the_package(tmp_path):
    # A directory holding only the benchmark's own files.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "images", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
