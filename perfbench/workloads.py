"""The benchmark's jobs: which ``ctda`` commands each workload runs, and the
accuracy check that each command's output must pass.

A job is a list of ``(label, argv)`` pairs run in order through
``ctda.cli.main``.  File arguments are bare names: the runner works inside
the directory that ``gen.py`` filled.  Every check reads only the files a
command wrote and the generator's ``truth.json``, and returns
``(ok, detail)``.

Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

import csv
import json

import numpy as np

WORKLOADS = ("series_batch", "series_online", "images")

# Bounds for the accuracy checks, wide enough to hold for any seed at both
# sizes (see README.md); a change that moves an output past one is a defect.
SINGLE_CHANNEL_MSE_TOL = 0.10  # relative, series_batch fit
NOISE_FLOOR_TOL = 0.15  # relative, series_batch fused and baseline MSE
SEPARATION_ERROR_MAX = 0.02  # images, pooled / per-pixel / sweep at e = 0

# sweep arguments per input size: noise grid, images per class, grid points.
SWEEP = {"full": ("0:0.25:0.025", "300", 11), "smoke": ("0:0.25:0.125", "50", 3)}


def commands(workload: str, truth: dict, seed: int) -> list:
    if workload == "images":
        side = truth["side"]
        dims = f"{side}x{side}"
        images = truth["images"]
        e = repr(truth["channel_e"])
        grid, n, _ = SWEEP[truth["size"]]
        return [
            ("score_pooled", ["score", "--images", images, "--channel-e", e,
                              "--mode", "pooled", "--dims", dims, "--out", "pooled.csv"]),
            ("score_per_pixel", ["score", "--images", images, "--channel-e", e,
                                 "--mode", "per_pixel", "--dims", dims,
                                 "--out", "per_pixel.csv"]),
            ("sweep", ["sweep", "--e-grid", grid, "--n", n, "--dims", dims,
                       "--threads", "1", "--seed", str(seed), "--out", "curve.csv"]),
        ]
    series = ["--input", ",".join(truth["inputs"]), "--target", truth["target"]]
    if workload == "series_batch":
        return [
            ("fit", ["fit", *series, "--max-length", "40", "--select", "validation",
                     "--out", "models.json"]),
            ("infer", ["infer", "--models", "models.json", *series,
                       "--fusion", "mrc_lmmse", "--out", "fused.csv"]),
            ("baseline", ["baseline", *series, "--method", "bayes", "--lag", "10",
                          "--out", "baseline.csv"]),
        ]
    if workload == "series_online":
        ffill = ["--align", "forward_fill"]
        return [
            ("fit", ["fit", *series, *ffill, "--max-length", "10", "--out", "models.json"]),
            ("infer", ["infer", "--models", "models.json", *series, *ffill,
                       "--online-window", "250", "--out", "fused.csv"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- reading outputs ------------------------------------------------------------


def _columns(path: str) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _prediction_mse(path: str) -> float:
    cols = _columns(path)
    y_true = np.array(cols["y_true"], dtype=float)
    y_hat = np.array(cols["y_hat"], dtype=float)
    return float(np.mean((y_true - y_hat) ** 2))


def _channel_models(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {c["name"]: c["model"] for c in json.load(fh)["channels"]}


def separation_error(labels, scores) -> float:
    """Share misplaced by the better orientation of a median split (kept
    apart from ``ctda.scoring.separation_error``, which it checks)."""
    labels = np.asarray(labels)
    low_half = labels[np.argsort(scores, kind="stable")[: labels.size // 2]]
    wrong = int((low_half != 0).sum())
    return 2.0 * min(wrong, low_half.size - wrong) / labels.size


def _scores_error(path: str, n_images: int):
    cols = _columns(path)
    if len(cols["index"]) != n_images:
        return False, f"{len(cols['index'])} scores for {n_images} images"
    err = separation_error(
        np.array(cols["label"], dtype=int), np.array(cols["score"], dtype=float)
    )
    return err <= SEPARATION_ERROR_MAX, f"separation_error={err:.4g} (max {SEPARATION_ERROR_MAX})"


def _near(value: float, target: float, tol: float) -> bool:
    return abs(value / target - 1.0) <= tol


# --- checks ---------------------------------------------------------------------


def check(workload: str, label: str, truth: dict):
    """Check the output of command ``label`` against the generator's truth."""
    if workload == "series_batch":
        noise = truth["noise_var"]
        if label == "fit":
            models = _channel_models("models.json")
            got = [models[name.removesuffix(".csv")]["training_mse"] for name in truth["inputs"]]
            want = truth["single_channel_mse"]
            ok = all(_near(g, w, SINGLE_CHANNEL_MSE_TOL) for g, w in zip(got, want))
            return ok, f"training_mse={[round(g, 4) for g in got]} expected~{want}"
        if label == "baseline":
            mse = _prediction_mse("baseline.csv")
            return _near(mse, noise, NOISE_FLOOR_TOL), f"mse={mse:.4g} noise_var={noise}"
        # Each branch's L + 1 fitted taps carry estimation error of about
        # (its residual variance) x (L + 1) / n into the fused estimate; the
        # bound allows twice that, as the error is chi-square distributed.
        models = _channel_models("models.json")
        excess = 2 * sum(
            m["training_mse"] * (m["length"] + 1) / truth["rows"] for m in models.values()
        )
        mse = _prediction_mse("fused.csv")
        ok = (1 - NOISE_FLOOR_TOL) * noise <= mse <= (1 + NOISE_FLOOR_TOL) * noise + excess
        return ok, f"mse={mse:.4g} noise_var={noise} estimation_excess={excess:.4g}"
    if workload == "series_online":
        models = _channel_models("models.json")
        val = [models[name.removesuffix(".csv")]["validation_mse"] for name in truth["inputs"]]
        if label == "fit":
            # Each equalizer must beat the raw branch it filters.
            ok = all(v < b for v, b in zip(val, truth["branch_noise_var"]))
            return ok, f"validation_mse={[round(v, 4) for v in val]} branch_noise_var={truth['branch_noise_var']}"
        mse = _prediction_mse("fused.csv")
        return mse < min(val), f"fused_mse={mse:.4g} best_branch_mse={min(val):.4g}"
    if workload == "images":
        n_images = 2 * truth["n_per_class"]
        if label == "score_pooled":
            return _scores_error("pooled.csv", n_images)
        if label == "score_per_pixel":
            return _scores_error("per_pixel.csv", n_images)
        cols = _columns("curve.csv")
        errors = [float(v) for v in cols["error_probability"]]
        e0 = errors[[float(v) for v in cols["e"]].index(0.0)]
        ok = len(errors) == SWEEP[truth["size"]][2] and e0 <= SEPARATION_ERROR_MAX
        return ok, f"{len(errors)} grid points, error at e=0 is {e0:.4g} (max {SEPARATION_ERROR_MAX})"
    raise ValueError(f"unknown workload {workload!r}")
