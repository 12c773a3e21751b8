"""Seeded benchmark inputs, made with numpy alone.

The generators here deliberately import nothing from ``ctda``: a change to
the package cannot change what its commands read.  Each generator writes
its CSV files into a directory and returns the ground truth that the
accuracy checks in ``workloads.py`` compare the command outputs against.

Run as a script to write one workload's inputs plus ``truth.json``::

    python3 perfbench/gen.py --workload series_batch --seed 1 --out DIR

The same ``--seed`` and ``--size`` always give byte-identical files.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os

import numpy as np

# Full-size inputs are what the timed runs read; smoke sizes exercise the
# same code paths in well under a second per job.
SIZES = {
    "full": {
        "series_batch": {"rows": 20_000},
        "series_online": {"rows": 4_000},
        "images": {"n_per_class": 500, "side": 28},
    },
    "smoke": {
        "series_batch": {"rows": 3_000},
        "series_online": {"rows": 400},
        "images": {"n_per_class": 50, "side": 10},
    },
}

# series_batch: y[t] = sum_m (c_m * x_m)[t] + noise, unit-variance white inputs.
BATCH_TAPS = (
    (0.9, -0.4, 0.25),
    (0.5, 0.3, -0.2, 0.1, 0.05),
    (-0.6, 0.2),
    (0.3, 0.3, 0.3, -0.3, 0.2, -0.1, 0.05),
)
BATCH_NOISE_SIGMA = 0.5

# series_online: every branch is the target plus white noise of its own level.
ONLINE_AR = 0.95
ONLINE_BRANCH_SIGMAS = (0.4, 0.5, 0.6, 0.7)
ONLINE_DROP = 0.05
ONLINE_EPOCH = dt.date(2001, 1, 1).toordinal()

# images: the classes and channel that `ctda sweep` uses by default.
IMAGE_P_A = (0.7, 0.1, 0.1, 0.1)
IMAGE_P_B = (0.1, 0.1, 0.1, 0.7)
IMAGE_CHANNEL_E = 0.1


def channel_matrix(e: float) -> np.ndarray:
    """The built-in four-symbol channel, rows = outputs, columns = inputs."""
    return np.array(
        [
            [1 - 2 * e, 2 * e, e, e / 2],
            [e, 1 - 3 * e, 2 * e, e / 4],
            [e, 0.0, 1 - 4 * e, e / 4],
            [0.0, e, e, 1 - e],
        ]
    )


def _write_series(path: str, times, values) -> None:
    lines = ["date,value"]
    lines += [f"{t},{float(v)!r}" for t, v in zip(times, values)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def series_batch(out_dir: str, seed: int, rows: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    xs = rng.standard_normal((len(BATCH_TAPS), rows))
    y = BATCH_NOISE_SIGMA * rng.standard_normal(rows)
    for x, taps in zip(xs, BATCH_TAPS):
        y += np.convolve(x, taps)[:rows]
    times = np.arange(rows)
    for m, x in enumerate(xs, start=1):
        _write_series(os.path.join(out_dir, f"x{m}.csv"), times, x)
    _write_series(os.path.join(out_dir, "y.csv"), times, y)
    energy = [float(np.sum(np.square(t))) for t in BATCH_TAPS]
    noise_var = BATCH_NOISE_SIGMA**2
    return {
        "inputs": [f"x{m}.csv" for m in range(1, len(xs) + 1)],
        "target": "y.csv",
        "rows": rows,
        "noise_var": noise_var,
        # A single-channel fit cannot explain the other channels' energy.
        "single_channel_mse": [noise_var + sum(energy) - e for e in energy],
    }


def series_online(out_dir: str, seed: int, rows: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    drive = np.sqrt(1 - ONLINE_AR**2) * rng.standard_normal(rows)
    y = np.empty(rows)
    y[0] = rng.standard_normal()
    for t in range(1, rows):
        y[t] = ONLINE_AR * y[t - 1] + drive[t]
    branches = [y + s * rng.standard_normal(rows) for s in ONLINE_BRANCH_SIGMAS]
    dates = np.array(
        [dt.date.fromordinal(ONLINE_EPOCH + t).isoformat() for t in range(rows)]
    )
    names = [f"x{m}.csv" for m in range(1, len(branches) + 1)] + ["y.csv"]
    for name, values in zip(names, branches + [y]):
        keep = rng.random(rows) >= ONLINE_DROP
        keep[0] = True  # every file starts on the first date
        _write_series(os.path.join(out_dir, name), dates[keep], values[keep])
    return {
        "inputs": names[:-1],
        "target": names[-1],
        "branch_noise_var": [s * s for s in ONLINE_BRANCH_SIGMAS],
    }


def images(out_dir: str, seed: int, n_per_class: int, side: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    n_pix = side * side
    clean = np.concatenate(
        [
            rng.choice(4, size=(n_per_class, n_pix), p=IMAGE_P_A),
            rng.choice(4, size=(n_per_class, n_pix), p=IMAGE_P_B),
        ]
    )
    labels = np.repeat([0, 1], n_per_class)
    order = rng.permutation(labels.size)
    clean, labels = clean[order], labels[order]
    # Inverse-CDF draw through the channel; clamp keeps a draw that lands
    # in the last CDF step's rounding gap inside the alphabet.
    cum = np.cumsum(channel_matrix(IMAGE_CHANNEL_E), axis=0).T
    u = rng.random(clean.shape)
    noisy = np.minimum((cum[clean] <= u[..., None]).sum(axis=-1), 3)
    table = np.column_stack([labels, noisy])
    header = "label," + ",".join(f"p{i}" for i in range(n_pix))
    np.savetxt(
        os.path.join(out_dir, "images.csv"),
        table,
        fmt="%d",
        delimiter=",",
        header=header,
        comments="",
    )
    return {
        "images": "images.csv",
        "side": side,
        "n_per_class": n_per_class,
        "channel_e": IMAGE_CHANNEL_E,
    }


GENERATORS = {"series_batch": series_batch, "series_online": series_online, "images": images}


def generate(workload: str, seed: int, size: str, out_dir: str) -> dict:
    """Write one workload's inputs into ``out_dir`` and return its truth."""
    os.makedirs(out_dir, exist_ok=True)
    truth = GENERATORS[workload](out_dir, seed, **SIZES[size][workload])
    truth.update(workload=workload, seed=seed, size=size)
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    generate(args.workload, args.seed, args.size, args.out)


if __name__ == "__main__":
    main()
