"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the dumb way -- plain loops and
direct textbook formulas, sharing no code path with the package -- so that
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def mi_from_joint(joint) -> float:
    """Mutual information (nats) straight from the joint-table definition."""
    joint = np.asarray(joint, dtype=float)
    pu = joint.sum(axis=1)
    px = joint.sum(axis=0)
    total = 0.0
    for u in range(joint.shape[0]):
        for x in range(joint.shape[1]):
            p = joint[u, x]
            if p > 0:
                total += p * math.log(p / (pu[u] * px[x]))
    return total


def mi_of_mixture(p_u, conditionals) -> float:
    """MI from P_U and the conditional rows, via the joint table."""
    p_u = np.asarray(p_u, dtype=float)
    rows = [np.asarray(c, dtype=float) for c in conditionals]
    joint = np.vstack([w * row for w, row in zip(p_u, rows)])
    return mi_from_joint(joint)


def second_direction_power_iteration(b, sqrt_px, iters: int = 5000):
    """Top constrained singular direction by projected power iteration.

    Applies B^T B repeatedly while projecting out sqrt(p_x); no SVD, no
    Householder -- a wholly different algorithm from the library's.
    """
    b = np.asarray(b, dtype=float)
    v = np.asarray(sqrt_px, dtype=float)
    proj = np.eye(v.size) - np.outer(v, v)
    m = proj @ (b.T @ b) @ proj
    rng = np.random.default_rng(12345)
    psi = proj @ rng.standard_normal(v.size)
    psi /= np.linalg.norm(psi)
    for _ in range(iters):
        nxt = m @ psi
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return 0.0, psi
        psi = nxt / norm
    return float(np.linalg.norm(b @ psi)), psi


def naive_fir(x, taps):
    """y[t] = sum_l taps[l] * x[t-l] with zeros before the start, by loop."""
    x = np.asarray(x, dtype=float)
    taps = np.asarray(taps, dtype=float)
    y = np.zeros(x.size)
    for t in range(x.size):
        for l in range(taps.size):
            if t - l >= 0:
                y[t] += taps[l] * x[t - l]
    return y


def affine_lstsq(design, targets):
    """Least-squares fit with an explicit all-ones intercept column."""
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    augmented = np.hstack([design, np.ones((design.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(augmented, targets, rcond=None)
    return solution[:-1], float(solution[-1])


def ridge_unpenalized_intercept(design, targets, penalty: float):
    """Ridge with an explicit, unpenalized intercept column.

    Classical equivalence target for 'center everything, ridge the slopes,
    reassemble the intercept'.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n, k = design.shape
    augmented = np.hstack([design, np.ones((n, 1))])
    reg = penalty * np.eye(k + 1)
    reg[k, k] = 0.0
    coef = np.linalg.solve(augmented.T @ augmented + reg, augmented.T @ targets)
    return coef[:-1], float(coef[-1])


def equalizer_design(x, y, length: int, mode: str):
    """(design, targets) for a tap fit, assembled by explicit loops."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shift = 1 if mode == "predict" else 0
    rows, targets = [], []
    for t in range(length, x.size - shift):
        rows.append([x[t - l] for l in range(length + 1)])
        targets.append(y[t + shift])
    return np.asarray(rows), np.asarray(targets)


def joint_lag_design(xs, y, lag: int):
    """(design, targets) for the multivariate common-lag regression."""
    xs = np.asarray(xs, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, targets = [], []
    for t in range(lag, xs.shape[1]):
        row = []
        for m in range(xs.shape[0]):
            row.extend(xs[m, t - l] for l in range(lag + 1))
        rows.append(row)
        targets.append(y[t])
    return np.asarray(rows), np.asarray(targets)


def naive_separation_error(scores, labels) -> float:
    """Median-split error, minimum over both orientations, in plain Python."""
    scores = list(scores)
    labels = list(labels)
    n = len(scores)
    order = sorted(range(n), key=lambda i: (scores[i], i))
    classes = sorted(set(labels))
    bottom = order[: n // 2]
    top = order[n // 2 :]
    wrong_first = sum(labels[i] != classes[0] for i in bottom) + sum(
        labels[i] != classes[1] for i in top
    )
    wrong_second = sum(labels[i] != classes[1] for i in bottom) + sum(
        labels[i] != classes[0] for i in top
    )
    return min(wrong_first, wrong_second) / n


def balanced_labelings(n_pairs: int):
    """Every assignment of n zeros and n ones to 2n positions."""
    n = 2 * n_pairs
    for ones in itertools.combinations(range(n), n_pairs):
        labels = [0] * n
        for i in ones:
            labels[i] = 1
        yield labels


def bayes_error(noisy_images, labels, channel_matrix, dist_a, dist_b) -> float:
    """Ideal-observer error: classify by exact per-class noisy likelihoods."""
    qa = channel_matrix @ np.asarray(dist_a, dtype=float)
    qb = channel_matrix @ np.asarray(dist_b, dtype=float)
    with np.errstate(divide="ignore"):
        la = np.log(qa)
        lb = np.log(qb)
    lla = np.where(np.isfinite(la[noisy_images]), la[noisy_images], -1e300).sum(axis=1)
    llb = np.where(np.isfinite(lb[noisy_images]), lb[noisy_images], -1e300).sum(axis=1)
    labels = np.asarray(labels)
    decide_b = llb > lla
    err = np.mean(decide_b.astype(int) != labels)
    return float(min(err, 1.0 - err))


def online_inverse_mse_loop(estimates, y, window: int, initial):
    """Online inverse-MSE fusion, one sample at a time.

    Each sample is combined with the weights in force, its squared errors
    are appended to growing per-channel histories, and the weights are
    recomputed from the mean of each history's last ``window`` entries (the
    first zero-MSE channel takes all the weight).  Returns ``(rows, fused)``:
    ``rows[i]`` are the weights used for sample ``i`` and ``rows[-1]`` the
    final weights.
    """
    estimates = np.asarray(estimates, dtype=float)
    y = np.asarray(y, dtype=float)
    alphas = np.asarray(initial, dtype=float)
    histories = [[] for _ in range(estimates.shape[0])]
    rows, fused = [alphas], []
    for i in range(y.size):
        fused.append(float(alphas @ estimates[:, i]))
        for h, row in zip(histories, estimates):
            h.append(float((y[i] - row[i]) ** 2))
        mses = [np.asarray(h[-window:]).mean() for h in histories]
        if 0.0 in mses:
            alphas = np.zeros(len(mses))
            alphas[mses.index(0.0)] = 1.0
        else:
            inv = [1.0 / m for m in mses]
            alphas = np.array([v / sum(inv) for v in inv])
        rows.append(alphas)
    return np.array(rows), np.array(fused)


def align_loop(series, policy: str):
    """Put ``(timestamps, values)`` pairs on one clock, one timestamp at a
    time.  ``inner`` keeps the timestamps every series has; ``forward_fill``
    keeps every timestamp from the latest first one on and reads each
    series' last value at or before it.  Returns ``(timestamps, rows)`` as
    lists (``timestamps`` empty when ``inner`` finds none in common)."""
    stamps = [[int(t) for t in ts] for ts, _ in series]
    if policy == "inner":
        shared = sorted(set(stamps[0]).intersection(*stamps[1:]))
    else:
        start = max(ts[0] for ts in stamps)
        shared = sorted(t for t in set().union(*stamps) if t >= start)
    rows = []
    for ts, (_, values) in zip(stamps, series):
        row = []
        for t in shared:
            last = None
            for stamp, value in zip(ts, values):
                if stamp <= t:
                    last = float(value)
            row.append(last)
        rows.append(row)
    return shared, rows


def load_csv_loop(path, time_column: str = "date", value_column: str = "value"):
    """Read a ``date,value`` series file one row at a time.

    Returns ``(timestamps, values, iso)`` as lists and a flag, or raises
    ValueError with the message the loader gives: each row is checked for
    columns, time cell (an integer, else an ISO date; integers must fit in
    64 bits), mixed kinds, duplicate, value and finiteness, and the first
    out-of-order row is reported after the last row.  Blank and
    whitespace-only records are skipped; lines count csv records.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if time_column not in header or value_column not in header:
            raise ValueError(
                f"{path}: header {header!r} lacks columns "
                f"{time_column!r}/{value_column!r}"
            )
        t_idx, v_idx = header.index(time_column), header.index(value_column)
        times, values, iso, seen, out_of_order = [], [], False, {}, None
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            where = f"{path}: line {line_no}"
            if len(row) <= max(t_idx, v_idx):
                raise ValueError(f"{where}: too few columns")
            text = row[t_idx].strip()
            try:
                ts, row_iso = int(text), False
            except ValueError:
                try:
                    ts, row_iso = datetime.date.fromisoformat(text).toordinal(), True
                except ValueError:
                    raise ValueError(
                        f"{where}: cannot parse {row[t_idx]!r} as an integer or ISO date"
                    ) from None
            if not -(2**63) <= ts < 2**63:
                raise ValueError(f"{where}: timestamp {text!r} outside the 64-bit range")
            if times and row_iso != iso:
                raise ValueError(f"{where}: mixed integer and ISO-date timestamps")
            iso = row_iso
            if ts in seen:
                raise ValueError(f"{where}: duplicate timestamp {text!r}")
            seen[ts] = row[t_idx]
            try:
                val = float(row[v_idx])
            except ValueError:
                raise ValueError(f"{where}: cannot parse value {row[v_idx]!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"{where}: non-finite value {row[v_idx]!r}")
            if out_of_order is None and times and ts <= times[-1]:
                out_of_order = line_no
            times.append(ts)
            values.append(val)
    if not times:
        raise ValueError(f"{path}: no data rows")
    if out_of_order is not None:
        raise ValueError(f"{path}: line {out_of_order}: timestamps not strictly increasing")
    return times, values, iso


def load_images_csv_loop(path):
    """Read a ``label,p0,p1,...`` image file one row at a time.

    Returns ``(labels, images)`` as lists (``labels`` is None when every
    label cell is blank), or raises ValueError with the message the loader
    gives.  Blank, whitespace-only and comma-only records are skipped; lines
    count csv records; labels and pixels must fit in 64 bits.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "label" or len(header) < 2:
            raise ValueError(f"{path}: expected header 'label,p0,...'; got {header!r}")
        width = len(header)
        labels, images, blank = [], [], 0
        for line_no, row in enumerate(reader, start=2):
            if all(not cell.strip() for cell in row):
                continue
            where = f"{path}: line {line_no}"
            if len(row) != width:
                raise ValueError(f"{where}: expected {width} cells, got {len(row)}")
            if row[0].strip():
                try:
                    label = int(row[0].strip())
                except ValueError:
                    raise ValueError(f"{where}: bad label {row[0]!r}") from None
                if not -(2**63) <= label < 2**63:
                    raise ValueError(f"{where}: label {row[0]!r} outside the 64-bit range")
                labels.append(label)
            else:
                blank += 1
            pixels = []
            for cell in row[1:]:
                try:
                    pixels.append(int(cell))
                except ValueError:
                    raise ValueError(f"{where}: non-integer pixel value") from None
            for cell, value in zip(row[1:], pixels):
                if not -(2**63) <= value < 2**63:
                    raise ValueError(f"{where}: pixel value {cell!r} outside the 64-bit range")
            images.append(pixels)
    if not images:
        raise ValueError(f"{path}: no data rows")
    if blank and labels:
        raise ValueError(f"{path}: mix of labeled and unlabeled rows")
    return (labels or None), images


def two_class_images_choice(seed: int, n_per_class: int, pixels: int, p_a, p_b):
    """``(images, labels)`` of a two-class corpus drawn with numpy's own
    ``Generator.choice``, class 0 first, concatenated afterwards."""
    rng = np.random.default_rng(seed)
    imgs_a = rng.choice(len(p_a), size=(n_per_class, pixels), p=p_a)
    imgs_b = rng.choice(len(p_b), size=(n_per_class, pixels), p=p_b)
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)]
    )
    return np.concatenate([imgs_a, imgs_b], axis=0), labels


def channel_whole_array(images, channel_matrix, seed: int):
    """Each pixel of ``images`` through the column-stochastic channel, by
    inverse-CDF sampling over the whole array at once: one uniform draw per
    pixel, compared with each leading level of its symbol's output CDF.
    Levels equal to a column's total count as infinite, since a total
    rounded below 1 may lie at or below a draw."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(np.asarray(channel_matrix, dtype=float), axis=0).T
    cum[cum == cum[:, -1:]] = np.inf
    u = rng.random(np.shape(images))
    noisy = np.zeros(u.shape, dtype=np.int64)
    for level in cum[:, :-1].T:
        noisy += level[images] <= u
    return noisy


def per_pixel_scores_loop(images, channel_matrix, smooth: bool):
    """Per-image score totals with one score table per pixel, one pixel at a
    time, from the textbook formulas.

    For pixel j: its (optionally add-1/(nK)-smoothed) output marginal, the
    source recovered by solving against the square channel with negatives
    clipped, the DTM over the live symbols, the top direction orthogonal to
    sqrt(p_x) from a Householder complement and an SVD, signed so its first
    entry above 1e-9 is positive, and scores psi_y / sqrt(p_y).  A pixel
    with fewer than two live source symbols scores 0.
    """
    images = np.asarray(images)
    w_full = np.asarray(channel_matrix, dtype=float)
    n, n_pix = images.shape
    k_out, k_in = w_full.shape
    tables = np.zeros((n_pix, k_out))
    for j in range(n_pix):
        column = images[:, j]
        outside = column[(column < 0) | (column >= k_out)]
        if outside.size:
            raise ValueError(f"symbol {int(outside[0])} outside alphabet of size {k_out}")
        p_y = np.bincount(column, minlength=k_out) / n
        if smooth:
            alpha = 1.0 / (n * k_out)
            p_y = (p_y * n + alpha) / (n + k_out * alpha)
        if k_in != k_out:
            raise ValueError("source recovery needs a square channel")
        try:
            raw = np.linalg.solve(w_full, p_y)
        except np.linalg.LinAlgError:
            raise ValueError("channel is not invertible") from None
        clipped = np.maximum(raw, 0.0)
        p_x = clipped / clipped.sum()
        keep_x = np.flatnonzero(p_x > 0)
        if keep_x.size < 2:
            continue
        w = w_full[:, keep_x]
        px = p_x[keep_x]
        py_full = w @ px
        keep_y = np.flatnonzero(py_full > 0)
        w = w[keep_y]
        py = py_full[keep_y]
        b = w * np.sqrt(px)[None, :] / np.sqrt(py)[:, None]
        u = np.sqrt(px)
        u[0] += 1.0
        u /= np.linalg.norm(u)
        basis = (np.eye(u.size) - 2.0 * np.outer(u, u))[:, 1:]
        _, _, vt = np.linalg.svd(b @ basis)
        psi_x = basis @ vt[0]
        lead = psi_x[np.abs(psi_x) > 1e-9]
        if lead.size and lead[0] < 0:
            psi_x = -psi_x
        tables[j, keep_y] = (b @ psi_x) / np.sqrt(py)
    return tables[np.arange(n_pix)[None, :], images].sum(axis=1)


def _direct_tap_fit(x, y, length: int, mode: str) -> dict:
    """One tap fit exactly as the library's direct path does it: centred
    normal equations, diagonally loaded when rank deficient, same operations
    in the same order.  Returns the ``model_to_dict`` fields."""
    mean_x = float(x.mean())
    a = sliding_window_view(x - mean_x, length + 1)[:, ::-1]
    if mode == "infer":
        targets = y[length:]
    else:
        a = a[:-1]
        targets = y[length + 1 :]
    col_means = a.mean(axis=0)
    target_mean = float(targets.mean())
    ac = a - col_means
    tc = targets - target_mean
    gram = ac.T @ ac
    eye = np.eye(gram.shape[0])
    degenerate = bool(np.linalg.matrix_rank(gram + 0.0 * eye) < gram.shape[0])
    if degenerate:
        gram = gram + 1e-10 * max(np.trace(gram), 1.0) * eye
    coef = np.linalg.solve(gram + 0.0 * eye, ac.T @ tc)
    residuals = tc - ac @ coef
    return {
        "length": length,
        "weights": coef.tolist(),
        "mean_x": mean_x,
        "mean_y": target_mean - float(coef @ col_means),
        "training_mse": float(np.mean(residuals**2)),
        "validation_mse": 0.0,
        "mode": mode,
        "degenerate": degenerate,
    }


def _held_out_mse(fit: dict, x, y, start: int) -> float:
    """MSE of a direct fit's window estimates on targets ``y[start:]``."""
    offset = 1 if fit["mode"] == "predict" else 0
    length = fit["length"]
    first = start - offset
    span = x[first - length : x.size - offset] - fit["mean_x"]
    # a gathered copy of the windows, as the library takes them
    rows = sliding_window_view(span, length + 1)[:, ::-1][np.arange(x.size - start)]
    est = fit["mean_y"] + rows @ np.asarray(fit["weights"])
    return float(np.mean((y[start:] - est) ** 2))


def select_length_loop(x, y, max_length: int, criterion: str, mode: str) -> dict:
    """Model-length selection by refitting every candidate from scratch.

    ``validation`` fits each length on the first 80% of the samples and
    scores it on the rest, then refits the winner on everything; ``aic``
    scores ``n ln(max(mse, 1e-300)) + 2 (L + 1)`` on the full data.  The
    first strict minimum wins, so ties go to the shortest length.  Returns
    the winner's ``model_to_dict`` fields.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if criterion == "aic":
        best, best_aic = None, np.inf
        for length in range(max_length + 1):
            fit = _direct_tap_fit(x, y, length, mode)
            aic = n * np.log(max(fit["training_mse"], 1e-300)) + 2 * (length + 1)
            if aic < best_aic:
                best, best_aic = fit, aic
        return {**best, "validation_mse": best["training_mse"]}
    split = int(0.8 * n)
    best_length, best_val = None, np.inf
    for length in range(max_length + 1):
        fit = _direct_tap_fit(x[:split], y[:split], length, mode)
        val = _held_out_mse(fit, x, y, split)
        if val < best_val:
            best_length, best_val = length, val
    return {**_direct_tap_fit(x, y, best_length, mode), "validation_mse": best_val}
