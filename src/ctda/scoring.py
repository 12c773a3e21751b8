"""Unsupervised scoring and separation of noisy discrete observations.

Pipeline: pool every pixel of a noisy corpus into one output marginal,
invert the channel to recover the pooled source, build the divergence
transition matrix, and score each image by summing the per-symbol scores of
its pixels.  Sorting by score splits a balanced two-source mixture without
ever reading a label; labels, when present, are only consulted afterwards
to measure the separation error.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .coupling import (
    ScoreTable,
    _coupling_scores,
    _support_blocks,
    build_dtm,
    optimal_directions,
    replace_direction,
    score_table,
    solve_coupling,
)
from .dataio import ImageDataset, _noisy_two_class_images, _write_csv
from .stats import (
    Channel,
    DiscreteDistribution,
    _blocks,
    _smoothed,
    empirical_distribution,
    smoothed_distribution,
)

# Recovered source entries more negative than this are treated as a modeling
# inconsistency rather than sampling noise.
NEGATIVITY_TOL = 1e-6


@dataclass(frozen=True)
class CurvePoint:
    """One noise level of an error-vs-noise sweep."""

    e: float
    error_probability: float
    n_images: int
    seed: int


def learn_pooled_source(dataset, smooth: bool = False) -> DiscreteDistribution:
    """Empirical symbol distribution pooled over every pixel of a corpus."""
    pixels = dataset.images if isinstance(dataset, ImageDataset) else np.asarray(dataset)
    alphabet = (
        dataset.alphabet_size
        if isinstance(dataset, ImageDataset)
        else max(2, int(pixels.max()) + 1)
    )
    estimator = smoothed_distribution if smooth else empirical_distribution
    return estimator(pixels.reshape(-1), alphabet)


def recover_source_input(
    p_y: DiscreteDistribution, channel: Channel, tol: float = NEGATIVITY_TOL
) -> DiscreteDistribution:
    """Invert ``p_y = W p_x`` for the source distribution.

    Requires a square invertible channel.  Entries more negative than
    ``-tol`` mean the observed marginal cannot come from this channel;
    smaller negatives (sampling noise) are clipped and the result
    renormalized.
    """
    return DiscreteDistribution(_recover(p_y.probs, channel, tol))


def _recover(p_y: np.ndarray, channel: Channel, tol: float) -> np.ndarray:
    """``recover_source_input`` for each row of ``p_y`` (..., Ky)."""
    if channel.n_inputs != channel.n_outputs:
        raise ValueError("source recovery needs a square channel")
    if p_y.shape[-1] != channel.n_outputs:
        raise ValueError("marginal does not match the channel's output alphabet")
    try:
        raw = np.linalg.solve(channel.matrix, p_y[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ValueError("channel is not invertible") from None
    if np.any(raw < -tol):
        raise ValueError(
            f"inconsistent channel/source: recovered probability "
            f"{float(raw.min())!r} below -{tol}"
        )
    clipped = np.maximum(raw, 0.0)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def build_image_scorer(pixels, channel: Channel, smooth: bool = False) -> ScoreTable:
    """Score table learned from noisy pixels alone (no labels involved).

    ``pixels`` is the raw ``(n_images, n_pixels)`` symbol matrix of the
    noisy corpus; labels deliberately have no way in here.

    When the channel treats several perturbation directions identically
    (degenerate optimal subspace, e.g. a noiseless channel) the solver's
    choice within that subspace is arbitrary, so the tie is broken
    empirically: among the tied directions, take the one under which the
    per-image scores vary most across the corpus.  Still entirely
    unsupervised -- it reads pixel counts, never labels.
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.size == 0:
        raise ValueError("need a non-empty (n_images, n_pixels) matrix")
    estimator = smoothed_distribution if smooth else empirical_distribution
    return _image_scorer(estimator(pixels.reshape(-1), channel.n_outputs), pixels, channel)


def _image_scorer(p_y: DiscreteDistribution, pixels, channel: Channel) -> ScoreTable:
    """``build_image_scorer`` from the pooled output marginal ``p_y`` of the
    symbols of ``pixels``."""
    p_x = recover_source_input(p_y, channel)
    if (p_x.probs > 0).sum() < 2:
        raise ValueError("recovered source concentrates on a single symbol")
    dtm = build_dtm(channel, p_x)
    solution = solve_coupling(dtm)
    if solution.degenerate_subspace:
        solution = _max_variance_direction(solution, dtm, pixels, channel.n_outputs)
    return score_table(solution, dtm)


def _max_variance_direction(solution, dtm, pixels, alphabet):
    """Break a degenerate coupling tie by maximizing empirical score variance.

    The image score under direction ``psi`` is linear in ``psi``:
    ``S_i = (c_i / sqrt(p_y))^T B psi`` with ``c_i`` the image's symbol
    counts.  Its corpus variance is a quadratic form, so the best tied
    direction is the top eigenvector of that form restricted to the optimal
    subspace.
    """
    subspace = optimal_directions(dtm, solution)
    if subspace.shape[1] < 2:
        return solution
    counts = _symbol_counts(pixels, alphabet).astype(float)
    r = counts[:, dtm.output_symbols] / np.sqrt(dtm.p_y.probs)
    r -= r.mean(axis=0)
    image = dtm.matrix @ subspace  # (Ky, k): output images of the tied basis
    form = image.T @ ((r.T @ r) / pixels.shape[0]) @ image
    eigvals, eigvecs = np.linalg.eigh(form)
    return replace_direction(solution, dtm, subspace @ eigvecs[:, -1])


def score_dataset(dataset: ImageDataset, table: ScoreTable) -> np.ndarray:
    """Each image's summed pixel scores under one ``table``: an
    ``(n_images,)`` array in corpus order.  Labels play no part."""
    if dataset.alphabet_size > table.scores.size:
        raise ValueError("score table does not cover the dataset's alphabet")
    return _row_sums(table.scores, dataset.images)


def _row_sums(values: np.ndarray, index: np.ndarray, offset=0) -> np.ndarray:
    """Checked finite, each row's sum of ``values.take(index + offset)``,
    gathered a block of rows at a time (``stats._blocks``).  A row's sum does
    not depend on the blocking."""
    sums = np.empty(len(index))
    for lo, block in _blocks(index, offset):
        values.take(block).sum(axis=1, out=sums[lo : lo + len(block)])
    return _finite(sums)


def _finite(totals: np.ndarray) -> np.ndarray:
    if not np.isfinite(totals).all():
        raise ValueError("score must be finite")
    return totals


def _symbol_counts(rows: np.ndarray, k: int) -> np.ndarray:
    """``(len(rows), k)`` counts of each row's symbols, from one bincount
    per block (``stats._blocks``): the block's row i's symbols land in bins
    i*k .. i*k+k-1."""
    counts = np.empty((len(rows), k), np.int64)
    for lo, block in _blocks(rows, k * np.arange(len(rows))[:, None]):
        block -= k * lo  # bins counted from the block's first row
        counts[lo : lo + len(block)].flat = np.bincount(block.ravel(), minlength=len(block) * k)
    return counts


def score_dataset_per_pixel(
    dataset: ImageDataset, channel: Channel, smooth: bool = True
) -> np.ndarray:
    """Each image's summed scores under one score table per pixel position:
    an ``(n_images,)`` array in corpus order.

    Useful when pixel statistics vary across the image.  Per-pixel sample
    sizes are small, so marginals are smoothed by default and inversion
    negativity is clipped rather than rejected; a pixel whose recovered
    source has fewer than two live symbols contributes nothing.  All pixels
    are solved in one stacked pass per support pattern.
    """
    images = dataset.images
    n, n_pix = images.shape
    if n == 0:
        raise ValueError("empty dataset")
    k = channel.n_outputs
    # Pixels are checked in order: the first one holding a symbol outside the
    # channel's outputs fails after every earlier pixel has been solved.
    outside = np.flatnonzero(images.max(axis=0) >= k)
    stop = int(outside[0]) if outside.size else n_pix
    tables = np.zeros((n_pix, k))
    if stop:
        p_y = _pixel_counts(images, k, stop) / n
        if smooth:
            p_y = _smoothed(p_y, n)
        p_x = _recover(p_y, channel, tol=np.inf)
        for rows, keep_x, keep_y, w, px, py in _support_blocks(channel.matrix, p_x):
            if keep_x.size >= 2:  # else a constant pixel: no direction to detect
                tables[np.ix_(rows, keep_y)] = _coupling_scores(w, px, py)
    if outside.size:
        column = images[:, stop]
        raise ValueError(f"symbol {int(column[column >= k][0])} outside alphabet of size {k}")
    return _row_sums(tables.ravel(), images, k * np.arange(n_pix))  # pixel j's table at j*k


def _pixel_counts(images: np.ndarray, k: int, stop: int) -> np.ndarray:
    """``(stop, k)`` counts of the symbols of each of the first ``stop``
    pixels, from one bincount per block of images (``stats._blocks``): pixel
    j's symbols land in bins j*k .. j*k+k-1."""
    counts = np.zeros(stop * k, np.int64)
    for _, block in _blocks(images[:, :stop], k * np.arange(stop)):
        counts += np.bincount(block.ravel(), minlength=counts.size)
    return counts.reshape(stop, k)


def _scores_and_labels(scores, labels):
    """``scores`` as a finite 1-D float array, and ``labels`` as an array of
    the same shape (None stays None: unlabeled)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError(f"scores must be one-dimensional, got shape {scores.shape}")
    if labels is not None and (labels := np.asarray(labels)).shape != scores.shape:
        raise ValueError(f"labels of shape {labels.shape} for {scores.size} scores")
    return _finite(scores), labels


def separation_error(scores, labels) -> float:
    """Fraction of a balanced two-class corpus misplaced by score sorting.

    The low-score half is assigned to one class and the high-score half to
    the other, in whichever of the two orientations errs less (the scores
    carry an arbitrary overall sign).  Unlabeled (``labels`` None) raises.
    """
    scores, labels = _scores_and_labels(scores, labels)
    if not scores.size:
        raise ValueError("nothing to evaluate")
    if labels is None:
        raise ValueError("separation error needs labels")
    classes = np.unique(labels)
    if classes.size != 2:
        raise ValueError(f"need exactly two classes, got {classes.size}")
    counts = [(labels == c).sum() for c in classes]
    if counts[0] != counts[1]:
        raise ValueError("classes must be balanced")
    order = np.argsort(scores, kind="stable")
    low_half = labels[order[: counts[0]]]
    wrong_a = int((low_half != classes[0]).sum())  # low half called class 0
    wrong_b = int((low_half != classes[1]).sum())  # low half called class 1
    return 2.0 * min(wrong_a, wrong_b) / scores.size


def _curve_point(
    index: int,
    e: float,
    seed: int,
    dist_a: DiscreteDistribution,
    dist_b: DiscreteDistribution,
    width: int,
    height: int,
    n_per_class: int,
) -> CurvePoint:
    point_seed = seed ^ index
    gen_seed, noise_seed = np.random.SeedSequence(point_seed).generate_state(2)
    counts = np.zeros(dist_a.size, np.int64)  # the channel is square, on dist_a's alphabet
    channel, noisy = _noisy_two_class_images(
        int(gen_seed), int(noise_seed), n_per_class, width, height, dist_a, dist_b, e, counts
    )
    table = _image_scorer(DiscreteDistribution(counts / noisy.size), noisy, channel)
    labels = np.repeat(np.arange(2, dtype=np.int64), n_per_class)
    error = separation_error(_row_sums(table.scores, noisy), labels)
    return CurvePoint(
        e=float(e),
        error_probability=error,
        n_images=len(noisy),
        seed=point_seed,
    )


def resolve_threads(requested: int = 0, points: Optional[int] = None) -> int:
    """Worker count for sweeps: explicit, else CTDA_THREADS, else one per CPU
    (0 means auto at either level).

    Given a sweep's grid size ``points``, the count is also capped at the
    points and at the CPU count: more workers than either would only wait.
    """
    if requested < 0:
        raise ValueError("thread count cannot be negative")
    cpus = os.cpu_count() or 1
    count = requested
    if count == 0:
        env = os.environ.get("CTDA_THREADS", "0")
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"CTDA_THREADS={env!r} is not an integer") from None
        if count < 0:
            raise ValueError("CTDA_THREADS cannot be negative")
    count = count or cpus
    return count if points is None else min(count, points, cpus)


def error_vs_noise_curve(
    dist_a: DiscreteDistribution,
    dist_b: DiscreteDistribution,
    width: int,
    height: int,
    n_per_class: int,
    e_grid,
    seed: int,
    threads: int = 0,
) -> list:
    """Separation error of freshly generated corpora across noise levels.

    Each grid point gets its own corpus and channel noise, deterministically
    derived from ``seed`` and the point's position (seed XOR index), so the
    curve is reproducible regardless of the number of worker threads (at
    most the grid points and the CPU count; see ``resolve_threads``).
    """
    grid = [float(e) for e in e_grid]
    if not grid:
        raise ValueError("empty noise grid")
    workers = resolve_threads(threads, len(grid))
    point = functools.partial(
        _curve_point, seed=seed, dist_a=dist_a, dist_b=dist_b, width=width,
        height=height, n_per_class=n_per_class,
    )
    if workers == 1:  # serial: a one-thread pool raised `images` peak RSS 60.7 -> 64.6 MB
        return list(map(point, range(len(grid)), grid))
    from concurrent.futures import ThreadPoolExecutor  # costs ctda.cli's start-up 4-7 ms

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, range(len(grid)), grid))


# --- CSV output -------------------------------------------------------------


def save_scores_csv(scores, labels, path) -> None:
    """Write an ``index,label,score`` row per score (label cells blank when
    ``labels`` is None)."""
    scores, labels = _scores_and_labels(scores, labels)
    labels = repeat("", scores.size) if labels is None else labels
    _write_csv(path, ["index", "label", "score"], np.arange(scores.size), labels, scores)


def save_curve_csv(points: Sequence[CurvePoint], path) -> None:
    """Write ``e,error_probability,n_images,seed`` rows."""
    rows = [(pt.e, pt.error_probability, pt.n_images, pt.seed) for pt in points]
    _write_csv(path, ["e", "error_probability", "n_images", "seed"], *zip(*rows))
