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
    sequence_score,
    solve_coupling,
)
from .dataio import ImageDataset, _noisy_two_class_images, _write_csv
from .stats import (
    Channel,
    DiscreteDistribution,
    _smoothed,
    empirical_distribution,
    smoothed_distribution,
)

# Recovered source entries more negative than this are treated as a modeling
# inconsistency rather than sampling noise.
NEGATIVITY_TOL = 1e-6


@dataclass(frozen=True)
class ScoredItem:
    """One scored image: corpus position, score, and optional true label."""

    index: int
    score: float
    label: Optional[int] = None

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError("score must be finite")


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


def score_dataset(dataset: ImageDataset, table: ScoreTable) -> list:
    """Score every image; labels (if present) are carried along for later
    evaluation only."""
    return _scored_items(_pooled_totals(dataset, table), dataset.labels)


def _pooled_totals(dataset: ImageDataset, table: ScoreTable) -> np.ndarray:
    """Each image's summed pixel scores under one ``table``."""
    if dataset.alphabet_size > table.scores.size:
        raise ValueError("score table does not cover the dataset's alphabet")
    return _row_sums(table.scores, dataset.images)


_BLOCK_IMAGES = 256  # images per step of a corpus-sized gather or count: no (n, pixels) temporary


def _row_sums(values: np.ndarray, index: np.ndarray, offset=None) -> np.ndarray:
    """Checked finite, each row's sum of ``values.take(index + offset)``
    (``offset``: None, or added to each row), gathered ``_BLOCK_IMAGES`` rows
    at a time.  Unless ``index`` is intp with no offset, each block is cast
    with its offset into one reused intp buffer, so ``take`` never converts
    a narrow dtype itself.  A row's sum does not depend on the blocking."""
    sums = np.empty(len(index))
    cast = offset is not None or index.dtype != np.intp
    rows = np.empty((min(len(index), _BLOCK_IMAGES), index.shape[1]), np.intp) if cast else None
    for lo in range(0, len(index), _BLOCK_IMAGES):
        block = index[lo : lo + _BLOCK_IMAGES]
        if cast:  # unsafe is exact: the indices are in range of ``values``
            block = np.add(block, 0 if offset is None else offset, out=rows[: len(block)],
                           dtype=np.intp, casting="unsafe")
        values.take(block).sum(axis=1, out=sums[lo : lo + len(block)])
    return _finite(sums)


def _finite(totals: np.ndarray) -> np.ndarray:
    if not np.isfinite(totals).all():
        raise ValueError("score must be finite")
    return totals


def _symbol_counts(rows: np.ndarray, alphabet: int) -> np.ndarray:
    """``(len(rows), alphabet)`` counts of each row's symbols, from one
    bincount per block of ``_BLOCK_IMAGES`` rows: the block's row i's
    symbols land in bins i*K .. i*K+K-1."""
    counts = np.empty((len(rows), alphabet), np.int64)
    bins = np.empty((min(len(rows), _BLOCK_IMAGES), rows.shape[1]), np.int64)
    for lo in range(0, len(rows), _BLOCK_IMAGES):
        block = counts[lo : lo + _BLOCK_IMAGES]
        n = len(block)
        np.add(rows[lo : lo + n], alphabet * np.arange(n)[:, None], out=bins[:n],
               dtype=np.int64, casting="unsafe")  # uint64 + int64 would be float
        block.flat = np.bincount(bins[:n].ravel(), minlength=block.size)
    return counts


def score_dataset_per_pixel(
    dataset: ImageDataset, channel: Channel, smooth: bool = True
) -> list:
    """Variant fitting one score table per pixel position.

    Useful when pixel statistics vary across the image.  Per-pixel sample
    sizes are small, so marginals are smoothed by default and inversion
    negativity is clipped rather than rejected; a pixel whose recovered
    source has fewer than two live symbols contributes nothing.  All pixels
    are solved in one stacked pass per support pattern.
    """
    return _scored_items(_per_pixel_totals(dataset, channel, smooth), dataset.labels)


def _per_pixel_totals(dataset: ImageDataset, channel: Channel, smooth: bool) -> np.ndarray:
    """Each image's summed scores under per-pixel tables."""
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
    pixels, from one bincount per block of ``_BLOCK_IMAGES`` images: pixel
    j's symbols land in bins j*k .. j*k+k-1."""
    counts = np.zeros(stop * k, np.int64)
    offset = k * np.arange(stop)
    bins = np.empty((min(len(images), _BLOCK_IMAGES), stop), np.int64)
    for lo in range(0, len(images), _BLOCK_IMAGES):
        rows = images[lo : lo + _BLOCK_IMAGES, :stop]
        np.add(rows, offset, out=bins[: len(rows)], dtype=np.int64, casting="unsafe")
        counts += np.bincount(bins[: len(rows)].ravel(), minlength=counts.size)
    return counts.reshape(stop, k)


def _scored_items(totals: np.ndarray, labels: Optional[np.ndarray]) -> list:
    return [
        ScoredItem(
            index=i,
            score=float(score),
            label=None if labels is None else int(labels[i]),
        )
        for i, score in enumerate(totals)
    ]


def separation_error(items: Sequence[ScoredItem]) -> float:
    """Fraction of a balanced two-class corpus misplaced by score sorting.

    The low-score half is assigned to one class and the high-score half to
    the other, in whichever of the two orientations errs less (the scores
    carry an arbitrary overall sign).
    """
    labels = [item.label for item in items]
    return _separation_error(
        np.array([item.score for item in items]), None if None in labels else np.array(labels)
    )


def _separation_error(totals: np.ndarray, labels: Optional[np.ndarray]) -> float:
    """``separation_error`` of images scored ``totals`` with ``labels``
    (None: unlabeled)."""
    if not len(totals):
        raise ValueError("nothing to evaluate")
    if labels is None:
        raise ValueError("separation error needs labeled items")
    classes = np.unique(labels)
    if classes.size != 2:
        raise ValueError(f"need exactly two classes, got {classes.size}")
    counts = [(labels == c).sum() for c in classes]
    if counts[0] != counts[1]:
        raise ValueError("classes must be balanced")
    order = np.argsort(totals, kind="stable")
    low_half = labels[order[: counts[0]]]
    wrong_a = int((low_half != classes[0]).sum())  # low half called class 0
    wrong_b = int((low_half != classes[1]).sum())  # low half called class 1
    return 2.0 * min(wrong_a, wrong_b) / len(totals)


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
    error = _separation_error(_row_sums(table.scores, noisy), labels)
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


def save_scores_csv(items: Sequence[ScoredItem], path) -> None:
    """Write ``index,label,score`` rows (label cell blank when unlabeled)."""
    rows = [(it.index, "" if it.label is None else int(it.label), it.score) for it in items]
    _write_csv(path, ["index", "label", "score"], *zip(*rows))


def save_curve_csv(points: Sequence[CurvePoint], path) -> None:
    """Write ``e,error_probability,n_images,seed`` rows."""
    rows = [(pt.e, pt.error_probability, pt.n_images, pt.seed) for pt in points]
    _write_csv(path, ["e", "error_probability", "n_images", "seed"], *zip(*rows))
