"""Tap-delay-line models linking an input series to a target series.

A model of length ``L`` carries ``L + 1`` taps: the estimate formed at index
``n`` is

    y_hat = mean_y + sum_{l=0..L} w[l] * (x[n - l] - mean_x)

i.e. a linear combination of the current and the ``L`` most recent input
samples, after centering both series by their training means.  The same
window is used either to reconstruct the concurrent target (``infer`` mode)
or the next one (``predict`` mode).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

MODES = ("infer", "predict")

# Diagonal loading factor applied when the normal equations are rank
# deficient (scaled by trace of the Gram matrix).
_JITTER = 1e-10


@dataclass(frozen=True)
class EqualizerModel:
    """Fitted tap weights plus the statistics needed to apply them.

    ``validation_mse`` is 0.0 unless the model came out of a selection
    procedure that held data back.  ``degenerate`` marks fits whose normal
    equations needed diagonal loading (collinear or constant inputs).
    """

    length: int
    weights: np.ndarray
    mean_x: float
    mean_y: float
    training_mse: float
    validation_mse: float = 0.0
    mode: str = "infer"
    degenerate: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.length < 0:
            raise ValueError("model length must be >= 0")
        if w.shape != (self.length + 1,):
            raise ValueError(
                f"length {self.length} model needs {self.length + 1} taps, "
                f"got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("tap weights must be finite")
        if not (np.isfinite(self.mean_x) and np.isfinite(self.mean_y)):
            raise ValueError("training means must be finite")
        if not (np.isfinite(self.training_mse) and np.isfinite(self.validation_mse)):
            raise ValueError("mean squared errors must be finite; rescale the series")
        if self.training_mse < 0 or self.validation_mse < 0:
            raise ValueError("mean squared errors cannot be negative")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def _check_series(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError("input and target must be 1-D series of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("series must be finite")
    return x, y


def _solve_loaded(gram: np.ndarray, rhs: np.ndarray, penalty: float = 0.0):
    """Solve ``(gram + penalty I) w = rhs`` for a symmetric ``gram``; returns
    ``(w, degenerate)``.  A rank-deficient system is diagonally loaded and
    flagged ``degenerate``; an overflowed one is refused before LAPACK sees it."""
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise ValueError("normal equations overflow float64; rescale the series")
    a, diag = gram.copy(), slice(None, None, gram.shape[0] + 1)
    a.flat[diag] += penalty
    degenerate = bool(np.linalg.matrix_rank(a, hermitian=True) < a.shape[0])
    if degenerate:
        a.flat[diag] = gram.diagonal() + _JITTER * max(np.trace(gram), 1.0) + penalty
    return np.linalg.solve(a, rhs), degenerate


def _walk(xc: np.ndarray, yc: np.ndarray, shift: int, max_length: int):
    """Yield ``(gram, sums, rhs, ysum, m)`` for each length ``L = 0 ..
    max_length``: the sums over the windows of ``L + 1`` samples of ``xc``
    ending at ``L .. last`` (newest sample first; ``last = xc.size - 1 -
    shift``) paired with targets ``yc[end + shift]``, and their count ``m``.
    The arrays are views that the next step overwrites.

    Order-recursive, by the covariance method (Morf, Dickinson, Kailath and
    Vieira, IEEE Trans. ASSP 1977): length ``L`` subtracts the window ending
    at ``L - 1`` from length ``L - 1``'s sums and adds the lag-``L`` column,
    one dot for its first entry and its right-hand side, and a step down
    each diagonal, ``G[i, L] = G[i-1, L-1] + xc[L-i] xc[0] - xc[last-i+1]
    xc[last-L+1]``, for the rest.  O(rows) per length plus O(L**2) for the
    downdate, and length ``L``'s sums never depend on ``max_length``, so a
    walk to ``L`` alone reproduces them bit for bit."""
    last = xc.size - 1 - shift
    taps = max_length + 1
    gram, sums, rhs = np.empty((taps, taps)), np.empty(taps), np.empty(taps)
    head, t = xc[: last + 1], yc[shift : last + 1 + shift]
    gram[0, 0], sums[0], rhs[0], ysum = head @ head, head.sum(), head @ t, t.sum()
    for length in range(taps):
        if length:
            row, gone = xc[length - 1 :: -1], yc[length - 1 + shift]  # the window leaving
            gram[:length, :length] -= row[:, None] * row
            sums[:length] -= row
            rhs[:length] -= row * gone
            ysum -= gone
            end = xc[last - length + 1]  # the oldest sample of the last window
            gram[0, length] = xc[length : last + 1] @ xc[: last + 1 - length]
            gram[1 : length + 1, length] = (gram[:length, length - 1] + row * xc[0]
                                            - xc[last - length + 1 : last + 1][::-1] * end)
            gram[length, :length] = gram[:length, length]
            sums[length] = sums[length - 1] + xc[0] - end
            rhs[length] = xc[: last + 1 - length] @ yc[length + shift : last + 1 + shift]
        k = length + 1
        yield gram[:k, :k], sums[:k], rhs[:k], ysum, last + 1 - length


def _walk_model(state, length: int, mean_x: float, c: float, mode: str) -> EqualizerModel:
    """The least-squares model of one :func:`_walk` state of series centred
    by ``mean_x`` and ``c``; its training MSE is left at 0."""
    gram, sums, rhs, ysum, m = state
    weights, degenerate = _solve_loaded(gram - sums[:, None] * sums / m,
                                        rhs - sums * (ysum / m))
    mean_y = c + (ysum - weights @ sums) / m
    return EqualizerModel(length, weights, mean_x, mean_y, 0.0, mode=mode, degenerate=degenerate)


def fit_weights(x, y, length: int, mode: str = "infer") -> EqualizerModel:
    """Least-squares tap weights for a fixed model length.

    Solves the normal equations over every index with a full window,
    centred over those rows (noiseless affine data is recovered exactly).
    They come from a :func:`_walk` of the series centred by their means, so
    no window matrix is built, and the training MSE from ``np.convolve``.
    Rank-deficient Gram matrices (constant or collinear inputs) are
    diagonally loaded and flagged ``degenerate``.
    """
    x, y = _check_series(x, y)
    if length < 0:
        raise ValueError("model length must be >= 0")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = x.size
    if n <= length + 1:
        raise ValueError(f"insufficient data: {n} samples cannot fit length {length}")
    shift = _lead(mode)
    # Overflows are silent: _solve_loaded, then the model, refuse what is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_x, c = float(x.mean()), float(y.mean())
        *_, state = _walk(x - mean_x, y - c, shift, length)  # the last state
        model = _walk_model(state, length, mean_x, c, mode)
        mse = _validation_mse(model, x, y, length + shift)
    return dataclasses.replace(model, training_mse=mse)


def infer(model: EqualizerModel, x, n: int) -> float:
    """Estimate the concurrent target ``y[n]`` from ``x[n-L .. n]``."""
    return float(estimate_series(model, x, [n])[0])


def predict_next(model: EqualizerModel, x, n: int) -> float:
    """Estimate the upcoming target ``y[n+1]`` from ``x[n-L .. n]``.

    Same window arithmetic as :func:`infer`; meaningful when the weights
    were fitted in ``predict`` mode.
    """
    return float(estimate_series(model, x, [n])[0])


def _window_span(idx: np.ndarray, n: int, length: int) -> tuple[slice, np.ndarray]:
    """Check window-end indices into a series of ``n`` samples; return the
    slice of samples their windows read and each index's row within it."""
    outside = idx[(idx < 0) | (idx >= n)]
    if outside.size:
        raise ValueError(f"index {outside[0]} outside series of length {n}")
    first = int(idx.min())
    if first < length:
        raise ValueError(
            f"insufficient history: index {first} needs {length} past samples "
            "for a full window"
        )
    return slice(first - length, int(idx.max()) + 1), idx - first


def estimate_series(model: EqualizerModel, x, indices) -> np.ndarray:
    """Window estimates at several window-end indices.

    ``np.convolve`` runs over the span of ``x`` that the requested windows
    read, so one index costs O(L) and every index O(n * L); a few indices
    far apart still cost O(span * L).
    """
    x = np.asarray(x, dtype=float)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(0)
    span, at = _window_span(idx, x.size, model.length)
    return _span_estimates(model, x, span.start + model.length, span.stop)[at]


def _span_estimates(model: EqualizerModel, x: np.ndarray, first: int, stop: int) -> np.ndarray:
    """Estimates at the window ends ``first .. stop - 1``, which must have
    full windows in ``x``.  Any sub-span gives the same values bit for bit."""
    return model.mean_y + np.convolve(x[first - model.length : stop] - model.mean_x,
                                      model.weights, "valid")


def _lead(mode: str) -> int:
    """Samples from a window's end to its target: 1 in ``predict`` mode."""
    return 1 if mode == "predict" else 0


def _estimate_targets(model: EqualizerModel, x, targets) -> np.ndarray:
    """Estimates of ``y[targets]``; a ``predict`` model reads the window
    ending one sample before each target."""
    return estimate_series(model, x, np.asarray(targets) - _lead(model.mode))


def _validation_mse(model: EqualizerModel, x, y, start: int) -> float:
    """MSE of the model on targets ``y[start:]`` (windows may reach back)."""
    lead = _lead(model.mode)
    est = _span_estimates(model, x, start - lead, x.size - lead)
    with np.errstate(over="ignore"):  # select_length refuses a score that is not finite
        return float(np.mean((y[start:] - est) ** 2))


def _lagged_sums(xs, yc: np.ndarray, first: int, last: int, taps: int):
    """Sums over the windows of ``taps`` samples of each series in ``xs``
    ending at ``first .. last`` (newest sample first, one block of columns
    per series) paired with targets ``yc[end]``: the Gram matrix,
    column sums, right-hand side, target sum and row count.

    O(rows * taps) per pair of series, by the covariance method (Morf,
    Dickinson, Kailath and Vieira, IEEE Trans. ASSP 1977): ``np.correlate``
    gives each pair's first Gram row and column, and every other entry steps
    down its diagonal, ``G[i+1, j+1] = G[i, j] + x_a[first-1-i] x_b[first-1-j]
    - x_a[last-i] x_b[last-j]``, as do the column sums."""
    xs = np.atleast_2d(xs)
    n_ch, k = xs.shape[0], taps
    span = xs[:, first - k + 1 : last + 1]  # every sample the windows read
    ends, t = span[:, k - 1 :], yc[first : last + 1]
    enter, leave = span[:, : k - 1][:, ::-1], span[:, ::-1][:, : k - 1]
    row0 = np.array([[np.correlate(b, a)[::-1] for b in span] for a in ends])  # [a, b, j]
    gram = np.empty((n_ch, k, n_ch, k))  # [a, i, b, j]: x_a lag i times x_b lag j
    gram[:, 0], gram[:, :, :, 0] = row0, row0.transpose(1, 2, 0)
    for i in range(k - 1):
        step = enter[:, i, None, None] * enter - leave[:, i, None, None] * leave
        np.add(gram[:, i, :, :-1], step, out=gram[:, i + 1, :, 1:])
    sums = np.cumsum(np.column_stack([ends.sum(axis=1), enter - leave]), axis=1)
    rhs = np.array([np.correlate(a, t)[::-1] for a in span])
    return gram.reshape(n_ch * k, n_ch * k), sums.ravel(), rhs.ravel(), float(t.sum()), t.size


def select_length(
    x,
    y,
    max_length: int,
    criterion: str = "validation",
    mode: str = "infer",
) -> EqualizerModel:
    """Pick a model length in ``0 .. max_length`` and fit it.

    ``validation`` fits each candidate on the first 80% of the samples,
    scores it on the held-back 20%, then refits the winner on everything
    (recording both MSEs).  ``aic`` trades training MSE against tap count,
    ``n * ln(mse) + 2 (L + 1)``, on the full data.  Either score reads an
    MSE below ``eps`` times the centred fitted target's energy per row as
    that floor, so fits exact to rounding tie, and ties go to the smallest
    length.

    Cost: one :func:`_walk` over the fitted rows, O(n * max_length) dots,
    plus one rank check, one solve and one ``np.convolve`` score per
    length.  Each candidate is the model :func:`fit_weights` returns for its
    rows, bit for bit, so the choice is the one that refitting every length
    makes.  A series whose every score overflows float64 raises
    ``ValueError``.
    """
    x, y = _check_series(x, y)
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if criterion not in ("validation", "aic"):
        raise ValueError(f"unknown selection criterion {criterion!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = x.size
    shift = _lead(mode)
    aic = criterion == "aic"
    # Rows fitted; validation scores the rest, never none: int(0.8 n) < n.
    split = n if aic else int(0.8 * n)
    if split <= max_length + 1:
        raise ValueError(
            "insufficient data for the largest candidate length" if aic
            else "insufficient data for an 80/20 validation split"
        )
    best, best_value, best_mse = None, np.inf, np.inf
    # Overflows are silent: _solve_loaded, the models and the scores refuse them.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_x, c = float(x[:split].mean()), float(y[:split].mean())
        xc, yc = x[:split] - mean_x, y[:split] - c
        energy = float(yc @ yc) / split  # of the centred fitted target, per row
        floor = max(np.finfo(float).eps * energy if np.isfinite(energy) else 0.0,
                    np.finfo(float).tiny)
        for length, state in enumerate(_walk(xc, yc, shift, max_length)):
            model = _walk_model(state, length, mean_x, c, mode)
            mse = _validation_mse(model, x, y, length + shift if aic else split)
            value = max(mse, floor)
            if aic:
                model = dataclasses.replace(model, training_mse=mse, validation_mse=mse)
                value = n * np.log(value) + 2 * (length + 1)
            if value < best_value:
                best, best_value, best_mse = model, value, mse
    del state  # the walk's buffers, before the refit walks again
    if best is None:
        raise ValueError("no candidate length has a finite score; rescale the series")
    if aic:
        return best
    final = fit_weights(x, y, best.length, mode)  # the winner on all the data
    return dataclasses.replace(final, validation_mse=best_mse)


def default_lms_step(x) -> float:
    """Conventional step size ``0.01 / var(x)`` for stable adaptation."""
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.var(np.asarray(x, dtype=float)))
    if not np.isfinite(var):
        raise ValueError("the series' variance overflows float64; rescale the series")
    if var == 0:
        raise ValueError("cannot scale an LMS step for a constant series")
    return 0.01 / var


def lms_update(model: EqualizerModel, x, y, n: int, step: float) -> EqualizerModel:
    """One stochastic-gradient correction of the taps at index ``n``.

    Moves each tap along its centered input times the estimation error,
    ``w[l] += step * err * (x[n - l] - mean_x)``; means and length stay
    fixed.  Non-finite results abort with an error (step too large).
    """
    if not 0 < step < np.inf:
        raise ValueError("LMS step must be finite and positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    err = y[n] - infer(model, x, n)
    window = x[n - model.length : n + 1][::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        weights = model.weights + step * err * (window - model.mean_x)
    if not np.all(np.isfinite(weights)):
        raise ValueError("LMS update diverged; reduce the step size")
    return dataclasses.replace(model, weights=weights)


def model_to_dict(model: EqualizerModel) -> dict:
    return {
        "length": model.length,
        "weights": model.weights.tolist(),
        "mean_x": model.mean_x,
        "mean_y": model.mean_y,
        "training_mse": model.training_mse,
        "validation_mse": model.validation_mse,
        "mode": model.mode,
        "degenerate": model.degenerate,
    }


def model_from_dict(obj: dict) -> EqualizerModel:
    try:
        return EqualizerModel(
            length=int(obj["length"]),
            weights=np.asarray(obj["weights"], dtype=float),
            mean_x=float(obj["mean_x"]),
            mean_y=float(obj["mean_y"]),
            training_mse=float(obj["training_mse"]),
            validation_mse=float(obj["validation_mse"]),
            mode=str(obj["mode"]),
            degenerate=bool(obj.get("degenerate", False)),
        )
    except KeyError as exc:
        raise ValueError(f"model object missing key {exc}") from exc
