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
from numpy.lib.stride_tricks import sliding_window_view

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
        if self.training_mse < 0 or self.validation_mse < 0:
            raise ValueError("mean squared errors cannot be negative")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def _windows(xc: np.ndarray, length: int) -> np.ndarray:
    # Row t-L is the window ending at t, newest sample first.
    return sliding_window_view(xc, length + 1)[:, ::-1]


def _check_series(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError("input and target must be 1-D series of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("series must be finite")
    return x, y


def _solve_loaded(gram: np.ndarray, rhs: np.ndarray, penalty: float = 0.0):
    """Solve ``(gram + penalty I) w = rhs``; returns ``(w, degenerate)``.
    A rank-deficient system is diagonally loaded and flagged ``degenerate``."""
    eye = np.eye(gram.shape[0])
    degenerate = bool(np.linalg.matrix_rank(gram + penalty * eye) < gram.shape[0])
    if degenerate:
        gram = gram + _JITTER * max(np.trace(gram), 1.0) * eye
    return np.linalg.solve(gram + penalty * eye, rhs), degenerate


def _centered_lstsq(a: np.ndarray, targets: np.ndarray, penalty: float = 0.0):
    """Affine least squares of ``targets`` on the columns of ``a`` (ridge
    ``penalty`` on the slopes); returns ``(coef, intercept, mse, degenerate)``.

    Columns and targets are centered by their means over the rows actually
    regressed on, so noiseless affine data is recovered exactly.
    """
    col_means = a.mean(axis=0)
    target_mean = float(targets.mean())
    ac = a - col_means
    tc = targets - target_mean
    coef, degenerate = _solve_loaded(ac.T @ ac, ac.T @ tc, penalty)
    residuals = tc - ac @ coef
    intercept = target_mean - float(coef @ col_means)
    return coef, intercept, float(np.mean(residuals**2)), degenerate


def fit_weights(x, y, length: int, mode: str = "infer") -> EqualizerModel:
    """Least-squares tap weights for a fixed model length.

    Solves the normal equations on mean-centered data over every index with
    a full window.  Rank-deficient Gram matrices (constant or collinear
    inputs) are diagonally loaded and flagged ``degenerate``.
    """
    x, y = _check_series(x, y)
    if length < 0:
        raise ValueError("model length must be >= 0")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = x.size
    if n <= length + 1:
        raise ValueError(
            f"insufficient data: {n} samples cannot fit length {length}"
        )
    mean_x = float(x.mean())
    a = _windows(x - mean_x, length)
    if mode == "infer":
        targets = y[length:]
    else:
        a = a[:-1]
        targets = y[length + 1 :]
    weights, mean_y, training_mse, degenerate = _centered_lstsq(a, targets)
    return EqualizerModel(
        length=length,
        weights=weights,
        mean_x=mean_x,
        mean_y=mean_y,
        training_mse=training_mse,
        mode=mode,
        degenerate=degenerate,
    )


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

    Only the span of ``x`` that the requested windows read is centered, so
    one index costs O(L) and every index O(n).
    """
    x = np.asarray(x, dtype=float)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(0)
    span, at = _window_span(idx, x.size, model.length)
    rows = _windows(x[span] - model.mean_x, model.length)[at]
    return model.mean_y + rows @ model.weights


def _validation_mse(model: EqualizerModel, x, y, start: int) -> float:
    """MSE of the model on targets ``y[start:]`` (windows may reach back)."""
    n = x.size
    offset = 1 if model.mode == "predict" else 0
    ends = np.arange(start, n) - offset
    est = estimate_series(model, x, ends)
    return float(np.mean((y[start:] - est) ** 2))


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
    ``n * ln(mse) + 2 (L + 1)``, on the full data.  Ties go to the smallest
    length.
    """
    x, y = _check_series(x, y)
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if criterion not in ("validation", "aic"):
        raise ValueError(f"unknown selection criterion {criterion!r}")
    n = x.size

    if criterion == "aic":
        if n <= max_length + 1:
            raise ValueError("insufficient data for the largest candidate length")
        best = None
        best_aic = np.inf
        for length in range(max_length + 1):
            model = fit_weights(x, y, length, mode)
            # log of an exactly-zero residual is clamped rather than -inf so
            # noiseless data still selects the smallest adequate length
            aic = n * np.log(max(model.training_mse, 1e-300)) + 2 * (length + 1)
            if aic < best_aic:
                best, best_aic = model, aic
        return dataclasses.replace(best, validation_mse=best.training_mse)

    split = int(0.8 * n)
    if split <= max_length + 1 or split >= n:
        raise ValueError("insufficient data for an 80/20 validation split")
    best_length = None
    best_val = np.inf
    for length in range(max_length + 1):
        candidate = fit_weights(x[:split], y[:split], length, mode)
        val = _validation_mse(candidate, x, y, split)
        if val < best_val:
            best_length, best_val = length, val
    final = fit_weights(x, y, best_length, mode)
    return dataclasses.replace(final, validation_mse=best_val)


def default_lms_step(x) -> float:
    """Conventional step size ``0.01 / var(x)`` for stable adaptation."""
    var = float(np.var(np.asarray(x, dtype=float)))
    if var == 0:
        raise ValueError("cannot scale an LMS step for a constant series")
    return 0.01 / var


def lms_update(model: EqualizerModel, x, y, n: int, step: float) -> EqualizerModel:
    """One stochastic-gradient correction of the taps at index ``n``.

    Moves each tap along its centered input times the estimation error,
    ``w[l] += step * err * (x[n - l] - mean_x)``; means and length stay
    fixed.  Non-finite results abort with an error (step too large).
    """
    if step <= 0:
        raise ValueError("LMS step must be positive")
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
