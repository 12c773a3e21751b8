"""Combine the estimates of several per-channel tap-delay-line models.

Mirrors receive diversity: each input series is an independent "branch"
observing the same target, and branch estimates are merged with one of

* ``mrc_inverse_mse``  -- weights proportional to inverse branch MSE,
* ``mrc_lmmse``        -- jointly least-squares optimal linear weights,
* ``equal_gain``       -- uniform weights,
* ``selective``        -- best single branch only.

Inverse-MSE and equal-gain weights are convex (nonnegative, sum to one);
LMMSE weights are unconstrained.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .equalizer import (
    EqualizerModel,
    _solve_loaded,
    estimate_series,
    model_from_dict,
    model_to_dict,
)

FUSION_MODES = ("mrc_inverse_mse", "mrc_lmmse", "equal_gain", "selective")

_ALPHA_TOL = 1e-9


@dataclass(frozen=True)
class FusionModel:
    """A bank of named branch models plus their combining weights."""

    channels: tuple
    alphas: np.ndarray
    mode: str
    degenerate: bool = False

    def __post_init__(self):
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        alphas = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "alphas", alphas)
        if len(channels) < 1:
            raise ValueError("fusion needs at least one channel")
        seen = set()
        for entry in channels:
            name, model = entry
            if not isinstance(model, EqualizerModel):
                raise ValueError(f"channel {name!r} is not an equalizer model")
            if name in seen:
                raise ValueError(f"duplicate channel name {name!r}")
            seen.add(name)
        if alphas.shape != (len(channels),):
            raise ValueError("need exactly one weight per channel")
        if self.mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode {self.mode!r}")
        _check_weights(alphas, self.mode)

    @property
    def names(self) -> list:
        return [name for name, _ in self.channels]

    @property
    def models(self) -> list:
        return [model for _, model in self.channels]


def _check_weights(alphas: np.ndarray, mode: str) -> None:
    """Raise ``ValueError`` unless every row of ``alphas`` (``(..., M)``) is
    a valid weight vector for fusion ``mode``."""
    if not np.all(np.isfinite(alphas)):
        raise ValueError("combining weights must be finite")
    if mode in ("mrc_inverse_mse", "equal_gain"):
        if np.any(alphas < -_ALPHA_TOL) or np.any(
            np.abs(alphas.sum(axis=-1) - 1.0) > _ALPHA_TOL
        ):
            raise ValueError(f"{mode} weights must be convex")
    if mode == "selective":
        hot = np.isclose(alphas, 1.0, atol=_ALPHA_TOL)
        cold = np.isclose(alphas, 0.0, atol=_ALPHA_TOL)
        if np.any(hot.sum(axis=-1) != 1) or not np.all(hot | cold):
            raise ValueError("selective weights must pick exactly one channel")


def mrc_weights_inverse_mse(mses) -> np.ndarray:
    """Convex weights proportional to ``1 / mse`` per channel.

    ``mses`` is ``(..., M)``: each row along the last axis gets its own
    weights.  A zero-MSE channel is a perfect branch: the first such channel
    of a row takes all of that row's weight.  Weights are formed as
    ``min(mse) / mse``, which lies in (0, 1], so a tiny MSE cannot overflow
    ``1 / mse`` into a NaN weight.
    """
    m = np.asarray(mses, dtype=float)
    if m.ndim == 0 or m.shape[-1] == 0:
        raise ValueError("need a non-empty vector of MSEs")
    if np.any(m < 0) or not np.all(np.isfinite(m)):
        raise ValueError("MSEs must be finite and nonnegative")
    zero = m == 0
    perfect = zero.any(axis=-1, keepdims=True)
    safe = np.where(perfect, 1.0, m)
    inv = safe.min(axis=-1, keepdims=True) / safe
    first_zero = zero & (np.cumsum(zero, axis=-1) == 1)
    return np.where(perfect, first_zero, inv / inv.sum(axis=-1, keepdims=True))


def mrc_weights_lmmse(predictions, y):
    """Unconstrained least-squares combining weights.

    Solves ``E[p p^T] alpha = E[p y]`` with sample moments over the supplied
    window, i.e. the weights minimizing the MSE of ``alpha @ predictions``.
    Returns ``(alphas, degenerate)``; a rank-deficient moment matrix (e.g.
    duplicated branches) is diagonally loaded and flagged.
    """
    p = np.atleast_2d(np.asarray(predictions, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or p.shape[1] != y.size:
        raise ValueError("predictions must be (M, n) matching targets of length n")
    if p.shape[1] == 0:
        raise ValueError("need at least one sample to estimate moments")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(y))):
        raise ValueError("predictions and targets must be finite")
    n = p.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # _solve_loaded refuses an overflow
        gram, rhs = (p @ p.T) / n, (p @ y) / n
    return _solve_loaded(gram, rhs)


def equal_gain_weights(n_channels: int) -> np.ndarray:
    if n_channels < 1:
        raise ValueError("need at least one channel")
    return np.full(n_channels, 1.0 / n_channels)


def selective_weights(mses) -> np.ndarray:
    """One-hot weights picking the smallest-MSE channel (first on ties)."""
    m = np.asarray(mses, dtype=float)
    if m.ndim != 1 or m.size == 0:
        raise ValueError("need a non-empty vector of MSEs")
    alphas = np.zeros(m.size)
    alphas[int(np.argmin(m))] = 1.0
    return alphas


def fuse(model: FusionModel, inputs: Sequence, n: int) -> float:
    """Combined estimate at window-end index ``n``.

    ``inputs[m]`` is the full input series of channel ``m``; each branch
    forms its own window estimate and the weighted sum is returned.
    """
    return float(fuse_series(model, inputs, [n])[0])


def fuse_series(model: FusionModel, inputs: Sequence, indices) -> np.ndarray:
    """Combined estimates at several window-end indices."""
    if len(inputs) != len(model.channels):
        raise ValueError("need one input series per channel")
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros(idx.size)
    for alpha, (_, eq), x in zip(model.alphas, model.channels, inputs):
        out += alpha * estimate_series(eq, x, idx)
    return out


def select_channels(channels, policy: str, k: int | None = None, threshold: float | None = None):
    """Filter a list of ``(name, model)`` pairs before fusing.

    ``top_k`` keeps the ``k`` smallest validation-MSE channels (ties broken
    by name); asking for more channels than exist keeps them all with a
    warning.  ``mse_threshold`` keeps channels with validation MSE at most
    ``threshold``; when none qualify the single best channel is kept and
    the returned flag is True.

    Returns ``(selected, forced_best)``.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("no channels to select from")
    ranked = sorted(channels, key=lambda nc: (nc[1].validation_mse, nc[0]))
    if policy == "top_k":
        if k is None or k < 1:
            raise ValueError("top_k selection needs k >= 1")
        if k > len(channels):
            warnings.warn(
                f"requested top {k} of {len(channels)} channels; keeping all",
                stacklevel=2,
            )
            k = len(channels)
        return ranked[:k], False
    if policy == "mse_threshold":
        if threshold is None:
            raise ValueError("mse_threshold selection needs a threshold")
        kept = [nc for nc in ranked if nc[1].validation_mse <= threshold]
        if kept:
            return kept, False
        return ranked[:1], True
    raise ValueError(f"unknown selection policy {policy!r}")


def online_alpha_update(model: FusionModel, squared_errors, window: int) -> FusionModel:
    """Refresh inverse-MSE weights from a trailing window of squared errors.

    ``squared_errors[m]`` holds channel ``m``'s past squared estimation
    errors, oldest first; every history has the same length.  The new
    weights are the final row of :func:`online_inverse_mse_weights` over the
    last ``window`` errors, with its warning when fewer are available.  With
    no completed errors at all the model is returned unchanged.
    """
    if model.mode != "mrc_inverse_mse":
        raise ValueError("online weight updates require mrc_inverse_mse fusion")
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(squared_errors) != len(model.channels):
        raise ValueError("need one error history per channel")
    if len({np.shape(h) for h in squared_errors}) > 1:
        raise ValueError("error histories must share one length")
    err = np.asarray(squared_errors, dtype=float)
    if err.size == 0:
        return model
    rows = _online_rows(err[:, -window:], window, model.alphas)
    return dataclasses.replace(model, alphas=rows[-1])


def online_inverse_mse_weights(squared_errors, window: int, initial) -> np.ndarray:
    """Inverse-MSE weights refreshed after every sample from a trailing window.

    ``squared_errors`` is ``(M, n)``: channel ``m``'s squared estimation
    error at each of ``n`` samples, oldest first.  Returns an ``(n + 1, M)``
    array whose row ``i`` holds the weights in force for sample ``i``: row 0
    is ``initial``, and row ``i >= 1`` comes from the mean of the last
    ``window`` errors of samples ``0 .. i - 1`` (all of them while fewer
    exist).  Row ``n`` holds the final weights; one warning is given when
    even it rests on fewer than ``window`` errors (``0 < n < window``).
    Computed in one vectorized pass of at most ``M * n * window`` additions.
    """
    return _online_rows(squared_errors, window, initial)


def _online_rows(squared_errors, window: int, initial) -> np.ndarray:
    """``online_inverse_mse_weights``, for each public entry point to call
    directly: its short-window warning names that entry point's caller."""
    err = np.asarray(squared_errors, dtype=float)
    if err.ndim != 2:
        raise ValueError("squared errors must be an (M, n) array, one row per channel")
    if np.any(err < 0) or not np.all(np.isfinite(err)):
        raise ValueError("squared errors must be finite and nonnegative")
    if window < 1:
        raise ValueError("window must be >= 1")
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (err.shape[0],):
        raise ValueError("need one initial weight per channel")
    n = err.shape[1]
    short = min(n, window - 1)
    if 0 < n < window:
        warnings.warn(
            "fewer completed errors than the update window; using all available",
            stacklevel=3,
        )
    # Rows 1 .. short average every error so far; later rows a full window.
    mses = np.cumsum(err[:, :short], axis=1) / np.arange(1, short + 1)
    if n >= window:
        mses = np.hstack([mses, sliding_window_view(err, window, axis=1).mean(axis=-1)])
    rows = np.vstack([initial, mrc_weights_inverse_mse(mses.T)])
    _check_weights(rows, "mrc_inverse_mse")
    return rows


def fusion_to_dict(model: FusionModel) -> dict:
    return {
        "mode": model.mode,
        "alphas": model.alphas.tolist(),
        "degenerate": model.degenerate,
        "channels": [
            {"name": name, "model": model_to_dict(eq)} for name, eq in model.channels
        ],
    }


def fusion_from_dict(obj: dict) -> FusionModel:
    try:
        channels = tuple(
            (entry["name"], model_from_dict(entry["model"]))
            for entry in obj["channels"]
        )
        return FusionModel(
            channels=channels,
            alphas=np.asarray(obj["alphas"], dtype=float),
            mode=str(obj["mode"]),
            degenerate=bool(obj.get("degenerate", False)),
        )
    except KeyError as exc:
        raise ValueError(f"fusion object missing key {exc}") from exc
