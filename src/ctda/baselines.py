"""Multivariate linear-regression baselines over a common lag window.

Unlike the per-channel equalizer bank, these models regress the target on
*all* channels jointly: the regressors at index ``t`` are every channel's
samples ``x_m[t - l]`` for ``l = 0 .. lag``.  ``fit_ols`` is plain least
squares; ``fit_bayes`` is the Gaussian-prior posterior mean, equivalent to
ridge regression with penalty ``noise_variance / prior_variance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equalizer import _lagged_sums, _solve_loaded, _window_span

METHODS = ("ols", "bayes")


@dataclass(frozen=True)
class LinearModel:
    """Joint linear regression coefficients over all channels.

    ``coefficients[m * (lag + 1) + l]`` multiplies ``x_m[t - l]``; the fit
    is affine, so ``intercept`` absorbs all the channel and target means.
    """

    coefficients: np.ndarray
    intercept: float
    common_lag: int
    residual_mse: float
    method: str = "ols"
    degenerate: bool = False

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coef)
        if self.common_lag < 0:
            raise ValueError("lag must be >= 0")
        if coef.ndim != 1 or coef.size == 0 or coef.size % (self.common_lag + 1):
            raise ValueError(
                f"coefficient count {coef.size} does not split into whole "
                f"channels of {self.common_lag + 1} lags"
            )
        if not np.all(np.isfinite(coef)) or not np.isfinite(self.intercept):
            raise ValueError("coefficients and intercept must be finite")
        if not np.isfinite(self.residual_mse):
            raise ValueError("residual MSE must be finite; rescale the series")
        if self.residual_mse < 0:
            raise ValueError("residual MSE cannot be negative")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def n_channels(self) -> int:
        return int(self.coefficients.size // (self.common_lag + 1))


def _as_matrix(xs) -> np.ndarray:
    x = np.asarray(xs, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("inputs must be one series or a stack of series")
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    return x


def _prepare(xs, y, lag: int):
    """Validate a fit's inputs; return its centred normal equations, from
    :func:`_lagged_sums` of the series shifted by their means, and
    ``finish(coef) -> (intercept, residual MSE)``, by ``np.convolve``."""
    x = _as_matrix(xs)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != x.shape[1]:
        raise ValueError("target must be a series matching the inputs' length")
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if x.shape[1] <= lag + 1:
        raise ValueError(f"insufficient data: {x.shape[1]} samples cannot fit lag {lag}")
    # Overflows are silent: _solve_loaded, then the models, refuse what is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        means, c = x.mean(axis=1), float(y[lag:].mean())
        xc, yc = x - means[:, None], y - c
        gram, sums, rhs, ysum, m = _lagged_sums(xc, yc, lag, y.size - 1, lag + 1)
        cgram, crhs = gram - sums[:, None] * sums / m, rhs - sums * (ysum / m)

    def finish(coef):
        with np.errstate(over="ignore", invalid="ignore"):
            b = (ysum - coef @ sums) / m  # intercept of the centred fit
            w = coef.reshape(x.shape[0], -1)
            est = sum(np.convolve(xm, wm, "valid") for xm, wm in zip(xc, w))
            mse = float(np.mean((yc[lag:] - b - est) ** 2))
            return c + b - float(w.sum(axis=1) @ means), mse

    return cgram, crhs, finish


def fit_ols(xs, y, common_lag: int) -> LinearModel:
    """Ordinary least squares of ``y[t]`` on every ``x_m[t - l]``.

    Rank-deficient designs (collinear channels) are diagonally loaded and
    flagged ``degenerate``.
    """
    cgram, crhs, finish = _prepare(xs, y, common_lag)
    coef, degenerate = _solve_loaded(cgram, crhs)
    intercept, mse = finish(coef)
    return LinearModel(coef, intercept, common_lag, mse, "ols", degenerate)


def fit_bayes(
    xs,
    y,
    common_lag: int,
    prior_variance: float = 1.0,
    noise_variance: float | None = None,
) -> LinearModel:
    """Posterior-mean coefficients under a zero-mean Gaussian prior.

    Equivalent to ridge regression with penalty ``noise_variance /
    prior_variance`` on the centered design.  When ``noise_variance`` is
    omitted, the OLS residual variance of the same design is used.
    """
    if not prior_variance > 0:  # NaN fails too; +inf is the flat prior, i.e. OLS
        raise ValueError("prior variance must be positive")
    cgram, crhs, finish = _prepare(xs, y, common_lag)
    if noise_variance is None:
        noise_variance = finish(_solve_loaded(cgram, crhs)[0])[1]
    if not 0 <= noise_variance < np.inf:
        raise ValueError("noise variance must be finite and nonnegative")
    penalty = noise_variance / prior_variance
    if not np.isfinite(penalty):
        raise ValueError("noise variance / prior variance overflows; raise the prior variance")
    coef, degenerate = _solve_loaded(cgram, crhs, penalty)
    intercept, mse = finish(coef)
    return LinearModel(coef, intercept, common_lag, mse, "bayes", degenerate)


def predict(model: LinearModel, xs, n: int) -> float:
    """Regression estimate of ``y[n]`` from all channels' lag windows."""
    return float(predict_series(model, xs, [n])[0])


def predict_series(model: LinearModel, xs, indices) -> np.ndarray:
    """Regression estimates at several indices."""
    x = _as_matrix(xs)
    if x.shape[0] != model.n_channels:
        raise ValueError(f"model covers {model.n_channels} channels, got {x.shape[0]}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(0)
    span, at = _window_span(idx, x.shape[1], model.common_lag)
    w = model.coefficients.reshape(x.shape[0], -1)
    with np.errstate(over="ignore", invalid="ignore"):
        est = sum(np.convolve(xm, wm, "valid") for xm, wm in zip(x[:, span], w))
        return model.intercept + est[at]


def linear_model_to_dict(model: LinearModel) -> dict:
    return {
        "type": model.method,
        "coefficients": model.coefficients.tolist(),
        "intercept": model.intercept,
        "common_lag": model.common_lag,
        "residual_mse": model.residual_mse,
        "degenerate": model.degenerate,
    }


def linear_model_from_dict(obj: dict) -> LinearModel:
    try:
        return LinearModel(
            coefficients=np.asarray(obj["coefficients"], dtype=float),
            intercept=float(obj["intercept"]),
            common_lag=int(obj["common_lag"]),
            residual_mse=float(obj["residual_mse"]),
            method=str(obj["type"]),
            degenerate=bool(obj.get("degenerate", False)),
        )
    except KeyError as exc:
        raise ValueError(f"model object missing key {exc}") from exc
