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
        if not (np.isfinite(self.training_mse) and np.isfinite(self.validation_mse)):
            raise ValueError("mean squared errors must be finite; rescale the series")
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
    A rank-deficient system is diagonally loaded and flagged ``degenerate``;
    an overflowed one is refused before LAPACK sees it."""
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise ValueError("normal equations overflow float64; rescale the series")
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
    shift = _lead(mode)
    a = _windows(x - mean_x, length)[: n - length - shift]
    targets = y[length + shift :]
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


def _lead(mode: str) -> int:
    """Samples from a window's end to its target: 1 in ``predict`` mode."""
    return 1 if mode == "predict" else 0


def _estimate_targets(model: EqualizerModel, x, targets) -> np.ndarray:
    """Estimates of ``y[targets]``; a ``predict`` model reads the window
    ending one sample before each target."""
    return estimate_series(model, x, np.asarray(targets) - _lead(model.mode))


def _validation_mse(model: EqualizerModel, x, y, start: int) -> float:
    """MSE of the model on targets ``y[start:]`` (windows may reach back)."""
    est = _estimate_targets(model, x, np.arange(start, x.size))
    return float(np.mean((y[start:] - est) ** 2))


def _lagged_sums(xc: np.ndarray, yc: np.ndarray, first: int, last: int, taps: int,
                 shift: int):
    """Sums over the windows of ``taps`` samples ending at ``first .. last``
    (newest sample first) paired with targets ``yc[end + shift]``: the Gram
    matrix, column sums, right-hand side, target sum, target sum of squares
    and row count."""
    a = np.ascontiguousarray(_windows(xc[first - taps + 1 : last + 1], taps - 1))
    t = yc[first + shift : last + 1 + shift]
    return a.T @ a, a.sum(axis=0), a.T @ t, float(t.sum()), float(t @ t), t.size


def _length_bounds(gram, sums, rhs, ysum, yy, m, c, held, lam, own):
    """``(lo, hi, own)`` for the length whose sums these are, or None when
    only a direct fit can say what it scores.  ``lam`` is a lower bound on
    the exact centred Gram's smallest eigenvalue.  The Gram's own
    eigenvalues tighten it when ``own`` is set or ``lam`` fails the rank
    test; the returned ``own`` says whether they were used."""
    eps = np.finfo(float).eps
    k = sums.size
    cgram = gram - sums[:, None] * sums / m
    crhs = rhs - sums * (ysum / m)
    if not (np.isfinite(cgram).all() and np.isfinite(crhs).all()):
        return None
    trace = float(gram.trace())
    eta = 4 * (m + k * k) * eps * trace
    lamax = float(cgram.trace()) + eta
    if own or not lam > 2 * eta + 2 * k * eps * lamax:
        eig = np.linalg.eigvalsh(cgram)
        lam, lamax, own = max(lam, eig[0] - eta), min(lamax, eig[-1] + eta), True
        if not lam > 2 * eta + 2 * k * eps * lamax:
            return None  # matrix_rank's verdict could go either way
    w = np.linalg.solve(cgram, crhs)
    b = (ysum - w @ sums) / m  # intercept minus c
    g = (m + k + 6) * eps
    raw_y = np.sqrt(yy) + np.sqrt(m) * abs(c)
    wd = np.abs(w) @ np.sqrt(gram.diagonal())
    eta_r = 4 * g * np.sqrt(trace) * (np.sqrt(yy) + g * raw_y)
    dw = 2 * (eta * np.linalg.norm(w) + eta_r) / (lam - eta)
    if held is None:
        mse = (yy - ysum * ysum / m - 2 * (w @ crhs) + w @ cgram @ w) / m
        e, r = 2 * (wd + np.sqrt(yy)), raw_y + wd
        band = 8 * g * e * (e + r) + 2 * (g * r) ** 2 + 4 * dw * dw * lamax
        band /= m
    else:
        vgram, vsums, vrhs, vysum, vyy, mv = held
        vgram, vsums, vrhs = vgram[:k, :k], vsums[:k], vrhs[:k]
        mse = (
            w @ vgram @ w + 2 * b * (w @ vsums) + b * b * mv
            - 2 * (w @ vrhs) - 2 * b * vysum + vyy
        ) / mv
        dv = np.sqrt(vgram.diagonal())
        db = 2 * g * (raw_y + wd) / np.sqrt(m) + 4 * eps * (abs(b) + abs(c))
        delta = dw * np.linalg.norm(dv) + np.sqrt(mv) * (db + dw * np.sqrt(trace / m))
        e = np.abs(w) @ dv + np.sqrt(mv) * abs(b) + np.sqrt(vyy) + delta
        r = e + np.sqrt(mv) * abs(c)
        gv = (mv + 2 * k + 6) * eps
        band = 8 * gv * e * (e + r) + 2 * (gv * r) ** 2 + 4 * e * delta + 2 * delta**2
        band /= mv
    if not (np.isfinite(mse) and np.isfinite(band)):
        return None
    return mse - band, mse + band, own


def _mse_bounds(xc, yc, c, last, max_length, shift, held=None, value=None):
    """Bounds ``(lo, hi)`` on the MSE that each length ``0 .. max_length``
    gets when fitted the direct way: training MSE, or with ``held`` (the
    validation rows' sums) the held-out MSE.  ``xc`` is the input centred by
    its training mean, ``yc`` the target minus ``c``, and ``last`` the final
    training window end.  ``value(mse, length)``, the criterion (the MSE
    itself by default), decides which bands are worth tightening.

    One lag-``max_length`` Gram over the window ends every length shares
    (``>= max_length``) serves all lengths.  Walking down from
    ``max_length``, length ``L`` adds the one earlier row only it and the
    shorter lengths use to running copies of those sums, and centres
    through the sums.  One eigen-decomposition of the shared centred Gram
    bounds every length's smallest eigenvalue.  Each band bounds the
    rounding of both computations: it scales with the summed terms (column
    norms, target norm, row count times eps) and with the weights'
    sensitivity (smallest eigenvalue), never with the MSE itself.  Lengths
    whose rank check is degenerate or close get ``(-inf, inf)``: only a
    direct fit can say what they score.
    """
    # Where the band comes from.  u = eps / 2.  A sum or dot product of n
    # terms, in any order, is off by at most gamma_n = n u / (1 - n u) times
    # the sum of its terms' magnitudes (Higham, "Accuracy and Stability of
    # Numerical Algorithms", 2nd ed., sec. 3.1).  By Cauchy-Schwarz each such
    # magnitude sum is at most a product of column norms d_i = sqrt(G_ii),
    # target norms and sqrt(rows).  Every constant below but eta is at least
    # twice what its term needs; that slack absorbs the second-order terms.
    # The running sums add a length's rows to the shared sums one at a time:
    # each entry is still a sum of the same terms, so all of this holds.
    # - eta: per computation, the largest 2-norm distance from the exact
    #   centred Gram C to a matrix whose exact eigenvalues, singular values
    #   or solution it returns.  Forming and centring the Gram errs by at
    #   most (3 gamma_(m+1) + 5 u) d_i d_j per entry, so (3 m + 8) u trace(G)
    #   in norm (the d_i d_j matrix has Frobenius norm trace(G)).  LAPACK's
    #   eigen, SVD and LU routines add a backward error p(k) u |C| with p
    #   only called "modestly growing" in the LAPACK Users' Guide (the LU
    #   worst case is O(k^3) times the pivot growth).  eta = 8 (m + k^2) u
    #   trace(G) leaves p(k) <= 5 m + 8 k^2 - 8.  That is an assumption,
    #   checked by tests/test_select_length.py at the benchmark's size
    #   (n = 20,000, max_length = 40).
    # - lam <= lambda_min(C) and lamax >= lambda_max(C).  Length L's rows,
    #   the window ends L .. last, include the shared ends max_length ..
    #   last, and its k columns are the shared windows' leading k.  A row r
    #   added to m rows of mean mu adds m / (m + 1) (r - mu)(r - mu)^T to
    #   the centred scatter, so C is at least the leading k block of the
    #   shared centred Gram C_S in the positive semidefinite order.  By
    #   Cauchy interlacing (Horn and Johnson, "Matrix Analysis", ch. 4) that
    #   block's smallest eigenvalue is at least lambda_min(C_S), hence
    #   lam = eig_S[0] - eta_S (eta at C_S's size and rows) from one
    #   eigvalsh of C_S serves every length.  C is positive semidefinite, so
    #   lambda_max(C) <= trace(C), and lamax = the computed centred trace +
    #   eta.  Own eigenvalues give lam = eig[0] - eta and lamax = eig[-1] +
    #   eta; a length takes them (keeping the tighter of each pair) when the
    #   shared lam fails its rank test, or when its band is one of two or
    #   more that reach the smallest upper bound, the only bands that send
    #   lengths to a direct fit.  Those are scored again from per-length
    #   sums; both bands hold the direct score, so it keeps their overlap.
    # - rank: matrix_rank calls the direct Gram full rank when its smallest
    #   singular value exceeds k eps times its largest; these lie within eta
    #   of [lam, lamax] (Weyl), hence the test lam > 2 eta + 2 k eps lamax.
    # - eta_r: per computation, the right-hand side's error, 3 gamma_(m+1)
    #   d_i |yc| per entry, plus in the direct path the target mean's error
    #   (gamma_m raw_y / sqrt(m), raw_y counting the offset c) times the sum
    #   of the rounded centred column (gamma_m sqrt(m) d_i).
    # - dw: a solution of (C + E) w = rhs + f, |E| <= eta, |f| <= eta_r, lies
    #   within (eta |w| + eta_r) / lambda_min(C + E) of the exact one.
    #   Summing both computations' distances bounds their weights' distance
    #   by 2 (eta |w| + eta_r) / (lam - eta).
    # - db: each intercept sums m targets and m-row columns
    #   (gamma_(m+k) (raw_y + wd) / sqrt(m)) and rounds one subtraction
    #   (u (|b| + |c|)); the weights' distance moves it by at most
    #   dw |mean column| <= dw sqrt(trace / m).
    # - training band, on m times the MSE: the training MSE is stationary in
    #   the weights, so the two fits' exact scores differ by at most
    #   dw^2 lamax, and the direct path's rounded target mean adds
    #   m (gamma_m r / sqrt(m))^2, with r = raw_y + wd.  Evaluating either
    #   score errs by at most gamma_(m+k+2) e^2, e = 2 (wd + |yc|).
    # - held-out band, on mv times the MSE: e bounds either fit's residual
    #   norm on the held rows and r adds the offset the direct path's
    #   uncentred estimates carry.  The quadratic form here errs by
    #   gamma_(mv+2k+8) e^2 (its six sums' magnitudes add up to e^2).  The
    #   direct path errs by at most gamma_(k+1) 2 r per residual in norm, so
    #   by gv e r + (gv r)^2 + gamma_(mv+1) e^2 in the sum of squares.  The
    #   score is linear in the parameters here: the two fits' residuals
    #   differ by at most delta in norm, so their sums of squares by
    #   2 e delta + delta^2.
    eps = np.finfo(float).eps
    taps = max_length + 1
    lo = np.full(taps, -np.inf)
    hi = np.full(taps, np.inf)
    own = np.zeros(taps, dtype=bool)
    shared = _lagged_sums(xc, yc, max_length, last, taps, shift)
    gram, sums, rhs, ysum, yy, m = shared
    cgram = gram - sums[:, None] * sums / m
    lam = -np.inf
    if np.isfinite(cgram).all():
        lam = np.linalg.eigvalsh(cgram)[0] - 4 * (m + taps * taps) * eps * float(gram.trace())
    gram, sums, rhs = gram.copy(), sums.copy(), rhs.copy()
    for length in range(max_length, -1, -1):
        k = length + 1
        if length < max_length:  # the window ending at t = length, newest first
            row, t = xc[length::-1], yc[length + shift]
            gram[:k, :k] += row[:, None] * row
            sums[:k] += row
            rhs[:k] += row * t
            ysum, yy, m = ysum + t, yy + t * t, m + 1
        bounds = _length_bounds(gram[:k, :k], sums[:k], rhs[:k], ysum, yy, m, c, held,
                                lam, False)
        if bounds:
            lo[length], hi[length], own[length] = bounds
    # Tighten, with their own eigenvalues, the bands that could send a
    # length to a direct fit; a lone one is the winner's, fitted anyway.
    value = value or (lambda mse, length: mse)
    reach = min(value(h, length) for length, h in enumerate(hi))
    near = [length for length, v in enumerate(lo) if value(v, length) <= reach]
    if len(near) < 2:
        return lo, hi
    for length in near:
        if own[length] or not np.isfinite(hi[length]):
            continue
        k = length + 1
        sums_k = (shared[0][:k, :k], shared[1][:k], shared[2][:k], *shared[3:])
        if length < max_length:
            extra = _lagged_sums(xc, yc, length, max_length - 1, k, shift)
            sums_k = [a + b for a, b in zip(sums_k, extra)]
        bounds = _length_bounds(*sums_k, c, held, lam, True)
        if bounds:
            lo[length], hi[length] = max(lo[length], bounds[0]), min(hi[length], bounds[1])
    return lo, hi


def _first_minimum(lo, hi, score):
    """``(result, value)`` at the first strict minimum over all lengths of
    ``score(length) = (value, result)``, calling ``score`` only where
    ``[lo, hi]``, which holds its value, can reach the smallest upper bound."""
    lo, hi = lo.copy(), hi.copy()
    exact = {}
    for length in map(int, np.flatnonzero(np.isinf(hi))):
        # No bound: score these first, so their values tighten the others'.
        exact[length] = score(length)
        if np.isfinite(exact[length][0]):
            lo[length] = hi[length] = exact[length][0]
    reach = hi.min()
    best, best_value = None, np.inf
    for length in map(int, np.flatnonzero(lo <= reach)):
        value, result = exact[length] if length in exact else score(length)
        if value < best_value:
            best, best_value = result, value
    return best, best_value


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

    Cost: one lagged Gram pass and one eigen-decomposition per series, plus
    one small solve per length, O(max_length**4) in all (the covariance
    method of linear prediction).  Every candidate gets a rounding band
    around its Gram score; only those whose band reaches the best, or whose
    rank check is close, are fitted the direct way (:func:`fit_weights`), so
    the choice is the one that refitting every length would make.  The
    winner is always fitted the direct way.  A series whose every score
    overflows float64 raises ``ValueError``.
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

    def value(mse, length):
        if not aic:
            return mse
        # log of an exactly-zero residual is clamped rather than -inf so
        # noiseless data still selects the smallest adequate length
        return n * np.log(max(mse, 1e-300)) + 2 * (length + 1)

    def score(length):
        model = fit_weights(x[:split], y[:split], length, mode)
        mse = model.training_mse if aic else _validation_mse(model, x, y, split)
        return value(mse, length), model

    c = float(y[:split].mean())
    xc, yc = x - float(x[:split].mean()), y - c
    with np.errstate(all="ignore"):
        held = None if aic else _lagged_sums(
            xc, yc, split - shift, n - 1 - shift, max_length + 1, shift
        )
        bounds = _mse_bounds(xc, yc, c, split - 1 - shift, max_length, shift, held, value)
    lo, hi = (np.array([value(mse, k) for k, mse in enumerate(b)]) for b in bounds)
    best, best_value = _first_minimum(lo, hi, score)
    if best is None:
        raise ValueError("no candidate length has a finite score; rescale the series")
    if aic:
        return dataclasses.replace(best, validation_mse=best.training_mse)
    final = fit_weights(x, y, best.length, mode)  # the winner on all the data
    return dataclasses.replace(final, validation_mse=best_value)


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
