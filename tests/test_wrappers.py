"""The scalar estimators are wrappers of the vectorised ones.

``infer``, ``predict_next``, ``fuse`` and ``predict`` must return exactly
what ``estimate_series``, ``fuse_series`` and ``predict_series`` return for
the same single index.  A batch of several indices agrees with them only to
rounding: BLAS sums a matrix-vector product in an order that depends on the
number of rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctda.baselines import LinearModel, predict, predict_series
from ctda.equalizer import EqualizerModel, estimate_series, infer, predict_next
from ctda.fusion import FusionModel, fuse, fuse_series

FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def vector(draw, size):
    return np.array(draw(st.lists(FINITE, min_size=size, max_size=size)))


@st.composite
def equalizer_case(draw, n_channels=1):
    """Models of lengths <= 6, series of a common length n and indices with
    a full window for every model."""
    lengths = draw(st.lists(st.integers(0, 6), min_size=n_channels, max_size=n_channels))
    n = draw(st.integers(max(lengths) + 1, 40))
    models = [
        EqualizerModel(
            length, vector(draw, length + 1), draw(FINITE), draw(FINITE), 0.0,
            mode=draw(st.sampled_from(["infer", "predict"])),
        )
        for length in lengths
    ]
    xs = [vector(draw, n) for _ in lengths]
    idx = draw(st.lists(st.integers(max(lengths), n - 1), min_size=1, max_size=12))
    return models, xs, idx


def close_to_rounding(batch, singles, scale):
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(equalizer_case())
def test_infer_and_predict_next_are_estimate_series(case):
    (model,), (x,), idx = case
    singles = []
    for n in idx:
        value = estimate_series(model, x, [n])[0]
        assert infer(model, x, n) == value
        assert predict_next(model, x, n) == value
        singles.append(value)
    scale = 1 + abs(model.mean_y) + np.abs(model.weights).sum() * np.abs(x - model.mean_x).max()
    close_to_rounding(estimate_series(model, x, idx), singles, scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(equalizer_case), st.data())
def test_fuse_is_fuse_series(case, data):
    models, xs, idx = case
    alphas = vector(data.draw, len(models))
    fused = FusionModel(
        tuple((f"c{m}", model) for m, model in enumerate(models)), alphas, "mrc_lmmse"
    )
    singles = []
    for n in idx:
        value = fuse_series(fused, xs, [n])[0]
        assert fuse(fused, xs, n) == value
        singles.append(value)
    scale = 1 + sum(
        abs(a) * (abs(m.mean_y) + np.abs(m.weights).sum() * np.abs(x - m.mean_x).max())
        for a, m, x in zip(alphas, models, xs)
    )
    close_to_rounding(fuse_series(fused, xs, idx), singles, scale)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.data())
def test_predict_is_predict_series(n_channels, lag, data):
    n = data.draw(st.integers(lag + 1, 40))
    x = vector(data.draw, n_channels * n).reshape(n_channels, n)
    model = LinearModel(vector(data.draw, n_channels * (lag + 1)), data.draw(FINITE), lag, 0.0)
    idx = data.draw(st.lists(st.integers(lag, n - 1), min_size=1, max_size=12))
    singles = []
    for t in idx:
        value = predict_series(model, x, [t])[0]
        assert predict(model, x, t) == value
        singles.append(value)
    scale = 1 + abs(model.intercept) + np.abs(model.coefficients).sum() * np.abs(x).max()
    close_to_rounding(predict_series(model, x, idx), singles, scale)


class TestWindowErrors:
    """The vector paths name the first index that has no full window."""

    model = EqualizerModel(3, np.ones(4), 0.0, 0.0, 0.0)

    def test_index_past_the_end(self):
        with pytest.raises(ValueError, match="index 10 outside series of length 10"):
            estimate_series(self.model, np.ones(10), [5, 10, 3])

    def test_negative_index(self):
        with pytest.raises(ValueError, match="index -1 outside"):
            estimate_series(self.model, np.ones(10), [5, -1])

    def test_short_history(self):
        with pytest.raises(ValueError, match="index 2 needs 3 past samples for a full window"):
            estimate_series(self.model, np.ones(10), [5, 2])

    def test_scalar_wrappers_raise_the_same(self):
        fused = FusionModel((("a", self.model),), [1.0], "equal_gain")
        with pytest.raises(ValueError, match="index 2 needs 3 past samples"):
            fuse(fused, [np.ones(10)], 2)
        with pytest.raises(ValueError, match="outside series of length 10"):
            predict_next(self.model, np.ones(10), 10)
