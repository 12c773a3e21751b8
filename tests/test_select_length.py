"""``select_length`` scores every length from one order-recursive walk of
lagged sums (``equalizer._walk``), and ``fit_weights`` walks the same way to
its own length, so each candidate is the model ``fit_weights`` returns for
its rows.  These tests hold the choice to a loop of ``fit_weights`` down to
the bytes of the saved model, hold ``fit_weights`` to the design-matrix fit
(``oracles._direct_tap_fit``) within a tolerance set by its Gram's
conditioning, and hold the choice at the benchmark's size to
``oracles.select_length_loop``."""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ctda import equalizer
from ctda.equalizer import MODES, fit_weights, model_to_dict, select_length

from oracles import _direct_tap_fit, select_length_loop

CRITERIA = ("validation", "aic")
KINDS = ("random", "noiseless", "collinear", "constant", "offset", "tie")
EPS = np.finfo(float).eps


def refit_every_length(x, y, max_length, criterion, mode):
    """The selection rule as a loop of ``fit_weights``: score each length's
    fit (training MSE for ``aic``, held-out MSE for ``validation``), floored
    at eps times the centred fitted target's energy per row, and keep the
    first strict minimum."""
    n = x.size
    split = n if criterion == "aic" else int(0.8 * n)
    yc = y[:split] - y[:split].mean()
    energy = float(yc @ yc) / split
    floor = max(EPS * energy if np.isfinite(energy) else 0.0, np.finfo(float).tiny)
    best, best_value, best_mse = None, np.inf, None
    for length in range(max_length + 1):
        model = fit_weights(x[:split], y[:split], length, mode)
        if criterion == "aic":
            mse = model.training_mse
            value = n * np.log(max(mse, floor)) + 2 * (length + 1)
        else:
            mse = equalizer._validation_mse(model, x, y, split)
            value = max(mse, floor)
        if value < best_value:
            best, best_value, best_mse = model, value, mse
    if criterion == "validation":
        best = fit_weights(x, y, best.length, mode)
    return dataclasses.replace(best, validation_mse=best_mse)


def assert_same_bytes(x, y, max_length, criterion, mode):
    got = model_to_dict(select_length(x, y, max_length, criterion, mode))
    want = model_to_dict(refit_every_length(x, y, max_length, criterion, mode))
    assert json.dumps(got) == json.dumps(want)


@st.composite
def selection_inputs(draw):
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(40, 400))
    max_length = draw(st.integers(0, 8))
    x = rng.standard_normal(n) * 10 ** rng.uniform(-2, 2)
    if kind == "collinear":
        # a short repeating pattern: every window longer than it is collinear
        x = np.tile(rng.standard_normal(rng.integers(1, 4)), n)[:n]
    elif kind == "constant":
        x = np.full(n, rng.standard_normal())
    taps = rng.uniform(-1.0, 1.0, size=rng.integers(1, 4))
    y = np.convolve(x, taps)[:n]
    if kind != "noiseless":
        y = y + 0.1 * rng.standard_normal(n)
    if kind == "offset":
        x = x + 10 ** rng.uniform(2, 6)
        y = y + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(2, 6)
    elif kind == "tie":
        y = 2.0 * x + 1.0  # every length fits exactly
    return x, y, max_length


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
@settings(max_examples=100, deadline=None)
@given(case=selection_inputs())
def test_matches_refitting_every_length(criterion, mode, case):
    assert_same_bytes(*case, criterion, mode)


@functools.lru_cache(maxsize=None)
def ar_input_series(phi, offset, rows=20_000):
    """An AR(``phi``) input (phi = 0 is white, 1 a random walk) and a noisy
    FIR(2) target, both offset."""
    rng = np.random.default_rng(12)
    drive = rng.standard_normal(rows)
    x = drive.copy()
    for t in range(1, rows):
        x[t] = phi * x[t - 1] + drive[t]
    y = np.convolve(x, [0.9, -0.4, 0.25])[:rows] + 0.5 * rng.standard_normal(rows)
    return x + offset, y - offset


def former_band_case(name):
    """Inputs on which the rounding bands of the former selection could not
    separate the lengths, so it refitted them directly."""
    if name == "near-tie":  # every length fits exactly
        x = np.random.default_rng(5).standard_normal(300)
        return x, 2.0 * x + 1.0, 6
    if name == "alternating":  # every window of two or more taps is collinear
        x = np.tile([1.0, -1.0], 200)
        return x, 0.7 * x + 0.1 * np.random.default_rng(6).standard_normal(400), 4
    if name == "sinusoid":  # windows of three or more taps are collinear
        x = np.sin(0.3 * np.arange(400))
        noise = 0.1 * np.random.default_rng(7).standard_normal(400)
        return x, np.convolve(x, [0.8, 0.3])[:400] + noise, 6
    return (*ar_input_series(1.0, 0.0), 40)  # a random walk


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("name", ["near-tie", "alternating", "sinusoid", "random-walk"])
def test_matches_refitting_former_band_cases(name, criterion, mode):
    assert_same_bytes(*former_band_case(name), criterion, mode)


def weight_tolerance(x, y, length, mode, weights):
    """First-order bound on how far two least-squares solutions of one fit
    can lie apart when each forms its sums with rounding, or None when the
    fit's rank is in doubt.  Both fits' Gram entries err by at most about
    m eps trace(G) and their right-hand sides by m eps sqrt(trace(G)) |t|
    (G the uncentred Gram of m window rows, t the centred targets), so
    their weights differ by at most that over lambda_min of the centred
    Gram, which must stay clear of the rank test's threshold."""
    shift = int(mode == "predict")
    a = sliding_window_view(x - x.mean(), length + 1)[:, ::-1][: x.size - length - shift]
    t = y[length + shift :] - y[length + shift :].mean()
    m, k = a.shape
    ac = a - a.mean(axis=0)
    eig = np.linalg.eigvalsh(ac.T @ ac)
    trace = float(np.einsum("ij,ij->", a, a))
    slack = m * EPS * trace
    if not eig[0] > 2 * slack + 2 * k * EPS * eig[-1]:
        return None
    return (slack * np.linalg.norm(weights) + m * EPS * np.sqrt(trace) * np.linalg.norm(t)) / (
        eig[0] - slack)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=150, deadline=None)
@given(case=selection_inputs())
def test_fit_matches_the_design_within_its_conditioning(mode, case):
    x, y, length = case
    got = fit_weights(x, y, length, mode)
    want = _direct_tap_fit(x, y, length, mode)
    tol = weight_tolerance(x, y, length, mode, np.asarray(want["weights"]))
    t = y[length + int(mode == "predict") :]
    if tol is None:
        # a close or failed rank test: either fit may be loaded, but both
        # still fit the targets to within the loading's size
        tc = t - t.mean()
        assert abs(got.training_mse - want["training_mse"]) <= 1e-9 * (tc @ tc) / t.size
        return
    assert not got.degenerate and not want["degenerate"]
    assert np.linalg.norm(got.weights - want["weights"]) <= tol
    assert abs(got.training_mse - want["training_mse"]) <= EPS * (t @ t)


# The benchmark's size: series_batch fits 20,000 rows with --max-length 40.
BENCH_ROWS, BENCH_MAX_LENGTH = 20_000, 40
BENCH_CASES = [("white", 0.0), ("white", 1e3), ("white", 1e6), ("ar999", 0.0),
               ("ar999", 1e6)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("kind, offset", BENCH_CASES)
def test_matches_refitting_at_benchmark_scale(kind, offset, criterion, mode):
    x, y = ar_input_series(0.999 if kind == "ar999" else 0.0, offset)
    got = select_length(x, y, BENCH_MAX_LENGTH, criterion, mode)
    want = select_length_loop(x, y, BENCH_MAX_LENGTH, criterion, mode)
    assert (got.length, got.degenerate) == (want["length"], want["degenerate"])
    tol = weight_tolerance(x, y, got.length, mode, np.asarray(want["weights"]))
    assert np.linalg.norm(got.weights - want["weights"]) <= tol


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("phi", [0.0, 0.95, 1.0])
def test_noiseless_fir_picks_its_length(phi, criterion, mode):
    # Every length from 2 up fits to rounding; the floor ties them, so the
    # shortest wins.  In predict mode the target leads the input by one.
    x, _ = ar_input_series(phi, 0.0, 20_000)
    y = np.convolve(x, [0.9, -0.4, 0.25])[: x.size] + 2.0
    if mode == "predict":
        y = np.concatenate([[2.0], y[:-1]])
    assert select_length(x, y, 40, criterion, mode).length == 2


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_affine_target_picks_length_zero(criterion, mode):
    x = np.random.default_rng(1).standard_normal(2000)
    y = 2.0 * x + 1.0
    if mode == "predict":
        y = np.concatenate([[1.0], y[:-1]])
    model = select_length(x, y, 10, criterion, mode)
    assert model.length == 0
    assert model.validation_mse < 1e-25  # reported raw, not floored


@pytest.fixture
def fitted_lengths(monkeypatch):
    """Lengths passed to ``fit_weights`` by ``select_length``, in order."""
    lengths = []
    direct = equalizer.fit_weights

    def spy(x, y, length, mode="infer"):
        lengths.append(length)
        return direct(x, y, length, mode)

    monkeypatch.setattr(equalizer, "fit_weights", spy)
    return lengths


def test_separated_scores_fit_only_the_winner(fitted_lengths):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2000)
    y = np.convolve(x, [0.9, -0.4, 0.2])[:2000] + 0.3 * rng.standard_normal(2000)
    model = select_length(x, y, 12)
    # every candidate comes from the walk; only the winner is refitted, on
    # all the data
    assert fitted_lengths == [model.length]
    fitted_lengths.clear()
    assert json.dumps(model_to_dict(model)) == json.dumps(
        model_to_dict(refit_every_length(x, y, 12, "validation", "infer")))


@pytest.mark.parametrize("criterion, passes", [("aic", 1), ("validation", 2)])
@pytest.mark.parametrize("series", ["tie", "random-walk"])
def test_each_row_set_is_summed_once(monkeypatch, series, criterion, passes):
    # aic walks its fitted rows once; validation walks its training rows
    # once and the winner's refit walks all the rows.  No length is summed
    # again.
    calls = []
    real = equalizer._walk

    def spy(xc, yc, shift, max_length):
        calls.append((xc.size, max_length))
        return real(xc, yc, shift, max_length)

    monkeypatch.setattr(equalizer, "_walk", spy)
    x, y, max_length = former_band_case("near-tie" if series == "tie" else series)
    model = select_length(x, y, max_length, criterion)
    assert len(calls) == passes
    split = x.size if criterion == "aic" else int(0.8 * x.size)
    assert calls[0] == (split, max_length)
    if criterion == "validation":
        assert calls[1] == (x.size, model.length)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_singular_shared_gram_with_regular_short_lengths(criterion, mode):
    # sin(w t - 2w) = 2 cos(w) sin(w t - w) - sin(w t): every window of three
    # or more taps is collinear, so the lag-6 Gram is singular while lengths
    # 0 and 1 are not; the walk's sums find the same ranks as each length's
    # own fit.
    x, y, max_length = former_band_case("sinusoid")
    split = int(0.8 * x.size)
    flags = [fit_weights(x[:split], y[:split], length, mode).degenerate
             for length in range(max_length + 1)]
    assert flags == [False, False] + [True] * (max_length - 1)
    assert_same_bytes(x, y, max_length, criterion, mode)


def test_walk_to_a_length_matches_a_longer_walk():
    # a state never depends on how far the walk goes
    x, y = ar_input_series(1.0, 0.0, 2_000)
    xc, yc = x - x.mean(), y - y.mean()
    for shift in (0, 1):
        long = [tuple(np.copy(v) for v in state) for state in equalizer._walk(xc, yc, shift, 12)]
        for length in (0, 5, 12):
            *_, short = equalizer._walk(xc, yc, shift, length)
            for got, want in zip(short, long[length]):
                np.testing.assert_array_equal(got, want)
