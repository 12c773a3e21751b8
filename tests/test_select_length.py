"""``select_length`` scores every length from one lagged Gram pass; these
tests hold it to the choice that refitting every length from scratch makes
(``oracles.select_length_loop``), down to the bytes of the saved model."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctda import equalizer
from ctda.equalizer import MODES, model_to_dict, select_length

from oracles import select_length_loop

CRITERIA = ("validation", "aic")
KINDS = ("random", "noiseless", "collinear", "constant", "offset", "tie")


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
    x, y, max_length = case
    got = model_to_dict(select_length(x, y, max_length, criterion, mode))
    want = select_length_loop(x, y, max_length, criterion, mode)
    assert (got["length"], got["degenerate"]) == (want["length"], want["degenerate"])
    assert json.dumps(got) == json.dumps(want)


def assert_bands_hold(x, y, max_length, mode):
    """The lemma the selection rests on: a candidate that gets a finite band
    scores inside it when fitted the direct way."""
    n, shift = x.size, int(mode == "predict")
    split = int(0.8 * n)
    c = float(y[:split].mean())
    xc, yc = x - float(x[:split].mean()), y - c
    with np.errstate(all="ignore"):
        held = equalizer._lagged_sums(xc, yc, split - shift, n - 1 - shift,
                                      max_length + 1, shift)
        lo, hi = equalizer._mse_bounds(xc, yc, c, split - 1 - shift, max_length, shift,
                                       held)
        c = float(y.mean())
        train_lo, train_hi = equalizer._mse_bounds(
            x - float(x.mean()), y - c, c, n - 1 - shift, max_length, shift)
    for length in range(max_length + 1):
        if np.isfinite(hi[length]):
            model = equalizer.fit_weights(x[:split], y[:split], length, mode)
            assert lo[length] <= equalizer._validation_mse(model, x, y, split) <= hi[length]
        if np.isfinite(train_hi[length]):
            model = equalizer.fit_weights(x, y, length, mode)
            assert train_lo[length] <= model.training_mse <= train_hi[length]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(case=selection_inputs())
def test_every_bounded_direct_score_lies_in_its_band(mode, case):
    assert_bands_hold(*case, mode)


# The benchmark's size: series_batch fits 20,000 rows with --max-length 40.
# The band's solver constant is an assumption (see equalizer._mse_bounds),
# so it is checked here at that size too, on white and near-unit-root
# inputs, with and without a large offset.
BENCH_ROWS, BENCH_MAX_LENGTH = 20_000, 40
BENCH_CASES = [("white", 0.0), ("white", 1e3), ("white", 1e6), ("ar999", 0.0),
               ("ar999", 1e6)]


@functools.lru_cache(maxsize=None)
def benchmark_scale_series(kind, offset):
    rng = np.random.default_rng(12)
    drive = rng.standard_normal(BENCH_ROWS)
    if kind == "ar999":
        x = np.empty(BENCH_ROWS)
        x[0] = drive[0]
        for t in range(1, BENCH_ROWS):
            x[t] = 0.999 * x[t - 1] + drive[t]
    else:
        x = drive
    y = np.convolve(x, [0.9, -0.4, 0.25])[:BENCH_ROWS] + 0.5 * rng.standard_normal(BENCH_ROWS)
    return x + offset, y - offset


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind, offset", BENCH_CASES)
def test_bands_hold_at_benchmark_scale(kind, offset, mode):
    assert_bands_hold(*benchmark_scale_series(kind, offset), BENCH_MAX_LENGTH, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("kind, offset", BENCH_CASES)
def test_matches_refitting_at_benchmark_scale(kind, offset, criterion, mode):
    x, y = benchmark_scale_series(kind, offset)
    got = model_to_dict(select_length(x, y, BENCH_MAX_LENGTH, criterion, mode))
    want = select_length_loop(x, y, BENCH_MAX_LENGTH, criterion, mode)
    assert json.dumps(got) == json.dumps(want)


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
    # the winner on the 80% split, then on all the data
    assert fitted_lengths == [model.length, model.length]
    assert json.dumps(model_to_dict(model)) == json.dumps(
        select_length_loop(x, y, 12, "validation", "infer")
    )


@pytest.mark.parametrize("criterion", CRITERIA)
def test_near_tie_band_refits_the_tied_lengths(fitted_lengths, criterion):
    # y is an exact affine image of x, so every length scores zero up to
    # rounding: the bands all reach the best, and only direct fits can say
    # which length today's loop picks.
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    y = 2.0 * x + 1.0
    model = select_length(x, y, 6, criterion)
    assert set(fitted_lengths) == set(range(7))
    assert not model.degenerate
    want = select_length_loop(x, y, 6, criterion, "infer")
    assert json.dumps(model_to_dict(model)) == json.dumps(want)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_rank_fallback_fits_collinear_lengths_directly(fitted_lengths, criterion):
    # x alternates sign, so x[t - 1] = -x[t]: every window of two or more
    # taps is collinear and only length 0 passes the rank check.
    rng = np.random.default_rng(6)
    x = np.tile([1.0, -1.0], 200)
    y = 0.7 * x + 0.1 * rng.standard_normal(400)
    model = select_length(x, y, 4, criterion)
    assert set(range(1, 5)) <= set(fitted_lengths)
    want = select_length_loop(x, y, 4, criterion, "infer")
    assert json.dumps(model_to_dict(model)) == json.dumps(want)


@pytest.mark.parametrize("mode", MODES)
def test_separated_aic_scores_fit_only_the_winner_once(fitted_lengths, mode):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2000)
    y = np.convolve(x, [0.9, -0.4, 0.2])[:2000] + 0.3 * rng.standard_normal(2000)
    model = select_length(x, y, 12, "aic", mode)
    # AIC scores the fit on all the data, which is then the model returned
    assert fitted_lengths == [model.length]
    assert json.dumps(model_to_dict(model)) == json.dumps(
        select_length_loop(x, y, 12, "aic", mode)
    )


# One eigen-decomposition bounds every length: a length's centred Gram is at
# least the leading block of the shared lag-max_length one, so by Cauchy
# interlacing the shared smallest eigenvalue bounds each length's from below.


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """Orders of the matrices passed to ``np.linalg.eigvalsh``, in order."""
    sizes = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


@pytest.mark.parametrize("criterion", CRITERIA)
def test_shared_bound_takes_one_eigen_decomposition_per_series(
    eigvalsh_sizes, fitted_lengths, criterion
):
    x, y = benchmark_scale_series("white", 0.0)
    model = select_length(x, y, BENCH_MAX_LENGTH, criterion)
    assert eigvalsh_sizes == [BENCH_MAX_LENGTH + 1]
    assert set(fitted_lengths) == {model.length}  # only the winner is fitted


@functools.lru_cache(maxsize=None)
def ar_input_series(phi, offset):
    """``benchmark_scale_series``' recipe with an AR(``phi``) input; phi = 0
    gives its white input."""
    rng = np.random.default_rng(12)
    drive = rng.standard_normal(BENCH_ROWS)
    x = drive.copy()
    for t in range(1, BENCH_ROWS):
        x[t] = phi * x[t - 1] + drive[t]
    y = np.convolve(x, [0.9, -0.4, 0.25])[:BENCH_ROWS] + 0.5 * rng.standard_normal(BENCH_ROWS)
    return x + offset, y - offset


# Direct fits on these inputs (infer mode) when every length took its own
# eigen-decomposition, as select_length did before the shared bound; the
# shared bound gives the same counts.  The validation run on AR(0.95) at
# max_length 400 (233 direct fits both ways, about 20 s) is left out for its
# time.
DIRECT_FIT_COUNTS = [
    (0.0, 0.0, 40, "validation", 2), (0.0, 0.0, 40, "aic", 1),
    (0.0, 1e6, 40, "validation", 17), (0.0, 1e6, 40, "aic", 23),
    (0.95, 0.0, 40, "validation", 2), (0.95, 0.0, 40, "aic", 1),
    (0.95, 1e6, 40, "validation", 36), (0.95, 1e6, 40, "aic", 39),
    (1.0, 0.0, 40, "validation", 42),
    (0.0, 0.0, 400, "validation", 2), (0.0, 0.0, 400, "aic", 1),
    (0.95, 0.0, 400, "aic", 1),
]


@pytest.mark.parametrize("phi, offset, max_length, criterion, count", DIRECT_FIT_COUNTS)
def test_direct_fit_counts_match_per_length_eigenvalues(
    fitted_lengths, phi, offset, max_length, criterion, count
):
    select_length(*ar_input_series(phi, offset), max_length, criterion)
    assert len(fitted_lengths) == count


def test_random_walk_aic_direct_fit_count(fitted_lengths):
    # Per-length eigenvalues fit 19 lengths here; the shared bound, which
    # only a failed rank test replaces, leaves one more band reaching the
    # best.  A looser band can only add direct fits, never change the model.
    x, y = ar_input_series(1.0, 0.0)
    model = select_length(x, y, 40, "aic")
    assert len(fitted_lengths) == 20
    want = select_length_loop(x, y, 40, "aic", "infer")
    assert json.dumps(model_to_dict(model)) == json.dumps(want)


@pytest.mark.parametrize("criterion, passes", [("aic", 1), ("validation", 2)])
@pytest.mark.parametrize("series", ["tie", "random-walk"])
def test_each_row_set_is_summed_once(monkeypatch, series, criterion, passes):
    # aic sums its fitted rows once; validation sums its training rows and
    # its held-out rows once each.  Every other length is scored from those
    # sums or fitted directly, never summed again.
    calls = []
    real = equalizer._lagged_sums

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equalizer, "_lagged_sums", spy)
    if series == "tie":  # the near-tie test's input
        x = np.random.default_rng(5).standard_normal(300)
        case = x, 2.0 * x + 1.0, 6
    else:
        case = *ar_input_series(1.0, 0.0), 40
    select_length(*case, criterion)
    assert len(calls) == passes


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_singular_shared_gram_with_regular_short_lengths(eigvalsh_sizes, criterion, mode):
    # sin(w t - 2w) = 2 cos(w) sin(w t - w) - sin(w t): every window of three
    # or more taps is collinear, so the shared lag-6 Gram is singular while
    # lengths 0 and 1 are not, and those two take their own eigenvalues.
    rng = np.random.default_rng(7)
    x = np.sin(0.3 * np.arange(400))
    y = np.convolve(x, [0.8, 0.3])[:400] + 0.1 * rng.standard_normal(400)
    got = model_to_dict(select_length(x, y, 6, criterion, mode))
    assert json.dumps(got) == json.dumps(select_length_loop(x, y, 6, criterion, mode))
    n, shift = x.size, int(mode == "predict")
    c = float(y.mean())
    with np.errstate(all="ignore"):
        _, hi = equalizer._mse_bounds(x - float(x.mean()), y - c, c, n - 1 - shift, 6, shift)
    assert np.isfinite(hi[:2]).all() and np.isinf(hi[2:]).all()
    assert len(eigvalsh_sizes) > 1


def check_shared_bound_below_own_eigenvalues(monkeypatch, x, y, max_length, mode):
    """The bound every length gets from the shared Gram is at most its own
    computed smallest eigenvalue plus that eigenvalue's rounding."""
    pairs = []
    real = equalizer._length_bounds

    def spy(gram, sums, rhs, ysum, yy, m, c, held, lam, tails):
        k = sums.size
        cgram = gram - np.outer(sums, sums) / m
        if np.isfinite(cgram).all():
            eta = 4 * (m + k * k) * np.finfo(float).eps * np.trace(gram)
            pairs.append((lam, np.linalg.eigvalsh(cgram)[0] + eta))
        return real(gram, sums, rhs, ysum, yy, m, c, held, lam, tails)

    monkeypatch.setattr(equalizer, "_length_bounds", spy)
    n, shift = x.size, int(mode == "predict")
    c = float(y.mean())
    with np.errstate(all="ignore"):
        equalizer._mse_bounds(x - float(x.mean()), y - c, c, n - 1 - shift, max_length, shift)
    assert pairs
    assert all(lam <= own for lam, own in pairs)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(case=selection_inputs())
def test_shared_bound_is_below_every_length_own_eigenvalue(mode, case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_shared_bound_below_own_eigenvalues(monkeypatch, *case, mode)


@pytest.mark.parametrize("kind, offset", BENCH_CASES)
def test_shared_bound_is_below_own_eigenvalues_at_benchmark_scale(monkeypatch, kind, offset):
    check_shared_bound_below_own_eigenvalues(
        monkeypatch, *benchmark_scale_series(kind, offset), BENCH_MAX_LENGTH, "infer")
