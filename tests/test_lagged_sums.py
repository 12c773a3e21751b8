"""``equalizer._lagged_sums`` builds lagged normal equations without a design
matrix: lag products by ``np.correlate`` for each pair's first Gram row and
column, and a diagonal recursion for the rest.  These tests hold it to the
sums of an explicit design (``oracles.joint_lag_design``) within a
summation rounding bound (Higham, "Accuracy and Stability of Numerical
Algorithms", 2nd ed., sec. 3.1), and bound what it and the baselines built
on it allocate."""

import functools
import tracemalloc

import numpy as np
import pytest

from ctda import equalizer
from ctda.baselines import fit_bayes

from oracles import joint_lag_design

N = 2_000
KINDS = ("white", "ar999", "random-walk", "offset")


@functools.lru_cache(maxsize=None)
def series(kind, channels):
    rng = np.random.default_rng(21)
    drive = rng.standard_normal((channels, N))
    if kind in ("ar999", "random-walk"):
        phi = 0.999 if kind == "ar999" else 1.0
        x = drive.copy()
        for t in range(1, N):
            x[:, t] = phi * x[:, t - 1] + drive[:, t]
    else:
        x = drive + (1e6 if kind == "offset" else 0.0)
    return x, rng.standard_normal(N) + (1e6 if kind == "offset" else 0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("lag", [0, 1, 40])
@pytest.mark.parametrize("channels", [1, 3])
def test_sums_match_an_explicit_design(channels, lag, shift, kind):
    x, y = series(kind, channels)
    k = lag + 1
    first, last = lag + 7, N - 1 - shift - 3  # windows that start after the series does
    rows, _ = joint_lag_design(x, y, lag)  # row r: the windows ending at r + lag
    a = rows[first - lag : last - lag + 1]
    t = y[first + shift : last + 1 + shift]
    m = t.size
    # shift 1: a target array that starts a sample later, read at its own ends
    gram, sums, rhs, ysum, count = equalizer._lagged_sums(x, y[shift:], first, last, k)

    # Entry (i, j) sums at most m + 2k terms over the samples first - i ..
    # last, the last i of them twice (u = eps / 2; a sum of n terms is off
    # by at most n u / (1 - n u) times their magnitudes' sum).  So its
    # rounding is at most gamma_(m+2k) D_i D_j, with D_i^2 the energy of
    # those terms; the explicit design's own products add gamma_m d_i d_j
    # <= gamma_m D_i D_j.  (m + k) eps = (2m + 2k) u covers both, and a
    # column sum's, times sqrt(m + 2k) / D_j.
    eps = np.finfo(float).eps
    big = np.sqrt([np.sum(xm[first - i : last + 1] ** 2) + np.sum(xm[last - i + 1 : last + 1] ** 2)
                   for xm in x for i in range(k)])
    assert np.array_equal(gram, gram.T)
    assert np.all(np.abs(gram - a.T @ a) <= (m + k) * eps * np.outer(big, big))
    assert np.all(np.abs(sums - a.sum(axis=0)) <= (m + k) * eps * np.sqrt(m + 2 * k) * big)
    assert np.all(np.abs(rhs - a.T @ t) <= (m + k) * eps * big * np.linalg.norm(t))
    assert count == m
    assert abs(ysum - t.sum()) <= m * eps * np.abs(t).sum()


def test_single_series_may_be_one_dimensional():
    x, y = series("white", 1)
    flat = equalizer._lagged_sums(x[0], y, 40, N - 1, 41)
    stacked = equalizer._lagged_sums(x, y, 40, N - 1, 41)
    for got, want in zip(flat, stacked):
        np.testing.assert_array_equal(got, want)


def test_lagged_sums_peak_at_the_gram_size():
    # n = 20,000 samples and 401 taps: a window matrix alone is 64 MB
    n, taps = 20_000, 401
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    equalizer._lagged_sums(x[:50], y[:50], 3, 49, 4)
    tracemalloc.start()
    try:
        equalizer._lagged_sums(x, y, taps - 1, n - 1, taps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * taps * taps


def test_fit_bayes_peaks_under_ten_mib():
    # lag 100 on 4 inputs of 16,000 rows: the design was 52 MB, and its
    # centred copy as much again
    rng = np.random.default_rng(23)
    x, y = rng.standard_normal((4, 16_000)), rng.standard_normal(16_000)
    fit_bayes(x[:, :50], y[:50], 2)
    tracemalloc.start()
    try:
        fit_bayes(x, y, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
