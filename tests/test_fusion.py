import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctda.equalizer import EqualizerModel, fit_weights, infer
from ctda.fusion import (
    FusionModel,
    equal_gain_weights,
    fuse,
    fuse_series,
    fusion_from_dict,
    fusion_to_dict,
    mrc_weights_inverse_mse,
    mrc_weights_lmmse,
    online_alpha_update,
    online_inverse_mse_weights,
    select_channels,
    selective_weights,
)
from oracles import online_inverse_mse_loop


def passthrough(mean_y=0.0, training_mse=0.0, validation_mse=0.0):
    return EqualizerModel(0, [1.0], 0.0, mean_y, training_mse, validation_mse)


class TestInverseMseWeights:
    def test_symmetry(self):
        np.testing.assert_allclose(mrc_weights_inverse_mse([0.7, 0.7]), [0.5, 0.5])

    def test_one_to_three(self):
        np.testing.assert_allclose(mrc_weights_inverse_mse([1.0, 3.0]), [0.75, 0.25])

    def test_perfect_channel_dominates(self):
        np.testing.assert_array_equal(mrc_weights_inverse_mse([0.0, 5.0]), [1.0, 0.0])
        # first zero wins when several are perfect
        np.testing.assert_array_equal(
            mrc_weights_inverse_mse([3.0, 0.0, 0.0]), [0.0, 1.0, 0.0]
        )

    def test_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            mrc_weights_inverse_mse([])

    def test_negative(self):
        with pytest.raises(ValueError):
            mrc_weights_inverse_mse([1.0, -0.5])

    def test_tiny_mse_gives_finite_weights(self):
        # 1 / 1e-320 overflows to inf, and inf / inf is NaN
        alphas = mrc_weights_inverse_mse([1e-320, 1.0])
        assert np.all(np.isfinite(alphas))
        assert alphas[0] == 1.0
        assert alphas.sum() == 1.0

    def test_rows_are_weighted_independently(self):
        mses = np.array([[1.0, 3.0, 2.0], [0.5, 0.0, 0.0], [1e-320, 1.0, 1.0]])
        rows = mrc_weights_inverse_mse(mses)
        assert rows.shape == mses.shape
        for row, m in zip(rows, mses):
            np.testing.assert_array_equal(row, mrc_weights_inverse_mse(m))
        np.testing.assert_array_equal(rows[1], [0.0, 1.0, 0.0])

    def test_convexity_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alphas = mrc_weights_inverse_mse(rng.uniform(0.01, 10.0, size=5))
            assert np.all(alphas >= 0)
            assert alphas.sum() == pytest.approx(1.0, abs=1e-12)


class TestLmmseWeights:
    def test_single_perfect_channel(self):
        y = np.arange(1.0, 9.0)
        alphas, degenerate = mrc_weights_lmmse(y[None, :], y)
        np.testing.assert_allclose(alphas, [1.0], atol=1e-12)
        assert not degenerate

    def test_duplicated_channels_degenerate(self):
        y = np.arange(1.0, 30.0)
        alphas, degenerate = mrc_weights_lmmse(np.vstack([y, y]), y)
        assert degenerate
        np.testing.assert_allclose(alphas, [0.5, 0.5], atol=1e-4)

    def test_unequal_noise_variances(self):
        # independent branch noises of variance 1 and 3 on a strong target:
        # the exact minimizer is close to the 3:1 inverse-variance split
        rng = np.random.default_rng(5)
        y = 10.0 * rng.standard_normal(20000)
        preds = np.vstack(
            [y + rng.standard_normal(y.size), y + np.sqrt(3.0) * rng.standard_normal(y.size)]
        )
        alphas, degenerate = mrc_weights_lmmse(preds, y)
        assert not degenerate
        np.testing.assert_allclose(alphas, [0.75, 0.25], atol=0.05)

    def test_beats_brute_force_grid(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(4000)
        preds = np.vstack(
            [y + 0.5 * rng.standard_normal(y.size), y + rng.standard_normal(y.size)]
        )
        alphas, _ = mrc_weights_lmmse(preds, y)
        best = float(np.mean((y - alphas @ preds) ** 2))
        for a0 in np.linspace(-1.5, 1.5, 61):
            for a1 in np.linspace(-1.5, 1.5, 61):
                grid_mse = float(np.mean((y - (a0 * preds[0] + a1 * preds[1])) ** 2))
                assert best <= grid_mse + 1e-12

    def test_dominates_every_channel(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(1, 5)
            y = rng.standard_normal(500)
            preds = y + rng.standard_normal((m, 500)) * rng.uniform(0.1, 2.0, (m, 1))
            alphas, _ = mrc_weights_lmmse(preds, y)
            fused = float(np.mean((y - alphas @ preds) ** 2))
            for p in preds:
                assert fused <= float(np.mean((y - p) ** 2)) + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            mrc_weights_lmmse(np.ones((2, 5)), np.ones(4))

    def test_empty_window(self):
        with pytest.raises(ValueError, match="sample"):
            mrc_weights_lmmse(np.ones((2, 0)), np.ones(0))

    @pytest.mark.filterwarnings("error")  # the ValueError comes with no numpy warning
    def test_overflowing_moments_raise_rather_than_return_nan(self):
        y = np.random.default_rng(8).standard_normal(50)
        preds = 1e160 * np.vstack([y, y + 0.1])
        with pytest.raises(ValueError, match="overflow float64; rescale"):
            mrc_weights_lmmse(preds, y)


class TestSimpleWeights:
    def test_equal_gain(self):
        np.testing.assert_allclose(equal_gain_weights(4), [0.25] * 4)
        with pytest.raises(ValueError):
            equal_gain_weights(0)

    def test_selective(self):
        np.testing.assert_array_equal(selective_weights([0.5, 0.2, 0.9]), [0, 1, 0])
        # tie goes to the first channel
        np.testing.assert_array_equal(selective_weights([0.2, 0.2]), [1, 0])


class TestFusionModel:
    def test_alpha_count(self):
        with pytest.raises(ValueError, match="per channel"):
            FusionModel((("a", passthrough()),), [0.5, 0.5], "equal_gain")

    def test_convexity_enforced(self):
        chans = (("a", passthrough()), ("b", passthrough()))
        with pytest.raises(ValueError, match="convex"):
            FusionModel(chans, [0.9, 0.9], "mrc_inverse_mse")
        with pytest.raises(ValueError, match="convex"):
            FusionModel(chans, [1.5, -0.5], "equal_gain")

    def test_lmmse_unconstrained(self):
        chans = (("a", passthrough()), ("b", passthrough()))
        model = FusionModel(chans, [1.5, -0.5], "mrc_lmmse")
        assert model.names == ["a", "b"]

    def test_selective_one_hot(self):
        chans = (("a", passthrough()), ("b", passthrough()))
        FusionModel(chans, [0.0, 1.0], "selective")
        with pytest.raises(ValueError, match="exactly one"):
            FusionModel(chans, [0.5, 0.5], "selective")

    def test_no_channels(self):
        with pytest.raises(ValueError, match="at least one"):
            FusionModel((), [], "equal_gain")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            FusionModel((("a", passthrough()),), [1.0], "majority")

    def test_duplicate_channel_name(self):
        m = passthrough()
        with pytest.raises(ValueError, match="^duplicate channel name 'a'$"):
            FusionModel((("a", m), ("b", m), ("a", m)), [0.25, 0.25, 0.5], "mrc_inverse_mse")


class TestFuse:
    def test_single_channel_is_infer(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(50)
        y = 0.5 * x + 1.0
        eq = fit_weights(x, y, 0)
        model = FusionModel((("a", eq),), [1.0], "mrc_inverse_mse")
        for n in (0, 10, 49):
            assert fuse(model, [x], n) == pytest.approx(infer(eq, x, n))

    def test_equal_gain_average(self):
        chans = (("a", passthrough()), ("b", passthrough()))
        model = FusionModel(chans, equal_gain_weights(2), "equal_gain")
        assert fuse(model, [np.array([2.0]), np.array([4.0])], 0) == pytest.approx(3.0)

    def test_selective_returns_best_channel_exactly(self):
        a = passthrough(training_mse=0.5)
        b = passthrough(training_mse=0.2)
        model = FusionModel(
            (("a", a), ("b", b)),
            selective_weights([a.training_mse, b.training_mse]),
            "selective",
        )
        out = fuse(model, [np.array([2.0]), np.array([4.0])], 0)
        assert out == 4.0

    def test_input_count_checked(self):
        model = FusionModel((("a", passthrough()),), [1.0], "equal_gain")
        with pytest.raises(ValueError, match="per channel"):
            fuse(model, [np.ones(3), np.ones(3)], 0)

    def test_linear_in_alphas(self):
        rng = np.random.default_rng(9)
        xs = [rng.standard_normal(30), rng.standard_normal(30)]
        chans = (("a", passthrough()), ("b", passthrough(mean_y=2.0)))
        a1, a2 = np.array([0.3, -0.4]), np.array([0.2, 1.1])
        m1 = FusionModel(chans, a1, "mrc_lmmse")
        m2 = FusionModel(chans, a2, "mrc_lmmse")
        m12 = FusionModel(chans, a1 + a2, "mrc_lmmse")
        for n in (0, 7, 29):
            assert fuse(m12, xs, n) == pytest.approx(
                fuse(m1, xs, n) + fuse(m2, xs, n), abs=1e-12
            )

    def test_fuse_series_matches_pointwise(self):
        rng = np.random.default_rng(10)
        xs = [rng.standard_normal(40), rng.standard_normal(40)]
        chans = (("a", passthrough()), ("b", passthrough()))
        model = FusionModel(chans, [0.6, 0.4], "mrc_inverse_mse")
        idx = np.arange(5, 40)
        batch = fuse_series(model, xs, idx)
        np.testing.assert_allclose(
            batch, [fuse(model, xs, int(n)) for n in idx], atol=1e-12
        )

    def test_history_errors_propagate(self):
        eq = EqualizerModel(3, np.ones(4), 0.0, 0.0, 0.0)
        model = FusionModel((("a", eq),), [1.0], "equal_gain")
        with pytest.raises(ValueError, match="window"):
            fuse(model, [np.ones(10)], 1)


class TestSelectChannels:
    def make(self, mses):
        return [
            (f"ch{i}", passthrough(validation_mse=m)) for i, m in enumerate(mses)
        ]

    def test_top_k(self):
        chans = self.make([0.5, 0.2, 0.9])
        kept, forced = select_channels(chans, "top_k", k=1)
        assert [n for n, _ in kept] == ["ch1"]
        assert not forced

    def test_threshold(self):
        chans = self.make([0.5, 0.2, 0.9])
        kept, forced = select_channels(chans, "mse_threshold", threshold=0.3)
        assert [n for n, _ in kept] == ["ch1"]
        assert not forced

    def test_threshold_fallback_to_best(self):
        chans = self.make([0.5, 0.2, 0.9])
        kept, forced = select_channels(chans, "mse_threshold", threshold=0.1)
        assert [n for n, _ in kept] == ["ch1"]
        assert forced

    def test_top_k_too_large_warns(self):
        chans = self.make([0.5, 0.2])
        with pytest.warns(UserWarning, match="keeping all"):
            kept, _ = select_channels(chans, "top_k", k=5)
        assert len(kept) == 2

    def test_ties_break_by_name(self):
        chans = self.make([0.4, 0.4, 0.4])
        kept, _ = select_channels(chans, "top_k", k=2)
        assert [n for n, _ in kept] == ["ch0", "ch1"]

    def test_argsort_invariance(self):
        mses = [0.5, 0.2, 0.9, 0.3]
        chans = self.make(mses)
        monotone = self.make([np.exp(m) for m in mses])
        for k in (1, 2, 3):
            a, _ = select_channels(chans, "top_k", k=k)
            b, _ = select_channels(monotone, "top_k", k=k)
            assert [n for n, _ in a] == [n for n, _ in b]

    @pytest.mark.parametrize("k", [None, 0, 1.5, 2.0])
    def test_top_k_needs_a_positive_integer(self, k):
        with pytest.raises(ValueError, match=f"integer k >= 1, got {k!r}"):
            select_channels(self.make([0.5, 0.2, 0.9]), "top_k", k=k)

    @pytest.mark.parametrize("threshold", [None, float("nan"), np.nan])
    def test_threshold_must_be_a_number(self, threshold):
        # NaN compares false with every MSE: it once forced the single best
        with pytest.raises(ValueError, match="needs a threshold, got "):
            select_channels(self.make([0.5, 0.2]), "mse_threshold", threshold=threshold)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            select_channels(self.make([0.1]), "random")

    def test_empty(self):
        with pytest.raises(ValueError, match="no channels"):
            select_channels([], "top_k", k=1)


class TestOnlineUpdate:
    def make_model(self):
        chans = (("a", passthrough()), ("b", passthrough()))
        return FusionModel(chans, [0.5, 0.5], "mrc_inverse_mse")

    def test_equal_trailing_errors(self):
        model = self.make_model()
        out = online_alpha_update(model, [np.ones(10), np.ones(10)], window=5)
        np.testing.assert_allclose(out.alphas, [0.5, 0.5])

    def test_one_to_three_trailing(self):
        model = self.make_model()
        errs = [np.full(8, 1.0), np.full(8, 3.0)]
        out = online_alpha_update(model, errs, window=4)
        np.testing.assert_allclose(out.alphas, [0.75, 0.25])

    def test_window_restricts_history(self):
        model = self.make_model()
        # old errors say channel b is better; the trailing window disagrees
        errs = [
            np.concatenate([np.full(50, 9.0), np.full(4, 1.0)]),
            np.concatenate([np.full(50, 1.0), np.full(4, 3.0)]),
        ]
        out = online_alpha_update(model, errs, window=4)
        np.testing.assert_allclose(out.alphas, [0.75, 0.25])

    def test_short_history_warns_and_uses_all(self):
        model = self.make_model()
        with pytest.warns(UserWarning, match="all available"):
            out = online_alpha_update(model, [np.full(2, 1.0), np.full(2, 3.0)], window=10)
        np.testing.assert_allclose(out.alphas, [0.75, 0.25])

    def test_short_window_warning_names_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            online_alpha_update(self.make_model(), [np.ones(2), np.ones(2)], window=10)
        assert [w.filename for w in caught] == [__file__]

    def test_no_history_unchanged(self):
        model = self.make_model()
        out = online_alpha_update(model, [np.zeros(0), np.zeros(0)], window=5)
        assert out is model

    def test_requires_inverse_mse_mode(self):
        chans = (("a", passthrough()), ("b", passthrough()))
        model = FusionModel(chans, [0.5, 0.5], "equal_gain")
        with pytest.raises(ValueError, match="mrc_inverse_mse"):
            online_alpha_update(model, [np.ones(3), np.ones(3)], window=2)

    def test_history_count_checked(self):
        with pytest.raises(ValueError, match="per channel"):
            online_alpha_update(self.make_model(), [np.ones(3)], window=2)

    @pytest.mark.parametrize("lengths", [(3, 2), (0, 4), (5, 1)])
    def test_ragged_histories_rejected(self, lengths):
        histories = [np.ones(k) for k in lengths]
        with pytest.raises(ValueError, match="share one length"):
            online_alpha_update(self.make_model(), histories, window=2)

    @pytest.mark.parametrize("n", [0, 3, 7, 20])
    def test_trailing_mean_of_random_histories(self, n):
        # window 7: n = 0, n < W, n = W and n > W
        window = 7
        rng = np.random.default_rng(n)
        chans = tuple((c, passthrough()) for c in "abc")
        model = FusionModel(chans, [0.2, 0.3, 0.5], "mrc_inverse_mse")
        err = rng.exponential(size=(3, n)) * [[1.0], [2.0], [0.5]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = online_alpha_update(model, list(err), window)
        assert len(caught) == int(0 < n < window)
        if n == 0:
            assert out is model
        else:
            want = mrc_weights_inverse_mse(err[:, -window:].mean(axis=1))
            np.testing.assert_allclose(out.alphas, want, rtol=1e-12)


class TestOnlineWeights:
    def test_rows_hold_weights_in_force_per_sample(self):
        err = np.array([[1.0, 1.0, 1.0, 9.0], [3.0, 3.0, 3.0, 3.0]])
        rows = online_inverse_mse_weights(err, 2, [0.5, 0.5])
        assert rows.shape == (5, 2)
        np.testing.assert_array_equal(rows[0], [0.5, 0.5])
        np.testing.assert_allclose(rows[1:4], [[0.75, 0.25]] * 3, rtol=1e-15)
        # trailing window of two: mean errors 5 and 3
        np.testing.assert_allclose(rows[4], [0.375, 0.625], rtol=1e-15)

    def test_matches_online_alpha_update_after_every_sample(self):
        rng = np.random.default_rng(12)
        err = rng.exponential(size=(3, 30)) * [[1.0], [2.0], [0.5]]
        chans = tuple((c, passthrough()) for c in "abc")
        model = FusionModel(chans, [0.2, 0.3, 0.5], "mrc_inverse_mse")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = online_inverse_mse_weights(err, 7, model.alphas)
            for i in range(err.shape[1]):
                step = online_alpha_update(model, list(err[:, : i + 1]), 7)
                np.testing.assert_allclose(rows[i + 1], step.alphas, rtol=1e-12)

    def test_no_samples_keeps_initial(self):
        rows = online_inverse_mse_weights(np.zeros((2, 0)), 5, [0.25, 0.75])
        np.testing.assert_array_equal(rows, [[0.25, 0.75]])

    def test_short_window_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            online_inverse_mse_weights(np.ones((2, 40)), 50, [0.5, 0.5])
        assert len(caught) == 1
        assert "fewer completed errors" in str(caught[0].message)

    def test_short_window_warning_names_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            online_inverse_mse_weights(np.ones((2, 3)), 10, [0.5, 0.5])
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("n, window, warns", [
        (0, 5, False), (1, 5, True), (4, 5, True), (5, 5, False), (100, 5, False),
        (1, 1, False),
    ])
    def test_warns_exactly_when_final_row_is_short(self, n, window, warns):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            online_inverse_mse_weights(np.ones((2, n)), window, [0.5, 0.5])
        assert len(caught) == int(warns)

    def test_window_of_one_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = online_inverse_mse_weights([[1.0, 2.0], [2.0, 1.0]], 1, [0.5, 0.5])
        np.testing.assert_allclose(rows[-1], [1 / 3, 2 / 3], rtol=1e-15)

    def test_tiny_errors_give_finite_weights(self):
        err = np.array([[1e-320, 1e-320], [1.0, 1.0]])
        rows = online_inverse_mse_weights(err, 1, [0.5, 0.5])
        assert np.all(np.isfinite(rows))
        np.testing.assert_array_equal(rows[1:, 0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "err, window, initial, match",
        [
            (np.ones(4), 2, [1.0], "M, n"),
            ([[1.0, -1.0]], 2, [1.0], "nonnegative"),
            ([[1.0, np.nan]], 2, [1.0], "finite"),
            ([[1.0, 2.0]], 0, [1.0], "window"),
            ([[1.0, 2.0]], 2, [0.5, 0.5], "initial weight per channel"),
            ([[1.0], [2.0]], 2, [0.9, 0.9], "convex"),
        ],
    )
    def test_rejects_bad_input(self, err, window, initial, match):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match=match):
                online_inverse_mse_weights(err, window, initial)

    @settings(max_examples=60, deadline=None)
    @given(
        n_channels=st.integers(1, 5),
        n=st.integers(1, 400),
        extra=st.integers(0, 420),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.lists(st.sampled_from([0.0, 0.9, 1.0]), min_size=5, max_size=5),
    )
    def test_matches_per_sample_loop(self, n_channels, n, extra, seed, zero_share):
        window = 1 + extra % (n + 20)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        # a channel whose estimate equals the target has exact-zero errors
        noise = rng.standard_normal((n_channels, n)) * rng.uniform(0.1, 3.0, (n_channels, 1))
        noise *= rng.random((n_channels, n)) >= np.array(zero_share[:n_channels])[:, None]
        est = y + noise
        initial = mrc_weights_inverse_mse(rng.uniform(0.1, 2.0, n_channels))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_rows, want_fused = online_inverse_mse_loop(est, y, window, initial)
            rows = online_inverse_mse_weights((y - est) ** 2, window, initial)
        np.testing.assert_allclose(rows, want_rows, rtol=1e-12, atol=0)
        fused = np.einsum("ij,ji->i", rows[:-1], est)
        # relative to the summands' magnitude, so that cancellation cannot
        # turn rounding into a large relative error
        scale = np.einsum("ij,ji->i", np.abs(rows[:-1]), np.abs(est))
        assert np.all(np.abs(fused - want_fused) <= 1e-12 * scale)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(100)
        y = 2.0 * x + 0.1 * rng.standard_normal(100)
        eq = fit_weights(x, y, 1)
        model = FusionModel((("fx", eq), ("rates", passthrough())), [0.7, 0.3], "mrc_inverse_mse")
        blob = json.dumps(fusion_to_dict(model))
        again = fusion_from_dict(json.loads(blob))
        assert again.mode == model.mode
        assert again.names == model.names
        np.testing.assert_array_equal(again.alphas, model.alphas)
        np.testing.assert_array_equal(again.models[0].weights, eq.weights)

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            fusion_from_dict({"mode": "equal_gain"})

    def test_degenerate_flag_round_trips(self):
        model = FusionModel(
            (("a", passthrough()), ("b", passthrough())),
            [1.5, -0.5],
            "mrc_lmmse",
            degenerate=True,
        )
        again = fusion_from_dict(json.loads(json.dumps(fusion_to_dict(model))))
        assert again.degenerate

    def test_file_naming_a_channel_twice_rejected(self):
        m = passthrough()
        blob = fusion_to_dict(FusionModel((("a", m), ("b", m)), [0.5, 0.5], "mrc_inverse_mse"))
        blob["channels"][1]["name"] = "a"
        with pytest.raises(ValueError, match="^duplicate channel name 'a'$"):
            fusion_from_dict(json.loads(json.dumps(blob)))

    def test_files_without_degenerate_flag_load(self):
        blob = fusion_to_dict(FusionModel((("a", passthrough()),), [1.0], "equal_gain"))
        del blob["degenerate"]
        assert not fusion_from_dict(blob).degenerate


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["predictions", "targets"])
def test_lmmse_rejects_non_finite_inputs(bad, where):
    preds, y = np.ones((2, 6)), np.arange(6.0)
    (preds[1] if where == "predictions" else y)[3] = bad
    with pytest.raises(ValueError, match="finite"):
        mrc_weights_lmmse(preds, y)
