import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctda.dataio import gen_fir_series
from ctda.equalizer import (
    EqualizerModel,
    default_lms_step,
    estimate_series,
    fit_weights,
    infer,
    lms_update,
    model_from_dict,
    model_to_dict,
    predict_next,
    select_length,
)

from oracles import equalizer_design, naive_fir


def centered_lstsq(x, y, length, mode="infer"):
    """Independent fit: explicit design matrix with a ones column + lstsq."""
    rows, targets = equalizer_design(x, y, length, mode)
    rows = np.hstack([rows, np.ones((rows.shape[0], 1))])
    w, *_ = np.linalg.lstsq(rows, targets, rcond=None)
    return w[:-1]


class TestModelInvariants:
    def test_tap_count(self):
        with pytest.raises(ValueError, match="taps"):
            EqualizerModel(2, np.ones(2), 0.0, 0.0, 0.0)

    def test_negative_length(self):
        with pytest.raises(ValueError, match="length"):
            EqualizerModel(-1, np.ones(0), 0.0, 0.0, 0.0)

    def test_finite_weights(self):
        with pytest.raises(ValueError, match="finite"):
            EqualizerModel(0, [np.nan], 0.0, 0.0, 0.0)

    def test_negative_mse(self):
        with pytest.raises(ValueError):
            EqualizerModel(0, [1.0], 0.0, 0.0, -1.0)

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            EqualizerModel(0, [1.0], 0.0, 0.0, 0.0, mode="smooth")


class TestFitWeights:
    def test_identity_link(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        model = fit_weights(x, x, 0)
        np.testing.assert_allclose(model.weights, [1.0], atol=1e-9)
        assert model.training_mse <= 1e-12
        assert not model.degenerate

    def test_two_tap_noiseless_binary_input(self):
        rng = np.random.default_rng(1)
        x = rng.choice([-1.0, 1.0], size=300)
        y = naive_fir(x, [0.5, -0.25])
        model = fit_weights(x, y, 1)
        np.testing.assert_allclose(model.weights, [0.5, -0.25], atol=1e-9)
        # cross-check against an explicit 2x2 normal-equation solve
        np.testing.assert_allclose(model.weights, centered_lstsq(x, y, 1), atol=1e-9)

    def test_constant_input_degenerate(self):
        x = np.full(50, 3.0)
        y = np.arange(50.0)
        model = fit_weights(x, y, 2)
        assert model.degenerate
        assert infer(model, x, 10) == pytest.approx(model.mean_y)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            fit_weights(np.ones(3), np.ones(3), 2)

    def test_nonzero_means_recovered(self):
        rng = np.random.default_rng(2)
        x = 100.0 + rng.standard_normal(400)
        y = 7.0 + naive_fir(x - 100.0, [0.3, 0.2])
        model = fit_weights(x, y, 1)
        assert model.mean_x == pytest.approx(100.0, abs=0.2)
        np.testing.assert_allclose(model.weights, [0.3, 0.2], atol=1e-6)
        assert model.training_mse < 1e-12

    def test_predict_mode_matches_shifted_regression(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        y = naive_fir(x, [0.9]) + 0.1 * rng.standard_normal(500)
        model = fit_weights(x, y, 2, mode="predict")
        np.testing.assert_allclose(
            model.weights, centered_lstsq(x, y, 2, "predict"), atol=1e-9
        )

    def test_mismatched_series(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_weights(np.ones(5), np.ones(6), 0)

    def test_non_finite_series(self):
        x = np.ones(10)
        x[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_weights(x, np.ones(10), 0)


class TestSelectLength:
    def test_two_tap_fir_picks_one(self):
        # 2-tap generator: the held-back 20% should prefer exactly L=1
        x, y = gen_fir_series(0, 1500, [[0.8, -0.5]], noise_sigma=0.05)
        model = select_length(x[0], y, 10)
        assert model.length == 1
        np.testing.assert_allclose(model.weights, [0.8, -0.5], atol=0.02)
        assert model.validation_mse > 0

    def test_selected_matches_exhaustive_sweep(self):
        x, y = gen_fir_series(0, 1500, [[0.8, -0.5]], noise_sigma=0.05)
        x = x[0]
        split = int(0.8 * x.size)
        sweep = []
        for length in range(11):
            cand = fit_weights(x[:split], y[:split], length)
            ends = np.arange(split, x.size)
            est = estimate_series(cand, x, ends)
            sweep.append(float(np.mean((y[split:] - est) ** 2)))
        model = select_length(x, y, 10)
        assert model.length == int(np.argmin(sweep))
        assert model.validation_mse == pytest.approx(min(sweep), rel=1e-12)

    def test_white_noise_target_aic_picks_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        model = select_length(x, y, 8, criterion="aic")
        assert model.length == 0

    def test_aic_records_training_mse_as_validation(self):
        x, y = gen_fir_series(7, 500, [[1.0, 0.4]], noise_sigma=0.1)
        model = select_length(x[0], y, 5, criterion="aic")
        assert model.validation_mse == model.training_mse

    def test_refit_uses_full_data(self):
        x, y = gen_fir_series(8, 1000, [[0.6, 0.3]], noise_sigma=0.05)
        model = select_length(x[0], y, 6)
        refit = fit_weights(x[0], y, model.length)
        np.testing.assert_array_equal(model.weights, refit.weights)
        assert model.training_mse == refit.training_mse

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="80/20"):
            select_length(np.arange(12.0), np.arange(12.0), 10)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            select_length(np.arange(100.0), np.arange(100.0), 2, criterion="bic")

    def test_tie_breaks_to_smallest(self):
        # identity link: every length fits perfectly, so L=0 must win
        rng = np.random.default_rng(9)
        x = rng.standard_normal(500)
        model = select_length(x, x.copy(), 5)
        assert model.length == 0


class TestInferPredict:
    def test_passthrough(self):
        model = EqualizerModel(0, [1.0], 0.0, 0.0, 0.0)
        x = np.array([5.0, -2.0, 7.0])
        assert infer(model, x, 2) == pytest.approx(7.0)

    def test_two_tap_arithmetic(self):
        model = EqualizerModel(1, [0.5, -0.25], 0.0, 0.0, 0.0)
        x = np.array([0.0, 2.0, 4.0])
        assert infer(model, x, 2) == pytest.approx(1.5)

    def test_zero_weights_give_mean(self):
        model = EqualizerModel(1, [0.0, 0.0], 3.0, 42.0, 0.0)
        assert infer(model, np.ones(10), 5) == pytest.approx(42.0)

    def test_predict_same_window(self):
        model = EqualizerModel(1, [0.5, -0.25], 0.0, 0.0, 0.0, mode="predict")
        x = np.array([0.0, 2.0, 4.0])
        assert predict_next(model, x, 2) == pytest.approx(1.5)

    def test_insufficient_history(self):
        model = EqualizerModel(3, np.ones(4), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="history"):
            infer(model, np.ones(10), 2)

    def test_index_out_of_range(self):
        model = EqualizerModel(0, [1.0], 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            infer(model, np.ones(5), 5)

    def test_estimate_series_matches_pointwise(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(100)
        y = naive_fir(x, [0.4, 0.1]) + 0.01 * rng.standard_normal(100)
        model = fit_weights(x, y, 3)
        idx = np.arange(3, 100)
        batch = estimate_series(model, x, idx)
        single = [infer(model, x, int(i)) for i in idx]
        np.testing.assert_allclose(batch, single, atol=1e-12)

    def test_estimate_series_empty(self):
        model = EqualizerModel(0, [1.0], 0.0, 0.0, 0.0)
        assert estimate_series(model, np.ones(5), []).size == 0


class TestLms:
    def test_zero_error_fixed_point(self):
        model = EqualizerModel(0, [1.0], 0.0, 0.0, 0.0)
        x = np.array([2.0])
        updated = lms_update(model, x, np.array([2.0]), 0, step=0.5)
        np.testing.assert_array_equal(updated.weights, model.weights)

    def test_single_step_rule(self):
        model = EqualizerModel(0, [0.0], 0.0, 0.0, 0.0)
        updated = lms_update(model, np.array([1.0]), np.array([1.0]), 0, step=0.5)
        np.testing.assert_allclose(updated.weights, [0.5])

    def test_converges_toward_batch_solution(self):
        x, y = gen_fir_series(6, 3000, [[0.8, -0.5]], noise_sigma=0.0)
        x = x[0]
        target = fit_weights(x, y, 1)
        model = dataclasses.replace(target, weights=np.zeros(2))
        step = default_lms_step(x)
        dist = [float(np.linalg.norm(model.weights - target.weights))]
        for n in range(1, x.size):
            model = lms_update(model, x, y, n, step)
            if n % 500 == 0:
                dist.append(float(np.linalg.norm(model.weights - target.weights)))
        dist.append(float(np.linalg.norm(model.weights - target.weights)))
        assert dist[-1] < 0.05 * dist[0]
        assert all(b < a for a, b in zip(dist, dist[1:]))

    def test_divergent_step_rejected(self):
        model = EqualizerModel(0, [0.0], 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="diverged"):
            lms_update(model, np.array([1e200]), np.array([1e200]), 0, step=1e200)

    def test_nonpositive_step(self):
        model = EqualizerModel(0, [0.0], 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="step"):
            lms_update(model, np.array([1.0]), np.array([1.0]), 0, step=0.0)

    def test_default_step_scaling(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert default_lms_step(x) == pytest.approx(0.01)
        with pytest.raises(ValueError, match="constant"):
            default_lms_step(np.ones(5))

    @pytest.mark.filterwarnings("error")
    def test_default_step_of_an_overflowing_variance_says_to_rescale(self):
        # np.var overflows to inf here: the step was 0.0, which lms_update
        # then refused without saying why
        x = 1e200 * np.random.default_rng(0).standard_normal(100)
        with pytest.raises(ValueError, match="variance overflows float64; rescale"):
            default_lms_step(x)

    def test_length_and_means_preserved(self):
        model = EqualizerModel(1, [0.1, 0.2], 5.0, 6.0, 0.3)
        updated = lms_update(model, np.array([7.0, 8.0]), np.array([0.0, 9.0]), 1, 0.1)
        assert updated.length == model.length
        assert updated.mean_x == model.mean_x
        assert updated.mean_y == model.mean_y


class TestProperties:
    def test_training_mse_non_increasing_in_length(self):
        # nested least squares: the longer model can zero its extra tap, so
        # its SSE over the rows both models cover cannot be worse; the plain
        # per-model MSE inherits that up to the shrinking row count
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(300)
            y = naive_fir(x, [0.5, 0.2, -0.1]) + 0.2 * rng.standard_normal(300)
            models = [fit_weights(x, y, length) for length in range(11)]
            for shorter, longer in zip(models, models[1:]):
                rows = np.arange(longer.length, x.size)
                shared = np.mean((y[rows] - estimate_series(shorter, x, rows)) ** 2)
                assert longer.training_mse <= shared + 1e-12
                n_rows = x.size - shorter.length
                assert (
                    longer.training_mse
                    <= shorter.training_mse * n_rows / (n_rows - 1) + 1e-12
                )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_noiseless_fir_recovery(self, length, seed):
        rng = np.random.default_rng(seed)
        taps = rng.uniform(-1.0, 1.0, size=length + 1)
        taps[0] = taps[0] + np.sign(taps[0] or 1.0)  # keep leading tap away from 0
        x = rng.standard_normal(200 + 20 * length)
        y = naive_fir(x, taps)
        model = fit_weights(x, y, length)
        np.testing.assert_allclose(model.weights, taps, atol=1e-9)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(400)
        y = naive_fir(x, [0.7, -0.2]) + 0.05 * rng.standard_normal(400)
        base = fit_weights(x, y, 1)
        scaled = fit_weights(3.0 * x, y, 1)
        np.testing.assert_allclose(scaled.weights, base.weights / 3.0, atol=1e-9)
        for n in (10, 100, 399):
            assert infer(scaled, 3.0 * x, n) == pytest.approx(
                infer(base, x, n), abs=1e-9
            )


class TestSerialization:
    def test_round_trip(self):
        x, y = gen_fir_series(13, 400, [[0.5, 0.3]], noise_sigma=0.1)
        model = select_length(x[0], y, 4)
        blob = json.dumps(model_to_dict(model))
        again = model_from_dict(json.loads(blob))
        assert again.length == model.length
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.mean_x == model.mean_x
        assert again.validation_mse == model.validation_mse
        assert again.mode == model.mode

    def test_expected_keys(self):
        model = EqualizerModel(0, [1.0], 0.0, 0.0, 0.0)
        assert set(model_to_dict(model)) == {
            "length", "weights", "mean_x", "mean_y",
            "training_mse", "validation_mse", "mode", "degenerate",
        }

    def test_degenerate_flag_round_trips(self):
        # a constant input leaves the normal equations rank deficient
        model = fit_weights(np.ones(50), np.arange(50.0), 2)
        assert model.degenerate
        again = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert again.degenerate

    def test_files_without_degenerate_flag_load(self):
        blob = model_to_dict(EqualizerModel(0, [1.0], 0.0, 0.0, 0.0))
        del blob["degenerate"]
        assert not model_from_dict(blob).degenerate

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            model_from_dict({"length": 0})


class TestLmsNonFiniteStep:
    @pytest.mark.parametrize("step", [np.nan, np.inf])
    def test_rejected_naming_the_step(self, step):
        model = EqualizerModel(0, [0.0], 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="LMS step must be finite and positive"):
            lms_update(model, np.array([1.0]), np.array([1.0]), 0, step=step)


def overflowing_fir_case():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    return x, np.convolve(x, [0.9, -0.4, 0.2])[:300]


@pytest.mark.filterwarnings("error")
class TestOverflowingMagnitudes:
    """A fit whose squares pass float64's range ends in a ValueError that
    says to rescale: never an infinite MSE in a model, never a crash, never
    an overflowed Gram handed to LAPACK, and no numpy warning before it."""

    @pytest.mark.parametrize("field", ["training_mse", "validation_mse"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_model_rejects_a_non_finite_mse(self, field, bad):
        mses = {"training_mse": 0.0, field: bad}
        with pytest.raises(ValueError, match="must be finite; rescale the series"):
            EqualizerModel(0, [1.0], 0.0, 0.0, **mses)

    def test_loaded_infinity_is_rejected(self):
        blob = json.loads(json.dumps(model_to_dict(EqualizerModel(0, [1.0], 0.0, 0.0, 0.0))))
        blob["training_mse"] = float("inf")
        with pytest.raises(ValueError, match="must be finite"):
            model_from_dict(blob)

    def test_fit_weights_refuses_an_infinite_training_mse(self):
        x, y = overflowing_fir_case()
        with pytest.raises(ValueError, match="rescale the series"):
            fit_weights(x, 1e200 * y, 3)

    @pytest.mark.parametrize("criterion", ["validation", "aic"])
    def test_select_length_says_to_rescale(self, criterion):
        x, y = overflowing_fir_case()
        with pytest.raises(ValueError, match="rescale the series"):
            select_length(x, 1e200 * y, 5, criterion)

    def test_select_length_with_no_finite_held_out_score(self):
        # every fit is finite, but every held-out score overflows
        x, y = overflowing_fir_case()
        y[int(0.8 * y.size):] *= 1e200
        with pytest.raises(ValueError, match="no candidate length has a finite score"):
            select_length(x, y, 5)

    def test_fit_weights_on_an_input_whose_mean_overflows(self):
        x, y = overflowing_fir_case()
        with pytest.raises(ValueError, match="rescale the series"):
            fit_weights(1e306 * np.abs(x), y, 2)

    @pytest.mark.parametrize("criterion", ["validation", "aic"])
    @pytest.mark.parametrize("which", ["input", "target"])
    def test_select_length_on_a_series_whose_mean_overflows(self, which, criterion):
        x, y = overflowing_fir_case()
        if which == "input":
            x = 1e306 * np.abs(x)
        else:
            y = 1e306 * np.abs(y)
        with pytest.raises(ValueError, match="rescale the series"):
            select_length(x, y, 5, criterion)

    def test_near_float_max_input_reaches_no_lapack_routine(self, capfd):
        x = np.random.default_rng(1).standard_normal(300)
        with pytest.raises(ValueError, match="normal equations overflow float64"):
            fit_weights(1e300 * x, x, 2)
        assert "DLASCL" not in capfd.readouterr().err
