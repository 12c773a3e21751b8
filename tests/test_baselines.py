import json

import numpy as np
import pytest

from ctda.baselines import (
    LinearModel,
    fit_bayes,
    fit_ols,
    linear_model_from_dict,
    linear_model_to_dict,
    predict,
    predict_series,
)

from oracles import affine_lstsq, joint_lag_design, ridge_unpenalized_intercept


class TestLinearModel:
    def test_coefficient_count(self):
        with pytest.raises(ValueError, match="split"):
            LinearModel(np.ones(3), 0.0, 1, 0.0)

    def test_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LinearModel([np.nan], 0.0, 0, 0.0)

    def test_negative_mse(self):
        with pytest.raises(ValueError):
            LinearModel([1.0], 0.0, 0, -0.1)

    def test_method(self):
        with pytest.raises(ValueError, match="method"):
            LinearModel([1.0], 0.0, 0, 0.0, method="lasso")

    def test_n_channels(self):
        model = LinearModel(np.ones(6), 0.0, 2, 0.0)
        assert model.n_channels == 2


class TestFitOls:
    def test_exact_two_channel_lag0(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 100))
        y = 2.0 * x[0] + 3.0 * x[1]
        model = fit_ols(x, y, 0)
        np.testing.assert_allclose(model.coefficients, [2.0, 3.0], atol=1e-9)
        assert abs(model.intercept) < 1e-9
        assert model.residual_mse < 1e-18
        assert not model.degenerate

    def test_pure_lag_one_coefficient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 200))
        y = np.zeros(200)
        y[1:] = x[0, :-1]
        model = fit_ols(x[:, 1:], y[1:], 1)
        expected = np.zeros(4)
        expected[1] = 1.0  # channel 0, lag 1
        np.testing.assert_allclose(model.coefficients, expected, atol=1e-9)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 500))
        y = x[0] - 0.5 * x[1] + 0.25 * x[2] + 0.1 * rng.standard_normal(500)
        model = fit_ols(x, y, 2)
        rows, targets = joint_lag_design(x, y, 2)
        coef, intercept = affine_lstsq(rows, targets)
        np.testing.assert_allclose(model.coefficients, coef, atol=1e-9)
        assert model.intercept == pytest.approx(intercept, abs=1e-9)

    def test_duplicated_channel_degenerate(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(80)
        model = fit_ols(np.vstack([x, x]), x.copy(), 0)
        assert model.degenerate
        # jittered fit still reproduces the target
        assert model.residual_mse < 1e-12

    def test_single_series_accepted(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(50)
        model = fit_ols(x, 0.5 * x, 0)
        np.testing.assert_allclose(model.coefficients, [0.5], atol=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_ols(np.ones((1, 3)), np.ones(3), 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            fit_ols(np.ones((1, 5)), np.ones(6), 0)


class TestFitBayes:
    def test_flat_prior_limit_is_ols(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 300))
        y = x[0] + 0.5 * x[1] + 0.2 * rng.standard_normal(300)
        ols = fit_ols(x, y, 1)
        bayes = fit_bayes(x, y, 1, prior_variance=1e12, noise_variance=1.0)
        np.testing.assert_allclose(bayes.coefficients, ols.coefficients, atol=1e-6)
        assert bayes.intercept == pytest.approx(ols.intercept, abs=1e-6)

    def test_dogmatic_prior_predicts_mean(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 300))
        y = 5.0 + x[0] + 0.2 * rng.standard_normal(300)
        model = fit_bayes(x, y, 0, prior_variance=1e-12, noise_variance=1.0)
        assert np.abs(model.coefficients).max() < 1e-9
        assert predict(model, x, 10) == pytest.approx(y.mean(), abs=1e-6)

    def test_matches_closed_form_ridge(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 150))
        y = 0.7 * x[0] - 0.3 * x[1] + 0.3 * rng.standard_normal(150)
        prior, noise = 2.0, 0.5
        model = fit_bayes(x, y, 0, prior_variance=prior, noise_variance=noise)
        rows, targets = joint_lag_design(x, y, 0)
        coef, intercept = ridge_unpenalized_intercept(rows, targets, noise / prior)
        np.testing.assert_allclose(model.coefficients, coef, atol=1e-9)
        assert model.intercept == pytest.approx(intercept, abs=1e-9)

    def test_default_noise_is_ols_residual(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 200))
        y = x[0] + 0.5 * rng.standard_normal(200)
        implicit = fit_bayes(x, y, 0)
        explicit = fit_bayes(
            x, y, 0, noise_variance=fit_ols(x, y, 0).residual_mse
        )
        np.testing.assert_array_equal(implicit.coefficients, explicit.coefficients)

    def test_never_degenerate(self):
        x = np.ones((2, 50))
        model = fit_bayes(np.vstack([x[0], x[0]]), np.ones(50), 0, noise_variance=1.0)
        assert not model.degenerate

    def test_bad_hyperparameters(self):
        x = np.ones((1, 10))
        with pytest.raises(ValueError, match="prior"):
            fit_bayes(x, np.ones(10), 0, prior_variance=0.0)
        with pytest.raises(ValueError, match="noise"):
            fit_bayes(x, np.ones(10), 0, noise_variance=-1.0)

    def test_negative_lag_rejected_before_solving(self):
        x = np.ones((1, 10))
        with pytest.raises(ValueError, match="lag must be >= 0"):
            fit_bayes(x, np.ones(10), -1, noise_variance=1.0)


class TestPredict:
    def test_affine_evaluation(self):
        model = LinearModel([2.0, 3.0], 1.0, 0, 0.0)
        x = np.array([[1.0, 2.0], [10.0, 20.0]])
        assert predict(model, x, 1) == pytest.approx(1.0 + 2.0 * 2.0 + 3.0 * 20.0)

    def test_lagged_window_order(self):
        # coefficient layout is (channel, lag) with the newest sample first
        model = LinearModel([1.0, 10.0], 0.0, 1, 0.0)
        x = np.array([[5.0, 7.0]])
        assert predict(model, x, 1) == pytest.approx(7.0 + 50.0)

    def test_zero_coefficients_give_intercept(self):
        model = LinearModel([0.0, 0.0], 4.5, 1, 0.0)
        assert predict(model, np.ones((1, 10)), 3) == pytest.approx(4.5)

    def test_insufficient_history(self):
        model = LinearModel([1.0, 1.0], 0.0, 1, 0.0)
        with pytest.raises(ValueError, match="history"):
            predict(model, np.ones((1, 10)), 0)

    def test_channel_count_checked(self):
        model = LinearModel([1.0, 1.0], 0.0, 0, 0.0)
        with pytest.raises(ValueError, match="channels"):
            predict(model, np.ones((3, 10)), 2)

    def test_series_channel_count_checked(self):
        model = LinearModel([1.0, 1.0], 0.0, 0, 0.0)
        with pytest.raises(ValueError, match="covers 2 channels, got 3"):
            predict_series(model, np.ones((3, 10)), [2, 5])

    def test_series_names_the_bad_index(self):
        model = LinearModel([1.0, 1.0], 0.0, 1, 0.0)
        with pytest.raises(ValueError, match="index 0 needs 1 past samples"):
            predict_series(model, np.ones((1, 10)), [5, 0])
        with pytest.raises(ValueError, match="index 10 outside series of length 10"):
            predict_series(model, np.ones((1, 10)), [5, 10])

    def test_series_matches_pointwise(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 60))
        y = x[0] + x[1]
        model = fit_ols(x, y, 1)
        idx = np.arange(1, 60)
        batch = predict_series(model, x, idx)
        np.testing.assert_allclose(
            batch, [predict(model, x, int(n)) for n in idx], atol=1e-12
        )


class TestProperties:
    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 400))
        y = 0.5 * x[0] - x[1] + rng.standard_normal(400)
        model = fit_ols(x, y, 1)
        rows, targets = joint_lag_design(x, y, 1)
        residuals = targets - (rows @ model.coefficients + model.intercept)
        assert np.abs(residuals.sum()) < 1e-8 * targets.size
        assert np.abs(rows.T @ residuals).max() < 1e-8 * targets.size

    def test_bayes_shrinkage_monotone(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 200))
        y = x[0] + x[1] + 0.5 * rng.standard_normal(200)
        norms = [
            float(np.linalg.norm(
                fit_bayes(x, y, 0, prior_variance=1.0, noise_variance=nv).coefficients
            ))
            for nv in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_constant_shift_moves_only_intercept(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 200))
        y = x[0] - x[1] + 0.3 * rng.standard_normal(200)
        base = fit_ols(x, y, 0)
        shifted = fit_ols(x, y + 100.0, 0)
        np.testing.assert_allclose(shifted.coefficients, base.coefficients, atol=1e-9)
        assert shifted.intercept == pytest.approx(base.intercept + 100.0, abs=1e-8)
        bayes_base = fit_bayes(x, y, 0, noise_variance=1.0)
        bayes_shift = fit_bayes(x, y + 100.0, 0, noise_variance=1.0)
        np.testing.assert_allclose(
            bayes_shift.coefficients, bayes_base.coefficients, atol=1e-9
        )


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 100))
        y = x[0] + 2.0 * x[1]
        model = fit_bayes(x, y, 1, noise_variance=0.5)
        blob = json.dumps(linear_model_to_dict(model))
        again = linear_model_from_dict(json.loads(blob))
        assert again.method == "bayes"
        assert again.common_lag == 1
        np.testing.assert_array_equal(again.coefficients, model.coefficients)
        assert again.intercept == model.intercept

    def test_type_key(self):
        model = LinearModel([1.0], 0.0, 0, 0.0, method="ols")
        assert linear_model_to_dict(model)["type"] == "ols"

    def test_degenerate_flag_round_trips(self):
        # two identical channels make the design rank deficient
        x = np.random.default_rng(14).standard_normal(60)
        model = fit_ols(np.vstack([x, x]), 2.0 * x, 0)
        assert model.degenerate
        again = linear_model_from_dict(json.loads(json.dumps(linear_model_to_dict(model))))
        assert again.degenerate

    def test_files_without_degenerate_flag_load(self):
        blob = linear_model_to_dict(LinearModel([1.0], 0.0, 0, 0.0, degenerate=True))
        del blob["degenerate"]
        assert not linear_model_from_dict(blob).degenerate

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            linear_model_from_dict({"type": "ols"})


class TestFitBayesNonFinite:
    x = np.random.default_rng(9).standard_normal((2, 80))
    y = x[0] - 0.5 * x[1]

    @pytest.mark.parametrize("kwargs, name", [
        ({"prior_variance": np.nan}, "prior variance"),
        ({"noise_variance": np.nan}, "noise variance"),
        ({"noise_variance": np.inf}, "noise variance"),
        ({"prior_variance": np.inf, "noise_variance": np.inf}, "noise variance"),
        ({"prior_variance": 1e-320, "noise_variance": 1.0}, "prior variance"),
    ])
    def test_rejected_with_the_argument_named(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            fit_bayes(self.x, self.y, 1, **kwargs)

    def test_infinite_prior_variance_is_ols(self):
        bayes = fit_bayes(self.x, self.y, 1, prior_variance=np.inf, noise_variance=1.0)
        ols = fit_ols(self.x, self.y, 1)
        np.testing.assert_array_equal(bayes.coefficients, ols.coefficients)
        assert bayes.intercept == ols.intercept


@pytest.mark.filterwarnings("error")  # the ValueError comes with no numpy warning
class TestOverflowingMagnitudes:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_model_rejects_a_non_finite_residual_mse(self, bad):
        with pytest.raises(ValueError, match="residual MSE must be finite; rescale"):
            LinearModel([1.0], 0.0, 0, bad)

    def test_fit_ols_refuses_an_infinite_residual_mse(self):
        x = np.random.default_rng(0).standard_normal((2, 300))
        with pytest.raises(ValueError, match="rescale the series"):
            fit_ols(x, 1e200 * (x[0] - x[1]), 2)

    def test_near_float_max_input_reaches_no_lapack_routine(self, capfd):
        x = np.random.default_rng(1).standard_normal((2, 300))
        with pytest.raises(ValueError, match="normal equations overflow float64"):
            fit_ols(1e300 * x, x[0], 1)
        assert "DLASCL" not in capfd.readouterr().err


# The fits build their normal equations from lagged sums and their residuals
# and predictions by convolution; before, they centred an explicit design.
# That design path is kept here as the oracle.  The two round differently,
# so they agree to DESIGN_TOL times the largest magnitude involved (measured:
# about 1e-14 on the benchmark's inputs, with or without a 1e6 offset).
DESIGN_TOL = 1e-12


def design_path(xs, y, lag, noise_variance=None, prior_variance=1.0):
    """``(coefficients, intercept, residual MSE)`` from the centred explicit
    design; ridge when ``noise_variance`` is given, else OLS."""
    rows, targets = joint_lag_design(xs, y, lag)
    col_means, target_mean = rows.mean(axis=0), targets.mean()
    ac, tc = rows - col_means, targets - target_mean
    penalty = 0.0 if noise_variance is None else noise_variance / prior_variance
    coef = np.linalg.solve(ac.T @ ac + penalty * np.eye(rows.shape[1]), ac.T @ tc)
    return coef, target_mean - coef @ col_means, np.mean((tc - ac @ coef) ** 2)


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_benchmark_shaped_fits_match_the_design_path(offset):
    # series_batch's shape: four white inputs of 20,000 rows, each through
    # its own FIR, plus noise; lag 10 fitted on the first 80 %
    rng = np.random.default_rng(15)
    taps = ([0.9, -0.4, 0.25], [0.5, 0.3, -0.2, 0.1], [-0.6, 0.2], [0.3, 0.3, -0.3, 0.2])
    x = rng.standard_normal((4, 20_000))
    y = sum(np.convolve(xm, c)[:20_000] for xm, c in zip(x, taps))
    x, y = x + offset, y + 0.5 * rng.standard_normal(20_000) + offset
    split, scale = 16_000, np.abs(y).max()
    ols_coef, ols_intercept, ols_mse = design_path(x[:, :split], y[:split], 10)
    want = {
        "ols": (ols_coef, ols_intercept, ols_mse),
        "bayes": design_path(x[:, :split], y[:split], 10, noise_variance=ols_mse),
    }
    for method, fit in (("ols", fit_ols), ("bayes", fit_bayes)):
        model = fit(x[:, :split], y[:split], 10)
        coef, intercept, mse = want[method]
        assert np.abs(model.coefficients - coef).max() <= DESIGN_TOL * max(1, np.abs(coef).max())
        assert abs(model.intercept - intercept) <= DESIGN_TOL * scale
        assert model.residual_mse == pytest.approx(mse, rel=DESIGN_TOL)
        rows, _ = joint_lag_design(x[:, split - 10 :], y[split - 10 :], 10)
        got = predict_series(model, x, np.arange(split, 20_000))
        want_pred = rows @ model.coefficients + model.intercept
        assert np.abs(got - want_pred).max() <= DESIGN_TOL * scale
