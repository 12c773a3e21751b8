"""End-to-end tests of the command line: every subcommand is exercised
in-process through ``main(argv)`` so exit codes and printed output stay
observable without spawning interpreters."""

import argparse
import csv
import datetime
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from ctda import __version__, cli, stats
from ctda.cli import (
    MAX_GRID_POINTS,
    _dims,
    _float_list,
    _grid,
    _write_predictions_csv,
    build_parser,
    main,
)
from ctda.baselines import fit_bayes, fit_ols, predict_series
from ctda.coupling import build_dtm, solve_coupling
from ctda.dataio import (
    ImageDataset,
    TimeSeries,
    apply_channel_to_dataset,
    gen_fir_series,
    gen_two_class_images,
    load_csv,
    save_csv,
    save_images_csv,
)
from ctda.equalizer import estimate_series, model_from_dict, select_length
from ctda.scoring import _curve_point, build_image_scorer, resolve_threads
from ctda.stats import (
    DiscreteDistribution,
    parametric_channel,
    save_channel,
    save_distribution,
    uniform_distribution,
)
from oracles import naive_separation_error, online_inverse_mse_loop, per_pixel_scores_loop
from pipe_feeder import fed_pipe

DIST_A = DiscreteDistribution([0.7, 0.1, 0.1, 0.1])
DIST_B = DiscreteDistribution([0.1, 0.1, 0.1, 0.7])


def write_series(path, values, start=0):
    ts = np.arange(start, start + len(values))
    save_csv(TimeSeries(path.stem, ts, np.asarray(values, dtype=float)), path)


@pytest.fixture
def fir_files(tmp_path):
    """One lightly noisy 2-tap channel and its target.

    A little noise keeps the validation argmin away from machine-epsilon
    ties, so the selected length is meaningful.
    """
    xs, y = gen_fir_series(0, 400, [[0.7, -0.3]], noise_sigma=0.05)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    write_series(x_path, xs[0])
    write_series(y_path, y)
    return x_path, y_path


@pytest.fixture
def two_channel_files(tmp_path):
    """Two channels of different quality feeding the same target."""
    xs, y = gen_fir_series(11, 600, [[1.0, 0.5], [0.3]], noise_sigma=0.05)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "tgt.csv"]
    write_series(paths[0], xs[0])
    write_series(paths[1], xs[1])
    write_series(paths[2], y)
    return paths


def run_fit(paths, out, extra=()):
    a, b, tgt = paths
    argv = [
        "fit",
        "--input",
        f"{a},{b}",
        "--target",
        str(tgt),
        "--max-length",
        "4",
        "--out",
        str(out),
    ]
    argv.extend(extra)
    assert main(argv) == 0
    return out


class TestParserHelpers:
    def test_grid_range(self):
        grid = _grid("0:0.25:0.025")
        assert len(grid) == 11
        np.testing.assert_allclose(grid, np.arange(11) * 0.025, atol=1e-12)

    def test_grid_range_inclusive_stop(self):
        np.testing.assert_allclose(_grid("0:0.1:0.05"), [0.0, 0.05, 0.1])

    def test_grid_single_value(self):
        assert _grid("0.1") == [0.1]

    def test_grid_comma_list_keeps_order(self):
        assert _grid("0.2,0.0,0.15") == [0.2, 0.0, 0.15]

    @pytest.mark.parametrize("bad", ["abc", "0.2:0.1:0.05", "0:1:0", "0:1:-0.1", ","])
    def test_grid_rejects(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            _grid(bad)

    def test_grid_at_the_cap_is_built(self):
        assert len(_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS

    @pytest.mark.parametrize(
        "text",
        [f"0:{MAX_GRID_POINTS}:1", "0:1:1e-9", ",".join(["0.1"] * (MAX_GRID_POINTS + 1))],
    )
    def test_grid_above_the_cap_is_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match=f"at most {MAX_GRID_POINTS}"):
            _grid(text)

    @pytest.mark.parametrize("bad", ["0:inf:1", "0:1e308:1e-308", "nan:1:0.1"])
    def test_grid_with_no_finite_count_is_rejected(self, bad):
        with pytest.raises(argparse.ArgumentTypeError, match="start:stop:step"):
            _grid(bad)

    def test_dims(self):
        assert _dims("19x19") == (19, 19)
        assert _dims("4X3") == (4, 3)  # case-insensitive separator

    @pytest.mark.parametrize("bad", ["0x3", "axb", "7", "2x2x2"])
    def test_dims_rejects(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            _dims(bad)

    def test_float_list(self):
        assert _float_list("0.7,0.1,0.1,0.1") == [0.7, 0.1, 0.1, 0.1]

    def test_float_list_rejects(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _float_list("a,b")

    def test_sweep_string_defaults_are_parsed(self):
        # argparse runs string defaults through the type callable
        args = build_parser().parse_args(["sweep", "--out", "c.csv"])
        assert len(args.e_grid) == 11
        assert args.dims == (19, 19)
        assert args.p_a == [0.7, 0.1, 0.1, 0.1]
        assert args.p_b == [0.1, 0.1, 0.1, 0.7]

    def test_start_up_imports_no_thread_pool_or_logging(self):
        # a fresh interpreter: this one has imported both long ago
        code = ("import sys, ctda.cli; ctda.cli.build_parser(); "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout == "[]\n"


def csv_writer_predictions(path, timestamps, iso, y_true, y_hat):
    """The predictions file as ``csv.writer`` writes it, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "y_true", "y_hat", "abs_err"])
        for ts, yt, yh in zip(timestamps, y_true, y_hat):
            date = (
                datetime.date.fromordinal(int(ts)).isoformat() if iso else str(int(ts))
            )
            writer.writerow(
                [date, repr(float(yt)), repr(float(yh)), repr(abs(float(yt) - float(yh)))]
            )


class TestPredictionsCsv:
    @pytest.mark.parametrize("iso", [False, True])
    def test_bytes_match_csv_writer(self, tmp_path, iso):
        rng = np.random.default_rng(3)
        n = 2500  # more than two blocks of rows
        start = datetime.date(2014, 1, 1).toordinal() if iso else -7
        timestamps = start + np.cumsum(rng.integers(1, 4, n))
        y_true = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        y_hat = y_true + rng.standard_normal(n)
        y_hat[:4] = [y_true[0], -0.0, 1e308, -5e-324]  # zero, signed zero, extremes
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        _write_predictions_csv(ours, timestamps, iso, y_true, y_hat)
        csv_writer_predictions(reference, timestamps, iso, y_true, y_hat)
        assert ours.read_bytes() == reference.read_bytes()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice_is_usage_error(self, fir_files, tmp_path):
        x, y = fir_files
        with pytest.raises(SystemExit) as exc:
            main(
                ["fit", "--input", str(x), "--target", str(y), "--select", "bic",
                 "--out", str(tmp_path / "m.json")]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("infer", "--top-k", "-1"),
            ("fit", "--max-length", "-1"),
            ("baseline", "--lag", "-1"),
            ("sweep", "--threads", "-1"),
            ("sweep", "--n", "0"),
        ],
    )
    def test_bad_integer_is_usage_error(self, fir_files, tmp_path, command, flag, value):
        x, y = fir_files
        series = ["--input", str(x), "--target", str(y)]
        head = {
            "infer": ["infer", "--models", str(tmp_path / "m.json"), *series],
            "fit": ["fit", *series],
            "baseline": ["baseline", *series],
            "sweep": ["sweep", "--e-grid", "0.05", "--dims", "3x3"],
        }[command]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*head, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "infer", "baseline", "couple", "score"])
    def test_seed_help_says_only_sweep_draws(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "just 'sweep' draws from its seed" in " ".join(capsys.readouterr().out.split())


class TestFit:
    def test_recovers_taps_and_embeds_envelope(self, fir_files, tmp_path, capsys):
        x, y = fir_files
        out = tmp_path / "model.json"
        rc = main(
            ["fit", "--input", str(x), "--target", str(y), "--max-length", "5",
             "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == __version__
        assert payload["seed"] == 5
        assert payload["config"]["max_length"] == 5
        assert payload["config"]["select"] == "validation"
        assert "func" not in payload["config"] and "command" not in payload["config"]
        (entry,) = payload["channels"]
        assert entry["name"] == "x"
        model = entry["model"]
        assert model["length"] == 1
        np.testing.assert_allclose(model["weights"], [0.7, -0.3], atol=0.02)
        captured = capsys.readouterr().out
        assert "x: length=1" in captured
        assert f"wrote {out}" in captured

    def test_max_length_zero_forces_constant_width(self, fir_files, tmp_path):
        x, y = fir_files
        out = tmp_path / "model.json"
        assert main(
            ["fit", "--input", str(x), "--target", str(y), "--max-length", "0",
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["channels"][0]["model"]["length"] == 0

    @pytest.mark.parametrize("extra", [["--mode", "predict"], ["--select", "aic"]])
    def test_mode_and_selector_variants(self, fir_files, tmp_path, extra):
        x, y = fir_files
        out = tmp_path / "model.json"
        assert main(
            ["fit", "--input", str(x), "--target", str(y), "--out", str(out)] + extra
        ) == 0
        assert json.loads(out.read_text())["channels"]

    def test_missing_input_file_exits_2(self, fir_files, tmp_path, capsys):
        _, y = fir_files
        rc = main(
            ["fit", "--input", str(tmp_path / "ghost.csv"), "--target", str(y),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,reading\n1,2\n")
        tgt = tmp_path / "y.csv"
        write_series(tgt, np.arange(10.0))
        rc = main(
            ["fit", "--input", str(bad), "--target", str(tgt),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_timestamp_beyond_int64_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,value\n1,1.0\n99999999999999999999,2.0\n")
        tgt = tmp_path / "y.csv"
        write_series(tgt, np.arange(10.0))
        rc = main(
            ["fit", "--input", str(bad), "--target", str(tgt),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "line 3: timestamp '99999999999999999999' outside the 64-bit range" in (
            capsys.readouterr().err
        )

    def test_duplicate_series_names_exit_1(self, fir_files, tmp_path, capsys):
        x, y = fir_files
        rc = main(
            ["fit", "--input", f"{x},{x}", "--target", str(y),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 1
        assert "duplicate series names" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, fir_files, tmp_path):
        x, y = fir_files
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["fit", "--input", str(x), "--target", str(y), "--max-length", "3"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        # envelope embeds --out, so compare everything except that one knob
        a, b = json.loads(first.read_text()), json.loads(second.read_text())
        a["config"].pop("out"), b["config"].pop("out")
        assert a == b


@pytest.fixture
def overflowing_target_files(tmp_path):
    """A channel whose target's squares pass float64's range."""
    xs, y = gen_fir_series(3, 300, [[0.9, -0.4, 0.2]], noise_sigma=0.05)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    write_series(x_path, xs[0])
    write_series(y_path, 1e200 * y)
    return x_path, y_path


@pytest.mark.parametrize("criterion", ["validation", "aic"])
def test_fit_on_an_overflowing_target_exits_1(overflowing_target_files, tmp_path, capsys,
                                              criterion):
    x_path, y_path = overflowing_target_files
    out = tmp_path / "models.json"
    argv = ["fit", "--input", str(x_path), "--target", str(y_path), "--max-length", "5",
            "--select", criterion, "--out", str(out)]
    assert main(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "rescale the series" in errors[0]
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would print before the error line
@pytest.mark.parametrize("argv, scale_x, scale_y", [
    (["fit", "--max-length", "5"], 1.0, 1e200),
    (["baseline", "--method", "ols", "--lag", "2"], 1.0, 1e200),
    (["fit", "--max-length", "5"], 1e300, 1e300),
], ids=["fit", "baseline-ols", "fit-near-float-max"])
def test_overflow_prints_one_error_line(tmp_path, capfd, argv, scale_x, scale_y):
    xs, y = gen_fir_series(3, 300, [[0.9, -0.4, 0.2]], noise_sigma=0.05)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    write_series(x_path, scale_x * xs[0])
    write_series(y_path, scale_y * y)
    argv = [*argv, "--input", str(x_path), "--target", str(y_path), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "rescale" in err


@pytest.mark.filterwarnings("error")  # a numpy warning would print before the error line
@pytest.mark.parametrize("criterion", ["validation", "aic"])
@pytest.mark.parametrize("which", ["input", "target"])
def test_fit_on_a_series_whose_mean_overflows_prints_one_error_line(tmp_path, capfd,
                                                                     which, criterion):
    xs, y = gen_fir_series(3, 300, [[0.9, -0.4, 0.2]], noise_sigma=0.05)
    x = np.abs(xs[0]) * (1e306 if which == "input" else 1.0)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    write_series(x_path, x)
    write_series(y_path, np.abs(y) * (1e306 if which == "target" else 1.0))
    argv = ["fit", "--input", str(x_path), "--target", str(y_path), "--max-length", "5",
            "--select", criterion, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "rescale" in err


class TestInfer:
    @pytest.fixture
    def fitted(self, two_channel_files, tmp_path):
        model_path = run_fit(two_channel_files, tmp_path / "models.json")
        return two_channel_files, model_path

    def infer_argv(self, fitted, out, extra=()):
        (a, b, tgt), model_path = fitted
        argv = [
            "infer",
            "--models",
            str(model_path),
            "--input",
            f"{a},{b}",
            "--target",
            str(tgt),
            "--out",
            str(out),
        ]
        argv.extend(extra)
        return argv

    def test_writes_predictions_and_reports_mse(self, fitted, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        assert main(self.infer_argv(fitted, out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "date,y_true,y_hat,abs_err"
        rows = [ln.split(",") for ln in lines[1:]]
        y_true = np.array([float(r[1]) for r in rows])
        y_hat = np.array([float(r[2]) for r in rows])
        for r in rows:
            assert float(r[3]) == abs(float(r[1]) - float(r[2]))
        # fused estimate must track the target far better than its mean
        assert np.mean((y_true - y_hat) ** 2) < 0.25 * np.var(y_true)
        captured = capsys.readouterr().out
        assert captured.count("alpha=") == 2
        assert "fused_mse=" in captured

    @pytest.mark.parametrize("mode", ["mrc_lmmse", "equal_gain", "selective"])
    def test_fusion_modes(self, fitted, tmp_path, mode):
        out = tmp_path / f"{mode}.csv"
        assert main(self.infer_argv(fitted, out, ["--fusion", mode])) == 0
        assert out.read_text().startswith("date,y_true,y_hat,abs_err")

    def test_fusion_out_envelope(self, fitted, tmp_path):
        out = tmp_path / "preds.csv"
        fusion_out = tmp_path / "fusion.json"
        assert main(
            self.infer_argv(fitted, out, ["--fusion-out", str(fusion_out)])
        ) == 0
        payload = json.loads(fusion_out.read_text())
        assert payload["version"] == __version__
        assert payload["mode"] == "mrc_inverse_mse"
        assert len(payload["alphas"]) == 2
        np.testing.assert_allclose(sum(payload["alphas"]), 1.0)
        assert {c["name"] for c in payload["channels"]} == {"a", "b"}

    def test_top_k_keeps_best_channel(self, fitted, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        assert main(self.infer_argv(fitted, out, ["--top-k", "1"])) == 0
        assert capsys.readouterr().out.count("alpha=") == 1

    def test_top_k_above_channel_count_warns_and_keeps_all(
        self, fitted, tmp_path, capsys
    ):
        out = tmp_path / "preds.csv"
        with pytest.warns(UserWarning, match="keeping all"):
            assert main(self.infer_argv(fitted, out, ["--top-k", "99"])) == 0
        assert capsys.readouterr().out.count("alpha=") == 2

    def test_threshold_fallback_keeps_single_best(self, fitted, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        assert main(
            self.infer_argv(fitted, out, ["--mse-threshold", "-1"])
        ) == 0
        captured = capsys.readouterr().out
        assert "keeping the single best" in captured
        assert captured.count("alpha=") == 1

    def test_nan_threshold_exits_1(self, fitted, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        assert main(self.infer_argv(fitted, out, ["--mse-threshold", "nan"])) == 1
        captured = capsys.readouterr()
        assert "needs a threshold, got nan" in captured.err
        assert "keeping the single best" not in captured.out
        assert not out.exists()

    def test_top_k_and_threshold_conflict(self, fitted, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        with pytest.raises(SystemExit) as exc:
            main(self.infer_argv(fitted, out, ["--top-k", "1", "--mse-threshold", "0.5"]))
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_online_window(self, fitted, tmp_path):
        out = tmp_path / "preds.csv"
        # the warm-up samples' short windows are routine: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                self.infer_argv(fitted, out, ["--online-window", "25"])
            ) == 0
        assert len(out.read_text().splitlines()) > 1

    def test_online_window_warns_once(self, fitted, tmp_path):
        # a window longer than the 600-row series: even the final weights are short
        out = tmp_path / "preds.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(self.infer_argv(fitted, out, ["--online-window", "1000"])) == 0
        assert sum("fewer completed errors" in str(w.message) for w in caught) == 1

    @pytest.mark.parametrize("extra, message", [
        (["--online-window", "1000"],
         "fewer completed errors than the update window; using all available"),
        (["--top-k", "99"], "requested top 99 of 2 channels; keeping all"),
    ])
    def test_warning_prints_as_one_line(self, fitted, tmp_path, capfd, extra, message):
        # A child process, so the warning meets Python's default filters and
        # reaches stderr as it does in a shell.
        argv = self.infer_argv(fitted, tmp_path / "preds.csv", extra)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "ctda.cli", *argv], env=env, timeout=120)
        assert run.returncode == 0
        assert capfd.readouterr().err == f"warning: {message}\n"

    def test_online_window_matches_per_sample_loop(self, fitted, tmp_path):
        out, fusion_out = tmp_path / "preds.csv", tmp_path / "fusion.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(
                self.infer_argv(
                    fitted, out, ["--online-window", "40", "--fusion-out", str(fusion_out)]
                )
            ) == 0
        (a, b, tgt), model_path = fitted
        stored = json.loads(model_path.read_text())
        models = sorted((c["name"], model_from_dict(c["model"])) for c in stored["channels"])
        xs = {"a": load_csv(a).values, "b": load_csv(b).values}
        y = load_csv(tgt).values
        targets = np.arange(max(m.length for _, m in models), y.size)
        est = np.vstack([estimate_series(m, xs[name], targets) for name, m in models])
        initial = [1.0 / m.validation_mse for _, m in models]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows, fused = online_inverse_mse_loop(
                est, y[targets], 40, np.array(initial) / sum(initial)
            )
        y_hat = np.array([float(ln.split(",")[2]) for ln in out.read_text().splitlines()[1:]])
        np.testing.assert_allclose(y_hat, fused, rtol=1e-12)
        payload = json.loads(fusion_out.read_text())
        np.testing.assert_allclose(payload["alphas"], rows[-1], rtol=1e-12)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--online-window", "-5"],
            ["--online-window", "10", "--fusion", "mrc_lmmse"],
            ["--online-window", "ten"],
        ],
    )
    def test_online_window_misuse_is_usage_error(self, fitted, tmp_path, extra):
        out = tmp_path / "preds.csv"
        with pytest.raises(SystemExit) as exc:
            main(self.infer_argv(fitted, out, extra))
        assert exc.value.code == 2
        assert not out.exists()

    def test_malformed_model_file_exits_2(self, fitted, tmp_path, capsys):
        bad = tmp_path / "bad_models.json"
        bad.write_text(json.dumps({"channels": [{"oops": 1}]}))
        (a, b, tgt), _ = fitted
        rc = main(
            ["infer", "--models", str(bad), "--input", f"{a},{b}",
             "--target", str(tgt), "--out", str(tmp_path / "p.csv")]
        )
        assert rc == 2
        assert "malformed model file" in capsys.readouterr().err

    def test_repeated_channel_name_exits_2(self, fitted, tmp_path, capsys):
        # b's model under a's name must not silently replace a's
        _, model_path = fitted
        stored = json.loads(model_path.read_text())
        stored["channels"][1]["name"] = stored["channels"][0]["name"]
        model_path.write_text(json.dumps(stored))
        out = tmp_path / "preds.csv"
        assert main(self.infer_argv(fitted, out)) == 2
        err = capsys.readouterr().err
        assert "malformed model file (duplicate channel name 'a')" in err
        assert not out.exists()

    def test_model_without_matching_series_exits_1(self, fitted, tmp_path, capsys):
        (a, _, tgt), model_path = fitted
        rc = main(
            ["infer", "--models", str(model_path), "--input", str(a),
             "--target", str(tgt), "--out", str(tmp_path / "p.csv")]
        )
        assert rc == 1
        assert "no input series for fitted channels" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, fitted, tmp_path):
        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(self.infer_argv(fitted, first)) == 0
        assert main(self.infer_argv(fitted, second)) == 0
        assert first.read_bytes() == second.read_bytes()


class TestBaseline:
    def test_ols_writes_predictions(self, two_channel_files, tmp_path, capsys):
        a, b, tgt = two_channel_files
        out = tmp_path / "base.csv"
        rc = main(
            ["baseline", "--input", f"{a},{b}", "--target", str(tgt),
             "--lag", "1", "--out", str(out)]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "ols: lag=1" in captured
        assert "test_mse=" in captured
        lines = out.read_text().splitlines()
        assert lines[0] == "date,y_true,y_hat,abs_err"
        assert len(lines) == 1 + 600 - int(0.8 * 600)

    def test_bayes_accepts_prior_and_noise(self, two_channel_files, tmp_path, capsys):
        a, b, tgt = two_channel_files
        out = tmp_path / "base.csv"
        rc = main(
            ["baseline", "--input", f"{a},{b}", "--target", str(tgt),
             "--method", "bayes", "--lag", "1", "--prior-var", "10",
             "--noise-var", "0.01", "--out", str(out)]
        )
        assert rc == 0
        assert "bayes: lag=1" in capsys.readouterr().out

    def test_model_out_envelope(self, two_channel_files, tmp_path):
        a, b, tgt = two_channel_files
        model_out = tmp_path / "linear.json"
        rc = main(
            ["baseline", "--input", f"{a},{b}", "--target", str(tgt),
             "--lag", "2", "--model-out", str(model_out),
             "--out", str(tmp_path / "base.csv")]
        )
        assert rc == 0
        payload = json.loads(model_out.read_text())
        assert payload["type"] == "ols"
        assert payload["common_lag"] == 2
        assert payload["version"] == __version__
        assert len(payload["coefficients"]) == 2 * 3

    def test_train_frac_one_scores_training_block(
        self, two_channel_files, tmp_path, capsys
    ):
        a, b, tgt = two_channel_files
        rc = main(
            ["baseline", "--input", f"{a},{b}", "--target", str(tgt),
             "--train-frac", "1.0", "--out", str(tmp_path / "base.csv")]
        )
        assert rc == 0
        assert "training_mse=" in capsys.readouterr().out

    @pytest.mark.parametrize("frac", ["0", "1.5"])
    def test_train_frac_out_of_range_exits_1(
        self, two_channel_files, tmp_path, capsys, frac
    ):
        a, b, tgt = two_channel_files
        rc = main(
            ["baseline", "--input", f"{a},{b}", "--target", str(tgt),
             "--train-frac", frac, "--out", str(tmp_path / "base.csv")]
        )
        assert rc == 1
        assert "train-frac" in capsys.readouterr().err

    def test_ols_on_an_overflowing_target_exits_1(self, overflowing_target_files, tmp_path,
                                                  capsys):
        x_path, y_path = overflowing_target_files
        out = tmp_path / "base.csv"
        argv = ["baseline", "--input", str(x_path), "--target", str(y_path),
                "--method", "ols", "--lag", "2", "--out", str(out)]
        assert main(argv) == 1
        assert "error: residual MSE must be finite; rescale" in capsys.readouterr().err
        assert not out.exists()

    def test_short_training_block_exits_1(self, two_channel_files, tmp_path, capsys):
        a, b, tgt = two_channel_files
        rc = main(
            ["baseline", "--input", f"{a},{b}", "--target", str(tgt),
             "--lag", "5", "--train-frac", "0.01",
             "--out", str(tmp_path / "base.csv")]
        )
        assert rc == 1
        assert "too short" in capsys.readouterr().err


class TestCouple:
    def test_builtin_channel_solution(self, tmp_path, capsys):
        out = tmp_path / "solution.json"
        rc = main(["couple", "--channel-e", "0.1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("config", "version", "seed", "sigma", "psi_x", "psi_y",
                    "score", "dropped_outputs", "degenerate_subspace"):
            assert key in payload
        expected = solve_coupling(
            build_dtm(parametric_channel(0.1), uniform_distribution(4))
        )
        np.testing.assert_allclose(payload["sigma"][0], 1.0, atol=1e-9)
        np.testing.assert_allclose(
            payload["sigma"][1], expected.second_singular_value, atol=1e-12
        )
        assert "second_singular_value=" in capsys.readouterr().out

    def test_delta_reports_perturbation(self, tmp_path):
        out = tmp_path / "solution.json"
        rc = main(["couple", "--channel-e", "0.1", "--delta", "0.01",
                   "--out", str(out)])
        assert rc == 0
        block = json.loads(out.read_text())["perturbation"]
        assert block["delta"] == 0.01
        np.testing.assert_allclose(sum(block["p_x_plus"]), 1.0, atol=1e-12)
        np.testing.assert_allclose(sum(block["p_x_minus"]), 1.0, atol=1e-12)
        assert block["local_mi"] > 0

    def test_channel_and_source_files(self, tmp_path):
        channel_path = tmp_path / "channel.json"
        source_path = tmp_path / "source.json"
        save_channel(parametric_channel(0.2), channel_path)
        save_distribution(DiscreteDistribution([0.4, 0.3, 0.2, 0.1]), source_path)
        out = tmp_path / "solution.json"
        rc = main(["couple", "--channel", str(channel_path),
                   "--source", str(source_path), "--out", str(out)])
        assert rc == 0
        assert len(json.loads(out.read_text())["psi_x"]) == 4

    def test_channel_flags_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["couple", "--channel", "c.json", "--channel-e", "0.1",
                  "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2

    def test_channel_flag_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["couple", "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("delta", ["-1", "nan", "inf", "x"])
    def test_bad_delta_is_usage_error(self, tmp_path, delta):
        with pytest.raises(SystemExit) as exc:
            main(["couple", "--channel-e", "0.1", "--delta", delta,
                  "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2

    def test_missing_channel_file_exits_2(self, tmp_path, capsys):
        rc = main(["couple", "--channel", str(tmp_path / "ghost.json"),
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "s1.json", tmp_path / "s2.json"
        argv = ["couple", "--channel-e", "0.15", "--delta", "0.005"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        a, b = json.loads(first.read_text()), json.loads(second.read_text())
        a["config"].pop("out"), b["config"].pop("out")
        assert a == b


class TestScore:
    @pytest.fixture
    def image_files(self, tmp_path):
        clean = gen_two_class_images(3, 40, 6, 6, DIST_A, DIST_B)
        noisy = apply_channel_to_dataset(clean, parametric_channel(0.05), seed=4)
        path = tmp_path / "images.csv"
        save_images_csv(noisy, path)
        return path, noisy

    def test_pooled_scoring_reports_separation(self, image_files, tmp_path, capsys):
        path, noisy = image_files
        out = tmp_path / "scores.csv"
        rc = main(["score", "--images", str(path), "--channel-e", "0.05",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,label,score"
        assert len(lines) == 1 + noisy.n_images
        captured = capsys.readouterr().out
        assert f"scored {noisy.n_images} images (mode=pooled)" in captured
        assert "separation_error=" in captured

    def test_per_pixel_mode(self, image_files, tmp_path, capsys):
        path, _ = image_files
        out = tmp_path / "scores.csv"
        rc = main(["score", "--images", str(path), "--channel-e", "0.05",
                   "--mode", "per_pixel", "--dims", "6x6", "--out", str(out)])
        assert rc == 0
        assert "(mode=per_pixel)" in capsys.readouterr().out

    def test_smooth_flag(self, image_files, tmp_path):
        path, _ = image_files
        out = tmp_path / "scores.csv"
        rc = main(["score", "--images", str(path), "--channel-e", "0.05",
                   "--smooth", "--out", str(out)])
        assert rc == 0

    def test_unlabeled_images_skip_separation(self, image_files, tmp_path, capsys):
        _, noisy = image_files
        bare = ImageDataset(
            noisy.width, noisy.height, noisy.alphabet_size, noisy.images
        )
        path = tmp_path / "unlabeled.csv"
        save_images_csv(bare, path)
        out = tmp_path / "scores.csv"
        rc = main(["score", "--images", str(path), "--channel-e", "0.05",
                   "--out", str(out)])
        assert rc == 0
        assert "separation_error" not in capsys.readouterr().out

    def test_unbalanced_labels_report_unavailable(self, tmp_path, capsys):
        ds = ImageDataset(2, 2, 4, [[0, 0, 1, 0], [3, 3, 2, 3], [0, 1, 0, 0],
                                    [0, 0, 0, 2]], labels=[0, 1, 0, 0])
        path = tmp_path / "skewed.csv"
        save_images_csv(ds, path)
        rc = main(["score", "--images", str(path), "--channel-e", "0.0",
                   "--out", str(tmp_path / "scores.csv")])
        assert rc == 0
        assert "separation error unavailable" in capsys.readouterr().out

    def test_geometry_mismatch_exits_1(self, image_files, tmp_path, capsys):
        path, _ = image_files
        rc = main(["score", "--images", str(path), "--channel-e", "0.05",
                   "--dims", "5x5", "--out", str(tmp_path / "scores.csv")])
        assert rc == 1
        assert "geometry" in capsys.readouterr().err

    def test_malformed_images_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("pixel0,pixel1\n0,1\n")
        rc = main(["score", "--images", str(bad), "--channel-e", "0.05",
                   "--out", str(tmp_path / "scores.csv")])
        assert rc == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, image_files, tmp_path):
        path, _ = image_files
        first, second = tmp_path / "s1.csv", tmp_path / "s2.csv"
        argv = ["score", "--images", str(path), "--channel-e", "0.05"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("mode", ["pooled", "per_pixel"])
    @pytest.mark.parametrize("labeled", [True, False])
    def test_bytes_and_report_match_the_item_api(
        self, image_files, tmp_path, capsys, mode, labeled
    ):
        # one row per item, as csv.writer writes it, with each score summed
        # independently of ctda.scoring: a gather over the pooled table, or
        # the one-pixel-at-a-time oracle
        _, noisy = image_files
        if not labeled:
            noisy = ImageDataset(noisy.width, noisy.height, noisy.alphabet_size, noisy.images)
        path = tmp_path / "images.csv"
        save_images_csv(noisy, path)
        out, expected = tmp_path / "scores.csv", tmp_path / "expected.csv"
        channel = parametric_channel(0.05)
        if mode == "pooled":
            scores = build_image_scorer(noisy.images, channel).scores[noisy.images].sum(axis=1)
        else:
            scores = per_pixel_scores_loop(noisy.images, channel.matrix, True)
        labels = [""] * len(scores) if noisy.labels is None else noisy.labels.tolist()
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "label", "score"])
            writer.writerows(zip(range(len(scores)), labels, scores.tolist()))
        rc = main(["score", "--images", str(path), "--channel-e", "0.05",
                   "--mode", mode, "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == expected.read_bytes()
        printed = capsys.readouterr().out
        assert f"scored {len(scores)} images (mode={mode})" in printed
        if labeled:
            err = naive_separation_error(scores, labels)
            assert f"separation_error={err:.6g}" in printed


class TestOutOfMemory:
    """A MemoryError (e.g. a sweep that outgrows the memory left free) ends
    in one line on stderr and exit 1, not a traceback."""

    ARGV = ["sweep", "--e-grid", "0", "--n", "4", "--dims", "4x4"]

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.11 PiB for an array"),
         "error: out of memory: Unable to allocate 7.11 PiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy-message", "bare"])
    def test_exit_1_with_one_line(self, tmp_path, capsys, monkeypatch, error, message):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "error_vs_noise_curve", exhausted)
        out = tmp_path / "curve.csv"
        assert main(self.ARGV + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="needs os.sysconf")
class TestSweepFootprint:
    """A sweep whose estimated peak exceeds physical memory is a usage error,
    found before any point is built."""

    def test_oversized_sweep_exits_2_allocating_nothing(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        argv = ["sweep", "--e-grid", "0", "--n", "1000000000", "--dims", "1000x1000",
                "--out", str(out)]
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exited:
                main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exited.value.code == 2
        assert peak < 2**20
        assert "GiB of physical memory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_estimate_is_12_bytes_per_pixel_per_worker(self, tmp_path, monkeypatch, spare):
        # plus 64 bytes per image and 32 per symbol of one block, on every
        # worker: --n 6 on 5x3, one corpus per worker
        workers = resolve_threads(2, 2)
        need = (12 * 2 * 6 * (5 * 3) + 64 * 2 * 6 + 32 * stats._BLOCK_SYMBOLS) * workers
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need + spare}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        argv = ["sweep", "--e-grid", "0,0.1", "--n", "6", "--dims", "5x3", "--threads", "2",
                "--out", str(tmp_path / "curve.csv")]
        if spare < 0:
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
        else:
            assert main(argv) == 0

    # small corpora, where the per-image and block terms lead, and an image
    # larger than one block
    @pytest.mark.parametrize("n, side", [(500, 19), (300, 28), (100, 10), (5000, 5),
                                         (5000, 1), (2, 200)])
    @pytest.mark.parametrize("e", [0.0, 0.1])
    def test_a_point_peaks_within_the_estimate(self, n, side, e):
        # e = 0 is the degenerate channel, whose tie-break counts symbols too
        _curve_point(0, e, 1, DIST_A, DIST_B, 8, 8, 20)  # lazy imports cost no bytes per pixel
        tracemalloc.start()
        try:
            _curve_point(0, e, 1, DIST_A, DIST_B, side, side, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._sweep_bytes(2 * n, side * side)


class TestScoreFootprint:
    """``score`` keeps a one-digit corpus at one byte a pixel: an int64 copy
    of a 1,000 x 784 corpus alone would be 6 MiB."""

    @pytest.mark.parametrize("mode", ["pooled", "per_pixel"])
    def test_a_benchmark_sized_file_peaks_under_5_mib(self, tmp_path, mode):
        clean = gen_two_class_images(24, 500, 28, 28, DIST_A, DIST_B)
        path = tmp_path / "images.csv"
        save_images_csv(apply_channel_to_dataset(clean, parametric_channel(0.1), seed=25), path)
        argv = ["score", "--images", str(path), "--channel-e", "0.1", "--mode", mode,
                "--out", str(tmp_path / "scores.csv")]
        assert main(argv) == 0  # lazy imports cost no bytes per pixel
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def baseline_job(xs, y, lag, split, method):
    """What ``cmd_baseline`` computes between reading and writing."""
    fit = fit_ols if method == "ols" else fit_bayes
    model = fit(xs[:, :split], y[:split], lag)
    start = split if split < y.size else lag
    return predict_series(model, xs, np.arange(start, y.size))


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="needs os.sysconf")
class TestBaselineFootprint:
    """A baseline whose estimated peak exceeds physical memory is a usage
    error, found before any fit."""

    def argv(self, paths, out, lag):
        a, b, tgt = paths
        return ["baseline", "--input", f"{a},{b}", "--target", str(tgt), "--lag", str(lag),
                "--out", str(out)]

    def test_oversized_lag_exits_2_before_any_fit(self, two_channel_files, tmp_path, capsys,
                                                   monkeypatch):
        # lag 200 on 600 rows of 2 inputs: the fit alone would take about 4 MB
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2**21}.__getitem__)
        out = tmp_path / "base.csv"
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exited:
                main(self.argv(two_channel_files, out, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exited.value.code == 2
        assert peak < 2**20
        assert "baseline: --lag 200 on 2 input(s) of 600 rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_estimate_counts_design_rows_gram_and_overhead(self, two_channel_files, tmp_path,
                                                           monkeypatch, spare):
        # lag 5 on 2 inputs: k = 12 columns; 475 fit rows beat 120 scored rows
        need = 8 * (3 * 12 * 12 + 2 * (475 + 12) + 6 * 475) + 2**18
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need + spare}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        argv = self.argv(two_channel_files, tmp_path / "base.csv", 5)
        if spare < 0:
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
        else:
            assert main(argv) == 0

    @pytest.mark.parametrize("method", ["ols", "bayes"])
    @pytest.mark.parametrize("n, inputs, lag, frac", [
        (600, 2, 5, 0.8), (1000, 4, 200, 0.8), (3000, 2, 50, 1.0), (5000, 1, 0, 0.8),
    ])
    def test_a_baseline_peaks_within_the_estimate(self, n, inputs, lag, frac, method):
        rng = np.random.default_rng(3)
        xs, y = rng.standard_normal((inputs, n)), rng.standard_normal(n)
        split = int(frac * n)
        baseline_job(xs, y, lag, split, method)  # lazy imports cost nothing per cell
        tracemalloc.start()
        try:
            baseline_job(xs, y, lag, split, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scored = n - (split if split < n else lag)
        assert peak <= cli._baseline_bytes(max(split - lag, scored), inputs * (lag + 1))

    @pytest.mark.parametrize("method", ["ols", "bayes"])
    @pytest.mark.parametrize("n, inputs, lag, frac", [
        (600, 2, 5, 0.8), (1000, 4, 200, 0.8), (20000, 4, 0, 1.0), (20000, 8, 1, 0.8),
    ])
    def test_a_baseline_peaks_within_the_estimate_for_its_inputs(self, n, inputs, lag, frac,
                                                                  method):
        # what cmd_baseline checks: the estimate given the number of inputs
        rng = np.random.default_rng(4)
        xs, y = rng.standard_normal((inputs, n)), rng.standard_normal(n)
        split = int(frac * n)
        baseline_job(xs, y, lag, split, method)
        tracemalloc.start()
        try:
            baseline_job(xs, y, lag, split, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = max(split - lag, n - (split if split < n else lag))
        assert peak <= cli._baseline_bytes(rows, inputs * (lag + 1), inputs)


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="needs os.sysconf")
class TestFitFootprint:
    """A fit whose estimated peak exceeds physical memory is a usage error,
    found before any length is selected."""

    def argv(self, paths, out, max_length):
        a, b, tgt = paths
        return ["fit", "--input", f"{a},{b}", "--target", str(tgt), "--max-length",
                str(max_length), "--out", str(out)]

    def test_oversized_max_length_exits_2_before_any_fit(self, two_channel_files, tmp_path,
                                                         capsys, monkeypatch):
        # --max-length 400 on 600 rows: 401 taps, about 5.4 MB estimated
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2**22}.__getitem__)
        monkeypatch.setattr(cli, "select_length", mock.Mock(side_effect=AssertionError))
        out = tmp_path / "models.json"
        with pytest.raises(SystemExit) as exited:
            main(self.argv(two_channel_files, out, 400))
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "fit: --max-length 400 on 600 rows needs about" in err
        assert err.count("\n") == 2  # the usage line and the one message
        assert not out.exists()

    def test_max_length_past_the_series_is_too_short_not_too_large(self, two_channel_files,
                                                                    tmp_path, capsys):
        assert main(self.argv(two_channel_files, tmp_path / "models.json", 2**40)) == 1
        assert "insufficient data" in capsys.readouterr().err

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_estimate_counts_grams_vectors_and_overhead(self, two_channel_files, tmp_path,
                                                        monkeypatch, spare):
        # --max-length 4 on 600 rows: 5 taps
        need = 8 * (4 * 5 * 5 + 6 * 600) + 2**18
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need + spare}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        argv = self.argv(two_channel_files, tmp_path / "models.json", 4)
        if spare < 0:
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
        else:
            assert main(argv) == 0

    @pytest.mark.parametrize("n, max_length, criterion, constant", [
        (600, 250, "validation", False),  # taps ** 2 leads
        (2000, 100, "aic", False),
        (5000, 10, "validation", True),  # every length degenerate
        (20000, 40, "aic", True),  # n leads
    ])
    def test_a_fit_peaks_within_the_estimate(self, n, max_length, criterion, constant):
        rng = np.random.default_rng(5)
        source = rng.standard_normal(n)
        x = np.ones(n) if constant else source
        y = np.convolve(source, [1.0, 0.5, 0.2])[:n] + 0.05 * rng.standard_normal(n)
        select_length(x[:50], y[:50], 3, criterion)  # lazy imports cost nothing per cell
        tracemalloc.start()
        try:
            select_length(x, y, max_length, criterion)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._fit_bytes(n, max_length + 1)


class TestSweep:
    def argv(self, out, extra=()):
        base = ["sweep", "--e-grid", "0:0.1:0.05", "--n", "4", "--dims", "4x4",
                "--seed", "11", "--out", str(out)]
        base.extend(extra)
        return base

    def test_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(self.argv(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "e,error_probability,n_images,seed"
        assert len(lines) == 4
        assert all(ln.split(",")[2] == "8" for ln in lines[1:])
        assert capsys.readouterr().out.count("e=") == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(self.argv(first)) == 0
        assert main(self.argv(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        serial, threaded = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(self.argv(serial, ["--threads", "1"])) == 0
        assert main(self.argv(threaded, ["--threads", "3"])) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_custom_class_distributions(self, tmp_path):
        # the built-in parametric channel has 4 symbols, so must the classes
        out = tmp_path / "curve.csv"
        rc = main(["sweep", "--e-grid", "0.05", "--n", "3", "--dims", "3x3",
                   "--p-a", "0.6,0.2,0.1,0.1", "--p-b", "0.1,0.1,0.2,0.6",
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--e-grid", "0.05", "--n", "3", "--dims", "3x3",
                  "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_too_fine_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--e-grid", "0:1:1e-9", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--e-grid", "0.3", "--p-a", "0.5,0.5"], "class distributions must share an alphabet"),
        (["--e-grid", "0.3"], "noise level 0.3 out of range [0, 0.25]"),
        (["--e-grid", "0.1", "--p-a", "0.5,0.5", "--p-b", "0.5,0.5"],
         "channel expects 4 input symbols, dataset has 2"),
    ], ids=["classes-before-noise", "noise-level", "channel-inputs"])
    def test_point_checks_keep_their_order(self, tmp_path, capsys, extra, message):
        out = tmp_path / "curve.csv"
        assert main(["sweep", *extra, "--n", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_distribution_exits_1(self, tmp_path, capsys):
        rc = main(["sweep", "--e-grid", "0.05", "--n", "3", "--dims", "3x3",
                   "--p-a", "0.9,0.9", "--p-b", "0.1,0.9",
                   "--out", str(tmp_path / "curve.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestBadInputFilesExit2:
    """Malformed input files are I/O trouble: exit 2 with the file named."""

    def run_on(self, command, path, tmp_path):
        if command == "fit":
            tgt = tmp_path / "y.csv"
            write_series(tgt, np.arange(10.0))
            argv = ["fit", "--input", str(path), "--target", str(tgt)]
        else:
            argv = ["score", "--images", str(path), "--channel-e", "0.05"]
        return main(argv + ["--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("text, message", [
        ("label,p0,p1\n0,1,99999999999999999999\n",
         "line 2: pixel value '99999999999999999999' outside the 64-bit range"),
        ("label,p0,p1\n0,1,0\n99999999999999999999,1,0\n",
         "line 3: label '99999999999999999999' outside the 64-bit range"),
    ], ids=["pixel", "label"])
    def test_image_cell_beyond_int64(self, tmp_path, capsys, text, message):
        path = tmp_path / "big.csv"
        path.write_text(text)
        assert self.run_on("score", path, tmp_path) == 2
        assert f"big.csv: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("fit", "date,value\n1,1.0\n2," + "2" * 140_000 + "\n"),
        ("score", "label,p0\n0,1\n1," + "0" * 140_000 + "\n"),
    ], ids=["fit", "score"])
    def test_oversized_cell(self, tmp_path, capsys, command, text):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        assert self.run_on(command, path, tmp_path) == 2
        assert "wide.csv: line 3: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("fit", "date,value\n1,1.0\n2,2.0\n3,caf\xe9\n"),
        ("score", "label,p0\n0,1\n1,caf\xe9\n"),
    ], ids=["fit", "score"])
    def test_latin1_file(self, tmp_path, capsys, command, text):
        path = tmp_path / "latin.csv"
        path.write_bytes(text.encode("latin-1"))
        assert self.run_on(command, path, tmp_path) == 2
        assert "latin.csv: not UTF-8 text" in capsys.readouterr().err

    MODEL_WITHOUT_LENGTH = {"weights": [1.0], "mean_x": 0.0, "mean_y": 0.0,
                            "training_mse": 1.0, "validation_mse": 1.0, "mode": "infer"}
    JSON_DEFECTS = {
        "syntax": lambda good: json.dumps(good)[:-1].encode(),
        "latin1": lambda good: json.dumps({**good, "note": "caf\xe9"},
                                          ensure_ascii=False).encode("latin-1"),
    }

    @pytest.mark.parametrize("defect", ["syntax", "latin1", "missing-key"])
    @pytest.mark.parametrize("flag", ["--models", "--channel", "--source"])
    def test_malformed_json_file(self, tmp_path, capsys, flag, defect):
        tgt, x = tmp_path / "y.csv", tmp_path / "x.csv"
        write_series(tgt, np.arange(10.0))
        write_series(x, np.arange(10.0) ** 2)
        good, missing = {
            "--models": ({"channels": []}, {"channels": [
                {"name": "x", "model": self.MODEL_WITHOUT_LENGTH}]}),
            "--channel": ({"outputs": 2, "inputs": 2, "matrix": [[1, 0], [0, 1]]},
                          {"outputs": 2, "inputs": 2}),
            "--source": ({"probs": [0.25] * 4}, {"prob": [0.25] * 4}),
        }[flag]
        path = tmp_path / "bad.json"
        if defect == "missing-key":
            path.write_text(json.dumps(missing))
        else:
            path.write_bytes(self.JSON_DEFECTS[defect](good))
        argv = {
            "--models": ["infer", "--models", str(path), "--input", str(x),
                         "--target", str(tgt)],
            "--channel": ["couple", "--channel", str(path)],
            "--source": ["couple", "--channel-e", "0.1", "--source", str(path)],
        }[flag]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        what = {"--models": "model", "--channel": "channel", "--source": "distribution"}
        assert f"bad.json: malformed {what[flag]} file" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedInput:
    def test_unlabeled_images_from_a_pipe(self, tmp_path, capsys):
        clean = gen_two_class_images(3, 20, 4, 4, DIST_A, DIST_B)
        noisy = apply_channel_to_dataset(clean, parametric_channel(0.05), seed=4)
        on_disk = tmp_path / "unlabeled.csv"
        save_images_csv(ImageDataset(4, 4, 4, noisy.images), on_disk)
        flags = ["--channel-e", "0.05", "--mode", "per_pixel"]
        assert main(["score", "--images", str(on_disk), *flags,
                     "--out", str(tmp_path / "disk.csv")]) == 0
        read_fd, write_fd = os.pipe()
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(on_disk.read_bytes())  # well under a pipe buffer
            rc = main(["score", "--images", f"/dev/fd/{read_fd}", *flags,
                       "--out", str(tmp_path / "pipe.csv")])
        finally:
            os.close(read_fd)
        assert rc == 0, capsys.readouterr().err
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "disk.csv").read_bytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedSeriesInput:
    def test_fit_from_pipes(self, tmp_path, capsys):
        # 6,000 rows (over 100 KB) fill a pipe buffer, so a thread feeds them.
        xs, y = gen_fir_series(5, 6000, [[0.7, -0.3]], noise_sigma=0.05)
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_series(x_path, xs[0])
        write_series(y_path, y)
        flags = ["--max-length", "4"]
        assert main(["fit", "--input", str(x_path), "--target", str(y_path), *flags,
                     "--out", str(tmp_path / "disk.json")]) == 0
        with fed_pipe(x_path.read_bytes()) as x_pipe, fed_pipe(y_path.read_bytes()) as y_pipe:
            rc = main(["fit", "--input", x_pipe, "--target", y_pipe, *flags,
                       "--out", str(tmp_path / "pipe.json")])
        assert rc == 0, capsys.readouterr().err
        models = [
            [c["model"] for c in json.loads((tmp_path / name).read_text())["channels"]]
            for name in ("disk.json", "pipe.json")
        ]
        assert models[0] == models[1]


class TestBayesDefaultNoise:
    def test_default_noise_variance_matches_explicit(self, two_channel_files, tmp_path):
        # The default noise variance is the OLS residual MSE; passing that
        # number explicitly must give the same bytes as leaving it out.
        a, b, tgt = two_channel_files
        series = ["--input", f"{a},{b}", "--target", str(tgt), "--lag", "3"]
        ols = tmp_path / "ols.json"
        assert main(["baseline", *series, "--model-out", str(ols),
                     "--out", str(tmp_path / "ols.csv")]) == 0
        noise = json.loads(ols.read_text())["residual_mse"]
        runs = {"default": [], "explicit": ["--noise-var", repr(noise)]}
        for name, extra in runs.items():
            assert main(["baseline", *series, "--method", "bayes", *extra,
                         "--model-out", str(tmp_path / f"{name}.json"),
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()
        default, explicit = (json.loads((tmp_path / f"{n}.json").read_text()) for n in runs)
        fields = ("coefficients", "intercept", "residual_mse", "degenerate")
        assert [default[f] for f in fields] == [explicit[f] for f in fields]


class TestNonUtf8Json:
    @pytest.mark.parametrize("flag, what", [
        ("--models", "model"), ("--channel", "channel"), ("--source", "distribution"),
    ])
    def test_wording_matches_csv_readers(self, tmp_path, capsys, flag, what):
        tgt, x = tmp_path / "y.csv", tmp_path / "x.csv"
        write_series(tgt, np.arange(10.0))
        write_series(x, np.arange(10.0) ** 2)
        path = tmp_path / "latin.json"
        path.write_bytes('{"note": "caf\xe9"}'.encode("latin-1"))
        argv = {
            "--models": ["infer", "--models", str(path), "--input", str(x),
                         "--target", str(tgt)],
            "--channel": ["couple", "--channel", str(path)],
            "--source": ["couple", "--channel-e", "0.1", "--source", str(path)],
        }[flag]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: malformed {what} file (not UTF-8 text, byte 0xe9)" in err
        assert "codec" not in err


class TestBayesNonFiniteHyperparameters:
    @pytest.mark.parametrize("flag, name", [
        ("--prior-var", "prior variance"), ("--noise-var", "noise variance"),
    ])
    def test_nan_names_the_argument(self, two_channel_files, tmp_path, capsys, flag, name):
        a, b, tgt = two_channel_files
        argv = ["baseline", "--input", f"{a},{b}", "--target", str(tgt),
                "--method", "bayes", flag, "nan", "--out", str(tmp_path / "b.csv")]
        assert main(argv) == 1
        assert f"error: {name} must be" in capsys.readouterr().err
