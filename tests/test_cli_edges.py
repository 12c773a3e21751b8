"""Every subcommand on edge-of-range inputs: series scaled by 1e-300 and
1e300, constant series, the shortest inputs each command accepts and
single-symbol images.  Each run must end in exit code 0, 1 or 2 with no
traceback and no warning, and leave no non-finite number in any file it
writes.  Runs are in-process: an exception out of ``main`` is what would
print a traceback."""

import json
import re
import warnings

import numpy as np
import pytest

from ctda.cli import main
from ctda.dataio import ImageDataset, TimeSeries, gen_fir_series, save_csv, save_images_csv

NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")


def run_cleanly(argv, outs, capsys):
    """Run ``ctda argv`` and check the run: its exit code, its stderr and the
    files ``outs`` it writes.  Returns the exit code."""
    for out in outs:
        out.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    for out in outs:
        if out.exists():
            assert not NON_FINITE.search(out.read_text()), out.name
    return code


def write_series(path, values):
    save_csv(TimeSeries(path.stem, np.arange(len(values)), np.asarray(values, float)), path)


XS, Y = gen_fir_series(3, 300, [[0.9, -0.4, 0.2]], noise_sigma=0.05)
SERIES = {
    "tiny": (1e-300 * XS[0], 1e-300 * Y),
    "huge": (1e300 * XS[0], 1e300 * Y),
    "tiny-input": (1e-300 * XS[0], Y),
    "huge-input": (1e300 * XS[0], Y),
    "constant-input": (np.ones(300), Y),
    "constant-target": (XS[0], np.full(300, 2.0)),
    "constant-both": (np.ones(300), np.full(300, 2.0)),
    # the fewest rows an 80/20 split with a one-tap model (or lag 0) takes
    "shortest": (XS[0][:3], Y[:3]),
    "too-short": (XS[0][:2], Y[:2]),
}


@pytest.fixture(params=list(SERIES))
def series_files(request, tmp_path):
    """``(case, input path, target path, models)``: the case's files, and a
    model file for the same input name fitted on the unscaled series."""
    x, y = SERIES[request.param]
    fitted = tmp_path / "fitted"
    fitted.mkdir()
    write_series(fitted / "x.csv", XS[0])
    write_series(fitted / "y.csv", Y)
    models = tmp_path / "models.json"
    assert main(["fit", "--input", str(fitted / "x.csv"), "--target", str(fitted / "y.csv"),
                 "--max-length", "0", "--out", str(models)]) == 0
    write_series(tmp_path / "x.csv", x)
    write_series(tmp_path / "y.csv", y)
    return request.param, tmp_path / "x.csv", tmp_path / "y.csv", models


def test_fit(series_files, tmp_path, capsys):
    case, x, y, _ = series_files
    out = tmp_path / "fit.json"
    codes = set()
    for select in ("validation", "aic"):
        for mode in ("infer", "predict"):
            for length in ("0", "3"):
                argv = ["fit", "--input", str(x), "--target", str(y), "--max-length", length,
                        "--select", select, "--mode", mode, "--out", str(out)]
                codes.add(run_cleanly(argv, [out], capsys))
    if case.startswith(("tiny", "constant")):
        assert 0 in codes  # these fit, degenerate or not


def test_infer(series_files, tmp_path, capsys):
    case, x, y, models = series_files
    out, fusion_out = tmp_path / "pred.csv", tmp_path / "fusion.json"
    common = ["infer", "--models", str(models), "--input", str(x), "--target", str(y),
              "--out", str(out), "--fusion-out", str(fusion_out)]
    for fusion in ("mrc_inverse_mse", "mrc_lmmse", "equal_gain", "selective"):
        code = run_cleanly([*common, "--fusion", fusion], [out, fusion_out], capsys)
        if case.startswith("huge"):
            assert code == 1  # squared errors past float64 are refused, not printed
    run_cleanly([*common, "--online-window", "1"], [out, fusion_out], capsys)


def test_baseline(series_files, tmp_path, capsys):
    _, x, y, _ = series_files
    out, model_out = tmp_path / "base.csv", tmp_path / "base.json"
    for method in ("ols", "bayes"):
        for lag in ("0", "1"):
            for frac in ("0.8", "1"):
                argv = ["baseline", "--input", str(x), "--target", str(y), "--method", method,
                        "--lag", lag, "--train-frac", frac, "--out", str(out),
                        "--model-out", str(model_out)]
                run_cleanly(argv, [out, model_out], capsys)


@pytest.mark.parametrize("n_images, n_pixels, symbol, labeled", [
    (1, 1, 0, True),  # the shortest file
    (1, 1, 3, False),
    (4, 3, 0, True),
    (4, 3, 3, False),
    (3, 2, 1, True),
])
def test_score_single_symbol_images(tmp_path, capsys, n_images, n_pixels, symbol, labeled):
    images = np.full((n_images, n_pixels), symbol)
    labels = np.arange(n_images) % 2 if labeled else None
    path, out = tmp_path / "im.csv", tmp_path / "scores.csv"
    save_images_csv(ImageDataset(n_pixels, 1, 4, images, labels), path)
    for e in ("0", "0.1", "0.25"):
        for mode in (["pooled"], ["pooled", "--smooth"], ["per_pixel"]):
            argv = ["score", "--images", str(path), "--channel-e", e, "--mode", *mode,
                    "--out", str(out)]
            run_cleanly(argv, [out], capsys)


@pytest.mark.parametrize("source", [None, [1, 0, 0, 0], [0, 0, 0, 1], [0.5, 0.5, 0, 0]],
                         ids=["uniform", "symbol-0", "symbol-3", "two-symbols"])
def test_couple(tmp_path, capsys, source):
    out, extra = tmp_path / "couple.json", []
    if source is not None:
        (tmp_path / "source.json").write_text(json.dumps({"probs": source}))
        extra = ["--source", str(tmp_path / "source.json")]
    for e in ("0", "0.1", "0.25"):
        for delta in ("0", "0.01", "1e300"):
            argv = ["couple", "--channel-e", e, *extra, "--delta", delta, "--out", str(out)]
            run_cleanly(argv, [out], capsys)


@pytest.mark.parametrize("p_a, p_b", [
    ("1,0,0,0", "1,0,0,0"),  # both classes a single symbol
    ("1,0,0,0", "0,0,0,1"),
    ("1", "1"),
])
def test_sweep_shortest(tmp_path, capsys, p_a, p_b):
    out = tmp_path / "curve.csv"
    for grid in ("0", "0.25", "0:0.25:0.125"):
        for n, dims in (("1", "1x1"), ("1", "2x1"), ("2", "1x1")):
            argv = ["sweep", "--e-grid", grid, "--p-a", p_a, "--p-b", p_b, "--n", n,
                    "--dims", dims, "--threads", "1", "--out", str(out)]
            run_cleanly(argv, [out], capsys)
