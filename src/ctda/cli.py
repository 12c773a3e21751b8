"""Command-line front end.

Subcommands cover the two pipelines end to end:

* ``fit`` / ``infer`` / ``baseline`` -- per-channel tap-delay-line models,
  fused estimation, and joint-regression baselines over CSV time series;
* ``couple`` / ``score`` / ``sweep`` -- divergence-transition analysis of a
  discrete channel, unsupervised image scoring, and error-vs-noise curves.

Conventions: every command takes ``--seed`` and ``--out``; only ``sweep``
draws random numbers, the others just record the seed; JSON outputs embed
the resolved configuration, package version and seed; identical
invocations produce byte-identical outputs.  Exit codes: 0 success, 1
computation or validation failure (running out of memory included), 2 usage
or I/O trouble.  ``sweep`` parallelism is set by ``--threads`` or the
``CTDA_THREADS`` environment variable (0 or unset = one worker per CPU), at
most one worker per CPU and per grid point; its grid holds at most
``MAX_GRID_POINTS`` points.  A sweep, fit or baseline whose estimated peak
exceeds physical memory is refused with exit 2 before any point or fit.
A warning prints as one ``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .baselines import fit_bayes, fit_ols, linear_model_to_dict, predict_series
from .coupling import (
    build_dtm,
    local_mi_approx,
    perturb_distribution,
    score_table,
    solution_to_dict,
    solve_coupling,
)
from .dataio import (
    ALIGN_POLICIES,
    _date_cells,
    _write_csv,
    align,
    load_csv,
    load_images_csv,
)
from .equalizer import _estimate_targets, _lead, model_from_dict, model_to_dict, select_length
from .fusion import (
    FUSION_MODES,
    FusionModel,
    equal_gain_weights,
    fusion_to_dict,
    mrc_weights_inverse_mse,
    mrc_weights_lmmse,
    online_inverse_mse_weights,
    select_channels,
    selective_weights,
)
from .scoring import (
    build_image_scorer,
    error_vs_noise_curve,
    resolve_threads,
    save_curve_csv,
    save_scores_csv,
    score_dataset,
    score_dataset_per_pixel,
    separation_error,
)
from .stats import (
    DiscreteDistribution,
    FileFormatError,
    _read_json,
    _write_json,
    load_channel,
    load_distribution,
    parametric_channel,
    uniform_distribution,
)

_SEED_HELP = "recorded in the outputs only; just 'sweep' draws from its seed"


def _dims(text: str):
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not WIDTHxHEIGHT"
        ) from None
    if w < 1 or h < 1:
        raise argparse.ArgumentTypeError("dimensions must be positive")
    return w, h


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _positive_int(text: str) -> int:
    if (value := _nonnegative_int(text)) == 0:
        raise argparse.ArgumentTypeError("0 is not positive")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def _float_list(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of numbers") from None


# Largest noise grid ``sweep`` accepts; a finer one is almost surely a typo.
MAX_GRID_POINTS = 10_001


def _grid(text: str):
    """Noise grid: 'start:stop:step' (stop inclusive), a comma list, or one
    value; at most MAX_GRID_POINTS points, counted before any is built."""
    try:
        if ":" in text:
            start, stop, step = (float(v) for v in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            count = int(np.floor((stop - start) / step + 1e-9)) + 1
            points = (start + k * step for k in range(count))  # lazy: built once counted
        else:  # one value is a one-item comma list
            points = [float(v) for v in text.split(",") if v.strip()]
            count = len(points)
            if not count:
                raise ValueError
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not start:stop:step, a comma list, or a number"
        ) from None
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"{text!r} has {count} points; at most {MAX_GRID_POINTS} are allowed"
        )
    return list(points)


def _payload(args: argparse.Namespace, body: dict) -> dict:
    """JSON output: the resolved configuration, version and seed, then ``body``."""
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    return {"config": config, "version": __version__, "seed": args.seed, **body}


def _load_series_bundle(args):
    """Load input and target CSVs and put them on one clock.

    Returns ``(names, timestamps, xs, y, iso)`` where ``xs[m]`` is channel
    ``m``'s aligned values.
    """
    paths = [p for p in args.input.split(",") if p.strip()]
    if not paths:
        raise ValueError("no input series given")
    series = [load_csv(p, args.time_column, args.value_column) for p in paths]
    names = [s.name for s in series]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate series names among inputs: {names}")
    target = load_csv(args.target, args.time_column, args.value_column)
    timestamps, matrix = align(series + [target], args.align)
    return names, timestamps, matrix[:-1], matrix[-1], target.iso_dates


def _write_predictions_csv(path, timestamps, iso, y_true, y_hat) -> None:
    """Write ``date,y_true,y_hat,abs_err`` rows."""
    _write_csv(
        path, ["date", "y_true", "y_hat", "abs_err"],
        _date_cells(timestamps, iso), y_true, y_hat, np.abs(y_true - y_hat),
    )


def _mse(y, est):
    """Mean of ``(y - est) ** 2`` along the last axis; raises ValueError when
    it overflows float64."""
    with np.errstate(over="ignore"):
        mse = np.mean((y - est) ** 2, axis=-1)
    if not np.isfinite(mse).all():
        raise ValueError("squared errors overflow float64; rescale the series")
    return mse


def _load_channel_arg(args):
    if args.channel is not None:
        return load_channel(args.channel)
    return parametric_channel(args.channel_e)


# --- fit ---------------------------------------------------------------------


def cmd_fit(args) -> None:
    names, _, xs, y, _ = _load_series_bundle(args)
    _check_memory(  # before any fit
        f"fit: --max-length {args.max_length} on {y.size} rows",
        _fit_bytes(y.size, min(args.max_length + 1, y.size)),  # more taps cannot fit
    )
    stored = []
    for name, x in zip(names, xs):
        model = select_length(x, y, args.max_length, args.select, args.mode)
        stored.append({"name": name, "model": model_to_dict(model)})
        print(
            f"{name}: length={model.length} training_mse={model.training_mse:.6g} "
            f"validation_mse={model.validation_mse:.6g}"
            + (" (degenerate fit)" if model.degenerate else "")
        )
    _write_json(args.out, _payload(args, {"channels": stored}))
    print(f"wrote {args.out}")


# --- infer -------------------------------------------------------------------


def _initial_alphas(mode, models, est, y_eval):
    if mode == "mrc_inverse_mse":
        return mrc_weights_inverse_mse([m.validation_mse for m in models]), False
    if mode == "mrc_lmmse":
        return mrc_weights_lmmse(est, y_eval)
    if mode == "equal_gain":
        return equal_gain_weights(len(models)), False
    return selective_weights([m.validation_mse for m in models]), False


def _model_bank(obj) -> dict:
    bank = {}
    for c in obj["channels"]:
        if c["name"] in bank:
            raise ValueError(f"duplicate channel name {c['name']!r}")
        bank[c["name"]] = model_from_dict(c["model"])
    return bank


def cmd_infer(args) -> None:
    bank = _read_json(args.models, _model_bank, "model file")

    names, timestamps, xs, y, iso = _load_series_bundle(args)
    missing = [n for n in bank if n not in names]
    if missing:
        raise ValueError(f"no input series for fitted channels {missing}")
    series_by_name = dict(zip(names, xs))
    channels = [(name, bank[name]) for name in sorted(bank)]

    forced = False
    if args.top_k:
        channels, forced = select_channels(channels, "top_k", k=args.top_k)
    elif args.mse_threshold is not None:
        channels, forced = select_channels(
            channels, "mse_threshold", threshold=args.mse_threshold
        )
    if forced:
        print("no channel met the MSE threshold; keeping the single best")

    models = [m for _, m in channels]
    inputs = [series_by_name[name] for name, _ in channels]
    start = max(m.length + _lead(m.mode) for m in models)
    n = y.size
    if start >= n:
        raise ValueError("aligned series are too short to score a single sample")
    targets = np.arange(start, n)
    est = np.vstack([_estimate_targets(m, x, targets) for m, x in zip(models, inputs)])
    y_eval = y[targets]

    mses = _mse(y_eval, est)  # finite, so is every squared error
    alphas, degenerate = _initial_alphas(args.fusion, models, est, y_eval)
    fused_model = FusionModel(
        channels=tuple(channels), alphas=alphas, mode=args.fusion, degenerate=degenerate
    )

    if args.online_window:
        rows = online_inverse_mse_weights(
            (y_eval - est) ** 2, args.online_window, fused_model.alphas
        )
        fused = np.einsum("ij,ji->i", rows[:-1], est)
        fused_model = dataclasses.replace(fused_model, alphas=rows[-1])
    else:
        fused = fused_model.alphas @ est

    fused_mse = float(_mse(y_eval, fused))
    for (name, _), alpha, mse in zip(channels, fused_model.alphas, mses):
        print(f"{name}: alpha={alpha:.6g} standalone_mse={mse:.6g}")
    print(f"fused_mse={fused_mse:.6g} over {targets.size} samples ({args.fusion})")

    _write_predictions_csv(args.out, timestamps[targets], iso, y_eval, fused)
    print(f"wrote {args.out}")
    if args.fusion_out:
        _write_json(args.fusion_out, _payload(args, fusion_to_dict(fused_model)))
        print(f"wrote {args.fusion_out}")


# --- baseline ------------------------------------------------------------------


def cmd_baseline(args) -> None:
    _, timestamps, xs, y, iso = _load_series_bundle(args)
    n = y.size
    if not 0 < args.train_frac <= 1:
        raise ValueError("--train-frac must be in (0, 1]")
    split = int(args.train_frac * n)
    if split <= args.lag + 1:
        raise ValueError("training block too short for the requested lag")
    start = split if split < n else args.lag
    _check_memory(  # before any fit
        f"baseline: --lag {args.lag} on {xs.shape[0]} input(s) of {n} rows",
        _baseline_bytes(max(split - args.lag, n - start), xs.shape[0] * (args.lag + 1),
                        xs.shape[0]),
    )
    if args.method == "ols":
        model = fit_ols(xs[:, :split], y[:split], args.lag)
    else:
        model = fit_bayes(
            xs[:, :split],
            y[:split],
            args.lag,
            prior_variance=args.prior_var,
            noise_variance=args.noise_var,
        )
    targets = np.arange(start, n)
    est = predict_series(model, xs, targets)
    y_eval = y[targets]
    mse = float(_mse(y_eval, est))
    scope = "test" if split < n else "training"
    print(
        f"{args.method}: lag={args.lag} residual_mse={model.residual_mse:.6g} "
        f"{scope}_mse={mse:.6g} over {targets.size} samples"
        + (" (degenerate fit)" if model.degenerate else "")
    )
    _write_predictions_csv(args.out, timestamps[targets], iso, y_eval, est)
    print(f"wrote {args.out}")
    if args.model_out:
        _write_json(args.model_out, _payload(args, linear_model_to_dict(model)))
        print(f"wrote {args.model_out}")


# --- couple --------------------------------------------------------------------


def cmd_couple(args) -> None:
    channel = _load_channel_arg(args)
    source = (
        load_distribution(args.source)
        if args.source
        else uniform_distribution(channel.n_inputs)
    )
    dtm = build_dtm(channel, source)
    solution = solve_coupling(dtm)
    table = score_table(solution, dtm)
    payload = _payload(args, solution_to_dict(solution, table))
    if args.delta > 0:
        perturbation = {"delta": args.delta}
        for sign, key in ((+1, "p_x_plus"), (-1, "p_x_minus")):
            full = np.zeros(dtm.input_alphabet)
            full[dtm.input_symbols] = perturb_distribution(
                dtm.p_x, solution.psi_x, args.delta, sign
            ).probs
            perturbation[key] = full.tolist()
        perturbation["local_mi"] = local_mi_approx(
            np.array([0.5, 0.5]),
            np.vstack([solution.psi_x, -solution.psi_x]),
            args.delta,
        )
        payload["perturbation"] = perturbation
    _write_json(args.out, payload)
    print(
        f"second_singular_value={solution.second_singular_value:.6g} "
        f"degenerate_subspace={str(solution.degenerate_subspace).lower()}"
    )
    print(f"wrote {args.out}")


# --- score ---------------------------------------------------------------------


def cmd_score(args) -> None:
    channel = _load_channel_arg(args)
    width = height = None
    if args.dims:
        width, height = args.dims
    dataset = load_images_csv(
        args.images, width=width, height=height, alphabet_size=channel.n_outputs
    )
    if args.mode == "pooled":
        table = build_image_scorer(dataset.images, channel, smooth=args.smooth)
        scores = score_dataset(dataset, table)
    else:
        scores = score_dataset_per_pixel(dataset, channel, smooth=True)
    labels = dataset.labels
    save_scores_csv(scores, labels, args.out)
    print(f"scored {scores.size} images (mode={args.mode})")
    if labels is not None:
        try:
            err = separation_error(scores, labels)
        except ValueError as exc:
            print(f"separation error unavailable: {exc}")
        else:
            print(f"separation_error={err:.6g}")
    print(f"wrote {args.out}")


# --- sweep ---------------------------------------------------------------------


def cmd_sweep(args) -> None:
    width, height = args.dims
    workers = resolve_threads(args.threads, len(args.e_grid))
    _check_memory(  # one corpus per worker, before any point is built
        f"sweep: --n {args.n} on --dims {width}x{height} with {workers} worker(s)",
        SWEEP_BYTES_PER_PIXEL * 2 * args.n * width * height * workers,
    )
    dist_a = DiscreteDistribution(np.asarray(args.p_a))
    dist_b = DiscreteDistribution(np.asarray(args.p_b))
    points = error_vs_noise_curve(
        dist_a,
        dist_b,
        width,
        height,
        args.n,
        args.e_grid,
        args.seed,
        threads=args.threads,
    )
    for pt in points:
        print(
            f"e={pt.e:.4f} error_probability={pt.error_probability:.6g} "
            f"n_images={pt.n_images} seed={pt.seed}"
        )
    save_curve_csv(points, args.out)
    print(f"wrote {args.out}")


# A sweep point's peak is about this many bytes per pixel of its (2n, pixels)
# corpus: the int64 noisy images, plus one 256-image block of gathered
# scores or symbol offsets (tracemalloc, at e = 0 and 0.1: 8.5-8.6 at n =
# 2,000 on 28x28, 9.0-9.1 at 1,000 on 50x50, 10.1-10.3 at 500 on 19x19 and
# 11.4-11.6 at 300 on 28x28; the symbol counts kept while drawing add none).
SWEEP_BYTES_PER_PIXEL = 12


def _baseline_bytes(rows: int, k: int, inputs: int = 0) -> int:
    """Estimated peak of a baseline over ``rows`` window rows of ``k`` =
    inputs * (lag + 1) columns; ``inputs`` = 0 means ``k`` of them (lag 0)."""
    # float64 cells: three (k, k) matrices (the lagged Gram, the product
    # that centres it and the centred Gram; then the centred Gram, the loaded
    # copy _solve_loaded checks and solves, and LAPACK's copy of it, which
    # tracemalloc does not see), the inputs shifted by their means (under
    # inputs * (rows + k)) and six row vectors.  tracemalloc read 0.09-0.98
    # times this from 0.03 to 14.8 MiB (n = 600 to 20,000, lag 5 to 500, 1
    # to 4 inputs, collinear ones too), the most where k^2 leads.
    return 8 * (3 * k * k + (inputs or k) * (rows + k) + 6 * rows) + 2**18


def _fit_bytes(n: int, taps: int) -> int:
    """Estimated peak of ``select_length`` on ``n`` samples with up to
    ``taps`` = max_length + 1 taps."""
    # float64 cells: at most four (taps, taps) matrices at once: the walk's
    # sums, then a length's centred Gram, the loaded copy _solve_loaded
    # checks and solves, and LAPACK's copy of it (which tracemalloc does not
    # see), or while centring, a temporary in place of LAPACK's copy.  Plus
    # six series-length vectors (the centred fitted rows and one score's
    # estimates and residuals).  tracemalloc read 0.06-0.72 times this from
    # 0.02 to 4.05 MiB (n = 300 to 20,000, max_length 10 to 400, both
    # criteria), the most where taps^2 leads.
    return 8 * (4 * taps * taps + 6 * n) + 2**18


class _TooLarge(Exception):
    """A job whose estimated peak exceeds physical memory: a usage error."""


def _check_memory(what: str, need: int) -> None:
    """Raise ``_TooLarge`` when ``need`` bytes exceed physical memory (where
    the OS reports it)."""
    if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ()):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise _TooLarge(f"{what} needs about {need / 2**30:.3g} GiB; this machine "
                            f"has {have / 2**30:.3g} GiB of physical memory")


# --- parser ----------------------------------------------------------------------


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="comma-separated input series CSVs")
    p.add_argument("--target", required=True, help="target series CSV")
    p.add_argument("--align", choices=ALIGN_POLICIES, default="inner")
    p.add_argument("--time-column", default="date")
    p.add_argument("--value-column", default="value")


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--channel", help="channel JSON file")
    group.add_argument(
        "--channel-e", type=float, help="noise level of the built-in 4-symbol channel"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctda",
        description="Equalize, fuse and benchmark time series; analyze and score "
        "noisy discrete observations.",
    )
    parser.add_argument("--version", action="version", version=f"ctda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one tap-delay-line model per input series")
    _add_series_flags(p)
    p.add_argument("--max-length", type=_nonnegative_int, default=10)
    p.add_argument("--select", choices=("validation", "aic"), default="validation")
    p.add_argument("--mode", choices=("infer", "predict"), default="infer")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("infer", help="fused estimates from fitted channel models")
    p.add_argument("--models", required=True, help="model JSON from 'fit'")
    _add_series_flags(p)
    p.add_argument("--fusion", choices=FUSION_MODES, default="mrc_inverse_mse")
    select = p.add_mutually_exclusive_group()
    select.add_argument(
        "--top-k", type=_nonnegative_int, default=0, help="keep only the k best channels"
    )
    select.add_argument(
        "--mse-threshold",
        type=float,
        default=None,
        help="keep channels with validation MSE at most this",
    )
    p.add_argument(
        "--online-window",
        type=_nonnegative_int,
        default=0,
        help="trailing window for online weight refresh (mrc_inverse_mse only; "
        "0 = off)",
    )
    p.add_argument("--fusion-out", default=None, help="also write the fusion JSON here")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("baseline", help="joint linear regression over all inputs")
    _add_series_flags(p)
    p.add_argument("--method", choices=("ols", "bayes"), default="ols")
    p.add_argument("--lag", type=_nonnegative_int, default=0)
    p.add_argument("--prior-var", type=float, default=1.0)
    p.add_argument("--noise-var", type=float, default=None)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--model-out", default=None, help="also write the model JSON here")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("couple", help="divergence-transition analysis of a channel")
    _add_channel_flags(p)
    p.add_argument("--source", default=None, help="input distribution JSON (default uniform)")
    p.add_argument(
        "--delta", type=_nonnegative_float, default=0.0, help="perturbation size to report"
    )
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--out", required=True, help="solution JSON to write")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("score", help="score noisy images without labels")
    p.add_argument("--images", required=True, help="image dataset CSV")
    _add_channel_flags(p)
    p.add_argument("--mode", choices=("pooled", "per_pixel"), default="pooled")
    p.add_argument(
        "--smooth",
        action="store_true",
        help="smooth the pooled marginal (per_pixel always smooths)",
    )
    p.add_argument("--dims", type=_dims, default=None, help="image geometry WxH")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--out", required=True, help="scores CSV to write")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sweep", help="separation error across channel noise levels")
    p.add_argument(
        "--e-grid",
        type=_grid,
        default="0:0.25:0.025",
        help=f"start:stop:step, a comma list or one value; at most {MAX_GRID_POINTS} points",
    )
    p.add_argument("--p-a", type=_float_list, default="0.7,0.1,0.1,0.1")
    p.add_argument("--p-b", type=_float_list, default="0.1,0.1,0.1,0.7")
    p.add_argument("--n", type=_positive_int, default=100, help="images per class")
    p.add_argument("--dims", type=_dims, default="19x19")
    p.add_argument(
        "--threads", type=_nonnegative_int, default=0, help="0 = CTDA_THREADS or CPUs"
    )
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True, help="curve CSV to write")
    p.set_defaults(func=cmd_sweep)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "infer" and args.online_window and args.fusion != "mrc_inverse_mse":
        parser.error("infer: --online-window needs --fusion mrc_inverse_mse")
    # Only how a shown warning reads changes: filters and recorders still apply.
    shown, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args.func(args)
    except _TooLarge as exc:
        parser.error(str(exc))  # exits 2
    except (FileFormatError, OSError) as exc:  # FileFormatError is a ValueError: catch it first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a sweep that outgrows the memory left free
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = shown
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
