"""Acceptance gate: ten end-to-end checks over both pipelines.

Each test prints one ``[PASS]``/``[FAIL]`` line outside pytest's capture,
so the verdicts always reach the terminal, and then asserts.  The checks
pin numeric tolerances and, where stated, wall-clock budgets.
"""

import time
from itertools import permutations, product

import numpy as np
import pytest

from ctda.cli import main
from ctda.coupling import (
    build_dtm,
    local_mi_approx,
    perturb_distribution,
    solve_coupling,
    tensor_dtm,
)
from ctda.dataio import (
    ImageDataset,
    TimeSeries,
    apply_channel_to_dataset,
    gen_fir_series,
    gen_two_class_images,
    save_csv,
    save_images_csv,
)
from ctda.equalizer import estimate_series, fit_weights, select_length
from ctda.fusion import (
    equal_gain_weights,
    mrc_weights_inverse_mse,
    mrc_weights_lmmse,
)
from ctda.baselines import fit_ols, predict_series
from ctda.scoring import build_image_scorer, score_dataset, separation_error
from ctda.stats import Channel, DiscreteDistribution, parametric_channel

from oracles import balanced_labelings, bayes_error, mi_of_mixture, naive_separation_error


@pytest.fixture
def report(capsys):
    def _report(label: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{verdict}] {label}: {detail}", flush=True)
        assert ok, f"{label}: {detail}"

    return _report


def test_01_equalizer_identification(report):
    """Noiseless taps recovered to 1e-9; sigma=0.1, n=2000 taps to 0.02; < 1 s."""
    taps = np.array([0.9, -0.4, 0.25])
    t0 = time.perf_counter()
    xs, y = gen_fir_series(42, 2000, [taps])
    clean_err = float(np.max(np.abs(fit_weights(xs[0], y, 2).weights - taps)))
    xs, y = gen_fir_series(42, 2000, [taps], noise_sigma=0.1)
    noisy_err = float(np.max(np.abs(fit_weights(xs[0], y, 2).weights - taps)))
    elapsed = time.perf_counter() - t0
    ok = clean_err <= 1e-9 and noisy_err <= 0.02 and elapsed < 1.0
    report(
        "equalizer identification",
        ok,
        f"noiseless dev {clean_err:.2e} (<=1e-9), noisy dev {noisy_err:.2e} "
        f"(<=0.02), {elapsed:.2f}s (<1s)",
    )


def test_02_length_selection(report):
    """Holdout selection finds channel memories 4 and 12 within +/-1."""
    taps_short = [1.0, -0.7, 0.5, 0.4, 0.6]
    taps_long = [0.6, 0.5, -0.4, 0.3, 0.3, -0.25, 0.2, 0.2,
                 -0.15, 0.15, 0.1, 0.1, 0.35]
    picked = []
    for seed, taps in ((0, taps_short), (1, taps_long)):
        xs, y = gen_fir_series(seed, 3000, [taps], noise_sigma=0.1)
        picked.append(select_length(xs[0], y, 14).length)
    ok = abs(picked[0] - 4) <= 1 and abs(picked[1] - 12) <= 1
    report(
        "length selection",
        ok,
        f"true memories (4, 12) -> selected {tuple(picked)} (each within +/-1)",
    )


def test_03_fusion_dominance(report):
    """LMMSE beats each channel on the training window; inverse-MSE beats
    equal gain out of sample; both fused estimates beat joint lag-0 OLS."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n, split = 4000, 3200
    xa = rng.standard_normal(n)
    xb = rng.standard_normal(n)
    y = (
        np.convolve(xa, [1.0, 0.8, 0.5])[:n]
        + np.convolve(xb, [0.5, 0.4, 0.3, 0.2, 0.2, 0.1])[:n]
        + 0.3 * rng.standard_normal(n)
    )
    inputs = (xa, xb)
    models = [select_length(x[:split], y[:split], 8) for x in inputs]
    hist = max(m.length for m in models)

    train_rows = np.arange(hist, split)
    est_train = np.vstack(
        [estimate_series(m, x[:split], train_rows) for m, x in zip(models, inputs)]
    )
    y_train = y[train_rows]
    alphas_lmmse, _ = mrc_weights_lmmse(est_train, y_train)
    lmmse_train = float(np.mean((y_train - alphas_lmmse @ est_train) ** 2))
    channel_train = [float(np.mean((y_train - row) ** 2)) for row in est_train]

    test_rows = np.arange(split, n)
    est_test = np.vstack(
        [estimate_series(m, x, test_rows) for m, x in zip(models, inputs)]
    )
    y_test = y[test_rows]
    alphas_inv = mrc_weights_inverse_mse([m.validation_mse for m in models])
    inv_test = float(np.mean((y_test - alphas_inv @ est_test) ** 2))
    egc_test = float(
        np.mean((y_test - equal_gain_weights(2) @ est_test) ** 2)
    )
    lmmse_test = float(np.mean((y_test - alphas_lmmse @ est_test) ** 2))

    stacked = np.vstack(inputs)
    ols = fit_ols(stacked[:, :split], y[:split], 0)
    ols_test = float(
        np.mean((y_test - predict_series(ols, stacked, test_rows)) ** 2)
    )
    elapsed = time.perf_counter() - t0

    part_a = lmmse_train <= min(channel_train) + 1e-9
    part_b = inv_test <= egc_test
    part_c = inv_test < ols_test and lmmse_test < ols_test
    ok = part_a and part_b and part_c and elapsed < 5.0
    report(
        "fusion dominance",
        ok,
        f"lmmse train {lmmse_train:.3f} <= channels {min(channel_train):.3f}; "
        f"inverse-mse test {inv_test:.3f} <= equal-gain {egc_test:.3f}; "
        f"fused {{{inv_test:.3f}, {lmmse_test:.3f}}} < ols {ols_test:.3f}; "
        f"{elapsed:.2f}s (<5s)",
    )


def test_04_transition_matrix_invariants(report):
    """1000 random channel/source pairs, alphabets up to 6: top singular
    value 1 within 1e-9, the root-marginal map holds to 1e-10, and the
    second singular value never exceeds the first's tolerance band."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_top = worst_map = worst_second = 0.0
    for _ in range(1000):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(2, 7))
        w = rng.random((ny, nx)) + 0.05
        w /= w.sum(axis=0)
        p = rng.random(nx) + 0.05
        p /= p.sum()
        dtm = build_dtm(Channel(w), DiscreteDistribution(p))
        svals = np.linalg.svd(dtm.matrix, compute_uv=False)
        worst_top = max(worst_top, abs(svals[0] - 1.0))
        worst_map = max(
            worst_map,
            float(
                np.max(
                    np.abs(
                        dtm.matrix @ np.sqrt(dtm.p_x.probs)
                        - np.sqrt(dtm.p_y.probs)
                    )
                )
            ),
        )
        if svals.size > 1:
            worst_second = max(worst_second, float(svals[1]) - 1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_top <= 1e-9
        and worst_map <= 1e-10
        and worst_second <= 1e-9
        and elapsed < 10.0
    )
    report(
        "transition-matrix invariants",
        ok,
        f"|sigma1-1| {worst_top:.1e} (<=1e-9), map residual {worst_map:.1e} "
        f"(<=1e-10), sigma2 excess {worst_second:.1e}, {elapsed:.2f}s (<10s)",
    )


def test_05_grid_search_equivalence(report):
    """Dense search over unit directions orthogonal to the root marginal
    reaches the solver's second singular value within 1e-6 (50 instances)."""
    rng = np.random.default_rng(9)
    worst_gap = 0.0
    for trial in range(50):
        nx = 2 if trial % 2 == 0 else 3
        ny = int(rng.integers(2, 6))
        w = rng.random((ny, nx)) + 0.05
        w /= w.sum(axis=0)
        p = rng.random(nx) + 0.05
        p /= p.sum()
        dtm = build_dtm(Channel(w), DiscreteDistribution(p))
        solution = solve_coupling(dtm)
        sq = np.sqrt(dtm.p_x.probs)
        basis = np.linalg.svd(sq[None, :])[2][1:]  # complement of sqrt marginal
        if nx == 2:
            best = float(np.linalg.norm(dtm.matrix @ basis[0]))
        else:
            theta = np.linspace(0.0, np.pi, 20001)
            dirs = np.outer(np.cos(theta), basis[0]) + np.outer(
                np.sin(theta), basis[1]
            )
            best = float(np.max(np.linalg.norm(dtm.matrix @ dirs.T, axis=0)))
        worst_gap = max(worst_gap, abs(best - solution.second_singular_value))
    ok = worst_gap <= 1e-6
    report(
        "grid-search equivalence",
        ok,
        f"worst |grid max - sigma2| {worst_gap:.1e} (<=1e-6) over 50 instances",
    )


def test_06_local_mi_fidelity(report):
    """Quadratic information approximation vs exact mutual information of a
    binary perturbation pair: relative error <=2% at delta=1e-4 and <=0.2%
    at delta=1e-6."""
    rng = np.random.default_rng(6)
    details = []
    ok = True
    for delta, bound in ((1e-4, 0.02), (1e-6, 0.002)):
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 6))
            p = rng.uniform(0.05, 1.0, k)
            p /= p.sum()
            v = rng.standard_normal(k)
            v -= (v @ np.sqrt(p)) * np.sqrt(p)
            if np.linalg.norm(v) < 1e-6:
                continue
            psi = v / np.linalg.norm(v)
            dist = DiscreteDistribution(p)
            q_plus = perturb_distribution(dist, psi, delta, +1)
            q_minus = perturb_distribution(dist, psi, delta, -1)
            exact = mi_of_mixture([0.5, 0.5], [q_plus.probs, q_minus.probs])
            approx = local_mi_approx(
                np.array([0.5, 0.5]), np.vstack([psi, -psi]), delta
            )
            worst = max(worst, abs(approx - exact) / exact)
        ok = ok and worst <= bound
        details.append(f"delta={delta:g}: rel err {worst:.1e} (<= {bound:g})")
    report("local MI fidelity", ok, "; ".join(details))


def test_07_tensor_spectrum(report):
    """Singular values of the paired map equal all pairwise products of the
    single-letter singular values, to 1e-9, on a seeded 3x3 instance."""
    rng = np.random.default_rng(7)
    w = rng.random((3, 3)) + 0.1
    w /= w.sum(axis=0)
    p = rng.random(3) + 0.1
    p /= p.sum()
    dtm = build_dtm(Channel(w), DiscreteDistribution(p))
    single = np.linalg.svd(dtm.matrix, compute_uv=False)
    paired = np.linalg.svd(tensor_dtm(dtm, dtm).matrix, compute_uv=False)
    expected = np.sort(np.outer(single, single).ravel())[::-1]
    dev = float(np.max(np.abs(paired - expected)))
    report(
        "tensor spectrum",
        dev <= 1e-9,
        f"max |pairwise product - singular value| {dev:.1e} (<=1e-9)",
    )


def test_08_image_separation(report):
    """Two skewed classes, 19x19 images, 100 per class, channel noise in
    {0, 0.05, 0.1, 0.2}: fully unsupervised scoring separates with error
    <= 0.02 everywhere and within 0.02 of the ideal-observer error; < 30 s."""
    t0 = time.perf_counter()
    dist_a = DiscreteDistribution([0.7, 0.1, 0.1, 0.1])
    dist_b = DiscreteDistribution([0.1, 0.1, 0.1, 0.7])
    lines = []
    ok = True
    for e in (0.0, 0.05, 0.1, 0.2):
        clean = gen_two_class_images(101, 100, 19, 19, dist_a, dist_b)
        channel = parametric_channel(e)
        noisy = apply_channel_to_dataset(clean, channel, seed=202)
        # the scoring path sees no labels at any point
        unlabeled = ImageDataset(19, 19, 4, noisy.images)
        table = build_image_scorer(unlabeled.images, channel)
        err = separation_error(score_dataset(unlabeled, table), clean.labels)
        oracle = bayes_error(
            noisy.images, clean.labels, channel.matrix, dist_a.probs, dist_b.probs
        )
        ok = ok and err <= 0.02 and abs(err - oracle) <= 0.02
        lines.append(f"e={e:g}: err {err:.3f} / ideal {oracle:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(
        "image separation",
        ok,
        "; ".join(lines) + f"; {elapsed:.1f}s (<30s)",
    )


def test_09_separation_metric(report):
    """The metric agrees with a plain-Python oracle on every arrangement of
    up to 8 items: all balanced labelings crossed with all orderings of
    distinct scores (directly for 6 or fewer items; for 8 items each of the
    70 order patterns once, since distinct scores only act through their
    order), plus every binary tie pattern."""

    def check(scores, labels):
        return separation_error(scores, labels) == naive_separation_error(scores, labels)

    ok = True
    cases = 0
    for n_pairs in (1, 2, 3):
        for labels in balanced_labelings(n_pairs):
            for perm in permutations(range(2 * n_pairs)):
                ok = ok and check(perm, labels)
                cases += 1
            for scores in product((0.0, 1.0, 2.0), repeat=2 * n_pairs):
                ok = ok and check(scores, labels)
                cases += 1
    for labels in balanced_labelings(4):
        ok = ok and check(range(8), labels)
        cases += 1
        for scores in product((0.0, 1.0), repeat=8):
            ok = ok and check(scores, labels)
            cases += 1
    report(
        "separation metric",
        ok,
        f"oracle agreement on {cases} exhaustive arrangements (up to 8 items)",
    )


def test_10_cli_determinism(report, tmp_path):
    """Every CLI command, re-run with identical flags and seed, rewrites its
    outputs byte for byte."""

    def rerun_identical(argv, outputs):
        assert main(argv) == 0
        first = [p.read_bytes() for p in outputs]
        assert main(argv) == 0
        return all(p.read_bytes() == b for p, b in zip(outputs, first))

    xs, y = gen_fir_series(11, 600, [[1.0, 0.5], [0.3]], noise_sigma=0.05)
    for stem, values in (("a", xs[0]), ("b", xs[1]), ("tgt", y)):
        path = tmp_path / f"{stem}.csv"
        save_csv(TimeSeries(stem, np.arange(values.size), values), path)
    series_flags = [
        "--input", f"{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}",
        "--target", str(tmp_path / "tgt.csv"),
    ]
    clean = gen_two_class_images(
        3, 40, 6, 6,
        DiscreteDistribution([0.7, 0.1, 0.1, 0.1]),
        DiscreteDistribution([0.1, 0.1, 0.1, 0.7]),
    )
    noisy = apply_channel_to_dataset(clean, parametric_channel(0.05), seed=4)
    save_images_csv(noisy, tmp_path / "images.csv")

    models = tmp_path / "models.json"
    checks = {
        "fit": rerun_identical(
            ["fit", *series_flags, "--max-length", "4", "--out", str(models)],
            [models],
        ),
        "infer": rerun_identical(
            ["infer", "--models", str(models), *series_flags,
             "--out", str(tmp_path / "preds.csv"),
             "--fusion-out", str(tmp_path / "fusion.json")],
            [tmp_path / "preds.csv", tmp_path / "fusion.json"],
        ),
        "baseline": rerun_identical(
            ["baseline", *series_flags, "--lag", "1",
             "--out", str(tmp_path / "base.csv"),
             "--model-out", str(tmp_path / "linear.json")],
            [tmp_path / "base.csv", tmp_path / "linear.json"],
        ),
        "couple": rerun_identical(
            ["couple", "--channel-e", "0.1", "--delta", "0.01",
             "--out", str(tmp_path / "solution.json")],
            [tmp_path / "solution.json"],
        ),
        "score": rerun_identical(
            ["score", "--images", str(tmp_path / "images.csv"),
             "--channel-e", "0.05", "--out", str(tmp_path / "scores.csv")],
            [tmp_path / "scores.csv"],
        ),
        "sweep": rerun_identical(
            ["sweep", "--e-grid", "0:0.1:0.05", "--n", "4", "--dims", "4x4",
             "--seed", "11", "--out", str(tmp_path / "curve.csv")],
            [tmp_path / "curve.csv"],
        ),
    }
    ok = all(checks.values())
    stable = ", ".join(name for name, good in checks.items() if good)
    report(
        "CLI determinism",
        ok,
        f"byte-identical reruns: {stable}" if ok
        else f"unstable: {[n for n, good in checks.items() if not good]}",
    )
