import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from ctda.dataio import (
    ImageDataset,
    _noisy_two_class_images,
    apply_channel_to_dataset,
    gen_two_class_images,
)
from ctda.coupling import (
    ScoreTable,
    build_dtm,
    optimal_directions,
    replace_direction,
    score_table,
    solve_coupling,
)
from ctda import scoring, stats
from ctda.scoring import (
    CurvePoint,
    build_image_scorer,
    error_vs_noise_curve,
    learn_pooled_source,
    recover_source_input,
    resolve_threads,
    save_curve_csv,
    save_scores_csv,
    score_dataset,
    score_dataset_per_pixel,
    separation_error,
)
from ctda.stats import (
    Channel,
    DiscreteDistribution,
    empirical_distribution,
    identity_channel,
    parametric_channel,
    uniform_distribution,
)

from oracles import naive_separation_error, per_pixel_scores_loop

DIST_A = DiscreteDistribution([0.7, 0.1, 0.1, 0.1])
DIST_B = DiscreteDistribution([0.1, 0.1, 0.1, 0.7])


class TestLearnPooledSource:
    def test_constant_corpus(self):
        ds = ImageDataset(2, 2, 4, np.zeros((5, 4), dtype=int))
        d = learn_pooled_source(ds)
        np.testing.assert_array_equal(d.probs, [1.0, 0.0, 0.0, 0.0])

    def test_matches_class_mixture(self):
        ds = gen_two_class_images(0, 300, 10, 10, DIST_A, DIST_B)
        pooled = learn_pooled_source(ds)
        mixture = 0.5 * (DIST_A.probs + DIST_B.probs)
        np.testing.assert_allclose(pooled.probs, mixture, atol=0.01)

    def test_single_pixel_image(self):
        ds = ImageDataset(1, 1, 3, [[2]])
        np.testing.assert_array_equal(learn_pooled_source(ds).probs, [0, 0, 1.0])

    def test_smoothing_keeps_support(self):
        ds = ImageDataset(2, 2, 4, np.zeros((5, 4), dtype=int))
        d = learn_pooled_source(ds, smooth=True)
        assert np.all(d.probs > 0)


class TestRecoverSource:
    def test_identity(self):
        p = DiscreteDistribution([0.2, 0.3, 0.5])
        out = recover_source_input(p, identity_channel(3))
        np.testing.assert_allclose(out.probs, p.probs, atol=1e-15)

    def test_round_trip(self):
        w = parametric_channel(0.1)
        q = DiscreteDistribution([0.4, 0.3, 0.2, 0.1])
        p_y = DiscreteDistribution(w.matrix @ q.probs)
        out = recover_source_input(p_y, w)
        np.testing.assert_allclose(out.probs, q.probs, atol=1e-10)

    def test_round_trip_at_extreme_noise(self):
        # the transition matrix stays invertible at the top of the noise
        # range (determinant ~0.035), so inversion still works there
        w = parametric_channel(0.25)
        q = DiscreteDistribution([0.4, 0.3, 0.2, 0.1])
        p_y = DiscreteDistribution(w.matrix @ q.probs)
        out = recover_source_input(p_y, w)
        np.testing.assert_allclose(out.probs, q.probs, atol=1e-10)

    def test_small_negativity_clipped(self):
        w = parametric_channel(0.1)
        q = np.array([0.5, 0.5, 0.0, 0.0])
        p_y = w.matrix @ q
        jitter = np.array([1e-8, -1e-8, 0.0, 0.0])
        out = recover_source_input(DiscreteDistribution(p_y + jitter), w)
        assert np.all(out.probs >= 0)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_marginal_rejected(self):
        w = parametric_channel(0.2)
        with pytest.raises(ValueError, match="inconsistent channel/source"):
            recover_source_input(DiscreteDistribution([1.0, 0.0, 0.0, 0.0]), w)

    def test_non_square(self):
        ch = Channel([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="square"):
            recover_source_input(uniform_distribution(3), ch)

    def test_singular_channel(self):
        ch = Channel([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="invertible"):
            recover_source_input(uniform_distribution(2), ch)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            recover_source_input(uniform_distribution(3), identity_channel(4))


class TestBuildImageScorer:
    def test_point_mass_classes_identity_channel(self):
        da = DiscreteDistribution([1.0, 0.0, 0.0, 0.0])
        db = DiscreteDistribution([0.0, 0.0, 0.0, 1.0])
        ds = gen_two_class_images(0, 20, 5, 5, da, db)
        table = build_image_scorer(ds.images, identity_channel(4))
        assert separation_error(score_dataset(ds, table), ds.labels) == 0.0

    def test_shipped_noisy_scenario(self):
        clean = gen_two_class_images(101, 100, 19, 19, DIST_A, DIST_B)
        channel = parametric_channel(0.05)
        noisy = apply_channel_to_dataset(clean, channel, seed=202)
        table = build_image_scorer(noisy.images, channel)
        assert separation_error(score_dataset(noisy, table), noisy.labels) <= 0.02

    def test_noiseless_same_distributions(self):
        ds = gen_two_class_images(101, 100, 19, 19, DIST_A, DIST_B)
        table = build_image_scorer(ds.images, parametric_channel(0.0))
        assert separation_error(score_dataset(ds, table), ds.labels) <= 0.01

    def test_noiseless_tie_break_matches_per_image_bincount_loop(self):
        pixels = gen_two_class_images(5, 60, 4, 4, DIST_A, DIST_B).images
        channel = parametric_channel(0.0)
        p_y = empirical_distribution(pixels.reshape(-1), 4)
        dtm = build_dtm(channel, recover_source_input(p_y, channel))
        solution = solve_coupling(dtm)
        assert solution.degenerate_subspace
        # the tie-break's variance form, counting each image's symbols in turn
        subspace = optimal_directions(dtm, solution)
        counts = np.stack([np.bincount(img, minlength=4) for img in pixels]).astype(float)
        r = counts[:, dtm.output_symbols] / np.sqrt(dtm.p_y.probs)
        r -= r.mean(axis=0)
        image = dtm.matrix @ subspace
        form = image.T @ ((r.T @ r) / pixels.shape[0]) @ image
        psi = subspace @ np.linalg.eigh(form)[1][:, -1]
        expected = score_table(replace_direction(solution, dtm, psi), dtm)
        table = build_image_scorer(pixels, channel)
        assert table.scores.tobytes() == expected.scores.tobytes()

    def test_single_live_symbol_rejected(self):
        ds = ImageDataset(3, 3, 4, np.zeros((10, 9), dtype=int))
        with pytest.raises(ValueError, match="single symbol"):
            build_image_scorer(ds.images, identity_channel(4))

    def test_needs_pixel_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            build_image_scorer(np.zeros((0, 4), dtype=int), identity_channel(4))

    def test_scores_do_not_depend_on_image_order(self):
        # unsupervised + permutation-invariant learning: shuffling the corpus
        # leaves the fitted table unchanged
        ds = gen_two_class_images(7, 50, 6, 6, DIST_A, DIST_B)
        channel = parametric_channel(0.1)
        noisy = apply_channel_to_dataset(ds, channel, seed=8)
        table = build_image_scorer(noisy.images, channel)
        rng = np.random.default_rng(9)
        shuffled = noisy.images[rng.permutation(noisy.n_images)]
        table2 = build_image_scorer(shuffled, channel)
        np.testing.assert_allclose(table.scores, table2.scores, atol=1e-12)


class TestScoreDataset:
    def test_zero_table(self):
        ds = ImageDataset(2, 1, 2, [[0, 1], [1, 1]])
        table = ScoreTable(np.zeros(2), np.zeros(0, dtype=np.int64))
        scores = score_dataset(ds, table)
        assert scores.dtype == np.float64 and scores.tolist() == [0.0, 0.0]

    def test_sum_of_pixel_scores(self):
        ds = ImageDataset(3, 1, 2, [[0, 0, 1]])
        table = ScoreTable(np.array([1.0, -1.0]), np.zeros(0, dtype=np.int64))
        assert score_dataset(ds, table)[0] == pytest.approx(1.0)

    def test_labels_play_no_part(self):
        # one score per image, in corpus order, whatever the labels say
        labeled = ImageDataset(1, 1, 2, [[0], [1]], labels=[1, 0])
        table = ScoreTable(np.array([0.5, -0.5]), np.zeros(0, dtype=np.int64))
        scores = score_dataset(labeled, table)
        assert scores.tolist() == [0.5, -0.5]
        unlabeled = ImageDataset(1, 1, 2, labeled.images)
        assert score_dataset(unlabeled, table).tobytes() == scores.tobytes()

    def test_alphabet_coverage_checked(self):
        ds = ImageDataset(1, 1, 4, [[3]])
        table = ScoreTable(np.array([0.5, -0.5]), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="alphabet"):
            score_dataset(ds, table)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_finite_score_invariant(self):
        # a table whose sums overflow float64 gives no score at all
        ds = ImageDataset(2, 1, 2, [[0, 0], [0, 1]])
        table = ScoreTable(np.array([1e308, -1e308]), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="^score must be finite$"):
            score_dataset(ds, table)


class TestPerPixel:
    def test_single_pixel_matches_pooled(self):
        rng = np.random.default_rng(10)
        images = rng.choice(4, size=(200, 1), p=[0.4, 0.3, 0.2, 0.1])
        ds = ImageDataset(1, 1, 4, images)
        channel = parametric_channel(0.1)
        pooled = score_dataset(ds, build_image_scorer(ds.images, channel))
        per_pixel = score_dataset_per_pixel(ds, channel, smooth=False)
        np.testing.assert_allclose(per_pixel, pooled, atol=1e-12)

    def test_iid_pixels_agree_with_pooled_ranking(self):
        clean = gen_two_class_images(3, 50, 12, 12, DIST_A, DIST_B)
        channel = parametric_channel(0.1)
        noisy = apply_channel_to_dataset(clean, channel, seed=4)
        pooled = score_dataset(noisy, build_image_scorer(noisy.images, channel))
        per_pixel = score_dataset_per_pixel(noisy, channel)
        rho = spearmanr(pooled, per_pixel).statistic
        assert rho >= 0.99

    def test_constant_pixel_contributes_nothing(self):
        rng = np.random.default_rng(11)
        varying = rng.choice(4, size=(100, 3), p=[0.4, 0.3, 0.2, 0.1])
        with_const = np.hstack([np.full((100, 1), 2), varying])
        base = score_dataset_per_pixel(
            ImageDataset(3, 1, 4, varying), parametric_channel(0.1), smooth=False
        )
        padded = score_dataset_per_pixel(
            ImageDataset(4, 1, 4, with_const), parametric_channel(0.1), smooth=False
        )
        np.testing.assert_allclose(padded, base, atol=1e-12)

    def test_empty_dataset(self):
        ds = ImageDataset(2, 1, 2, np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError, match="empty"):
            score_dataset_per_pixel(ds, identity_channel(2))


class TestSeparationError:
    def test_perfectly_separated(self):
        assert separation_error([-3.0, -2.0, 5.0, 6.0], [0, 0, 1, 1]) == 0.0

    def test_anti_separated(self):
        assert separation_error([5.0, 6.0, -3.0, -2.0], [0, 0, 1, 1]) == 0.0

    def test_interleaved_worst_case(self):
        assert separation_error([0.0, 2.0, 1.0, 3.0], [0, 0, 1, 1]) == 0.5

    def test_unbalanced(self):
        with pytest.raises(ValueError, match="balanced"):
            separation_error([1.0, 2.0, 3.0], [0, 0, 1])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            separation_error([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError, match="two classes"):
            separation_error([1.0, 2.0, 3.0], [0, 1, 2])

    def test_needs_labels(self):
        with pytest.raises(ValueError, match="label"):
            separation_error(np.array([1.0, 2.0]), None)

    def test_empty(self):
        with pytest.raises(ValueError, match="nothing"):
            separation_error([], [])

    @pytest.mark.parametrize("labels", [[0, 1], [0, 0, 1, 1, 0, 1], [[0], [1], [0], [1]]])
    def test_one_label_per_score(self, labels):
        with pytest.raises(ValueError, match="labels of shape .* for 4 scores"):
            separation_error([1.0, 2.0, 3.0, 4.0], np.array(labels))

    @pytest.mark.parametrize("scores", [[[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0]], 5.0])
    def test_scores_must_be_one_dimensional(self, scores):
        with pytest.raises(ValueError, match="one-dimensional"):
            separation_error(scores, [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_scores_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^score must be finite$"):
            separation_error([1.0, bad], [0, 1])

    def test_matches_naive_oracle_on_random_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            labels = np.repeat([0, 1], n)
            rng.shuffle(labels)
            scores = np.round(rng.standard_normal(2 * n), 2)  # force some ties
            assert separation_error(scores, labels) == pytest.approx(
                naive_separation_error(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal(20)
        labels = np.repeat([0, 1], 10)
        rng.shuffle(labels)
        base = separation_error(scores, labels)
        warped = separation_error(np.exp(3.0 * scores), labels)
        assert base == warped

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            scores = rng.standard_normal(12)
            labels = np.repeat([0, 1], 6)
            rng.shuffle(labels)
            a = separation_error(scores, labels)
            b = separation_error(-scores, labels)
            assert a == b


class TestArrayPathMatchesWrappers:
    """The CLI and the sweep call the public array functions themselves.
    These pin what the item-list wrappers those functions replaced gave:
    one score per image in corpus order whatever the labels, any two label
    values, and the same messages."""

    @pytest.fixture
    def noisy(self):
        clean = gen_two_class_images(21, 30, 5, 5, DIST_A, DIST_B)
        return apply_channel_to_dataset(clean, parametric_channel(0.1), seed=22)

    def test_separation_error_on_random_cases(self):
        # any two label values, in either order, against the oracle on 0/1
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            values = rng.choice([-1, 0, 3], 2, replace=False)
            labels = np.repeat([0, 1], n)
            rng.shuffle(labels)
            totals = np.round(rng.standard_normal(2 * n), 1)  # ties
            assert separation_error(totals, values[labels]) == naive_separation_error(
                totals, labels
            )

    @pytest.mark.parametrize("labeled", [True, False])
    def test_pooled_items(self, noisy, labeled):
        ds = noisy if labeled else ImageDataset(5, 5, 4, noisy.images)
        table = build_image_scorer(ds.images, parametric_channel(0.1))
        scores = score_dataset(ds, table)
        expected = np.array([table.scores[image].sum() for image in noisy.images])
        assert scores.shape == (noisy.n_images,)
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("smooth", [True, False])
    def test_per_pixel_items(self, noisy, smooth):
        channel = parametric_channel(0.1)
        unlabeled = ImageDataset(5, 5, 4, noisy.images)
        scores = score_dataset_per_pixel(noisy, channel, smooth)
        assert scores.shape == (noisy.n_images,) and scores.dtype == np.float64
        assert score_dataset_per_pixel(unlabeled, channel, smooth).tobytes() == scores.tobytes()

    @pytest.mark.parametrize("scores, labels, message", [
        ([], [], "nothing to evaluate"),
        ([1.0, 2.0], None, "separation error needs labels"),
        ([1.0, 2.0], [4, 4], "need exactly two classes, got 1"),
        ([1.0, 2.0, 3.0], [0, 0, 1], "classes must be balanced"),
    ], ids=["empty", "unlabeled", "one-class", "unbalanced"])
    def test_separation_error_messages(self, scores, labels, message):
        for args in ((scores, labels),
                     (np.array(scores), None if labels is None else np.array(labels))):
            with pytest.raises(ValueError) as raised:
                separation_error(*args)
            assert str(raised.value) == message

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_pooled_total(self):
        # the one overflowing image is the last, in the second 256-image block
        images = np.zeros((300, 2), dtype=np.int64)
        images[-1] = 1
        ds = ImageDataset(2, 1, 2, images, labels=np.arange(300) % 2)
        table = ScoreTable(np.array([1.0, -1e308]), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="^score must be finite$"):
            score_dataset(ds, table)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf
    def test_non_finite_per_pixel_total(self, noisy, monkeypatch):
        coupling_scores = scoring._coupling_scores
        monkeypatch.setattr(
            scoring, "_coupling_scores", lambda *args: coupling_scores(*args) * 1e308
        )
        channel = parametric_channel(0.1)
        with pytest.raises(ValueError, match="^score must be finite$"):
            score_dataset_per_pixel(noisy, channel)


class TestCurve:
    def test_single_point(self):
        points = error_vs_noise_curve(DIST_A, DIST_B, 6, 6, 10, [0.1], seed=5)
        assert len(points) == 1
        assert points[0].e == 0.1
        assert points[0].n_images == 20
        assert 0.0 <= points[0].error_probability <= 0.5

    def test_reproducible(self):
        a = error_vs_noise_curve(DIST_A, DIST_B, 5, 5, 8, [0.0, 0.1], seed=6)
        b = error_vs_noise_curve(DIST_A, DIST_B, 5, 5, 8, [0.0, 0.1], seed=6)
        assert [(p.e, p.error_probability, p.seed) for p in a] == [
            (p.e, p.error_probability, p.seed) for p in b
        ]

    def test_thread_count_does_not_change_results(self):
        grid = [0.0, 0.05, 0.1, 0.15]
        a = error_vs_noise_curve(DIST_A, DIST_B, 5, 5, 8, grid, seed=7, threads=1)
        b = error_vs_noise_curve(DIST_A, DIST_B, 5, 5, 8, grid, seed=7, threads=4)
        assert [(p.e, p.error_probability) for p in a] == [
            (p.e, p.error_probability) for p in b
        ]

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            error_vs_noise_curve(DIST_A, DIST_B, 5, 5, 8, [], seed=0)

    @pytest.mark.parametrize("n, side", [(1, 3), (33, 5), (70, 4)])
    @pytest.mark.parametrize("e", [0.0, 0.0025, 0.1, 0.25])
    @pytest.mark.parametrize("dists", ["far", "near"])
    def test_point_matches_clean_corpus_through_the_channel(self, n, side, e, dists):
        # the composition a point was built from before it drew in one pass
        dist_a, dist_b = (DIST_A, DIST_B) if dists == "far" else (
            DiscreteDistribution([0.3, 0.2, 0.2, 0.3]), uniform_distribution(4))
        index, seed = 3, 40 + n

        def composed():
            gen_seed, noise_seed = np.random.SeedSequence(seed ^ index).generate_state(2)
            clean = gen_two_class_images(int(gen_seed), n, side, side, dist_a, dist_b)
            channel = parametric_channel(e)
            noisy = apply_channel_to_dataset(clean, channel, int(noise_seed))
            table = build_image_scorer(noisy.images, channel)
            error = separation_error(score_dataset(noisy, table), noisy.labels)
            return CurvePoint(float(e), error, noisy.n_images, seed ^ index)

        outcomes = []
        for point in (composed, lambda: scoring._curve_point(
                index, e, seed, dist_a, dist_b, side, side, n)):
            try:
                outcomes.append(point())
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_curve_matches_scoring_each_corpus(self, seed):
        # points are scored from the symbol counts kept while drawing; here
        # each corpus is drawn, passed through the channel and scored whole
        # (near classes: the errors are 0.2-0.475, so the order counts)
        dist_a, dist_b = DiscreteDistribution([0.3, 0.2, 0.2, 0.3]), uniform_distribution(4)
        grid = [0.0, 0.025, 0.1, 0.25]
        expected = []
        for index, e in enumerate(grid):
            gen_seed, noise_seed = np.random.SeedSequence(seed ^ index).generate_state(2)
            clean = gen_two_class_images(int(gen_seed), 40, 7, 7, dist_a, dist_b)
            channel = parametric_channel(e)
            noisy = apply_channel_to_dataset(clean, channel, int(noise_seed))
            scores = score_dataset(noisy, build_image_scorer(noisy.images, channel))
            expected.append(CurvePoint(e, separation_error(scores, noisy.labels), 80, seed ^ index))
        assert error_vs_noise_curve(dist_a, dist_b, 7, 7, 40, grid, seed, threads=1) == expected

    def test_point_seeds_derived_from_position(self):
        points = error_vs_noise_curve(
            DIST_A, DIST_B, 8, 8, 20, [0.0, 0.05, 0.1], seed=12
        )
        assert [p.seed for p in points] == [12 ^ 0, 12 ^ 1, 12 ^ 2]


def blocks_of_256_rows(monkeypatch, width):
    """Make ``stats._blocks`` step 256 rows of ``width`` symbols at a time."""
    monkeypatch.setattr(stats, "_BLOCK_SYMBOLS", 256 * width)


class TestScoresSummedInBlocks:
    """Corpus-sized gathers and counts run a block of rows at a time (here
    256); each matches its whole-array form bit for bit on either side of a
    block's edge."""

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    def test_pooled_totals(self, monkeypatch, n):
        images = np.random.default_rng(n).integers(0, 4, (n, 7))
        table = build_image_scorer(images, parametric_channel(0.1))
        blocks_of_256_rows(monkeypatch, 7)
        got = score_dataset(ImageDataset(7, 1, 4, images), table)
        assert got.tobytes() == table.scores[images].sum(axis=1).tobytes()

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    def test_symbol_counts(self, monkeypatch, n):
        rows = np.random.default_rng(n).integers(0, 5, (n, 9))
        expected = np.array([np.bincount(row, minlength=5) for row in rows])
        blocks_of_256_rows(monkeypatch, 9)
        got = scoring._symbol_counts(rows, 5)
        assert got.dtype == expected.dtype and (got == expected).all()

    # a point scores 2 * n_per_class images: 254, 256, 258 and 600
    @pytest.mark.parametrize("n_per_class", [127, 128, 129, 300])
    @pytest.mark.parametrize("e", [0.0, 0.1])  # e = 0 also counts symbols in the tie-break
    def test_curve_point_totals(self, monkeypatch, n_per_class, e):
        seen = []
        monkeypatch.setattr(scoring, "separation_error",
                            lambda scores, labels: seen.append(scores) or 0.0)
        blocks_of_256_rows(monkeypatch, 4 * 3)
        scoring._curve_point(2, e, 9, DIST_A, DIST_B, 4, 3, n_per_class)
        gen_seed, noise_seed = np.random.SeedSequence(9 ^ 2).generate_state(2)
        channel, noisy = _noisy_two_class_images(
            int(gen_seed), int(noise_seed), n_per_class, 4, 3, DIST_A, DIST_B, e)
        table = build_image_scorer(noisy, channel)
        assert seen[0].tobytes() == table.scores[noisy].sum(axis=1).tobytes()


class TestPixelDtypes:
    """A corpus kept in a narrow or unsigned dtype (a loaded file is
    ``uint8``) scores bit for bit as its int64 copy, on either side of a
    256-image block's edge."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.uint64])
    @pytest.mark.parametrize("e", [0.0, 0.1])  # e = 0 also counts symbols in the tie-break
    def test_scores_match_int64(self, monkeypatch, dtype, e):
        blocks_of_256_rows(monkeypatch, 4 * 3)
        clean = gen_two_class_images(5, 150, 4, 3, DIST_A, DIST_B)
        wide = apply_channel_to_dataset(clean, parametric_channel(e), seed=6)
        narrow = ImageDataset(4, 3, 4, wide.images.astype(dtype), wide.labels)
        assert narrow.images.dtype == dtype
        channel = parametric_channel(e)
        for smooth in (False, True):
            tables = [build_image_scorer(ds.images, channel, smooth) for ds in (narrow, wide)]
            assert tables[0].scores.tobytes() == tables[1].scores.tobytes()
            got, want = (score_dataset(ds, tables[1]) for ds in (narrow, wide))
            assert got.tobytes() == want.tobytes()
        if e:  # per-pixel inversion needs an invertible channel
            got, want = (score_dataset_per_pixel(ds, channel) for ds in (narrow, wide))
            assert got.tobytes() == want.tobytes()


def traced_peak(function, *args) -> int:
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCorpusFootprint:
    """Pooled scoring and the tie-break's symbol counts widen a ``uint8``
    corpus to intp a block of at most ``stats._BLOCK_SYMBOLS`` symbols at a
    time, whatever the image size: on 60 images of 300x300 pixels (5.1 MiB)
    they peak under 2 MiB, where 256-image blocks peaked at 82 and 41 MiB.
    Per-pixel scoring stays O(pixels) by design: its stacked coupling solve
    holds about 74 MiB at 90,000 pixels."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return np.random.default_rng(27).integers(0, 4, (60, 300 * 300), dtype=np.uint8)

    def test_pooled_scores(self, corpus):
        table = build_image_scorer(corpus, parametric_channel(0.1))
        assert traced_peak(score_dataset, ImageDataset(300, 300, 4, corpus), table) < 2 * 2**20

    def test_symbol_counts(self, corpus):
        assert traced_peak(scoring._symbol_counts, corpus, 4) < 2 * 2**20


class TestResolveThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("CTDA_THREADS", "7")
        assert resolve_threads(3) == 3

    def test_env_used_when_auto(self, monkeypatch):
        monkeypatch.setenv("CTDA_THREADS", "5")
        assert resolve_threads(0) == 5

    def test_auto_falls_back_to_cpu(self, monkeypatch):
        monkeypatch.delenv("CTDA_THREADS", raising=False)
        assert resolve_threads(0) >= 1

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv("CTDA_THREADS", "many")
        with pytest.raises(ValueError, match="CTDA_THREADS"):
            resolve_threads(0)

    def test_negative(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_threads(-1)
        monkeypatch.setenv("CTDA_THREADS", "-2")
        with pytest.raises(ValueError):
            resolve_threads(0)


    def test_sweep_workers_capped_by_cpus_and_points(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delenv("CTDA_THREADS", raising=False)
        assert resolve_threads(64, points=100) == 4
        assert resolve_threads(3, points=2) == 2
        assert resolve_threads(0, points=100) == 4
        assert resolve_threads(0, points=3) == 3
        monkeypatch.setenv("CTDA_THREADS", "1000")
        assert resolve_threads(0, points=50) == 4
        assert resolve_threads(2, points=50) == 2

    def test_unknown_cpu_count_gives_one_sweep_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_threads(8, points=10) == 1


class TestCsvOutputs:
    def test_scores_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        save_scores_csv(np.array([1.5, -0.25]), np.array([1, 0]), path)
        assert path.read_text().splitlines() == ["index,label,score", "0,1,1.5", "1,0,-0.25"]
        save_scores_csv([1.5, -0.25], None, path)
        assert path.read_text().splitlines() == ["index,label,score", "0,,1.5", "1,,-0.25"]

    @pytest.mark.parametrize("scores, labels, message", [
        ([1.0, 2.0], [0], "labels of shape"),
        ([[1.0, 2.0]], None, "one-dimensional"),
        ([1.0, np.nan], None, "finite"),
    ], ids=["short-labels", "2-D", "nan"])
    def test_scores_csv_rejects(self, tmp_path, scores, labels, message):
        path = tmp_path / "scores.csv"
        with pytest.raises(ValueError, match=message):
            save_scores_csv(scores, labels, path)
        assert not path.exists()

    def test_curve_csv(self, tmp_path):
        points = [CurvePoint(0.05, 0.01, 200, 42)]
        path = tmp_path / "curve.csv"
        save_curve_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "e,error_probability,n_images,seed"
        assert lines[1] == "0.05,0.01,200,42"

    def test_byte_identical_rewrites(self, tmp_path):
        scores, labels = np.sin(np.arange(10.0)), np.arange(10) % 2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_scores_csv(scores, labels, p1)
        save_scores_csv(scores, labels, p2)
        assert p1.read_bytes() == p2.read_bytes()


def random_square_channel(rng, k):
    """Column-stochastic k x k matrix, some entries zero, diagonal kept live."""
    w = rng.random((k, k)) * (rng.random((k, k)) > 0.25) + np.eye(k) * rng.random()
    return Channel(w / w.sum(axis=0))


@st.composite
def per_pixel_cases(draw):
    """A corpus and a square channel: pixels constant, uniform, skewed
    enough that channel inversion clips part of their support, or holding
    symbols past the channel's outputs (k .. k+2, or 2**63 - 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", 0.0, 0.05, 0.2]))
    if kind == "random":
        channel = random_square_channel(rng, draw(st.integers(2, 5)))
    else:
        channel = parametric_channel(kind)
    k = channel.n_outputs
    n, n_pix = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    columns = []
    for _ in range(n_pix):
        style = draw(st.sampled_from(["constant", "uniform", "skewed"] * 3 + ["outside"]))
        if style == "outside":  # symbols past the channel's outputs, in a wider alphabet
            past = draw(st.sampled_from([rng.integers(k, k + 3, n), np.full(n, 2**63 - 1)]))
            columns.append(np.where(rng.random(n) < 0.5, past, rng.integers(0, k, n)))
        elif style == "constant":
            columns.append(np.full(n, rng.integers(k)))
        elif style == "uniform":
            columns.append(rng.integers(0, k, n))
        else:
            p = np.full(k, 0.02 / k)
            p[rng.integers(k)] += 0.98
            columns.append(rng.choice(k, n, p=p / p.sum()))
    images = np.column_stack(columns)
    return ImageDataset(n_pix, 1, max(k, int(images.max()) + 1), images), channel


class TestPerPixelMatchesLoop:
    """The stacked per-pixel pass against the one-pixel-at-a-time loop in
    ``tests/oracles.py``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=per_pixel_cases(), smooth=st.booleans())
    def test_same_totals_bit_for_bit(self, case, smooth):
        dataset, channel = case
        try:
            expected = per_pixel_scores_loop(dataset.images, channel.matrix, smooth)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = score_dataset_per_pixel(dataset, channel, smooth=smooth)
        except ValueError as exc:
            got = str(exc)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("e", [0.0, 0.2])
    def test_clipped_supports_and_constant_pixels(self, e):
        # At e = 0.2 inverting the channel clips one or two source symbols of
        # every pixel here; at e = 0 the constant pixel has one live symbol
        # and is skipped.
        rng = np.random.default_rng(4)
        skewed = rng.choice(4, size=(60, 3), p=[0.97, 0.01, 0.01, 0.01])
        images = np.hstack([skewed, np.full((60, 1), 3), rng.integers(0, 4, (60, 2))])
        channel = parametric_channel(e)
        ds = ImageDataset(6, 1, 4, images)
        expected = per_pixel_scores_loop(images, channel.matrix, False)
        got = score_dataset_per_pixel(ds, channel, smooth=False)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    def test_totals_gathered_in_blocks_of_images(self, monkeypatch, n):
        # the counts and totals are taken 256 images at a time
        images = np.random.default_rng(n).integers(0, 4, (n, 5))
        ds = ImageDataset(5, 1, 4, images)
        expected = per_pixel_scores_loop(images, parametric_channel(0.1).matrix, True)
        blocks_of_256_rows(monkeypatch, 5)
        got = score_dataset_per_pixel(ds, parametric_channel(0.1), True)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("channel, message", [
        (Channel([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]), "square"),
        (Channel([[0.5, 0.5], [0.5, 0.5]]), "not invertible"),
        (identity_channel(2), "symbol 3 outside alphabet of size 2"),
    ], ids=["non-square", "singular", "outside-alphabet"])
    def test_same_error_as_loop(self, channel, message):
        images = np.array([[0, 1, 3], [1, 0, 2], [1, 1, 0]])
        ds = ImageDataset(3, 1, 4, images)
        with pytest.raises(ValueError, match=message) as got:
            score_dataset_per_pixel(ds, channel)
        with pytest.raises(ValueError) as expected:
            per_pixel_scores_loop(images, channel.matrix, True)
        assert str(got.value) == str(expected.value)

    def test_outside_symbol_in_first_pixel_beats_channel_errors(self):
        images = np.array([[3, 1], [1, 0]])
        ds = ImageDataset(2, 1, 4, images)
        channel = Channel([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="symbol 3 outside alphabet of size 3"):
            score_dataset_per_pixel(ds, channel)
