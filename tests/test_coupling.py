import json

import numpy as np
import pytest

from ctda.coupling import (
    CouplingSolution,
    Dtm,
    ScoreTable,
    build_dtm,
    local_mi_approx,
    optimal_directions,
    perturb_distribution,
    replace_direction,
    score_table,
    sequence_score,
    solution_to_dict,
    solve_coupling,
    tensor_dtm,
)
from ctda.stats import (
    Channel,
    DiscreteDistribution,
    binary_symmetric_channel,
    exact_mutual_information,
    identity_channel,
    parametric_channel,
    uniform_distribution,
)

from oracles import second_direction_power_iteration

SQ2 = 1.0 / np.sqrt(2.0)


def random_channel(rng, n_out, n_in):
    m = rng.uniform(0.05, 1.0, size=(n_out, n_in))
    return Channel(m / m.sum(axis=0))


def random_dist(rng, k):
    p = rng.uniform(0.05, 1.0, size=k)
    return DiscreteDistribution(p / p.sum())


class TestBuildDtm:
    def test_identity_channel(self):
        p = DiscreteDistribution([0.2, 0.3, 0.5])
        dtm = build_dtm(identity_channel(3), p)
        np.testing.assert_allclose(dtm.matrix, np.eye(3), atol=1e-12)
        np.testing.assert_array_equal(dtm.input_symbols, [0, 1, 2])

    def test_bsc_uniform(self):
        dtm = build_dtm(binary_symmetric_channel(0.1), uniform_distribution(2))
        np.testing.assert_allclose(dtm.matrix, [[0.9, 0.1], [0.1, 0.9]], atol=1e-12)

    def test_sqrt_marginal_mapping(self):
        dtm = build_dtm(parametric_channel(0.1), uniform_distribution(4))
        np.testing.assert_allclose(
            dtm.matrix @ np.sqrt(dtm.p_x.probs), np.sqrt(dtm.p_y.probs), atol=1e-12
        )

    def test_zero_probability_input_dropped(self):
        p = DiscreteDistribution([0.5, 0.5, 0.0])
        dtm = build_dtm(random_channel(np.random.default_rng(0), 3, 3), p)
        np.testing.assert_array_equal(dtm.input_symbols, [0, 1])
        assert dtm.matrix.shape == (3, 2)
        assert dtm.input_alphabet == 3

    def test_unreachable_output_dropped(self):
        # output 2 is reachable only from input 2, which has probability 0
        w = Channel([
            [0.5, 0.4, 0.0],
            [0.5, 0.6, 0.2],
            [0.0, 0.0, 0.8],
        ])
        dtm = build_dtm(w, DiscreteDistribution([0.6, 0.4, 0.0]))
        np.testing.assert_array_equal(dtm.output_symbols, [0, 1])
        np.testing.assert_array_equal(dtm.input_symbols, [0, 1])
        assert dtm.output_alphabet == 3

    def test_too_few_surviving_inputs(self):
        with pytest.raises(ValueError, match="at least two"):
            build_dtm(binary_symmetric_channel(0.1), DiscreteDistribution([1.0, 0.0]))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="expects"):
            build_dtm(binary_symmetric_channel(0.1), uniform_distribution(3))

    def test_randomized_contract(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n_in = int(rng.integers(2, 7))
            n_out = int(rng.integers(2, 7))
            dtm = build_dtm(random_channel(rng, n_out, n_in), random_dist(rng, n_in))
            sigma = np.linalg.svd(dtm.matrix, compute_uv=False)
            assert abs(sigma[0] - 1.0) <= 1e-9
            np.testing.assert_allclose(
                dtm.matrix @ np.sqrt(dtm.p_x.probs), np.sqrt(dtm.p_y.probs), atol=1e-10
            )
            if sigma.size > 1:
                assert sigma[1] <= 1.0 + 1e-9

    def test_contract_enforced_on_construction(self):
        good = build_dtm(binary_symmetric_channel(0.2), uniform_distribution(2))
        bad = good.matrix.copy()
        bad[0, 0] += 1e-3
        with pytest.raises(ValueError, match="carry"):
            Dtm(bad, good.p_x, good.p_y, good.input_symbols, good.output_symbols, 2, 2)
        # rank-one bump along a direction orthogonal to sqrt(p_x) keeps the
        # marginal mapping intact but inflates the top singular value
        inflated = good.matrix + 0.5 * np.outer([1.0, 0.0], [SQ2, -SQ2])
        with pytest.raises(ValueError, match="singular value"):
            Dtm(inflated, good.p_x, good.p_y,
                good.input_symbols, good.output_symbols, 2, 2)


class TestSolveCoupling:
    def test_bsc_analytic(self):
        dtm = build_dtm(binary_symmetric_channel(0.1), uniform_distribution(2))
        sol = solve_coupling(dtm)
        assert sol.second_singular_value == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(sol.psi_x, [SQ2, -SQ2], atol=1e-12)
        np.testing.assert_allclose(sol.psi_y, [0.8 * SQ2, -0.8 * SQ2], atol=1e-12)
        np.testing.assert_allclose(sol.singular_values, [1.0, 0.8], atol=1e-12)
        assert not sol.degenerate_subspace

    def test_identity_is_degenerate(self):
        dtm = build_dtm(identity_channel(3), uniform_distribution(3))
        sol = solve_coupling(dtm)
        assert sol.second_singular_value == pytest.approx(1.0, abs=1e-12)
        assert sol.degenerate_subspace

    def test_useless_channel(self):
        # identical columns: the output carries nothing about the input
        w = Channel(np.tile([[0.3], [0.5], [0.2]], (1, 3)))
        sol = solve_coupling(build_dtm(w, uniform_distribution(3)))
        assert sol.second_singular_value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.psi_y, 0.0, atol=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dtm = build_dtm(random_channel(rng, 4, 4), random_dist(rng, 4))
            sol = solve_coupling(dtm)
            sigma, psi = second_direction_power_iteration(
                dtm.matrix, np.sqrt(dtm.p_x.probs)
            )
            assert sol.second_singular_value == pytest.approx(sigma, abs=1e-7)
            if not sol.degenerate_subspace:
                align = abs(float(psi @ sol.psi_x))
                assert align == pytest.approx(1.0, abs=1e-6)

    def test_grid_search_three_symbols(self):
        rng = np.random.default_rng(3)
        thetas = np.linspace(0.0, 2.0 * np.pi, 4001)
        for _ in range(5):
            dtm = build_dtm(random_channel(rng, 4, 3), random_dist(rng, 3))
            sol = solve_coupling(dtm)
            basis = optimal_directions(dtm, solve_coupling(dtm))
            # brute force over the whole valid circle, not just the optimum
            sqrt_px = np.sqrt(dtm.p_x.probs)
            q, _ = np.linalg.qr(
                np.column_stack([sqrt_px, np.eye(3)[:, :2]])
            )
            circle = (
                np.cos(thetas)[:, None] * q[:, 1] + np.sin(thetas)[:, None] * q[:, 2]
            )
            best = np.linalg.norm(dtm.matrix @ circle.T, axis=0).max()
            assert abs(best - sol.second_singular_value) <= 1e-6

    def test_psi_is_valid_perturbation(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n_in = int(rng.integers(2, 6))
            dtm = build_dtm(random_channel(rng, 5, n_in), random_dist(rng, n_in))
            sol = solve_coupling(dtm)
            assert np.linalg.norm(sol.psi_x) == pytest.approx(1.0, abs=1e-12)
            assert abs(float(sol.psi_x @ np.sqrt(dtm.p_x.probs))) <= 1e-10
            assert np.linalg.norm(sol.psi_y) == pytest.approx(
                sol.second_singular_value, abs=1e-9
            )
            lead = sol.psi_x[np.abs(sol.psi_x) > 1e-9]
            assert lead.size == 0 or lead[0] > 0

    def test_postcomposition_never_raises_sigma2(self):
        rng = np.random.default_rng(5)
        w = random_channel(rng, 4, 4)
        px = random_dist(rng, 4)
        base = solve_coupling(build_dtm(w, px)).second_singular_value
        for lam in (0.1, 0.5, 0.9, 1.0):
            mix = (1 - lam) * np.eye(4) + lam * np.full((4, 4), 0.25)
            mixed = Channel(mix @ w.matrix)
            sigma = solve_coupling(build_dtm(mixed, px)).second_singular_value
            assert sigma <= base + 1e-12


class TestOptimalDirections:
    def test_non_degenerate_single_column(self):
        dtm = build_dtm(binary_symmetric_channel(0.1), uniform_distribution(2))
        sol = solve_coupling(dtm)
        dirs = optimal_directions(dtm, sol)
        assert dirs.shape == (2, 1)
        assert abs(float(dirs[:, 0] @ sol.psi_x)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_channel_full_complement(self):
        dtm = build_dtm(identity_channel(4), uniform_distribution(4))
        sol = solve_coupling(dtm)
        dirs = optimal_directions(dtm, sol)
        assert dirs.shape == (4, 3)
        gram = dirs.T @ dirs
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(dirs.T @ np.sqrt(dtm.p_x.probs), 0.0, atol=1e-10)

    def test_replace_direction_within_subspace(self):
        dtm = build_dtm(identity_channel(3), uniform_distribution(3))
        sol = solve_coupling(dtm)
        dirs = optimal_directions(dtm, sol)
        combo = dirs @ np.array([3.0, -4.0])
        swapped = replace_direction(sol, dtm, combo)
        assert np.linalg.norm(swapped.psi_x) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(swapped.psi_y) == pytest.approx(
            sol.second_singular_value, abs=1e-9
        )
        lead = swapped.psi_x[np.abs(swapped.psi_x) > 1e-9]
        assert lead[0] > 0
        assert swapped.degenerate_subspace == sol.degenerate_subspace

    @pytest.mark.parametrize("channel", [identity_channel(2), binary_symmetric_channel(0.0)])
    def test_lone_perfect_direction_is_not_degenerate(self, channel):
        # sigma_2 = 1 ties with the trivial sigma_1, which is no valid direction
        dtm = build_dtm(channel, uniform_distribution(2))
        sol = solve_coupling(dtm)
        assert sol.second_singular_value == pytest.approx(1.0, abs=1e-12)
        assert not sol.degenerate_subspace
        assert optimal_directions(dtm, sol).shape == (2, 1)

    def test_wide_channel_has_one_direction(self):
        # 2 outputs, 4 inputs: two complement directions are mapped to 0
        w = Channel(np.array([[0.9, 0.2, 0.5, 0.1], [0.1, 0.8, 0.5, 0.9]]))
        dtm = build_dtm(w, uniform_distribution(4))
        sol = solve_coupling(dtm)
        dirs = optimal_directions(dtm, sol)
        assert dirs.shape == (4, 1) and not sol.degenerate_subspace
        assert abs(float(dirs[:, 0] @ sol.psi_x)) == pytest.approx(1.0, abs=1e-12)

    def test_useless_wide_channel_ties_every_direction(self):
        # identical columns: B maps the whole complement to 0
        w = Channel(np.tile([[0.3], [0.7]], (1, 4)))
        dtm = build_dtm(w, uniform_distribution(4))
        sol = solve_coupling(dtm)
        dirs = optimal_directions(dtm, sol)
        assert sol.degenerate_subspace
        assert dirs.shape == (4, 3)
        np.testing.assert_allclose(dirs.T @ dirs, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(dirs.T @ np.sqrt(dtm.p_x.probs), 0.0, atol=1e-12)

    def test_flag_agrees_with_direction_count(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n_in = int(rng.integers(2, 6))
            n_out = int(rng.integers(2, n_in + 2))  # wide, square and tall
            # columns drawn from a small pool, some one-hot, so that ties occur
            pool = np.column_stack([
                rng.dirichlet(np.ones(n_out)) if rng.random() < 0.5
                else np.eye(n_out)[:, rng.integers(n_out)]
                for _ in range(int(rng.integers(1, n_in + 1)))
            ])
            w = Channel(pool[:, rng.integers(pool.shape[1], size=n_in)])
            try:
                dtm = build_dtm(w, random_dist(rng, n_in))
            except ValueError:  # fewer than two reachable outputs or inputs
                continue
            sol = solve_coupling(dtm)
            assert sol.degenerate_subspace == (optimal_directions(dtm, sol).shape[1] > 1)

    def test_replace_zero_rejected(self):
        dtm = build_dtm(identity_channel(3), uniform_distribution(3))
        sol = solve_coupling(dtm)
        with pytest.raises(ValueError, match="zero"):
            replace_direction(sol, dtm, np.zeros(3))


class TestPerturb:
    def test_delta_zero(self):
        p = uniform_distribution(2)
        q = perturb_distribution(p, np.array([SQ2, -SQ2]), 0.0)
        np.testing.assert_array_equal(q.probs, p.probs)

    def test_binary_hand_value(self):
        q = perturb_distribution(
            uniform_distribution(2), np.array([SQ2, -SQ2]), 1e-4, sign=1
        )
        np.testing.assert_allclose(q.probs, [0.505, 0.495], atol=1e-12)

    def test_sign_mirrors(self):
        psi = np.array([SQ2, -SQ2])
        qp = perturb_distribution(uniform_distribution(2), psi, 1e-4, 1)
        qm = perturb_distribution(uniform_distribution(2), psi, 1e-4, -1)
        np.testing.assert_allclose(qp.probs + qm.probs, [1.0, 1.0], atol=1e-15)

    def test_sums_to_one_on_random_directions(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            dtm = build_dtm(random_channel(rng, k, k), random_dist(rng, k))
            sol = solve_coupling(dtm)
            q = perturb_distribution(dtm.p_x, sol.psi_x, 1e-5, 1)
            assert q.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_delta_reports_bound(self):
        p = DiscreteDistribution([0.999, 0.001])
        # unit direction orthogonal to sqrt(p): shrinks the tiny entry
        psi = np.array([np.sqrt(0.001), -np.sqrt(0.999)])
        with pytest.raises(ValueError, match="largest admissible") as exc:
            perturb_distribution(p, psi, 0.1, sign=1)
        bound = float(str(exc.value).rsplit(" ", 1)[-1])
        # the reported bound itself is feasible, a bit beyond is not
        perturb_distribution(p, psi, bound, sign=1)
        with pytest.raises(ValueError):
            perturb_distribution(p, psi, bound * 1.001, sign=1)

    def test_bad_arguments(self):
        p = uniform_distribution(2)
        with pytest.raises(ValueError, match="sign"):
            perturb_distribution(p, np.array([SQ2, -SQ2]), 1e-4, sign=2)
        with pytest.raises(ValueError, match="delta"):
            perturb_distribution(p, np.array([SQ2, -SQ2]), -1e-4)
        with pytest.raises(ValueError, match="alphabet"):
            perturb_distribution(p, np.ones(3), 1e-4)


class TestLocalMi:
    def test_zero_directions(self):
        assert local_mi_approx(uniform_distribution(2), np.zeros((2, 4)), 1e-3) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_value_says_to_rescale(self):
        # the squared directions overflow float64: the value was inf
        with pytest.raises(ValueError, match="overflows float64; rescale"):
            local_mi_approx(uniform_distribution(2), 1e200 * np.ones((2, 2)), 1e200)

    def test_binary_unit_value_vs_exact(self):
        psi = np.array([SQ2, -SQ2])
        delta = 1e-4
        approx = local_mi_approx(uniform_distribution(2), np.vstack([psi, -psi]), delta)
        assert approx == pytest.approx(5.0e-5, abs=1e-12)
        p = uniform_distribution(2)
        conditionals = np.vstack([
            perturb_distribution(p, psi, delta, 1).probs,
            perturb_distribution(p, psi, delta, -1).probs,
        ])
        exact = exact_mutual_information(uniform_distribution(2), conditionals)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_linear_in_delta(self):
        psi = np.array([SQ2, -SQ2])
        full = local_mi_approx(uniform_distribution(2), np.vstack([psi, -psi]), 2e-4)
        half = local_mi_approx(uniform_distribution(2), np.vstack([psi, -psi]), 1e-4)
        assert full == pytest.approx(2.0 * half, abs=1e-18)

    def test_second_order_convergence(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            dtm = build_dtm(random_channel(rng, k, k), random_dist(rng, k))
            sol = solve_coupling(dtm)
            pu = uniform_distribution(2)
            rel = []
            for delta in (1e-4, 1e-6):
                approx = local_mi_approx(pu, np.vstack([sol.psi_x, -sol.psi_x]), delta)
                conditionals = np.vstack([
                    perturb_distribution(dtm.p_x, sol.psi_x, delta, 1).probs,
                    perturb_distribution(dtm.p_x, sol.psi_x, delta, -1).probs,
                ])
                exact = exact_mutual_information(pu, conditionals)
                rel.append(abs(approx - exact) / exact)
            assert rel[1] <= 0.1 * rel[0] + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="per value"):
            local_mi_approx(uniform_distribution(3), np.zeros((2, 4)), 1e-4)


class TestScoreTable:
    def test_bsc_hand_value(self):
        dtm = build_dtm(binary_symmetric_channel(0.1), uniform_distribution(2))
        table = score_table(solve_coupling(dtm), dtm)
        np.testing.assert_allclose(table.scores, [0.8, -0.8], atol=1e-12)
        assert table.dropped_outputs.size == 0

    def test_useless_channel_all_zero(self):
        w = Channel(np.tile([[0.3], [0.5], [0.2]], (1, 3)))
        dtm = build_dtm(w, uniform_distribution(3))
        table = score_table(solve_coupling(dtm), dtm)
        np.testing.assert_allclose(table.scores, 0.0, atol=1e-12)

    def test_mean_zero_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n_in = int(rng.integers(2, 6))
            n_out = int(rng.integers(2, 6))
            dtm = build_dtm(random_channel(rng, n_out, n_in), random_dist(rng, n_in))
            table = score_table(solve_coupling(dtm), dtm)
            assert abs(float(table.scores[dtm.output_symbols] @ dtm.p_y.probs)) <= 1e-9

    def test_dropped_outputs_score_zero(self):
        w = Channel([
            [0.5, 0.4, 0.0],
            [0.5, 0.6, 0.2],
            [0.0, 0.0, 0.8],
        ])
        dtm = build_dtm(w, DiscreteDistribution([0.6, 0.4, 0.0]))
        table = score_table(solve_coupling(dtm), dtm)
        assert table.scores.size == 3
        assert table.scores[2] == 0.0
        np.testing.assert_array_equal(table.dropped_outputs, [2])

    def test_foreign_solution_rejected(self):
        dtm2 = build_dtm(binary_symmetric_channel(0.1), uniform_distribution(2))
        dtm3 = build_dtm(identity_channel(3), uniform_distribution(3))
        with pytest.raises(ValueError, match="belong"):
            score_table(solve_coupling(dtm3), dtm2)


class TestSequenceScore:
    def table(self):
        return ScoreTable(np.array([1.0, -1.0]), np.zeros(0, dtype=np.int64))

    def test_empty(self):
        assert sequence_score(self.table(), np.zeros(0, dtype=int)) == 0.0

    def test_zero_table(self):
        table = ScoreTable(np.zeros(3), np.zeros(0, dtype=np.int64))
        assert sequence_score(table, np.array([0, 1, 2, 1])) == 0.0

    def test_arithmetic(self):
        assert sequence_score(self.table(), np.array([0, 0, 1])) == pytest.approx(1.0)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match="unknown output symbol 5"):
            sequence_score(self.table(), np.array([0, 5]))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            sequence_score(self.table(), np.array([0.5, 1.0]))

    def test_sign_agrees_with_exact_llr(self):
        # the score sum is the small-delta linearization of the exact LLR,
        # so their signs should almost always agree
        ch = parametric_channel(0.15)
        dtm = build_dtm(ch, uniform_distribution(4))
        sol = solve_coupling(dtm)
        table = score_table(sol, dtm)
        delta = 1e-4
        qp = perturb_distribution(dtm.p_x, sol.psi_x, delta, 1)
        qm = perturb_distribution(dtm.p_x, sol.psi_x, delta, -1)
        rp = ch.matrix @ qp.probs
        rm = ch.matrix @ qm.probs
        rng = np.random.default_rng(9)
        seqs = rng.choice(4, size=(300, 50), p=dtm.p_y.probs)
        agree = 0
        for seq in seqs:
            llr = float(np.sum(np.log(rp[seq]) - np.log(rm[seq])))
            agree += np.sign(llr) == np.sign(sequence_score(table, seq))
        assert agree >= 297  # >= 99%


class TestTensor:
    def test_identity_tensor(self):
        a = build_dtm(identity_channel(2), uniform_distribution(2))
        t = tensor_dtm(a, a)
        np.testing.assert_allclose(t.matrix, np.eye(4), atol=1e-12)

    def test_singular_values_are_pairwise_products(self):
        rng = np.random.default_rng(10)
        dtm = build_dtm(random_channel(rng, 3, 3), random_dist(rng, 3))
        t = tensor_dtm(dtm, dtm)
        s = np.linalg.svd(dtm.matrix, compute_uv=False)
        expected = np.sort(np.outer(s, s).reshape(-1))[::-1]
        got = np.linalg.svd(t.matrix, compute_uv=False)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_marginal_propagation(self):
        rng = np.random.default_rng(11)
        a = build_dtm(random_channel(rng, 3, 2), random_dist(rng, 2))
        b = build_dtm(random_channel(rng, 2, 3), random_dist(rng, 3))
        t = tensor_dtm(a, b)
        np.testing.assert_allclose(
            t.matrix @ np.sqrt(t.p_x.probs), np.sqrt(t.p_y.probs), atol=1e-10
        )
        np.testing.assert_allclose(
            t.p_x.probs, np.kron(a.p_x.probs, b.p_x.probs), atol=1e-15
        )

    def test_mixed_factors_sigma2(self):
        # the tensor pair's best direction is the better factor's direction
        # paired with the other factor's trivial one
        a = build_dtm(binary_symmetric_channel(0.1), uniform_distribution(2))
        b = build_dtm(binary_symmetric_channel(0.3), uniform_distribution(2))
        t = tensor_dtm(a, b)
        sol = solve_coupling(t)
        assert sol.second_singular_value == pytest.approx(0.8, abs=1e-9)


class TestSolutionValidationAndJson:
    def test_validation(self):
        with pytest.raises(ValueError, match="unit"):
            CouplingSolution(np.array([1.0, 0.5]), 0.5, np.array([2.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="descending"):
            CouplingSolution(np.array([0.5, 1.0]), 0.5, np.array([1.0, 0.0]), np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="norm"):
            CouplingSolution(np.array([1.0, 0.5]), 0.5, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="sign"):
            CouplingSolution(
                np.array([1.0, 0.5]), 0.5, np.array([-SQ2, SQ2]), np.array([0.5, 0.0])
            )

    def test_json_payload(self):
        dtm = build_dtm(binary_symmetric_channel(0.1), uniform_distribution(2))
        sol = solve_coupling(dtm)
        table = score_table(sol, dtm)
        obj = solution_to_dict(sol, table)
        blob = json.loads(json.dumps(obj))
        assert set(blob) == {
            "sigma", "psi_x", "psi_y", "score", "dropped_outputs", "degenerate_subspace",
        }
        assert blob["score"]["0"] == pytest.approx(0.8)
        assert blob["score"]["1"] == pytest.approx(-0.8)
        assert blob["degenerate_subspace"] is False


class TestLocalMiValidation:
    psis = np.array([[SQ2, -SQ2], [-SQ2, SQ2]])

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -1e-4])
    def test_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            local_mi_approx(uniform_distribution(2), self.psis, delta)

    @pytest.mark.parametrize("p_u", [[np.nan, 0.5], [-1.0, 2.0], [0.2, 0.2], [np.inf, 0.0]])
    def test_p_u_must_be_a_distribution(self, p_u):
        with pytest.raises(ValueError, match="probabilit"):
            local_mi_approx(np.array(p_u), self.psis, 1e-4)

    def test_non_finite_directions(self):
        with pytest.raises(ValueError, match="finite"):
            local_mi_approx([0.5, 0.5], [[np.nan, 0.0], [0.0, 0.0]], 1e-4)


class TestPerturbNonFiniteDelta:
    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_rejected_naming_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            perturb_distribution(uniform_distribution(2), np.array([SQ2, -SQ2]), delta)
