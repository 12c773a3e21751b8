import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctda import stats
from ctda.stats import (
    Channel,
    DiscreteDistribution,
    binary_symmetric_channel,
    channel_from_dict,
    channel_output,
    channel_to_dict,
    distribution_from_dict,
    distribution_to_dict,
    empirical_distribution,
    exact_mutual_information,
    identity_channel,
    kl_divergence,
    load_channel,
    load_distribution,
    parametric_channel,
    save_channel,
    save_distribution,
    smoothed_distribution,
    uniform_distribution,
)

from oracles import empirical_distribution_three_pass, mi_of_mixture


INTEGER_DTYPES = ["int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64"]


def random_distribution(rng, size):
    p = rng.uniform(0.0, 1.0, size=size)
    p /= p.sum()
    return DiscreteDistribution(p)


class TestDiscreteDistribution:
    def test_valid(self):
        d = DiscreteDistribution([0.25, 0.75])
        assert d.size == 2
        np.testing.assert_array_equal(d.support(), [0, 1])

    def test_zero_entries_allowed(self):
        d = DiscreteDistribution([0.0, 1.0])
        np.testing.assert_array_equal(d.support(), [1])

    @pytest.mark.parametrize(
        "probs",
        [
            [1.0],                 # single symbol
            [0.6, 0.6],            # sum > 1
            [0.5, 0.4999999],      # sum off beyond 1e-12
            [-0.1, 1.1],           # negative
            [np.nan, 1.0],         # non-finite
            [[0.5, 0.5]],          # wrong rank
        ],
    )
    def test_invalid(self, probs):
        with pytest.raises(ValueError):
            DiscreteDistribution(probs)

    def test_sum_tolerance_boundary(self):
        DiscreteDistribution([0.5, 0.5 + 5e-13])  # inside 1e-12: fine

    def test_uniform(self):
        np.testing.assert_allclose(uniform_distribution(4).probs, 0.25)
        with pytest.raises(ValueError):
            uniform_distribution(1)


class TestChannel:
    def test_column_stochastic_enforced(self):
        with pytest.raises(ValueError, match="column"):
            Channel([[0.9, 0.3], [0.2, 0.7]])

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            Channel([[1.2, 0.0], [-0.2, 1.0]])

    def test_min_size(self):
        with pytest.raises(ValueError):
            Channel(np.ones((1, 1)))

    def test_column_is_distribution(self):
        ch = binary_symmetric_channel(0.1)
        np.testing.assert_allclose(ch.column(0).probs, [0.9, 0.1])
        with pytest.raises(ValueError):
            ch.column(2)

    def test_identity(self):
        np.testing.assert_array_equal(identity_channel(3).matrix, np.eye(3))

    def test_rectangular_allowed(self):
        ch = Channel([[0.5, 0.2], [0.25, 0.3], [0.25, 0.5]])
        assert (ch.n_outputs, ch.n_inputs) == (3, 2)


class TestParametricChannel:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(parametric_channel(0.0).matrix, np.eye(4))

    @pytest.mark.parametrize("e", np.linspace(0.0, 0.25, 11))
    def test_columns_sum_to_one(self, e):
        w = parametric_channel(float(e)).matrix
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(w >= 0) and np.all(w <= 1)

    def test_known_entries(self):
        w = parametric_channel(0.1).matrix
        np.testing.assert_allclose(w[0], [0.8, 0.2, 0.1, 0.05])
        np.testing.assert_allclose(w[2], [0.1, 0.0, 0.6, 0.025])

    @pytest.mark.parametrize("e", [-0.01, 0.2500001, 1.0])
    def test_out_of_range(self, e):
        with pytest.raises(ValueError, match="out of range"):
            parametric_channel(e)

    def test_boundary_valid(self):
        parametric_channel(0.25)


class TestEmpiricalDistribution:
    def test_counts(self):
        d = empirical_distribution([0, 1, 1, 2], 4)
        np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25, 0.0])

    def test_degenerate_mass(self):
        d = empirical_distribution([3, 3, 3, 3], 4)
        np.testing.assert_array_equal(d.probs, [0, 0, 0, 1])

    def test_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            empirical_distribution([], 4)

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            empirical_distribution([0, 4], 4)
        with pytest.raises(ValueError, match="outside alphabet"):
            empirical_distribution([-1, 0], 4)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            empirical_distribution([0.5, 1.0], 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_bincount_matches_the_three_pass_rule(self, data):
        dtype = np.dtype(data.draw(st.sampled_from(INTEGER_DTYPES)))
        size = data.draw(st.integers(2, 6))
        info = np.iinfo(dtype)
        # near the alphabet, and far from it: numpy's bincount overflows its
        # length at 2**63 - 1 and writes outside its result
        edges = [v for v in (info.min, info.max, 2**40, 2**63 - 1) if info.min <= v <= info.max]
        near = st.integers(max(info.min, -3), size + 3)
        values = data.draw(st.lists(st.one_of(near, near, st.sampled_from(edges)),
                                    min_size=1, max_size=40))
        samples = np.array(values, dtype=dtype)
        try:
            expected = empirical_distribution_three_pass(samples, size)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = empirical_distribution(samples, size).probs
        except ValueError as exc:
            got = str(exc)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_counts_in_blocks_match_the_three_pass_rule(self, data):
        # blocks of 3 symbols: each is widened and counted on its own, and
        # the first symbol outside the alphabet is named from any block
        dtype = np.dtype(data.draw(st.sampled_from(INTEGER_DTYPES)))
        size = data.draw(st.integers(2, 6))
        info = np.iinfo(dtype)
        near = st.integers(max(info.min, -2), size + 2)
        values = data.draw(st.lists(st.one_of(near, st.integers(0, size - 1)),
                                    min_size=1, max_size=20))
        samples = np.array(values, dtype=dtype)
        try:
            expected = empirical_distribution_three_pass(samples, size).tobytes()
        except ValueError as exc:
            expected = str(exc)
        with mock.patch.object(stats, "_BLOCK_SYMBOLS", 3):
            try:
                got = empirical_distribution(samples, size).probs.tobytes()
            except ValueError as exc:
                got = str(exc)
        assert got == expected

    def test_narrow_samples_are_never_widened_whole(self):
        # a million uint8 symbols: bincount's intp copy of them is 8 MB
        samples = np.random.default_rng(25).integers(0, 4, 10**6).astype(np.uint8)
        empirical_distribution(samples[:10], 4)
        tracemalloc.start()
        try:
            empirical_distribution(samples, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * stats._BLOCK_SYMBOLS

    def test_smoothed_strictly_positive(self):
        d = smoothed_distribution([0, 0, 0], 4)
        assert np.all(d.probs > 0)

    def test_smoothing_mass_shrinks_with_n(self):
        # each empty cell gets about 1/(n^2 K): negligible at n=100
        d = smoothed_distribution([0] * 100, 4)
        assert d.probs[0] > 0.999
        np.testing.assert_allclose(d.probs.sum(), 1.0, atol=1e-15)


class TestBlocks:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_blocks_concatenate_to_the_whole_widened_array(self, data):
        # the one rule by which a corpus is widened to intp, a block at a time
        dtype = np.dtype(data.draw(st.sampled_from([np.uint8, np.uint64, np.int64])))
        n, width = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 6))
        top = min(np.iinfo(dtype).max, 2**40)
        rows = np.array(data.draw(st.lists(st.integers(0, top), min_size=n * width,
                                           max_size=n * width)), dtype).reshape(n, width)
        shape = data.draw(st.sampled_from([(), (width,), (n, 1), (n, width)]))
        size = math.prod(shape)
        offset = np.array(data.draw(st.lists(st.integers(0, 2**20), min_size=size,
                                             max_size=size)), np.intp).reshape(shape)
        if not shape:
            offset = int(offset)  # a scalar, as the callers pass it
        symbols = data.draw(st.integers(1, 3 * width))  # below one row's width too
        with mock.patch.object(stats, "_BLOCK_SYMBOLS", symbols):
            blocks = [(lo, block.copy()) for lo, block in stats._blocks(rows, offset)]
        step = max(1, symbols // width)
        assert [lo for lo, _ in blocks] == list(range(0, n, step))
        assert all(block.dtype == np.intp and len(block) <= step for _, block in blocks)
        whole = np.concatenate([b for _, b in blocks] or [np.empty((0, width), np.intp)])
        assert whole.tobytes() == (rows.astype(np.intp) + offset).tobytes()


class TestCounts:
    """``stats._counts``, the one corpus count, against one whole bincount."""

    @staticmethod
    def offset_and_size(kind, n, width, k):
        if kind == "scalar":
            return 2, k + 2
        if kind == "row":  # row i's symbols in bins i*k .. i*k+k-1
            return k * np.arange(n)[:, None], n * k
        return k * np.arange(width), width * k  # column j's in j*k .. j*k+k-1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_counts_match_one_bincount(self, data):
        dtype = np.dtype(data.draw(st.sampled_from(INTEGER_DTYPES)))
        n, width, k = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 6)), 3
        rows = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n * width,
                                           max_size=n * width)), dtype).reshape(n, width)
        kind = data.draw(st.sampled_from(["scalar", "row", "column"]))
        offset, size = self.offset_and_size(kind, n, width, k)
        start = np.array(data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size)),
                         np.intp)
        expected = start + np.bincount((rows.astype(np.intp) + offset).ravel(), minlength=size)
        budget = data.draw(st.sampled_from([3, stats._BLOCK_SYMBOLS]))  # 3: rows past it too
        with mock.patch.object(stats, "_BLOCK_SYMBOLS", budget):
            got = stats._counts(rows, start.copy(), offset)
        assert got.dtype == np.intp and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["scalar", "row", "column"])
    def test_rows_longer_than_the_budget(self, kind):
        n, width, k = 3, stats._BLOCK_SYMBOLS + 5, 4
        rows = np.random.default_rng(28).integers(0, k, (n, width), dtype=np.uint8)
        offset, size = self.offset_and_size(kind, n, width, k)
        expected = np.bincount((rows.astype(np.intp) + offset).ravel(), minlength=size)
        got = stats._counts(rows, np.zeros(size, np.intp), offset)
        assert got.tobytes() == expected.tobytes()

    def test_counts_into_bins_of_any_shape(self):
        rows = np.array([[0, 2, 2], [1, 1, 0]], np.uint8)
        got = stats._counts(rows, np.zeros((2, 3), np.intp), 3 * np.arange(2)[:, None])
        np.testing.assert_array_equal(got, [[1, 0, 2], [1, 2, 0]])


class TestChannelOutput:
    def test_parametric_uniform_input(self):
        # hand-computed marginal of the 4-symbol channel at e=0.1
        out = channel_output(parametric_channel(0.1), uniform_distribution(4))
        np.testing.assert_allclose(out.probs, [0.2875, 0.25625, 0.18125, 0.275])

    def test_identity_passthrough(self):
        d = DiscreteDistribution([0.3, 0.7])
        np.testing.assert_allclose(channel_output(identity_channel(2), d).probs, d.probs)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            channel_output(parametric_channel(0.1), uniform_distribution(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_output_is_distribution(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        w = rng.uniform(0, 1, size=(int(rng.integers(2, 6)), k))
        w /= w.sum(axis=0)
        out = channel_output(Channel(w), random_distribution(rng, k))
        assert abs(out.probs.sum() - 1) < 1e-12


class TestKlDivergence:
    def test_zero_on_equal(self):
        d = DiscreteDistribution([0.3, 0.7])
        assert kl_divergence(d, d) == 0.0

    def test_known_value(self):
        p = DiscreteDistribution([1.0, 0.0])
        q = DiscreteDistribution([0.5, 0.5])
        np.testing.assert_allclose(kl_divergence(p, q), np.log(2))

    def test_infinite_when_unsupported(self):
        p = DiscreteDistribution([0.5, 0.5])
        q = DiscreteDistribution([1.0, 0.0])
        assert kl_divergence(p, q) == np.inf


class TestExactMutualInformation:
    def test_independent_is_zero(self):
        d = DiscreteDistribution([0.3, 0.7])
        assert exact_mutual_information(np.array([0.5, 0.5]), [d, d]) == 0.0

    def test_deterministic_binary(self):
        conds = [DiscreteDistribution([1.0, 0.0]), DiscreteDistribution([0.0, 1.0])]
        np.testing.assert_allclose(
            exact_mutual_information(np.array([0.5, 0.5]), conds), np.log(2)
        )

    def test_small_perturbation_value(self):
        # frozen from the joint-table oracle
        conds = [
            DiscreteDistribution([0.505, 0.495]),
            DiscreteDistribution([0.495, 0.505]),
        ]
        value = exact_mutual_information(np.array([0.5, 0.5]), conds)
        oracle = mi_of_mixture([0.5, 0.5], [[0.505, 0.495], [0.495, 0.505]])
        np.testing.assert_allclose(value, oracle, rtol=1e-12)
        np.testing.assert_allclose(value, 5.000083e-05, rtol=1e-5)

    def test_matches_joint_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            nu, nx = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            pu = rng.uniform(0.1, 1, nu)
            pu /= pu.sum()
            conds = [random_distribution(rng, nx) for _ in range(nu)]
            ours = exact_mutual_information(pu, conds)
            ref = mi_of_mixture(pu, [c.probs for c in conds])
            np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-14)
            assert ours >= 0

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            conds = [random_distribution(rng, 3) for _ in range(4)]
            pu = np.full(4, 0.25)
            assert exact_mutual_information(pu, conds) <= np.log(3) + 1e-12

    def test_shape_errors(self):
        d2 = DiscreteDistribution([0.5, 0.5])
        d3 = DiscreteDistribution([0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            exact_mutual_information(np.array([0.5, 0.5]), [d2, d3])
        with pytest.raises(ValueError):
            exact_mutual_information(np.array([1.0]), [d2, d3])


class TestSerialization:
    def test_channel_round_trip(self, tmp_path):
        ch = parametric_channel(0.07)
        path = tmp_path / "channel.json"
        save_channel(ch, path)
        again = load_channel(path)
        np.testing.assert_array_equal(again.matrix, ch.matrix)
        obj = json.loads(path.read_text())
        assert obj["outputs"] == 4 and obj["inputs"] == 4
        assert obj["matrix"][0][0] == ch.matrix[0, 0]

    def test_distribution_round_trip(self, tmp_path):
        d = DiscreteDistribution([0.125, 0.875])
        path = tmp_path / "dist.json"
        save_distribution(d, path)
        np.testing.assert_array_equal(load_distribution(path).probs, d.probs)

    def test_malformed_channel_dict(self):
        with pytest.raises(ValueError):
            channel_from_dict({"matrix": [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(ValueError):
            channel_from_dict(
                {"outputs": 3, "inputs": 2, "matrix": [[0.5, 0.5], [0.5, 0.5]]}
            )

    def test_malformed_distribution_dict(self):
        with pytest.raises(ValueError):
            distribution_from_dict({})

    def test_dict_round_trip(self):
        ch = binary_symmetric_channel(0.25)
        np.testing.assert_array_equal(
            channel_from_dict(channel_to_dict(ch)).matrix, ch.matrix
        )
        d = DiscreteDistribution([0.4, 0.6])
        np.testing.assert_array_equal(
            distribution_from_dict(distribution_to_dict(d)).probs, d.probs
        )
