"""Aggregation rules against scalar oracles and pinned examples."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfall.aggregation import (
    ClientUpdate,
    fedavg,
    swa_aggregate,
    trim_count,
    trimmed_mean,
)
from fedfall.config import ExperimentConfig
from fedfall.errors import AggregationInfeasibleError, ConfigError, ShapeMismatchError

from oracles import scalar_swa, scalar_trimmed_mean


def up(cid, params, epochs=1, count=10):
    return ClientUpdate(client_id=cid, params=np.asarray(params, dtype=float), epochs_trained=epochs, sample_count=count)


def untrimmed(mode, alpha=1.0):
    """A config without the trimming stage. With one update the plain mean
    is that update normalized, and ``alpha=1`` passes it through fusion
    unchanged, so a test sees one stage alone."""
    return ExperimentConfig(swa_mode=mode, alpha=alpha, trim_enabled=False)


class TestFednovaNormalize:
    """swa_aggregate's first stage: each update scaled by its epoch count."""

    def test_delta_at_global_is_zero(self):
        g = np.array([1.0, -2.0, 3.0])
        out = swa_aggregate(g, [up("a", g.copy(), epochs=7)], untrimmed("delta"))
        np.testing.assert_array_equal(out, g)

    def test_delta_divides_movement(self):
        g = np.zeros(2)
        out = swa_aggregate(g, [up("a", [2.0, 4.0], epochs=2)], untrimmed("delta"))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_literal_divides_weights(self):
        out = swa_aggregate(np.array([9.0, 9.0]), [up("a", [2.0, 4.0], epochs=2)], untrimmed("literal"))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_zero_epochs_rejected_at_construction(self):
        with pytest.raises(ValueError):
            up("a", [1.0], epochs=0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            swa_aggregate(np.zeros(3), [up("a", [1.0, 2.0])], untrimmed("delta"))

    def test_bad_mode(self):
        # the mode is checked once, where the config is built
        with pytest.raises(ConfigError):
            ExperimentConfig(swa_mode="avg")


class TestTrimCount:
    @pytest.mark.parametrize(
        "n,beta,expected",
        [(10, 0.1, 1), (3, 0.1, 1), (20, 0.1, 2), (40, 0.25, 10), (5, 0.1, 1), (100, 0.1, 10)],
    )
    def test_values(self, n, beta, expected):
        assert trim_count(n, beta) == expected

    def test_floor_below_one_rounds_up(self):
        # 0.1 * 3 = 0.3 floors to 0, which the rule lifts to 1
        assert trim_count(3, 0.1) == 1
        assert trim_count(9, 0.1) == 1

    def test_infeasible_n2(self):
        with pytest.raises(AggregationInfeasibleError) as exc:
            trim_count(2, 0.1)
        assert exc.value.n == 2
        assert exc.value.beta == 0.1
        assert exc.value.m == 1
        msg = str(exc.value)
        assert "2" in msg and "0.1" in msg

    def test_infeasible_n1(self):
        with pytest.raises(AggregationInfeasibleError):
            trim_count(1, 0.1)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            trim_count(0, 0.1)


class TestTrimmedMean:
    """``trimmed_mean`` takes swa_aggregate's float64 (n, dim) matrix; each
    test passes a stacked copy, since the matrix is sorted in place."""

    def test_one_to_ten(self):
        out = trimmed_mean(np.arange(1.0, 11.0).reshape(10, 1), beta=0.1)
        assert out[0] == 5.5

    def test_identical_updates_returned_exactly(self):
        v = np.array([0.1, -2.7, 3.14159, 1e-9])
        out = trimmed_mean(np.stack([v] * 7), beta=0.1)
        np.testing.assert_array_equal(out, v)

    def test_n3_is_median(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rows = rng.normal(size=(3, 6))
            out = trimmed_mean(rows.copy(), beta=0.1)
            np.testing.assert_array_equal(out, np.median(rows, axis=0))

    def test_max_trim_is_median_odd_n(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(5, 4))
        out = trimmed_mean(rows.copy(), beta=0.49)  # m = floor(2.45) = 2, one survivor
        np.testing.assert_array_equal(out, np.median(rows, axis=0))
        rows7 = rng.normal(size=(7, 4))
        out7 = trimmed_mean(rows7.copy(), beta=0.45)  # m = floor(3.15) = 3, one survivor
        np.testing.assert_array_equal(out7, np.median(rows7, axis=0))

    def test_bit_for_bit_against_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 21))
            d = int(rng.integers(1, 51))
            rows = rng.normal(size=(n, d)) * rng.uniform(0.01, 100)
            out = trimmed_mean(rows.copy(), beta=0.1)
            expected = scalar_trimmed_mean(rows.tolist(), trim_count(n, 0.1))
            assert out.tolist() == expected  # exact, not approximate

    def test_corruption_of_m_values_per_coordinate_ignored(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(10, 8))
        base = trimmed_mean(rows.copy(), beta=0.1)
        corrupt = rows.copy()
        # push one already-extreme value per coordinate far out
        for j in range(8):
            corrupt[np.argmax(corrupt[:, j]), j] = 1e12
        out = trimmed_mean(corrupt, beta=0.1)
        np.testing.assert_array_equal(out, base)

    def test_bounded_by_retained_range(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(9, 5))
        out = trimmed_mean(rows.copy(), beta=0.1)
        srt = np.sort(rows, axis=0)
        assert np.all(out >= srt[1]) and np.all(out <= srt[-2])

    @given(st.integers(0, 2**30), st.integers(3, 12), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, seed, n, d):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, d))
        out1 = trimmed_mean(rows.copy(), beta=0.1)
        out2 = trimmed_mean(rows[rng.permutation(n)], beta=0.1)
        np.testing.assert_array_equal(out1, out2)

    def test_infeasible_propagates(self):
        with pytest.raises(AggregationInfeasibleError):
            trimmed_mean(np.zeros((2, 2)), beta=0.1)

    def test_matrix_sorted_in_place(self):
        rows = np.random.default_rng(5).normal(size=(5, 9))
        matrix = rows.copy()
        trimmed_mean(matrix, beta=0.2)
        np.testing.assert_array_equal(matrix, np.sort(rows, axis=0))


class TestEmaFuse:
    """swa_aggregate's last stage: the aggregate folded into the global model."""

    def test_alpha_one_literal_returns_aggregate(self):
        g = np.array([5.0, -5.0])
        agg = np.array([1.0, 2.0])
        out = swa_aggregate(g, [up("a", agg)], untrimmed("literal", 1.0))
        np.testing.assert_array_equal(out, agg)

    def test_pinned_arithmetic(self):
        out = swa_aggregate(np.array([0.0]), [up("a", [10.0])], untrimmed("literal", 0.1))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_delta_zero_is_fixed_point(self):
        g = np.array([3.0, -1.0, 0.5])
        out = swa_aggregate(g, [up("a", g.copy())], untrimmed("delta", 0.1))
        np.testing.assert_array_equal(out, g)

    @given(st.integers(0, 2**30), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_literal_is_convex(self, seed, alpha):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=5)
        agg = rng.normal(size=5)
        out = swa_aggregate(g, [up("a", agg)], untrimmed("literal", alpha))
        lo = np.minimum(g, agg)
        hi = np.maximum(g, agg)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_alpha_zero_rejected(self):
        # alpha is checked once, where the config is built
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha=0.0)

    def test_length_mismatch(self):
        # the aggregate always has the global's length; what fusion still
        # needs is a flat global vector
        with pytest.raises(ShapeMismatchError, match="flat"):
            swa_aggregate(np.zeros((2, 1)), [up("a", np.zeros(2))], untrimmed("delta", 0.5))


class TestSwaAggregate:
    def test_identical_to_global_is_fixed_point(self):
        g = np.array([1.0, -2.0, 0.5])
        updates = [up(f"c{i}", g.copy(), epochs=3) for i in range(5)]
        out = swa_aggregate(g, updates, ExperimentConfig())
        np.testing.assert_array_equal(out, g)

    def test_adversary_equivalent_to_removal(self):
        # with the adversary pushed past the top trim boundary, trimming it
        # equals dropping it and trimming only the other tail
        rng = np.random.default_rng(5)
        g = np.zeros(1)
        honest = sorted(rng.normal(size=4).tolist())
        adv = 1000.0 * (max(honest) + 1.0)
        updates = [up(f"c{i}", [v]) for i, v in enumerate(honest)] + [up("c9", [adv])]
        cfg = ExperimentConfig(beta=0.1, alpha=0.1, swa_mode="delta")
        out = swa_aggregate(g, updates, cfg)
        # oracle: drop adversary, drop the single lowest honest value,
        # average the rest, then fuse
        retained = honest[1:]
        expected = 0.1 * (sum(retained) / len(retained))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_adversary_low_side(self):
        rng = np.random.default_rng(6)
        g = np.zeros(1)
        honest = sorted(rng.normal(size=4).tolist())
        adv = -1000.0 * (abs(min(honest)) + 1.0)
        updates = [up(f"c{i}", [v]) for i, v in enumerate(honest)] + [up("c9", [adv])]
        out = swa_aggregate(g, updates, ExperimentConfig())
        retained = honest[:-1]
        expected = 0.1 * (sum(retained) / len(retained))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_literal_mode_contracts_by_epochs(self):
        # e_i=2 in literal mode halves the weights before fusion
        g = np.array([0.0])
        updates = [up(f"c{i}", [4.0], epochs=2) for i in range(3)]
        out = swa_aggregate(g, updates, ExperimentConfig(swa_mode="literal", alpha=1.0))
        assert out[0] == pytest.approx(2.0, abs=1e-15)

    def test_trim_disabled_uses_all_updates(self):
        g = np.zeros(1)
        updates = [up(f"c{i}", [float(v)]) for i, v in enumerate([1.0, 2.0, 30.0])]
        with_trim = swa_aggregate(g, updates, ExperimentConfig(alpha=1.0))
        without = swa_aggregate(g, updates, ExperimentConfig(alpha=1.0, trim_enabled=False))
        assert with_trim[0] == pytest.approx(2.0, abs=1e-15)  # median survives
        assert without[0] == pytest.approx(11.0, abs=1e-15)

    def test_collapse_to_fedavg(self):
        # mu-free, trim-free, alpha=1, single epoch, equal counts: the
        # literal rule degenerates to the weighted mean
        rng = np.random.default_rng(7)
        updates = [up(f"c{i}", rng.normal(size=20), epochs=1, count=13) for i in range(4)]
        g = rng.normal(size=20)
        cfg = ExperimentConfig(alpha=1.0, swa_mode="literal", trim_enabled=False)
        swa = swa_aggregate(g, updates, cfg)
        avg = fedavg(updates)
        assert np.max(np.abs(swa - avg)) < 1e-12

    def test_wrong_length_update_rejected(self):
        g = np.zeros(3)
        updates = [up("a", np.zeros(3)), up("b", np.zeros(2)), up("c", np.zeros(3))]
        with pytest.raises(ShapeMismatchError, match="'b'"):
            swa_aggregate(g, updates, ExperimentConfig())

    def test_nonfinite_update_rejected(self):
        g = np.zeros(2)
        updates = [up("a", [0.0, 1.0]), up("b", [np.nan, 1.0]), up("c", [0.0, 1.0])]
        with pytest.raises(ValueError, match="'b'"):
            swa_aggregate(g, updates, ExperimentConfig())

    @pytest.mark.parametrize("trim", [True, False])
    def test_overflowing_normalized_delta_rejected(self, trim):
        # each update is finite, but w - g overflows to inf
        g = np.array([-1.7e308])
        updates = [up(f"c{i}", [1.7e308]) for i in range(3)]
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            swa_aggregate(g, updates, ExperimentConfig(trim_enabled=trim))

    @pytest.mark.parametrize("trim", [True, False])
    def test_overflow_names_the_client(self, trim):
        # only B's normalized delta, 1.7e308 - (-1.7e308), leaves the float range
        g = np.array([-1.7e308])
        updates = [up("A", [1.0]), up("B", [1.7e308]), up("C", [2.0])]
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^normalized update 'B' contains non-finite values$"
        ):
            swa_aggregate(g, updates, ExperimentConfig(trim_enabled=trim))

    @pytest.mark.parametrize("trim", [True, False])
    @pytest.mark.parametrize("mode", ["delta", "literal"])
    def test_bit_for_bit_against_scalar_oracle(self, mode, trim):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            d = int(rng.integers(1, 21))
            cfg = ExperimentConfig(
                swa_mode=mode,
                trim_enabled=trim,
                alpha=float(rng.uniform(0.01, 1.0)),
                beta=float(rng.uniform(0.0, 0.5)),
            )
            g = rng.normal(size=d) * rng.uniform(0.01, 100)
            rows = g + rng.normal(size=(n, d)) * rng.uniform(0.01, 100)
            epochs = rng.integers(1, 6, size=n)
            # ids sort differently from their creation order past c9
            updates = [up(f"c{i}", rows[i], epochs=int(epochs[i])) for i in rng.permutation(n)]
            out = swa_aggregate(g, updates, cfg)
            expected = scalar_swa(
                g.tolist(),
                [(u.client_id, u.params.tolist(), u.epochs_trained) for u in updates],
                trim_count(n, cfg.beta) if trim else None,
                cfg.alpha,
                mode,
            )
            assert out.tolist() == expected  # exact, not approximate

    @pytest.mark.parametrize("trim", [True, False])
    @pytest.mark.parametrize("mode", ["delta", "literal"])
    def test_inputs_left_as_they_were(self, mode, trim):
        rng = np.random.default_rng(12)
        g = rng.normal(size=9)
        updates = [up(f"c{i}", g + rng.normal(size=9), epochs=2) for i in (3, 0, 4, 1, 2)]
        before = g.copy(), [u.params.copy() for u in updates]
        swa_aggregate(g, updates, ExperimentConfig(swa_mode=mode, trim_enabled=trim))
        assert np.array_equal(g, before[0])
        assert all(np.array_equal(u.params, p) for u, p in zip(updates, before[1]))

    @pytest.mark.parametrize("trim", [True, False])
    @pytest.mark.parametrize("mode", ["delta", "literal"])
    def test_peak_memory_is_one_client_matrix(self, mode, trim):
        # the normalized updates live in one (n, dim) matrix that the trim
        # sorts in place, beside the accumulator and at most one more vector
        n, dim = 5, 200_000
        rng = np.random.default_rng(13)
        g = rng.normal(size=dim)
        updates = [up(f"c{i}", g + rng.normal(size=dim), epochs=3) for i in range(n)]
        cfg = ExperimentConfig(swa_mode=mode, trim_enabled=trim)
        tracemalloc.start()
        try:
            swa_aggregate(g, updates, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (n + 2) * dim * 8 + 64 * 1024

    def test_mode_flows_through(self):
        g = np.ones(2)
        updates = [up(f"c{i}", [3.0, 3.0], epochs=1) for i in range(3)]
        delta = swa_aggregate(g, updates, ExperimentConfig(swa_mode="delta"))
        literal = swa_aggregate(g, updates, ExperimentConfig(swa_mode="literal"))
        # delta: 1 + 0.1*(3-1) = 1.2; literal: 0.9*1 + 0.1*3 = 1.2
        np.testing.assert_allclose(delta, 1.2, atol=1e-15)
        np.testing.assert_allclose(literal, 1.2, atol=1e-15)


class TestFedavg:
    def test_single_client(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(fedavg([up("a", v, count=5)]), v)
        # bit for bit on any vector: the lone weight is 1, not n * w / n
        v = np.random.default_rng(0).normal(size=1000)
        assert fedavg([up("a", v, count=3)]).tobytes() == v.tobytes()

    def test_equal_weights(self):
        out = fedavg([up("a", [0.0], count=10), up("b", [2.0], count=10)])
        assert out[0] == 1.0

    def test_weighted(self):
        out = fedavg([up("a", [0.0], count=1), up("b", [4.0], count=3)])
        assert out[0] == 3.0

    def test_zero_total_samples(self):
        with pytest.raises(ValueError):
            fedavg([up("a", [1.0], count=0), up("b", [2.0], count=0)])

    def test_equal_weights_match_untrimmed_mean_exactly_on_integers(self):
        rng = np.random.default_rng(8)
        rows = rng.integers(-50, 50, size=(6, 9)).astype(float)
        updates = [up(f"c{i}", rows[i], count=4) for i in range(6)]
        avg = fedavg(updates)
        untrimmed = scalar_trimmed_mean(rows.tolist(), 0)
        np.testing.assert_array_equal(avg, untrimmed)

    def test_equal_weights_match_untrimmed_mean_on_floats(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(5, 30))
        updates = [up(f"c{i}", rows[i], count=7) for i in range(5)]
        np.testing.assert_allclose(fedavg(updates), scalar_trimmed_mean(rows.tolist(), 0), rtol=1e-12)
        # equal counts are weights of 1: the plain client-order mean, bit for bit
        g = np.zeros(30)
        plain = swa_aggregate(g, updates, untrimmed("literal"))
        assert fedavg(updates).tobytes() == plain.tobytes()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        updates = [up(f"c{i}", rng.normal(size=6), count=int(rng.integers(1, 30))) for i in range(7)]
        out1 = fedavg(updates)
        out2 = fedavg(list(reversed(updates)))
        np.testing.assert_array_equal(out1, out2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_weighted_overflow_rejected(self):
        # A's weighted row, 3 * 1e308, is past the float range
        updates = [up("A", [1e308], count=3), up("B", [1.0], count=1)]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            fedavg(updates)
