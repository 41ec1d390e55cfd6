"""Forward/backward correctness of the sequence classifier.

The forward pass is checked against a scalar pure-Python reimplementation;
the backward pass against central finite differences computed inline (not
via the package's own gradcheck harness, which gets its own test).
"""

import numpy as np
import pytest

from fedfall.errors import NumericalFailureError, ShapeMismatchError
from fedfall.nn import (
    BN_EPS,
    AdamState,
    ModelParams,
    adam_step,
    bce_loss,
    commit_batchnorm_stats,
    init_params,
    manifest_for,
    model_backward,
    model_forward,
    params_to_vector,
    sigmoid,
    vector_to_params,
)

from oracles import masked_sigmoid, scalar_model_eval


def tiny_fixed_params():
    """Hand-pinned 1-unit model; every weight chosen by hand."""
    params = ModelParams(np.zeros(manifest_for(1, 1).dim), 1, 1)
    params.lstm1.wx[:, 0] = [0.1, 0.2, 0.3, 0.4]
    params.lstm1.wh[:, 0] = [0.5, -0.3, 0.2, 0.1]
    params.lstm1.b[:] = [0.0, 1.0, 0.0, 0.0]
    params.lstm2.wx[:, 0] = [-0.2, 0.6, 0.8, -0.5]
    params.lstm2.wh[:, 0] = [0.3, 0.1, -0.4, 0.2]
    params.lstm2.b[:] = [0.1, 1.0, -0.1, 0.0]
    params.bn_gamma = np.array([1.2])
    params.bn_beta = np.array([-0.1])
    params.bn_running_mean = np.array([0.05])
    params.bn_running_var = np.array([0.8])
    params.fc1_w = np.array([[-0.7]])
    params.fc1_b = np.array([0.1])
    params.fc2_w = np.array([[-1.5]])
    params.fc2_b = np.array([0.2])
    return params


class TestForwardOracle:
    def test_single_unit_matches_scalar_reference(self):
        params = tiny_fixed_params()
        window = [[0.5], [-1.0]]
        expected = scalar_model_eval(params, window, BN_EPS)
        probs, _ = model_forward(params, np.array([window]), mode="eval")
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(expected, abs=1e-14)

    def test_single_unit_frozen_value(self):
        # Scalar-reference output for the fixed weights above, frozen so a
        # simultaneous regression in model and reference cannot hide.
        params = tiny_fixed_params()
        probs, _ = model_forward(params, np.array([[[0.5], [-1.0]]]), mode="eval")
        assert probs[0] == pytest.approx(0.4532199962341029, abs=1e-12)

    @pytest.mark.parametrize("hidden,t_len,feats", [(2, 2, 2), (3, 4, 2), (4, 3, 5)])
    def test_random_models_match_scalar_reference(self, hidden, t_len, feats):
        rng = np.random.default_rng(hidden * 100 + t_len * 10 + feats)
        params = init_params(feats, hidden, seed=rng)
        params.bn_running_mean = rng.normal(size=hidden)
        params.bn_running_var = rng.uniform(0.5, 2.0, size=hidden)
        batch = rng.normal(size=(3, t_len, feats))
        probs, _ = model_forward(params, batch, mode="eval")
        for i in range(3):
            expected = scalar_model_eval(params, batch[i].tolist(), BN_EPS)
            assert probs[i] == pytest.approx(expected, abs=1e-12)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(7)
        params = init_params(4, 8, seed=3)
        batch = rng.normal(size=(16, 20, 4)) * 5.0
        probs, _ = model_forward(params, batch, mode="train")
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_all_zero_params_give_half(self):
        params = init_params(3, 4, seed=0)
        from fedfall.nn import params_to_vector, vector_to_params

        zeroed = vector_to_params(np.zeros_like(params_to_vector(params)), 3, 4)
        batch = np.random.default_rng(1).normal(size=(6, 5, 3))
        for mode in ("train", "eval"):
            probs, _ = model_forward(zeroed, batch, mode=mode)
            np.testing.assert_array_equal(probs, 0.5)

    def test_repeated_calls_byte_identical(self):
        rng = np.random.default_rng(42)
        params = init_params(3, 5, seed=42)
        batch = rng.normal(size=(4, 6, 3))
        p1, _ = model_forward(params, batch, mode="train")
        p2, _ = model_forward(params, batch, mode="train")
        assert p1.tobytes() == p2.tobytes()


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        rng = np.random.default_rng(11)
        params = init_params(3, 6, seed=5)
        batch = rng.normal(size=(32, 10, 3))
        _, cache = model_forward(params, batch, mode="train")
        assert np.max(np.abs(cache.bn_xhat.mean(axis=0))) < 1e-5
        assert np.max(np.abs(cache.bn_xhat.var(axis=0) - 1.0)) < 1e-5

    def test_eval_mode_uses_running_stats(self):
        params = init_params(3, 4, seed=2)
        params.bn_running_mean = np.array([1.0, -1.0, 0.5, 0.0])
        params.bn_running_var = np.array([4.0, 1.0, 0.25, 9.0])
        batch = np.random.default_rng(0).normal(size=(5, 6, 3))
        _, cache = model_forward(params, batch, mode="eval")
        h = cache.layer2.h[-1]
        expected = (h - params.bn_running_mean) / np.sqrt(params.bn_running_var + BN_EPS)
        np.testing.assert_allclose(cache.bn_xhat, expected, atol=1e-15)

    def test_running_stats_update_rule(self):
        params = init_params(2, 3, seed=9)
        params.bn_running_mean = np.full(3, 0.2)
        params.bn_running_var = np.full(3, 1.5)
        batch = np.random.default_rng(1).normal(size=(8, 4, 2))
        _, cache = model_forward(params, batch, mode="train")
        h = cache.layer2.h[-1]
        np.testing.assert_allclose(
            cache.new_running_mean, 0.9 * 0.2 + 0.1 * h.mean(axis=0), atol=1e-15
        )
        np.testing.assert_allclose(
            cache.new_running_var, 0.9 * 1.5 + 0.1 * h.var(axis=0), atol=1e-15
        )
        # forward must not mutate the stored stats by itself
        assert np.all(params.bn_running_mean == 0.2)
        commit_batchnorm_stats(params, cache)
        np.testing.assert_array_equal(params.bn_running_mean, cache.new_running_mean)

    def test_eval_rejects_negative_running_variance(self):
        params = init_params(2, 3, seed=0)
        params.bn_running_var = np.array([1.0, -0.5, 1.0])
        batch = np.zeros((2, 4, 2))
        with pytest.raises(NumericalFailureError) as exc:
            model_forward(params, batch, mode="eval")
        assert exc.value.layer == "batchnorm"


class TestBackwardFiniteDifferences:
    def test_all_trainable_coordinates(self):
        # Seed chosen so no ReLU input or clamp boundary sits near zero.
        rng = np.random.default_rng(42)
        params = init_params(2, 2, seed=rng)
        batch = rng.normal(size=(4, 3, 2))
        labels = np.array([1.0, 0.0, 1.0, 0.0])

        probs, cache = model_forward(params, batch, mode="train")
        _, dprobs = bce_loss(probs, labels)
        analytic = model_backward(cache, dprobs, params).vec

        from fedfall.nn import manifest_for

        manifest = manifest_for(2, 2)
        base = params_to_vector(params)
        eps = 1e-5
        worst = 0.0
        for idx in np.flatnonzero(manifest.trainable_mask()):
            hi = base.copy()
            hi[idx] += eps
            lo = base.copy()
            lo[idx] -= eps
            p_hi, _ = model_forward(vector_to_params(hi, 2, 2), batch, mode="train")
            p_lo, _ = model_forward(vector_to_params(lo, 2, 2), batch, mode="train")
            num = (bce_loss(p_hi, labels)[0] - bce_loss(p_lo, labels)[0]) / (2 * eps)
            err = abs(analytic[idx] - num) / max(abs(analytic[idx]), abs(num), 1e-8)
            worst = max(worst, err)
        assert worst < 1e-4, f"max relative error {worst}"

    def test_running_stat_slots_have_zero_gradient(self):
        rng = np.random.default_rng(3)
        params = init_params(2, 3, seed=rng)
        batch = rng.normal(size=(4, 3, 2))
        probs, cache = model_forward(params, batch, mode="train")
        _, dprobs = bce_loss(probs, np.array([1.0, 0, 0, 1]))
        grads = model_backward(cache, dprobs, params)
        assert np.all(grads.bn_running_mean == 0.0)
        assert np.all(grads.bn_running_var == 0.0)

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(4)
        params = init_params(2, 2, seed=rng)
        batch = rng.normal(size=(2, 3, 2))
        _, cache = model_forward(params, batch, mode="train")
        other = params.copy()
        with pytest.raises(ShapeMismatchError):
            model_backward(cache, np.zeros(2), other)

    def test_eval_cache_rejected(self):
        rng = np.random.default_rng(5)
        params = init_params(2, 2, seed=rng)
        batch = rng.normal(size=(2, 3, 2))
        _, cache = model_forward(params, batch, mode="eval")
        with pytest.raises(ShapeMismatchError):
            model_backward(cache, np.zeros(2), params)


class TestInit:
    def test_deterministic(self):
        a = params_to_vector(init_params(5, 8, seed=123))
        b = params_to_vector(init_params(5, 8, seed=123))
        np.testing.assert_array_equal(a, b)
        c = params_to_vector(init_params(5, 8, seed=124))
        assert np.any(a != c)

    def test_forget_gate_bias_is_one(self):
        params = init_params(3, 4, seed=0)
        np.testing.assert_array_equal(params.lstm1.b[4:8], 1.0)
        np.testing.assert_array_equal(params.lstm2.b[4:8], 1.0)

    def test_weight_bounds(self):
        params = init_params(3, 16, seed=1)
        bound = 1.0 / 4.0
        for name, arr in params.tensors():
            if name in ("bn_gamma", "bn_running_var"):
                np.testing.assert_array_equal(arr, 1.0)
            elif name in ("bn_beta", "bn_running_mean"):
                np.testing.assert_array_equal(arr, 0.0)
            elif name.endswith("_b") and name.startswith("lstm"):
                assert np.all(np.abs(arr[:16]) <= bound)
                assert np.all(np.abs(arr[32:]) <= bound)
            else:
                assert np.all(np.abs(arr) <= bound)


class TestValidation:
    def test_feature_mismatch(self):
        params = init_params(4, 2, seed=0)
        with pytest.raises(ShapeMismatchError):
            model_forward(params, np.zeros((1, 5, 3)))

    def test_non_3d_batch(self):
        params = init_params(4, 2, seed=0)
        with pytest.raises(ShapeMismatchError):
            model_forward(params, np.zeros((5, 4)))

    def test_bad_mode(self):
        params = init_params(4, 2, seed=0)
        with pytest.raises(ValueError):
            model_forward(params, np.zeros((1, 5, 4)), mode="test")

    def test_nonfinite_input_detected(self):
        params = init_params(2, 2, seed=0)
        batch = np.zeros((2, 3, 2))
        batch[1, 2, 0] = np.nan
        with pytest.raises(NumericalFailureError):
            model_forward(params, batch)


class TestSigmoid:
    def test_values(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        assert sigmoid(np.array([1000.0]))[0] == 1.0
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(sigmoid(np.array([-1000.0, 1000.0]))).all()

    def test_symmetry(self):
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_tanh_form_matches_masked_reference(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 200_001), np.linspace(-5.0, 5.0, 100_001)])
        np.testing.assert_allclose(sigmoid(x), masked_sigmoid(x), rtol=0, atol=3e-16)

    def test_extremes_exact_and_bounded(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        out = sigmoid(np.array([-1000.0, 1000.0, -np.finfo(float).max, np.finfo(float).max]))
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestEvalTrace:
    def test_eval_keeps_only_hidden_states(self):
        params = init_params(3, 5, seed=8)
        _, cache = model_forward(params, np.random.default_rng(8).normal(size=(6, 7, 3)), mode="eval")
        for trace in (cache.layer1, cache.layer2):
            assert trace.h.shape == (8, 6, 5)
            assert trace.c is None and trace.gates is None and trace.tc is None

    @pytest.mark.parametrize("hidden,batch_size", [(1, 2), (4, 5), (16, 33)])
    def test_eval_hidden_states_equal_train_bit_for_bit(self, hidden, batch_size):
        rng = np.random.default_rng(hidden + batch_size)
        params = init_params(3, hidden, seed=rng)
        batch = rng.normal(size=(batch_size, 9, 3))
        _, train = model_forward(params, batch, mode="train")
        _, evaluated = model_forward(params, batch, mode="eval")
        assert train.layer2.h.tobytes() == evaluated.layer2.h.tobytes()
        assert train.layer1.h.tobytes() == evaluated.layer1.h.tobytes()


class TestComputeDtype:
    """A pass runs in the dtype of ``params.vec``: float64 for the master
    weights and gradient checks, float32 for training and inference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_and_gradients_follow_params_dtype(self, dtype):
        rng = np.random.default_rng(4)
        params = init_params(3, 5, seed=4).astype(dtype)
        batch = rng.normal(size=(6, 7, 3))  # float64 batch: cast once, to dtype
        labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        probs, cache = model_forward(params, batch, mode="train")
        assert probs.dtype == dtype
        for arr in (cache.layer1.h, cache.layer2.gates, cache.layer2.c, cache.bn_xhat,
                    cache.new_running_mean, cache.new_running_var):
            assert arr.dtype == dtype
        _, dprobs = bce_loss(probs, labels)
        grads = model_backward(cache, dprobs, params)
        assert grads.vec.dtype == dtype
        assert model_forward(params, batch, mode="eval")[0].dtype == dtype

    def test_float32_pass_tracks_float64(self):
        # float32 rounding (eps 1.2e-7) through two 9-step layers stays far
        # inside these bounds; a wrong cast or dtype mix would not
        rng = np.random.default_rng(6)
        params = init_params(3, 8, seed=6)
        batch = rng.normal(size=(16, 9, 3))
        labels = (rng.uniform(size=16) < 0.5).astype(np.float64)
        p64, c64 = model_forward(params, batch, mode="train")
        p32, c32 = model_forward(params.astype(np.float32), batch, mode="train")
        np.testing.assert_allclose(p32, p64, rtol=0, atol=1e-5)
        g64 = model_backward(c64, bce_loss(p64, labels)[1], params).vec
        g32 = model_backward(c32, bce_loss(p32, labels)[1], c32.params).vec
        assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64)

    def test_float32_constant_final_state_gives_finite_xhat(self):
        # identical windows give identical final hidden states, so the batch
        # variance is (up to rounding) zero and only BN_EPS keeps it finite
        params = init_params(3, 6, seed=2).astype(np.float32)
        window = np.random.default_rng(2).normal(size=(1, 5, 3))
        batch = np.repeat(window, 8, axis=0)
        probs, cache = model_forward(params, batch, mode="train")
        assert cache.bn_var.dtype == np.float32
        assert np.max(cache.bn_var) < 1e-12
        assert np.all(np.isfinite(cache.bn_xhat))
        grads = model_backward(cache, np.full(8, 0.1), params).vec
        assert np.all(np.isfinite(grads))
