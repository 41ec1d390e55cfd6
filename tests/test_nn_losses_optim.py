"""Loss functions, proximal penalty, and the Adam update."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfall.errors import ShapeMismatchError
from fedfall.nn import AdamState, adam_step, bce_loss
from fedfall.nn.losses import CLAMP

from oracles import fedprox_penalty, scalar_adam, scalar_bce


class TestBce:
    def test_half_probability(self):
        loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_perfect_and_clamped(self):
        # saturated wrong prediction hits the clamp, not infinity
        loss, grad = bce_loss(np.array([1.0]), np.array([0.0]))
        assert loss == pytest.approx(-math.log(CLAMP), rel=1e-9)
        assert grad[0] == 0.0
        loss, _ = bce_loss(np.array([0.0]), np.array([1.0]))
        assert loss == pytest.approx(-math.log(CLAMP), rel=1e-9)

    def test_mean_over_batch_matches_reference(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.01, 0.99, size=17)
        labels = (rng.uniform(size=17) > 0.5).astype(float)
        loss, _ = bce_loss(probs, labels)
        assert loss == pytest.approx(scalar_bce(probs.tolist(), labels.tolist()), abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(0.05, 0.95, size=9)
        labels = (rng.uniform(size=9) > 0.5).astype(float)
        _, grad = bce_loss(probs, labels)
        eps = 1e-7
        for i in range(9):
            hi = probs.copy()
            hi[i] += eps
            lo = probs.copy()
            lo[i] -= eps
            num = (bce_loss(hi, labels)[0] - bce_loss(lo, labels)[0]) / (2 * eps)
            assert grad[i] == pytest.approx(num, rel=1e-5)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_finite_and_nonnegative(self, probs, label_seed):
        probs = np.array(probs)
        labels = (np.random.default_rng(label_seed).uniform(size=len(probs)) > 0.5).astype(float)
        loss, grad = bce_loss(probs, labels)
        assert math.isfinite(loss) and loss >= 0.0
        assert np.all(np.isfinite(grad))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            bce_loss(np.zeros(3), np.zeros(4))

    def test_two_sample_batch_mean(self):
        loss, _ = bce_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(-math.log(0.9), rel=1e-12)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            bce_loss(np.array([0.5, 0.5]), np.array([1.0, 2.0]))


class TestFedprox:
    def test_pinned_example(self):
        # unit difference on two coordinates at the default strength
        val, grad = fedprox_penalty(np.array([1.0, 1.0]), np.array([0.0, 0.0]), mu=0.01)
        assert val == pytest.approx(0.02, abs=1e-15)
        np.testing.assert_allclose(grad, [0.02, 0.02], atol=1e-15)

    def test_quadratic_form(self):
        val, grad = fedprox_penalty(np.array([1.0, 2.0]), np.array([0.0, 0.0]), mu=0.01)
        assert val == pytest.approx(0.01 * 5.0, abs=1e-15)
        np.testing.assert_allclose(grad, [0.02, 0.04], atol=1e-15)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=8)
        g = rng.normal(size=8)
        assert fedprox_penalty(w, g, 0.01)[0] == pytest.approx(
            fedprox_penalty(2 * g - w, g, 0.01)[0], rel=1e-12
        )

    def test_zero_at_anchor(self):
        w = np.random.default_rng(0).normal(size=50)
        val, grad = fedprox_penalty(w, w, mu=0.01)
        assert val == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_zero_mu_disables(self):
        rng = np.random.default_rng(1)
        val, grad = fedprox_penalty(rng.normal(size=10), rng.normal(size=10), mu=0.0)
        assert val == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    @given(st.integers(0, 2**30), st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_gradient_is_derivative(self, seed, mu):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=6)
        anchor = rng.normal(size=6)
        val, grad = fedprox_penalty(w, anchor, mu)
        assert val >= 0.0
        eps = 1e-6
        for i in range(6):
            hi = w.copy()
            hi[i] += eps
            lo = w.copy()
            lo[i] -= eps
            num = (fedprox_penalty(hi, anchor, mu)[0] - fedprox_penalty(lo, anchor, mu)[0]) / (
                2 * eps
            )
            assert grad[i] == pytest.approx(num, rel=1e-4, abs=1e-9)


class TestAdam:
    def test_first_step_closed_form(self):
        state = AdamState(dim=1, lr=0.001)
        w1 = adam_step(state, np.array([0.0]), np.array([2.0]))
        # bias correction makes the first step lr * g / (|g| + eps)
        assert w1[0] == pytest.approx(-0.001 * 2.0 / (2.0 + 1e-8), abs=1e-18)
        assert state.t == 1

    def test_multi_step_matches_reference(self):
        grads = [0.5, -1.0, 2.0, 0.1, -0.3]
        state = AdamState(dim=1, lr=0.01)
        w = np.array([1.0])
        for g in grads:
            w = adam_step(state, w, np.array([g]))
        assert w[0] == pytest.approx(scalar_adam(1.0, grads, lr=0.01), abs=1e-15)

    def test_coordinates_independent(self):
        state = AdamState(dim=3, lr=0.001)
        w = adam_step(state, np.zeros(3), np.array([1.0, 0.0, -1.0]))
        assert w[1] == 0.0
        assert w[0] == pytest.approx(-w[2], abs=1e-18)

    def test_constant_gradient_steps_are_lr_sized(self):
        # with a constant gradient the bias corrections cancel exactly, so
        # every step moves by lr * g / (|g| + eps)
        state = AdamState(dim=2, lr=0.001)
        w = np.array([5.0, -5.0])
        g = np.array([3.0, -0.25])
        for _ in range(10):
            w_old = w.copy()
            adam_step(state, w, g)  # in place
            np.testing.assert_allclose(
                w_old - w, 0.001 * g / (np.abs(g) + 1e-8), rtol=1e-12
            )

    def test_dim_mismatch(self):
        state = AdamState(dim=4, lr=0.001)
        with pytest.raises(ShapeMismatchError):
            adam_step(state, np.zeros(4), np.zeros(5))

    def test_zero_gradients_leave_weights_unchanged(self):
        state = AdamState(dim=3, lr=0.001)
        w = np.array([1.0, -2.0, 0.5])
        out = adam_step(state, w, np.zeros(3))
        assert out is w  # updated in place
        np.testing.assert_array_equal(out, [1.0, -2.0, 0.5])
        assert state.t == 1

    @staticmethod
    def _stepped_state():
        state = AdamState(dim=2, lr=0.001)
        adam_step(state, np.zeros(2), np.array([0.5, -1.0]))
        return state, (state.t, state.m.copy(), state.v.copy())

    @staticmethod
    def _assert_unchanged(state, before, weights):
        t, m, v = before
        assert state.t == t
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        np.testing.assert_array_equal(weights, [1.0, 2.0])

    def test_nonfinite_gradient_rejected(self):
        from fedfall.errors import NumericalFailureError

        state, before = self._stepped_state()
        w = np.array([1.0, 2.0])
        with pytest.raises(NumericalFailureError):
            adam_step(state, w, np.array([1.0, np.nan]))
        self._assert_unchanged(state, before, w)

    def test_nonpositive_lr_rejected(self):
        for lr in (0.0, -0.1, float("nan")):
            state, before = self._stepped_state()
            state.lr = lr
            w = np.array([1.0, 2.0])
            with pytest.raises(ValueError):
                adam_step(state, w, np.ones(2))
            self._assert_unchanged(state, before, w)

    def test_nan_lr_on_state_rejected(self):
        state = AdamState(dim=2, lr=float("nan"))
        w = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            adam_step(state, w, np.ones(2))
        self._assert_unchanged(state, (0, np.zeros(2), np.zeros(2)), w)

    def test_non_float64_weights_rejected(self):
        state = AdamState(dim=2, lr=0.001)
        with pytest.raises(TypeError):
            adam_step(state, [0.0, 0.0], np.ones(2))
        assert state.t == 0
