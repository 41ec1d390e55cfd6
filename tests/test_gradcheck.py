"""The finite-difference harness itself."""

import numpy as np
import pytest

from fedfall.nn import finite_difference_grad, gradient_check, init_params


class TestFiniteDifferenceGrad:
    def test_quadratic(self):
        # f(x) = sum(a * x^2) has exact central differences
        a = np.array([1.0, -2.0, 3.0])

        def f(x):
            return float(a @ (x**2))

        x = np.array([0.5, 1.5, -2.0])
        num = finite_difference_grad(f, x, np.array([0, 1, 2]))
        np.testing.assert_allclose(num, 2 * a * x, rtol=1e-9)

    def test_subset_of_indices(self):
        def f(x):
            return float(np.sin(x).sum())

        x = np.linspace(0, 1, 10)
        num = finite_difference_grad(f, x, np.array([3, 7]))
        np.testing.assert_allclose(num, np.cos(x[[3, 7]]), rtol=1e-8)

    def test_near_exact_on_linear_model_with_bce(self):
        # cross-entropy over a sigmoid of a linear map is smooth enough for
        # central differences to agree with the analytic gradient to 1e-7
        from fedfall.nn import bce_loss, sigmoid

        rng = np.random.default_rng(0)
        feats = rng.normal(size=(6, 3))
        labels = (rng.uniform(size=6) > 0.5).astype(float)

        def loss_at(w):
            return bce_loss(sigmoid(feats @ w), labels)[0]

        w0 = rng.normal(size=3) * 0.5
        probs = sigmoid(feats @ w0)
        _, dprobs = bce_loss(probs, labels)
        analytic = feats.T @ (dprobs * probs * (1 - probs))
        numeric = finite_difference_grad(loss_at, w0, np.arange(3))
        for a, n in zip(analytic, numeric):
            assert abs(a - n) / max(abs(a), abs(n), 1e-8) < 1e-7


class TestGradientCheck:
    def test_passes_on_correct_gradients(self):
        rng = np.random.default_rng(10)
        params = init_params(3, 4, seed=rng)
        batch = rng.normal(size=(5, 6, 3))
        labels = (rng.uniform(size=5) > 0.5).astype(float)
        report = gradient_check(params, batch, labels, n_coords=40, tol=1e-4, rng=rng)
        assert not report.failures
        assert report.max_rel_err < 1e-4
        assert report.n_checked == 40

    def test_checks_all_when_few_coordinates(self):
        rng = np.random.default_rng(11)
        params = init_params(1, 1, seed=rng)
        batch = rng.normal(size=(3, 4, 1))
        labels = np.array([1.0, 0.0, 1.0])
        report = gradient_check(params, batch, labels, n_coords=10_000, tol=1e-4, rng=rng)
        # every trainable coordinate of the 1-unit model: 32 slots minus
        # the two running statistics
        assert report.n_checked == 30
        assert not report.failures

    def test_zero_batch_zero_labels_finite(self):
        params = init_params(2, 3, seed=1)
        report = gradient_check(
            params, np.zeros((2, 4, 2)), np.zeros(2), n_coords=20, tol=1e-4,
            rng=np.random.default_rng(0),
        )
        assert np.isfinite(report.max_rel_err)

    def test_detects_broken_gradient(self, monkeypatch):
        import fedfall.nn.gradcheck as gc

        rng = np.random.default_rng(12)
        params = init_params(2, 3, seed=rng)
        batch = rng.normal(size=(4, 5, 2))
        labels = np.array([1.0, 0.0, 0.0, 1.0])

        real_backward = gc.model_backward

        def corrupted(cache, dprobs, p):
            grads = real_backward(cache, dprobs, p)
            grads.fc1_w *= 2.0
            return grads

        monkeypatch.setattr(gc, "model_backward", corrupted)
        report = gradient_check(params, batch, labels, n_coords=10_000, tol=1e-4, rng=rng)
        assert report.failures
        assert report.max_rel_err > 1e-2
        assert len(report.failures) > 0
        coord, analytic, numeric, err = report.failures[0]
        assert err >= 1e-4
