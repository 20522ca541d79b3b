"""Unit tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.embeddings.optim import Adam


def quadratic_grad(params):
    """Gradient of 0.5 * ||p||^2 for each parameter."""
    return [p.copy() for p in params]


class TestAdam:
    def test_converges_on_quadratic(self):
        params = [np.array([5.0, -3.0, 2.0])]
        opt = Adam(lr=0.1)
        for _ in range(300):
            opt.step(params, quadratic_grad(params))
        assert np.abs(params[0]).max() < 1e-3

    def test_first_step_size_close_to_lr(self):
        params = [np.array([1.0])]
        Adam(lr=0.01).step(params, [np.array([10.0])])
        # Adam's first update magnitude is ~lr regardless of gradient scale.
        assert abs(1.0 - params[0][0]) == pytest.approx(0.01, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(lr=0.1, beta1=1.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam(lr=-1.0)

    def test_zero_lr_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            Adam(lr=0.0)

    @pytest.mark.parametrize(
        "betas", [(-0.1, 0.999), (0.9, 1.0), (0.9, -0.5)], ids=["beta1<0", "beta2=1", "beta2<0"]
    )
    def test_betas_outside_unit_interval_rejected(self, betas):
        beta1, beta2 = betas
        with pytest.raises(ValueError, match="betas"):
            Adam(lr=0.1, beta1=beta1, beta2=beta2)

    def test_step_opposes_the_gradient_sign(self):
        params = [np.array([0.0, 0.0, 0.0])]
        Adam(lr=0.05).step(params, [np.array([3.0, -0.2, 0.0])])
        assert params[0][0] < 0.0 and params[0][1] > 0.0
        assert params[0][2] == 0.0  # zero gradient, zero moment: no move

    def test_reset_restarts_bias_correction(self):
        """After ``reset`` the next step is again a first step of size ~lr,
        whatever the moments had accumulated before."""
        opt = Adam(lr=0.01)
        params = [np.array([1.0])]
        for _ in range(20):
            opt.step(params, [np.array([1e-3])])
        opt.reset()
        before = params[0][0]
        opt.step(params, [np.array([50.0])])
        assert before - params[0][0] == pytest.approx(0.01, rel=1e-3)
        assert opt._t == 1

    def test_moments_are_kept_per_parameter(self):
        params = [np.zeros((2, 3)), np.zeros(4)]
        opt = Adam(lr=0.1)
        opt.step(params, [np.ones((2, 3)), -np.ones(4)])
        assert opt._m[0].shape == (2, 3) and opt._m[1].shape == (4,)
        assert np.all(opt._m[0] > 0) and np.all(opt._m[1] < 0)

    def test_float32_parameters_stay_float32(self):
        params = [np.ones(3, dtype=np.float32)]
        opt = Adam(lr=0.1)
        for _ in range(3):
            opt.step(params, [np.ones(3, dtype=np.float32)])
        assert params[0].dtype == np.float32
        assert opt._m[0].dtype == np.float32

    def test_reset_clears_state(self):
        opt = Adam(lr=0.1)
        params = [np.array([1.0])]
        opt.step(params, [np.array([1.0])])
        assert opt._t == 1
        opt.reset()
        assert opt._t == 0 and not opt._m and not opt._v

    def test_weight_decay(self):
        params = [np.array([1.0])]
        Adam(lr=0.1, weight_decay=1.0).step(params, [np.array([0.0])])
        assert params[0][0] < 1.0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Adam(lr=0.1).step([np.zeros((2, 2))], [np.zeros((2, 3))])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Adam(lr=0.1).step([np.zeros(2)], [np.zeros(2), np.zeros(2)])

    def test_updates_in_place(self):
        p = np.array([1.0, 1.0])
        params = [p]
        Adam(lr=0.1).step(params, [np.ones(2)])
        assert params[0] is p  # same array object, mutated in place
