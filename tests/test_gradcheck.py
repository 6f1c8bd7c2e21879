"""The gradient gate catches what it claims to check."""

import numpy as np

from dmha import autodiff as ad
from dmha import gradcheck as gc


def test_whole_model_rows_catch_a_wrong_time_softmax_backward(monkeypatch):
    """Scaling the pooling's time-softmax backward by 1.01 must fail the
    model.pool.u row: the whole-model input leaves more than one time step
    after the encoder, so the time attention has a gradient to check."""
    softmax = ad.softmax

    def skewed(z, axis=-1):
        y = softmax(z, axis)
        if y.ndim != 3:  # only the (B, T, K) time softmax
            return y
        return ad._make(y.data, (y,), lambda g: (1.01 * g,))

    monkeypatch.setattr(ad, "softmax", skewed)
    assert dict(gc.full_model_check(2))["model.pool.u"] > ad.TOLERANCE


def test_gate_checks_relu_in_place_on_a_fresh_intermediate():
    """The relu_ row differentiates through relu_ applied to t * 1.0, a
    fresh intermediate, and passes; the leaf t is left as it was."""
    rows = {name: (x, f) for name, x, f, _ in gc._layer_checks(0)}
    x, f = rows["relu_"]
    before = x.data.copy()
    f(x)
    np.testing.assert_array_equal(x.data, before)
    assert ad.grad_check(f, x) <= ad.TOLERANCE
