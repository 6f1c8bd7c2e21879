"""The gradient gate catches what it claims to check."""

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

