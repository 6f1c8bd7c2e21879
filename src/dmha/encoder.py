"""VGG-style convolutional front-end: 4 x (conv-conv-maxpool) then flatten.

Maps an N x n_mels spectrogram to a T x D sequence where T is N after four
floor-halvings and D = M * D' (final channels times final frequency extent).

Each block runs relu(conv1), then relu(maxpool2x2(conv2)): the second ReLU
comes after the pool. That is the paper's conv-ReLU-conv-ReLU-maxpool, value
for value, since max(max(a, b), 0) = max(max(a, 0), max(b, 0)) (NaN in,
NaN out either way), and the gradient routes to the same corner; but the
ReLU runs on a quarter of the pixels, and the graph keeps no full-resolution
post-ReLU copy of the conv2 output.

Both ReLUs run in place (autodiff.relu_), so in training a block keeps
three arrays for its backward: the conv1 output, rectified, which conv2
reads; the conv2 output, which the maxpool reads; and the pooled map,
rectified, which the next block reads. The pre-ReLU copies are never
made. Overwriting is safe because no backward reads the value it
overwrites (see encode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class EncoderConfig:
    base_channels: int = 128   # block plan 1->c, c->2c, 2c->4c, 4c->8c
    n_mels: int = 80

    def __post_init__(self):
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        # four 2x2 maxpools halve the frequency axis four times
        if self.n_mels % 16 != 0:
            raise ValueError(f"n_mels must be divisible by 16, got {self.n_mels}")
        if self.n_mels < 16:
            raise ValueError(f"n_mels must be >= 16, got {self.n_mels}")

    @property
    def channel_plan(self):
        c = self.base_channels
        return ((1, c), (c, 2 * c), (2 * c, 4 * c), (4 * c, 8 * c))

    @property
    def final_channels(self) -> int:
        return 8 * self.base_channels

    @property
    def final_freq(self) -> int:
        return self.n_mels // 16


def output_dim(config: EncoderConfig) -> int:
    """Hidden state dimension D = M * D'."""
    return config.final_channels * config.final_freq


def output_frames(n: int) -> int:
    """Time extent after the four 2x2 maxpools (floor at each stage)."""
    return n // 16


def init_params(config: EncoderConfig, param_rng) -> dict:
    """He-normal conv weights, zero biases. param_rng(name) -> Generator."""
    params = {}
    for b, (cin, cout) in enumerate(config.channel_plan, start=1):
        for k, ci in ((1, cin), (2, cout)):
            name = f"enc.b{b}.conv{k}"
            fan_in = ci * 9
            rng = param_rng(name + ".w")
            params[name + ".w"] = Tensor(
                rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, ci, 3, 3)),
                requires_grad=True)
            params[name + ".b"] = Tensor(np.zeros(cout), requires_grad=True)
    return params


def encode(mel, params: dict, config: EncoderConfig) -> Tensor:
    """Forward the encoder: mel (B, N, n_mels) -> h (B, T, D); an unbatched
    mel (N, n_mels) runs as a batch of one and gives (T, D). Flatten is
    channel-major (channel index varies slowest). The layers run in mel's
    dtype (float32 or float64; the float64 parameters are cast per layer)
    and h is float64.
    """
    x = mel if isinstance(mel, Tensor) else Tensor(mel)
    if x.ndim == 2:
        return encode(x.reshape((1,) + x.shape), params, config)[0]
    B, N, F = x.shape
    if F != config.n_mels:
        raise ValueError(f"expected {config.n_mels} mel bins, got {F}")
    if N < 16:
        raise ValueError(
            f"utterance too short for 16x downsampling: {N} frames < 16")
    x = x.reshape((B, 1, N, F))
    for b in range(1, 5):
        conv1, conv2 = ((params[f"enc.b{b}.conv{k}.w"],
                         params[f"enc.b{b}.conv{k}.b"]) for k in (1, 2))
        # both ReLUs overwrite their input. conv2d_same's backward reads its
        # input and weights, never its output. maxpool2x2's backward routes
        # each window's gradient to the corner equal to its saved max; a
        # window whose max was negative now reads 0, matches no corner and
        # routes nothing, where the ReLU's backward would have zeroed it
        x = ad.relu_(ad.conv2d_same(x, *conv1))
        x = ad.relu_(ad.maxpool2x2(ad.conv2d_same(x, *conv2)))
    # (B, M, T, D') -> (B, T, M, D') -> (B, T, M*D'), channel-major
    x = x.transpose(0, 2, 1, 3)
    h = ad.cast(x.reshape((B, x.shape[1], x.shape[2] * x.shape[3])),
                np.float64)
    return h
