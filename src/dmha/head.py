"""Four-FC classifier head with AM-Softmax loss and the embedding tap.

FC1 -> BN -> ReLU -> FC2 -> BN -> ReLU (embedding taken here) -> FC3
(linear, no BN/activation) -> cosine classification layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor

NORM_EPS = 1e-12


@dataclass(frozen=True)
class HeadConfig:
    in_dim: int
    hidden: int = 400
    num_speakers: int = 2
    s: float = 30.0
    m: float = 0.4

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0 < self.s < np.inf:
            raise ValueError("scale s must be finite and > 0")
        if not (0 <= self.m < 1):
            raise ValueError("margin m must be in [0, 1)")
        if self.num_speakers < 2:
            raise ValueError("need at least 2 speakers")


def init_params(config: HeadConfig, param_rng):
    """He-normal FC weights, zero biases; unit-ish class weights."""
    params = {}
    states = {}
    dims = [(config.in_dim, config.hidden),
            (config.hidden, config.hidden),
            (config.hidden, config.hidden)]
    for i, (din, dout) in enumerate(dims, start=1):
        rng = param_rng(f"head.fc{i}.w")
        params[f"head.fc{i}.w"] = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / din), size=(din, dout)),
            requires_grad=True)
        params[f"head.fc{i}.b"] = Tensor(np.zeros(dout), requires_grad=True)
    for i in (1, 2):
        params[f"head.bn{i}.gamma"] = Tensor(np.ones(config.hidden),
                                             requires_grad=True)
        params[f"head.bn{i}.beta"] = Tensor(np.zeros(config.hidden),
                                            requires_grad=True)
        states[f"head.bn{i}"] = BatchNormState.create(config.hidden)
    rng = param_rng("head.cls.w")
    params["head.cls.w"] = Tensor(
        rng.normal(0.0, 1.0 / np.sqrt(config.hidden),
                   size=(config.num_speakers, config.hidden)),
        requires_grad=True)
    return params, states


def _l2_normalize(x: Tensor, axis: int) -> Tensor:
    norm_sq = (x * x).sum(axis=axis, keepdims=True)
    return x * ad.power(norm_sq + NORM_EPS, -0.5)


def head_forward(c, params: dict, states: dict, config: HeadConfig,
                 training: bool):
    """(B, in_dim) pooled vectors -> (embedding (B, hidden), cos_logits
    (B, num_speakers)).

    cos_logits[b, j] is the cosine between the FC3 output and class weight
    w_j, both L2-normalized."""
    x = c if isinstance(c, Tensor) else Tensor(c)
    if x.ndim != 2 or x.shape[1] != config.in_dim:
        raise ValueError(
            f"head input must be (B, {config.in_dim}), got {x.shape}")
    for i in (1, 2):  # FC -> BN -> ReLU; the second block's output is emb
        x = ad.matmul(x, params[f"head.fc{i}.w"]) + params[f"head.fc{i}.b"]
        x = ad.relu(ad.batchnorm(x, params[f"head.bn{i}.gamma"],
                                 params[f"head.bn{i}.beta"],
                                 states[f"head.bn{i}"], training))
    emb = x
    z = ad.matmul(emb, params["head.fc3.w"]) + params["head.fc3.b"]
    zn = _l2_normalize(z, axis=1)
    wn = _l2_normalize(params["head.cls.w"], axis=1)
    cos_logits = ad.matmul(zn, ad.transpose(wn))
    return emb, cos_logits


def am_softmax_loss(cos_logits, labels, s: float, m: float) -> Tensor:
    """Additive-margin softmax loss, averaged over the batch.

    loss_b = -log( exp(s*(cos_y - m)) / (exp(s*(cos_y - m))
                                         + sum_{j != y} exp(s*cos_j)) )
    """
    z = cos_logits if isinstance(cos_logits, Tensor) else Tensor(cos_logits)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    B, C = z.shape
    if labels.shape[0] != B:
        raise ValueError(f"{labels.shape[0]} labels for batch of {B}")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"label out of range [0, {C})")
    onehot = np.zeros((B, C))
    onehot[np.arange(B), labels] = 1.0
    logits = ad.scale(z - m * onehot, s)
    # log-sum-exp with a detached max for stability
    zmax = logits.data.max(axis=1, keepdims=True)
    lse = ad.log(ad.exp(logits - zmax).sum(axis=1, keepdims=True)) + zmax
    target = (logits * onehot).sum(axis=1, keepdims=True)
    return (lse - target).mean()
