"""Utterance-level attention pooling: one code path for three kinds.

Every kind runs K per-head softmax attentions over time, head j on the
contiguous slice [j*D/K, (j+1)*D/K) with a 1/sqrt(d_h) logit scale.
"attention" (vanilla self attention) is the K=1 case, "mha" concatenates
the K head contexts, and "dmha" (double MHA) adds a second, unscaled self
attention over the K head context vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

POOLING_KINDS = ("attention", "mha", "dmha")


@dataclass
class PoolingParams:
    """Trainable attention vectors: u (dim D, head-partitioned) and, for
    double MHA, u_prime (dim D/K)."""

    u: Tensor
    num_heads: int
    u_prime: Tensor | None = None


def pooled_dim(kind: str, dim: int, num_heads: int) -> int:
    """Output dimension of a pooling kind; the one place that checks the
    kind, the head count (1 for attention) and that it divides dim."""
    if kind not in POOLING_KINDS:
        raise ValueError(f"unknown pooling kind {kind!r}; "
                         f"choose from {POOLING_KINDS}")
    if kind == "attention" and num_heads != 1:
        raise ValueError("attention pooling is single-head")
    if num_heads < 1 or dim % num_heads != 0:
        raise ValueError(f"head count {num_heads} does not divide dim {dim}")
    return dim // num_heads if kind == "dmha" else dim


def init_params(dim: int, num_heads: int, kind: str, param_rng) -> PoolingParams:
    """Zero-mean normal init with std 1/sqrt(d_h) keeps initial logits O(1)."""
    pooled_dim(kind, dim, num_heads)
    dh = dim // num_heads
    std = 1.0 / np.sqrt(dh)
    u = Tensor(param_rng("pool.u").normal(0.0, std, size=dim),
               requires_grad=True)
    up = None
    if kind == "dmha":
        up = Tensor(param_rng("pool.u_prime").normal(0.0, std, size=dh),
                    requires_grad=True)
    return PoolingParams(u=u, num_heads=num_heads, u_prime=up)


def head_split(h, num_heads: int) -> Tensor:
    """(.., T, D) -> (.., T, K, D/K); head j gets the contiguous slice
    [j*D/K, (j+1)*D/K) of each time step."""
    h = h if isinstance(h, Tensor) else Tensor(h)
    d = h.shape[-1]
    return h.reshape(h.shape[:-1] + (num_heads, d // num_heads))


def pool(h, params: PoolingParams, kind: str):
    """Pool h, (B, T, D), with the given kind; (T, D) is a batch of one.

    Returns (context (.., pooled_dim), weights (.., T, K),
    head_weights (.., K) for dmha, else None).
    """
    h = h if isinstance(h, Tensor) else Tensor(h)
    if h.ndim == 2:
        return tuple(t if t is None else t[0]
                     for t in pool(h.reshape((1,) + h.shape), params, kind))
    B, T, D = h.shape
    K = params.num_heads
    if D != params.u.shape[0]:
        raise ValueError(
            f"sequence dim {D} != parameter dim {params.u.shape[0]}")
    pooled_dim(kind, D, K)
    dh = D // K
    if kind == "dmha" and params.u_prime is None:
        raise ValueError("double MHA pooling requires u_prime")
    hs = head_split(h, K)                                    # (B,T,K,dh)
    u = params.u.reshape((1, 1, K, dh))
    logits = ad.scale((hs * u).sum(axis=3), 1.0 / np.sqrt(dh))  # (B,T,K)
    w = ad.softmax(logits, axis=1)                           # (B,T,K)
    c = (hs * w.reshape((B, T, K, 1))).sum(axis=1)           # (B,K,dh)
    wp = None
    if kind == "dmha":
        up = params.u_prime.reshape((1, 1, dh))
        wp = ad.softmax((c * up).sum(axis=2), axis=1)        # (B,K), unscaled
        c = (c * wp.reshape((B, K, 1))).sum(axis=1)          # (B,dh)
    else:
        c = c.reshape((B, D))
    return c, w, wp


def self_attention_pool(h, params: PoolingParams):
    """Vanilla self attention, the K=1 case of pool: (c, weights)."""
    return pool(h, params, "attention")[:2]


def mha_pool(h, params: PoolingParams):
    """Self multi-head attention pooling: (c (dim D), weights (T, K))."""
    return pool(h, params, "mha")[:2]


def double_mha_pool(h, params: PoolingParams):
    """Double MHA: (c (dim D/K), weights (T, K), head_weights (K,))."""
    return pool(h, params, "dmha")


def format_weights(w: np.ndarray, head_weights: np.ndarray | None) -> str:
    """Attention-weight dump: one line per time step (K columns), then for
    double MHA one line of K head weights."""
    lines = [" ".join(f"{v:.9f}" for v in row) for row in np.atleast_2d(w)]
    if head_weights is not None:
        lines.append(" ".join(f"{v:.9f}" for v in head_weights))
    return "\n".join(lines) + "\n"
