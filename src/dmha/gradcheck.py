"""Finite-difference verification harness for every differentiable layer.

Used by the `gradcheck` CLI subcommand and the acceptance suite: each entry
runs central finite differences against the analytic gradients on several
seeds and reports the max relative error.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import autodiff as ad
from . import pooling as pl
from .autodiff import TOLERANCE, Tensor, grad_check
from .encoder import EncoderConfig
from .head import am_softmax_loss
from .model import ModelConfig, SpeakerModel

grad_check_sampled = grad_check  # samples coordinates given max_coords

# FD coordinates sampled per tensor too large to check whole: each model
# parameter and the tiled conv rows
MAX_COORDS_PER_TENSOR = 40


def _layer_checks(seed: int):
    """One (name, input, loss, max_coords) row per layer check; max_coords
    None checks every coordinate."""
    rng = np.random.default_rng(seed)
    checks = []

    a = Tensor(rng.standard_normal((3, 4)))
    b = rng.standard_normal((4, 2))
    checks.append(("matmul", a,
                   lambda t: (ad.matmul(t, Tensor(b)) ** 2).sum(), None))

    x = Tensor(rng.standard_normal((2, 5, 6)))
    w = rng.standard_normal((3, 2, 3, 3))
    checks.append(("conv2d_same.x", x,
                   lambda t: (ad.conv2d_same(t, Tensor(w)) ** 2).sum(), None))
    xc = rng.standard_normal((2, 5, 6))
    checks.append(("conv2d_same.w", Tensor(w),
                   lambda t: (ad.conv2d_same(Tensor(xc), t) ** 2).sum(), None))

    # the maxpool gradient is defined only away from ties: spread the
    # values so no 2x2 window has a near-tie
    mp = rng.standard_normal((2, 8, 8))
    mp = Tensor(mp + rng.permutation(mp.size).reshape(mp.shape) * 1e-3)
    checks.append(("maxpool2x2", mp,
                   lambda t: (ad.maxpool2x2(t) ** 2).sum(), None))

    z = Tensor(rng.standard_normal((4, 5)))
    tgt = rng.standard_normal((4, 5))
    checks.append(("softmax", z,
                   lambda t: ((ad.softmax(t, axis=1) - tgt) ** 2).sum(), None))

    r = Tensor(rng.standard_normal(10) + 0.05)  # keep away from the kink
    checks.append(("relu", r, lambda t: (ad.relu(t) ** 2).sum(), None))
    # in place on a fresh intermediate; r again, so no rows after it move
    checks.append(("relu_", r, lambda t: (ad.relu_(t * 1.0) ** 2).sum(),
                   None))

    xb = Tensor(rng.standard_normal((6, 4)))
    gamma = Tensor(rng.uniform(0.5, 1.5, 4))
    beta = Tensor(rng.standard_normal(4))
    tgt_b = rng.standard_normal((6, 4))

    def bn_loss(xs, g):
        st = ad.BatchNormState.create(4)
        y = ad.batchnorm(xs, g, beta, st, training=True)
        return ((y - tgt_b) ** 2).sum()

    checks.append(("batchnorm.x", xb, lambda t: bn_loss(t, gamma), None))
    checks.append(("batchnorm.gamma", Tensor(rng.uniform(0.5, 1.5, 4)),
                   lambda t: bn_loss(Tensor(xb.data), t), None))

    # the three poolings wrt h, and double MHA wrt u and u_prime
    T, D, K = 5, 8, 2
    pool_in = {"h": rng.standard_normal((T, D)), "u": rng.standard_normal(D),
               "u_prime": rng.standard_normal(D // K)}
    tgt_d = rng.standard_normal(D)
    tgt_k = rng.standard_normal(D // K)

    def pool_loss(t, kind, wrt):
        v = {k: Tensor(arr) for k, arr in pool_in.items()} | {wrt: t}
        p = pl.PoolingParams(v["u"], 1 if kind == "attention" else K,
                             v["u_prime"])
        c = pl.pool(v["h"], p, kind)[0]
        return ((c - (tgt_k if kind == "dmha" else tgt_d)) ** 2).sum()

    for name, kind, wrt in (("pool.attention", "attention", "h"),
                            ("pool.mha", "mha", "h"),
                            ("pool.dmha", "dmha", "h"),
                            ("pool.dmha.u", "dmha", "u"),
                            ("pool.dmha.u_prime", "dmha", "u_prime")):
        checks.append((name, Tensor(pool_in[wrt].copy()),
                       partial(pool_loss, kind=kind, wrt=wrt), None))

    # moderate scale keeps all class posteriors above the FD noise floor;
    # the s=30 path is identical code and is covered by an absolute check
    # in the head tests
    cos = Tensor(rng.uniform(-0.9, 0.9, size=(4, 6)))
    labels = rng.integers(0, 6, size=4)
    checks.append(("am_softmax", cos,
                   lambda t: am_softmax_loss(t, labels, s=5.0, m=0.2), None))

    # batched conv: the rows share one batch-folded buffer, so the input
    # gradient must not leak across them
    xq = Tensor(rng.standard_normal((2, 2, 5, 7)))
    wq = Tensor(rng.standard_normal((3, 2, 3, 3)))
    bq = Tensor(rng.standard_normal(3))
    checks.append(("conv2d_same.batch", xq,
                   lambda t: (ad.conv2d_same(t, wq, bq) ** 2).sum(), None))

    # conv on a batch whose folded buffer spans 2.5 column tiles, with the
    # second row starting mid-tile: too large for every coordinate, so
    # these rows sample; their inputs come from a fresh stream
    rng = np.random.default_rng(seed)
    Wp = 15
    Hp = -(-5 * ad.TILE // (4 * Wp))
    xt = rng.standard_normal((2, 2, Hp - 2, Wp - 2))
    wt = rng.standard_normal((3, 2, 3, 3))
    bt = Tensor(rng.standard_normal(3))
    checks.append(("conv2d_same.tiled", Tensor(xt),
                   lambda t: (ad.conv2d_same(t, Tensor(wt), bt) ** 2).sum(),
                   MAX_COORDS_PER_TENSOR))
    checks.append(("conv2d_same.tiled.w", Tensor(wt),
                   lambda t: (ad.conv2d_same(Tensor(xt), t, bt) ** 2).sum(),
                   MAX_COORDS_PER_TENSOR))
    return checks


def full_model_check(seed: int) -> list[tuple[str, float]]:
    """Parameter-wise FD check of the whole tiny network."""
    rng = np.random.default_rng(seed)
    model = SpeakerModel(ModelConfig(
        encoder=EncoderConfig(base_channels=1, n_mels=16),
        pooling_kind="dmha", num_heads=2, hidden=4, num_speakers=3,
        s=5.0, m=0.2), seed=seed)
    # fresh init sits exactly on the relu kink (zero biases + relu-dead
    # patches give pre-activations of exactly 0); nudge off it so the
    # differentiability precondition holds
    for p in model.params.values():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape)
    # 48 frames leave T=3 after the encoder's 16x downsampling: with T=1 the
    # time softmax is constant and pool.u has no gradient to check
    mel = rng.standard_normal((2, 48, 16))
    labels = np.array([0, 1])

    results = []
    for name, param in model.params.items():
        def loss_fn(t, _name=name):
            saved = model.params[_name]
            model.params[_name] = t
            try:
                out = model.forward(mel, labels=labels, training=True)
            finally:
                model.params[_name] = saved
            return out["loss"]

        err = grad_check(loss_fn, param, max_coords=MAX_COORDS_PER_TENSOR,
                         rng=rng, denom_floor=1e-5)
        results.append((f"model.{name}", err))
    return results


def run_gradcheck(seeds=(0, 1, 2, 3, 4)) -> list[tuple[str, float]]:
    """Max relative FD error per layer and model parameter over all seeds."""
    worst: dict[str, float] = {}
    for seed in seeds:
        layer = [(name, grad_check(f, x, max_coords=n,
                                   rng=np.random.default_rng(seed)))
                 for name, x, f, n in _layer_checks(seed)]
        for name, err in layer + full_model_check(seed):
            worst[name] = max(worst.get(name, 0.0), err)
    return sorted(worst.items())


def format_table(results) -> str:
    width = max(len(n) for n, _ in results)
    lines = []
    for name, err in results:
        status = "pass" if err <= TOLERANCE else "FAIL"
        lines.append(f"{name:<{width}}  {err:12.3e}  {status}")
    return "\n".join(lines) + "\n"
