"""Attention poolings: hand oracles, exact equivalences, set-average
properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmha import pooling as pl
from dmha.autodiff import Tensor, grad_check


def _params(u, num_heads, u_prime=None):
    return pl.PoolingParams(u=Tensor(np.asarray(u, dtype=np.float64)),
                            num_heads=num_heads,
                            u_prime=None if u_prime is None else
                            Tensor(np.asarray(u_prime, dtype=np.float64)))


def _oracle_dmha(h, u, up, K):
    """Independent brute-force evaluation of the two-stage pooling."""
    h = np.asarray(h, dtype=np.float64)
    dh = h.shape[1] // K
    cs, ws = [], []
    for j in range(K):
        hj = h[:, j * dh:(j + 1) * dh]
        logits = hj @ u[j * dh:(j + 1) * dh] / np.sqrt(dh)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        ws.append(w)
        cs.append((w[:, None] * hj).sum(axis=0))
    cs = np.array(cs)
    hl = cs @ up  # second stage: no sqrt scale
    e = np.exp(hl - hl.max())
    wp = e / e.sum()
    return (wp[:, None] * cs).sum(axis=0), np.array(ws).T, wp, cs


# ---- head_split / pooled_dim ---------------------------------------------


def test_head_split_examples():
    out = pl.head_split(np.array([[1.0, 2.0, 3.0, 4.0]]), 2)
    np.testing.assert_array_equal(out.data, [[[1.0, 2.0], [3.0, 4.0]]])
    out1 = pl.head_split(np.array([[1.0, 2.0, 3.0, 4.0]]), 1)
    np.testing.assert_array_equal(out1.data, [[[1.0, 2.0, 3.0, 4.0]]])
    assert pl.head_split(np.zeros((3, 5120)), 32).shape == (3, 32, 160)


def test_pooled_dim_table_grid():
    for k in (8, 16, 32):
        assert pl.pooled_dim("mha", 5120, k) == 5120
    assert pl.pooled_dim("dmha", 5120, 8) == 640
    assert pl.pooled_dim("dmha", 5120, 16) == 320
    assert pl.pooled_dim("dmha", 5120, 32) == 160
    assert pl.pooled_dim("attention", 5120, 1) == 5120


def test_pooled_dim_rejects_nondivisor():
    with pytest.raises(ValueError):
        pl.pooled_dim("dmha", 10, 3)


# ---- mha / attention --------------------------------------------------------


def test_constant_sequence_returns_it(rng):
    v = rng.standard_normal(6)
    h = np.tile(v, (5, 1))
    p = _params(rng.standard_normal(6), 3)
    c, w = pl.mha_pool(h, p)
    np.testing.assert_allclose(c.data, v, atol=1e-12)
    np.testing.assert_allclose(w.data, np.full((5, 3), 0.2), atol=1e-12)


def test_single_frame_returns_it(rng):
    h = rng.standard_normal((1, 6))
    p = _params(rng.standard_normal(6), 2)
    c, w = pl.mha_pool(h, p)
    np.testing.assert_array_equal(c.data, h[0])
    np.testing.assert_array_equal(w.data, np.ones((1, 2)))


def test_mha_hand_case():
    # T=2, D=2, K=1, h=[[1,0],[0,1]], u=[1,0]: logits [1/sqrt(2), 0]
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = _params([1.0, 0.0], 1)
    c, w = pl.mha_pool(h, p)
    logits = np.array([1.0 / np.sqrt(2.0), 0.0])
    e = np.exp(logits - logits.max())
    expect_w = e / e.sum()
    np.testing.assert_allclose(w.data[:, 0], expect_w, atol=1e-15)
    np.testing.assert_allclose(c.data, expect_w @ h, atol=1e-15)


def test_attention_pool_random_oracle(rng):
    h = rng.standard_normal((4, 6))
    u = rng.standard_normal(6)
    c, w = pl.self_attention_pool(h, _params(u, 1))
    logits = h @ u / np.sqrt(6)
    e = np.exp(logits - logits.max())
    ew = e / e.sum()
    np.testing.assert_allclose(c.data, ew @ h, atol=1e-12)


def test_attention_pool_requires_single_head(rng):
    with pytest.raises(ValueError):
        pl.self_attention_pool(rng.standard_normal((3, 4)),
                               _params(rng.standard_normal(4), 2))


# ---- double MHA -------------------------------------------------------------


def test_dmha_frozen_oracle_case():
    """T=2, K=2, D=4 with small integer inputs; expectations were computed
    once by brute-force evaluation of the two softmax stages."""
    h = [[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]]
    p = _params([1.0, -1.0, 1.0, -1.0], 2, u_prime=[1.0, 2.0])
    c, w, wp = pl.double_mha_pool(np.array(h), p)
    np.testing.assert_allclose(
        w.data, np.array([[0.19557031749304313, 0.19557031749304313],
                          [0.8044296825069569, 0.8044296825069569]]),
        atol=1e-14)
    np.testing.assert_allclose(
        wp.data, [0.9747451094889907, 0.02525489051100932], atol=1e-14)
    np.testing.assert_allclose(
        c.data, [3.3825356943208127, 2.773676329306899], atol=1e-14)


def test_dmha_random_vs_inline_oracle(rng):
    for _ in range(5):
        T, K, dh = rng.integers(2, 7), int(rng.choice([1, 2, 4])), 3
        h = rng.standard_normal((T, K * dh))
        u = rng.standard_normal(K * dh)
        up = rng.standard_normal(dh)
        c, w, wp = pl.double_mha_pool(h, _params(u, K, up))
        oc, ow, owp, _ = _oracle_dmha(h, u, up, K)
        np.testing.assert_allclose(c.data, oc, atol=1e-12)
        np.testing.assert_allclose(w.data, ow, atol=1e-12)
        np.testing.assert_allclose(wp.data, owp, atol=1e-12)


def test_dmha_identical_heads_collapse(rng):
    v = rng.standard_normal(3)
    # both head slices of every frame equal v => all c_i = v => c = v
    h = np.tile(np.concatenate([v, v]), (4, 1))
    p = _params(np.concatenate([rng.standard_normal(3)] * 2), 2,
                u_prime=rng.standard_normal(3))
    c, _, wp = pl.double_mha_pool(h, p)
    np.testing.assert_allclose(c.data, v, atol=1e-12)
    np.testing.assert_allclose(wp.data, [0.5, 0.5], atol=1e-12)


def test_dmha_requires_u_prime(rng):
    with pytest.raises(ValueError):
        pl.double_mha_pool(rng.standard_normal((3, 4)),
                           _params(rng.standard_normal(4), 2))


# ---- exact equivalences -----------------------------------------------------


def test_k1_equivalences_are_bitwise(rng):
    h = rng.standard_normal((6, 8))
    u = rng.standard_normal(8)
    up = rng.standard_normal(8)
    c_att, w_att = pl.self_attention_pool(h, _params(u, 1))
    c_mha, w_mha = pl.mha_pool(h, _params(u, 1))
    c_d, w_d, wp = pl.double_mha_pool(h, _params(u, 1, u_prime=up))
    np.testing.assert_array_equal(c_att.data, c_mha.data)
    np.testing.assert_array_equal(c_att.data, c_d.data)
    np.testing.assert_array_equal(w_att.data, w_d.data)
    np.testing.assert_array_equal(wp.data, [1.0])


def test_mha_decomposes_into_per_head_attention(rng):
    T, K, dh = 5, 4, 3
    h = rng.standard_normal((T, K * dh))
    u = rng.standard_normal(K * dh)
    c, _ = pl.mha_pool(h, _params(u, K))
    # per-head single-head attention with the 1/sqrt(dh) scale
    parts = []
    for j in range(K):
        hj = h[:, j * dh:(j + 1) * dh]
        cj, _ = pl.self_attention_pool(hj, _params(u[j * dh:(j + 1) * dh], 1))
        parts.append(cj.data)
    np.testing.assert_allclose(c.data, np.concatenate(parts), atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((6, 8))
    u = rng.standard_normal(8)
    up = rng.standard_normal(4)
    perm = rng.permutation(6)
    for kind, p in (("attention", _params(u, 1)),
                    ("mha", _params(u, 2)),
                    ("dmha", _params(u, 2, u_prime=up))):
        c1, _, _ = pl.pool(h, p, kind)
        c2, _, _ = pl.pool(h[perm], p, kind)
        np.testing.assert_allclose(c1.data, c2.data, atol=1e-12)


def test_convexity_and_weight_reconstruction(rng):
    T, K, dh = 7, 3, 4
    h = rng.standard_normal((T, K * dh))
    u = rng.standard_normal(K * dh)
    up = rng.standard_normal(dh)
    c, w, wp = pl.double_mha_pool(h, _params(u, K, up))
    oc, ow, owp, c_heads = _oracle_dmha(h, u, up, K)
    # columns of w and wp are probability vectors
    np.testing.assert_allclose(w.data.sum(axis=0), np.ones(K), atol=1e-9)
    assert (w.data >= 0).all() and (wp.data >= 0).all()
    np.testing.assert_allclose(wp.data.sum(), 1.0, atol=1e-9)
    # each c_j inside the coordinatewise hull of its head slice
    for j in range(K):
        hj = h[:, j * dh:(j + 1) * dh]
        assert (c_heads[j] >= hj.min(axis=0) - 1e-12).all()
        assert (c_heads[j] <= hj.max(axis=0) + 1e-12).all()
    # c inside the hull of the head contexts, and reconstructible from wp
    assert (c.data >= c_heads.min(axis=0) - 1e-12).all()
    assert (c.data <= c_heads.max(axis=0) + 1e-12).all()
    np.testing.assert_allclose(c.data, wp.data @ c_heads, atol=1e-12)


def test_logit_scale_is_present(rng):
    """Regression guard: doubling u must change weights exactly as the
    scaled oracle predicts, and differ from an unscaled-logit oracle."""
    h = rng.standard_normal((5, 4))
    u = rng.standard_normal(4)
    _, w1 = pl.self_attention_pool(h, _params(u, 1))
    _, w2 = pl.self_attention_pool(h, _params(2.0 * u, 1))
    assert np.abs(w1.data - w2.data).max() > 1e-6

    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    scaled = softmax(h @ u / np.sqrt(4))
    unscaled = softmax(h @ u)
    np.testing.assert_allclose(w1.data[:, 0], scaled, atol=1e-12)
    assert np.abs(w1.data[:, 0] - unscaled).max() > 1e-6


def test_second_stage_has_no_scale(rng):
    """Eq. 3 uses raw c_i . u' logits; with dh=4 a sqrt scale would halve
    them, so compare against both oracles."""
    K, dh = 2, 4
    h = rng.standard_normal((5, K * dh))
    u = rng.standard_normal(K * dh)
    up = rng.standard_normal(dh)
    _, _, wp = pl.double_mha_pool(h, _params(u, K, up))
    _, _, owp, c_heads = _oracle_dmha(h, u, up, K)

    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    np.testing.assert_allclose(wp.data, softmax(c_heads @ up), atol=1e-12)
    assert np.abs(wp.data - softmax(c_heads @ up / np.sqrt(dh))).max() > 1e-9


# ---- gradients / misc ---------------------------------------------------------


def test_pooling_gradients(rng):
    T, K, dh = 5, 2, 4
    h = rng.standard_normal((T, K * dh))
    u = rng.standard_normal(K * dh)
    up = rng.standard_normal(dh)
    tgt = rng.standard_normal(dh)
    tgt_d = rng.standard_normal(K * dh)

    def loss_attention(t):
        c, _ = pl.self_attention_pool(t, _params(u, 1))
        return ((c - tgt_d) ** 2).sum()

    def loss_mha(t):
        c, _ = pl.mha_pool(t, _params(u, K))
        return ((c - tgt_d) ** 2).sum()

    def loss_dmha_h(t):
        c, _, _ = pl.double_mha_pool(t, _params(u, K, up))
        return ((c - tgt) ** 2).sum()

    def loss_dmha_u(t):
        p = pl.PoolingParams(u=t, num_heads=K, u_prime=Tensor(up))
        c, _, _ = pl.double_mha_pool(Tensor(h), p)
        return ((c - tgt) ** 2).sum()

    assert grad_check(loss_attention, Tensor(h.copy())) <= 1e-4
    assert grad_check(loss_mha, Tensor(h.copy())) <= 1e-4
    assert grad_check(loss_dmha_h, Tensor(h.copy())) <= 1e-4
    assert grad_check(loss_dmha_u, Tensor(u.copy())) <= 1e-4


@pytest.mark.parametrize("kind, K", [("attention", 1), ("mha", 2),
                                     ("dmha", 2)])
def test_unbatched_pool_is_a_batch_of_one(rng, kind, K):
    """(T, D) gives the bits of the same h as a (1, T, D) batch: c, w and
    wp, and the gradients with respect to h, u and u_prime."""
    T, D = 5, 8
    h, u, up = (rng.standard_normal(n) for n in ((T, D), D, D // K))
    gc, gw, gwp = (rng.standard_normal(n)
                   for n in (pl.pooled_dim(kind, D, K), (T, K), K))
    runs = []
    for hin in (h, h[None]):
        th = Tensor(hin, requires_grad=True)
        p = pl.PoolingParams(
            u=Tensor(u, requires_grad=True), num_heads=K,
            u_prime=Tensor(up, requires_grad=True) if kind == "dmha" else None)
        out = pl.pool(th, p, kind)
        sum((t * g.reshape(t.shape)).sum()
            for t, g in zip(out, (gc, gw, gwp)) if t is not None).backward()
        runs.append([t.data for t in out if t is not None]
                    + [th.grad, p.u.grad]
                    + ([p.u_prime.grad] if kind == "dmha" else []))
    unbatched, batched = runs
    assert len(unbatched) == len(batched) == (6 if kind == "dmha" else 4)
    for a, b in zip(unbatched, batched):
        np.testing.assert_array_equal(a, b.reshape(a.shape))


def test_init_params_shapes_and_streams():
    from dmha.model import param_rng_factory
    p = pl.init_params(8, 2, "dmha", param_rng_factory(0))
    assert p.u.shape == (8,) and p.u_prime.shape == (4,)
    q = pl.init_params(8, 2, "mha", param_rng_factory(0))
    np.testing.assert_array_equal(p.u.data, q.u.data)  # same named stream
    assert q.u_prime is None
    with pytest.raises(ValueError):
        pl.init_params(8, 2, "attention", param_rng_factory(0))
    with pytest.raises(ValueError):
        pl.init_params(8, 3, "mha", param_rng_factory(0))


def test_format_weights_layout(rng):
    w = rng.uniform(size=(3, 2))
    hw = rng.uniform(size=2)
    text = pl.format_weights(w, hw)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert all(len(line.split()) == 2 for line in lines)
    assert pl.format_weights(w, None).strip().count("\n") == 2


def test_pool_rejects_a_u_whose_length_is_not_the_sequence_dim(rng):
    with pytest.raises(ValueError, match="sequence dim 8 != parameter dim 6"):
        pl.pool(Tensor(rng.standard_normal((2, 5, 8))),
                _params(rng.standard_normal(6), 2), "mha")
