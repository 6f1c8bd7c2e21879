"""Autodiff core: forward values against independent oracles, gradients
against central finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmha.autodiff as ad
from dmha.autodiff import BatchNormState, Tensor, grad_check
from dmha.encoder import EncoderConfig
from dmha.model import ModelConfig, SpeakerModel


def _loss(t):
    return (t ** 2).sum()


# ---- matmul -----------------------------------------------------------------


def test_matmul_identity():
    a = np.arange(6.0).reshape(2, 3)
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_gradients(rng):
    b = rng.standard_normal((4, 2))
    x = Tensor(rng.standard_normal((3, 4)))
    assert grad_check(lambda t: _loss(ad.matmul(t, Tensor(b))), x) <= 1e-6
    a = rng.standard_normal((3, 4))
    w = Tensor(rng.standard_normal((4, 2)))
    assert grad_check(lambda t: _loss(ad.matmul(Tensor(a), t)), w) <= 1e-6


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


# ---- conv2d_same ------------------------------------------------------------


def _conv_oracle(x, w):
    """Direct 6-loop 3x3 same-padding convolution."""
    C, H, W = x.shape
    O = w.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((O, H, W))
    for o in range(O):
        for c in range(C):
            for i in range(H):
                for j in range(W):
                    for di in range(3):
                        for dj in range(3):
                            out[o, i, j] += xp[c, i + di, j + dj] * w[o, c, di, dj]
    return out


def test_conv_identity_kernel():
    x = np.arange(16.0).reshape(1, 4, 4)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = ad.conv2d_same(Tensor(x), Tensor(w))
    np.testing.assert_array_equal(out.data, x)


def test_conv_padding_arithmetic():
    x = np.ones((1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    out = ad.conv2d_same(Tensor(x), Tensor(w)).data[0]
    assert out[1, 1] == 9.0
    assert out[0, 0] == 4.0
    assert out[0, 1] == 6.0


def test_conv_matches_naive_oracle(rng):
    x = rng.standard_normal((3, 5, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    out = ad.conv2d_same(Tensor(x), Tensor(w))
    np.testing.assert_allclose(out.data, _conv_oracle(x, w), atol=1e-12)


def test_conv_bias_and_batch(rng):
    x = rng.standard_normal((2, 3, 5, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    out = ad.conv2d_same(Tensor(x), Tensor(w), Tensor(b))
    for i in range(2):
        np.testing.assert_allclose(
            out.data[i], _conv_oracle(x[i], w) + b[:, None, None], atol=1e-12)


def test_conv_gradients(rng):
    w = rng.standard_normal((2, 2, 3, 3))
    x = Tensor(rng.standard_normal((2, 4, 5)))
    assert grad_check(lambda t: _loss(ad.conv2d_same(t, Tensor(w))), x) <= 1e-4
    xd = rng.standard_normal((2, 4, 5))
    wt = Tensor(rng.standard_normal((2, 2, 3, 3)))
    assert grad_check(lambda t: _loss(ad.conv2d_same(Tensor(xd), t)), wt) <= 1e-4
    bt = Tensor(rng.standard_normal(2))
    assert grad_check(
        lambda t: _loss(ad.conv2d_same(Tensor(xd), Tensor(w), t)), bt) <= 1e-4


def test_conv_channel_mismatch_rejected():
    with pytest.raises(ValueError):
        ad.conv2d_same(Tensor(np.zeros((2, 4, 4))),
                       Tensor(np.zeros((1, 3, 3, 3))))


@pytest.mark.parametrize("C,H,W", [(2, 5, 7), (1, 3, 5), (3, 1, 4),
                                   (2, 6, 1), (1, 1, 1)])
def test_conv_batched_bias_matches_oracle_odd_sizes(rng, C, H, W):
    x = rng.standard_normal((3, C, H, W))
    w = rng.standard_normal((2, C, 3, 3))
    b = rng.standard_normal(2)
    out = ad.conv2d_same(Tensor(x), Tensor(w), Tensor(b))
    assert out.shape == (3, 2, H, W)
    for i in range(3):
        np.testing.assert_allclose(
            out.data[i], _conv_oracle(x[i], w) + b[:, None, None], atol=1e-12)


@pytest.mark.parametrize("C,O,H,W", [(3, 5, 6, 5), (16, 16, 7, 5),
                                     (16, 32, 9, 10), (32, 16, 5, 9)])
def test_conv_batch_rows_bit_identical_to_single(rng, C, O, H, W):
    """Batch rows share one folded buffer; no row may see its neighbours,
    and a row's rounding may not depend on the batch size (BLAS edge
    kernels round differently; the wider cases catch a pixel in one)."""
    x = rng.standard_normal((4, C, H, W))
    w = Tensor(rng.standard_normal((O, C, 3, 3)))
    b = Tensor(rng.standard_normal(O))
    g = rng.standard_normal((4, O, H, W))
    xb = Tensor(x, requires_grad=True)
    (ad.conv2d_same(xb, w, b) * Tensor(g)).sum().backward()
    out = ad.conv2d_same(Tensor(x), w, b).data
    for i in range(4):
        xi = Tensor(x[i:i + 1], requires_grad=True)
        yi = ad.conv2d_same(xi, w, b)
        np.testing.assert_array_equal(out[i], yi.data[0])
        np.testing.assert_array_equal(
            out[i], ad.conv2d_same(Tensor(x[i]), w, b).data)
        (yi * Tensor(g[i:i + 1])).sum().backward()
        np.testing.assert_array_equal(xb.grad[i], xi.grad[0])


def test_conv_noncontiguous_input(rng):
    xt = rng.standard_normal((2, 3, 7, 4)).transpose(0, 1, 3, 2)
    assert not xt.flags.c_contiguous
    w = rng.standard_normal((2, 3, 3, 3))
    out = ad.conv2d_same(Tensor(xt), Tensor(w)).data
    np.testing.assert_array_equal(
        out, ad.conv2d_same(Tensor(np.ascontiguousarray(xt)), Tensor(w)).data)
    for i in range(2):
        np.testing.assert_allclose(out[i], _conv_oracle(xt[i], w), atol=1e-12)


def test_conv_batched_gradients(rng):
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    x = rng.standard_normal((2, 2, 5, 3))

    def loss(xt, wt, bt):
        return _loss(ad.conv2d_same(xt, wt, bt))

    assert grad_check(lambda t: loss(t, Tensor(w), Tensor(b)),
                      Tensor(x)) <= 1e-4
    assert grad_check(lambda t: loss(Tensor(x), t, Tensor(b)),
                      Tensor(w)) <= 1e-4
    assert grad_check(lambda t: loss(Tensor(x), Tensor(w), t),
                      Tensor(b)) <= 1e-4


def _multi_tile_shape(B):
    """(H, W) whose B-row folded conv buffer spans at least 3 column tiles,
    with no batch row starting on a tile edge."""
    Wp = 31
    Hp = -(-3 * ad.TILE // (B * Wp)) + 1
    assert B * Hp * Wp >= 3 * ad.TILE
    assert all(i * Hp * Wp % ad.TILE for i in range(1, B))
    return Hp - 2, Wp - 2


@pytest.mark.parametrize("C", [1, 16])
def test_conv_multi_tile_batch_rows_bit_identical_to_single(rng, C):
    """Rows of a batch start mid-tile; their output and input gradient must
    still carry the bits of a B=1 run, whose buffer is tiled elsewhere."""
    B, O = 3, 8
    H, W = _multi_tile_shape(B)
    x = rng.standard_normal((B, C, H, W))
    w = Tensor(rng.standard_normal((O, C, 3, 3)))
    b = Tensor(rng.standard_normal(O))
    g = rng.standard_normal((B, O, H, W))
    xb = Tensor(x, requires_grad=True)
    yb = ad.conv2d_same(xb, w, b)
    (yb * Tensor(g)).sum().backward()
    for i in range(B):
        xi = Tensor(x[i:i + 1], requires_grad=True)
        yi = ad.conv2d_same(xi, w, b)
        np.testing.assert_array_equal(yb.data[i], yi.data[0])
        (yi * Tensor(g[i:i + 1])).sum().backward()
        np.testing.assert_array_equal(xb.grad[i], xi.grad[0])
    if C == 1:  # the loop oracle is too slow for 16 channels here
        np.testing.assert_allclose(yb.data[1], _conv_oracle(x[1], w.data)
                                   + b.data[:, None, None], atol=1e-12)


def test_conv_multi_tile_gradients(rng):
    B, C, O = 2, 3, 4
    H, W = _multi_tile_shape(B)
    x = rng.standard_normal((B, C, H, W))
    w = rng.standard_normal((O, C, 3, 3))
    b = rng.standard_normal(O)

    def loss(xt, wt, bt):
        return _loss(ad.conv2d_same(xt, wt, bt))

    for f, t in ((lambda t: loss(t, Tensor(w), Tensor(b)), x),
                 (lambda t: loss(Tensor(x), t, Tensor(b)), w),
                 (lambda t: loss(Tensor(x), Tensor(w), t), b)):
        err = grad_check(f, Tensor(t), max_coords=40,
                         rng=np.random.default_rng(1))
        assert err <= ad.TOLERANCE


def test_conv_skips_input_gradient_when_not_needed(rng):
    x = rng.standard_normal((2, 3, 5, 6))
    g = rng.standard_normal((2, 4, 5, 6))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    y = ad.conv2d_same(Tensor(x), w)
    gx, gw = y._backward(g)
    assert gx is None
    wx = Tensor(w.data, requires_grad=True)
    (ad.conv2d_same(Tensor(x, requires_grad=True), wx)
     * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(gw, wx.grad)


def test_conv_float32_matches_float64_oracle(rng):
    """A float32 input runs the conv in float32; the float64 weight and bias
    are cast for it, and their gradients come back in float64."""
    x = rng.standard_normal((2, 3, 5, 6)).astype(np.float32)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    xt = Tensor(x, requires_grad=True)
    out = ad.conv2d_same(xt, w, b)
    assert out.data.dtype == np.float32
    for i in range(2):
        ref = _conv_oracle(x[i].astype(np.float64), w.data) \
            + b.data[:, None, None]
        assert np.max(np.abs(out.data[i] - ref)) <= 1e-5 * np.max(np.abs(ref))
    out.sum().backward()
    assert xt.grad.dtype == np.float32
    assert w.grad.dtype == np.float64 and b.grad.dtype == np.float64
    assert w.data.dtype == np.float64 and b.data.dtype == np.float64


# (C, O, H, W) of the eight desk convs on a 40-frame, 80-mel input
_DESK_CONVS = [(ci, co, 40 >> k, 80 >> k) for k, (cin, cout) in enumerate(
    EncoderConfig(base_channels=8, n_mels=80).channel_plan)
    for ci, co in ((cin, cout), (cout, cout))]


@pytest.mark.parametrize("C,O,H,W", _DESK_CONVS)
def test_conv_float32_batch_rows_bit_identical_to_single(rng, C, O, H, W):
    """The desk encoder's conv shapes (base_channels 8, 80 mels) in float32:
    a batch row's output and input gradient carry its B=1 bits."""
    x = rng.standard_normal((3, C, H, W)).astype(np.float32)
    w = Tensor(rng.standard_normal((O, C, 3, 3)))
    b = Tensor(rng.standard_normal(O))
    g = Tensor(rng.standard_normal((3, O, H, W)).astype(np.float32))
    xb = Tensor(x, requires_grad=True)
    yb = ad.conv2d_same(xb, w, b)
    (yb * g).sum().backward()
    assert yb.data.dtype == np.float32 and xb.grad.dtype == np.float32
    for i in range(3):
        xi = Tensor(x[i:i + 1], requires_grad=True)
        yi = ad.conv2d_same(xi, w, b)
        np.testing.assert_array_equal(yb.data[i], yi.data[0])
        (yi * g[i:i + 1]).sum().backward()
        np.testing.assert_array_equal(xb.grad[i], xi.grad[0])


# ---- maxpool ----------------------------------------------------------------


def test_maxpool_hand_case():
    out = ad.maxpool2x2(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
    np.testing.assert_array_equal(out.data, [[[4.0]]])


def test_maxpool_floor_semantics(rng):
    out = ad.maxpool2x2(Tensor(rng.standard_normal((1, 5, 5))))
    assert out.shape == (1, 2, 2)


def test_maxpool_too_small_rejected():
    with pytest.raises(ValueError):
        ad.maxpool2x2(Tensor(np.zeros((1, 1, 4))))


def test_maxpool_gradient_at_nontied_points(rng):
    base = rng.standard_normal((2, 8, 8))
    x = Tensor(base + rng.permutation(base.size).reshape(base.shape) * 1e-3)
    assert grad_check(lambda t: _loss(ad.maxpool2x2(t)), x) <= 1e-4


def test_maxpool_tie_first_wins():
    x = Tensor(np.full((1, 2, 2), 3.0), requires_grad=True)
    out = ad.maxpool2x2(x)
    out.sum().backward()
    expected = np.zeros((1, 2, 2))
    expected[0, 0, 0] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_maxpool_unbatched_is_a_batch_of_one(rng, dtype):
    """A CHW input gives the bits of the same input as a (1, C, H, W) batch,
    values and input gradient; rounding makes ties and signed zeros."""
    x = np.round(rng.standard_normal((3, 6, 7)) * 2).astype(dtype)
    g = rng.standard_normal((3, 3, 3))
    outs, grads = [], []
    for xin in (x, x[None]):
        t = Tensor(xin, requires_grad=True)
        out = ad.maxpool2x2(t)
        (out * g.reshape(out.shape)).sum().backward()
        outs.append(out.data)
        grads.append(t.grad)
    assert outs[0].dtype == outs[1].dtype == grads[0].dtype == dtype
    np.testing.assert_array_equal(outs[0], outs[1][0])
    np.testing.assert_array_equal(grads[0], grads[1][0])


def _maxpool_oracle(x):
    """Window argmax (first of tied maxima wins) and its gradient scatter."""
    B, C, H, W = x.shape
    Ho, Wo = H // 2, W // 2
    out = np.zeros((B, C, Ho, Wo))
    src = {}
    for idx in np.ndindex(B, C, Ho, Wo):
        b, c, i, j = idx
        win = x[b, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].reshape(-1)
        k = int(np.argmax(win))
        out[idx] = win[k]
        src[idx] = (b, c, 2 * i + k // 2, 2 * j + k % 2)
    return out, src


def test_maxpool_matches_window_oracle_with_ties(rng):
    """Odd sizes, many exact ties, and a channel-major (non-contiguous)
    input as the conv produces it."""
    base = rng.integers(0, 3, size=(3, 2, 7, 5)).astype(float)
    for x in (base, np.ascontiguousarray(base.transpose(1, 0, 2, 3))
              .transpose(1, 0, 2, 3)):
        xt = Tensor(x, requires_grad=True)
        out = ad.maxpool2x2(xt)
        ref, src = _maxpool_oracle(x)
        np.testing.assert_array_equal(out.data, ref)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        expected = np.zeros(x.shape)
        for idx, at in src.items():
            expected[at] = g[idx]
        np.testing.assert_array_equal(xt.grad, expected)


def test_maxpool_float32_matches_window_oracle_with_ties(rng):
    base = rng.integers(0, 3, size=(2, 3, 5, 7)).astype(np.float32)
    xt = Tensor(base, requires_grad=True)
    out = ad.maxpool2x2(xt)
    assert out.data.dtype == np.float32
    ref, src = _maxpool_oracle(base)
    np.testing.assert_array_equal(out.data, ref)
    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    assert xt.grad.dtype == np.float32
    expected = np.zeros(base.shape, dtype=np.float32)
    for idx, at in src.items():
        expected[at] = g[idx]
    np.testing.assert_array_equal(xt.grad, expected)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(1, 2),
       cin=st.integers(1, 3), cout=st.integers(1, 3), h=st.integers(2, 7),
       w=st.integers(2, 7), dtype=st.sampled_from([np.float32, np.float64]),
       nan=st.booleans())
@settings(max_examples=60, deadline=None)
def test_pool_takeover_matches_relu_then_pool_bit_for_bit(
        seed, batch, cin, cout, h, w, dtype, nan):
    """relu_(maxpool2x2_(conv)) gives the values and the x, w and b
    gradients of relu(maxpool2x2(conv)) bit for bit, and the window
    oracle's: small integers make ties and negative-max windows, h and w
    run odd, and a NaN pixel makes NaN windows."""
    rng = np.random.default_rng(seed)
    x0 = rng.integers(-2, 3, size=(batch, cin, h, w)).astype(dtype)
    if nan:
        x0[0, 0, rng.integers(h), rng.integers(w)] = np.nan
    w0 = rng.integers(-1, 2, size=(cout, cin, 3, 3)).astype(float)
    b0 = rng.integers(-1, 2, size=cout).astype(float)
    g = rng.standard_normal((batch, cout, h // 2, w // 2)).astype(dtype)

    def leaves():
        return [Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0)]

    runs = []
    for pool, relu in ((ad.maxpool2x2_, ad.relu_), (ad.maxpool2x2, ad.relu)):
        params = leaves()
        out = relu(pool(ad.conv2d_same(*params)))
        (out * Tensor(g)).sum().backward()
        runs.append([out.data] + [t.grad for t in params])
    for new, ref in zip(*runs):
        assert _bits(new) == _bits(ref)
    # the oracle: its max, rectified, and the ReLU's gradient routed to
    # each window's argmax, back through the conv
    params = leaves()
    conv = ad.conv2d_same(*params)
    ref, src = _maxpool_oracle(conv.data)
    np.testing.assert_array_equal(runs[0][0], np.maximum(ref, 0))
    g_conv = np.zeros(conv.shape, dtype=dtype)
    for idx, at in src.items():
        g_conv[at] = g[idx] * (ref[idx] > 0)
    (conv * Tensor(g_conv)).sum().backward()
    for new, t in zip(runs[0][1:], params):
        np.testing.assert_array_equal(new, t.grad)


def _born_padded(a):
    """a copied into the interior of a zeroed grid, as a conv writes its
    output."""
    view = ad._grid_zeros(a.shape, a.dtype)
    view[...] = a
    return view


def _ring_is_zero(a):
    """Whether every column of born-padded a's grid outside a is +0."""
    grid = ad._grid_of(a)
    assert grid is not None
    ring = np.ones(grid.shape, dtype=bool)
    B, _, H, W = a.shape
    ad._interior(ring, B, H, W)[...] = False
    return not grid[ring].view(f"u{grid.itemsize}").any()


@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(1, 3),
       cin=st.sampled_from([1, 2, 3, 8, 16]),
       cout=st.sampled_from([1, 2, 5, 8, 16]),
       h=st.sampled_from([3, 5, 7, 9]), w=st.sampled_from([3, 5, 7, 9, 11]),
       dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=60, deadline=None)
def test_born_padded_conv_bits_match_dense(seed, batch, cin, cout, h, w,
                                           dtype):
    """Two convs, a then b, give the same outputs and x, w and b gradients
    bit for bit whether every map they pass is born padded (x in a grid,
    relu_ on a's output grid, or b reading that grid directly, so the
    gradients reach a in grids too) or a contiguous copy (relu, or a copy
    by scaling with 1). relu_ leaves the ring of a's grid zero, and the
    ReLU and maxpool backward give the dense formulas' bits in a grid."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((batch, cin, h, w)).astype(dtype)
    params = [rng.standard_normal(s) for s in ((cout, cin, 3, 3), (cout,),
                                               (cout, cout, 3, 3), (cout,))]
    g = rng.standard_normal((batch, cout, h, w)).astype(dtype)
    for born_mid, dense_mid in ((ad.relu_, ad.relu),
                                (lambda t: t, lambda t: ad.scale(t, 1.0))):
        runs = []
        for born, x, mid in ((True, _born_padded(x0), born_mid),
                             (False, x0.copy(), dense_mid)):
            xt = Tensor(x, requires_grad=True)
            leaves = [xt] + [Tensor(p, requires_grad=True) for p in params]
            a = ad.conv2d_same(xt, *leaves[1:3])
            a_out = a.data.copy()
            m = mid(a)
            if born:
                assert ad._grid_of(xt.data) is not None
                assert _ring_is_zero(m.data)
            out = ad.conv2d_same(m, *leaves[3:])
            (out * Tensor(g)).sum().backward()
            runs.append([a_out, out.data] + [t.grad for t in leaves])
        for new, ref in zip(*runs):
            assert _bits(new) == _bits(ref)

    conv = ad.conv2d_same(Tensor(x0), Tensor(params[0], requires_grad=True))
    y = ad.relu_(conv)
    gy = rng.standard_normal(y.shape).astype(dtype)
    (gx,) = y._backward(gy)
    assert ad._grid_of(gx) is not None and _ring_is_zero(gx)
    assert _bits(gx) == _bits(gy * (y.data > 0))

    conv = ad.conv2d_same(Tensor(x0), Tensor(params[0], requires_grad=True))
    pooled = ad.maxpool2x2(conv)
    gp = rng.standard_normal(pooled.shape).astype(dtype)
    (gx,) = pooled._backward(gp)
    assert ad._grid_of(gx) is not None and _ring_is_zero(gx)
    # the dense formula: the first corner equal to the max takes g, the
    # others g * 0
    ho, wo = h // 2, w // 2
    q = np.stack([conv.data[:, :, i:2 * ho:2, j:2 * wo:2]
                  for i in (0, 1) for j in (0, 1)])
    first = np.argmax(q == pooled.data, axis=0)
    expected = np.zeros(conv.shape, dtype=dtype)
    for k, (i, j) in enumerate((i, j) for i in (0, 1) for j in (0, 1)):
        expected[:, :, i:2 * ho:2, j:2 * wo:2] = gp * (first == k)
    assert _bits(gx) == _bits(expected)


def test_pool_takeover_drops_the_input_from_the_graph(rng):
    """The pool node gets its input's parents, so the graph no longer
    reaches the input; with no graph to record, the input is untouched."""
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 3, 3)), requires_grad=True)
    conv = ad.conv2d_same(x, w)
    out = ad.maxpool2x2_(conv)
    assert out._parents == (x, w)
    with pytest.raises(ValueError, match="consumed"):
        conv._backward(np.ones(conv.shape))
    with ad.no_grad():
        conv = ad.conv2d_same(x, w)
        out = ad.maxpool2x2_(conv)
    assert out._backward is None and conv._backward is None
    np.testing.assert_array_equal(out.data, ad.maxpool2x2(conv).data)


def test_pool_takeover_refuses_a_leaf_or_a_chw_map():
    """A leaf's caller still reads it; a CHW map pools as a view of a
    batch of one, whose node is not the one the pool would take over."""
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="requires grad"):
        ad.maxpool2x2_(x)
    with pytest.raises(ValueError, match="must be BCHW"):
        ad.maxpool2x2_(ad.scale(x[0], 1.0))


@pytest.mark.parametrize("second_first", [True, False])
def test_pool_takeover_second_consumer_raises(rng, second_first):
    """A second reader of a taken-over tensor, made before or after the
    pool, fails the backward instead of dropping its gradient."""
    x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
    mid = ad.scale(x, 2.0)
    second = ad.relu(mid) if second_first else None
    pooled = ad.maxpool2x2_(mid)
    if second is None:
        second = ad.relu(mid)
    loss = pooled.sum() + second.sum()
    with pytest.raises(ValueError, match="consumed"):
        loss.backward()


# ---- softmax ----------------------------------------------------------------


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_direct_oracle():
    z = np.array([1.0, 2.0, 3.0])
    out = ad.softmax(Tensor(z))
    np.testing.assert_allclose(out.data, np.exp(z) / np.exp(z).sum(),
                               atol=1e-15)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
@settings(max_examples=50)
def test_softmax_shift_invariance(zs, delta):
    z = np.array(zs)
    a = ad.softmax(Tensor(z)).data
    b = ad.softmax(Tensor(z + delta)).data
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert abs(a.sum() - 1.0) <= 1e-9
    assert (a >= 0).all()


def test_softmax_gradient(rng):
    tgt = rng.standard_normal((4, 5))
    z = Tensor(rng.standard_normal((4, 5)))
    assert grad_check(
        lambda t: ((ad.softmax(t, axis=1) - tgt) ** 2).sum(), z) <= 1e-4


# ---- elementwise / batchnorm -------------------------------------------------


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 2.0, 0.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0, 0.0])


def test_relu_float32_values_and_gradient():
    x = Tensor(np.array([-1.0, 2.0, 0.0, 3.0], dtype=np.float32),
               requires_grad=True)
    out = ad.relu(x)
    assert out.data.dtype == np.float32
    np.testing.assert_array_equal(out.data, [0.0, 2.0, 0.0, 3.0])
    (out * Tensor(np.arange(4, dtype=np.float32))).sum().backward()
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 3.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_in_place_matches_relu_bit_for_bit(rng, dtype):
    """On a fresh intermediate, relu_ gives relu's values and input
    gradient bit for bit, in the intermediate's own buffer."""
    x0 = rng.standard_normal((3, 5)).astype(dtype)
    x0[0, :2] = 0.0   # the kink: relu's gradient there is 0
    g = rng.standard_normal((3, 5)).astype(dtype)
    outs, grads = [], []
    for fn in (ad.relu, ad.relu_):
        x = Tensor(x0.copy(), requires_grad=True)
        mid = ad.scale(x, 1.0)
        out = fn(mid)
        assert np.shares_memory(out.data, mid.data) == (fn is ad.relu_)
        (out * Tensor(g)).sum().backward()
        outs.append(out.data)
        grads.append(x.grad)
    assert outs[1].dtype == dtype
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(grads[0], grads[1])


def test_relu_in_place_refuses_a_leaf():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    with pytest.raises(ValueError, match="requires grad"):
        ad.relu_(x)
    np.testing.assert_array_equal(x.data, [-1.0, 2.0])


def test_tensor_dtype_policy():
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    for data in (1, 2.5, [1, 2], np.ones(2, dtype=np.int64),
                 np.ones(2, dtype=np.float16)):
        assert Tensor(data).data.dtype == np.float64
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    h = ad.cast(x, np.float64)
    assert h.data.dtype == np.float64 and ad.cast(h, np.float64) is h
    (h * Tensor(np.arange(3.0))).sum().backward()
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 2.0])


def test_batchnorm_constant_feature_gives_beta():
    x = Tensor(np.full((4, 3), 5.0))
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.array([1.0, -2.0, 0.5]))
    st_ = BatchNormState.create(3)
    out = ad.batchnorm(x, gamma, beta, st_, training=True)
    np.testing.assert_allclose(out.data, np.tile(beta.data, (4, 1)),
                               atol=1e-12)


def test_batchnorm_batch_of_one_rejected():
    with pytest.raises(ValueError):
        ad.batchnorm(Tensor(np.zeros((1, 3))), Tensor(np.ones(3)),
                     Tensor(np.zeros(3)), BatchNormState.create(3),
                     training=True)


def test_batchnorm_eval_uses_running_stats(rng):
    st_ = BatchNormState.create(2)
    st_.running_mean = np.array([1.0, -1.0])
    st_.running_var = np.array([4.0, 0.25])
    x = rng.standard_normal((3, 2))
    out = ad.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       st_, training=False)
    expected = (x - st_.running_mean) / np.sqrt(st_.running_var + st_.eps)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_batchnorm_gradients(rng):
    tgt = rng.standard_normal((6, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, 4))
    beta = Tensor(rng.standard_normal(4))

    def loss(t):
        st_ = BatchNormState.create(4)
        return ((ad.batchnorm(t, gamma, beta, st_, training=True)
                 - tgt) ** 2).sum()

    assert grad_check(loss, Tensor(rng.standard_normal((6, 4)))) <= 1e-5


# ---- backward machinery -------------------------------------------------------


def test_sum_gradient_all_ones(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("op", ["sum", "mean"])
def test_reduction_over_a_tuple_of_axes(rng, op, keepdims):
    """axis=(0, 2) reduces both axes in one node, with numpy's values and
    shape; its gradient spreads the upstream gradient over both."""
    x = rng.standard_normal((3, 4, 5))
    want = getattr(x, op)(axis=(0, 2), keepdims=keepdims)
    out = getattr(Tensor(x), op)(axis=(0, 2), keepdims=keepdims)
    assert out.data.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=1e-14)
    g = Tensor(rng.standard_normal(want.shape))
    loss = lambda t: (getattr(t, op)(axis=(0, 2), keepdims=keepdims)
                      * g).sum()
    assert grad_check(loss, Tensor(x)) <= 1e-6


def test_norm_squared_gradient(rng):
    x = Tensor(rng.standard_normal(7), requires_grad=True)
    (x ** 2).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)


def test_backward_nonscalar_seed_rejected():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_shared_node_gradient_accumulates(rng):
    x = Tensor(rng.standard_normal(5), requires_grad=True)
    y = x + x
    (y * y).sum().backward()
    np.testing.assert_allclose(x.grad, 8.0 * x.data, atol=1e-12)


def test_broadcast_add_gradient(rng):
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 4)))
    ((x + b) ** 2).sum().backward()
    np.testing.assert_allclose(b.grad, (2.0 * (x.data + b.data)).sum(axis=0),
                               atol=1e-12)


def test_concat_and_slice_gradients(rng):
    a = rng.standard_normal((2, 3))
    x = Tensor(rng.standard_normal((2, 3)))
    assert grad_check(
        lambda t: _loss(ad.concat([t, Tensor(a)], axis=0)[1:3]), x) <= 1e-6


def test_backward_releases_inner_gradients(rng):
    """A 20-op chain on 1M elements: backward holds a few gradient-sized
    arrays at a time, not one per node, and leaves keep exact gradients."""
    n = 1_000_000
    x = Tensor(rng.standard_normal(n), requires_grad=True)
    s = Tensor(1.5, requires_grad=True)
    nodes = []
    y = x
    for k in range(20):
        y = y * s if k == 10 else ad.scale(y, 0.5)
        nodes.append(y)
    loss = y.sum()
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * n
    assert all(t.grad is None for t in nodes)
    np.testing.assert_array_equal(x.grad, np.full(n, 1.5 * 0.5 ** 19))
    np.testing.assert_allclose(s.grad, 0.5 ** 19 * x.data.sum(), rtol=1e-12)


def test_backward_frees_the_graph_behind_the_sweep(rng):
    """A (16, n) leaf summed to one row, then 20 ops that each save their
    own row-sized constant: the leaf's (16, n) gradient comes last, when
    the sweep has freed the 20 ops' arrays, so backward's tracemalloc peak
    stays within a few rows of what the forward left (the whole graph plus
    the leaf gradient would be 16 rows over)."""
    n = 100_000
    x = Tensor(rng.standard_normal((16, n)), requires_grad=True)
    tracemalloc.start()
    try:
        y = x.sum(axis=0)
        for k in range(20):
            y = y * Tensor(np.full(n, 1.0 + k / 64))
        loss = y.sum()
        del y
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held > 40 * 8 * n   # 20 outputs and 20 constants
    assert peak - held < 4 * 8 * n
    scale = np.prod([1.0 + k / 64 for k in range(20)])
    np.testing.assert_allclose(x.grad, np.full((16, n), scale), rtol=1e-12)


def test_second_backward_raises(rng):
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    loss = (x * 2.0).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
    with pytest.raises(ValueError, match="earlier backward consumed"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))


def test_consumed_tensor_in_a_new_graph_raises(rng):
    """An inner node of a graph backward has swept cannot carry gradient
    into a new graph; leaves can be reused freely."""
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    y = x * 3.0
    y.sum().backward()
    assert y.requires_grad_path()
    with pytest.raises(ValueError, match="earlier backward consumed"):
        (y * y).sum().backward()
    x.zero_grad()
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def _reference_backward(root):
    """The sweep Tensor.backward ran before it took its order from
    graphlib: a two-phase post-order DFS with a seen-set of ids."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            ad._backprop(node)


def _desk_step_grads(kind, heads, dtype, sweep):
    """Every parameter gradient of one desk training step (B=16, 200 x 80
    chunks, base_channels 8), its loss swept by sweep."""
    config = ModelConfig(encoder=EncoderConfig(base_channels=8, n_mels=80),
                         pooling_kind=kind, num_heads=heads, hidden=64,
                         num_speakers=16, s=10.0, m=0.2)
    model = SpeakerModel(config, seed=0)
    rng = np.random.default_rng(0)
    mel = rng.standard_normal((16, 200, 80)).astype(dtype)
    labels = rng.integers(0, 16, size=16)
    sweep(model.forward(mel, labels=labels, training=True)["loss"])
    return {name: _bits(p.grad) for name, p in model.params.items()}


@pytest.mark.parametrize("kind, heads, dtype", [
    ("attention", 1, np.float32), ("mha", 8, np.float32),
    ("dmha", 8, np.float32), ("dmha", 8, np.float64)])
def test_backward_matches_the_reference_sweep_bit_for_bit(kind, heads,
                                                          dtype):
    """graphlib's order differs from the DFS's, but on a desk step no
    parameter gradient differs by a bit."""
    grads = _desk_step_grads(kind, heads, dtype, Tensor.backward)
    assert grads == _desk_step_grads(kind, heads, dtype, _reference_backward)


def test_three_gradient_contributions_sum_to_the_analytic_gradient(rng):
    """Batchnorm's centred input c gets three gradients, two through c * c
    and one through c * scale; their sum is the closed-form batchnorm
    gradient. The swept graph then refuses a second backward."""
    B, F = 5, 3
    x = Tensor(rng.standard_normal((B, F)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(F), requires_grad=True)
    beta = Tensor(rng.standard_normal(F), requires_grad=True)
    w = rng.standard_normal((B, F))
    loss = (ad.batchnorm(x, gamma, beta, BatchNormState.create(F),
                         training=True) * Tensor(w)).sum()
    consumers, stack, seen = {}, [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            for p in node._parents:
                consumers[id(p)] = consumers.get(id(p), 0) + 1
                stack.append(p)
    assert max(consumers.values()) == 3
    loss.backward()
    centred = x.data - x.data.mean(axis=0)
    inv_std = 1.0 / np.sqrt((centred ** 2).mean(axis=0) + BatchNormState.eps)
    xhat = centred * inv_std
    np.testing.assert_allclose(
        x.grad, gamma.data * inv_std / B * (
            B * w - w.sum(axis=0) - xhat * (w * xhat).sum(axis=0)),
        rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(gamma.grad, (w * xhat).sum(axis=0),
                               rtol=1e-12)
    np.testing.assert_allclose(beta.grad, w.sum(axis=0), rtol=1e-12)
    with pytest.raises(ValueError, match="earlier backward consumed"):
        loss.backward()


def test_no_grad_blocks_graph(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    with ad.no_grad():
        y = (x * 2.0).sum()
    assert y._backward is None and y._parents == ()


def test_grad_check_linear_is_tight(rng):
    x = Tensor(rng.standard_normal(6))
    assert grad_check(lambda t: (t * 3.0).sum(), x) <= 1e-10


def test_grad_check_reports_a_wrong_backward(rng):
    """A backward off by 1% fails on every coordinate, so neither the
    coordinate sampling nor the eps/10 retry may hide it; a NaN gradient
    fails too."""

    def sin_with_backward(scale):
        def f(t):
            out = ad._make(np.sin(t.data), (t,),
                           lambda g: (g * scale * np.cos(t.data),))
            return out.sum()
        return f

    x = Tensor(rng.standard_normal(8))
    assert grad_check(sin_with_backward(1.0), x) <= ad.TOLERANCE
    for max_coords in (None, 3):
        err = grad_check(sin_with_backward(1.01), x, max_coords=max_coords)
        assert err > ad.TOLERANCE
        assert err == pytest.approx(0.01 / 2.01, rel=1e-4)
    assert not grad_check(sin_with_backward(np.nan), x,
                          max_coords=3) <= ad.TOLERANCE


# ---- shape ops: axes and indices as numpy reads them ---------------------------


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3, 3)])
def test_transpose_with_a_negative_axis_returns_the_gradient_in_place(
        rng, shape):
    """(0, -1, 1) is the permutation (0, 2, 1), its own inverse. On a cube
    a permutation that misreads -1 still gives a gradient of x's shape,
    with the entries in the wrong places."""
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    g = rng.standard_normal((shape[0], shape[2], shape[1]))
    (x.transpose(0, -1, 1) * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(x.grad, g.transpose(0, 2, 1))


def test_repeated_integer_index_sums_its_gradients():
    x = Tensor(np.zeros(4), requires_grad=True)
    (x[np.array([0, 0, 1])] * Tensor([1.0, 2.0, 3.0])).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0, 0.0, 0.0])


@pytest.mark.parametrize("axis", [3, -4, (1, 3)])
@pytest.mark.parametrize("op", ["sum", "mean"])
def test_reduction_over_an_axis_out_of_range_raises(op, axis):
    """numpy's AxisError is a ValueError; no axis wraps round."""
    with pytest.raises(ValueError):
        getattr(Tensor(np.zeros((2, 3, 4))), op)(axis=axis)


def _spelled(data, axes, ndim):
    """axes with each one drawn as itself or as its negative alias."""
    return tuple(a - ndim if data.draw(st.booleans()) else a for a in axes)


def _shape_op(data, family, shape, rng):
    """A random op of family on a tensor of the given shape."""
    ndim, n = len(shape), shape[0]
    if family == "reduce":
        op = data.draw(st.sampled_from(["sum", "mean"]))
        axis = data.draw(st.one_of(
            st.none(), st.integers(-ndim, ndim - 1),
            st.lists(st.integers(0, ndim - 1), min_size=1, max_size=ndim,
                     unique=True)))
        if isinstance(axis, list):
            axis = _spelled(data, axis, ndim)
        keepdims = data.draw(st.booleans())
        return lambda t: getattr(t, op)(axis=axis, keepdims=keepdims)
    if family == "transpose":
        axes = _spelled(data, data.draw(st.permutations(range(ndim))), ndim)
        return lambda t: t.transpose(*axes)
    if family == "reshape":
        k = data.draw(st.integers(0, ndim))
        return lambda t: t.reshape(shape[:k] + (-1,))
    if family == "concat":
        axis = data.draw(st.integers(0, ndim - 1))
        other = Tensor(rng.standard_normal(
            shape[:axis] + (data.draw(st.integers(1, 3)),) + shape[axis + 1:]))
        return lambda t: ad.concat([t, other, t], axis=axis - ndim)
    idx = data.draw(st.one_of(
        st.integers(-n, n - 1),
        st.tuples(*(st.slices(s) for s in shape)),
        st.integers(-shape[-1], shape[-1] - 1).map(lambda i: (..., i)),
        st.slices(n).map(lambda s: (None, s)),
        st.lists(st.booleans(), min_size=int(np.prod(shape)),
                 max_size=int(np.prod(shape))).map(
            lambda m: np.array(m).reshape(shape)),
        st.lists(st.integers(-n, n - 1), min_size=1, max_size=5).map(
            lambda i: np.array(i + i[:1]))))
    return lambda t: t[idx]


@pytest.mark.parametrize("family",
                         ["reduce", "transpose", "reshape", "concat", "index"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_shape_op_gradients_match_finite_differences(family, data):
    """Every axis spelling and index kind numpy takes (negative and tuple
    axes, keepdims, -1 in a shape, Ellipsis, None, masks and repeated
    integer arrays) gives the float64 finite-difference gradient."""
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1,
                                     max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    f = _shape_op(data, family, shape, rng)
    x = Tensor(rng.standard_normal(shape))
    g = Tensor(rng.standard_normal(f(x).shape))
    assert grad_check(lambda t: (f(t) * g).sum(), x) <= ad.TOLERANCE


# ---- input checks ----------------------------------------------------------------


def test_conv_rejects_a_2d_input():
    with pytest.raises(ValueError, match="CHW or BCHW"):
        ad.conv2d_same(Tensor(np.zeros((4, 4))), Tensor(np.zeros((1, 1, 3, 3))))


@pytest.mark.parametrize("kshape", [(2, 1, 5, 5), (2, 1, 9, 1), (2, 1, 3)])
def test_conv_rejects_a_kernel_that_is_not_3x3(kshape):
    """(2, 1, 9, 1) has as many values as a 3x3 kernel, so without the
    check it would be reshaped to one silently."""
    with pytest.raises(ValueError, match=r"kernel must be \(O,C,3,3\)"):
        ad.conv2d_same(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros(kshape)))


def test_maxpool_rejects_a_2d_input():
    with pytest.raises(ValueError, match="CHW or BCHW"):
        ad.maxpool2x2(Tensor(np.zeros((4, 4))))


def test_batchnorm_rejects_a_sequence_input():
    """A (B, T, F) input would broadcast against (F,) parameters without
    an error, normalising over B alone."""
    with pytest.raises(ValueError, match=r"expects \(B,F\) input"):
        ad.batchnorm(Tensor(np.zeros((2, 5, 3))), Tensor(np.ones(3)),
                     Tensor(np.zeros(3)), BatchNormState.create(3),
                     training=True)
