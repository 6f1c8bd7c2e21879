"""VGG encoder: shape contracts, locality, parameter gradients."""

import tracemalloc

import numpy as np
import pytest

import dmha.autodiff as ad
from dmha import encoder as enc
from dmha import features as feat
from dmha.autodiff import Tensor
from dmha.model import ModelConfig, SpeakerModel, param_rng_factory


TINY = enc.EncoderConfig(base_channels=2, n_mels=16)


def _params(config, seed=0):
    return enc.init_params(config, param_rng_factory(seed))


def test_output_dim_full_scale():
    assert enc.output_dim(enc.EncoderConfig(base_channels=128, n_mels=80)) \
        == 5120  # M=1024, D'=5
    assert enc.output_dim(enc.EncoderConfig(base_channels=8, n_mels=80)) \
        == 320
    assert enc.output_dim(enc.EncoderConfig(base_channels=16, n_mels=80)) \
        == 640


def test_output_dim_rejects_bad_n_mels():
    with pytest.raises(ValueError):
        enc.output_dim(enc.EncoderConfig(base_channels=4, n_mels=50))


@pytest.mark.parametrize("n_mels, message", [
    (0, "n_mels must be >= 16, got 0"),
    (-16, "n_mels must be >= 16, got -16"),
    (8, "n_mels must be divisible by 16, got 8"),
    (50, "n_mels must be divisible by 16, got 50"),
], ids=["zero", "negative", "eight", "fifty"])
def test_encoder_config_rejects_n_mels_when_built(n_mels, message):
    """The four 2x2 maxpools need a positive multiple of 16 mel bins; the
    config says so as it is built, not when final_freq is first read."""
    with pytest.raises(ValueError) as exc:
        enc.EncoderConfig(base_channels=2, n_mels=n_mels)
    assert str(exc.value) == message


@pytest.mark.parametrize("n_mels", [16, 32, 64, 80, 128])
def test_encoder_config_accepts_positive_multiples_of_16(n_mels):
    assert enc.EncoderConfig(base_channels=2, n_mels=n_mels).final_freq \
        == n_mels // 16


def test_output_frames_floor_cascade():
    assert enc.output_frames(160) == 10
    assert enc.output_frames(350) == 21  # 350 -> 175 -> 87 -> 43 -> 21
    assert enc.output_frames(16) == 1


def test_encode_shape_full_scale_chunk():
    config = enc.EncoderConfig(base_channels=2, n_mels=80)
    params = _params(config)
    rng = np.random.default_rng(0)
    h = enc.encode(rng.standard_normal((160, 80)), params, config)
    assert h.shape == (10, enc.output_dim(config))


def test_encode_shape_contract_random_lengths():
    params = _params(TINY)
    rng = np.random.default_rng(1)
    for n in (16, 17, 31, 100, 233):
        h = enc.encode(rng.standard_normal((n, 16)), params, TINY)
        assert h.shape == (enc.output_frames(n), enc.output_dim(TINY))


def test_encode_batch_matches_single():
    params = _params(TINY)
    rng = np.random.default_rng(2)
    mels = rng.standard_normal((3, 32, 16))
    hb = enc.encode(mels, params, TINY)
    for i in range(3):
        np.testing.assert_array_equal(hb.data[i],
                                      enc.encode(mels[i], params, TINY).data)


def test_encode_batch_matches_single_desk_channels():
    """Bit-identity at the desk channel plan (up to 64 channels), over
    lengths whose folded conv sizes differ between B=1 and B=3."""
    config = enc.EncoderConfig(base_channels=8, n_mels=80)
    params = _params(config)
    rng = np.random.default_rng(5)
    for n in (21, 26, 31, 43):
        mels = rng.standard_normal((3, n, 80))
        hb = enc.encode(mels, params, config)
        for i in range(3):
            np.testing.assert_array_equal(
                hb.data[i], enc.encode(mels[i], params, config).data)


def test_encode_rejects_short_and_mismatched():
    params = _params(TINY)
    with pytest.raises(ValueError):
        enc.encode(np.zeros((8, 16)), params, TINY)
    with pytest.raises(ValueError):
        enc.encode(np.zeros((32, 24)), params, TINY)


def test_zero_input_zero_bias_gives_zero_output():
    params = _params(TINY)
    h = enc.encode(np.zeros((32, 16)), params, TINY)
    np.testing.assert_array_equal(h.data, np.zeros_like(h.data))


def test_time_locality():
    """Receptive-field bound: with two 3x3 convs per block the time margin
    is 2 + 2*2 + 2*4 + 2*8 = 30 input frames (< 2 output rows of 16), so
    perturbing one 16-frame block leaves output rows more than 2 away from
    the block's image bit-identical."""
    params = _params(TINY)
    rng = np.random.default_rng(3)
    mel = rng.standard_normal((128, 16))
    base = enc.encode(mel, params, TINY).data
    t0 = 64
    mel2 = mel.copy()
    mel2[t0:t0 + 16] += rng.standard_normal((16, 16))
    out = enc.encode(mel2, params, TINY).data
    blk = t0 // 16
    changed = [t for t in range(base.shape[0])
               if not np.array_equal(out[t], base[t])]
    assert changed, "perturbation must reach the output"
    assert all(blk - 2 <= t <= blk + 2 for t in changed)


def test_channel_major_flatten():
    """Row layout is (channel-major): h[t] = concat over channels of the
    final frequency axis."""
    config = TINY
    params = _params(config)
    rng = np.random.default_rng(4)
    mel = rng.standard_normal((32, 16))
    h = enc.encode(mel, params, config).data
    M, Dp = config.final_channels, config.final_freq
    assert h.shape[1] == M * Dp
    # reconstruct through the raw conv stack to check ordering
    x = Tensor(mel.reshape(1, 1, 32, 16))
    for b in range(1, 5):
        for k in (1, 2):
            x = ad.relu(ad.conv2d_same(x, params[f"enc.b{b}.conv{k}.w"],
                                       params[f"enc.b{b}.conv{k}.b"]))
        x = ad.maxpool2x2(x)
    raw = x.data[0]  # (M, T, D')
    np.testing.assert_array_equal(
        h, raw.transpose(1, 0, 2).reshape(raw.shape[1], M * Dp))


def test_encoder_parameter_gradients():
    """Sampled finite-difference check of encode through a scalar loss."""
    config = enc.EncoderConfig(base_channels=2, n_mels=16)
    params = _params(config, seed=5)
    rng = np.random.default_rng(5)
    # move off zero-bias relu kinks before differentiating
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape)
    mel = rng.standard_normal((32, 16))
    tgt = rng.standard_normal((2, enc.output_dim(config)))

    from dmha.gradcheck import grad_check_sampled

    for name in ("enc.b1.conv1.w", "enc.b2.conv2.w", "enc.b4.conv1.b"):
        def loss_fn(t, _name=name):
            saved = params[_name]
            params[_name] = t
            try:
                return ((enc.encode(mel, params, config) - tgt) ** 2).sum()
            finally:
                params[_name] = saved

        err = grad_check_sampled(loss_fn, params[name], max_coords=20,
                                 rng=rng, denom_floor=1e-5)
        assert err <= 1e-4, f"{name}: {err}"


def test_encode_float32_gives_float64_h_and_matching_gradients():
    """float32 activations, float64 parameters: h and the parameter
    gradients come back in float64, close to the float64 run."""
    config = enc.EncoderConfig(base_channels=4, n_mels=32)
    rng = np.random.default_rng(9)
    # float32-representable, so both runs see the same input values
    mel = rng.standard_normal((2, 48, 32)).astype(np.float32).astype(float)
    tgt = rng.standard_normal((2, 3, enc.output_dim(config)))
    grads, hs = {}, {}
    for dtype in (np.float64, np.float32):
        params = _params(config, seed=3)
        h = enc.encode(mel.astype(dtype), params, config)
        assert h.data.dtype == np.float64
        hs[dtype] = h.data
        ((h - tgt) ** 2).sum().backward()
        grads[dtype] = {name: p.grad for name, p in params.items()}
        assert all(p.data.dtype == np.float64 and p.grad.dtype == np.float64
                   for p in params.values())
    h64, h32 = hs[np.float64], hs[np.float32]
    assert not np.array_equal(h32, h64)   # the layers did run in float32
    assert np.max(np.abs(h32 - h64)) <= 1e-5 * np.max(np.abs(h64))
    for name, g64 in grads[np.float64].items():
        g32 = grads[np.float32][name]
        assert np.max(np.abs(g32 - g64)) <= 1e-4 * np.max(np.abs(g64)), name


def test_extract_runs_float32_close_to_float64_forward(tmp_path):
    """At the desk architecture, extract's float32 encoder gives the float64
    forward's embedding within 1e-5 relative and leaves the parameters
    float64."""
    config = ModelConfig(encoder=enc.EncoderConfig(base_channels=8, n_mels=80),
                         pooling_kind="dmha", num_heads=8, hidden=64,
                         num_speakers=16)
    model = SpeakerModel(config, seed=4)
    rng = np.random.default_rng(4)
    wav = tmp_path / "u.wav"
    feat.write_wav(wav, 0.3 * np.sin(np.arange(40000) * 0.05)
                   + 0.05 * rng.standard_normal(40000))
    emb = model.extract_from_wav(wav)
    mel = feat.utterance_features(wav, model.feature_config())
    with ad.no_grad():
        ref = model.forward(mel[None])["embedding"].data[0]
    assert emb.dtype == np.float64
    assert not np.array_equal(emb, ref)   # the encoder did run in float32
    assert np.max(np.abs(emb - ref)) <= 1e-5 * np.max(np.abs(ref))
    assert all(p.data.dtype == np.float64 for p in model.params.values())


def _encode_relu_then_pool(mel, params, config):
    """encode in the paper's written order, conv-ReLU-conv-ReLU-maxpool."""
    B, N, F = mel.shape
    x = Tensor(mel).reshape((B, 1, N, F))
    for b in range(1, 5):
        for k in (1, 2):
            x = ad.relu(ad.conv2d_same(x, params[f"enc.b{b}.conv{k}.w"],
                                       params[f"enc.b{b}.conv{k}.b"]))
        x = ad.maxpool2x2(x)
    x = x.transpose(0, 2, 1, 3)
    return ad.cast(x.reshape((B, x.shape[1], x.shape[2] * x.shape[3])),
                   np.float64)


def _graph_shapes(root):
    """Shape of every node reachable from root, one entry per node."""
    seen, stack, shapes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        shapes.append(node.shape)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return shapes


def test_encode_equals_the_relu_then_pool_order_bit_for_bit():
    """At the desk channel plan, in float64, h and every enc.* gradient
    equal the conv-ReLU-conv-ReLU-maxpool reference bit for bit, and so
    does the float32 no-grad forward; each block's graph holds two
    full-resolution nodes (conv1 and its ReLU), not four: the pool takes
    over the conv2 node."""
    config = enc.EncoderConfig(base_channels=8, n_mels=80)
    rng = np.random.default_rng(11)
    mel = rng.standard_normal((2, 48, 80))
    tgt = rng.standard_normal((2, 3, enc.output_dim(config)))
    bias = {name: rng.normal(0.0, 0.05, size=p.shape)
            for name, p in _params(config).items() if name.endswith(".b")}
    hs, grads = [], []
    for fn in (enc.encode, _encode_relu_then_pool):
        params = _params(config, seed=2)
        for name, b in bias.items():
            params[name].data = b.copy()
        h = fn(mel, params, config)
        if fn is enc.encode:
            shapes = _graph_shapes(h)
            for b, (_, cout) in enumerate(config.channel_plan):
                full = (2, cout, 48 >> b, 80 >> b)
                assert shapes.count(full) == 2, (b + 1, shapes.count(full))
        ((h - tgt) ** 2).sum().backward()
        hs.append(h.data)
        grads.append({name: p.grad for name, p in params.items()})
        with ad.no_grad():
            hs.append(fn(mel.astype(np.float32), params, config).data)
    np.testing.assert_array_equal(hs[0], hs[2])
    np.testing.assert_array_equal(hs[1], hs[3])
    assert hs[1].dtype == np.float64 and not np.array_equal(hs[0], hs[1])
    assert set(grads[0]) == set(grads[1])
    for name, g in grads[0].items():
        np.testing.assert_array_equal(g, grads[1][name], err_msg=name)


def test_encode_holds_each_rectified_map_once():
    """In a training-mode encode, each block's ReLUs run in place: the
    conv1 output shares its buffer with its ReLU, and the pooled map with
    its ReLU, so the graph keeps no pre-ReLU copy of either."""
    config = enc.EncoderConfig(base_channels=4, n_mels=32)
    mel = np.random.default_rng(3).standard_normal((2, 32, 32))
    params = _params(config)
    h = enc.encode(mel.astype(np.float32), params, config)
    seen, stack, shared = {id(h)}, [h], []
    while stack:
        node = stack.pop()
        for p in node._parents:
            if np.shares_memory(node.data, p.data):
                shared.append(node.shape)
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    for b, (_, cout) in enumerate(config.channel_plan):
        full, pooled = (2, cout, 32 >> b, 32 >> b), (2, cout, 16 >> b,
                                                      16 >> b)
        assert shared.count(full) == 1, (b + 1, shared)
        assert shared.count(pooled) == 1, (b + 1, shared)


def test_desk_training_step_peak_memory():
    """One float64 desk-shaped training step (B=16, 200 x 80 chunks,
    base_channels 8, dmha with 8 heads) peaks under 84 MB of traced
    allocations, a quarter above the 67.2 it takes with the graph freed
    behind the backward sweep, the pool's winner codes and the born-padded
    conv grids."""
    config = ModelConfig(encoder=enc.EncoderConfig(base_channels=8, n_mels=80),
                         pooling_kind="dmha", num_heads=8, hidden=64,
                         num_speakers=16, s=10.0, m=0.2)
    model = SpeakerModel(config, seed=0)
    rng = np.random.default_rng(0)
    mel = rng.standard_normal((16, 200, 80))
    labels = rng.integers(0, 16, size=16)
    tracemalloc.start()
    try:
        loss = model.forward(mel, labels=labels, training=True)["loss"]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in model.params.values())
    assert peak < 84e6, f"{peak / 1e6:.1f} MB"


def _buffer_shapes(root):
    """One node shape per distinct buffer reachable from root (the
    buffer being the array that owns a node's memory)."""
    seen, stack, shapes = {id(root)}, [root], {}
    while stack:
        node = stack.pop()
        buf = node.data
        while buf.base is not None:
            buf = buf.base
        shapes[id(buf)] = node.shape
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return list(shapes.values())


def test_desk_float32_step_holds_no_conv2_map():
    """A float32 desk training step (B=16, 200 x 80 chunks, base_channels
    8, dmha with 8 heads): from the loss, each block reaches one
    full-resolution buffer, the rectified conv1 map, since the pool takes
    over the conv2 node. The forward leaves under 31 MB of traced
    allocations held, and the step peaks under 46 MB: about 23.8 and 34.6,
    against 39 and 52.5 when the graph held each conv2 output for the
    pool's backward."""
    config = ModelConfig(encoder=enc.EncoderConfig(base_channels=8, n_mels=80),
                         pooling_kind="dmha", num_heads=8, hidden=64,
                         num_speakers=16, s=10.0, m=0.2)
    model = SpeakerModel(config, seed=0)
    rng = np.random.default_rng(0)
    mel = rng.standard_normal((16, 200, 80)).astype(np.float32)
    labels = rng.integers(0, 16, size=16)
    tracemalloc.start()
    try:
        loss = model.forward(mel, labels=labels, training=True)["loss"]
        held = tracemalloc.get_traced_memory()[0]
        shapes = _buffer_shapes(loss)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for b, (_, cout) in enumerate(config.encoder.channel_plan):
        full = (16, cout, 200 >> b, 80 >> b)
        assert shapes.count(full) == 1, (b + 1, shapes.count(full))
    assert all(p.grad is not None for p in model.params.values())
    assert held < 31e6, f"{held / 1e6:.1f} MB"
    assert peak < 46e6, f"{peak / 1e6:.1f} MB"


def test_desk_float32_step_pads_only_maps_not_born_padded(monkeypatch):
    """A float32 desk training step (B=16, 200 x 80 chunks, base_channels
    8, dmha with 8 heads) copies a map into a conv's padded grid only
    where the map was not born in one: each block's conv1 input (the mel
    or a pooled map), once in the forward and once for the weight
    gradient, so 8 copies where padding every conv's input twice and its
    output gradient once made 24. The step peaks under 37 MB of traced
    allocations: about 34.6, against 40.2 with the 24 copies."""
    pad_fold, copies = ad._pad_fold, []

    def counting(a, *args):
        f = pad_fold(a, *args)
        if not np.shares_memory(f, a):
            copies.append(a.shape)
        return f

    monkeypatch.setattr(ad, "_pad_fold", counting)
    config = ModelConfig(encoder=enc.EncoderConfig(base_channels=8, n_mels=80),
                         pooling_kind="dmha", num_heads=8, hidden=64,
                         num_speakers=16, s=10.0, m=0.2)
    model = SpeakerModel(config, seed=0)
    rng = np.random.default_rng(0)
    mel = rng.standard_normal((16, 200, 80)).astype(np.float32)
    labels = rng.integers(0, 16, size=16)
    tracemalloc.start()
    try:
        loss = model.forward(mel, labels=labels, training=True)["loss"]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in model.params.values())
    conv1_inputs = [(16, cin, 200 >> b, 80 >> b)
                    for b, (cin, _) in enumerate(config.encoder.channel_plan)]
    assert sorted(copies) == sorted(2 * conv1_inputs), copies
    assert peak < 37e6, f"{peak / 1e6:.1f} MB"


def test_output_frames_is_four_floor_halvings():
    for n in range(1001):
        halved = n
        for _ in range(4):
            halved //= 2
        assert enc.output_frames(n) == halved, n
