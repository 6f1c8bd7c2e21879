"""Training loop: chunking, Adam oracle, checkpoints, determinism,
annealing."""

import dataclasses
import struct

import numpy as np
import pytest

from dmha import autodiff as ad
from dmha import features as feat
from dmha import trainer as tr
from dmha.features import FeatureConfig
from dmha.autodiff import Tensor
from dmha.model import SpeakerModel


def _tiny_train_config(**kw):
    base = dict(chunk_frames=64, batch_size=4, lr=1e-3, weight_decay=1e-3,
                max_epochs=2, anneal_patience=15, anneal_factor=0.5,
                seed=7, validation_fraction=0.0)
    base.update(kw)
    return tr.TrainConfig(**base)


# ---- chunk sampling -----------------------------------------------------------


def test_sample_chunk_identity_window(rng):
    frames = rng.standard_normal((50, 4))
    out = tr.sample_chunk(frames, 50, rng)
    np.testing.assert_array_equal(out, frames)


def test_sample_chunk_offset_bounds(rng):
    frames = np.arange(700.0)[:, None]
    for _ in range(50):
        out = tr.sample_chunk(frames, 350, rng)
        assert out.shape == (350, 1)
        off = int(out[0, 0])
        assert 0 <= off <= 350
        np.testing.assert_array_equal(out[:, 0], np.arange(off, off + 350.0))


def test_sample_chunk_wrap_pads_short_utterance(rng):
    frames = np.arange(100.0)[:, None]
    for _ in range(20):
        out = tr.sample_chunk(frames, 350, rng)
        assert out.shape == (350, 1)
        # the wrapped signal is periodic with the original content
        np.testing.assert_array_equal(out[:, 0] % 100,
                                      (out[0, 0] + np.arange(350)) % 100)


def test_fixed_chunk_is_deterministic_leading_window(rng):
    frames = rng.standard_normal((40, 3))
    np.testing.assert_array_equal(tr.fixed_chunk(frames, 20), frames[:20])
    wrapped = tr.fixed_chunk(frames, 100)
    assert wrapped.shape == (100, 3)
    np.testing.assert_array_equal(wrapped[:40], frames)
    np.testing.assert_array_equal(wrapped[40:80], frames)


def _tiled_chunk(frames, chunk_frames, rng=None):
    """The tile-and-slice formula: a long utterance's window is a slice, a
    short one's is cut from the utterance repeated end to end; rng=None
    takes the leading window."""
    n = len(frames)
    if n >= chunk_frames:
        off = 0 if rng is None else int(rng.integers(0, n - chunk_frames + 1))
        return frames[off:off + chunk_frames]
    tiled = np.concatenate([frames] * (-(-(chunk_frames + n) // n)), axis=0)
    off = 0 if rng is None else int(rng.integers(0, n))
    return tiled[off:off + chunk_frames]


@pytest.mark.parametrize("n", [700, 351, 350, 349, 100, 1],
                         ids=["long", "one-longer", "equal", "one-shorter",
                              "short", "one-frame"])
def test_chunks_equal_the_tile_and_slice_formula(n):
    frames = np.random.default_rng(n).standard_normal((n, 3)).astype(
        np.float32)
    rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(20):
        got = tr.sample_chunk(frames, 350, rng)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, _tiled_chunk(frames, 350,
                                                        oracle_rng))
    # one draw per chunk, with the same bounds
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_array_equal(tr.fixed_chunk(frames, 350),
                                  _tiled_chunk(frames, 350))


# ---- Adam ---------------------------------------------------------------------


def test_adam_zero_gradient_no_decay_is_identity(rng):
    p = {"w": Tensor(rng.standard_normal(5), requires_grad=True)}
    before = p["w"].data.copy()
    tr.adam_step(p, {"w": np.zeros(5)}, tr.AdamState(), lr=0.1,
                 weight_decay=0.0)
    np.testing.assert_array_equal(p["w"].data, before)


def test_adam_first_step_hand_oracle(rng):
    g = rng.standard_normal(6)
    w0 = rng.standard_normal(6)
    p = {"w": Tensor(w0.copy(), requires_grad=True)}
    lr = 0.01
    tr.adam_step(p, {"w": g.copy()}, tr.AdamState(), lr=lr, weight_decay=0.0)
    # independent hand computation of the bias-corrected first step
    m = 0.1 * g / (1 - 0.9)
    v = 0.001 * g * g / (1 - 0.999)
    expected = w0 - lr * m / (np.sqrt(v) + 1e-8)
    np.testing.assert_allclose(p["w"].data, expected, atol=1e-15)
    # magnitude is ~lr per coordinate (sign step) away from tiny gradients
    step = np.abs(p["w"].data - w0)
    assert (step <= lr + 1e-9).all()
    assert (step[np.abs(g) > 1e-4] > 0.9 * lr).all()


def test_adam_decay_only_shrinks_norm(rng):
    p = {"w": Tensor(rng.standard_normal(8) * 3.0, requires_grad=True)}
    state = tr.AdamState()
    norms = [np.linalg.norm(p["w"].data)]
    for _ in range(5):
        tr.adam_step(p, {"w": np.zeros(8)}, state, lr=0.01, weight_decay=0.1)
        norms.append(np.linalg.norm(p["w"].data))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_adam_shape_mismatch_rejected(rng):
    p = {"w": Tensor(np.zeros(3), requires_grad=True)}
    with pytest.raises(ValueError):
        tr.adam_step(p, {"w": np.zeros(4)}, tr.AdamState(), lr=0.1,
                     weight_decay=0.0)


# ---- checkpoint format ---------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    config = {"model.kind": "dmha", "train.lr": repr(0.5 * np.pi)}
    tensors = {"a.w": rng.standard_normal((3, 4)),
               "b": rng.standard_normal(7),
               "scalarish": np.array(2.0)}
    p1 = tmp_path / "one.ckpt"
    p2 = tmp_path / "two.ckpt"
    tr.save_checkpoint(p1, config, tensors)
    c2, t2 = tr.load_checkpoint(p1)
    assert c2 == {k: str(v) for k, v in config.items()}
    for k in tensors:
        np.testing.assert_array_equal(t2[k], tensors[k])
        assert t2[k].dtype == np.float64
    tr.save_checkpoint(p2, c2, t2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a DMHA checkpoint"):
        tr.load_checkpoint(p)


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("spk0\tspk0-u0\t/x/a.wav\nspk1\tspk1-u0\t/x/b.wav\n")
    utts = tr.load_manifest(path)
    assert utts == [tr.Utterance("spk0", "spk0-u0", "/x/a.wav"),
                    tr.Utterance("spk1", "spk1-u0", "/x/b.wav")]


# ---- training loop --------------------------------------------------------------


def test_train_rejects_degenerate_dataset(tmp_path, tiny_run_config):
    utts = [tr.Utterance("a", "a-0", "x.wav"), tr.Utterance("a", "a-1", "y.wav")]
    with pytest.raises(ValueError, match="degenerate"):
        tr.train(_tiny_train_config(), utts,
                 tiny_run_config.model_config(2), tmp_path)


def test_single_step_reduces_batch_loss(tiny_corpus, tiny_run_config, rng):
    """One Adam step at lr=1e-6 on a fixed batch lowers that batch's loss."""
    _, utts = tiny_corpus
    cache = tr.FeatureCache(utts, tiny_run_config.feature_config())
    model = SpeakerModel(tiny_run_config.model_config(3), seed=1)
    mels = [tr.fixed_chunk(cache(u.utt_id), 64) for u in utts[:4]]
    labels = [0, 0, 1, 2]
    adam = tr.AdamState()
    for trial in range(3):
        loss0 = tr._forward_batch(model, mels, labels, training=True)
        for p in model.params.values():
            p.zero_grad()
        loss0.backward()
        grads = {n: p.grad for n, p in model.params.items()
                 if p.grad is not None}
        tr.adam_step(model.params, grads, adam, lr=1e-6, weight_decay=0.0)
        loss1 = tr._forward_batch(model, mels, labels, training=True)
        assert loss1.item() < loss0.item()


def test_two_speaker_smoke_run_beats_chance(tiny_corpus, tmp_path,
                                            tiny_run_config):
    _, utts = tiny_corpus
    two = [u for u in utts if u.speaker in ("spk000", "spk002")]
    cfg = _tiny_train_config(max_epochs=50, lr=3e-3,
                             train_loss_goal=float(np.log(2.0)))
    res = tr.train(cfg, two, tiny_run_config.model_config(2),
                   tmp_path / "smoke")
    assert res.final_train_loss < np.log(2.0)
    assert res.epochs_run <= 50


def test_train_determinism_byte_identical(tiny_corpus, tmp_path,
                                          tiny_run_config):
    _, utts = tiny_corpus
    cfg = _tiny_train_config(max_epochs=2)
    paths = []
    for tag in ("r1", "r2"):
        res = tr.train(cfg, utts, tiny_run_config.model_config(3),
                       tmp_path / tag)
        paths.append((res.best_path, res.last_path))
    for a, b in zip(paths[0], paths[1]):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def test_resume_matches_unbroken_run(tiny_corpus, tmp_path, tiny_run_config):
    """Epoch-keyed RNG streams make a resumed run replay the identical batch
    sequence: 1 epoch + 1 resumed epoch == 2 straight epochs, and the first
    3 steps after the restart match the unbroken run bit-exactly."""
    _, utts = tiny_corpus
    mc = tiny_run_config.model_config(3)
    # batch 3 over 9 utterances: exactly 3 steps per epoch
    kw = dict(batch_size=3)

    straight_steps = []

    def hook_straight(epoch, step, model):
        if epoch == 2 and step <= 3:
            straight_steps.append(
                {n: p.data.copy() for n, p in model.params.items()})

    res2 = tr.train(_tiny_train_config(max_epochs=2, **kw), utts, mc,
                    tmp_path / "straight", step_hook=hook_straight)

    res1 = tr.train(_tiny_train_config(max_epochs=1, **kw), utts, mc,
                    tmp_path / "part1")

    resumed_steps = []

    def hook_resumed(epoch, step, model):
        if epoch == 2 and step <= 3:
            resumed_steps.append(
                {n: p.data.copy() for n, p in model.params.items()})

    res_r = tr.train(_tiny_train_config(max_epochs=2, **kw), utts, mc,
                     tmp_path / "resumed", resume=res1.last_path,
                     step_hook=hook_resumed)

    assert len(straight_steps) == len(resumed_steps) == 3
    for a, b in zip(straight_steps, resumed_steps):
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
    with open(res2.last_path, "rb") as fa, open(res_r.last_path, "rb") as fb:
        assert fa.read() == fb.read()


def test_plateau_anneal_triggers_at_patience(tiny_corpus, tmp_path,
                                             tiny_run_config, monkeypatch):
    """Freeze the loss at a constant so validation never improves after
    epoch 1: the anneal must fire exactly at epoch patience+1 and then
    every patience epochs."""
    _, utts = tiny_corpus
    monkeypatch.setattr(tr, "_forward_batch",
                        lambda model, mels, labels, training: Tensor(1.0))
    cfg = _tiny_train_config(max_epochs=7, anneal_patience=3,
                             validation_fraction=0.34)
    res = tr.train(cfg, utts, tiny_run_config.model_config(3),
                   tmp_path / "flat")
    assert res.anneal_epochs == [4, 7]
    lrs = [row[3] for row in res.log_rows]
    assert lrs == [1e-3] * 3 + [1e-3] + [5e-4] * 3  # anneal applies next epoch
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))  # non-increasing


def test_training_log_csv(tiny_corpus, tmp_path, tiny_run_config):
    _, utts = tiny_corpus
    out = tmp_path / "log"
    res = tr.train(_tiny_train_config(max_epochs=2, validation_fraction=0.34),
                   utts, tiny_run_config.model_config(3), out)
    lines = (out / "train_log.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert len(lines) == 1 + res.epochs_run
    e, tl, vl, lr = lines[1].split(",")
    assert int(e) == 1 and float(tl) > 0 and float(vl) > 0


def test_load_model_round_trip(tiny_corpus, tmp_path, tiny_run_config):
    _, utts = tiny_corpus
    res = tr.train(_tiny_train_config(max_epochs=1), utts,
                   tiny_run_config.model_config(3), tmp_path / "rt")
    model, meta = tr.load_model(res.best_path)
    assert meta["model.pooling_kind"] == "dmha"
    emb1 = model.extract_from_wav(utts[0].path)
    emb2 = model.extract_from_wav(utts[0].path)
    np.testing.assert_array_equal(emb1, emb2)
    assert emb1.shape == (tiny_run_config.hidden,)


def test_load_model_draws_no_random_number(tiny_corpus, tmp_path,
                                           tiny_run_config, monkeypatch):
    """The checkpoint's tensors make the loaded model, with no throwaway
    draw: it builds while numpy's default_rng raises, and extracts the bits
    of the trained model that wrote last.ckpt."""
    _, utts = tiny_corpus
    trained = []
    res = tr.train(_tiny_train_config(max_epochs=1), utts,
                   tiny_run_config.model_config(3), tmp_path / "run",
                   step_hook=lambda epoch, step, model: trained.append(model))

    def no_draw(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    model, _ = tr.load_model(res.last_path)
    for u in utts:
        for got, want in zip(model.extract(u.path), trained[-1].extract(u.path)):
            np.testing.assert_array_equal(got, want)


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(chunk_frames=8)
    with pytest.raises(ValueError):
        tr.TrainConfig(anneal_factor=1.0)
    with pytest.raises(ValueError):
        tr.TrainConfig(anneal_patience=0)


def test_step_does_not_pin_previous_graph(tiny_corpus, tmp_path,
                                          tiny_run_config):
    """The loss of step 1 (and with it its whole graph and intermediate
    gradients) must be released before step 2's forward runs: the traced
    allocation peak of step 2 stays within 10% of step 1's."""
    import tracemalloc

    _, utts = tiny_corpus
    mc = tiny_run_config.model_config(3)
    peaks = []

    def hook(epoch, step, model):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        # batch 4 over 9 utterances: steps of 4 and 4 (the last 1 is skipped)
        tr.train(_tiny_train_config(max_epochs=1), utts, mc, tmp_path,
                 step_hook=hook)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_train_front_end_defaults_to_the_model(tiny_corpus, tmp_path,
                                               tiny_run_config):
    """Without an explicit fconfig, training builds features with the
    model's own n_mels, the front-end extraction uses too."""
    _, utts = tiny_corpus
    cfg = dataclasses.replace(tiny_run_config, n_mels=64)
    res = tr.train(_tiny_train_config(max_epochs=1), utts,
                   cfg.model_config(3), tmp_path)
    model, _ = tr.load_model(res.best_path)
    assert model.config.encoder.n_mels == 64
    assert model.feature_config() == cfg.feature_config()


def test_train_rejects_a_front_end_the_model_was_not_built_for(
        tiny_corpus, tmp_path, tiny_run_config):
    """The checkpoint records only the model's n_mels, so a run on another
    front-end would be extracted with the wrong one."""
    _, utts = tiny_corpus
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="does not match the model's"):
        tr.train(_tiny_train_config(max_epochs=1), utts,
                 tiny_run_config.model_config(3), out,
                 fconfig=FeatureConfig(n_mels=32, hop=80))
    assert not out.exists()


# ---- float32 encoder in training ------------------------------------------------


def test_feature_cache_holds_float32_features(tiny_corpus, tiny_run_config):
    _, utts = tiny_corpus
    fconfig = tiny_run_config.feature_config()
    cache = tr.FeatureCache(utts[:2], fconfig)
    for u in utts[:2]:
        assert cache[u.utt_id].dtype == np.float32
        np.testing.assert_array_equal(
            cache[u.utt_id],
            feat.utterance_features(u.path, fconfig).astype(np.float32))


def test_training_runs_the_conv_in_float32_with_float64_parameters(
        tiny_corpus, tmp_path, tiny_run_config, monkeypatch):
    """Every conv input, in the training steps and in validation, is
    float32; every parameter and its gradient stays float64."""
    _, utts = tiny_corpus
    conv = ad.conv2d_same
    seen = []  # (graph enabled, conv input dtype) per call

    def spy(x, w, b):
        seen.append((ad._grad_enabled, x.data.dtype))
        return conv(x, w, b)

    monkeypatch.setattr(ad, "conv2d_same", spy)
    steps = []

    def hook(epoch, step, model):
        steps.append(step)
        for name, p in model.params.items():
            assert p.data.dtype == np.float64, name
            assert p.grad is not None and p.grad.dtype == np.float64, name

    tr.train(_tiny_train_config(max_epochs=1, validation_fraction=0.34),
             utts, tiny_run_config.model_config(3), tmp_path,
             step_hook=hook)
    assert steps == [1, 2]  # 6 training chunks in batches of 4 and 2
    assert {grad for grad, _ in seen} == {True, False}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}


@pytest.mark.parametrize("field, value, message", [
    ("lr", -1e-3, "lr must be finite and > 0"),
    ("lr", 0.0, "lr must be finite and > 0"),
    ("lr", float("nan"), "lr must be finite and > 0"),
    ("lr", float("inf"), "lr must be finite and > 0"),
    ("weight_decay", -1.0, "weight_decay must be finite and >= 0"),
    ("weight_decay", float("nan"), "weight_decay must be finite and >= 0"),
    ("weight_decay", float("inf"), "weight_decay must be finite and >= 0"),
    ("validation_fraction", 1.5, r"validation_fraction must be in \[0, 1\)"),
    ("validation_fraction", 1.0, r"validation_fraction must be in \[0, 1\)"),
    ("validation_fraction", -0.1, r"validation_fraction must be in \[0, 1\)"),
    ("validation_fraction", float("nan"),
     r"validation_fraction must be in \[0, 1\)"),
], ids=["negative-lr", "zero-lr", "nan-lr", "inf-lr", "negative-decay",
        "nan-decay", "inf-decay", "fraction-above-one", "fraction-one",
        "negative-fraction", "nan-fraction"])
def test_train_config_rejects_bad_optimizer_and_split_settings(field, value,
                                                               message):
    """A negative lr would step Adam up the gradient, and a fraction of 1
    or more leaves no training utterance; each fails at construction."""
    with pytest.raises(ValueError, match=message):
        tr.TrainConfig(**{field: value})


def test_train_config_accepts_the_edges_of_its_ranges():
    tr.TrainConfig(lr=1e-12, weight_decay=0.0, validation_fraction=0.0)
    tr.TrainConfig(validation_fraction=0.999)


# ---- input checks ----------------------------------------------------------------


def test_manifest_skips_a_blank_line(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("spk0\tspk0-u0\t/x/a.wav\n\nspk1\tspk1-u0\t/x/b.wav\n")
    assert [u.utt_id for u in tr.load_manifest(path)] == ["spk0-u0",
                                                          "spk1-u0"]


def test_checkpoint_tensor_of_a_rank_numpy_cannot_hold_is_corrupt(tmp_path):
    """65 dims of size 1 are one value, but past numpy's rank limit."""
    path = tmp_path / "rank65.ckpt"
    path.write_bytes(tr.CKPT_MAGIC + struct.pack("<III", tr.CKPT_VERSION, 0, 1)
                     + struct.pack("<H", 1) + b"w" + struct.pack("<B", 65)
                     + struct.pack("<65I", *[1] * 65) + bytes(8))
    with pytest.raises(ValueError, match=r"corrupt checkpoint \(tensor w has "
                                         r"dims \(1, 1,"):
        tr.load_checkpoint(path)
