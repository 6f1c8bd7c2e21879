"""Log-mel front-end: framing arithmetic, filterbank geometry, CMN."""

import json
import os
import subprocess
import sys
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmha import features as ft
from dmha.metrics import FormatError


CFG = ft.FeatureConfig()


def test_frame_count_examples():
    assert ft.frame_count(400, CFG) == 1
    assert ft.frame_count(560, CFG) == 2
    assert ft.frame_count(16000, CFG) == 98  # 1 + (16000-400)//160


def test_frame_count_too_short_rejected():
    with pytest.raises(ValueError):
        ft.frame_count(399, CFG)


def test_silence_hits_energy_floor():
    out = ft.log_mel(np.zeros(800), CFG)
    np.testing.assert_array_equal(out, np.full_like(out, np.log(1e-10)))


def test_log_mel_shape_contract():
    for n in (400, 1000, 16000):
        out = ft.log_mel(np.random.default_rng(0).standard_normal(n) * 0.1,
                         CFG)
        assert out.shape == (ft.frame_count(n, CFG), CFG.n_mels)


def test_pure_tone_lands_in_bracketing_filter():
    t = np.arange(16000) / CFG.sample_rate
    tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    mel = ft.log_mel(tone, CFG)
    centers = ft.filter_centers_hz(CFG)
    peak_bin = int(np.argmax(mel.mean(axis=0)))
    # the winning filter's triangle must actually cover 1 kHz
    mel_pts = ft.mel_to_hz(np.linspace(ft.hz_to_mel(CFG.fmin),
                                       ft.hz_to_mel(CFG.fmax),
                                       CFG.n_mels + 2))
    lo, hi = mel_pts[peak_bin], mel_pts[peak_bin + 2]
    assert lo < 1000.0 < hi
    # and its center is the closest-to-1kHz center within one filter width
    assert abs(centers[peak_bin] - 1000.0) <= (hi - lo)


def test_flat_spectrum_reproduces_filter_row_sums():
    fb = ft.mel_filterbank(CFG)
    flat = np.ones(CFG.n_fft // 2 + 1)
    np.testing.assert_allclose(fb @ flat, fb.sum(axis=1), atol=1e-12)


def test_filterbank_geometry():
    fb = ft.mel_filterbank(CFG)
    assert (fb >= 0).all()
    # adjacent triangles overlap: filter i ends at the center of filter i+1's
    # right neighbor, past filter i+1's start (checked on the continuous
    # edges; at low frequencies the triangles are narrower than one FFT bin)
    mel_pts = ft.mel_to_hz(np.linspace(ft.hz_to_mel(CFG.fmin),
                                       ft.hz_to_mel(CFG.fmax),
                                       CFG.n_mels + 2))
    for i in range(CFG.n_mels - 1):
        hi_i, lo_next = mel_pts[i + 2], mel_pts[i + 1]
        assert hi_i > lo_next
    # every FFT bin strictly inside (fmin, fmax) touches >= 1 filter
    freqs = np.arange(CFG.n_fft // 2 + 1) * CFG.sample_rate / CFG.n_fft
    centers = ft.filter_centers_hz(CFG)
    inside = (freqs > centers[0]) & (freqs < centers[-1])
    assert (fb.sum(axis=0)[inside] > 0).all()


def test_mel_scale_is_htk():
    assert ft.hz_to_mel(0.0) == 0.0
    np.testing.assert_allclose(ft.hz_to_mel(700.0), 2595.0 * np.log10(2.0))
    np.testing.assert_allclose(ft.mel_to_hz(ft.hz_to_mel(1234.5)), 1234.5)


def test_cmn_constant_and_single_frame():
    np.testing.assert_array_equal(ft.cmn(np.full((4, 3), 2.5)),
                                  np.zeros((4, 3)))
    np.testing.assert_array_equal(ft.cmn(np.ones((1, 3))), np.zeros((1, 3)))


def test_cmn_zero_column_means(rng):
    out = ft.cmn(rng.standard_normal((5, 8)))
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_cmn_idempotent(seed):
    x = np.random.default_rng(seed).standard_normal((6, 4))
    once = ft.cmn(x)
    np.testing.assert_allclose(ft.cmn(once), once, atol=1e-12)


def test_cmn_preserves_variance(rng):
    x = rng.standard_normal((20, 4)) * 3.0 + 1.0
    np.testing.assert_allclose(ft.cmn(x).var(axis=0), x.var(axis=0),
                               atol=1e-12)


def test_wav_round_trip(tmp_path, rng):
    audio = np.clip(rng.standard_normal(1600) * 0.1, -1, 1)
    path = tmp_path / "x.wav"
    ft.write_wav(path, audio)
    back = ft.read_wav(path)
    assert back.shape == audio.shape
    np.testing.assert_allclose(back, audio, atol=1.0 / 32767.0)


def test_read_wav_rejects_wrong_rate(tmp_path, rng):
    path = tmp_path / "bad.wav"
    ft.write_wav(path, rng.standard_normal(800) * 0.1, sample_rate=8000)
    with pytest.raises(ValueError, match="16000"):
        ft.read_wav(path)


def test_feature_config_validation():
    with pytest.raises(ValueError):
        ft.FeatureConfig(win_length=600, n_fft=512)
    with pytest.raises(ValueError):
        ft.FeatureConfig(fmax=9000.0)


def test_cached_front_end_constants_give_the_uncached_features(
        tmp_path, rng, monkeypatch):
    """The filterbank and window are built once per config, read-only, and
    utterance_features keeps the bits of building them per call."""
    cfg = ft.FeatureConfig(n_mels=32)
    fb = ft.mel_filterbank(cfg)
    assert fb is ft.mel_filterbank(ft.FeatureConfig(n_mels=32))
    assert not fb.flags.writeable
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    np.testing.assert_array_equal(fb, ft.mel_filterbank.__wrapped__(cfg))
    path = tmp_path / "u.wav"
    ft.write_wav(path, np.clip(rng.standard_normal(16000) * 0.1, -1, 1))
    cached = ft.utterance_features(path, cfg)
    monkeypatch.setattr(ft, "mel_filterbank", ft.mel_filterbank.__wrapped__)
    monkeypatch.setattr(ft, "_window", lambda c: np.hamming(c.win_length))
    np.testing.assert_array_equal(cached, ft.utterance_features(path, cfg))


def _log_mel_framed_by_a_slice_loop(audio, cfg):
    starts = range(0, len(audio) - cfg.win_length + 1, cfg.hop)
    frames = np.array([audio[s:s + cfg.win_length] for s in starts])
    spec = np.abs(np.fft.rfft(frames * np.hamming(cfg.win_length),
                              n=cfg.n_fft, axis=1)) ** 2
    mel = spec @ ft.mel_filterbank(cfg).T
    return np.log(np.maximum(mel, ft.ENERGY_FLOOR))


@pytest.mark.parametrize("num_samples", [400, 401, 559, 560, 16000, 96037])
def test_log_mel_equals_a_per_frame_slice_loop(rng, num_samples):
    """The strided framing takes the same samples as slicing each frame
    out of the signal by hand, so the features keep every bit."""
    cfg = ft.FeatureConfig()
    audio = rng.uniform(-1.0, 1.0, num_samples)
    got = ft.log_mel(audio, cfg)
    assert got.shape == (ft.frame_count(num_samples, cfg), cfg.n_mels)
    np.testing.assert_array_equal(got,
                                  _log_mel_framed_by_a_slice_loop(audio, cfg))


def _filterbank_by_a_row_loop(cfg):
    """One triangle per row, from the n_mels + 2 mel-spaced edges."""
    n_bins = cfg.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    hz_pts = ft.mel_to_hz(np.linspace(ft.hz_to_mel(cfg.fmin),
                                      ft.hz_to_mel(cfg.fmax), cfg.n_mels + 2))
    fb = np.zeros((cfg.n_mels, n_bins))
    for i in range(cfg.n_mels):
        lo, ctr, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        rising = (fft_freqs - lo) / (ctr - lo)
        falling = (hi - fft_freqs) / (hi - ctr)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling))
    return fb, hz_pts[1:-1]


@pytest.mark.parametrize("n_mels", [16, 32, 40, 80, 128])
def test_filterbank_equals_a_per_filter_loop(n_mels):
    """The broadcast filterbank and the filter centres keep every bit of
    building each triangle on its own."""
    cfg = ft.FeatureConfig(n_mels=n_mels)
    want, centers = _filterbank_by_a_row_loop(cfg)
    got = ft.mel_filterbank.__wrapped__(cfg)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert ft.filter_centers_hz(cfg).tobytes() == centers.tobytes()


@pytest.mark.parametrize("module", ["dmha", "dmha.features"])
def test_importing_the_front_end_loads_no_training_code(module):
    """The package __init__ re-exports nothing, so importing the package
    or its front-end does not pull in the model, config or trainer."""
    src = os.path.dirname(os.path.dirname(ft.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True).stdout
    assert not {"dmha.trainer", "dmha.config", "dmha.model"} & set(
        json.loads(out))


# ---- input checks ----------------------------------------------------------------


def _write_raw_wav(path, channels, sampwidth):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(16000)
        wf.writeframes(bytes(channels * sampwidth * 800))


@pytest.mark.parametrize("channels, sampwidth, message", [
    (2, 2, "expected mono, got 2 channels"),
    (1, 1, "expected 16-bit PCM, got 8-bit"),
], ids=["stereo", "8-bit"])
def test_read_wav_rejects_a_layout_it_cannot_read(tmp_path, channels,
                                                  sampwidth, message):
    path = tmp_path / "x.wav"
    _write_raw_wav(path, channels, sampwidth)
    with pytest.raises(ValueError) as exc:
        ft.read_wav(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.fixture(scope="module")
def wav_fuzz(tmp_path_factory):
    """(directory, the bytes of a valid 800-sample noise wav)."""
    directory = tmp_path_factory.mktemp("wav_fuzz")
    ft.write_wav(directory / "valid.wav",
                 np.random.default_rng(0).uniform(-0.5, 0.5, 800))
    return directory, (directory / "valid.wav").read_bytes()


# a cut offset into the 1644-byte file, or (offset, byte) writes into its
# 44-byte header and the first samples
_WAV_DAMAGE = st.one_of(
    st.integers(0, 1643),
    st.lists(st.tuples(st.integers(0, 59), st.integers(0, 255)),
             min_size=1, max_size=4))


@given(damage=_WAV_DAMAGE)
# the fmt chunk's size read as 235 walks into the samples; wave's seek
# once raised a bare RuntimeError there
@example(damage=[(16, 235)])
@settings(max_examples=300, deadline=None)
def test_damaged_wav_reads_or_raises_a_format_error(wav_fuzz, damage):
    """A valid wav cut at any offset, or with 1-4 of its first 60 bytes
    overwritten, either reads or gives a FormatError naming the file."""
    directory, good = wav_fuzz
    if isinstance(damage, int):
        damaged = good[:damage]
    else:
        damaged = bytearray(good)
        for at, byte in damage:
            damaged[at] = byte
    path = directory / "damaged.wav"
    path.write_bytes(damaged)
    try:
        ft.read_wav(path)
    except FormatError as exc:
        assert (exc.path, exc.line) == (path, None), exc
        assert str(exc).startswith(f"{path}: "), exc


@pytest.mark.parametrize("kwargs, message", [
    ({"hop": 401}, "hop must be <= win_length"),
    ({"n_mels": 0}, "n_mels must be >= 1"),
])
def test_feature_config_rejects_a_hop_past_the_window_and_no_mels(kwargs,
                                                                  message):
    with pytest.raises(ValueError, match=message):
        ft.FeatureConfig(**kwargs)


def test_cmn_of_zero_frames_raises():
    with pytest.raises(ValueError, match="at least one frame"):
        ft.cmn(np.zeros((0, 3)))
