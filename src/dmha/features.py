"""Log-mel spectrogram front-end: framing, HTK mel filterbank, CMN."""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np

from .metrics import naming

ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    win_length: int = 400   # 25 ms
    hop: int = 160          # 10 ms
    n_fft: int = 512
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0

    def __post_init__(self):
        if not (self.win_length <= self.n_fft):
            raise ValueError("win_length must be <= n_fft")
        if not (self.hop <= self.win_length):
            raise ValueError("hop must be <= win_length")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if self.fmax > self.sample_rate / 2:
            raise ValueError("fmax must be <= Nyquist")


def read_wav(path) -> np.ndarray:
    """Read a 16 kHz 16-bit PCM mono RIFF wav into float64 in [-1, 1]; a
    file that is not one is a FormatError."""
    with naming(path):
        try:
            with wave.open(str(path), "rb") as wf:
                if wf.getnchannels() != 1:
                    raise ValueError("expected mono, got "
                                     f"{wf.getnchannels()} channels")
                if wf.getsampwidth() != 2:
                    raise ValueError("expected 16-bit PCM, got "
                                     f"{8 * wf.getsampwidth()}-bit")
                if wf.getframerate() != 16000:
                    raise ValueError(f"expected 16000 Hz, got "
                                     f"{wf.getframerate()} Hz (no resampling)")
                declared = wf.getnframes()
                raw = wf.readframes(declared)
        # a chunk size past the RIFF chunk's end makes wave's seek raise a
        # bare RuntimeError
        except RuntimeError:
            raise ValueError("not a PCM wav file (a chunk runs past the end "
                             "of the file)") from None
        # a text-less EOFError is a header cut short
        except (wave.Error, EOFError) as exc:
            raise ValueError("not a PCM wav file "
                             f"({str(exc) or 'truncated header'})") from None
        if len(raw) % 2:
            raise ValueError("truncated in the middle of a sample")
        if len(raw) != 2 * declared:
            raise ValueError(f"truncated: {len(raw) // 2} of the "
                             f"{declared} samples the header declares")
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_wav(path, audio: np.ndarray, sample_rate: int = 16000):
    """Write float audio in [-1, 1] as 16-bit PCM mono."""
    pcm = np.clip(np.round(audio * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())


def frame_count(num_samples: int, config: FeatureConfig) -> int:
    """Number of analysis frames; no padding of the signal tail."""
    if num_samples < config.win_length:
        raise ValueError(
            f"signal of {num_samples} samples shorter than one window "
            f"({config.win_length} samples)")
    return 1 + (num_samples - config.win_length) // config.hop


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_points_hz(config: FeatureConfig) -> np.ndarray:
    """The n_mels + 2 filter edges in Hz, equally spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(config.fmin),
                                 hz_to_mel(config.fmax), config.n_mels + 2))


@functools.lru_cache(maxsize=None)
def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular filters (n_mels x n_fft//2+1) on the HTK mel scale.
    Computed once per config and returned read-only."""
    fft_freqs = (np.arange(config.n_fft // 2 + 1) * config.sample_rate
                 / config.n_fft)
    hz = _mel_points_hz(config)[:, None]
    lo, ctr, hi = hz[:-2], hz[1:-1], hz[2:]
    rising = (fft_freqs - lo) / (ctr - lo)
    falling = (hi - fft_freqs) / (hi - ctr)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=None)
def _window(config: FeatureConfig) -> np.ndarray:
    """Read-only Hamming analysis window, computed once per config."""
    w = np.hamming(config.win_length)
    w.flags.writeable = False
    return w


def filter_centers_hz(config: FeatureConfig) -> np.ndarray:
    return _mel_points_hz(config)[1:-1]


def log_mel(audio: np.ndarray, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """N x n_mels log mel-spectrogram (pre-CMN).

    Hamming window, zero-pad to n_fft, magnitude-squared spectrum, mel
    filterbank, natural log floored at ENERGY_FLOOR.
    """
    audio = np.asarray(audio, dtype=np.float64)
    frame_count(len(audio), config)  # rejects audio shorter than a window
    frames = (np.lib.stride_tricks.sliding_window_view(
        audio, config.win_length)[::config.hop] * _window(config))
    spec = np.abs(np.fft.rfft(frames, n=config.n_fft, axis=1)) ** 2
    mel = spec @ mel_filterbank(config).T
    return np.log(np.maximum(mel, ENERGY_FLOOR))


def cmn(m: np.ndarray) -> np.ndarray:
    """Subtract the per-coefficient mean over frames (variance untouched)."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] < 1:
        raise ValueError("cmn needs at least one frame")
    return m - m.mean(axis=0, keepdims=True)


def utterance_features(path, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """wav path -> CMN-normalized N x n_mels log-mel matrix; audio shorter
    than one window is a FormatError."""
    with naming(path):
        return cmn(log_mel(read_wav(path), config))
