"""Deterministic synthetic speaker corpus (harmonic source + noise).

Each speaker is a harmonic voice with its own fundamental frequency and
harmonic amplitude envelope; utterances jitter the pitch, glide it over
time, and modulate the harmonic amplitudes, so utterances of one speaker
are related but not identical frame-wise.
"""

from __future__ import annotations

import itertools
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .features import write_wav
from .metrics import Trial

SAMPLE_RATE = 16000
SNR_DB = 20.0
NUM_HARMONICS = 12
F0_MIN, F0_MAX = 110.0, 320.0
F0_JITTER = 0.03   # per-utterance relative f0 jitter range


@dataclass(frozen=True)
class SyntheticSpeaker:
    id: str
    f0: float
    harmonic_gains: tuple


def _speaker_bank(num_speakers: int, seed: int) -> list[SyntheticSpeaker]:
    # geometric f0 grid guarantees a minimum relative pitch margin
    f0s = np.geomspace(F0_MIN, F0_MAX, num_speakers)
    speakers = []
    for i, f0 in enumerate(f0s):
        rng = np.random.default_rng([seed, zlib.crc32(b"speaker"), i])
        tilt = rng.uniform(0.5, 1.5)   # spectral tilt exponent
        gains = rng.uniform(0.3, 1.0, size=NUM_HARMONICS)
        gains = gains / (np.arange(1, NUM_HARMONICS + 1) ** tilt)
        speakers.append(SyntheticSpeaker(
            id=f"spk{i:03d}", f0=float(f0),
            harmonic_gains=tuple(gains / gains.max())))
    return speakers


def synthesize_utterance(spk: SyntheticSpeaker, duration_s: float,
                         rng) -> np.ndarray:
    """One harmonic-plus-noise utterance at 16 kHz."""
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    f0 = spk.f0 * (1.0 + rng.uniform(-F0_JITTER, F0_JITTER))
    # slow pitch glide plus vibrato so frames are nonstationary
    glide = rng.uniform(-0.04, 0.04)
    vib_rate = rng.uniform(3.0, 7.0)
    vib_depth = rng.uniform(0.0, 0.02)
    inst_f0 = f0 * (1.0 + glide * t / duration_s
                    + vib_depth * np.sin(2 * np.pi * vib_rate * t))
    phase = 2 * np.pi * np.cumsum(inst_f0) / SAMPLE_RATE
    # per-utterance static channel: smooth random gain across harmonics;
    # additive in the log-mel domain, so CMN cancels it but raw averaged
    # mel features do not
    channel = np.exp(np.cumsum(rng.normal(0.0, 0.35, size=len(spk.harmonic_gains))))
    sig = np.zeros(n)
    for k, gain in enumerate(spk.harmonic_gains, start=1):
        am_rate = rng.uniform(0.5, 3.0)
        am_phase = rng.uniform(0, 2 * np.pi)
        am = 1.0 + 0.4 * np.sin(2 * np.pi * am_rate * t + am_phase)
        sig += gain * channel[k - 1] * am * np.sin(
            k * phase + rng.uniform(0, 2 * np.pi))
    sig /= np.sqrt(np.mean(sig ** 2))
    noise = rng.standard_normal(n)
    noise *= 10.0 ** (-SNR_DB / 20.0) / np.sqrt(np.mean(noise ** 2))
    out = sig + noise
    return 0.3 * out / np.max(np.abs(out))


def generate_corpus(out_dir, num_speakers: int, utts_per_speaker: int,
                    duration_s: float = 4.0, seed: int = 0) -> str:
    """Write WAVs plus a manifest; returns the manifest path.

    Deterministic under seed: every utterance has its own RNG stream
    derived from (seed, speaker index, utterance index).
    """
    if num_speakers < 2:
        raise ValueError("need at least 2 speakers")
    if utts_per_speaker < 1:
        raise ValueError("need at least 1 utterance per speaker")
    if not 1 / SAMPLE_RATE <= duration_s < math.inf:
        raise ValueError(f"duration must be finite and at least one sample "
                         f"(1/{SAMPLE_RATE} s), got {duration_s}")
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.tsv")
    with open(manifest, "w") as mf:
        for si, spk in enumerate(_speaker_bank(num_speakers, seed)):
            for ui in range(utts_per_speaker):
                rng = np.random.default_rng(
                    [seed, zlib.crc32(b"utt"), si, ui])
                audio = synthesize_utterance(spk, duration_s, rng)
                uid = f"{spk.id}-u{ui:03d}"
                path = os.path.join(wav_dir, uid + ".wav")
                write_wav(path, audio)
                mf.write(f"{spk.id}\t{uid}\t{path}\n")
    return manifest


def make_trials(utterances, num_target: int, num_nontarget: int,
                seed: int = 0) -> list[Trial]:
    """Random same-speaker / cross-speaker pairs, no duplicates, no
    self-pairs; utterances is a list with .speaker and .utt_id."""
    by_speaker: dict[str, list] = {}
    for u in utterances:
        by_speaker.setdefault(u.speaker, []).append(u.utt_id)
    speakers = sorted(by_speaker)
    if len(speakers) < 2:
        raise ValueError("need at least 2 speakers for trials")
    uids = {s: sorted(by_speaker[s]) for s in speakers}
    target_pool = [pair for s in speakers
                   for pair in itertools.combinations(uids[s], 2)]
    nontarget_pool = [pair for s1, s2 in itertools.combinations(speakers, 2)
                      for pair in itertools.product(uids[s1], uids[s2])]
    if num_target > len(target_pool):
        raise ValueError(f"requested {num_target} target pairs, only "
                         f"{len(target_pool)} available")
    if num_nontarget > len(nontarget_pool):
        raise ValueError(f"requested {num_nontarget} nontarget pairs, only "
                         f"{len(nontarget_pool)} available")
    rng = np.random.default_rng([seed, zlib.crc32(b"trials")])
    tsel = rng.choice(len(target_pool), size=num_target, replace=False)
    nsel = rng.choice(len(nontarget_pool), size=num_nontarget, replace=False)
    trials = [Trial(1, *target_pool[i]) for i in tsel]
    trials += [Trial(0, *nontarget_pool[i]) for i in nsel]
    return trials
