"""Synthetic corpus: determinism, speaker separation, trial construction."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmha import features as ft
from dmha import synthdata as sd
from dmha import trainer as tr


def test_corpus_regeneration_is_byte_identical(tmp_path):
    for tag in ("a", "b"):
        sd.generate_corpus(tmp_path / tag, 2, 2, duration_s=0.5, seed=11)
    for rel in ("manifest.tsv", "wav/spk000-u000.wav", "wav/spk001-u001.wav"):
        body_a = (tmp_path / "a" / rel).read_bytes()
        # the manifest embeds absolute paths; normalize those before diffing
        if rel.endswith(".tsv"):
            body_a = body_a.replace(str(tmp_path / "a").encode(),
                                    str(tmp_path / "b").encode())
        assert body_a == (tmp_path / "b" / rel).read_bytes()


def test_different_seed_changes_audio_not_structure(tmp_path):
    m1 = sd.generate_corpus(tmp_path / "s1", 2, 2, duration_s=0.5, seed=1)
    m2 = sd.generate_corpus(tmp_path / "s2", 2, 2, duration_s=0.5, seed=2)
    u1, u2 = tr.load_manifest(m1), tr.load_manifest(m2)
    assert [(u.speaker, u.utt_id) for u in u1] == \
        [(u.speaker, u.utt_id) for u in u2]
    assert ft.read_wav(u1[0].path).tolist() != ft.read_wav(u2[0].path).tolist()


def test_invalid_counts_rejected(tmp_path):
    with pytest.raises(ValueError):
        sd.generate_corpus(tmp_path, 1, 2)
    with pytest.raises(ValueError):
        sd.generate_corpus(tmp_path, 2, 0)


def test_wav_format_and_utterance_variation(tiny_corpus):
    _, utts = tiny_corpus
    a0 = ft.read_wav(utts[0].path)
    assert len(a0) == int(1.2 * 16000)
    assert np.abs(a0).max() <= 0.35
    # same speaker, different utterance: related but not identical
    a1 = ft.read_wav(utts[1].path)
    assert utts[0].speaker == utts[1].speaker
    assert not np.array_equal(a0, a1)


def test_speakers_are_spectrally_separated(tmp_path):
    """Mel-energy peak bins differ across every cross-speaker utterance pair
    for well-separated f0 (the geometric grid endpoints 110 vs 320 Hz)."""
    manifest = sd.generate_corpus(tmp_path, 2, 2, duration_s=1.0, seed=3)
    utts = tr.load_manifest(manifest)
    peaks = {}
    for u in utts:
        mel = ft.log_mel(ft.read_wav(u.path))
        peaks[u.utt_id] = int(np.argmax(mel.mean(axis=0)))
    for a in utts:
        for b in utts:
            if a.speaker != b.speaker:
                assert peaks[a.utt_id] != peaks[b.utt_id]


def test_speaker_bank_margins():
    bank = sd._speaker_bank(16, seed=0)
    f0s = [s.f0 for s in bank]
    assert f0s == sorted(f0s)
    ratios = [b / a for a, b in zip(f0s, f0s[1:])]
    assert min(ratios) > 1.07  # geometric grid guarantees a pitch margin
    assert len({s.id for s in bank}) == 16


# ---- trials ---------------------------------------------------------------------


def test_make_trials_counts_and_structure(tiny_corpus):
    _, utts = tiny_corpus
    trials = sd.make_trials(utts, 5, 12, seed=0)
    by_spk = {u.utt_id: u.speaker for u in utts}
    targets = [t for t in trials if t.label == 1]
    nontargets = [t for t in trials if t.label == 0]
    assert len(targets) == 5 and len(nontargets) == 12
    seen = set()
    for t in trials:
        assert t.enroll_id != t.test_id  # never paired with itself
        key = (t.enroll_id, t.test_id)
        assert key not in seen
        seen.add(key)
    for t in targets:
        assert by_spk[t.enroll_id] == by_spk[t.test_id]
    for t in nontargets:
        assert by_spk[t.enroll_id] != by_spk[t.test_id]


def test_make_trials_exact_small_case():
    utts = [tr.Utterance("a", "a-0", ""), tr.Utterance("a", "a-1", ""),
            tr.Utterance("b", "b-0", ""), tr.Utterance("b", "b-1", "")]
    trials = sd.make_trials(utts, 2, 2, seed=0)
    assert sum(t.label for t in trials) == 2
    assert len(trials) == 4


def test_make_trials_over_request_rejected():
    utts = [tr.Utterance("a", "a-0", ""), tr.Utterance("a", "a-1", ""),
            tr.Utterance("b", "b-0", "")]
    with pytest.raises(ValueError, match="only 1 available"):
        sd.make_trials(utts, 2, 1, seed=0)
    with pytest.raises(ValueError, match="available"):
        sd.make_trials(utts, 1, 5, seed=0)
    with pytest.raises(ValueError, match="2 speakers"):
        sd.make_trials(utts[:2], 1, 0, seed=0)


def test_make_trials_deterministic(tiny_corpus):
    _, utts = tiny_corpus
    t1 = sd.make_trials(utts, 4, 4, seed=5)
    t2 = sd.make_trials(utts, 4, 4, seed=5)
    assert [(t.label, t.enroll_id, t.test_id) for t in t1] == \
        [(t.label, t.enroll_id, t.test_id) for t in t2]


def test_failed_corpus_leaves_no_manifest(tmp_path, monkeypatch):
    """A corpus that fails part-way leaves no manifest, neither a partial
    new one nor the old one, which would name wavs now overwritten."""
    sd.generate_corpus(tmp_path, 2, 3, duration_s=0.05, seed=1)
    calls = []

    def failing_write_wav(path, audio):
        calls.append(path)
        if len(calls) == 4:
            raise OSError("disk full")
        ft.write_wav(path, audio)

    monkeypatch.setattr(sd, "write_wav", failing_write_wav)
    with pytest.raises(OSError, match="disk full"):
        sd.generate_corpus(tmp_path, 2, 3, duration_s=0.05, seed=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wav"]


def _reference_utterance(spk, duration_s, rng):
    """synthesize_utterance with a per-sample sine for every envelope."""
    n = int(round(duration_s * sd.SAMPLE_RATE))
    t = np.arange(n) / sd.SAMPLE_RATE
    f0 = spk.f0 * (1.0 + rng.uniform(-sd.F0_JITTER, sd.F0_JITTER))
    glide = rng.uniform(-0.04, 0.04)
    vib_rate = rng.uniform(3.0, 7.0)
    vib_depth = rng.uniform(0.0, 0.02)
    inst_f0 = f0 * (1.0 + glide * t / duration_s
                    + vib_depth * np.sin(2 * np.pi * vib_rate * t))
    phase = 2 * np.pi * np.cumsum(inst_f0) / sd.SAMPLE_RATE
    channel = np.exp(np.cumsum(rng.normal(0.0, 0.35,
                                          size=len(spk.harmonic_gains))))
    sig = np.zeros(n)
    for k, gain in enumerate(spk.harmonic_gains, start=1):
        am_rate = rng.uniform(0.5, 3.0)
        am_phase = rng.uniform(0, 2 * np.pi)
        am = 1.0 + 0.4 * np.sin(2 * np.pi * am_rate * t + am_phase)
        sig += gain * channel[k - 1] * am * np.sin(
            k * phase + rng.uniform(0, 2 * np.pi))
    sig /= np.sqrt(np.mean(sig ** 2))
    noise = rng.standard_normal(n)
    noise *= 10.0 ** (-sd.SNR_DB / 20.0) / np.sqrt(np.mean(noise ** 2))
    out = sig + noise
    return 0.3 * out / np.max(np.abs(out))


def _utt_rng(seed, si, ui):
    return np.random.default_rng([seed, zlib.crc32(b"utt"), si, ui])


# (seed, speakers, utterances per speaker, duration in s); every utterance
# of the first `speakers x utterances` is checked
ORACLE_CORPORA = {
    "acceptance5-u000": (42, 16, 1, 4.0),
    "ci-pipeline": (11, 4, 5, 1.5),
    "conftest": (7, 3, 3, 1.2),
    **{f"len{n}": (3, 2, 1, n / sd.SAMPLE_RATE)
       for n in (1, 255, 256, 257, 5333)},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CORPORA))
def test_utterances_match_per_sample_oracle_in_pcm(case, tmp_path):
    """Same 16-bit samples as the per-sample envelope, and the generator
    ends in the same state."""
    seed, num_speakers, utts, duration_s = ORACLE_CORPORA[case]
    for si, spk in enumerate(sd._speaker_bank(num_speakers, seed)):
        for ui in range(utts):
            rng, ref_rng = _utt_rng(seed, si, ui), _utt_rng(seed, si, ui)
            ft.write_wav(tmp_path / "a.wav",
                         sd.synthesize_utterance(spk, duration_s, rng))
            ft.write_wav(tmp_path / "b.wav",
                         _reference_utterance(spk, duration_s, ref_rng))
            assert (tmp_path / "a.wav").read_bytes() == \
                (tmp_path / "b.wav").read_bytes(), (si, ui)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(seed=st.integers(0, 2 ** 32 - 1), si=st.integers(0, 15),
       ui=st.integers(0, 99), n=st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_envelope_angle_addition_error_bound(seed, si, ui, n):
    spk = sd._speaker_bank(16, seed)[si]
    got = sd.synthesize_utterance(spk, n / sd.SAMPLE_RATE, _utt_rng(seed, si, ui))
    ref = _reference_utterance(spk, n / sd.SAMPLE_RATE, _utt_rng(seed, si, ui))
    assert got.shape == ref.shape == (n,)
    assert np.max(np.abs(got - ref)) <= 1e-13
