"""Workload inputs, generated from the workload seed through dmha's own
generators (``synthdata``, ``SpeakerModel`` + ``trainer.save_checkpoint``,
``metrics.write_trials``).

``run.py`` launches this file as a fresh process once per set-up repetition
and times it from process start to exit, so ``setup_s`` covers interpreter
start, the import of dmha and the input generation:

    python3 bench/inputs.py <workload> <scale> <seed> <out-dir> <trace 0|1>

The last line of its output is a JSON object with the busy seconds of the
traced dmha functions (empty when trace is 0).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import dmha  # noqa: E402
from dmha import metrics as mt  # noqa: E402
from dmha import model as mdl  # noqa: E402
from dmha import synthdata as sd  # noqa: E402
from dmha import trainer as tr  # noqa: E402
from dmha.config import RunConfig  # noqa: E402

if Path(dmha.__file__).resolve().parent != SRC / "dmha":
    raise ImportError(f"dmha imported from {dmha.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Scale:
    """Input sizes of the workloads at one scale."""

    model: dict                 # RunConfig fields shared by train and enroll
    train_speakers: int
    train_utts: int
    train_duration_s: float
    train_epochs: int           # per timed train() call
    enroll_speakers: int
    enroll_utts: int            # per speaker and per duration
    enroll_durations_s: tuple
    enroll_target: int          # trials over the enrolled utterances
    enroll_nontarget: int


# The acceptance-5 desk configuration.
DESK = Scale(
    model=dict(base_channels=8, hidden=64, pooling="dmha", heads=8, s=10.0,
               m=0.2, chunk_frames=200, batch_size=16, lr=1e-3,
               validation_fraction=0.05),
    train_speakers=16, train_utts=10, train_duration_s=4.0, train_epochs=1,
    enroll_speakers=8, enroll_utts=1, enroll_durations_s=(1.5, 3.0, 6.0),
    enroll_target=24, enroll_nontarget=200,
)

# Every code path of DESK in a few seconds; used by the smoke test.
TINY = Scale(
    model=dict(base_channels=2, hidden=16, pooling="dmha", heads=2, s=5.0,
               m=0.2, chunk_frames=64, batch_size=4, lr=1e-3,
               validation_fraction=0.05),
    train_speakers=4, train_utts=4, train_duration_s=1.0, train_epochs=1,
    enroll_speakers=2, enroll_utts=1, enroll_durations_s=(0.5, 1.0, 2.0),
    enroll_target=6, enroll_nontarget=9,
)

SCALES = {"desk": DESK, "tiny": TINY}


def run_config(scale: Scale, seed: int) -> RunConfig:
    return RunConfig(**scale.model, max_epochs=scale.train_epochs,
                     seed=seed).validate()


def build(workload: str, scale: Scale, seed: int, out_dir: Path):
    """Write one workload's inputs into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "train":
        sd.generate_corpus(out_dir / "corpus", scale.train_speakers,
                           scale.train_utts, scale.train_duration_s, seed)
    elif workload == "enroll":
        _build_enroll(scale, seed, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _build_enroll(scale: Scale, seed: int, out_dir: Path):
    # One corpus per duration (same seed, so the same speakers); utterance
    # ids get a duration prefix so the merged manifest has no duplicates.
    lines = []
    for k, dur in enumerate(scale.enroll_durations_s):
        manifest = sd.generate_corpus(out_dir / f"d{k}", scale.enroll_speakers,
                                      scale.enroll_utts, dur, seed)
        lines += [f"{u.speaker}\td{k}-{u.utt_id}\t{u.path}\n"
                  for u in tr.load_manifest(manifest)]
    (out_dir / "manifest.tsv").write_text("".join(lines))
    trials = sd.make_trials(tr.load_manifest(out_dir / "manifest.tsv"),
                            scale.enroll_target, scale.enroll_nontarget, seed)
    mt.write_trials(out_dir / "trials.txt", trials)
    cfg = run_config(scale, seed)
    model = mdl.SpeakerModel(cfg.model_config(scale.enroll_speakers), seed=seed)
    tr.save_checkpoint(out_dir / "model.ckpt",
                       tr.model_config_to_dict(model.config),
                       model.state_tensors())


def main(argv) -> int:
    workload, scale, seed, out_dir, trace = argv
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    build(workload, SCALES[scale], int(seed), Path(out_dir))
    busy = tracer.summary()["busy"] if tracer else {}
    print(json.dumps({"busy": busy}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
