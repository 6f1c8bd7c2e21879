"""The workloads: one timed pass each, plus the checks on its output.

Each workload is a closed loop: one caller, one request at a time, through
dmha's public entry points only (``trainer.train``; ``cli.main(["extract"
...])`` then ``cli.main(["eval" ...])``). ``run_pass`` returns the pass's wall
time, its operations (what ``attempted`` and ``failed`` count) and its work
items (what ``throughput_per_s`` counts); ``check`` returns the failed
operations of every pass.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from dmha import cli
from dmha import trainer as tr

# Embeddings from ``dmha extract`` must match ``extract_from_wav`` to float64
# round-off, which leaves room for a change of reduction order.
EMBED_RTOL = 1e-9
# ``dmha eval`` prints scores, EER and minDCF with 9 decimals.
PRINT_TOL = 1e-9
ENROLL_SAMPLE = 6


def _run_cli(argv) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), perf_counter() - t0


class Train:
    """``trainer.train`` on the desk corpus for a whole number of epochs."""

    name = "train"
    min_passes = 2          # train_loss must repeat across passes

    def __init__(self, inputs_dir: Path, scale, seed: int, work_dir: Path):
        self.cfg = inputs.run_config(scale, seed)
        self.dataset = tr.load_manifest(inputs_dir / "corpus" / "manifest.tsv")
        self.work_dir = work_dir

    def run_pass(self, k: int) -> dict:
        stamps = []

        def hook(epoch, step, model):
            stamps.append((epoch, perf_counter()))

        t0 = perf_counter()
        result = tr.train(self.cfg.train_config(), self.dataset,
                          self.cfg.model_config(), self.work_dir / f"pass{k}",
                          fconfig=self.cfg.feature_config(), step_hook=hook)
        wall = perf_counter() - t0
        return {"wall": wall, "ops": len(stamps),
                "items": len(stamps) * self.cfg.batch_size, "stamps": stamps,
                "log_rows": result.log_rows, "loss": result.final_train_loss}

    def check(self, passes) -> list[int]:
        failed = []
        for p in passes:
            # An epoch's logged loss is the mean of its step losses, so it is
            # finite exactly when every step loss is.
            bad = {e for e, loss, *_ in p["log_rows"] if not math.isfinite(loss)}
            n = sum(1 for e, _ in p["stamps"] if e in bad)
            if p["loss"] != passes[0]["loss"]:
                n = p["ops"]
            failed.append(n)
        return failed

    def details(self, passes) -> dict:
        # Within a pass; the time to the first step is chunk sampling and
        # feature extraction, not a step.
        intervals = [b - a for p in passes
                     for (_, a), (_, b) in zip(p["stamps"], p["stamps"][1:])]
        return {
            "train_samples_per_s": {
                "value": statistics.median(p["items"] / p["wall"]
                                           for p in passes),
                "unit": "chunks/s"},
            "train_step_s_p50": {"value": statistics.median(intervals),
                                 "unit": "s", "n": len(intervals)},
            "train_loss": {"value": passes[0]["loss"], "unit": "nats"},
            "steps_per_pass": passes[0]["ops"],
        }


class Enroll:
    """``dmha extract`` over a manifest of mixed utterance durations, then
    ``dmha eval`` of a trial list over the embeddings it wrote."""

    name = "enroll"
    min_passes = 1

    def __init__(self, inputs_dir: Path, scale, seed: int, work_dir: Path):
        self.checkpoint = inputs_dir / "model.ckpt"
        self.manifest = inputs_dir / "manifest.tsv"
        self.trials = inputs_dir / "trials.txt"
        self.utts = tr.load_manifest(self.manifest)
        with open(self.trials) as f:
            self.num_trials = sum(1 for line in f if line.strip())
        self.audio_s = (scale.enroll_speakers * scale.enroll_utts
                        * sum(scale.enroll_durations_s))
        self.seed = seed
        self.work_dir = work_dir

    def run_pass(self, k: int) -> dict:
        embeddings = self.work_dir / f"embeddings{k}.txt"
        scores = self.work_dir / f"scores{k}.txt"
        rc_extract, _, extract_s = _run_cli(
            ["extract", "--checkpoint", str(self.checkpoint),
             "--data", str(self.manifest), "--out", str(embeddings)])
        rc_eval, report, eval_s = _run_cli(
            ["eval", "--embeddings", str(embeddings), "--trials",
             str(self.trials), "--scores-out", str(scores)])
        return {"wall": extract_s + eval_s, "extract_s": extract_s,
                "eval_s": eval_s, "ops": len(self.utts) + self.num_trials,
                "items": len(self.utts), "rc_extract": rc_extract,
                "rc_eval": rc_eval, "report": report,
                "embeddings": embeddings, "scores": scores}

    def check(self, passes) -> list[int]:
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(self.utts), min(ENROLL_SAMPLE, len(self.utts)),
                           replace=False)
        model, _ = tr.load_model(self.checkpoint)
        reference = {self.utts[i].utt_id: model.extract_from_wav(self.utts[i].path)
                     for i in picks}
        return [self._failed_embeddings(p, reference) + self._failed_trials(p)
                for p in passes]

    def _failed_embeddings(self, p, reference) -> int:
        if p["rc_extract"] != 0:
            return len(self.utts)
        got = _read_embedding_file(p["embeddings"])
        n = max(0, len(got) - len(self.utts))   # lines for no utterance
        for u in self.utts:
            e = got.get(u.utt_id)
            ref = reference.get(u.utt_id)
            if e is None or not np.all(np.isfinite(e)):
                n += 1
            elif ref is not None and not (
                    e.shape == ref.shape and np.max(np.abs(e - ref))
                    <= EMBED_RTOL * max(1.0, np.max(np.abs(ref)))):
                n += 1
        return n

    def _failed_trials(self, p) -> int:
        if p["rc_extract"] != 0 or p["rc_eval"] != 0:
            return self.num_trials
        oracle = score_oracle(p["embeddings"], self.trials)
        report = _parse_report(p["report"])
        if not (report.get("num_trials") == self.num_trials
                and abs(report.get("eer", math.inf) - oracle["eer"]) <= PRINT_TOL
                and abs(report.get("min_dcf", math.inf) - oracle["min_dcf"])
                <= PRINT_TOL):
            return self.num_trials
        return _check_score_file(p["scores"], oracle)

    def details(self, passes) -> dict:
        report = _parse_report(passes[0]["report"])
        return {
            "extract_utts_per_s": {
                "value": statistics.median(len(self.utts) / p["extract_s"]
                                           for p in passes),
                "unit": "utterances/s"},
            "eval_trials_per_s": {
                "value": statistics.median(self.num_trials / p["eval_s"]
                                           for p in passes),
                "unit": "trials/s"},
            "eer": report.get("eer"),
            "min_dcf": report.get("min_dcf"),
            "audio_s_per_pass": self.audio_s,
            "utterances_per_pass": len(self.utts),
            "trials_per_pass": self.num_trials,
        }


WORKLOADS = {w.name: w for w in (Train, Enroll)}


# ---- independent readers and the scoring oracle ------------------------------


def _read_embedding_file(path) -> dict[str, np.ndarray]:
    with open(path) as f:
        header = dict(kv.split("=") for kv in f.readline().split())
        dim = int(header["dim"])
        out = {}
        for line in f:
            parts = line.split()
            e = np.array(parts[1:], dtype=np.float64)
            out[parts[0]] = e if e.shape == (dim,) else np.full(dim, np.nan)
    return out


def _parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in ("num_trials", "eer", "min_dcf"):
            out[key] = int(value) if key == "num_trials" else float(value)
    return out


def score_oracle(embeddings_path, trials_path, p_target: float = 0.01) -> dict:
    """Vectorised cosine scores, then EER and unnormalised minDCF (unit
    costs) from a sweep over thresholds at -inf, the midpoints between
    distinct scores and +inf, accepting score >= threshold."""
    emb = _read_embedding_file(embeddings_path)
    index = {uid: i for i, uid in enumerate(emb)}
    mat = np.stack(list(emb.values()))
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    with open(trials_path) as f:
        rows = [line.split() for line in f if line.strip()]
    labels = np.array([r[0] == "1" for r in rows])
    scores = gram[[index[r[1]] for r in rows], [index[r[2]] for r in rows]]

    values, inverse = np.unique(scores, return_inverse=True)
    tgt = np.bincount(inverse, weights=labels, minlength=len(values))
    non = np.bincount(inverse, weights=~labels, minlength=len(values))
    # Operating point i accepts values[i:], i = 0 .. len(values).
    p_miss = np.concatenate(([0.0], np.cumsum(tgt))) / tgt.sum()
    p_fa = np.concatenate((np.cumsum(non[::-1])[::-1], [0.0])) / non.sum()
    # EER: where the segment between consecutive points crosses p_miss = p_fa.
    d = p_miss - p_fa
    i = int(np.nonzero(d >= 0.0)[0][0])
    if d[i] == 0.0:
        eer = p_miss[i]
    else:
        t = d[i - 1] / (d[i - 1] - d[i])
        eer = p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1])
    min_dcf = np.min(p_target * p_miss + (1.0 - p_target) * p_fa)
    return {"eer": float(eer), "min_dcf": float(min_dcf),
            "pairs": [(r[1], r[2]) for r in rows], "scores": scores}


def _check_score_file(path, oracle) -> int:
    """Trials whose line in the score file is missing or off the oracle."""
    pairs, scores = oracle["pairs"], oracle["scores"]
    bad = 0
    with open(path) as f:
        lines = f.read().splitlines()
    for i, (pair, score) in enumerate(zip(pairs, scores)):
        parts = lines[i].split() if i < len(lines) else []
        if (len(parts) != 3 or (parts[0], parts[1]) != pair
                or abs(float(parts[2]) - score) > PRINT_TOL):
            bad += 1
    return bad + max(0, len(lines) - len(pairs))
