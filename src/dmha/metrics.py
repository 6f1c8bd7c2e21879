"""Verification back-end: cosine scoring over trial lists, EER, minDCF.

ROC convention: accept if score >= threshold; thresholds swept at +-inf and
midpoints of adjacent distinct scores.  EER is linearly interpolated between
the bracketing operating points; DCF is reported unnormalized.
"""

from __future__ import annotations

import contextlib
import os
import stat
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DcfConfig:
    c_fa: float = 1.0
    c_m: float = 1.0
    p_t: float = 0.01

    def __post_init__(self):
        if self.c_fa <= 0 or self.c_m <= 0:
            raise ValueError("costs must be > 0")
        if not (0 < self.p_t < 1):
            raise ValueError("p_t must be in (0, 1)")


@dataclass
class Trial:
    label: int        # 1 target, 0 nontarget
    enroll_id: str
    test_id: str
    score: float | None = None


def cosine_score(e1: np.ndarray, e2: np.ndarray) -> float:
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape:
        raise ValueError(f"embedding dims differ: {e1.shape} vs {e2.shape}")
    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("cosine score undefined for a zero vector")
    return float(np.clip(np.dot(e1, e2) / (n1 * n2), -1.0, 1.0))


def _operating_points(scores, labels):
    """(P_miss, P_fa) at thresholds -inf, midpoints of adjacent distinct
    scores, +inf; P_miss ascending with threshold, P_fa descending."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    tgt = np.sort(scores[labels == 1])
    non = np.sort(scores[labels == 0])
    if len(tgt) == 0 or len(non) == 0:
        raise ValueError("need at least one target and one nontarget score")
    uniq = np.unique(scores)
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    thr = np.concatenate(([-np.inf], mids, [np.inf]))
    p_miss = np.searchsorted(tgt, thr, side="left") / len(tgt)
    p_fa = (len(non) - np.searchsorted(non, thr, side="left")) / len(non)
    return p_miss, p_fa


def compute_eer(scores, labels) -> float:
    """Equal error rate, interpolated in (P_miss, P_fa) space."""
    p_miss, p_fa = _operating_points(scores, labels)
    d = p_miss - p_fa
    i = int(np.argmax(d >= 0.0))  # d is nondecreasing from -1 to +1
    if d[i] == 0.0:
        return float(p_miss[i])
    # interpolate along the segment between points i-1 and i
    t = -d[i - 1] / (d[i] - d[i - 1])
    return float(p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1]))


def compute_min_dcf(scores, labels, cfg: DcfConfig = DcfConfig()) -> float:
    """Unnormalized minimum detection cost over all thresholds."""
    p_miss, p_fa = _operating_points(scores, labels)
    cost = cfg.c_m * cfg.p_t * p_miss + cfg.c_fa * (1.0 - cfg.p_t) * p_fa
    return float(cost.min())


# ---- trial / score files -----------------------------------------------------


class FormatError(ValueError):
    """Bad input in a file: str() is "<path>[:<line>]: <reason>", and .path
    and .line (None when the fault is the whole file's) say where."""

    def __init__(self, path, reason, line=None):
        self.path, self.line = path, line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {reason}")


@contextlib.contextmanager
def naming(path, line=None):
    """A ValueError raised in the block becomes a FormatError naming path
    (and line); a FormatError, which already names its file, passes."""
    try:
        yield
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(path, exc, line) from None


@contextlib.contextmanager
def replacing(path):
    """Yields path + ".tmp" to write path through: fsynced, then renamed over
    path when the block ends, removed when it raises, so path is whole or
    absent even after a crash. Anything at path but a regular file (a
    symlink, a device, a FIFO) is refused: the rename would destroy it."""
    path = os.fspath(path)
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        raise ValueError(f"{path}: not a regular file")
    tmp = f"{path}.tmp"
    if os.path.lexists(tmp):  # a stale one, which open() would follow
        os.remove(tmp)
    try:
        yield tmp
        with open(tmp, "rb") as f:
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename == tmp and exc.filename2 is None:
            exc.filename = path  # name the file the caller asked for
        raise
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def text_lines(path) -> list[tuple[int, str]]:
    """(line number, line) of each line of a UTF-8 text file; bytes that do
    not decode are a FormatError."""
    with open(path, encoding="utf-8") as f:
        try:
            return list(enumerate(f, start=1))
        except UnicodeDecodeError as exc:
            raise FormatError(path, f"not {exc.encoding} text "
                              f"({exc.reason})") from None


def read_trials(path) -> list[Trial]:
    """Trial list: one line per trial, "<label 1|0> <enroll-id> <test-id>"."""
    trials = []
    for lineno, line in text_lines(path):
        with naming(path, lineno):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError("expected '<label> <enroll-id> <test-id>'")
            label, eid, tid = parts
            if label not in ("0", "1"):
                raise ValueError(f"bad trial label {label!r}")
            trials.append(Trial(int(label), eid, tid))
    if not trials:
        raise FormatError(path, "empty trial list")
    return trials


def write_trials(path, trials):
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        for t in trials:
            f.write(f"{t.label} {t.enroll_id} {t.test_id}\n")


def write_scores(path, trials):
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        for t in trials:
            f.write(f"{t.enroll_id} {t.test_id} {t.score:.9f}\n")


def score_trials(trials, embeddings: dict[str, np.ndarray]) -> list[Trial]:
    """Fill in cosine scores; every referenced utterance must resolve to a
    nonzero embedding."""
    ids = sorted({uid for t in trials for uid in (t.enroll_id, t.test_id)})
    missing = [uid for uid in ids if uid not in embeddings]
    if missing:
        raise ValueError("missing utterances: " + " ".join(missing))
    zero = [uid for uid in ids if np.linalg.norm(embeddings[uid]) == 0.0]
    if zero:
        raise ValueError("all-zero embeddings (cosine score undefined): "
                         + " ".join(zero))
    for t in trials:
        t.score = cosine_score(embeddings[t.enroll_id],
                               embeddings[t.test_id])
    return trials


def evaluate_trials(trials, embeddings: dict[str, np.ndarray]) -> dict:
    """Score and summarize a trial list.

    Returns {"eer", "dcf", "num_trials"}; trials come back with scores set.
    """
    score_trials(trials, embeddings)
    scores = [t.score for t in trials]
    labels = [t.label for t in trials]
    return {
        "eer": compute_eer(scores, labels),
        "dcf": compute_min_dcf(scores, labels),
        "num_trials": len(trials),
    }


def format_report(report: dict) -> str:
    """Single-line summary plus machine-readable key=value block."""
    lines = [
        f"trials={report['num_trials']} "
        f"EER={100.0 * report['eer']:.2f}% minDCF={report['dcf']:.4f}",
        f"num_trials={report['num_trials']}",
        f"eer={report['eer']:.9f}",
        f"min_dcf={report['dcf']:.9f}",
    ]
    return "\n".join(lines) + "\n"
