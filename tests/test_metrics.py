"""EER / minDCF against an exhaustive threshold-sweep oracle, plus the
trial/score file formats."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmha import metrics as mt
from dmha import model as mdl
from test_train_state import _LogDiskFullAfter as _DiskFullAfter


def _oracle(scores, labels, cfg=mt.DcfConfig()):
    """Independent brute-force sweep: accept iff score >= threshold, with
    thresholds at +-inf and midpoints of adjacent distinct scores; EER by
    linear interpolation between the bracketing operating points."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    tgt = scores[labels == 1]
    non = scores[labels == 0]
    uniq = np.unique(scores)
    thr = np.concatenate(([-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]))
    p_miss = np.array([(tgt < th).mean() for th in thr])
    p_fa = np.array([(non >= th).mean() for th in thr])
    d = p_miss - p_fa
    i = int(np.argmax(d >= 0.0))
    if d[i] == 0.0:
        eer = p_miss[i]
    else:
        t = -d[i - 1] / (d[i] - d[i - 1])
        eer = p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1])
    dcf = (cfg.c_m * cfg.p_t * p_miss + cfg.c_fa * (1 - cfg.p_t) * p_fa).min()
    return float(eer), float(dcf)


# ---- cosine_score -------------------------------------------------------------


def test_cosine_score_basic(rng):
    e = rng.standard_normal(5)
    assert mt.cosine_score(e, e) == pytest.approx(1.0)
    assert mt.cosine_score(e, -e) == pytest.approx(-1.0)
    assert mt.cosine_score([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_score_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        mt.cosine_score([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        mt.cosine_score([1.0, 0.0], [1.0, 0.0, 0.0])


# ---- EER / DCF ---------------------------------------------------------------


def test_eer_separable_and_inverted():
    assert mt.compute_eer([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 0.0
    assert mt.compute_eer([0.1, 0.9], [1, 0]) == 1.0


def test_eer_dcf_frozen_fixture():
    scores = [0.8, 0.6, 0.4, 0.7, 0.5, 0.3]
    labels = [1, 1, 1, 0, 0, 0]
    assert mt.compute_eer(scores, labels) == pytest.approx(1.0 / 3.0,
                                                           abs=1e-12)
    # brute-force sweep value for the default cost parameters
    assert mt.compute_min_dcf(scores, labels) == pytest.approx(
        0.006666666666666666, abs=1e-12)
    oe, od = _oracle(scores, labels)
    assert mt.compute_eer(scores, labels) == oe
    assert mt.compute_min_dcf(scores, labels) == od


def test_dcf_bounds():
    scores = [0.9, 0.1]
    labels = [1, 0]
    assert mt.compute_min_dcf(scores, labels) == 0.0
    # accept-everything gives c_fa * (1 - p_t) = 0.99; the min is never above
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, 40)
    l = rng.integers(0, 2, 40)
    if l.sum() in (0, 40):
        l[0] = 1 - l[0]
    assert mt.compute_min_dcf(s, l) <= 0.99


def test_dcf_misses_only_limit(rng):
    cfg = mt.DcfConfig(p_t=0.999)
    s = rng.uniform(-1, 1, 60)
    l = rng.integers(0, 2, 60)
    l[0], l[1] = 0, 1
    assert mt.compute_min_dcf(s, l, cfg) == pytest.approx(
        _oracle(s, l, cfg)[1], abs=1e-15)


def test_metrics_match_oracle_on_random_sets():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(2, 201))
        scores = rng.choice([-1, 1], size=1)[0] * rng.uniform(-1, 1, n)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        if rng.uniform() < 0.3:  # inject score ties
            scores = np.round(scores, 1)
        oe, od = _oracle(scores, labels)
        assert mt.compute_eer(scores, labels) == oe
        assert mt.compute_min_dcf(scores, labels) == od


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 5.0), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_invariance_under_increasing_transform(seed, a, b):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 50))
    scores = rng.uniform(-1, 1, n)
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    warped = a * scores + b  # strictly increasing affine map
    assert mt.compute_eer(scores, labels) == pytest.approx(
        mt.compute_eer(warped, labels), abs=1e-12)
    assert mt.compute_min_dcf(scores, labels) == pytest.approx(
        mt.compute_min_dcf(warped, labels), abs=1e-12)
    # and a non-affine strictly increasing map
    curved = np.tanh(scores) + 0.1 * scores
    assert mt.compute_eer(scores, labels) == pytest.approx(
        mt.compute_eer(curved, labels), abs=1e-12)


def test_eer_symmetric_under_label_swap_and_negation(rng):
    for _ in range(20):
        n = int(rng.integers(4, 60))
        scores = rng.uniform(-1, 1, n)
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        assert mt.compute_eer(scores, labels) == pytest.approx(
            mt.compute_eer(-scores, 1 - labels), abs=1e-12)


def test_single_class_rejected():
    with pytest.raises(ValueError):
        mt.compute_eer([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        mt.compute_min_dcf([0.1, 0.2], [0, 0])


# ---- files / scoring -----------------------------------------------------------


def test_trial_file_round_trip(tmp_path):
    trials = [mt.Trial(1, "a", "b"), mt.Trial(0, "a", "c"),
              mt.Trial(1, "a", "b")]  # duplicates preserved in order
    path = tmp_path / "trials.txt"
    mt.write_trials(path, trials)
    back = mt.read_trials(path)
    assert [(t.label, t.enroll_id, t.test_id) for t in back] == \
        [(1, "a", "b"), (0, "a", "c"), (1, "a", "b")]


def test_read_trials_rejects_bad_label_and_empty(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 a b\n")
    with pytest.raises(ValueError):
        mt.read_trials(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        mt.read_trials(empty)


def test_naming_turns_a_value_error_into_a_format_error():
    with pytest.raises(mt.FormatError) as exc:
        with mt.naming("t.txt", 3):
            raise ValueError("bad trial label 'x'")
    assert str(exc.value) == "t.txt:3: bad trial label 'x'"
    assert (exc.value.path, exc.value.line) == ("t.txt", 3)
    with pytest.raises(mt.FormatError) as exc:
        with mt.naming("t.txt"):
            raise ValueError("empty trial list")
    assert str(exc.value) == "t.txt: empty trial list"
    assert exc.value.line is None


def test_naming_passes_a_format_error_and_other_errors_unchanged():
    inner = mt.FormatError("u.wav", "truncated checkpoint")
    with pytest.raises(mt.FormatError) as exc:
        with mt.naming("m.tsv", 2):
            raise inner
    assert exc.value is inner
    with pytest.raises(KeyError):
        with mt.naming("m.tsv"):
            raise KeyError("speakers")


def test_replacing_swaps_the_file_whole_or_not_at_all(tmp_path):
    """A block that raises leaves the old file and no .tmp; one that ends
    replaces the file, again leaving no .tmp."""
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(OSError, match="disk full"):
        with mt.replacing(path) as tmp:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write("half")
            raise OSError("disk full")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    with mt.replacing(path) as tmp:
        assert tmp == f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write("new\n")
        assert path.read_text() == "old\n"
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_score_trials_missing_utterance_listed():
    trials = [mt.Trial(1, "a", "zz")]
    with pytest.raises(ValueError, match="zz"):
        mt.score_trials(trials, {"a": np.ones(3)})


def test_evaluate_trials_and_score_file(tmp_path, rng):
    embs = {"a": np.array([1.0, 0.0]), "b": np.array([0.9, 0.1]),
            "c": np.array([0.0, 1.0])}
    trials = [mt.Trial(1, "a", "b"), mt.Trial(0, "a", "c"),
              mt.Trial(1, "a", "b")]
    report = mt.evaluate_trials(trials, embs)
    assert report["num_trials"] == 3
    assert report["eer"] == 0.0
    path = tmp_path / "scores.txt"
    mt.write_scores(path, trials)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3 and lines[0] == lines[2]  # duplicates in order
    assert len(lines[0].split()[2].split(".")[1]) == 9  # 9 decimal places


def test_format_report_contains_machine_block():
    text = mt.format_report({"eer": 1.0 / 3.0, "dcf": 0.0066666,
                             "num_trials": 6})
    assert "eer=0.333333333" in text
    assert text.splitlines()[0].startswith("trials=6 EER=33.33%")


def test_dcf_config_validation():
    with pytest.raises(ValueError):
        mt.DcfConfig(c_fa=0.0)
    with pytest.raises(ValueError):
        mt.DcfConfig(p_t=1.0)


def test_replacing_fsyncs_the_temp_file_before_renaming_it(tmp_path,
                                                           monkeypatch):
    """The temp file's bytes reach the disk before the rename makes them
    path's, so a crash cannot leave path naming unwritten data."""
    calls, fsync, replace = [], os.fsync, os.replace

    def recording_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        replace(src, dst)

    monkeypatch.setattr(mt.os, "fsync", recording_fsync)
    monkeypatch.setattr(mt.os, "replace", recording_replace)
    path = tmp_path / "out.txt"
    with mt.replacing(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write("new\n")
        inode = os.stat(tmp).st_ino
    assert calls == [("fsync", inode), ("replace", inode)]
    assert path.read_text() == "new\n"


# result-file writer -> (its module, the writer, ten items named by a tag)
_WRITERS = {
    "embeddings": (mdl, mdl.write_embeddings, lambda tag: {
        f"{tag}{i}": np.full(3, i + 0.5) for i in range(10)}),
    "trials": (mt, mt.write_trials, lambda tag: [
        mt.Trial(i % 2, f"{tag}{i}", f"{tag}{i + 1}") for i in range(10)]),
    "scores": (mt, mt.write_scores, lambda tag: [
        mt.Trial(i % 2, f"{tag}{i}", f"{tag}{i + 1}", score=i / 7)
        for i in range(10)]),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_result_file_write_that_fails_partway_leaves_the_previous_file(
        tmp_path, monkeypatch, kind):
    """A full disk a few lines into the new file leaves the old one byte for
    byte, and no .tmp: a list cut at a line boundary would read as a
    shorter list that still looks valid."""
    module, write, items = _WRITERS[kind]
    path = tmp_path / f"{kind}.txt"
    write(path, items("old"))
    before = path.read_bytes()
    monkeypatch.setattr(module, "open", lambda p, mode="r", **kw:
                        _DiskFullAfter(p, mode, len(before) // 3, **kw),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(path, items("new"))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize("obstacle", ["fifo", "symlink"])
@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_result_file_write_refuses_a_path_that_is_no_regular_file(
        tmp_path, kind, obstacle):
    """Renaming over a FIFO or device (say --out /dev/null) would destroy
    it, and over /dev/stdout, a symlink, too: such a path is refused before
    anything is written, and left as it was."""
    _, write, items = _WRITERS[kind]
    path = tmp_path / f"{kind}.txt"
    if obstacle == "fifo":
        os.mkfifo(path)
    else:
        (tmp_path / "target.txt").write_text("kept\n")
        path.symlink_to(tmp_path / "target.txt")
    with pytest.raises(ValueError, match=f"^{path}: not a regular file$"):
        write(path, items("new"))
    if obstacle == "fifo":
        assert path.is_fifo()
    else:
        assert path.is_symlink()
        assert path.read_text() == "kept\n"
    assert not os.path.lexists(f"{path}.tmp")


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_result_file_write_removes_a_stale_symlink_at_its_temp_path(
        tmp_path, kind):
    """A symlink left at <path>.tmp is not written through: its target
    keeps its bytes, and path becomes a regular file."""
    _, write, items = _WRITERS[kind]
    path = tmp_path / f"{kind}.txt"
    (tmp_path / "target.txt").write_text("kept\n")
    (tmp_path / f"{kind}.txt.tmp").symlink_to(tmp_path / "target.txt")
    write(path, items("new"))
    assert (tmp_path / "target.txt").read_text() == "kept\n"
    assert not path.is_symlink() and path.stat().st_size > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["target.txt", path.name])


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_result_file_write_error_names_the_path_it_was_given(tmp_path, kind):
    """The temp file is an inner detail: a write into a missing directory
    names the result file, not its .tmp."""
    _, write, items = _WRITERS[kind]
    path = tmp_path / "missing" / f"{kind}.txt"
    with pytest.raises(FileNotFoundError) as exc:
        write(path, items("new"))
    assert str(exc.value) == (f"[Errno 2] No such file or directory: "
                              f"'{path}'")
