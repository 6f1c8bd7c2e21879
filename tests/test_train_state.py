"""Training state on disk: in-place resume keeps the best model, resume
input is checked, checkpoint writes survive a failure midway, the reader
bounds every length by the file, and the log is written per epoch."""

import dataclasses
import errno
import os
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmha import cli
from dmha import synthdata as sd
from dmha import trainer as tr
from dmha.config import RunConfig


def _tiny_train_config(**kw):
    base = dict(chunk_frames=64, batch_size=4, lr=1e-3, weight_decay=1e-3,
                max_epochs=2, anneal_patience=15, anneal_factor=0.5,
                seed=7, validation_fraction=0.0)
    base.update(kw)
    return tr.TrainConfig(**base)


@pytest.fixture(scope="module")
def two_epoch_run(tiny_corpus, tiny_run_config, tmp_path_factory):
    """A 2-epoch run on the tiny corpus: (utterances, its last.ckpt)."""
    _, utts = tiny_corpus
    res = tr.train(_tiny_train_config(), utts, tiny_run_config.model_config(3),
                   tmp_path_factory.mktemp("two_epochs"))
    return utts, res.last_path


# ---- resume ----------------------------------------------------------------


def test_in_place_resume_keeps_the_best_checkpoint(tmp_path):
    """3 epochs, then a resume in the same out-dir to 5, leave the same
    best.ckpt and last.ckpt bytes as 5 straight epochs."""
    manifest = sd.generate_corpus(tmp_path / "corpus", 3, 4, duration_s=1.5,
                                  seed=3)
    utts = tr.load_manifest(manifest)
    cfg = RunConfig(base_channels=2, n_mels=32, hidden=16, pooling="dmha",
                    heads=2, s=5.0, m=0.2, chunk_frames=64, batch_size=4,
                    lr=1e-3, validation_fraction=0.34, seed=3).validate()

    def run(epochs, out, resume=None):
        return tr.train(dataclasses.replace(cfg.train_config(),
                                            max_epochs=epochs),
                        utts, cfg.model_config(), tmp_path / out,
                        resume=resume)

    straight = run(5, "straight")
    best_epoch = int(tr.load_checkpoint(straight.best_path)[0]["train.epoch"])
    # the case under test: the best epoch comes before the resume
    assert best_epoch <= 3, best_epoch
    first = run(3, "in_place")
    resumed = run(5, "in_place", resume=first.last_path)
    assert resumed.epochs_run == 2
    for a, b in ((straight.best_path, resumed.best_path),
                 (straight.last_path, resumed.last_path)):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def _write_resume_checkpoint(case, last, path):
    """last.ckpt of a 2-epoch run, damaged as `case` says, written to path."""
    config, tensors = tr.load_checkpoint(last)
    if case == "model_only":  # the layout bench/inputs.py writes
        config = {k: v for k, v in config.items() if k.startswith("model.")}
        tensors = {k: v for k, v in tensors.items()
                   if not k.startswith("adam.")}
    elif case == "adam_misshapen":  # would broadcast against the gradient
        tensors[min(k for k in tensors if k.startswith("adam.v."))] = \
            np.zeros(1)
    elif case == "bad_value":
        config["train.lr"] = "fast"
    tr.save_checkpoint(path, config, tensors)


@pytest.mark.parametrize("case, epochs, message", [
    ("model_only", 3, "checkpoint has no training state"),
    ("adam_misshapen", 3, r"tensor adam\.v\.\S+ is missing or its shape"),
    ("other_speakers", 3, r"speakers differ from the dataset's "
                          r"\(spk002, spk009\)"),
    ("bad_value", 3, "bad training state"),
    ("no_epoch_left", 2, "is at epoch 2, max_epochs 2 leaves nothing"),
])
def test_bad_resume_is_a_value_error_before_anything_is_written(
        two_epoch_run, tiny_run_config, tmp_path, case, epochs, message):
    utts, last = two_epoch_run
    if case == "other_speakers":
        utts = [dataclasses.replace(u, speaker="spk009")
                if u.speaker == "spk002" else u for u in utts]
    ckpt = tmp_path / "resume.ckpt"
    _write_resume_checkpoint(case, last, ckpt)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=message) as exc:
        tr.train(_tiny_train_config(max_epochs=epochs), utts,
                 tiny_run_config.model_config(3), out, resume=ckpt)
    assert str(exc.value).startswith(f"{ckpt}: ")
    assert not out.exists()


@pytest.mark.parametrize("case", ["model_only", "no_epoch_left"])
def test_bad_resume_is_a_one_line_cli_error(two_epoch_run, tiny_corpus,
                                            capsys, tmp_path, case):
    root, _ = tiny_corpus
    ckpt = tmp_path / "resume.ckpt"
    _write_resume_checkpoint(case, two_epoch_run[1], ckpt)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_channels = 2\nhidden = 16\nheads = 2\n"
                   "s = 5.0\nm = 0.2\nchunk_frames = 64\nbatch_size = 4\n"
                   "validation_fraction = 0.0\nseed = 7\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--data", str(root / "manifest.tsv"),
                     "--out-dir", str(tmp_path / "run"),
                     "--resume", str(ckpt), "--epochs", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def _resume_checkpoint_with(last, path, key, value):
    """last.ckpt with one training-state value replaced, written to path."""
    config, tensors = tr.load_checkpoint(last)
    config[key] = value
    tr.save_checkpoint(path, config, tensors)


@pytest.mark.parametrize("key, value, message", [
    ("train.lr", "-0.001", "lr must be finite and > 0"),
    ("train.lr", "0", "lr must be finite and > 0"),
    ("train.lr", "nan", "lr must be finite and > 0"),
    ("train.lr", "inf", "lr must be finite and > 0"),
    ("train.epoch", "-1", "train.epoch=-1 is negative"),
    ("train.step", "-3", "train.step=-3 is negative"),
    ("train.since_improve", "-1", "train.since_improve=-1 is negative"),
    ("train.best_val", "nan", "train.best_val is nan"),
], ids=["negative-lr", "zero-lr", "nan-lr", "inf-lr", "negative-epoch",
        "negative-step", "negative-since-improve", "nan-best-val"])
def test_resume_state_outside_its_range_is_an_error_before_anything_is_written(
        two_epoch_run, tiny_run_config, tmp_path, key, value, message):
    """A negative lr trained by gradient ascent, a NaN lr or a negative
    step stopped later on a non-finite loss that named no checkpoint, a
    negative epoch retrained from epoch 0, and a NaN best_val never
    recorded an improvement."""
    utts, last = two_epoch_run
    ckpt = tmp_path / "resume.ckpt"
    _resume_checkpoint_with(last, ckpt, key, value)
    out = tmp_path / "run"
    with pytest.raises(ValueError) as exc:
        tr.train(_tiny_train_config(max_epochs=3), utts,
                 tiny_run_config.model_config(3), out, resume=ckpt)
    assert str(exc.value) == f"{ckpt}: bad training state: {message}"
    assert not out.exists()


def test_resume_state_at_the_edges_of_its_ranges_trains(
        two_epoch_run, tiny_run_config, tmp_path):
    """A best_val of +inf (no epoch ever improved) and zero counts are a
    state save() can write, so they resume."""
    utts, last = two_epoch_run
    config, tensors = tr.load_checkpoint(last)
    config.update({"train.best_val": "inf", "train.since_improve": "0"})
    ckpt = tmp_path / "resume.ckpt"
    tr.save_checkpoint(ckpt, config, tensors)
    res = tr.train(_tiny_train_config(max_epochs=3), utts,
                   tiny_run_config.model_config(3), tmp_path / "run",
                   resume=ckpt)
    assert res.epochs_run == 1
    assert tr.load_checkpoint(res.best_path)[0]["train.epoch"] == "3"


def test_resume_with_another_validation_split_is_an_error(
        two_epoch_run, tiny_run_config, tmp_path):
    """The split is drawn from the seed and validation_fraction; another
    fraction would train on utterances the first epochs held out."""
    utts, last = two_epoch_run
    out = tmp_path / "run"
    with pytest.raises(ValueError) as exc:
        tr.train(_tiny_train_config(max_epochs=3, validation_fraction=0.34),
                 utts, tiny_run_config.model_config(3), out, resume=last)
    assert str(exc.value) == (f"{last}: checkpoint has "
                              "train.validation_fraction=0.0, the run has "
                              "0.34")
    assert not out.exists()


def test_resume_from_a_checkpoint_without_the_split_key_trains(
        two_epoch_run, tiny_run_config, tmp_path):
    """A checkpoint written before validation_fraction was a run key
    resumes as before, to the bytes of a resume from the full one."""
    utts, last = two_epoch_run
    config, tensors = tr.load_checkpoint(last)
    del config["train.validation_fraction"]
    ckpt = tmp_path / "old.ckpt"
    tr.save_checkpoint(ckpt, config, tensors)
    paths = [tr.train(_tiny_train_config(max_epochs=3), utts,
                      tiny_run_config.model_config(3), tmp_path / name,
                      resume=resume).last_path
             for name, resume in (("old", ckpt), ("new", last))]
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_bad_resume_state_is_a_one_line_cli_error(two_epoch_run, tiny_corpus,
                                                  capsys, tmp_path):
    root, _ = tiny_corpus
    ckpt = tmp_path / "resume.ckpt"
    _resume_checkpoint_with(two_epoch_run[1], ckpt, "train.lr", "-0.001")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_channels = 2\nhidden = 16\nheads = 2\n"
                   "s = 5.0\nm = 0.2\nchunk_frames = 64\nbatch_size = 4\n"
                   "validation_fraction = 0.0\nseed = 7\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--data", str(root / "manifest.tsv"),
                     "--out-dir", str(tmp_path / "run"),
                     "--resume", str(ckpt), "--epochs", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: {ckpt}: bad training state: lr must be finite "
                   "and > 0\n")
    assert not (tmp_path / "run").exists()


# ---- checkpoint writer and reader ------------------------------------------


class _DiskFullAfter:
    """A file whose writes fail, as on a full disk, after `budget` bytes."""

    def __init__(self, path, mode, budget):
        self.f = open(path, mode)
        self.budget = budget

    def write(self, data):
        if len(data) > self.budget:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.f.write(data)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_failed_checkpoint_write_leaves_the_previous_one(
        tiny_corpus, tiny_run_config, tmp_path, monkeypatch):
    _, utts = tiny_corpus
    mc = tiny_run_config.model_config(3)
    out = tmp_path / "run"
    first = tr.train(_tiny_train_config(max_epochs=1), utts, mc, out)
    assert sorted(os.listdir(out)) == ["best.ckpt", "last.ckpt",
                                       "train_log.csv"]
    before = {n: (out / n).read_bytes() for n in ("best.ckpt", "last.ckpt")}
    monkeypatch.setattr(tr, "open", lambda path, mode="r":
                        _DiskFullAfter(path, mode, budget=1000),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        tr.train(_tiny_train_config(max_epochs=2), utts, mc, out,
                 resume=first.last_path)
    monkeypatch.undo()
    assert {n: (out / n).read_bytes() for n in before} == before
    assert sorted(os.listdir(out)) == ["best.ckpt", "last.ckpt",
                                       "train_log.csv"]


def _checkpoint_bytes(directory) -> bytes:
    path = directory / "valid.ckpt"
    tr.save_checkpoint(path, {"model.hidden": 4, "train.lr": repr(0.5)},
                       {"a": np.arange(6.0).reshape(2, 3), "b": np.array(2.0),
                        "c": np.zeros(0)})
    return path.read_bytes()


def test_tensor_larger_than_the_address_space_is_truncated(tmp_path):
    """dims (2^31, 2^31) ask for 2^65 bytes, more than sys.maxsize: the
    reader must compare with the file, not try to read them."""
    path = tmp_path / "huge.ckpt"
    path.write_bytes(tr.CKPT_MAGIC + struct.pack("<III", tr.CKPT_VERSION, 0, 1)
                     + struct.pack("<H", 1) + b"w" + struct.pack("<B", 2)
                     + struct.pack("<II", 2 ** 31, 2 ** 31))
    assert 8 * 2 ** 62 > sys.maxsize
    with pytest.raises(ValueError, match="truncated checkpoint"):
        tr.load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_checkpoint_parses_or_names_the_file(fuzz_dir, data):
    """A valid checkpoint cut at any offset, or with any byte overwritten,
    either parses or gives a ValueError naming the file."""
    good = _checkpoint_bytes(fuzz_dir)
    if data.draw(st.booleans(), label="truncate"):
        damaged = good[:data.draw(st.integers(0, len(good) - 1), label="cut")]
    else:
        at = data.draw(st.integers(0, len(good) - 1), label="offset")
        byte = data.draw(st.integers(0, 255), label="byte")
        damaged = good[:at] + bytes([byte]) + good[at + 1:]
    path = fuzz_dir / "damaged.ckpt"
    path.write_bytes(damaged)
    try:
        tr.load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc


# ---- progress ---------------------------------------------------------------


def test_log_is_on_disk_while_training(tiny_corpus, tiny_run_config,
                                       tmp_path):
    _, utts = tiny_corpus
    log = tmp_path / "run" / "train_log.csv"
    seen = []

    def hook(epoch, step, model):
        if epoch == 2 and step == 1:
            seen.append(log.read_text().splitlines())

    res = tr.train(_tiny_train_config(), utts,
                   tiny_run_config.model_config(3), tmp_path / "run",
                   step_hook=hook)
    assert len(seen) == 1
    assert seen[0][0] == "epoch,train_loss,val_loss,lr"
    assert [row.split(",")[0] for row in seen[0][1:]] == ["1"]
    e, tl, vl, lr = res.log_rows[0]
    assert seen[0][1] == f"{e},{tl:.17g},{vl:.17g},{lr:.17g}"
    assert len(log.read_text().splitlines()) == 3


# ---- resume must match the run, checkpoint values must parse -----------------


@pytest.mark.parametrize("model_kw, train_kw, message", [
    ({"s": 30.0, "m": 0.4}, {}, "checkpoint has model.s=5.0, the run has 30.0"),
    ({"hidden": 32}, {}, "checkpoint has model.hidden=16, the run has 32"),
    ({}, {"seed": 8}, "checkpoint has train.seed=7, the run has 8"),
    ({}, {"chunk_frames": 48},
     "checkpoint has train.chunk_frames=64, the run has 48"),
    ({}, {"batch_size": 3}, "checkpoint has train.batch_size=4, the run has 3"),
    ({}, {"weight_decay": 0.0},
     "checkpoint has train.weight_decay=0.001, the run has 0.0"),
], ids=["s-m", "hidden", "seed", "chunk_frames", "batch_size",
        "weight_decay"])
def test_resume_with_another_config_is_a_value_error(
        two_epoch_run, tiny_run_config, tmp_path, model_kw, train_kw,
        message):
    utts, last = two_epoch_run
    mc = dataclasses.replace(tiny_run_config.model_config(3), **model_kw)
    out = tmp_path / "run"
    with pytest.raises(ValueError) as exc:
        tr.train(_tiny_train_config(max_epochs=3, **train_kw), utts, mc, out,
                 resume=last)
    assert str(exc.value) == f"{last}: {message}"
    assert not out.exists()


def test_resume_with_another_margin_is_a_one_line_cli_error(
        two_epoch_run, tiny_corpus, capsys, tmp_path):
    root, _ = tiny_corpus
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_channels = 2\nhidden = 16\nheads = 2\n"
                   "s = 30.0\nm = 0.4\nchunk_frames = 64\nbatch_size = 4\n"
                   "validation_fraction = 0.0\nseed = 7\n")
    last = two_epoch_run[1]
    code = cli.main(["train", "--config", str(cfg),
                     "--data", str(root / "manifest.tsv"),
                     "--out-dir", str(tmp_path / "run"),
                     "--resume", str(last), "--epochs", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: {last}: checkpoint has model.s=5.0, the run has "
                   "30.0\n")
    assert not (tmp_path / "run").exists()


def test_malformed_model_value_names_the_file_and_the_key(
        two_epoch_run, tiny_run_config, tiny_corpus, capsys, tmp_path):
    utts, last = two_epoch_run
    config, tensors = tr.load_checkpoint(last)
    config["model.hidden"] = "16x"
    ckpt = tmp_path / "bad.ckpt"
    tr.save_checkpoint(ckpt, config, tensors)
    message = f"{ckpt}: bad model.hidden value '16x'"
    with pytest.raises(ValueError) as exc:
        tr.load_model(ckpt)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        tr.train(_tiny_train_config(max_epochs=3), utts,
                 tiny_run_config.model_config(3), tmp_path / "run",
                 resume=ckpt)
    assert str(exc.value) == message
    assert not (tmp_path / "run").exists()
    root, _ = tiny_corpus
    code = cli.main(["extract", "--checkpoint", str(ckpt),
                     "--data", str(root / "manifest.tsv"),
                     "--out", str(tmp_path / "emb.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key, value, message", [
    ("model.n_mels", "50", "n_mels must be divisible by 16, got 50"),
    ("model.pooling_kind", "foo", "unknown pooling kind 'foo'; choose from"),
    ("model.num_heads", "3", "head count 3 does not divide dim 80"),
    ("model.s", "nan", "scale s must be finite and > 0"),
], ids=["n_mels", "pooling_kind", "num_heads", "s"])
def test_invalid_model_value_is_one_line_naming_the_file(
        two_epoch_run, tiny_corpus, capsys, tmp_path, key, value, message):
    """A well-formed model.* value the model cannot be built with gives the
    same error line, naming the checkpoint, from extract and from resume."""
    config, tensors = tr.load_checkpoint(two_epoch_run[1])
    config[key] = value
    ckpt = tmp_path / "invalid.ckpt"
    tr.save_checkpoint(ckpt, config, tensors)
    manifest = str(tiny_corpus[0] / "manifest.tsv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_channels = 2\nhidden = 16\nheads = 2\n"
                   "s = 5.0\nm = 0.2\nchunk_frames = 64\nbatch_size = 4\n"
                   "validation_fraction = 0.0\nseed = 7\n")
    for argv in (["extract", "--checkpoint", str(ckpt), "--data", manifest,
                  "--out", str(tmp_path / "emb.txt")],
                 ["train", "--config", str(cfg), "--data", manifest,
                  "--out-dir", str(tmp_path / "run"), "--resume", str(ckpt),
                  "--epochs", "3"]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv[0]
        assert err.startswith(f"error: {ckpt}: {message}"), err
        assert err.count("\n") == 1
    assert not (tmp_path / "emb.txt").exists()
    assert not (tmp_path / "run").exists()


# ---- non-finite guard ---------------------------------------------------------


def test_nan_stops_the_run_before_adam_and_keeps_the_last_good_epoch(
        tiny_corpus, tiny_run_config, tmp_path):
    """pool.u[0] = NaN after epoch 2's first step: step 2's loss is NaN,
    the run stops there, and last.ckpt still holds epoch 1, all finite."""
    _, utts = tiny_corpus
    out = tmp_path / "run"

    def hook(epoch, step, model):
        if epoch == 2 and step == 1:
            model.params["pool.u"].data[0] = np.nan

    with pytest.raises(ValueError) as exc:
        tr.train(_tiny_train_config(max_epochs=3), utts,
                 tiny_run_config.model_config(3), out, step_hook=hook)
    assert str(exc.value).startswith("epoch 2 step 2: non-finite loss")
    config, tensors = tr.load_checkpoint(out / "last.ckpt")
    assert config["train.epoch"] == "1"
    assert all(np.isfinite(t).all() for t in tensors.values())
    assert len((out / "train_log.csv").read_text().splitlines()) == 2


def test_nan_loss_is_a_one_line_cli_error(tiny_corpus, capsys, tmp_path,
                                          monkeypatch):
    root, _ = tiny_corpus
    calls = []
    forward = tr._forward_batch

    def nan_on_third_step(model, mels, labels, training):
        loss = forward(model, mels, labels, training)
        if training:
            calls.append(1)
            if len(calls) == 3:
                return loss * np.nan
        return loss

    monkeypatch.setattr(tr, "_forward_batch", nan_on_third_step)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_channels = 2\nhidden = 16\nheads = 2\n"
                   "s = 5.0\nm = 0.2\nchunk_frames = 64\nbatch_size = 4\n"
                   "validation_fraction = 0.0\nseed = 7\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--data", str(root / "manifest.tsv"),
                     "--out-dir", str(tmp_path / "run"), "--epochs", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: epoch 2 step 1: non-finite loss")
    assert err.count("\n") == 1
    config, _ = tr.load_checkpoint(tmp_path / "run" / "last.ckpt")
    assert config["train.epoch"] == "1"
