"""Command-line surface: every subcommand end to end, error contract,
config file handling."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmha import cli
from dmha import features as feat
from dmha import metrics as mt
from dmha import model as mdl
from dmha import trainer as tr
from dmha.config import RunConfig, apply_overrides, load_config


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- config file ---------------------------------------------------------------


def test_load_config_parses_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# experiment grid\n"
                    "pooling = mha\n"
                    "heads = 16   # Table-style grid point\n"
                    "lr = 2e-3\n"
                    "\n"
                    "seed = 5\n")
    cfg = load_config(path)
    assert cfg.pooling == "mha" and cfg.heads == 16
    assert cfg.lr == 2e-3 and cfg.seed == 5


def test_load_config_rejects_unknown_key_and_bad_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        load_config(bad)
    bad.write_text("no equals sign\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(bad)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(pooling="statistics").validate()
    with pytest.raises(ValueError):
        RunConfig(pooling="attention", heads=4).validate()
    with pytest.raises(ValueError):
        RunConfig(base_channels=2, heads=7).validate()  # 7 does not divide 80
    assert apply_overrides(RunConfig(), heads=None).heads == 8
    assert apply_overrides(RunConfig(), heads=16).heads == 16


# ---- commands -------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """synth + train once; downstream command tests share the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    code = cli.main(["synth", "--out-dir", str(corpus), "--speakers", "3",
                     "--utts", "3", "--duration", "1.2", "--seed", "7",
                     "--num-target", "4", "--num-nontarget", "6"])
    assert code == 0
    cfg = root / "run.cfg"
    cfg.write_text("base_channels = 2\nhidden = 16\nheads = 2\n"
                   "s = 5.0\nm = 0.2\nchunk_frames = 64\nbatch_size = 4\n"
                   "validation_fraction = 0.0\nseed = 7\n")
    run = root / "run"
    code = cli.main(["train", "--config", str(cfg), "--data",
                     str(corpus / "manifest.tsv"), "--out-dir", str(run),
                     "--epochs", "2", "--lr", "1e-3"])
    assert code == 0
    return {"root": root, "corpus": corpus, "cfg": cfg,
            "ckpt": run / "best.ckpt"}


def test_extract_score_eval_pipeline(cli_workspace, capsys, tmp_path):
    ws = cli_workspace
    emb_path = tmp_path / "emb.txt"
    wdir = tmp_path / "weights"
    code, out, _ = _run(capsys, "extract", "--checkpoint", str(ws["ckpt"]),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(emb_path), "--dump-weights", str(wdir))
    assert code == 0 and "wrote 9 embeddings" in out
    embs = mdl.read_embeddings(emb_path)
    assert len(embs) == 9 and all(len(e) == 16 for e in embs.values())
    # weight dumps: K columns per line plus one head-weight line (dmha)
    dump = (wdir / "spk000-u000.weights").read_text().strip().split("\n")
    assert all(len(line.split()) == 2 for line in dump)
    cols = np.array([[float(v) for v in line.split()] for line in dump[:-1]])
    np.testing.assert_allclose(cols.sum(axis=0), [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(sum(float(v) for v in dump[-1].split()), 1.0,
                               atol=1e-9)

    scores_path = tmp_path / "scores.txt"
    code, out, _ = _run(capsys, "score", "--embeddings", str(emb_path),
                        "--trials", str(ws["corpus"] / "trials.txt"),
                        "--out", str(scores_path))
    assert code == 0 and "wrote 10 scores" in out

    code, out, _ = _run(capsys, "eval", "--embeddings", str(emb_path),
                        "--trials", str(ws["corpus"] / "trials.txt"))
    assert code == 0
    assert out.startswith("trials=10 EER=")
    assert "eer=" in out and "min_dcf=" in out

    # eval straight from the checkpoint matches the embedding-file route
    code2, out2, _ = _run(capsys, "eval", "--checkpoint", str(ws["ckpt"]),
                          "--data", str(ws["corpus"] / "manifest.tsv"),
                          "--trials", str(ws["corpus"] / "trials.txt"))
    assert code2 == 0 and out2 == out


def test_eval_on_frozen_score_fixture(capsys, tmp_path):
    """The 3+3 score fixture must report EER = 1/3 end to end."""
    emb = tmp_path / "emb.txt"
    # cosine of (1, t) with (1, 0) is monotone in |t|: engineer the fixture
    scores = {"e": [1.0, 0.0]}
    for name, target in [("t1", 0.8), ("t2", 0.6), ("t3", 0.4),
                         ("n1", 0.7), ("n2", 0.5), ("n3", 0.3)]:
        t = np.sqrt(1.0 / target ** 2 - 1.0)
        scores[name] = [1.0, t]
    mdl.write_embeddings(emb, {k: np.array(v) for k, v in scores.items()})
    trials = tmp_path / "trials.txt"
    trials.write_text("1 e t1\n1 e t2\n1 e t3\n0 e n1\n0 e n2\n0 e n3\n")
    code, out, _ = _run(capsys, "eval", "--embeddings", str(emb),
                        "--trials", str(trials))
    assert code == 0
    assert "EER=33.33%" in out
    assert "eer=0.333333333" in out


def test_eval_scores_out_writes_what_score_writes(capsys, tmp_path):
    rng = np.random.default_rng(3)
    emb = tmp_path / "emb.txt"
    mdl.write_embeddings(emb, {f"u{i}": rng.standard_normal(4)
                               for i in range(5)})
    trials = tmp_path / "trials.txt"
    trials.write_text("1 u0 u1\n0 u0 u2\n1 u3 u4\n0 u1 u4\n")
    code, _, _ = _run(capsys, "score", "--embeddings", str(emb),
                      "--trials", str(trials),
                      "--out", str(tmp_path / "score.txt"))
    assert code == 0
    code, out, _ = _run(capsys, "eval", "--embeddings", str(emb),
                        "--trials", str(trials),
                        "--scores-out", str(tmp_path / "eval.txt"))
    assert code == 0 and out.startswith("trials=4 EER=")
    assert ((tmp_path / "eval.txt").read_bytes()
            == (tmp_path / "score.txt").read_bytes())


def test_eval_without_embeddings_or_checkpoint_is_a_one_line_error(
        capsys, tmp_path):
    trials = tmp_path / "trials.txt"
    trials.write_text("1 u0 u1\n")
    code, out, err = _run(capsys, "eval", "--trials", str(trials))
    assert code == 1 and out == ""
    assert err == ("error: eval needs --embeddings or --checkpoint with "
                   "--data\n")


def test_dmha_heads1_equals_attention_end_to_end(cli_workspace, capsys,
                                                 tmp_path):
    """K=1 equivalence surfaces through the whole pipeline: training the
    dmha model with one head and the attention model from the same seed
    yields identical embeddings."""
    ws = cli_workspace
    outs = {}
    for kind, heads in (("dmha", 1), ("attention", 1)):
        run = tmp_path / kind
        code = cli.main(["train", "--config", str(ws["cfg"]), "--data",
                         str(ws["corpus"] / "manifest.tsv"), "--out-dir",
                         str(run), "--pooling", kind, "--heads", str(heads),
                         "--epochs", "1", "--lr", "1e-3"])
        assert code == 0
        capsys.readouterr()
        emb = tmp_path / f"{kind}.emb"
        assert cli.main(["extract", "--checkpoint", str(run / "best.ckpt"),
                         "--data", str(ws["corpus"] / "manifest.tsv"),
                         "--out", str(emb)]) == 0
        capsys.readouterr()
        outs[kind] = mdl.read_embeddings(emb)
    for uid in outs["dmha"]:
        np.testing.assert_array_equal(outs["dmha"][uid],
                                      outs["attention"][uid])


def test_gradcheck_command(capsys):
    code, out, _ = _run(capsys, "gradcheck", "--num-seeds", "1")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l]
    assert all(line.split()[-1] == "pass" for line in lines)
    names = {line.split()[0] for line in lines}
    assert {"matmul", "conv2d_same.x", "maxpool2x2", "softmax",
            "batchnorm.x", "pool.dmha", "am_softmax"} <= names


def test_errors_are_single_line_diagnostics(capsys, tmp_path):
    code, out, err = _run(capsys, "train", "--data",
                          str(tmp_path / "missing.tsv"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1

    code, _, err = _run(capsys, "eval", "--trials",
                        str(tmp_path / "missing.txt"))
    assert code == 1 and err.startswith("error:")

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("pooling = nope\n")
    code, _, err = _run(capsys, "synth", "--config", str(bad_cfg),
                        "--out-dir", str(tmp_path / "x"))
    assert code == 1 and "pooling" in err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", "x", "--frobnicate"])
    assert exc.value.code != 0


def test_synth_determinism(capsys, tmp_path):
    for tag in ("d1", "d2"):
        code, _, _ = _run(capsys, "synth", "--out-dir", str(tmp_path / tag),
                          "--speakers", "2", "--utts", "2", "--duration",
                          "0.5", "--seed", "3", "--num-target", "2",
                          "--num-nontarget", "2")
        assert code == 0
    w1 = (tmp_path / "d1" / "wav" / "spk001-u001.wav").read_bytes()
    w2 = (tmp_path / "d2" / "wav" / "spk001-u001.wav").read_bytes()
    assert w1 == w2
    assert (tmp_path / "d1" / "trials.txt").read_text() == \
        (tmp_path / "d2" / "trials.txt").read_text()


def test_extract_uses_checkpoint_front_end(cli_workspace, capsys, tmp_path):
    """A model trained on 64 mel bins extracts through the CLI with the
    front-end it was trained on, and matches extract_from_wav."""
    ws = cli_workspace
    cfg = tmp_path / "mel64.cfg"
    cfg.write_text(ws["cfg"].read_text() + "n_mels = 64\n")
    run = tmp_path / "run"
    manifest = ws["corpus"] / "manifest.tsv"
    assert cli.main(["train", "--config", str(cfg), "--data", str(manifest),
                     "--out-dir", str(run), "--epochs", "1"]) == 0
    emb_path = tmp_path / "emb.txt"
    code, out, err = _run(capsys, "extract", "--checkpoint",
                          str(run / "best.ckpt"), "--data", str(manifest),
                          "--out", str(emb_path))
    assert code == 0, err
    embs = mdl.read_embeddings(emb_path)
    model, _ = tr.load_model(run / "best.ckpt")
    assert model.config.encoder.n_mels == 64
    utts = tr.load_manifest(manifest)
    assert set(embs) == {u.utt_id for u in utts}
    for u in utts:
        np.testing.assert_array_equal(embs[u.utt_id],
                                      model.extract_from_wav(u.path))


def test_flags_land_on_run_config_fields(tmp_path):
    """Each train flag overrides its RunConfig field; without the flag the
    config file's value stands."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_channels = 2\nseed = 11\npooling = mha\nheads = 4\n"
                   "max_epochs = 3\nbatch_size = 5\nlr = 0.25\n"
                   "train_loss_goal = 0.5\n")

    def parse(*flags):
        args = cli.build_parser().parse_args(
            ["train", "--data", "x", "--config", str(cfg), *flags])
        return cli._load_run_config(args)

    base = parse()
    assert (base.seed, base.pooling, base.heads, base.max_epochs,
            base.batch_size, base.lr) == (11, "mha", 4, 3, 5, 0.25)
    for flag, value, field, expected in (
            ("--seed", "2", "seed", 2),
            ("--pooling", "dmha", "pooling", "dmha"),
            ("--heads", "8", "heads", 8),
            ("--epochs", "9", "max_epochs", 9),
            ("--batch-size", "16", "batch_size", 16),
            ("--lr", "0.5", "lr", 0.5)):
        got = parse(flag, value)
        assert getattr(got, field) == expected, flag
        assert replace(got, **{field: getattr(base, field)}) == base, flag


@pytest.mark.parametrize("cut", ["header", "body"])
def test_truncated_checkpoint_is_a_one_line_error(cli_workspace, capsys,
                                                  tmp_path, cut):
    ws = cli_workspace
    data = ws["ckpt"].read_bytes()
    # 10 bytes end inside the config-length field; 3 short of the end
    # falls inside the last tensor's float64 values
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(data[:10] if cut == "header" else data[:-3])
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(tmp_path / "emb.txt"))
    assert code == 1
    assert err == f"error: {ckpt}: truncated checkpoint\n"


@pytest.mark.parametrize("content", ["", "spk000-u000 0.5 0.25\n"])
def test_embedding_file_without_header_is_a_one_line_error(capsys, tmp_path,
                                                          content):
    emb = tmp_path / "emb.txt"
    emb.write_text(content)
    trials = tmp_path / "trials.txt"
    trials.write_text("1 spk000-u000 spk000-u000\n")
    code, _, err = _run(capsys, "score", "--embeddings", str(emb),
                        "--trials", str(trials),
                        "--out", str(tmp_path / "scores.txt"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(emb) in err


def test_zero_heads_is_a_config_error():
    with pytest.raises(ValueError, match="head count 0"):
        RunConfig(heads=0).validate()


@pytest.mark.parametrize("field, value, message", [
    ("s", float("nan"), "scale s must be finite and > 0"),
    ("m", 1.5, r"margin m must be in \[0, 1\)"),
], ids=["nan-scale", "margin-above-one"])
def test_run_config_validate_checks_the_head(field, value, message):
    with pytest.raises(ValueError, match=message):
        replace(RunConfig(), **{field: value}).validate()


def test_front_end_keys_other_than_n_mels_are_rejected(tmp_path):
    """The front-end is fixed apart from n_mels, so a config file cannot set
    a hop that extraction would not use."""
    bad = tmp_path / "hop.cfg"
    bad.write_text("hop = 80\n")
    with pytest.raises(ValueError, match="unknown config key 'hop'"):
        load_config(bad)


def test_run_config_defaults_are_the_built_configs_defaults():
    """RunConfig takes each default from the config it builds, so "no early
    stop" has one value in both."""
    from dataclasses import fields

    from dmha.encoder import EncoderConfig

    run = RunConfig()
    for cfg in (tr.TrainConfig(), EncoderConfig()):
        for f in fields(cfg):
            assert getattr(run, f.name) == getattr(cfg, f.name), f.name
    assert run.model_config() == mdl.ModelConfig(EncoderConfig())


@pytest.mark.parametrize("argv", [
    ["extract", "--checkpoint", "c", "--data", "d", "--out", "o"],
    ["score", "--embeddings", "e", "--trials", "t", "--out", "o"],
    ["eval", "--trials", "t"],
    ["gradcheck"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", [["--config", "x.cfg"], ["--seed", "1"],
                                  ["--out-dir", "x"]], ids=lambda f: f[0])
def test_commands_without_run_config_reject_its_flags(argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + flag)
    assert exc.value.code != 0


@pytest.mark.parametrize("flag", [["--epochs", "0"], ["--batch-size", "1"]],
                         ids=lambda f: f[0])
def test_train_rejects_no_epochs_and_single_utterance_batches(
        cli_workspace, capsys, tmp_path, flag):
    ws = cli_workspace
    code, _, err = _run(capsys, "train", "--config", str(ws["cfg"]),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out-dir", str(tmp_path / "run"), *flag)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_checkpoint_missing_model_key_is_a_one_line_error(cli_workspace,
                                                         capsys, tmp_path):
    ws = cli_workspace
    ckpt = tmp_path / "partial.ckpt"
    tr.save_checkpoint(ckpt, {"model.n_mels": 32}, {})
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(tmp_path / "emb.txt"))
    assert code == 1
    assert err == f"error: {ckpt}: checkpoint lacks model.base_channels\n"


def test_embedding_file_blank_line_is_skipped(capsys, tmp_path):
    emb = tmp_path / "emb.txt"
    emb.write_text("dim=2 count=2\n\na 1 0\n  \nb 1 1\n\n")
    trials = tmp_path / "trials.txt"
    trials.write_text("1 a b\n")
    scores = tmp_path / "scores.txt"
    code, _, err = _run(capsys, "score", "--embeddings", str(emb),
                        "--trials", str(trials), "--out", str(scores))
    assert code == 0, err
    assert scores.read_text() == "a b 0.707106781\n"


def test_all_zero_embedding_is_a_one_line_error_naming_it(capsys, tmp_path):
    """A ReLU-tapped embedding can be all zero; its cosine score is
    undefined, so scoring stops before writing anything and names it."""
    emb = tmp_path / "emb.txt"
    emb.write_text("dim=2 count=3\na 1 0\nb 0 0\nc 1 1\n")
    trials = tmp_path / "trials.txt"
    trials.write_text("1 a c\n0 a b\n")
    scores = tmp_path / "scores.txt"
    code, _, err = _run(capsys, "score", "--embeddings", str(emb),
                        "--trials", str(trials), "--out", str(scores))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.rstrip().endswith(": b")
    assert not scores.exists()


@pytest.mark.parametrize("kind, content, lineno, message", [
    ("embeddings", "dim=2 count=1\na 1 x\n", 2, "could not convert"),
    ("embeddings", "dim=2 count=2\na 1 0\n\nb 1\n", 4, "header says dim=2"),
    ("embeddings", "dim=2 count=1\na 1 0\na 0 1\n", 3, "duplicate a"),
    ("trials", "1 a b\n1 a\n", 2, "expected '<label> <enroll-id> <test-id>'"),
    ("trials", "\n2 a b\n", 2, "bad trial label '2'"),
    ("manifest", "spk0 spk0-u0 a.wav\n", 1, "speaker<TAB>utt-id<TAB>wav-path"),
], ids=["embedding-value", "embedding-dim", "embedding-duplicate",
        "trial-fields", "trial-label", "manifest-spaces"])
def test_malformed_reader_lines_name_file_and_line(cli_workspace, capsys,
                                                   tmp_path, kind, content,
                                                   lineno, message):
    ws = cli_workspace
    paths = {"embeddings": tmp_path / "emb.txt",
             "trials": tmp_path / "trials.txt",
             "manifest": tmp_path / "manifest.tsv"}
    paths["embeddings"].write_text("dim=2 count=2\na 1 0\nb 1 1\n")
    paths["trials"].write_text("1 a b\n")
    paths["manifest"].write_text("spk0\tspk0-u0\ta.wav\n")
    paths[kind].write_text(content)
    if kind == "manifest":
        argv = ["eval", "--trials", str(paths["trials"]), "--checkpoint",
                str(ws["ckpt"]), "--data", str(paths["manifest"])]
    else:
        argv = ["eval", "--trials", str(paths["trials"]), "--embeddings",
                str(paths["embeddings"])]
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {paths[kind]}:{lineno}: ")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("name, value, message", [
    ("pool.u_prime", None, "tensor pool.u_prime is missing"),
    ("enc.b1.conv1.b", np.zeros(1),
     "tensor enc.b1.conv1.b has shape (1,), the model needs (2,)"),
], ids=["missing", "wrong-shape"])
def test_checkpoint_tensor_missing_or_misshapen_is_a_one_line_error(
        cli_workspace, capsys, tmp_path, name, value, message):
    """Every model tensor is checked against the checkpoint: a missing one
    is not a KeyError traceback, a misshapen one is not broadcast."""
    ws = cli_workspace
    config, tensors = tr.load_checkpoint(ws["ckpt"])
    if value is None:
        del tensors[name]
    else:
        tensors[name] = value
    ckpt = tmp_path / "bad.ckpt"
    tr.save_checkpoint(ckpt, config, tensors)
    emb = tmp_path / "emb.txt"
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(emb))
    assert code == 1
    assert err == f"error: {ckpt}: {message}\n"
    assert not emb.exists()


def test_embedding_count_mismatch_names_the_file(capsys, tmp_path):
    emb = tmp_path / "emb.txt"
    emb.write_text("dim=2 count=3\na 1 0\nb 1 1\n")
    trials = tmp_path / "trials.txt"
    trials.write_text("1 a b\n")
    code, _, err = _run(capsys, "eval", "--trials", str(trials),
                        "--embeddings", str(emb))
    assert code == 1
    assert err == (f"error: {emb}: header says count=3, found 2 "
                   "embeddings\n")


def test_corrupt_checkpoint_key_block_names_the_file(cli_workspace, capsys,
                                                     tmp_path):
    ws = cli_workspace
    data = bytearray(ws["ckpt"].read_bytes())
    data[12] = 0xFF   # first byte of the UTF-8 key block
    ckpt = tmp_path / "corrupt.ckpt"
    ckpt.write_bytes(bytes(data))
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(tmp_path / "emb.txt"))
    assert code == 1
    assert err.startswith(f"error: {ckpt}: corrupt checkpoint")
    assert err.count("\n") == 1


# ---- bad input names its file ------------------------------------------------


def _extract_manifest(capsys, ws, tmp_path, rows):
    manifest = tmp_path / "bad.tsv"
    manifest.write_text("".join("\t".join(row) + "\n" for row in rows))
    return manifest, _run(capsys, "extract", "--checkpoint", str(ws["ckpt"]),
                          "--data", str(manifest),
                          "--out", str(tmp_path / "emb.txt"))


@pytest.mark.parametrize("audio, message", [
    (None, "not a PCM wav file (file does not start with RIFF id)"),
    ("odd", "truncated in the middle of a sample"),
    (300, "signal of 300 samples shorter than one window (400 samples)"),
    # 1 + (2000 - 400) // 160 = 11 frames
    (2000, "utterance too short for 16x downsampling: 11 frames < 16"),
], ids=["not-riff", "cut-mid-sample", "under-one-window", "eleven-frames"])
def test_bad_audio_is_a_one_line_error_naming_the_wav(
        cli_workspace, capsys, tmp_path, audio, message):
    wav = tmp_path / "u.wav"
    if audio is None:
        wav.write_text("not audio\n")
    elif audio == "odd":
        feat.write_wav(wav, np.zeros(4000))
        wav.write_bytes(wav.read_bytes()[:-1])
    else:
        feat.write_wav(wav, np.zeros(audio))
    _, (code, _, err) = _extract_manifest(capsys, cli_workspace, tmp_path,
                                          [("spk000", "u0", str(wav))])
    assert code == 1
    assert err == f"error: {wav}: {message}\n"
    assert not (tmp_path / "emb.txt").exists()


def test_wav_shorter_than_its_header_is_a_one_line_error(
        cli_workspace, capsys, tmp_path):
    """A cut on a sample boundary leaves an even byte count, so only the
    header's frame count shows that samples are missing."""
    wav = tmp_path / "u.wav"
    feat.write_wav(wav, np.zeros(4000))
    wav.write_bytes(wav.read_bytes()[:-1000])
    _, (code, _, err) = _extract_manifest(capsys, cli_workspace, tmp_path,
                                          [("spk000", "u0", str(wav))])
    assert code == 1
    assert err == (f"error: {wav}: truncated: 3500 of the 4000 samples "
                   "the header declares\n")
    assert not (tmp_path / "emb.txt").exists()


@pytest.mark.parametrize("speaker, utt_id, message", [
    ("spk000", "spk000-u000 x",
     "utterance id 'spk000-u000 x' is empty or has whitespace"),
    ("spk000", "", "utterance id '' is empty or has whitespace"),
    ("spk,000", "u0", "speaker 'spk,000' is empty or has whitespace or ','"),
    ("spk\u2028000", "u0",
     "speaker 'spk\\u2028000' is empty or has whitespace or ','"),
], ids=["space-in-utt", "empty-utt", "comma-in-speaker",
        "separator-in-speaker"])
def test_manifest_ids_the_formats_cannot_carry_are_rejected(
        cli_workspace, capsys, tmp_path, speaker, utt_id, message):
    """Whitespace separates ids in the embedding and trial files, and ','
    separates the speakers a checkpoint records."""
    wav = tr.load_manifest(cli_workspace["corpus"] / "manifest.tsv")[0].path
    manifest, (code, _, err) = _extract_manifest(
        capsys, cli_workspace, tmp_path,
        [("spk000", "ok", wav), (speaker, utt_id, wav)])
    assert code == 1
    assert err == f"error: {manifest}:2: {message}\n"
    assert not (tmp_path / "emb.txt").exists()


def test_repeated_utterance_id_is_a_one_line_error(cli_workspace, capsys,
                                                  tmp_path):
    """One id for two wavs would train one of them twice and never read
    the other, and extract would write one embedding for the two."""
    ws = cli_workspace
    rows = [(u.speaker, u.utt_id, u.path)
            for u in tr.load_manifest(ws["corpus"] / "manifest.tsv")]
    rows[1] = (rows[1][0], rows[0][1], rows[1][2])
    manifest, (code, _, err) = _extract_manifest(capsys, ws, tmp_path, rows)
    message = f"error: {manifest}:2: duplicate utterance id {rows[0][1]}\n"
    assert code == 1 and err == message
    assert not (tmp_path / "emb.txt").exists()
    code, _, err = _run(capsys, "train", "--config", str(ws["cfg"]),
                        "--data", str(manifest),
                        "--out-dir", str(tmp_path / "run"), "--epochs", "1")
    assert code == 1 and err == message
    assert not (tmp_path / "run").exists()


def test_bad_wav_stops_training_before_the_out_dir(cli_workspace, capsys,
                                                   tmp_path):
    """Training reads every wav before it makes the out-dir, so a bad one
    leaves nothing behind."""
    ws = cli_workspace
    bad = tmp_path / "bad.wav"
    bad.write_text("not audio\n")
    rows = [(u.speaker, u.utt_id, str(bad) if i == 4 else u.path)
            for i, u in enumerate(tr.load_manifest(ws["corpus"]
                                                   / "manifest.tsv"))]
    manifest = tmp_path / "m.tsv"
    manifest.write_text("".join("\t".join(row) + "\n" for row in rows))
    run = tmp_path / "run"
    code, _, err = _run(capsys, "train", "--config", str(ws["cfg"]),
                        "--data", str(manifest), "--out-dir", str(run),
                        "--epochs", "1")
    assert code == 1
    assert err == (f"error: {bad}: not a PCM wav file (file does not start "
                   "with RIFF id)\n")
    assert not run.exists()


@pytest.mark.parametrize("line, message", [
    ("heads = x", "bad heads value 'x'"),
    ("hop = 80", "unknown config key 'hop'"),
], ids=["bad-value", "unknown-key"])
def test_config_file_error_names_the_file_and_line(capsys, tmp_path, line,
                                                   message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# grid point\nseed = 3\n{line}\n")
    code, _, err = _run(capsys, "synth", "--config", str(cfg),
                        "--out-dir", str(tmp_path / "corpus"))
    assert code == 1
    assert err == f"error: {cfg}:3: {message}\n"
    assert not (tmp_path / "corpus").exists()


@pytest.fixture(scope="module")
def text_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("text_fuzz")


# pieces of the three formats, plus bytes that are not UTF-8
_TEXT_PIECES = [b"\t", b"\n", b"\r", b" ", b",", b"=", b"0", b"1", b"2.5",
                b"nan", b"dim=2", b"count=1", b"dim=", b"spk", b"u0", b"a.wav",
                b"heads", b"pooling", b"#",
                b"\xff", b"\xc3", b"\xe2\x80", b"\xc2\x85", b"\xe2\x80\xa8"]


@given(reader=st.sampled_from(["load_manifest", "read_trials",
                               "read_embeddings", "load_config"]),
       content=st.one_of(st.binary(max_size=64),
                         st.lists(st.sampled_from(_TEXT_PIECES),
                                  max_size=40).map(b"".join)))
@settings(max_examples=300, deadline=None)
def test_text_readers_parse_or_name_the_file(text_fuzz_dir, reader, content):
    """Any bytes in a manifest, trial list, embedding file or config file
    either parse or give a ValueError whose message starts with the path."""
    read = {"load_manifest": tr.load_manifest, "read_trials": mt.read_trials,
            "read_embeddings": mdl.read_embeddings,
            "load_config": load_config}[reader]
    path = text_fuzz_dir / "input.txt"
    path.write_bytes(content)
    try:
        read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), exc


def test_undecodable_manifest_is_a_one_line_error(cli_workspace, capsys,
                                                   tmp_path):
    manifest = tmp_path / "latin1.tsv"
    manifest.write_bytes(b"spk\xff\tu0\tu0.wav\n")
    code, _, err = _run(capsys, "extract", "--checkpoint",
                        str(cli_workspace["ckpt"]), "--data", str(manifest),
                        "--out", str(tmp_path / "emb.txt"))
    assert code == 1
    assert err == f"error: {manifest}: not utf-8 text (invalid start byte)\n"


# ---- weight dumps stay in their directory ----------------------------------------


def _extract_dumps(capsys, ws, tmp_path, utt_id):
    wav = tr.load_manifest(ws["corpus"] / "manifest.tsv")[0].path
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"spk000\t{utt_id}\t{wav}\n")
    return manifest, _run(capsys, "extract", "--checkpoint", str(ws["ckpt"]),
                          "--data", str(manifest),
                          "--out", str(tmp_path / "emb.txt"),
                          "--dump-weights", str(tmp_path / "w" / "dumps"))


@pytest.mark.parametrize("utt_id", ["../escaped", "a/../../escaped", None],
                         ids=["parent", "parent-inside", "absolute"])
def test_dump_outside_the_dump_dir_is_a_one_line_error(cli_workspace, capsys,
                                                       tmp_path, utt_id):
    """Nothing is written: not the embeddings, not any dump."""
    utt_id = utt_id or str(tmp_path / "w" / "escaped")
    manifest, (code, _, err) = _extract_dumps(capsys, cli_workspace,
                                              tmp_path, utt_id)
    assert code == 1
    assert err.startswith(f"error: {manifest}: utterance id {utt_id} ")
    assert err.count("\n") == 1
    assert not (tmp_path / "emb.txt").exists()
    assert not (tmp_path / "w").exists()


def test_dump_of_an_id_with_slashes_goes_to_subdirectories(
        cli_workspace, capsys, tmp_path):
    """VoxCeleb-style ids hold '/', so the dump path gets subdirectories."""
    _, (code, out, err) = _extract_dumps(capsys, cli_workspace, tmp_path,
                                         "id10001/1zcIwhmdeo4/00001")
    assert code == 0 and err == "" and "wrote 1 embeddings" in out
    dump = tmp_path / "w" / "dumps" / "id10001" / "1zcIwhmdeo4"
    assert [p.name for p in dump.iterdir()] == ["00001.weights"]
    assert "id10001/1zcIwhmdeo4/00001" in mdl.read_embeddings(
        tmp_path / "emb.txt")


@pytest.mark.parametrize("ids, named, shared", [
    (("a/b", "a/./b"), "a/b and a/./b", "a/b.weights"),
    (("x", "x.weights/y"), "x and x.weights/y", "x.weights"),
    (("x.weights/y", "x"), "x and x.weights/y", "x.weights"),
], ids=["same-file", "file-then-directory", "directory-then-file"])
def test_dump_path_collisions_are_a_one_line_error(cli_workspace, capsys,
                                                   tmp_path, ids, named,
                                                   shared):
    """Two ids that normalise to one dump, or whose dumps need one path as
    a file and as a directory, stop extract before anything is written.
    The error names the id whose dump is the shared path first."""
    wav = tr.load_manifest(cli_workspace["corpus"] / "manifest.tsv")[0].path
    manifest = tmp_path / "m.tsv"
    manifest.write_text("".join(f"spk000\t{uid}\t{wav}\n" for uid in ids))
    dump_dir = tmp_path / "w"
    code, _, err = _run(capsys, "extract", "--checkpoint",
                        str(cli_workspace["ckpt"]), "--data", str(manifest),
                        "--out", str(tmp_path / "emb.txt"),
                        "--dump-weights", str(dump_dir))
    assert code == 1
    assert err == (f"error: {manifest}: utterance ids {named} both need "
                   f"{dump_dir / shared} for their weight dumps\n")
    assert not (tmp_path / "emb.txt").exists()
    assert not dump_dir.exists()


def test_config_error_names_the_file_and_the_overriding_flags(capsys,
                                                              tmp_path):
    """A setting that fails validation may come from the file or from a
    flag, so the error names the file and lists the flags given."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("heads = 0\n")
    code, _, err = _run(capsys, "synth", "--config", str(cfg),
                        "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert err == f"error: {cfg}: head count 0 does not divide dim 5120\n"
    code, _, err = _run(capsys, "train", "--config", str(cfg), "--data",
                        str(tmp_path / "m.tsv"), "--heads", "3", "--lr",
                        "0.5")
    assert code == 1
    assert err == (f"error: {cfg} (overridden by --heads 3, --lr 0.5): "
                   f"head count 3 does not divide dim 5120\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["score", "eval"])
def test_non_finite_embedding_is_a_one_line_error(capsys, tmp_path, command,
                                                  value):
    """A NaN or inf embedding would score NaN or skew minDCF; reading
    stops at it, naming the line and the id, before a score is written."""
    emb = tmp_path / "emb.txt"
    emb.write_text(f"dim=2 count=3\na 1 0\nb 0.5 {value}\nc 1 1\n")
    trials = tmp_path / "trials.txt"
    trials.write_text("1 a c\n0 a b\n")
    scores = tmp_path / "scores.txt"
    out_flag = "--out" if command == "score" else "--scores-out"
    code, _, err = _run(capsys, command, "--embeddings", str(emb),
                        "--trials", str(trials), out_flag, str(scores))
    assert code == 1
    assert err == f"error: {emb}:3: non-finite value for b\n"
    assert not scores.exists()


@pytest.mark.parametrize("line, message", [
    ("lr = -1e-3", "lr must be finite and > 0"),
    ("lr = nan", "lr must be finite and > 0"),
    ("weight_decay = -1", "weight_decay must be finite and >= 0"),
    ("validation_fraction = 1.5", "validation_fraction must be in [0, 1)"),
    ("validation_fraction = nan", "validation_fraction must be in [0, 1)"),
], ids=["negative-lr", "nan-lr", "negative-decay", "fraction-above-one",
        "nan-fraction"])
def test_bad_trainer_setting_in_a_config_file_names_the_file(capsys,
                                                             tmp_path, line,
                                                             message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    with pytest.raises(ValueError):
        load_config(cfg).validate()
    code, _, err = _run(capsys, "train", "--config", str(cfg), "--data",
                        str(tmp_path / "m.tsv"),
                        "--out-dir", str(tmp_path / "run"))
    assert code == 1
    assert err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, line, message", [
    ("train", "base_channels = 0", "base_channels must be >= 1"),
    ("train", "base_channels = -1", "base_channels must be >= 1"),
    ("train", "hidden = 0", "hidden must be >= 1"),
    ("train", "hidden = -1", "hidden must be >= 1"),
    ("train", "seed = -1", "seed must be >= 0"),
    ("synth", "seed = -1", "seed must be >= 0"),
], ids=["zero-channels", "negative-channels", "zero-hidden",
        "negative-hidden", "negative-seed-train", "negative-seed-synth"])
def test_model_size_or_seed_below_its_range_names_the_config_file(
        cli_workspace, capsys, tmp_path, command, line, message):
    """A zero width divided by zero in the He init, a negative one reached
    numpy, and a negative seed reached the RNG; each is now a setting
    error that names the file, with nothing written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "out"
    argv = (["--data", str(cli_workspace["corpus"] / "manifest.tsv")]
            if command == "train" else [])
    code, _, err = _run(capsys, command, "--config", str(cfg),
                        "--out-dir", str(out), *argv)
    assert code == 1
    assert err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("model.base_channels", "0", "base_channels must be >= 1"),
    ("model.base_channels", "-1", "base_channels must be >= 1"),
    ("model.hidden", "0", "hidden must be >= 1"),
    ("model.hidden", "-1", "hidden must be >= 1"),
], ids=["zero-channels", "negative-channels", "zero-hidden",
        "negative-hidden"])
def test_checkpoint_model_size_below_its_range_names_the_checkpoint(
        cli_workspace, capsys, tmp_path, key, value, message):
    ws = cli_workspace
    config, tensors = tr.load_checkpoint(ws["ckpt"])
    config[key] = value
    ckpt = tmp_path / "bad.ckpt"
    tr.save_checkpoint(ckpt, config, tensors)
    emb = tmp_path / "emb.txt"
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(emb))
    assert code == 1
    assert err == f"error: {ckpt}: {message}\n"
    assert not emb.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["0", "-16"])
def test_checkpoint_n_mels_below_16_names_the_checkpoint(
        cli_workspace, capsys, tmp_path, value):
    """0 divided by zero in the pooling init and -16 reached a square root
    and numpy; both are now the encoder's n_mels error, naming the file."""
    ws = cli_workspace
    config, tensors = tr.load_checkpoint(ws["ckpt"])
    config["model.n_mels"] = value
    ckpt = tmp_path / "bad.ckpt"
    tr.save_checkpoint(ckpt, config, tensors)
    emb = tmp_path / "emb.txt"
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(emb))
    assert code == 1
    assert err == f"error: {ckpt}: n_mels must be >= 16, got {value}\n"
    assert not emb.exists()


def test_bytes_after_the_last_tensor_is_a_one_line_error(cli_workspace,
                                                         capsys, tmp_path):
    ws = cli_workspace
    ckpt = tmp_path / "padded.ckpt"
    ckpt.write_bytes(ws["ckpt"].read_bytes() + b"x" * 29)
    emb = tmp_path / "emb.txt"
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(emb))
    assert code == 1
    assert err == (f"error: {ckpt}: corrupt checkpoint (29 bytes after the "
                   "last tensor)\n")
    assert not emb.exists()


def test_repeated_config_key_names_the_second_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.5\nseed = 3\nlr = 0.001\n")
    with pytest.raises(ValueError) as exc:
        load_config(cfg)
    assert str(exc.value) == f"{cfg}:3: duplicate config key 'lr'"
    code, _, err = _run(capsys, "synth", "--config", str(cfg),
                        "--out-dir", str(tmp_path / "corpus"))
    assert code == 1
    assert err == f"error: {cfg}:3: duplicate config key 'lr'\n"
    assert not (tmp_path / "corpus").exists()


def _hand_written_checkpoint(path, key_lines, records):
    """save_checkpoint's layout from raw key lines and (name, array)
    records, which save_checkpoint itself could not repeat or misspell."""
    blob = "".join(line + "\n" for line in key_lines).encode()
    parts = [tr.CKPT_MAGIC, struct.pack("<II", tr.CKPT_VERSION, len(blob)),
             blob, struct.pack("<I", len(records))]
    for name, arr in records:
        parts += [struct.pack("<H", len(name)), name.encode(),
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                  arr.astype("<f8").tobytes()]
    path.write_bytes(b"".join(parts))


@pytest.mark.parametrize("case, message", [
    ("repeated-key", "key model.hidden appears twice"),
    ("repeated-tensor", "tensor pool.u appears twice"),
    ("key-without-equals", "key line 'garbage' has no '='"),
], ids=["repeated-key", "repeated-tensor", "key-without-equals"])
def test_repeated_or_malformed_checkpoint_entry_is_a_one_line_error(
        cli_workspace, capsys, tmp_path, case, message):
    """Each of these loaded before: the last of two equal names won, and
    a line without '=' became a key with an empty value."""
    ws = cli_workspace
    config, tensors = tr.load_checkpoint(ws["ckpt"])
    key_lines = [f"{k}={config[k]}" for k in sorted(config)]
    records = [(name, tensors[name]) for name in sorted(tensors)]
    if case == "repeated-key":
        key_lines.append(f"model.hidden={config['model.hidden']}")
    elif case == "repeated-tensor":
        records.append(("pool.u", tensors["pool.u"]))
    else:
        key_lines.append("garbage")
    ckpt = tmp_path / "hand.ckpt"
    _hand_written_checkpoint(ckpt, key_lines, records)
    emb = tmp_path / "emb.txt"
    code, _, err = _run(capsys, "extract", "--checkpoint", str(ckpt),
                        "--data", str(ws["corpus"] / "manifest.tsv"),
                        "--out", str(emb))
    assert code == 1
    assert err == f"error: {ckpt}: corrupt checkpoint ({message})\n"
    assert not emb.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_gradcheck_with_no_seed_is_a_one_line_error(capsys, value):
    code, out, err = _run(capsys, "gradcheck", "--num-seeds", value)
    assert code == 1
    assert out == ""
    assert err == f"error: --num-seeds must be >= 1, got {value}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    (["--duration", "inf"],
     "duration must be finite and at least one sample (1/16000 s), got inf"),
    (["--duration", "nan"],
     "duration must be finite and at least one sample (1/16000 s), got nan"),
    (["--duration", "0"],
     "duration must be finite and at least one sample (1/16000 s), got 0.0"),
    (["--duration", "-1"],
     "duration must be finite and at least one sample (1/16000 s), got -1.0"),
    (["--num-target", "-1"], "--num-target must be >= 0, got -1"),
    (["--num-nontarget", "-1"], "--num-nontarget must be >= 0, got -1"),
], ids=["duration-inf", "duration-nan", "duration-zero", "duration-negative",
        "num-target-negative", "num-nontarget-negative"])
def test_synth_size_out_of_range_is_a_one_line_error_before_writing(
        capsys, tmp_path, argv, message):
    """These ended in a traceback or in a numpy error naming no setting,
    some after every wav was written."""
    out = tmp_path / "corpus"
    code, _, err = _run(capsys, "synth", "--out-dir", str(out),
                        "--speakers", "2", "--utts", "2", *argv)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()
