"""Batch command-line surface: synth, train, extract, score, eval, gradcheck."""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import gradcheck as gc
from . import metrics as mt
from . import model as mdl
from . import pooling as pl
from . import synthdata as sd
from . import trainer as tr
from .config import RunConfig, apply_overrides, load_config


# flag -> RunConfig field; apply_overrides drops unset (None) flags
_FLAG_FIELDS = {"seed": "seed", "pooling": "pooling", "heads": "heads",
                "epochs": "max_epochs", "batch_size": "batch_size",
                "lr": "lr"}


def _load_run_config(args) -> RunConfig:
    """The --config file (or the defaults) with the flags applied. A
    setting that fails validation names the file and the flags that
    overrode it, since the failing value may come from either."""
    flags = {flag: getattr(args, flag, None) for flag in _FLAG_FIELDS}
    cfg = apply_overrides(load_config(args.config) if args.config
                          else RunConfig(),
                          **{_FLAG_FIELDS[f]: v for f, v in flags.items()})
    try:
        return cfg.validate()
    except ValueError as exc:
        if not args.config:
            raise
        given = ", ".join(f"--{f.replace('_', '-')} {v}"
                          for f, v in flags.items() if v is not None)
        where = f" (overridden by {given})" if given else ""
        raise ValueError(f"{args.config}{where}: {exc}") from None


def _at_least(args, low, *flags):
    """A ValueError naming the first flag whose value is below low."""
    for flag in flags:
        if getattr(args, flag) < low:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {low}, "
                             f"got {getattr(args, flag)}")


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    _at_least(args, 2, "speakers")
    _at_least(args, 1, "utts")
    _at_least(args, 0, "num_target", "num_nontarget")
    if args.num_target == args.num_nontarget == 0:
        raise ValueError("--num-target and --num-nontarget are both 0, so "
                         "the trial list would be empty")
    sd.check_duration(args.duration)
    n, k = args.speakers, args.utts
    pools = {"num_target": n * math.comb(k, 2),         # same-speaker pairs
             "num_nontarget": math.comb(n, 2) * k * k}  # cross-speaker pairs
    for flag, pool in pools.items():
        if getattr(args, flag) > pool:
            raise ValueError(f"--{flag.replace('_', '-')} must be <= {pool} "
                             f"for {n} speakers x {k} utterances, got "
                             f"{getattr(args, flag)}")
    # a failed run must not leave trials whose ids fit another corpus
    trials_path = os.path.join(args.out_dir, "trials.txt")
    if os.path.exists(trials_path):
        os.remove(trials_path)
    manifest = sd.generate_corpus(args.out_dir, args.speakers, args.utts,
                                  duration_s=args.duration, seed=cfg.seed)
    utts = tr.load_manifest(manifest)
    trials = sd.make_trials(utts, args.num_target, args.num_nontarget,
                            seed=cfg.seed)
    mt.write_trials(trials_path, trials)
    print(f"wrote {len(utts)} utterances to {manifest}")
    print(f"wrote {len(trials)} trials to {trials_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    dataset = tr.load_manifest(args.data)
    result = tr.train(cfg.train_config(), dataset, cfg.model_config(),
                      args.out_dir, resume=args.resume)
    last = result.log_rows[-1]
    print(f"trained {result.epochs_run} epochs; final train_loss="
          f"{last[1]:.4f} val_loss={last[2]:.4f}")
    print(f"best checkpoint: {result.best_path}")
    return 0


def _extract_embeddings(checkpoint, utts):
    model, _ = tr.load_model(checkpoint)
    embeddings = {}
    weights = {}
    for u in utts:
        emb, w, hw = model.extract(u.path)
        embeddings[u.utt_id] = emb
        weights[u.utt_id] = (w, hw)
    return embeddings, weights


def _dump_paths(manifest, dump_dir, uids) -> dict:
    """Each uid's weight-dump path under dump_dir; an id with '/' gets
    subdirectories. An id whose dump would leave dump_dir, or two ids that
    need one path (as both their dumps, or as one's dump and the other's
    directory), are a FormatError naming the manifest."""
    def clash(a, b, rel):
        return mt.FormatError(manifest, f"utterance ids {a} and {b} both need "
                              f"{os.path.join(dump_dir, rel)} for their "
                              "weight dumps")

    owner = {}   # normalised path under dump_dir -> the id whose dump it is
    for uid in uids:
        rel = os.path.normpath(uid + ".weights")
        if os.path.isabs(rel) or rel.split(os.sep)[0] == os.pardir:
            raise mt.FormatError(manifest, f"utterance id {uid} would put "
                                 f"its weight dump outside {dump_dir}")
        if rel in owner:
            raise clash(owner[rel], uid, rel)
        owner[rel] = uid
    for rel, uid in owner.items():
        parts = rel.split(os.sep)
        for d in (os.path.join(*parts[:i]) for i in range(1, len(parts))):
            if d in owner:
                raise clash(owner[d], uid, d)
    return {uid: os.path.join(dump_dir, rel) for rel, uid in owner.items()}


def cmd_extract(args) -> int:
    utts = tr.load_manifest(args.data)
    dumps = (_dump_paths(args.data, args.dump_weights,
                         [u.utt_id for u in utts])
             if args.dump_weights else {})
    embeddings, weights = _extract_embeddings(args.checkpoint, utts)
    mdl.write_embeddings(args.out, embeddings)
    for uid, path in dumps.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(pl.format_weights(*weights[uid]))
    print(f"wrote {len(embeddings)} embeddings to {args.out}")
    return 0


def cmd_score(args) -> int:
    trials = mt.read_trials(args.trials)
    embeddings = mdl.read_embeddings(args.embeddings)
    mt.score_trials(trials, embeddings)
    mt.write_scores(args.out, trials)
    print(f"wrote {len(trials)} scores to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.embeddings and (args.checkpoint or args.data):
        raise ValueError("eval takes --embeddings or --checkpoint with "
                         "--data, not both")
    trials = mt.read_trials(args.trials)
    if args.embeddings:
        embeddings = mdl.read_embeddings(args.embeddings)
    else:
        if not (args.checkpoint and args.data):
            raise ValueError("eval needs --embeddings or --checkpoint with --data")
        embeddings, _ = _extract_embeddings(args.checkpoint,
                                            tr.load_manifest(args.data))
    report = mt.evaluate_trials(trials, embeddings)
    if args.scores_out:
        mt.write_scores(args.scores_out, trials)
    sys.stdout.write(mt.format_report(report))
    return 0


def cmd_gradcheck(args) -> int:
    _at_least(args, 1, "num_seeds")
    seeds = tuple(range(args.num_seeds))
    results = gc.run_gradcheck(seeds=seeds)
    sys.stdout.write(gc.format_table(results))
    return 0 if all(err <= gc.TOLERANCE for _, err in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dmha",
        description="Speaker verification with double multi-head attention pooling")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out-dir", default="out")

    sp = sub.add_parser("synth", help="generate a synthetic corpus + trials")
    common(sp)
    sp.add_argument("--speakers", type=int, default=16)
    sp.add_argument("--utts", type=int, default=10)
    sp.add_argument("--duration", type=float, default=4.0)
    sp.add_argument("--num-target", type=int, default=200)
    sp.add_argument("--num-nontarget", type=int, default=200)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="train a speaker classifier")
    common(sp)
    sp.add_argument("--data", required=True, help="manifest tsv")
    sp.add_argument("--pooling", choices=pl.POOLING_KINDS, default=None)
    sp.add_argument("--heads", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--resume", default=None, help="checkpoint to resume from")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("extract", help="extract embeddings from a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True, help="manifest tsv")
    sp.add_argument("--out", required=True, help="embedding file")
    sp.add_argument("--dump-weights", default=None,
                    help="directory for attention-weight dumps")
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("score", help="cosine-score a trial list")
    sp.add_argument("--embeddings", required=True)
    sp.add_argument("--trials", required=True)
    sp.add_argument("--out", required=True, help="score file")
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("eval", help="EER / minDCF over a trial list")
    sp.add_argument("--trials", required=True)
    sp.add_argument("--embeddings", default=None)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--data", default=None, help="manifest tsv")
    sp.add_argument("--scores-out", default=None)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gradcheck", help="finite-difference layer checks")
    sp.add_argument("--num-seeds", type=int, default=5)
    sp.set_defaults(func=cmd_gradcheck)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
