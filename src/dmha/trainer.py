"""Speaker-classification training loop.

Adam with L2-coupled weight decay, random fixed-length chunk batches,
plateau-triggered learning-rate annealing, binary checkpoints that
round-trip bit-exactly.
"""

from __future__ import annotations

import math
import os
import shutil
import struct
import zlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from . import features as feat
from .metrics import naming, replacing, text_lines
from .model import ModelConfig, SpeakerModel


@dataclass(frozen=True)
class TrainConfig:
    chunk_frames: int = 350
    batch_size: int = 128
    lr: float = 1e-4
    weight_decay: float = 1e-3
    max_epochs: int = 100
    anneal_patience: int = 15
    anneal_factor: float = 0.5
    seed: int = 0
    validation_fraction: float = 0.05
    # desk-scale early stop below this train loss; -inf never stops
    train_loss_goal: float = float("-inf")

    def __post_init__(self):
        if self.chunk_frames < 16:
            raise ValueError("chunk_frames must be >= 16")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batchnorm)")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (0 < self.anneal_factor < 1):
            raise ValueError("anneal_factor must be in (0, 1)")
        if self.anneal_patience < 1:
            raise ValueError("anneal_patience must be >= 1")
        if not 0 <= self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if math.isnan(self.train_loss_goal):
            raise ValueError("train_loss_goal must not be nan")


# ---- dataset ----------------------------------------------------------------


@dataclass(frozen=True)
class Utterance:
    speaker: str
    utt_id: str
    path: str


def load_manifest(path) -> list[Utterance]:
    """Manifest: one line per utterance, "speaker<TAB>utt-id<TAB>wav-path".
    Ids are unique, non-empty and free of whitespace, which separates them
    in the trial and embedding files; a speaker has no ',', which separates
    the speakers in a checkpoint."""
    utts, seen = [], set()
    for lineno, line in text_lines(path):
        with naming(path, lineno):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError("expected speaker<TAB>utt-id<TAB>wav-path")
            speaker, utt_id, _ = parts
            if speaker.split() != [speaker] or "," in speaker:
                raise ValueError(f"speaker {speaker!r} is empty or has "
                                 "whitespace or ','")
            if utt_id.split() != [utt_id]:
                raise ValueError(f"utterance id {utt_id!r} is empty or has "
                                 "whitespace")
            if utt_id in seen:
                raise ValueError(f"duplicate utterance id {utt_id}")
            seen.add(utt_id)
            utts.append(Utterance(*parts))
    return utts


class FeatureCache(dict):
    """CMN log-mel features keyed by utterance id, all read up front, so a
    bad wav stops training before it writes anything.

    The features are stored as float32, so training and validation chunks
    run the encoder in float32. Parameters, their gradients, Adam, BN,
    pooling, the head, the loss, checkpoints and the gradient check stay
    float64 (see autodiff's dtype policy)."""

    def __init__(self, utterances, fconfig: feat.FeatureConfig):
        super().__init__(
            (u.utt_id,
             feat.utterance_features(u.path, fconfig).astype(np.float32))
            for u in utterances)

    __call__ = dict.__getitem__


# ---- chunking / optimizer ----------------------------------------------------


def _window(frames: np.ndarray, chunk_frames: int, off: int) -> np.ndarray:
    """chunk_frames frames from off on, wrapping past the end as often as
    needed: a copy, so it holds no reference to frames."""
    return frames[(off + np.arange(chunk_frames)) % len(frames)]


def sample_chunk(frames: np.ndarray, chunk_frames: int, rng) -> np.ndarray:
    """Random contiguous window of exactly chunk_frames frames; shorter
    utterances are wrap-padded by repetition. A long utterance's window
    never wraps; a short one's starts at any frame."""
    n = len(frames)
    high = n - chunk_frames + 1 if n >= chunk_frames else n
    return _window(frames, chunk_frames, rng.integers(0, high))


def fixed_chunk(frames: np.ndarray, chunk_frames: int) -> np.ndarray:
    """Deterministic leading window (wrap-padded); used for validation."""
    return _window(frames, chunk_frames, 0)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float):
    """Classic Adam; L2 decay is added to the gradient before the moments."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape "
                f"{p.data.shape} for {name}")
        if weight_decay:
            g = g + weight_decay * p.data
        state.m[name] = beta1 * state.m.get(name, 0.0) + (1 - beta1) * g
        state.v[name] = beta2 * state.v.get(name, 0.0) + (1 - beta2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)


# ---- checkpoint format -------------------------------------------------------

CKPT_MAGIC = b"DMHA"
CKPT_VERSION = 1


def save_checkpoint(path, config: dict, tensors: dict):
    """Little-endian binary: magic, u32 version, length-prefixed UTF-8
    key=value block, then per-tensor records (name, rank, dims, raw f64).

    Written through metrics.replacing, which fsyncs the bytes before they
    replace path: a crash mid-write leaves the old file whole."""
    blob = "".join(f"{k}={config[k]}\n" for k in sorted(config)).encode()
    with replacing(path) as tmp, open(tmp, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def _copy_checkpoint(src, dst):
    """Replace dst whole by a copy of the checkpoint at src, fsynced by
    metrics.replacing, so its state is not serialised again and the two
    names stay independent files."""
    with replacing(dst) as tmp:
        shutil.copyfile(src, tmp)


def load_checkpoint(path):
    """(config, tensors) at path; each tensor is a float64 array of its own."""
    with naming(path), open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n):
            # a corrupt length may be far larger than memory: check it
            # against the file before reading
            if n > size - f.tell():
                raise ValueError("truncated checkpoint")
            return f.read(n)

        def text(n):
            try:
                return read(n).decode()
            except UnicodeDecodeError:
                raise ValueError("corrupt checkpoint (a key or tensor name "
                                 "is not UTF-8)") from None

        if f.read(4) != CKPT_MAGIC:
            raise ValueError("not a DMHA checkpoint")
        version, = struct.unpack("<I", read(4))
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        clen, = struct.unpack("<I", read(4))
        config = {}
        for line in text(clen).splitlines():
            k, eq, v = line.partition("=")
            if not eq:
                raise ValueError(f"corrupt checkpoint (key line {line!r} "
                                 "has no '=')")
            if k in config:
                raise ValueError(f"corrupt checkpoint (key {k} appears "
                                 "twice)")
            config[k] = v
        ntensors, = struct.unpack("<I", read(4))
        tensors = {}
        for _ in range(ntensors):
            nlen, = struct.unpack("<H", read(2))
            name = text(nlen)
            if name in tensors:
                raise ValueError(f"corrupt checkpoint (tensor {name} "
                                 "appears twice)")
            rank, = struct.unpack("<B", read(1))
            dims = struct.unpack(f"<{rank}I", read(4 * rank))
            data = np.frombuffer(read(8 * math.prod(dims)), dtype="<f8")
            try:
                tensors[name] = data.reshape(dims).astype(np.float64)
            except ValueError:  # numpy caps the rank and the element count
                raise ValueError(f"corrupt checkpoint (tensor {name} has "
                                 f"dims {dims})") from None
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"tensor {name} is not finite")
        if f.tell() != size:
            raise ValueError(f"corrupt checkpoint ({size - f.tell()} bytes "
                             "after the last tensor)")
    return config, tensors


def parse_value(key: str, ftype: type, raw: str):
    """raw as ftype (int, float or str); a malformed value is a ValueError
    naming key. Reads checkpoint model.* values and config files alike."""
    try:
        return ftype(raw)
    except ValueError:
        raise ValueError(f"bad {key} value {raw!r}") from None


def _leaf_values(obj) -> dict:
    """A dataclass's field values, a nested dataclass's in place of it."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out.update(_leaf_values(v) if is_dataclass(v) else {f.name: v})
    return out


def model_config_to_dict(mc: ModelConfig) -> dict:
    """The model.* checkpoint keys, which load_model reads back."""
    return {"model." + k: v for k, v in _leaf_values(mc).items()}


def load_model(path, checkpoint=None) -> tuple[SpeakerModel, dict]:
    """Rebuild a SpeakerModel (and its meta dict) from the checkpoint at
    path, or from its load_checkpoint() pair when already read: the one
    route from a checkpoint to a model. Each model.* value is parsed by its
    field's type; a missing, malformed or invalid one is a FormatError. The
    model takes the checkpoint's tensors and draws no random number
    (SpeakerModel.from_state_tensors), so dmha extract and eval never
    import numpy.random."""
    config, tensors = checkpoint or load_checkpoint(path)

    def build(cls):  # the inverse of _leaf_values
        kw = {}
        for name, ftype in get_type_hints(cls).items():
            key = "model." + name
            if is_dataclass(ftype):
                kw[name] = build(ftype)
            elif key not in config:
                raise ValueError(f"checkpoint lacks {key}")
            else:
                kw[name] = parse_value(key, ftype, config[key])
        return cls(**kw)

    with naming(path):
        model = SpeakerModel.from_state_tensors(build(ModelConfig), tensors)
    return model, config


# ---- training loop -----------------------------------------------------------


def _run_keys(model_config: ModelConfig, tconfig: TrainConfig) -> dict:
    """The checkpoint keys a resumed run must match: the model and the
    settings that shape its batches and its loss."""
    keys = model_config_to_dict(model_config)
    keys.update({
        "train.seed": tconfig.seed,
        "train.chunk_frames": tconfig.chunk_frames,
        "train.batch_size": tconfig.batch_size,
        "train.weight_decay": tconfig.weight_decay,
        "train.validation_fraction": tconfig.validation_fraction,
    })
    return keys


@dataclass
class TrainState:
    """Everything a resumed run needs: the model, its Adam moments, the
    learning rate, the last finished epoch, the plateau counters and the
    epoch log's rows (epoch, train_loss, val_loss, lr)."""

    model: SpeakerModel
    lr: float
    adam: AdamState = field(default_factory=AdamState)
    epoch: int = 0
    best_val: float = float("inf")
    since_improve: int = 0
    log_rows: list = field(default_factory=list)

    def save(self, path, tconfig: TrainConfig, speakers: list[str]):
        """Write the state as a checkpoint that load_model also reads."""
        config = _run_keys(self.model.config, tconfig)
        config.update({
            "train.epoch": self.epoch,
            "train.step": self.adam.t,
            "train.lr": self.lr,
            "train.best_val": self.best_val,
            "train.since_improve": self.since_improve,
            "speakers": ",".join(speakers),
        })
        tensors = self.model.state_tensors()
        for name in self.model.params:
            tensors["adam.m." + name] = self.adam.m[name]
            tensors["adam.v." + name] = self.adam.v[name]
        tensors["train.log"] = np.reshape(self.log_rows, (-1, 4))
        save_checkpoint(path, config, tensors)

    @classmethod
    def load(cls, path, model_config: ModelConfig, tconfig: TrainConfig,
             speakers: list[str]) -> "TrainState":
        """The state save() wrote to path, around the model load_model
        builds from it. A checkpoint that load_model rejects, without
        training state, of other speakers, of another model or run setting
        (_run_keys), with misshapen Adam moments or with no epoch left to
        train is a ValueError (train() names path), as is an lr that
        TrainConfig rejects, a negative epoch, step or plateau count, a NaN
        or negative best_val (+inf is a run that never improved; a loss is
        >= 0) or a train.log record that is not (n, 4) with n <= the epoch.
        A checkpoint without that record resumes with no earlier rows."""
        config, tensors = checkpoint = load_checkpoint(path)
        model, _ = load_model(path, checkpoint)
        # the model.* values as save() would write them
        config.update(model_config_to_dict(model.config))
        # a checkpoint written before the split was a run key has no
        # train.validation_fraction; its resume is not checked for it
        config.setdefault("train.validation_fraction",
                          tconfig.validation_fraction)

        def count(key):
            n = int(config[key])
            if n < 0:
                raise ValueError(f"{key}={n} is negative")
            return n

        try:
            # replace() checks the lr by TrainConfig's own rule
            lr = replace(tconfig, lr=float(config["train.lr"])).lr
            state = cls(model, lr, AdamState(t=count("train.step")),
                        epoch=count("train.epoch"),
                        best_val=float(config["train.best_val"]),
                        since_improve=count("train.since_improve"))
            if math.isnan(state.best_val):
                raise ValueError("train.best_val is nan")
            if state.best_val < 0:
                raise ValueError(f"train.best_val={state.best_val} is "
                                 "negative")
            trained_on = config["speakers"].split(",")
            mismatch = [(key, config[key], want) for key, want in
                        _run_keys(model_config, tconfig).items()
                        if str(config[key]) != str(want)]
        except KeyError as exc:
            raise ValueError("checkpoint has no training state "
                             f"({exc.args[0]} is missing)") from None
        except ValueError as exc:
            raise ValueError(f"bad training state: {exc}") from None
        if trained_on != speakers:
            differ = sorted(set(trained_on) ^ set(speakers))[:3]
            raise ValueError("checkpoint speakers differ from the dataset's "
                             f"({', '.join(differ) or 'in order'})")
        if mismatch:
            key, have, want = mismatch[0]
            raise ValueError(f"checkpoint has {key}={have}, the run has "
                             f"{want}")
        if state.epoch >= tconfig.max_epochs:
            raise ValueError(f"checkpoint is at epoch {state.epoch}, "
                             f"max_epochs {tconfig.max_epochs} leaves "
                             "nothing to train")
        for name, p in model.params.items():
            for key, moments in (("adam.m.", state.adam.m),
                                 ("adam.v.", state.adam.v)):
                moment = tensors.get(key + name)
                if moment is None or moment.shape != p.data.shape:
                    raise ValueError(f"tensor {key + name} is missing or "
                                     f"its shape is not {p.data.shape}")
                moments[name] = moment
        log = tensors.get("train.log", np.zeros((0, 4)))
        if log.ndim != 2 or log.shape[1] != 4 or len(log) > state.epoch:
            raise ValueError(f"tensor train.log has shape {log.shape}, not "
                             f"(n, 4) with n <= train.epoch={state.epoch}")
        state.log_rows = [(int(e), *rest) for e, *rest in log.tolist()]
        return state


@dataclass
class TrainResult:
    best_path: str
    last_path: str
    log_rows: list          # this call's (epoch, train_loss, val_loss, lr)
    anneal_epochs: list
    epochs_run: int

    @property
    def final_train_loss(self) -> float:
        return self.log_rows[-1][1]


def _forward_batch(model, batch_mel, labels, training):
    out = model.forward(np.stack(batch_mel), labels=np.asarray(labels),
                        training=training)
    return out["loss"]


def _split_dataset(dataset: list[Utterance], tconfig: TrainConfig):
    """(speakers, train, val): an utterance-disjoint validation split with
    every speaker on both sides."""
    speakers = sorted({u.speaker for u in dataset})
    by_speaker: dict[str, list[Utterance]] = {s: [] for s in speakers}
    for u in dataset:
        by_speaker[u.speaker].append(u)
    if len(speakers) < 2 or any(len(v) < 2 for v in by_speaker.values()):
        raise ValueError(
            "degenerate dataset: need >= 2 speakers with >= 2 utterances each")
    split_rng = np.random.default_rng([tconfig.seed, zlib.crc32(b"split")])
    train_utts, val_utts = [], []
    for s in speakers:
        utts = sorted(by_speaker[s], key=lambda u: u.utt_id)
        n_val = (max(1, int(round(tconfig.validation_fraction * len(utts))))
                 if tconfig.validation_fraction > 0 else 0)
        n_val = min(n_val, len(utts) - 1)
        picks = set(split_rng.choice(len(utts), size=n_val, replace=False))
        for i, u in enumerate(utts):
            (val_utts if i in picks else train_utts).append(u)
    return speakers, train_utts, val_utts


def _run_epoch(state: TrainState, tconfig: TrainConfig, utts, label_of,
               cache, step_hook) -> float:
    """One Adam step per batch of random chunks, one chunk per utterance in
    the epoch's shuffled order; returns the mean step loss. A non-finite
    loss or parameter gradient is a ValueError naming the epoch and step,
    raised before Adam touches the weights."""
    rng = np.random.default_rng([tconfig.seed, zlib.crc32(b"epoch"),
                                 state.epoch])
    order = rng.permutation(len(utts))
    losses = []
    for b0 in range(0, len(order), tconfig.batch_size):
        batch = [utts[i] for i in order[b0:b0 + tconfig.batch_size]]
        if len(batch) < 2:
            continue  # batchnorm needs batch >= 2
        # drawn per batch, so an epoch holds one batch of chunk copies
        mels = [sample_chunk(cache(u.utt_id), tconfig.chunk_frames, rng)
                for u in batch]
        labels = [label_of[u.speaker] for u in batch]
        loss = _forward_batch(state.model, mels, labels, training=True)
        for p in state.model.params.values():
            p.zero_grad()
        loss.backward()
        grads = {name: p.grad for name, p in state.model.params.items()
                 if p.grad is not None}
        value = loss.item()
        bad = ("loss" if not math.isfinite(value) else
               next((f"gradient of {name}" for name, g in grads.items()
                     if not np.isfinite(g).all()), None))
        if bad is not None:
            raise ValueError(f"epoch {state.epoch} step {len(losses) + 1}: "
                             f"non-finite {bad}; stopped before the Adam "
                             "step")
        adam_step(state.model.params, grads, state.adam, state.lr,
                  tconfig.weight_decay)
        losses.append(value)
        if step_hook is not None:
            step_hook(state.epoch, len(losses), state.model)
    return float(np.mean(losses))


def _validate(model, tconfig: TrainConfig, utts, label_of, cache) -> float:
    """Mean loss over the leading chunk of each utterance, no gradients."""
    vlosses = []
    with ad.no_grad():
        for b0 in range(0, len(utts), tconfig.batch_size):
            batch = utts[b0:b0 + tconfig.batch_size]
            mels = [fixed_chunk(cache(u.utt_id), tconfig.chunk_frames)
                    for u in batch]
            labels = [label_of[u.speaker] for u in batch]
            loss = _forward_batch(model, mels, labels, training=False)
            vlosses.append(loss.item() * len(batch))
    return float(np.sum(vlosses) / len(utts))


def _write_log(path, log_rows):
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        f.write("epoch,train_loss,val_loss,lr\n")
        for e, tl, vl, l in log_rows:
            f.write(f"{e},{tl:.17g},{vl:.17g},{l:.17g}\n")


def train(tconfig: TrainConfig, dataset: list[Utterance],
          model_config: ModelConfig, out_dir,
          fconfig: feat.FeatureConfig | None = None,
          resume=None, step_hook=None) -> TrainResult:
    """Train a speaker classifier; returns paths to best/last checkpoints.

    Deterministic under tconfig.seed: parameter init, the train/val split,
    epoch shuffles and chunk offsets all flow from named sub-streams, and
    epoch streams are keyed by (seed, epoch) so resumed runs replay the
    identical batch sequence; best.ckpt is written when validation improves,
    and last.ckpt is then a copy of it.
    fconfig, if given, must be the model's own front-end, the one
    load_model rebuilds.
    """
    speakers, train_utts, val_utts = _split_dataset(dataset, tconfig)
    model_config = replace(model_config, num_speakers=len(speakers))
    label_of = {s: i for i, s in enumerate(speakers)}
    if resume is None:
        state = TrainState(SpeakerModel(model_config, seed=tconfig.seed),
                           tconfig.lr)
    else:
        with naming(resume):
            state = TrainState.load(resume, model_config, tconfig, speakers)
    front_end = state.model.feature_config()
    if fconfig is not None and fconfig != front_end:
        raise ValueError(f"fconfig {fconfig} does not match the model's "
                         f"front-end {front_end}")
    cache = FeatureCache(dataset, front_end)
    best_path, last_path, log_path = (os.path.join(out_dir, name) for name in
                                      ("best.ckpt", "last.ckpt",
                                       "train_log.csv"))
    # a resume into a fresh out-dir copies the best.ckpt beside its source
    earlier = os.path.join(os.path.dirname(resume or ""), "best.ckpt")
    kept = (load_checkpoint(earlier)[0] if resume is not None and not
            os.path.exists(best_path) and os.path.exists(earlier) else {})
    os.makedirs(out_dir, exist_ok=True)
    if kept.get("train.best_val") == str(state.best_val):
        _copy_checkpoint(earlier, best_path)
    first, anneal_epochs = len(state.log_rows), []
    for epoch in range(state.epoch + 1, tconfig.max_epochs + 1):
        state.epoch = epoch
        train_loss = _run_epoch(state, tconfig, train_utts, label_of, cache,
                                step_hook)
        val_loss = (_validate(state.model, tconfig, val_utts, label_of, cache)
                    if val_utts else train_loss)
        state.log_rows.append((state.epoch, train_loss, val_loss, state.lr))
        if val_loss < state.best_val:
            state.best_val = val_loss
            state.since_improve = 0
            # last.ckpt holds the same state: serialise it once
            state.save(best_path, tconfig, speakers)
            _copy_checkpoint(best_path, last_path)
        else:
            state.since_improve += 1
            if state.since_improve >= tconfig.anneal_patience:
                state.lr *= tconfig.anneal_factor
                anneal_epochs.append(state.epoch)
                state.since_improve = 0
            state.save(last_path, tconfig, speakers)
        _write_log(log_path, state.log_rows)
        if train_loss < tconfig.train_loss_goal:
            break
    if not os.path.exists(best_path):
        _copy_checkpoint(last_path, best_path)
    log_rows = state.log_rows[first:]
    return TrainResult(best_path, last_path, log_rows, anneal_epochs,
                       epochs_run=len(log_rows))
