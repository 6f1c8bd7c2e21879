"""Full speaker network: features -> encoder -> pooling -> FC head.

Owns parameter initialization (named sub-streams off one seed), forward
passes, embedding extraction, and the flat named-tensor view used by the
optimizer and the checkpoint format.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import features as feat
from . import head as hd
from . import pooling as pl
from .autodiff import Tensor
from .metrics import text_lines


def param_rng_factory(seed: int):
    """Named RNG sub-streams: independent of creation order, stable across
    runs and configurations."""

    def make(name: str):
        return np.random.default_rng([seed, zlib.crc32(name.encode())])

    return make


@dataclass(frozen=True)
class ModelConfig:
    encoder: enc.EncoderConfig
    pooling_kind: str = "dmha"
    num_heads: int = 8
    hidden: int = hd.HeadConfig.hidden
    num_speakers: int = hd.HeadConfig.num_speakers
    s: float = hd.HeadConfig.s
    m: float = hd.HeadConfig.m

    @property
    def hidden_dim(self) -> int:
        return enc.output_dim(self.encoder)

    @property
    def head(self) -> hd.HeadConfig:
        in_dim = pl.pooled_dim(self.pooling_kind, self.hidden_dim,
                               self.num_heads)
        return hd.HeadConfig(in_dim=in_dim, hidden=self.hidden,
                             num_speakers=self.num_speakers,
                             s=self.s, m=self.m)


class SpeakerModel:
    """Parameter container plus forward/extract entry points."""

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        rng = param_rng_factory(seed)
        self.params: dict[str, Tensor] = enc.init_params(config.encoder, rng)
        pp = pl.init_params(config.hidden_dim, config.num_heads,
                            config.pooling_kind, rng)
        self.params["pool.u"] = pp.u
        if pp.u_prime is not None:
            self.params["pool.u_prime"] = pp.u_prime
        head_params, self.bn_states = hd.init_params(config.head, rng)
        self.params.update(head_params)

    def forward(self, mel_batch, labels=None, training: bool = False):
        """mel_batch: (B, N, n_mels) -> dict with embedding, attention
        weights, and (if labels given) loss."""
        h = enc.encode(mel_batch, self.params, self.config.encoder)
        pp = pl.PoolingParams(u=self.params["pool.u"],
                              num_heads=self.config.num_heads,
                              u_prime=self.params.get("pool.u_prime"))
        c, w, wp = pl.pool(h, pp, self.config.pooling_kind)
        emb, cos_logits = hd.head_forward(c, self.params, self.bn_states,
                                          self.config.head, training)
        out = {"embedding": emb, "weights": w, "head_weights": wp}
        if labels is not None:
            out["loss"] = hd.am_softmax_loss(cos_logits, labels,
                                             self.config.s, self.config.m)
        return out

    def feature_config(self) -> feat.FeatureConfig:
        """The front-end the encoder was built for: n_mels comes from the
        model config, every other feature setting is fixed."""
        return feat.FeatureConfig(n_mels=self.config.encoder.n_mels)

    def extract(self, path):
        """Whole-utterance eval-mode forward of one wav file, deterministic.
        The encoder runs in float32 (embeddings within about 1e-7 relative
        of float64); everything after it, and the parameters, stay float64.

        Returns (embedding, weights (T, K), head_weights (K,) or None). An
        utterance too short for the encoder is a ValueError naming path."""
        mel = feat.utterance_features(path, self.feature_config())
        try:
            with ad.no_grad():
                out = self.forward(mel[None].astype(np.float32),
                                   training=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        hw = out["head_weights"]
        return (out["embedding"].data[0].copy(), out["weights"].data[0],
                None if hw is None else hw.data[0])

    def extract_from_wav(self, path) -> np.ndarray:
        return self.extract(path)[0]

    # ---- flat named-tensor view (checkpoints, optimizer) -----------------

    def state_tensors(self) -> dict[str, np.ndarray]:
        """All model state as named float64 arrays (params + BN stats)."""
        out = {name: t.data for name, t in self.params.items()}
        for name, st in self.bn_states.items():
            out[name + ".running_mean"] = st.running_mean
            out[name + ".running_var"] = st.running_var
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray], source):
        """Load state_tensors()-named arrays; a tensor that is missing or
        has the wrong shape is a ValueError naming source and the tensor."""
        for name, t in self.state_tensors().items():
            if name not in tensors:
                raise ValueError(f"{source}: tensor {name} is missing")
            if tensors[name].shape != t.shape:
                raise ValueError(
                    f"{source}: tensor {name} has shape "
                    f"{tensors[name].shape}, the model needs {t.shape}")
        for name, t in self.params.items():
            t.data = np.array(tensors[name], dtype=np.float64)
        for name, st in self.bn_states.items():
            st.running_mean = np.array(tensors[name + ".running_mean"])
            st.running_var = np.array(tensors[name + ".running_var"])


# ---- embedding file format -------------------------------------------------


def write_embeddings(path, embeddings: dict[str, np.ndarray]):
    """Text format: header "dim=<d> count=<n>", then one utterance per line
    with 17-significant-digit floats."""
    items = list(embeddings.items())
    dim = len(items[0][1]) if items else 0
    with open(path, "w") as f:
        f.write(f"dim={dim} count={len(items)}\n")
        for uid, e in items:
            f.write(uid + " " + " ".join(f"{v:.17g}" for v in e) + "\n")


def read_embeddings(path) -> dict[str, np.ndarray]:
    lines = iter(text_lines(path))
    _, first = next(lines, (1, ""))
    header = dict(kv.partition("=")[::2] for kv in first.split())
    try:
        dim, count = int(header["dim"]), int(header["count"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: expected a 'dim=<d> count=<n>' "
                         "header line") from None
    out = {}
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] in out:
            raise ValueError(f"{path}:{lineno}: duplicate {parts[0]}")
        try:
            e = np.array([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if len(e) != dim:
            raise ValueError(f"{path}:{lineno}: {len(e)} values for "
                             f"{parts[0]}, header says dim={dim}")
        if not np.isfinite(e).all():
            raise ValueError(f"{path}:{lineno}: non-finite value for "
                             f"{parts[0]}")
        out[parts[0]] = e
    if len(out) != count:
        raise ValueError(f"{path}: header says count={count}, found "
                         f"{len(out)} embeddings")
    return out
