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
from .metrics import FormatError, naming, replacing, text_lines


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
    def head(self) -> hd.HeadConfig:
        in_dim = pl.pooled_dim(self.pooling_kind, enc.output_dim(self.encoder),
                               self.num_heads)
        return hd.HeadConfig(in_dim=in_dim, hidden=self.hidden,
                             num_speakers=self.num_speakers,
                             s=self.s, m=self.m)


class _NoDraw:
    """A param_rng(name) stand-in whose every draw is a zero-stride view of
    0.0: it gives a model its tensor names and shapes without numpy.random,
    which numpy >= 2 imports only on first use."""

    @staticmethod
    def normal(loc, scale, size):
        return np.broadcast_to(0.0, size)


class SpeakerModel:
    """Parameter container plus forward/extract entry points.

    SpeakerModel(config, seed) draws its weights from seed's named streams
    (param_rng_factory); from_state_tensors builds a model that draws no
    random number, as load_model does for every checkpoint."""

    def __init__(self, config: ModelConfig, seed: int, param_rng=None):
        """param_rng(name) -> Generator for each drawn tensor, by default
        param_rng_factory(seed)."""
        self.config = config
        rng = param_rng or param_rng_factory(seed)
        self.params: dict[str, Tensor] = enc.init_params(config.encoder, rng)
        pp = pl.init_params(enc.output_dim(config.encoder), config.num_heads,
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
        utterance too short for the encoder is a FormatError."""
        mel = feat.utterance_features(path, self.feature_config())
        with naming(path), ad.no_grad():
            out = self.forward(mel[None].astype(np.float32), training=False)
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

    @classmethod
    def from_state_tensors(cls, config: ModelConfig,
                           tensors: dict[str, np.ndarray]) -> "SpeakerModel":
        """The model whose state_tensors() are tensors: state_tensors()-named
        float64 arrays, as load_checkpoint returns them, taken without a
        copy. It draws nothing (_NoDraw stands in for every init draw), so
        building it imports no numpy.random. A tensor that is missing or has
        the wrong shape is a ValueError naming the tensor."""
        model = cls(config, 0, param_rng=lambda name: _NoDraw)
        for name, t in model.state_tensors().items():
            if name not in tensors:
                raise ValueError(f"tensor {name} is missing")
            if tensors[name].shape != t.shape:
                raise ValueError(f"tensor {name} has shape "
                                 f"{tensors[name].shape}, the model needs "
                                 f"{t.shape}")
        for name, t in model.params.items():
            t.data = tensors[name]
        for name, st in model.bn_states.items():
            st.running_mean = tensors[name + ".running_mean"]
            st.running_var = tensors[name + ".running_var"]
        return model


# ---- embedding file format -------------------------------------------------


def write_embeddings(path, embeddings: dict[str, np.ndarray]):
    """Text format: header "dim=<d> count=<n>", then one utterance per line
    with 17-significant-digit floats."""
    items = list(embeddings.items())
    dim = len(items[0][1]) if items else 0
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
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
        raise FormatError(path, "expected a 'dim=<d> count=<n>' header "
                          "line") from None
    out = {}
    for lineno, line in lines:
        with naming(path, lineno):
            parts = line.split()
            if not parts:
                continue
            if parts[0] in out:
                raise ValueError(f"duplicate {parts[0]}")
            e = np.array([float(v) for v in parts[1:]])
            if len(e) != dim:
                raise ValueError(f"{len(e)} values for {parts[0]}, header "
                                 f"says dim={dim}")
            if not np.isfinite(e).all():
                raise ValueError(f"non-finite value for {parts[0]}")
            out[parts[0]] = e
    if len(out) != count:
        raise FormatError(path, f"header says count={count}, found "
                          f"{len(out)} embeddings")
    return out
