"""Flat run configuration: one "key = value" text format everywhere,
CLI flags overriding file values."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .encoder import EncoderConfig, output_dim
from .features import FeatureConfig
from .model import ModelConfig
from .pooling import pooled_dim
from .trainer import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    # features
    sample_rate: int = 16000
    win_length: int = 400
    hop: int = 160
    n_fft: int = 512
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0
    # encoder
    base_channels: int = 128
    # pooling
    pooling: str = "dmha"
    heads: int = 8
    # head
    hidden: int = 400
    s: float = 30.0
    m: float = 0.4
    # trainer
    chunk_frames: int = 350
    batch_size: int = 128
    lr: float = 1e-4
    weight_decay: float = 1e-3
    max_epochs: int = 100
    anneal_patience: int = 15
    anneal_factor: float = 0.5
    validation_fraction: float = 0.05
    seed: int = 0
    train_loss_goal: float = float("nan")  # NaN = disabled

    def validate(self) -> "RunConfig":
        pooled_dim(self.pooling, output_dim(self.encoder_config()), self.heads)
        self.feature_config()
        return self

    def feature_config(self) -> FeatureConfig:
        return _from_fields(FeatureConfig, self)

    def encoder_config(self) -> EncoderConfig:
        return _from_fields(EncoderConfig, self)

    def model_config(self, num_speakers: int = 2) -> ModelConfig:
        return ModelConfig(encoder=self.encoder_config(),
                           pooling_kind=self.pooling, num_heads=self.heads,
                           hidden=self.hidden, num_speakers=num_speakers,
                           s=self.s, m=self.m)

    def train_config(self) -> TrainConfig:
        goal = self.train_loss_goal
        return _from_fields(TrainConfig, self,
                            train_loss_goal=None if math.isnan(goal) else goal)


def _from_fields(cls, cfg: RunConfig, **explicit):
    """cls built from the RunConfig fields of the same name."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)
                  if f.name not in explicit}, **explicit)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    ftype = _FIELD_TYPES[name]
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    return raw


def load_config(path) -> RunConfig:
    """Read "key = value" lines; '#' starts a comment; blank lines ignored."""
    overrides = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            overrides[key] = _parse_value(key, raw)
    return RunConfig(**overrides)


def apply_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
