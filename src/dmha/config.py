"""Flat run configuration: one "key = value" text format everywhere,
CLI flags overriding file values."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .encoder import EncoderConfig
from .features import FeatureConfig
from .metrics import text_lines
from .model import ModelConfig
from .trainer import TrainConfig, parse_value


@dataclass(frozen=True)
class RunConfig:
    # features and encoder: the front-end is fixed apart from n_mels
    n_mels: int = EncoderConfig.n_mels
    base_channels: int = EncoderConfig.base_channels
    # pooling
    pooling: str = ModelConfig.pooling_kind
    heads: int = ModelConfig.num_heads
    # head
    hidden: int = ModelConfig.hidden
    s: float = ModelConfig.s
    m: float = ModelConfig.m
    # trainer
    chunk_frames: int = TrainConfig.chunk_frames
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    weight_decay: float = TrainConfig.weight_decay
    max_epochs: int = TrainConfig.max_epochs
    anneal_patience: int = TrainConfig.anneal_patience
    anneal_factor: float = TrainConfig.anneal_factor
    validation_fraction: float = TrainConfig.validation_fraction
    seed: int = TrainConfig.seed
    train_loss_goal: float = TrainConfig.train_loss_goal

    def validate(self) -> "RunConfig":
        self.model_config().head  # the pooling and head checks a run meets
        self.train_config()
        return self

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(n_mels=self.n_mels)

    def model_config(self, num_speakers: int = ModelConfig.num_speakers
                     ) -> ModelConfig:
        return ModelConfig(encoder=_from_fields(EncoderConfig, self),
                           pooling_kind=self.pooling, num_heads=self.heads,
                           hidden=self.hidden, num_speakers=num_speakers,
                           s=self.s, m=self.m)

    def train_config(self) -> TrainConfig:
        return _from_fields(TrainConfig, self)


def _from_fields(cls, cfg: RunConfig):
    """cls built from the RunConfig fields of the same name."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def load_config(path) -> RunConfig:
    """Read "key = value" lines; '#' starts a comment; blank lines ignored.
    An unknown or repeated key or a malformed value is a ValueError naming
    path:line."""
    types = get_type_hints(RunConfig)
    overrides = {}
    for lineno, line in text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            overrides[key] = parse_value(key, types[key], raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return RunConfig(**overrides)


def apply_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
