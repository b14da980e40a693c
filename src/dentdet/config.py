"""Run configuration: one YAML document covering every tunable.

Unknown keys are rejected so typos fail loudly; every run can log the
resolved config fingerprint for reproducibility.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import yaml

from .model import ModelConfig

ENV_CONFIG = "DENTDET_CONFIG"


def at_least(low: int):
    """Bound: a finite number no smaller than ``low``."""

    def check(value) -> None:
        if not (math.isfinite(value) and value >= low):
            raise ValueError(f"must be >= {low}, got {value}")

    return check


def positive(value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"must be a positive number, got {value}")


def fraction(value) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {value}")


def positive_fraction(value) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"must lie in (0, 1], got {value}")


def even(value) -> None:
    """Bound: an even number >= 0 (sine and cosine halves of an embedding)."""
    if not (math.isfinite(value) and value >= 0 and value % 2 == 0):
        raise ValueError(f"must be an even number >= 0, got {value}")


def sampling_steps(value) -> None:
    if not 1 <= value <= 8:
        raise ValueError(f"must lie in 1..8, got {value}")


def _check_bounds(section: str, obj, bounds: dict) -> None:
    """Raise ``ValueError`` naming the first key whose value is out of range."""
    for key, check in bounds.items():
        value = getattr(obj, key)
        try:
            check(value)
        except TypeError:
            raise ValueError(
                f"{section}.{key} must be a number, got {value!r}"
            ) from None
        except ValueError as e:
            raise ValueError(f"{section}.{key} {e}") from None


# Bounds per section, shared with the command line flags that override them.
MODEL_BOUNDS = {
    "grid": at_least(1),
    "pool": at_least(1),
    "hidden": at_least(1),
    "time_dim": even,
    "scale": positive,
    "focal_gamma": at_least(0),
    "cls_weight": at_least(0),
    "l1_weight": at_least(0),
    "giou_weight": at_least(0),
}
SCHEDULE_BOUNDS = {
    "timesteps": at_least(1),
    "s": positive,
    "steps": sampling_steps,
    "eta": fraction,
}
TRAIN_BOUNDS = {
    "iterations": at_least(0),
    "batch_size": at_least(1),
    "lr": positive,
    "n_proposals": at_least(1),
    "seed": at_least(0),
    "weight_decay": at_least(0),
    "grad_clip": positive,
    "warmup": at_least(0),
    "checkpoint_every": at_least(1),
}
INFER_BOUNDS = {
    "nms_iou": fraction,
    "renewal_threshold": fraction,
    "cache_threshold": positive_fraction,
}
# Smaller images give tooth boxes of zero pixels.
DATA_BOUNDS = {"size": at_least(16), "count": at_least(1)}


@dataclass(frozen=True)
class ScheduleConfig:
    timesteps: int = 1000
    s: float = 0.008
    steps: int = 1  # sampling steps at inference
    eta: float = 1.0  # stochasticity of multi-step sampling; moot when steps=1

    def __post_init__(self):
        _check_bounds("schedule", self, SCHEDULE_BOUNDS)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 8
    lr: float = 2e-3
    n_proposals: int = 64
    seed: int = 0
    weight_decay: float = 1e-4
    grad_clip: float = 1.0
    warmup: int = 0
    augment: bool = False
    # Iterations between checkpoints; the last iteration always writes one.
    checkpoint_every: int = 500

    def __post_init__(self):
        _check_bounds("train", self, TRAIN_BOUNDS)


@dataclass(frozen=True)
class InferConfig:
    nms_iou: float = 0.5
    renewal_threshold: float = 0.5
    # The one splice gate: the cache keeps, and training splices, the
    # previous stage's boxes scoring above it.
    cache_threshold: float = 0.5

    def __post_init__(self):
        _check_bounds("infer", self, INFER_BOUNDS)


@dataclass(frozen=True)
class DataConfig:
    size: int = 256
    count: int = 64

    def __post_init__(self):
        _check_bounds("data", self, DATA_BOUNDS)


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    infer: InferConfig = field(default_factory=InferConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def fingerprint(self) -> str:
        return hashlib.sha256(
            json.dumps(dataclasses.asdict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


def _build(cls, values: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(values) - names
    if unknown:
        raise ValueError(
            f"unknown config keys at {path or 'top level'}: {sorted(unknown)}"
        )
    return cls(**values)


_SECTIONS = {
    "model": ModelConfig,
    "schedule": ScheduleConfig,
    "train": TrainConfig,
    "infer": InferConfig,
    "data": DataConfig,
}


def load_config(path=None) -> RunConfig:
    """Load a RunConfig from YAML; defaults apply for absent keys.

    With no path, honors the DENTDET_CONFIG environment variable, falling
    back to all defaults.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as f:
        doc = yaml.safe_load(f) or {}
    if not isinstance(doc, dict):
        raise ValueError("config document must be a mapping")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in doc:
            if not isinstance(doc[name], dict):
                raise ValueError(f"config section {name} must be a mapping")
            kwargs[name] = _build(cls, doc[name], f"{name}.")
    return RunConfig(**kwargs)
