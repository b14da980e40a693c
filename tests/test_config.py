"""YAML run-config loading, validation, and fingerprints."""

import pytest
import yaml

from dentdet.config import ENV_CONFIG, RunConfig, load_config
from dentdet.labels import HierarchyLevel
from dentdet.train import StageConfig


def test_defaults_without_file(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    cfg = load_config()
    assert cfg == RunConfig()
    assert cfg.schedule.timesteps == 1000
    assert cfg.train.lr == 2e-3
    assert cfg.model.scale == 2.0


def test_partial_overrides(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("train:\n  lr: 0.01\n  seed: 9\nschedule:\n  steps: 4\n")
    cfg = load_config(path)
    assert cfg.train.lr == 0.01
    assert cfg.train.seed == 9
    assert cfg.schedule.steps == 4
    assert cfg.train.batch_size == RunConfig().train.batch_size


def test_env_var_fallback(tmp_path, monkeypatch):
    path = tmp_path / "env.yaml"
    path.write_text("data:\n  count: 5\n")
    monkeypatch.setenv(ENV_CONFIG, str(path))
    assert load_config().data.count == 5


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("training:\n  lr: 0.01\n")
    with pytest.raises(ValueError, match="unknown config sections"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("train:\n  learning_rate: 0.01\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(path)


def test_non_mapping_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_value_validation(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("schedule:\n  steps: 20\n")
    with pytest.raises(ValueError, match="1..8"):
        load_config(path)


def test_fingerprint_tracks_content(tmp_path):
    a = load_config()
    path = tmp_path / "run.yaml"
    path.write_text("train:\n  lr: 0.01\n")
    b = load_config(path)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == RunConfig().fingerprint()
    assert len(a.fingerprint()) == 16


TRAIN_CASES = [
    ("train", "n_proposals", 0, "train.n_proposals must be >= 1, got 0"),
    ("train", "batch_size", 0, "train.batch_size must be >= 1"),
    ("train", "iterations", -1, "train.iterations must be >= 0"),
    ("train", "seed", -1, "train.seed must be >= 0"),
    ("train", "warmup", -5, "train.warmup must be >= 0"),
    ("train", "lr", 0.0, "train.lr must be a positive number"),
    ("train", "lr", ".nan", "train.lr must be a positive number, got nan"),
    ("train", "weight_decay", -0.1, "train.weight_decay must be >= 0"),
    ("train", "grad_clip", 0.0, "train.grad_clip must be a positive number"),
    ("train", "n_proposals", "many", "train.n_proposals must be a number"),
    ("train", "checkpoint_every", 0, "train.checkpoint_every must be >= 1, got 0"),
]


@pytest.mark.parametrize("section, key, value, message", TRAIN_CASES + [
    ("schedule", "eta", 2.0, "schedule.eta must lie in [0, 1], got 2.0"),
    ("schedule", "eta", -0.5, "schedule.eta must lie in [0, 1]"),
    ("schedule", "timesteps", 0, "schedule.timesteps must be >= 1"),
    ("infer", "nms_iou", -1, "infer.nms_iou must lie in [0, 1], got -1"),
    ("infer", "renewal_threshold", 1.5, "infer.renewal_threshold must lie in [0, 1]"),
    ("infer", "cache_threshold", 0.0, "infer.cache_threshold must lie in (0, 1]"),
    ("infer", "cache_threshold", 1.1, "infer.cache_threshold must lie in (0, 1]"),
    ("data", "size", 8, "data.size must be >= 16, got 8"),
    ("data", "count", 0, "data.count must be >= 1, got 0"),
    ("model", "grid", 0, "model.grid must be >= 1, got 0"),
    ("model", "hidden", 0, "model.hidden must be >= 1, got 0"),
    ("model", "pool", 0, "model.pool must be >= 1, got 0"),
    ("model", "scale", -2, "model.scale must be a positive number, got -2"),
    ("model", "time_dim", 3, "model.time_dim must be an even number >= 0, got 3"),
    ("model", "focal_gamma", -1.0, "model.focal_gamma must be >= 0"),
    ("model", "l1_weight", -5, "model.l1_weight must be >= 0, got -5"),
    ("schedule", "s", -1.0, "schedule.s must be a positive number, got -1.0"),
])
def test_out_of_range_value_names_the_key(tmp_path, section, key, value, message):
    path = tmp_path / "bad.yaml"
    path.write_text(f"{section}:\n  {key}: {value}\n")  # values are YAML text
    with pytest.raises(ValueError) as exc:
        load_config(path)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("section, key, value, message", TRAIN_CASES)
def test_stage_config_checks_the_train_bounds(section, key, value, message):
    value = yaml.safe_load(str(value))  # as a config file would give it
    with pytest.raises(ValueError) as exc:
        StageConfig(level=HierarchyLevel.QUADRANT_ONLY, **{key: value})
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("text", [
    "train:\n  n_proposals: 1\n  iterations: 0\n  seed: 0\n  warmup: 0\n  weight_decay: 0\n"
    "  checkpoint_every: 1\n",
    "schedule:\n  eta: 0\n  steps: 8\ninfer:\n  nms_iou: 1\n  renewal_threshold: 0\n"
    "  cache_threshold: 1\n",
    "data:\n  size: 16\n  count: 1\n",
    "model:\n  grid: 1\n  pool: 1\n  hidden: 1\n  time_dim: 0\n  focal_gamma: 0\n"
    "  cls_weight: 0\n  l1_weight: 0\n  giou_weight: 0\n",
])
def test_boundary_values_accepted(tmp_path, text):
    path = tmp_path / "edge.yaml"
    path.write_text(text)
    load_config(path)
