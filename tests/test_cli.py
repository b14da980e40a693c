"""End-to-end smoke tests for the command line interface."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from dentdet import cli, imageio
from dentdet.cli import (
    EXIT_DIVERGED,
    EXIT_INVALID,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from dentdet.config import ENV_CONFIG, load_config
from dentdet.diffusion import Schedule
from dentdet.labels import HierarchyLevel
from dentdet.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from dentdet.train import train_stage

SMALL_CFG = (
    "model:\n  grid: 8\n  pool: 2\n  hidden: 16\n  time_dim: 8\n"
    "train:\n  iterations: 3\n  batch_size: 2\n  n_proposals: 8\n"
    "data:\n  count: 2\n"
)


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(SMALL_CFG)
    return str(path)


@pytest.fixture()
def dataset(tmp_path, cfg_path):
    data = tmp_path / "data"
    code = main(["--config", cfg_path, "datagen", "--out", str(data),
                 "--seed", "5"])
    assert code == EXIT_OK
    return data


def test_datagen_writes_levels(dataset):
    names = {p.name for p in dataset.iterdir()}
    assert "annotations_quadrant.json" in names
    assert "annotations_quadrant_enumeration.json" in names
    assert "annotations_quadrant_enumeration_diagnosis.json" in names
    assert "images" in names


def test_validate_ok_and_level_mismatch(dataset, cfg_path, capsys):
    ann = str(dataset / "annotations_quadrant.json")
    assert main(["--config", cfg_path, "validate",
                 "--annotations", ann, "--level", "a"]) == EXIT_OK
    assert "ok:" in capsys.readouterr().out
    # Quadrant-only records lack enumeration labels required at level b.
    assert main(["--config", cfg_path, "validate",
                 "--annotations", ann, "--level", "b"]) == EXIT_INVALID


def test_validate_missing_file(cfg_path):
    assert main(["--config", cfg_path, "validate",
                 "--annotations", "/nonexistent.json",
                 "--level", "a"]) == EXIT_MISSING


def test_unknown_level_is_usage_error(dataset, cfg_path):
    assert main(["--config", cfg_path, "validate",
                 "--annotations", str(dataset / "annotations_quadrant.json"),
                 "--level", "z"]) == EXIT_USAGE


def test_bad_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nonsense:\n  x: 1\n")
    assert main(["--config", str(bad), "datagen",
                 "--out", str(tmp_path / "d")]) == EXIT_USAGE


def test_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "absent.yaml"), "datagen",
                 "--out", str(tmp_path / "d")]) == EXIT_MISSING


def test_train_then_infer_and_eval(dataset, cfg_path, tmp_path, capsys):
    run = tmp_path / "run_a"
    assert main(["--config", cfg_path, "train", "--data", str(dataset),
                 "--level", "a", "--out", str(run)]) == EXIT_OK
    ckpt = run / "final.bin"
    assert ckpt.exists()

    image = next((dataset / "images").glob("q_*.pgm"))
    out_json = tmp_path / "dets.json"
    assert main(["--config", cfg_path, "infer", "--checkpoint", str(ckpt),
                 "--level", "a", "--images", str(image),
                 "--out", str(out_json)]) == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert doc["images"][0]["id"] == image.stem
    assert len(doc["images"][0]["detections"]) >= 1
    for d in doc["images"][0]["detections"]:
        assert len(d["box_cxcywh"]) == 4
        assert len(d["probs_quadrant"]) == 4

    capsys.readouterr()
    assert main(["--config", cfg_path, "eval", "--data", str(dataset),
                 "--level", "a", "--checkpoint", str(ckpt)]) == EXIT_OK
    assert "AP50" in capsys.readouterr().out


def test_train_missing_checkpoint(dataset, cfg_path, tmp_path):
    assert main(["--config", cfg_path, "train", "--data", str(dataset),
                 "--level", "a", "--out", str(tmp_path / "x"),
                 "--init", "/nope.bin"]) == EXIT_MISSING


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow as it diverges
def test_diverging_train_exits_5_without_a_traceback(dataset, tmp_path, capsys):
    # Decoder outputs go non-finite and reach the assignment costs first.
    diverge = tmp_path / "diverge.yaml"
    diverge.write_text(SMALL_CFG.replace("train:\n", "train:\n  lr: 1.0e+12\n  grad_clip: 1.0e+300\n"))
    code = main(["--config", str(diverge), "train", "--data", str(dataset), "--level", "b",
                 "--out", str(tmp_path / "run"), "--iterations", "30"])
    err = capsys.readouterr().err
    assert code == EXIT_DIVERGED
    assert "error: non-finite loss at iteration" in err and "Traceback" not in err
    # It diverges before its first checkpoint is due, and says so.
    assert err.rstrip().endswith("; no checkpoint was written before it")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow as it diverges
def test_diverging_train_names_the_checkpoint_its_config_asked_for(dataset, tmp_path, capsys):
    diverge = tmp_path / "diverge.yaml"
    diverge.write_text(SMALL_CFG.replace(
        "train:\n", "train:\n  lr: 1.0e+12\n  grad_clip: 1.0e+300\n  checkpoint_every: 1\n"
    ))
    run = tmp_path / "run"
    code = main(["--config", str(diverge), "train", "--data", str(dataset), "--level", "b",
                 "--out", str(run), "--iterations", "30"])
    err = capsys.readouterr().err
    assert code == EXIT_DIVERGED
    match = re.search(r"at iteration (\d+); last good checkpoint: (\S+)$", err.rstrip())
    assert match, err
    it, path = int(match[1]), match[2]
    assert path == str(run / f"ckpt_{it:06d}.bin")
    load_checkpoint(path)  # refuses non-finite values


def test_eval_oracle_is_perfect(dataset, cfg_path, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["--config", cfg_path, "eval", "--data", str(dataset),
                 "--level", "c", "--oracle", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "AP50" in text
    kv = out.with_suffix(".kv").read_text().splitlines()
    vals = dict(line.split("=") for line in kv)
    # Area buckets with no ground truth report a -1 sentinel; skip those.
    scored = {k: v for k, v in vals.items() if not v.startswith("-")}
    assert scored
    assert all(v == "100.000" for v in scored.values())


@pytest.mark.parametrize("given", [[], ["--checkpoint", "c.bin", "--oracle"]],
                         ids=["neither", "both"])
def test_eval_takes_one_of_checkpoint_and_oracle(given, dataset, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", str(dataset), *given])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--checkpoint" in err and "--oracle" in err and "Traceback" not in err


# Image sizes that are not positive integers that convert to floats, each in
# the first image record.
BAD_SIZES = {
    "width fraction": ("width", 100.7), "height bool": ("height", True),
    "width text": ("width", "256"), "height zero": ("height", 0),
    "width huge": ("width", 10**400),
}


def _malformed(case, doc):
    """The text of an annotation file ``doc`` broken as ``case`` names."""
    record = doc["annotations"][0]
    if case == "not JSON":
        return json.dumps(doc)[:-1]
    if case == "top-level list":
        return json.dumps([doc])
    if case == "record not an object":
        doc["annotations"][0] = [record]
    elif case == "bbox not numbers":
        record["bbox"][0] = "x"
    elif case == "bbox huge":  # an integer too large for a float
        record["bbox"][0] = 10**400
    elif case in BAD_SIZES:
        key, value = BAD_SIZES[case]
        doc["images"][0][key] = value
    elif case == "duplicate image id":  # the second image record reuses the first id
        doc["images"][1]["id"] = doc["images"][0]["id"]
    else:  # a category id that is not an integer
        record["category_id_1"] = {"text": "x", "fraction": 1.5, "bool": True}[case]
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["validate", "eval --oracle", "train", "render"])
@pytest.mark.parametrize("case", [
    "not JSON", "top-level list", "record not an object", "bbox not numbers",
    "bbox huge", "text", "fraction", "bool", *BAD_SIZES, "duplicate image id",
])
def test_malformed_annotations_are_invalid_data(command, case, dataset, cfg_path,
                                                tmp_path, capsys):
    path = dataset / "annotations_quadrant_enumeration_diagnosis.json"
    path.write_text(_malformed(case, json.loads(path.read_text())))
    args = {
        "validate": ["validate", "--annotations", str(path)],
        "eval --oracle": ["eval", "--data", str(dataset), "--oracle"],
        "train": ["train", "--data", str(dataset), "--out", str(tmp_path / "run")],
        "render": ["render", "--data", str(dataset), "--out", str(tmp_path / "vis")],
    }[command]
    capsys.readouterr()
    assert main(["--config", cfg_path, *args, "--level", "c"]) == EXIT_INVALID
    err = capsys.readouterr().err
    record = {"not JSON": -1, "top-level list": -1, "duplicate image id": 1}.get(case, 0)
    assert f"record {record}: " in err and "Traceback" not in err


def test_render_writes_overlays(dataset, cfg_path, tmp_path):
    out = tmp_path / "vis"
    assert main(["--config", cfg_path, "render", "--data", str(dataset),
                 "--level", "c", "--out", str(out)]) == EXIT_OK
    ppms = list(out.glob("*.ppm"))
    assert len(ppms) == 2
    assert ppms[0].read_bytes().startswith(b"P6")


# SHA-256 prefixes of default ``datagen --count 2`` (seed 0) and ``render
# --level b`` outputs, taken with numpy 2.4.6.  They hold across changes to
# the code that keep its outputs byte-equal; a numpy release that changes
# the random Generator's streams changes them too.
PINNED_SHA256 = {
    "data/annotations_quadrant.json": "b04dbb960e227a0a",
    "data/annotations_quadrant_enumeration.json": "347901297e8e1e71",
    "data/annotations_quadrant_enumeration_diagnosis.json": "cedededc39c90b5c",
    "vis/qe_00000.ppm": "e0790cba42662bb7",
    "vis/qe_00001.ppm": "0be02779c20f55b8",
}


def test_datagen_and_render_bytes_are_pinned(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.delenv(ENV_CONFIG, raising=False)
    assert main(["datagen", "--count", "2", "--out", str(tmp_path / "data")]) == EXIT_OK
    assert main(["render", "--data", str(tmp_path / "data"), "--level", "b",
                 "--out", str(tmp_path / "vis")]) == EXIT_OK
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
        for name in PINNED_SHA256
    }
    assert got == PINNED_SHA256


def test_split_manifests(dataset, cfg_path, tmp_path):
    out = tmp_path / "splits"
    assert main(["--config", cfg_path, "split",
                 "--annotations",
                 str(dataset / "annotations_quadrant_enumeration_diagnosis.json"),
                 "--level", "c", "--out", str(out),
                 "--train-frac", "0.5", "--val-frac", "0.5",
                 "--test-frac", "0.0", "--seed", "0"]) == EXIT_OK
    train = (out / "train.txt").read_text().split()
    val = (out / "val.txt").read_text().split()
    assert len(train) + len(val) == 2
    assert (out / "test.txt").read_text() == ""


def test_split_missing_file(cfg_path, tmp_path, capsys):
    assert main(["--config", cfg_path, "split",
                 "--annotations", str(tmp_path / "absent.json"),
                 "--level", "c", "--out", str(tmp_path / "splits"),
                 "--train-frac", "0.5", "--val-frac", "0.5",
                 "--test-frac", "0.0"]) == EXIT_MISSING
    assert "missing annotation file:" in capsys.readouterr().err


def test_truncated_checkpoint_is_invalid_data(dataset, cfg_path, tmp_path, capsys):
    ckpt = tmp_path / "cut.bin"
    cfg = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)  # as SMALL_CFG
    save_checkpoint(ckpt, init_params(cfg, np.random.default_rng(0)))
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    image = next((dataset / "images").glob("q_*.pgm"))
    capsys.readouterr()
    assert main(["--config", cfg_path, "infer", "--checkpoint", str(ckpt),
                 "--level", "a", "--images", str(image)]) == EXIT_INVALID
    assert "truncated tensor" in capsys.readouterr().err
    assert main(["--config", cfg_path, "eval", "--data", str(dataset),
                 "--level", "a", "--checkpoint", str(ckpt)]) == EXIT_INVALID
    assert "truncated tensor" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "infer", "train"])
def test_non_finite_checkpoint_is_invalid_data(command, dataset, cfg_path, tmp_path, capsys):
    ckpt = tmp_path / "nan.bin"
    params = init_params(ModelConfig(grid=8, pool=2, hidden=16, time_dim=8),
                         np.random.default_rng(0))  # as SMALL_CFG
    params["trunk.w1"][3, 1] = np.nan
    save_checkpoint(ckpt, params)
    image = next((dataset / "images").glob("q_*.pgm"))
    args = {
        "eval": ["eval", "--data", str(dataset), "--level", "b"],
        "infer": ["infer", "--level", "a", "--images", str(image)],
        "train": ["train", "--data", str(dataset), "--level", "a",
                  "--out", str(tmp_path / "run"), "--init"],
    }[command]
    if command != "train":
        args.append("--checkpoint")
    capsys.readouterr()
    assert main(["--config", cfg_path, *args, str(ckpt)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{ckpt}: tensor 'trunk.w1' holds non-finite values" in err
    assert "Traceback" not in err


def test_train_init_equals_the_in_memory_store(dataset, cfg_path, tmp_path):
    # final.bin reads back with its tensors in name order; training from it
    # must write what train_stage gives from the store in memory.
    cfg = load_config(cfg_path)
    schedule = Schedule.cosine(cfg.schedule.timesteps, cfg.schedule.s)

    def in_memory(level, init=None):
        stage = dataclasses.replace(cli._stage_config(cfg, level), iterations=12)
        samples = cli._samples(dataset, level, cfg.model)
        return train_stage(stage, samples, cfg.model, schedule, init=init)[0]

    train = ["--config", cfg_path, "train", "--data", str(dataset), "--iterations", "12"]
    assert main([*train, "--level", "a", "--out", str(tmp_path / "a")]) == EXIT_OK
    store = in_memory(HierarchyLevel.QUADRANT_ONLY)
    assert main([*train, "--level", "b", "--out", str(tmp_path / "b"),
                 "--init", str(tmp_path / "a" / "final.bin")]) == EXIT_OK
    want = in_memory(HierarchyLevel.QUADRANT_ENUM, init=store)
    got, _ = load_checkpoint(tmp_path / "b" / "final.bin")
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_pipeline_full_arm(dataset, cfg_path, tmp_path, capsys):
    out = tmp_path / "pipe"
    assert main(["--config", cfg_path, "pipeline", "--data", str(dataset),
                 "--out", str(out), "--arm", "full"]) == EXIT_OK
    assert "arm: full" in capsys.readouterr().out
    assert (out / "report.txt").exists()
    assert (out / "stage_0_quadrant" / "final.bin").exists()
    assert (out / "stage_2_quadrant_enumeration_diagnosis" / "final.bin").exists()


def test_shape_mismatched_checkpoint_is_invalid_data(dataset, tmp_path, capsys):
    ckpt = tmp_path / "small.bin"
    small = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)  # as SMALL_CFG
    save_checkpoint(ckpt, init_params(small, np.random.default_rng(0)))
    default_cfg = tmp_path / "default.yaml"
    default_cfg.write_text("{}\n")
    image = next((dataset / "images").glob("q_*.pgm"))
    commands = (
        ["infer", "--checkpoint", str(ckpt), "--level", "a", "--images", str(image)],
        ["eval", "--data", str(dataset), "--level", "a", "--checkpoint", str(ckpt)],
        ["train", "--data", str(dataset), "--level", "a",
         "--out", str(tmp_path / "run"), "--init", str(ckpt)],
    )
    for command in commands:
        capsys.readouterr()
        assert main(["--config", str(default_cfg)] + command) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "trunk.w1: shape" in err, command[0]
        assert "Traceback" not in err


def test_eval_infers_with_the_config_of_infer(dataset, tmp_path, monkeypatch):
    import dentdet.train

    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(
        SMALL_CFG + "schedule:\n  steps: 2\n  eta: 0.5\n"
        "infer:\n  renewal_threshold: 0.3\n  nms_iou: 0.6\n"
    )
    ckpt = tmp_path / "small.bin"
    small = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
    save_checkpoint(ckpt, init_params(small, np.random.default_rng(0)))
    calls = []
    real = dentdet.train._sample

    def recorder(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    # Both commands sample through train._sample: infer wraps its records
    # in Detection objects, eval scores them.
    monkeypatch.setattr(dentdet.train, "_sample", recorder)
    image = next((dataset / "images").glob("q_*.pgm"))
    assert main(["--config", str(cfg_path), "infer", "--checkpoint", str(ckpt),
                 "--level", "a", "--images", str(image)]) == EXIT_OK
    assert main(["--config", str(cfg_path), "eval", "--data", str(dataset),
                 "--level", "a", "--checkpoint", str(ckpt)]) == EXIT_OK
    assert len(calls) == 2  # infer, then eval
    assert calls[0] == calls[1] == {
        "n_proposals": 8, "steps": 2, "seed": 0,
        "eta": 0.5, "renewal_threshold": 0.3, "nms_iou": 0.6,
    }


def test_pipeline_samples_with_the_config_of_infer(tmp_path, monkeypatch):
    import dentdet.train

    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(
        SMALL_CFG + "schedule:\n  steps: 2\n  eta: 0.5\n"
        "infer:\n  renewal_threshold: 0.3\n  nms_iou: 0.6\n  cache_threshold: 0.7\n"
    )
    data, held_out = tmp_path / "data", tmp_path / "held_out"
    for out, seed in ((data, "5"), (held_out, "6")):
        assert main(["--config", str(cfg_path), "datagen", "--out", str(out),
                     "--seed", seed]) == EXIT_OK
    infer_calls, cache_calls = [], []

    def recorder(calls, real):
        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dentdet.train, "_sample", recorder(infer_calls, dentdet.train._sample))
    monkeypatch.setattr(
        dentdet.train, "build_cache", recorder(cache_calls, dentdet.train.build_cache)
    )
    out = tmp_path / "pipe"
    assert main(["--config", str(cfg_path), "pipeline", "--data", str(data),
                 "--eval-data", str(held_out), "--out", str(out)]) == EXIT_OK
    assert len(infer_calls) == 5  # two caches, three held-out reports
    for kwargs in infer_calls:
        assert {k: kwargs[k] for k in ("steps", "eta", "renewal_threshold", "nms_iou")} == {
            "steps": 2, "eta": 0.5, "renewal_threshold": 0.3, "nms_iou": 0.6,
        }
    assert [kw["threshold"] for kw in cache_calls] == [0.7, 0.7]
    for path in out.glob("stage_*/inferred_boxes.tsv"):
        for line in path.read_text().splitlines():
            assert float(line.split("\t")[-1]) > 0.7


def test_pipeline_checkpoints_as_often_as_the_config_asks(dataset, tmp_path):
    cfg_path = tmp_path / "every2.yaml"
    cfg_path.write_text(SMALL_CFG.replace("train:\n", "train:\n  checkpoint_every: 2\n"))
    out = tmp_path / "pipe"
    assert main(["--config", str(cfg_path), "pipeline", "--data", str(dataset),
                 "--out", str(out)]) == EXIT_OK
    stages = sorted(out.glob("stage_*"))
    assert len(stages) == 3
    for stage in stages:  # 3 iterations: every second one, and the last
        assert sorted(p.name for p in stage.glob("ckpt_*.bin")) == [
            "ckpt_000002.bin", "ckpt_000003.bin",
        ]


def test_zero_iterations_override_is_honoured(dataset, cfg_path, tmp_path, capsys):
    capsys.readouterr()
    assert main(["--config", cfg_path, "train", "--data", str(dataset),
                 "--level", "a", "--out", str(tmp_path / "run"),
                 "--iterations", "0"]) == EXIT_OK
    assert "trained 0 logged points" in capsys.readouterr().out


def test_n_proposals_override_is_honoured(dataset, cfg_path, tmp_path):
    ckpt = tmp_path / "small.bin"
    small = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)  # as SMALL_CFG
    save_checkpoint(ckpt, init_params(small, np.random.default_rng(0)))
    image = next((dataset / "images").glob("q_*.pgm"))
    out_json = tmp_path / "dets.json"
    assert main(["--config", cfg_path, "infer", "--checkpoint", str(ckpt),
                 "--level", "a", "--images", str(image), "--n-proposals", "1",
                 "--out", str(out_json)]) == EXIT_OK
    assert len(json.loads(out_json.read_text())["images"][0]["detections"]) == 1


@pytest.mark.parametrize("command, flag, value", [
    ("infer", "--n-proposals", "0"),
    ("infer", "--n-proposals", "-3"),
    ("infer", "--seed", "-1"),
    ("eval", "--n-proposals", "-3"),
    ("eval", "--seed", "-2"),
    ("train", "--lr", "0"),
    ("train", "--lr", "nan"),
    ("train", "--iterations", "-1"),
    ("train", "--batch-size", "0"),
    ("pipeline", "--n-proposals", "0"),
    ("datagen", "--count", "0"),
    ("datagen", "--size", "8"),
    ("split", "--seed", "-1"),
])
def test_out_of_range_override_is_usage_error(command, flag, value, tmp_path, capsys):
    required = {
        "infer": ["--checkpoint", "c.bin", "--level", "a", "--images", "x.pgm"],
        "eval": ["--data", "d", "--checkpoint", "c.bin"],
        "train": ["--data", "d", "--level", "a", "--out", "o"],
        "pipeline": ["--data", "d", "--out", "o"],
        "datagen": ["--out", str(tmp_path / "d")],
        "split": ["--annotations", "a.json", "--level", "a", "--out", "o",
                  "--train-frac", "1", "--val-frac", "0", "--test-frac", "0"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


@pytest.mark.parametrize("section, command, message", [
    ("train:\n  n_proposals: 0\n",
     ["train", "--data", "d", "--level", "a", "--out", "o"],
     "train.n_proposals must be >= 1, got 0"),
    ("schedule:\n  steps: 2\n  eta: 2.0\n",
     ["infer", "--checkpoint", "c.bin", "--level", "a", "--images", "x.pgm"],
     "schedule.eta must lie in [0, 1], got 2.0"),
    ("infer:\n  nms_iou: -1\n",
     ["infer", "--checkpoint", "c.bin", "--level", "a", "--images", "x.pgm"],
     "infer.nms_iou must lie in [0, 1], got -1"),
    ("infer:\n  cache_threshold: 0\n",
     ["pipeline", "--data", "d", "--out", "o"],
     "infer.cache_threshold must lie in (0, 1], got 0"),
    ("data:\n  size: 8\n",
     ["datagen", "--out", "o"],
     "data.size must be >= 16, got 8"),
    ("model:\n  grid: 0\n",
     ["train", "--data", "d", "--level", "a", "--out", "o"],
     "model.grid must be >= 1, got 0"),
    ("model:\n  hidden: 0\n",
     ["train", "--data", "d", "--level", "a", "--out", "o"],
     "model.hidden must be >= 1, got 0"),
    ("model:\n  scale: -2\n",
     ["train", "--data", "d", "--level", "a", "--out", "o"],
     "model.scale must be a positive number, got -2"),
    ("schedule:\n  s: -1.0\n",
     ["train", "--data", "d", "--level", "a", "--out", "o"],
     "schedule.s must be a positive number, got -1.0"),
])
def test_out_of_range_config_is_usage_error(section, command, message, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(section)
    assert main(["--config", str(path), *command]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("level, fractions, message", [
    ("c", ("0.5", "0.4", "0.0"), "split fractions must sum to 1"),
    ("a", ("0.5", "0.25", "0.25"), "test splits require fully labeled data"),
])
def test_split_rejects_bad_fractions(level, fractions, message, dataset, cfg_path,
                                     tmp_path, capsys):
    ann = {"a": "annotations_quadrant.json",
           "c": "annotations_quadrant_enumeration_diagnosis.json"}[level]
    capsys.readouterr()
    assert main(["--config", cfg_path, "split",
                 "--annotations", str(dataset / ann), "--level", level,
                 "--out", str(tmp_path / "splits"),
                 "--train-frac", fractions[0], "--val-frac", fractions[1],
                 "--test-frac", fractions[2]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "splits").exists()


@pytest.mark.parametrize("flag, value", [
    ("--train-frac", "1.5"), ("--val-frac", "-0.5"), ("--test-frac", "nan"),
])
def test_split_fraction_outside_unit_interval_is_usage_error(flag, value, capsys):
    fractions = {"--train-frac": "1", "--val-frac": "0", "--test-frac": "0"}
    fractions[flag] = value
    with pytest.raises(SystemExit) as exc:
        main(["split", "--annotations", "a.json", "--level", "c", "--out", "o",
              *[part for item in fractions.items() for part in item]])
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}: must lie in [0, 1]" in capsys.readouterr().err


def test_train_cache_splices_above_the_config_gate(dataset, tmp_path, monkeypatch):
    import dentdet.train
    from dentdet.data import load_annotations
    from dentdet.diffusion import signal_encode
    from dentdet.labels import HierarchyLevel
    from dentdet.manipulate import manipulate_boxes

    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(SMALL_CFG + "infer:\n  cache_threshold: 0.3\n")
    aset = load_annotations(
        dataset / "annotations_quadrant_enumeration.json", HierarchyLevel.QUADRANT_ENUM
    )
    box = [0.3, 0.4, 0.1, 0.2]
    cache = tmp_path / "inferred_boxes.tsv"
    cache.write_text("".join(
        "\t".join([info.id, *map(repr, box), "0.4"]) + "\n"
        for info in aset.images
    ))
    calls = []

    def recorder(noisy, inferred, score_threshold, scale):
        out = manipulate_boxes(noisy, inferred, score_threshold, scale=scale)
        calls.append((score_threshold, out))
        return out

    monkeypatch.setattr(dentdet.train, "manipulate_boxes", recorder)
    assert main(["--config", str(cfg_path), "train", "--data", str(dataset),
                 "--level", "b", "--out", str(tmp_path / "run"),
                 "--cache", str(cache)]) == EXIT_OK
    assert len(calls) == 3 * 2  # iterations x batch size
    want = signal_encode(np.array(box), ModelConfig().scale)
    for threshold, out in calls:
        assert threshold == 0.3
        np.testing.assert_array_equal(out[-1], want)


def test_pipeline_scores_held_out_sets_with_the_run_seed(cfg_path, tmp_path, capsys):
    data, held_out = tmp_path / "data", tmp_path / "held_out"
    for out, seed in ((data, "5"), (held_out, "6")):
        assert main(["--config", cfg_path, "datagen", "--out", str(out),
                     "--seed", seed]) == EXIT_OK
    out = tmp_path / "pipe"
    flags = ["--seed", "3", "--n-proposals", "32"]
    assert main(["--config", cfg_path, "pipeline", "--data", str(data),
                 "--eval-data", str(held_out), "--out", str(out), *flags]) == EXIT_OK
    tables = []
    for seed in ("3", "0"):
        capsys.readouterr()
        assert main(["--config", cfg_path, "eval", "--data", str(held_out),
                     "--level", "a", "--checkpoint",
                     str(out / "stage_0_quadrant" / "final.bin"),
                     *flags, "--seed", seed]) == EXIT_OK
        tables.append(capsys.readouterr().out.rstrip("\n"))
    assert tables[0] != tables[1]  # the seed shows in this table
    report = (out / "report.txt").read_text()
    stage_a = report.split("stage quadrant:\n")[1].split("\nstage ")[0]
    assert "\n".join("  " + line for line in tables[0].splitlines()) in stage_a


def test_checkpoint_fingerprints_include_the_flags(dataset, cfg_path, tmp_path, capsys):
    model = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8).fingerprint()  # as SMALL_CFG
    fingerprints = []
    for flags in (["--iterations", "2"], ["--iterations", "3"], []):
        run = tmp_path / f"run_{len(fingerprints)}"
        capsys.readouterr()
        assert main(["--config", cfg_path, "train", "--data", str(dataset),
                     "--level", "a", "--out", str(run), *flags]) == EXIT_OK
        printed = capsys.readouterr().err.split("config fingerprint: ")[1].split()[0]
        _, meta = load_checkpoint(run / "final.bin")
        assert (meta["config_fingerprint"], meta["model_fingerprint"]) == (printed, model)
        periodic = list(run.glob("ckpt_*.bin"))
        assert periodic
        for path in periodic:
            assert {k: v for k, v in load_checkpoint(path)[1].items()
                    if k.endswith("fingerprint")} == {"model_fingerprint": model}
        fingerprints.append(printed)
    assert fingerprints[0] != fingerprints[1]
    assert fingerprints[1] == fingerprints[2]  # SMALL_CFG sets 3 iterations


@pytest.mark.parametrize("command", ["train", "infer", "eval --oracle"])
def test_grid_larger_than_the_images_is_usage_error(command, dataset, tmp_path, capsys):
    cfg_path = tmp_path / "big_grid.yaml"
    cfg_path.write_text(SMALL_CFG.replace("grid: 8", "grid: 512"))
    ckpt = tmp_path / "big_grid.bin"
    big = ModelConfig(grid=512, pool=2, hidden=16, time_dim=8)
    save_checkpoint(ckpt, init_params(big, np.random.default_rng(0)))
    image = next((dataset / "images").glob("q_*.pgm"))
    args = {
        "train": ["train", "--data", str(dataset), "--level", "a",
                  "--out", str(tmp_path / "run")],
        "infer": ["infer", "--checkpoint", str(ckpt), "--level", "a",
                  "--images", str(image)],
        "eval --oracle": ["eval", "--data", str(dataset), "--level", "c", "--oracle"],
    }[command]
    capsys.readouterr()
    assert main(["--config", str(cfg_path), *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: model.grid 512 is larger than the 256x256 image" in err
    assert "Traceback" not in err


def _small_checkpoint(tmp_path):
    """An untrained checkpoint of SMALL_CFG's model."""
    ckpt = tmp_path / "small.bin"
    small = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)  # as SMALL_CFG
    save_checkpoint(ckpt, init_params(small, np.random.default_rng(0)))
    return ckpt


def _image_command(command, dataset, tmp_path):
    """Arguments of a command that reads ``images/q_00000.pgm``."""
    ckpt = _small_checkpoint(tmp_path)
    image = dataset / "images" / "q_00000.pgm"
    return {
        "infer": ["infer", "--checkpoint", str(ckpt), "--level", "a",
                  "--images", str(image)],
        "eval": ["eval", "--data", str(dataset), "--level", "a",
                 "--checkpoint", str(ckpt)],
        "eval --oracle": ["eval", "--data", str(dataset), "--level", "a", "--oracle"],
        "train": ["train", "--data", str(dataset), "--level", "a",
                  "--out", str(tmp_path / "run")],
        "pipeline": ["pipeline", "--data", str(dataset), "--out", str(tmp_path / "pipe")],
        "render": ["render", "--data", str(dataset), "--level", "a",
                   "--out", str(tmp_path / "vis")],
    }[command], image


IMAGE_COMMANDS = ["infer", "eval", "eval --oracle", "train", "pipeline", "render"]


@pytest.mark.parametrize("command", IMAGE_COMMANDS)
def test_missing_image_is_missing_file(command, dataset, cfg_path, tmp_path, capsys):
    args, image = _image_command(command, dataset, tmp_path)
    image.unlink()
    capsys.readouterr()
    assert main(["--config", cfg_path, *args]) == EXIT_MISSING
    err = capsys.readouterr().err
    assert f"error: missing image: {image}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", IMAGE_COMMANDS)
def test_color_image_is_invalid_data(command, dataset, cfg_path, tmp_path, capsys):
    args, image = _image_command(command, dataset, tmp_path)
    image.write_bytes(b"P6\n4 4\n255\n" + bytes(48))
    capsys.readouterr()
    assert main(["--config", cfg_path, *args]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"error: invalid image: {image}: unsupported netpbm magic b'P6'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", IMAGE_COMMANDS)
def test_truncated_image_is_invalid_data(command, dataset, cfg_path, tmp_path, capsys):
    args, image = _image_command(command, dataset, tmp_path)
    image.write_bytes(image.read_bytes()[:-100])
    capsys.readouterr()
    assert main(["--config", cfg_path, *args]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert (f"error: invalid image: {image}: truncated pixel data: "
            f"{256 * 256 - 100} of {256 * 256} bytes") in err
    assert "Traceback" not in err


def test_infer_encodes_every_image_before_sampling(dataset, cfg_path, tmp_path, capsys):
    # Three images, not in file order: the JSON keeps argument order, and its
    # records are those of encoding each image alone and sampling them all.
    from dentdet.model import encode_image
    from dentdet.train import _sample

    ckpt = _small_checkpoint(tmp_path)
    images = [dataset / "images" / name
              for name in ("q_00001.pgm", "qed_00000.pgm", "q_00000.pgm")]
    out = tmp_path / "dets.json"
    infer = ["--config", cfg_path, "infer", "--checkpoint", str(ckpt), "--level", "b",
             "--images", *map(str, images)]
    assert main([*infer, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert [im["id"] for im in doc["images"]] == [path.stem for path in images]
    cfg = load_config(cfg_path)
    grids = [encode_image(imageio.read_pgm(path), cfg.model.grid) for path in images]
    records = _sample(load_checkpoint(ckpt)[0], grids, HierarchyLevel.QUADRANT_ENUM, cfg.model,
                      Schedule.cosine(cfg.schedule.timesteps, cfg.schedule.s),
                      **cli._sampler(cfg))
    assert doc == cli._detections_doc([path.stem for path in images], records)

    # A missing second image exits 3 and a malformed one 4, each naming it.
    second = images[1]
    second.rename(tmp_path / "moved.pgm")
    capsys.readouterr()
    assert main(infer) == EXIT_MISSING
    err = capsys.readouterr().err
    assert f"error: missing image: {second}" in err and "Traceback" not in err
    second.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    assert main(infer) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"error: invalid image: {second}: truncated pixel data" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [c for c in IMAGE_COMMANDS if c != "infer"])
def test_image_of_another_size_than_its_record_is_invalid_data(
    command, dataset, cfg_path, tmp_path, capsys
):
    # infer has no annotation record to compare with.
    args, image = _image_command(command, dataset, tmp_path)
    imageio.write_pgm(image, np.full((4, 256), 128, dtype=np.uint8))
    capsys.readouterr()
    assert main(["--config", cfg_path, *args]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert (f"error: invalid image: {image}: image is 256x4, but its annotation "
            "record says 256x256") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["infer", "eval", "eval --oracle", "train", "pipeline"])
def test_image_under_two_pixels_is_usage_error(command, dataset, tmp_path, capsys):
    # At model.grid 1 the grid check passes a 1-pixel-wide image, but the
    # encoder's gradient channels need two pixels per side.
    cfg_path = tmp_path / "grid1.yaml"
    cfg_path.write_text(SMALL_CFG.replace("grid: 8", "grid: 1"))
    args, image = _image_command(command, dataset, tmp_path)
    imageio.write_pgm(image, np.full((5, 1), 128, dtype=np.uint8))
    ann_path = dataset / "annotations_quadrant.json"
    doc = json.loads(ann_path.read_text())
    doc["images"] = [dict(im, width=1, height=5) if im["id"] == image.stem else im
                     for im in doc["images"]]
    doc["annotations"] = [dict(a, bbox=[0.0, 0.0, 1.0, 5.0]) if a["image_id"] == image.stem
                          else a for a in doc["annotations"]]
    ann_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: image {image} is 1x5; the encoder needs at least 2 pixels per side" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["same", "grid: 4", "scale: 3.0", "no key"])
def test_model_fingerprint_is_checked_on_load(model, dataset, cfg_path, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["--config", cfg_path, "train", "--data", str(dataset),
                 "--level", "a", "--out", str(run)]) == EXIT_OK
    ckpt = run / "final.bin"
    trained = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8).fingerprint()
    eval_cfg = tmp_path / "eval.yaml"
    if model == "grid: 4":
        eval_cfg.write_text(SMALL_CFG.replace("grid: 8", "grid: 4"))
        other = ModelConfig(grid=4, pool=2, hidden=16, time_dim=8).fingerprint()
    elif model == "scale: 3.0":
        eval_cfg.write_text(SMALL_CFG.replace("time_dim: 8\n", "time_dim: 8\n  scale: 3.0\n"))
        other = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8, scale=3.0).fingerprint()
    else:
        eval_cfg.write_text(SMALL_CFG)
        other = trained
    if model == "no key":
        params, meta = load_checkpoint(ckpt)
        del meta["model_fingerprint"]
        save_checkpoint(ckpt, params, meta)
    capsys.readouterr()
    code = main(["--config", str(eval_cfg), "eval", "--data", str(dataset),
                 "--level", "a", "--checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    if other == trained:
        assert code == EXIT_OK
        return
    assert code == EXIT_INVALID
    assert (f"checkpoint {ckpt} has model fingerprint {trained}, "
            f"but the model config's is {other}") in err
    assert "Traceback" not in err


_CACHE_LINE = "qe_00000\t0.3\t0.4\t0.1\t0.2\t0.9\n"


@pytest.mark.parametrize("bad_line, message", [
    (None, None),
    ("qe_00000\t0.5\t0.5\tx\t0.1\t0.9\n", "could not convert"),
    ("qe_00000\t0.5\t0.5\t0.1\t0.9\n", "expected 6 fields, got 5"),
    ("qe_00000\tquadrant\t0.5\t0.5\t0.1\t0.1\t0.9\n", "expected 6 fields, got 7"),
    ("qe_00000\t0.5\t0.5\t0.1\t0.1\tnan\n", "inferred-box values must be finite"),
    ("qe_00000\tnan\t0.5\t0.1\t0.1\t0.9\n", "inferred-box values must be finite"),
], ids=["valid", "non-numeric", "field-count", "previous-format", "nan-score",
        "nan-box"])
def test_malformed_cache_is_invalid_data(bad_line, message, dataset, cfg_path,
                                         tmp_path, capsys):
    cache = tmp_path / "inferred_boxes.tsv"
    cache.write_text(_CACHE_LINE + (bad_line or _CACHE_LINE))
    capsys.readouterr()
    code = main(["--config", cfg_path, "train", "--data", str(dataset),
                 "--level", "b", "--out", str(tmp_path / "run"),
                 "--cache", str(cache)])
    err = capsys.readouterr().err
    if bad_line is None:
        assert code == EXIT_OK
        return
    assert code == EXIT_INVALID
    assert f"invalid cache: {cache}:2: " in err and message in err
    assert "Traceback" not in err


def _file_flag_command(flag, path, dataset, cfg_path, tmp_path):
    """argv that passes ``path`` where ``flag`` expects a file."""
    train = ["--config", cfg_path, "train", "--data", str(dataset), "--level", "b",
             "--out", str(tmp_path / "run")]
    return {
        "train --cache": [*train, "--cache", str(path)],
        "train --init": [*train, "--init", str(path)],
        "eval --checkpoint": ["--config", cfg_path, "eval", "--data", str(dataset),
                              "--level", "b", "--checkpoint", str(path)],
        "--config": ["--config", str(path), "datagen", "--out", str(tmp_path / "d")],
    }[flag]


@pytest.mark.parametrize(
    "flag", ["train --cache", "train --init", "eval --checkpoint", "--config"]
)
def test_directory_for_a_file_is_missing_file(flag, dataset, cfg_path, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    capsys.readouterr()
    assert main(_file_flag_command(flag, folder, dataset, cfg_path, tmp_path)) == EXIT_MISSING
    err = capsys.readouterr().err
    assert str(folder) in err and "directory" in err
    assert "Traceback" not in err


def _output_command(command, dataset, tmp_path):
    """argv of ``command`` on ``dataset``, all but its ``--out`` flag."""
    ckpt = _small_checkpoint(tmp_path)
    return {
        "datagen": ["datagen"],
        "train": ["train", "--data", str(dataset), "--level", "a"],
        "pipeline": ["pipeline", "--data", str(dataset)],
        "infer": ["infer", "--checkpoint", str(ckpt), "--level", "a",
                  "--images", str(dataset / "images" / "q_00000.pgm")],
        "eval": ["eval", "--data", str(dataset), "--level", "a", "--checkpoint", str(ckpt)],
        "render": ["render", "--data", str(dataset), "--level", "a"],
        "split": ["split", "--annotations", str(dataset / "annotations_quadrant.json"),
                  "--level", "a", "--train-frac", "1", "--val-frac", "0",
                  "--test-frac", "0"],
    }[command]


@pytest.mark.parametrize("command, out, named, message", [
    ("infer", "folder", "folder", "output file is a directory"),
    ("eval", "folder", "folder", "output file is a directory"),
    ("eval", "absent/report.txt", "absent/report.txt", "missing directory of output file"),
    ("eval", "report.txt", "report.kv", "output file is a directory"),
    ("datagen", "file", "file", "is not a directory"),
    ("train", "file", "file", "is not a directory"),
    ("train", "file/run", "file", "is not a directory"),
    ("pipeline", "file", "file", "is not a directory"),
    ("render", "file", "file", "is not a directory"),
    ("split", "file", "file", "is not a directory"),
])
def test_unwritable_output_is_missing_file(command, out, named, message, dataset, cfg_path,
                                           tmp_path, monkeypatch, capsys):
    (tmp_path / "folder").mkdir()
    (tmp_path / "report.kv").mkdir()
    (tmp_path / "file").write_text("")

    def no_reads(path):
        raise AssertionError(f"read {path} before checking --out")

    monkeypatch.setattr(cli, "read_pgm", no_reads)
    monkeypatch.setattr(imageio, "read_pgm", no_reads)
    argv = _output_command(command, dataset, tmp_path)
    capsys.readouterr()
    code = main(["--config", cfg_path, *argv, "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == EXIT_MISSING
    assert message in captured.err and str(tmp_path / named) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _quick_start_commands():
    """The README's Quick start block, one argv per ``dentdet`` command."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("dentdet ")]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    commands = _quick_start_commands()
    assert [c[0] for c in commands] == [
        "datagen", "pipeline", "train", "infer", "eval", "render", "validate", "split",
    ]
    small = {"datagen": ["--count", "2"], "pipeline": ["--iterations", "2"],
             "train": ["--iterations", "2"]}
    for argv in commands:
        assert main(argv + small.get(argv[0], [])) == EXIT_OK, argv
    capsys.readouterr()
