"""Command line entry point.

Subcommands: datagen, train, pipeline, infer, eval, render, validate.
Exit codes: 0 success, 2 bad arguments or config, 3 missing files,
4 invalid data, 5 training diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    DATA_BOUNDS,
    ENV_CONFIG,
    TRAIN_BOUNDS,
    DataConfig,
    RunConfig,
    TrainConfig,
    fraction,
    load_config,
)
from .data import (
    AnnotationError,
    generate_dataset,
    level_tag,
    load_annotations,
    split_manifest,
)
from .diffusion import Schedule
from .imageio import read_pgm, write_ppm
from .labels import HEAD_NAMES, HierarchyLevel
from .manipulate import InferredBoxCache
from .model import ModelConfig, check_shapes, load_checkpoint, save_checkpoint
from .train import (
    ARMS,
    StageConfig,
    TrainingDiverged,
    evaluate_params,
    make_plan,
    prepare_samples,
    run_pipeline,
    train_stage,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_INVALID = 4
EXIT_DIVERGED = 5

# Each level by its letter and by its tag.
_LEVELS = {
    **dict(zip("abc", HierarchyLevel)),
    **{level.value: level for level in HierarchyLevel},
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _level(arg: str) -> HierarchyLevel:
    try:
        return _LEVELS[arg]
    except KeyError:
        raise CliError(EXIT_USAGE, f"unknown level {arg!r}")


def _check_file(path, what: str) -> None:
    """Exit 3, naming ``path``, unless it is an existing file."""
    if not path or not Path(path).exists():
        raise CliError(EXIT_MISSING, f"missing {what}: {path}")
    if Path(path).is_dir():
        raise CliError(EXIT_MISSING, f"{what} is a directory, not a file: {path}")


def _check_out(path, directory: bool) -> None:
    """Exit 3, naming ``path``, unless an output can be written there. A
    directory output is created with its parents, so the nearest of them
    that exists must be a directory; a file output must not be a directory,
    and its parent directory must exist. Commands call this before they read
    any input."""
    if not path:
        return
    path = Path(path)
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise CliError(
                EXIT_MISSING,
                f"cannot create output directory {path}: {existing} is not a directory",
            )
    elif path.is_dir():
        raise CliError(EXIT_MISSING, f"output file is a directory: {path}")
    elif not path.parent.is_dir():
        raise CliError(EXIT_MISSING, f"missing directory of output file: {path}")


def _load_annotations(path: Path, level: HierarchyLevel):
    _check_file(path, "annotation file")
    try:
        return load_annotations(path, level)
    except AnnotationError as e:
        raise CliError(EXIT_INVALID, str(e))


def _load_level(data_dir: Path, level: HierarchyLevel):
    return _load_annotations(data_dir / f"annotations_{level_tag(level)}.json", level)


def _check_grid(model_cfg: ModelConfig, width: int, height: int, path) -> None:
    """The encoder needs at least one pixel per feature-grid cell, and two
    pixels per side for its gradient channels."""
    if min(width, height) < model_cfg.grid:
        raise CliError(
            EXIT_USAGE,
            f"model.grid {model_cfg.grid} is larger than the {width}x{height} "
            f"image {path}",
        )
    if min(width, height) < 2:
        raise CliError(
            EXIT_USAGE,
            f"image {path} is {width}x{height}; the encoder needs at least "
            "2 pixels per side",
        )


def _read_image(path: Path):
    _check_file(path, "image")
    try:
        return read_pgm(path)
    except ValueError as e:
        raise CliError(EXIT_INVALID, f"invalid image: {e}")


def _samples(data_dir: Path, level: HierarchyLevel, model_cfg: ModelConfig):
    """One level of a dataset directory, prepared for training or scoring."""
    aset = _load_level(data_dir, level)
    images = data_dir / "images"
    for info in aset.images:
        path = images / info.file_name
        _check_file(path, "image")
        _check_grid(model_cfg, info.width, info.height, path)
    try:
        return prepare_samples(aset, images, model_cfg)
    except ValueError as e:  # read_pgm and the size check name the file
        raise CliError(EXIT_INVALID, f"invalid image: {e}")


def _load_params(path: str, model_cfg: ModelConfig):
    _check_file(path, "checkpoint")
    try:
        params, meta = load_checkpoint(path)
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))
    try:
        check_shapes(params, model_cfg)
    except ValueError as e:
        raise CliError(
            EXIT_INVALID, f"checkpoint {path} does not fit the model config: {e}"
        )
    # Grid, scale and the loss settings change no tensor shape.
    stored, expected = meta.get("model_fingerprint"), model_cfg.fingerprint()
    if stored is not None and stored != expected:
        raise CliError(
            EXIT_INVALID,
            f"checkpoint {path} has model fingerprint {stored}, but the model "
            f"config's is {expected}",
        )
    return params


def _bounded(convert, check):
    """argparse type: ``convert`` the text, then apply a config bound."""

    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


_SECTIONS = {"train": (TrainConfig, TRAIN_BOUNDS), "data": (DataConfig, DATA_BOUNDS)}
_STAGE_FLAGS = (
    "train.iterations", "train.batch_size", "train.n_proposals", "train.seed", "train.lr"
)


def _override_flags(sp: argparse.ArgumentParser, *keys: str) -> None:
    """Add a flag per ``section.key`` overriding that config key, parsed as
    the type of the key's default and checked by its bound (exit 2)."""
    for dest in keys:
        section, key = dest.split(".")
        cls, bounds = _SECTIONS[section]
        sp.add_argument(
            "--" + key.replace("_", "-"),
            dest=dest,
            type=_bounded(type(getattr(cls, key)), bounds[key]),
        )


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """``cfg`` with the value of every override flag given; ``main`` applies
    them before anything reads the config or takes its fingerprint."""
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            changed = dataclasses.replace(getattr(cfg, section), **{key: value})
            cfg = dataclasses.replace(cfg, **{section: changed})
    return cfg


def _stage_config(cfg: RunConfig, level: HierarchyLevel) -> StageConfig:
    return StageConfig(level=level, **dataclasses.asdict(cfg.train))


def _sampler(cfg: RunConfig) -> dict:
    """The sampler's keywords, as the config sets them."""
    return dict(
        n_proposals=cfg.train.n_proposals,
        steps=cfg.schedule.steps,
        seed=cfg.train.seed,
        eta=cfg.schedule.eta,
        renewal_threshold=cfg.infer.renewal_threshold,
        nms_iou=cfg.infer.nms_iou,
    )


def _checkpoint_meta(cfg: RunConfig, **meta) -> dict:
    """A ``final.bin``'s metadata: ``meta`` and the run's and model's fingerprints."""
    return {**meta, "config_fingerprint": cfg.fingerprint(),
            "model_fingerprint": cfg.model.fingerprint()}


def cmd_datagen(args, cfg: RunConfig) -> int:
    _check_out(args.out, directory=True)
    out = Path(args.out)
    generate_dataset(out, cfg.data.count, cfg.train.seed, size=cfg.data.size)
    print(f"wrote synthetic dataset to {out}")
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    _check_out(args.out, directory=True)
    level = _level(args.level)
    samples = _samples(Path(args.data), level, cfg.model)
    schedule = Schedule.cosine(cfg.schedule.timesteps, cfg.schedule.s)
    stage = _stage_config(cfg, level)
    init = _load_params(args.init, cfg.model) if args.init else None
    cache = None
    if args.cache:
        _check_file(args.cache, "cache file")
        try:
            cache = InferredBoxCache.load(args.cache, cfg.infer.cache_threshold)
        except ValueError as e:  # names the file and line
            raise CliError(EXIT_INVALID, f"invalid cache: {e}")
    try:
        params, metrics = train_stage(
            stage, samples, cfg.model, schedule, init=init, cache=cache,
            out_dir=args.out,
        )
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    out = Path(args.out)
    save_checkpoint(out / "final.bin", params, _checkpoint_meta(cfg, level=level.value))
    print(f"trained {len(metrics)} logged points; checkpoint at {out / 'final.bin'}")
    return EXIT_OK


def cmd_pipeline(args, cfg: RunConfig) -> int:
    _check_out(args.out, directory=True)
    data_dir = Path(args.data)
    schedule = Schedule.cosine(cfg.schedule.timesteps, cfg.schedule.s)
    datasets = {level: _samples(data_dir, level, cfg.model) for level in HierarchyLevel}
    eval_datasets = None
    if args.eval_data:
        eval_dir = Path(args.eval_data)
        eval_datasets = {
            level: _samples(eval_dir, level, cfg.model) for level in HierarchyLevel
        }
    base = _stage_config(cfg, HierarchyLevel.QUADRANT_ONLY)
    plan = make_plan(args.arm, base)
    out = Path(args.out)
    try:
        result = run_pipeline(
            plan, datasets, cfg.model, schedule, out_dir=out,
            eval_datasets=eval_datasets, infer_steps=cfg.schedule.steps,
            eta=cfg.schedule.eta, renewal_threshold=cfg.infer.renewal_threshold,
            nms_iou=cfg.infer.nms_iou, cache_threshold=cfg.infer.cache_threshold,
        )
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    for i, sr in enumerate(result.stages):
        save_checkpoint(
            out / f"stage_{i}_{sr.level.value}" / "final.bin", sr.params,
            _checkpoint_meta(cfg, level=sr.level.value, arm=plan.arm),
        )
    print(result.report_text())
    return EXIT_OK


def _detections_doc(image_ids, records):
    """The ``infer`` JSON of ``train._sample``'s record arrays, one per image."""
    probs = [f"probs_{head}" for head in HEAD_NAMES]
    return {"images": [
        {"id": image_id, "detections": [
            {"box_cxcywh": r["box"].tolist(), "score": r["score"].item(),
             **{key: r[key].tolist() for key in probs}}
            for r in recs
        ]}
        for image_id, recs in zip(image_ids, records)
    ]}


def cmd_infer(args, cfg: RunConfig) -> int:
    _check_out(args.out, directory=False)
    level = _level(args.level)
    params = _load_params(args.checkpoint, cfg.model)
    from .train import _sample, encode_images

    images, ids = [], []
    for p in args.images:
        path = Path(p)
        images.append(_read_image(path))
        _check_grid(cfg.model, images[-1].shape[1], images[-1].shape[0], path)
        ids.append(path.stem)
    # Every image is read and checked before any is encoded; the images are
    # let go once encoded, so sampling holds only their grids.
    grids = encode_images(images, cfg.model.grid)
    del images
    schedule = Schedule.cosine(cfg.schedule.timesteps, cfg.schedule.s)
    records = _sample(params, grids, level, cfg.model, schedule, **_sampler(cfg))
    doc = _detections_doc(ids, records)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    else:
        print(json.dumps(doc, indent=1))
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    from .evalmetrics import EvalReport, evaluate, task_ground_truth

    if args.out:
        _check_out(args.out, directory=False)
        _check_out(Path(args.out).with_suffix(".kv"), directory=False)
    level = _level(args.level)
    samples = _samples(Path(args.data), level, cfg.model)
    if args.oracle:
        # Every task's ground truth, scored as detections of score 1.
        gts = [(s.gt_boxes, s.gt_classes) for s in samples]
        sizes = [(s.width, s.height) for s in samples]
        tasks = {}
        for task in level.heads:
            truth = task_ground_truth(gts, task)
            dets = [(boxes, classes, np.ones(len(classes))) for boxes, classes in truth]
            tasks[task] = evaluate(dets, truth, sizes, task)
        report = EvalReport(tasks=tasks)
    else:
        params = _load_params(args.checkpoint, cfg.model)
        schedule = Schedule.cosine(cfg.schedule.timesteps, cfg.schedule.s)
        report = evaluate_params(
            params, level, samples, cfg.model, schedule, **_sampler(cfg)
        )
    print(report.table())
    if args.out:
        out = Path(args.out)
        out.write_text(report.table() + "\n")
        kv = out.with_suffix(".kv")
        with open(kv, "w", encoding="utf-8") as f:
            for key, val in report.key_values().items():
                f.write(f"{key}={100 * val:.3f}\n")
    return EXIT_OK


def cmd_render(args, cfg: RunConfig) -> int:
    from .render import caption, render_overlay

    _check_out(args.out, directory=True)
    level = _level(args.level)
    data_dir = Path(args.data)
    aset = _load_level(data_dir, level)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for info, boxes, classes in zip(aset.images, aset.boxes, aset.classes, strict=True):
        path = data_dir / "images" / info.file_name
        img = _read_image(path)
        try:
            info.check_size(img, path)
        except ValueError as e:
            raise CliError(EXIT_INVALID, f"invalid image: {e}")
        canvas = render_overlay(img, boxes, [caption(row) for row in classes])
        write_ppm(out_dir / f"{info.id}.ppm", canvas)
    print(f"rendered {len(aset.images)} overlays to {out_dir}")
    return EXIT_OK


def cmd_validate(args, cfg: RunConfig) -> int:
    level = _level(args.level)
    path = Path(args.annotations)
    _check_file(path, "annotation file")
    try:
        aset = load_annotations(path, level)
    except AnnotationError as e:
        for idx, msg in e.errors:
            print(f"record {idx}: {msg}", file=sys.stderr)
        return EXIT_INVALID
    print(
        f"ok: {len(aset.images)} images, {sum(map(len, aset.boxes))} annotations "
        f"at level {level.value}"
    )
    return EXIT_OK


def cmd_split(args, cfg: RunConfig) -> int:
    _check_out(args.out, directory=True)
    level = _level(args.level)
    aset = _load_annotations(Path(args.annotations), level)
    try:
        train_ids, val_ids, test_ids = split_manifest(
            aset, (args.train_frac, args.val_frac, args.test_frac), cfg.train.seed
        )
    except ValueError as e:
        raise CliError(EXIT_USAGE, str(e))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, ids in (("train", train_ids), ("val", val_ids), ("test", test_ids)):
        (out / f"{name}.txt").write_text("".join(f"{i}\n" for i in ids))
    print(f"split {len(aset.images)} images into "
          f"{len(train_ids)}/{len(val_ids)}/{len(test_ids)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dentdet",
        description="Diffusion-based hierarchical multi-label tooth detection",
    )
    p.add_argument(
        "--config",
        help=f"YAML run config (default: ${ENV_CONFIG} if set)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("datagen", help="emit a synthetic three-level dataset")
    sp.add_argument("--out", required=True)
    _override_flags(sp, "data.count", "train.seed", "data.size")
    sp.set_defaults(fn=cmd_datagen)

    sp = sub.add_parser("train", help="train a single hierarchy stage")
    sp.add_argument("--data", required=True)
    sp.add_argument("--level", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--init", help="checkpoint to start from")
    sp.add_argument("--cache", help="inferred-box cache (enables manipulation)")
    _override_flags(sp, *_STAGE_FLAGS)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("pipeline", help="full staged training (a -> b -> c)")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--arm", choices=ARMS, default="full")
    sp.add_argument("--eval-data")
    _override_flags(sp, *_STAGE_FLAGS)
    sp.set_defaults(fn=cmd_pipeline)

    sp = sub.add_parser("infer", help="detect boxes on images")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--level", required=True)
    sp.add_argument("--images", nargs="+", required=True)
    sp.add_argument("--out")
    _override_flags(sp, "train.n_proposals", "train.seed")
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("eval", help="COCO-style report over a labeled set")
    sp.add_argument("--data", required=True)
    sp.add_argument("--level", default="c")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--oracle", action="store_true",
                        help="evaluate ground truth copied as detections")
    sp.add_argument("--out")
    _override_flags(sp, "train.n_proposals", "train.seed")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("render", help="draw labeled boxes onto images")
    sp.add_argument("--data", required=True)
    sp.add_argument("--level", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("validate", help="lint an annotation file")
    sp.add_argument("--annotations", required=True)
    sp.add_argument("--level", required=True)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("split", help="deterministic train/val/test manifest")
    sp.add_argument("--annotations", required=True)
    sp.add_argument("--level", required=True)
    sp.add_argument("--out", required=True)
    for name in ("--train-frac", "--val-frac", "--test-frac"):
        sp.add_argument(name, type=_bounded(float, fraction), required=True)
    _override_flags(sp, "train.seed")
    sp.set_defaults(fn=cmd_split)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (FileNotFoundError, IsADirectoryError) as e:  # the config file
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"config fingerprint: {cfg.fingerprint()}", file=sys.stderr)
    try:
        return args.fn(args, cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except AnnotationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
