"""Single-stage training loop and the three-stage hierarchical pipeline.

Stages run shallow to deep (quadrant -> quadrant+enumeration -> full), each
optionally receiving the previous stage's weights (transfer) and/or its
confident inferred boxes (noisy-box manipulation).  The four ablation arms
of :data:`ARMS` toggle those two mechanisms independently.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import blas
from .config import TrainConfig
from .data import AnnotationSet, random_crop_resize
from .diffusion import (
    Schedule,
    box_renewal,
    ddim_step,
    forward_noise,
    pad_gt_boxes,
    signal_decode,
)
from .evalmetrics import EvalReport, build_report
from .geometry import Box, iou, nms  # noqa: F401  (perfbench counts iou calls)
from .labels import HEAD_CLASS_COUNTS, HEAD_NAMES, HierarchyLevel
from .manipulate import (
    InferredBoxCache,
    inference_proposals,
    inferred_boxes,
    manipulate_boxes,
)
from .model import (
    NUM_CHANNELS,
    ModelConfig,
    ParamStore,
    decode,
    encode_image,
    init_params,
    level_params,
    loss_gradients,
    save_checkpoint,
    softmax,
    transfer_weights,
)

# Ablation arm -> (transfer, manipulation): whether each stage after the
# first starts from the previous stage's weights, and whether it trains on
# the previous stage's inferred boxes.
ARMS = {
    "full": (True, True),
    "no_transfer": (False, True),
    "no_manipulation": (True, False),
    "neither": (False, False),
}


@dataclass(frozen=True, kw_only=True)
class StageConfig(TrainConfig):
    """The ``train`` config section plus what one pipeline stage adds."""

    level: HierarchyLevel
    log_every: int = 50


@dataclass(frozen=True)
class PipelinePlan:
    arm: str
    stages: tuple[StageConfig, StageConfig, StageConfig]

    def __post_init__(self):
        if self.arm not in ARMS:
            raise ValueError(f"unknown ablation arm {self.arm!r}")
        if tuple(s.level for s in self.stages) != tuple(HierarchyLevel):
            raise ValueError("pipeline stages must run quadrant -> enum -> full")


def make_plan(arm: str, base: StageConfig | None = None) -> PipelinePlan:
    """Plan for one ablation arm: one stage per level, shallow to deep.

    Each successive stage halves the learning rate.  Later stages refine a
    model that already localizes (via transfer and/or manipulation-spliced
    proposals) on progressively sparser supervision, and a full-rate final
    stage erodes the box-refinement behaviour learned earlier faster than
    its own sparse labels can rebuild it.
    """
    base = base or StageConfig(level=HierarchyLevel.QUADRANT_ONLY)
    stages = tuple(
        replace(base, level=level, seed=base.seed + i, lr=base.lr * 0.5**i)
        for i, level in enumerate(HierarchyLevel)
    )
    return PipelinePlan(arm=arm, stages=stages)


@dataclass
class TrainSample:
    """One image prepared for training or evaluation.

    Its ground truth is ``gt_boxes`` (M, 4), normalized center-size, and
    ``gt_classes`` (M, 3), class indices in ``HEAD_NAMES`` order with -1
    where a head carries no label: an image's ``AnnotationSet`` arrays.
    """

    image_id: str
    image: np.ndarray  # uint8 grayscale, kept for augmentation
    grid_feats: np.ndarray
    gt_boxes: np.ndarray
    gt_classes: np.ndarray
    width: int
    height: int


def prepare_samples(
    aset: AnnotationSet, images_dir, cfg: ModelConfig
) -> list[TrainSample]:
    from .imageio import read_pgm

    images_dir = Path(images_dir)
    images = []
    for info in aset.images:
        path = images_dir / info.file_name
        img = read_pgm(path)
        info.check_size(img, path)
        images.append(img)
    # Every image is read and checked before any is encoded, and all are
    # encoded in one call, which splits them over two threads.
    grids = encode_images(images, cfg.grid)
    return [
        TrainSample(
            image_id=info.id,
            image=img,
            grid_feats=grid,
            gt_boxes=boxes,
            gt_classes=classes,
            width=info.width,
            height=info.height,
        )
        for info, img, grid, boxes, classes in zip(
            aset.images, images, grids, aset.boxes, aset.classes, strict=True
        )
    ]


class TrainingDiverged(RuntimeError):
    def __init__(self, iteration: int, last_checkpoint: str | None):
        self.iteration = iteration
        self.last_checkpoint = last_checkpoint
        msg = f"non-finite loss at iteration {iteration}"
        if last_checkpoint:
            msg += f"; last good checkpoint: {last_checkpoint}"
        else:
            msg += "; no checkpoint was written before it"
        super().__init__(msg)


def _global_norm(grads: ParamStore, names) -> float:
    return float(np.sqrt(sum(float((grads[n] ** 2).sum()) for n in names)))


class Adam:
    """Adam with an L2 term, over the named tensors of a parameter store.

    :meth:`step` runs, tensor by tensor, the float operations of the
    textbook update in their order: the clipped gradient, both moments, the
    bias corrections, then ``lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)``.
    It writes every intermediate into two scratch buffers per tensor, so a
    step allocates nothing.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: ParamStore, names, weight_decay: float):
        self.names = list(names)
        self.weight_decay = weight_decay
        self.m = {n: np.zeros_like(params[n]) for n in self.names}
        self.v = {n: np.zeros_like(params[n]) for n in self.names}
        self._scratch = {
            n: (np.empty_like(params[n]), np.empty_like(params[n])) for n in self.names
        }
        self.steps = 0

    def step(self, params: ParamStore, grads: ParamStore, lr: float, clip: float) -> None:
        """Move ``params`` by one step of rate ``lr``; ``grads`` are scaled
        by ``clip`` in place."""
        self.steps += 1
        b1, b2 = self.b1, self.b2
        c1, c2 = 1 - b1**self.steps, 1 - b2**self.steps
        for n in self.names:
            g, m, v, p = grads[n], self.m[n], self.v[n], params[n]
            s, u = self._scratch[n]
            g *= clip
            m *= b1
            m += np.multiply(g, 1 - b1, out=s)
            v *= b2
            np.multiply(g, 1 - b2, out=s)
            v += np.multiply(s, g, out=s)
            np.sqrt(np.divide(v, c2, out=s), out=s)
            s += self.eps
            np.divide(np.divide(m, c1, out=u), s, out=u)
            u += np.multiply(p, self.weight_decay, out=s)
            u *= lr
            p -= u


@blas.one_thread()
def train_stage(
    cfg: StageConfig,
    samples: list[TrainSample],
    model_cfg: ModelConfig,
    schedule: Schedule,
    init: ParamStore | None = None,
    cache: InferredBoxCache | None = None,
    out_dir=None,
) -> tuple[ParamStore, list[dict]]:
    """Train one hierarchy stage; fully reproducible from (cfg, seed).

    Trains the level's ``level_params`` and takes their gradient norm in
    that order, whatever order ``init`` holds its tensors in.  Given a
    ``cache``, each noisy proposal set gets the image's cached boxes spliced
    in (manipulation).  Emits periodic loss records and checkpoints; on a
    non-finite loss the last good checkpoint is retained and
    :class:`TrainingDiverged` is raised.
    """
    if not samples:
        raise ValueError("no training samples")
    supervised = len(cfg.level.heads)  # gt_classes columns the level labels
    for s in samples:
        if (s.gt_classes[:, :supervised] < 0).any():
            raise ValueError(
                f"sample {s.image_id} lacks labels of level {cfg.level.value}"
            )
    if init is None:
        params = init_params(model_cfg, np.random.default_rng([cfg.seed, 0]))
    else:
        params = {k: v.copy() for k, v in init.items()}
    rng = np.random.default_rng([cfg.seed, 1])
    trainable = level_params(cfg.level)
    adam = Adam(params, trainable, cfg.weight_decay)
    metrics: list[dict] = []
    out_dir = Path(out_dir) if out_dir is not None else None
    last_ckpt = None
    log_f = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_f = open(out_dir / "metrics.jsonl", "w", encoding="utf-8")
    # One batch's arrays, refilled every step: arrays allocated afresh each
    # step kept the process's peak resident memory about 0.5 MB higher.
    grids = np.empty((cfg.batch_size, model_cfg.grid, model_cfg.grid, NUM_CHANNELS))
    z = np.empty((cfg.batch_size, cfg.n_proposals, 4))
    t = np.empty(cfg.batch_size)
    t_start = time.perf_counter()
    try:
        for it in range(cfg.iterations):
            replace_draw = cfg.batch_size > len(samples)
            idx = rng.choice(len(samples), size=cfg.batch_size, replace=replace_draw)
            boxes, classes, crops = [], [], []
            for row, i in enumerate(idx):
                s = samples[i]
                gt_boxes, gt_classes = s.gt_boxes, s.gt_classes
                if cfg.augment:
                    img, gt_boxes, gt_classes = random_crop_resize(
                        s.image, gt_boxes, gt_classes, rng
                    )
                    crops.append(img)
                if len(gt_boxes) > cfg.n_proposals:
                    # More targets than proposals: supervise a random subset
                    # so the one-to-one assignment stays feasible.
                    keep = np.sort(
                        rng.choice(len(gt_boxes), size=cfg.n_proposals, replace=False)
                    )
                    gt_boxes, gt_classes = gt_boxes[keep], gt_classes[keep]
                z0 = pad_gt_boxes(gt_boxes, cfg.n_proposals, rng, model_cfg.scale)
                step = int(rng.integers(1, schedule.T + 1))
                noisy = forward_noise(z0, step, schedule, rng)
                if cache is not None:
                    noisy = manipulate_boxes(
                        noisy, cache.get(s.image_id), cache.threshold,
                        scale=model_cfg.scale,
                    )
                z[row], t[row] = noisy, step
                boxes.append(gt_boxes)
                classes.append(gt_classes)
            # Encoding draws nothing, so encoding the batch's crops in one
            # call after the draw loop leaves the rng stream as is.
            np.stack(
                encode_images(crops, model_cfg.grid) if cfg.augment
                else [samples[i].grid_feats for i in idx],
                out=grids,
            )
            try:
                loss, grads, bd = loss_gradients(
                    params, grids, z, t, boxes, classes, cfg.level, model_cfg
                )
            except FloatingPointError as e:
                raise TrainingDiverged(it, str(last_ckpt) if last_ckpt else None) from e
            if not np.isfinite(loss):
                raise TrainingDiverged(it, str(last_ckpt) if last_ckpt else None)

            lr = cfg.lr
            if cfg.warmup and it < cfg.warmup:
                lr *= (it + 1) / cfg.warmup
            norm = _global_norm(grads, trainable)
            clip = min(1.0, cfg.grad_clip / norm) if norm > cfg.grad_clip else 1.0
            adam.step(params, grads, lr, clip)

            if it % cfg.log_every == 0 or it == cfg.iterations - 1:
                rec = {
                    "iteration": it,
                    "loss": float(loss),
                    "cls_q": bd.cls_q,
                    "cls_e": bd.cls_e,
                    "cls_d": bd.cls_d,
                    "l1": bd.l1,
                    "giou": bd.giou,
                    "grad_norm": norm,
                    "clip_factor": clip,
                    "matched_pairs": bd.matched_pairs,
                    "wall_time": time.perf_counter() - t_start,
                }
                metrics.append(rec)
                if log_f:
                    log_f.write(json.dumps(rec) + "\n")
                    log_f.flush()
            if out_dir is not None and (
                (it + 1) % cfg.checkpoint_every == 0 or it == cfg.iterations - 1
            ):
                last_ckpt = out_dir / f"ckpt_{it + 1:06d}.bin"
                save_checkpoint(
                    last_ckpt,
                    params,
                    {"iteration": it + 1, "level": cfg.level.value,
                     "model_fingerprint": model_cfg.fingerprint()},
                )
    finally:
        if log_f:
            log_f.close()
    return params, metrics


@dataclass
class Detection:
    """One detected box: per-head class distributions and confidences.

    ``probs_*`` are softmaxed over each head's foreground classes; ``score``
    is the largest probability of the deepest supervised head, and
    ``objectness`` is one minus that head's background probability.
    """

    box: Box
    probs_q: np.ndarray
    probs_e: np.ndarray
    probs_d: np.ndarray
    score: float
    objectness: float = 1.0


# The sampler's kept rows, one record per box: the fields of Detection, with
# the box as a [0, 1] center-size (4,) array and one ``probs_<head>`` field
# per head of labels.HEAD_NAMES.
DETECTED = np.dtype([
    ("box", np.float64, (4,)),
    *((f"probs_{head}", np.float64, (HEAD_CLASS_COUNTS[head],)) for head in HEAD_NAMES),
    ("score", np.float64),
    ("objectness", np.float64),
])


# Proposal rows the sampler decodes in one pass: images run in lockstep,
# max(1, INFER_PASS_ROWS // n_proposals) at a time, each pass split into two
# halves that run at once.  The call holds one (rows, H + D) head input, each
# half decoding into its own images' rows; no activation outlives its decode,
# and RoI pooling keeps its half's bin weights and one part's bin rows
# (model.POOL_BOXES).  At 512 rows, 8 images of 64 proposals at the default
# ModelConfig, a head input is 1.8 MB, and a 4-step infer call peaks at 2.1
# head inputs (traced) over one pass and 2.2 (3.9 MB) over four.  With the
# halves run one after the other it peaks at 1.6 and 1.7.
INFER_PASS_ROWS = 512


@blas.one_thread()
def _sample(
    params: ParamStore,
    grids: list[np.ndarray],
    level: HierarchyLevel,
    model_cfg: ModelConfig,
    schedule: Schedule,
    n_proposals: int = 64,
    steps: int = 1,
    seed: int = 0,
    eta: float = 0.0,
    renewal_threshold: float = 0.5,
    nms_iou: float = 0.5,
) -> list[np.recarray]:
    """Denoise completely noisy proposals into one :data:`DETECTED` record
    array per image, its rows in the order NMS kept them.

    Deterministic for a fixed seed and eta = 0; per-image rng streams make
    results independent of processing order and of how images are grouped
    into passes.  Each pass of several images is split in two: this thread
    runs the first half's whole chain, the decodes, the DDIM steps and
    renewal, the readout, NMS and the records, while the step worker
    (:func:`blas.in_parallel`) runs the second half's.  Within a half, the
    decoder, the DDIM step, renewal, NMS and the readout run over its images
    at once; each image's noise still comes from its own generator.  Both
    halves decode into their own rows of one head input, allocated here once
    per call, and this thread joins their records in image order.  A pass of one image runs on this thread alone.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # linspace runs from T down to 0, so equal rounded steps are adjacent.
    times = list(dict.fromkeys(
        np.round(np.linspace(schedule.T, 0, steps + 1)).astype(int).tolist()
    ))
    per_pass = max(1, INFER_PASS_ROWS // n_proposals)
    width = model_cfg.hidden + model_cfg.feat_dim
    x = np.empty((min(per_pass, len(grids)), n_proposals, width))

    def chain(images: range, x: np.ndarray) -> tuple[np.recarray, np.ndarray]:
        """The records of ``images``, decoded in ``x``, image by image, and
        each image's count of them."""
        grid = np.stack([grids[i] for i in images])
        rngs = [np.random.default_rng([seed, i]) for i in images]
        z = np.stack([inference_proposals(n_proposals, rng) for rng in rngs])
        for si, (t, t_next) in enumerate(zip(times, times[1:])):
            # Renewal reads the deepest head's scores; the last step renews nothing.
            renew = si < len(times) - 2
            z0_pred, _, scores, _ = decode(
                params, grid, z, float(t), level, model_cfg,
                heads=(level.deepest_head,) if renew else (), out=x,
            )
            # Each image's generator draws its DDIM noise, then its renewal noise.
            z = ddim_step(z, z0_pred, t, t_next, schedule, eta, rngs)
            if renew:
                z = box_renewal(scores, z, renewal_threshold, rngs)
        # Final readout on the denoised boxes: the chain ends with clean
        # proposals at t = 0.  Decode once to refine them (the box head can
        # correct sizes after observing the content under the denoised
        # window), then decode the refined boxes so every head scores the
        # window it would actually report.
        z0_pred = decode(params, grid, z, 0.0, level, model_cfg, heads=(), out=x)[0]
        z0_pred, probs, scores, logits = decode(
            params, grid, z0_pred, 0.0, level, model_cfg, out=x
        )
        boxes01 = signal_decode(z0_pred, model_cfg.scale)
        kept = nms(boxes01, scores, nms_iou)  # (image, row) pairs
        out = np.recarray(len(kept[0]), dtype=DETECTED)
        out.box = boxes01[kept]
        for head in HEAD_NAMES:
            out[f"probs_{head}"] = probs[head][kept]
        out.score = scores[kept]
        out.objectness = 1.0 - softmax(logits[level.deepest_head][kept])[:, -1]
        return out, np.bincount(kept[0], minlength=len(images))

    results = []
    for first in range(0, len(grids), per_pass):
        n = min(per_pass, len(grids) - first)
        half = (n + 1) // 2
        here = functools.partial(chain, range(first, first + half), x[:half])
        there = functools.partial(chain, range(first + half, first + n), x[half:n])
        outs, counts = zip(*([here()] if n == 1 else blas.in_parallel(here, there)))
        # Joined on this thread, so no record array the caller keeps holds
        # memory in the worker's heap between calls.
        records = np.concatenate(outs).view(np.recarray)
        results += np.split(records, np.cumsum(np.concatenate(counts))[:-1])
    return results


def encode_images(images, grid: int = 16) -> list[np.ndarray]:
    """The :func:`encode_image` grids of a list of grayscale images.

    Split as a sampler pass is: this thread encodes the first half of the
    list while the step worker (:func:`blas.in_parallel`) encodes the
    second, and a list of one image is encoded here alone.  This thread
    allocates the output grids, so no grid the caller keeps holds memory in
    the worker's heap.  An image that ``encode_image`` refuses raises its
    ``ValueError`` here once both halves have finished.
    """
    images = [np.asarray(img) for img in images]
    grids = [np.empty((grid, grid, NUM_CHANNELS)) for _ in images]

    def encode(share: range) -> None:
        for i in share:
            encode_image(images[i], grid, out=grids[i])

    half = (len(images) + 1) // 2
    here = functools.partial(encode, range(half))
    if len(images) > 1:
        blas.in_parallel(here, functools.partial(encode, range(half, len(images))))
    else:
        here()
    return grids


def infer(
    params: ParamStore,
    grids: list[np.ndarray],
    level: HierarchyLevel,
    model_cfg: ModelConfig,
    schedule: Schedule,
    **sampler,
) -> list[list[Detection]]:
    """Denoise completely noisy proposals into :class:`Detection` lists, one
    per image.

    ``sampler`` holds the sampler keywords, ``n_proposals``, ``steps``,
    ``seed``, ``eta``, ``renewal_threshold`` and ``nms_iou``, with
    :func:`_sample`'s defaults.  Deterministic for a fixed seed and eta = 0,
    and independent of processing order.
    """
    return [
        [
            Detection(Box.from_array(box), q, e, d, float(score), float(objectness))
            for box, q, e, d, score, objectness in zip(
                r.box, *(r[f"probs_{head}"] for head in HEAD_NAMES), r.score, r.objectness
            )
        ]
        for r in _sample(params, grids, level, model_cfg, schedule, **sampler)
    ]


def build_cache(
    params: ParamStore,
    samples: list[TrainSample],
    level: HierarchyLevel,
    model_cfg: ModelConfig,
    schedule: Schedule,
    threshold: float = 0.5,
    **sampler,
) -> InferredBoxCache:
    """Run inference over the next stage's images and cache the boxes that
    score above ``threshold``, the gate training splices them with.

    ``sampler`` holds :func:`infer`'s keywords."""
    cache = InferredBoxCache(threshold)
    detected = _sample(
        params, [s.grid_feats for s in samples], level, model_cfg, schedule, **sampler
    )
    for s, records in zip(samples, detected):
        confident = records[records.score > threshold]
        if len(confident):
            cache.entries[s.image_id] = inferred_boxes(
                np.column_stack([confident.box, confident.score])
            )
    return cache


@dataclass
class StageResult:
    level: HierarchyLevel
    params: ParamStore
    metrics: list[dict]
    cache_reads: int
    copied_tensors: list[str]
    report: EvalReport | None = None


@dataclass
class PipelineResult:
    arm: str
    stages: list[StageResult] = field(default_factory=list)

    def report_text(self) -> str:
        lines = [f"ablation arm: {self.arm}"]
        for sr in self.stages:
            lines.append(f"\nstage {sr.level.value}:")
            lines.append(
                f"  transfer tensors: {len(sr.copied_tensors)}; "
                f"cache reads: {sr.cache_reads}"
            )
            if sr.report is not None:
                lines.append(
                    "\n".join("  " + ln for ln in sr.report.table().splitlines())
                )
        return "\n".join(lines) + "\n"


def evaluate_params(
    params: ParamStore,
    level: HierarchyLevel,
    eval_samples: list[TrainSample],
    model_cfg: ModelConfig,
    schedule: Schedule,
    **sampler,
) -> EvalReport:
    """Infer over held-out samples with :func:`infer`'s keywords ``sampler``
    and score every task the level supervises."""
    detected = _sample(
        params, [s.grid_feats for s in eval_samples], level, model_cfg, schedule,
        **sampler,
    )
    return build_report(
        detected,
        [(s.gt_boxes, s.gt_classes) for s in eval_samples],
        [(s.width, s.height) for s in eval_samples],
        tasks=level.heads,
    )


def run_pipeline(
    plan: PipelinePlan,
    datasets: dict[HierarchyLevel, list[TrainSample]],
    model_cfg: ModelConfig,
    schedule: Schedule,
    out_dir=None,
    eval_datasets: dict[HierarchyLevel, list[TrainSample]] | None = None,
    infer_steps: int = 1,
    cache_threshold: float = 0.5,
    **sampler,
) -> PipelineResult:
    """Execute the three stages with the mechanisms ``ARMS`` gives the arm.

    Cache building and held-out scoring sample with ``infer_steps`` and
    ``sampler``, :func:`infer`'s keywords other than ``n_proposals`` and
    ``seed``.  Both take ``n_proposals`` from the stage; the cache takes the
    stage's seed, and held-out scoring the run's (the first stage's), as
    ``dentdet eval`` does.  The cache keeps, and training splices, the boxes
    scoring above ``cache_threshold``.
    """
    for stage in plan.stages:
        if stage.level not in datasets or not datasets[stage.level]:
            raise ValueError(f"missing dataset for level {stage.level.value}")
    out_dir = Path(out_dir) if out_dir is not None else None
    result = PipelineResult(arm=plan.arm)
    transfer, manipulate = ARMS[plan.arm]
    prev_params: ParamStore | None = None
    prev_level: HierarchyLevel | None = None
    for i, stage in enumerate(plan.stages):
        stage_dir = out_dir / f"stage_{i}_{stage.level.value}" if out_dir else None
        copied: list[str] = []
        init = None
        if transfer and prev_params is not None:
            fresh = init_params(model_cfg, np.random.default_rng([stage.seed, 0]))
            init, copied = transfer_weights(prev_params, fresh, src_level=prev_level)
        cache = None
        if manipulate and prev_params is not None:
            cache = build_cache(
                prev_params,
                datasets[stage.level],
                prev_level,
                model_cfg,
                schedule,
                n_proposals=stage.n_proposals,
                steps=infer_steps,
                threshold=cache_threshold,
                seed=stage.seed,
                **sampler,
            )
            if stage_dir is not None:
                stage_dir.mkdir(parents=True, exist_ok=True)
                cache.save(stage_dir / "inferred_boxes.tsv")
            cache.reads = 0  # count training reads only
        params, metrics = train_stage(
            stage,
            datasets[stage.level],
            model_cfg,
            schedule,
            init=init,
            cache=cache,
            out_dir=stage_dir,
        )
        sr = StageResult(
            level=stage.level,
            params=params,
            metrics=metrics,
            cache_reads=cache.reads if cache is not None else 0,
            copied_tensors=copied,
        )
        if eval_datasets and stage.level in eval_datasets:
            sr.report = evaluate_params(
                params,
                stage.level,
                eval_datasets[stage.level],
                model_cfg,
                schedule,
                n_proposals=stage.n_proposals,
                steps=infer_steps,
                seed=plan.stages[0].seed,
                **sampler,
            )
        result.stages.append(sr)
        prev_params, prev_level = params, stage.level
    if out_dir is not None:
        (out_dir / "report.txt").write_text(result.report_text())
    return result
