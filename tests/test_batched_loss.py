"""The batched training step against the per-image step it replaced.

``_image_loss`` and ``_oracle_loss_gradients`` are the per-image loss and
the per-image gradient loop that ``model.loss_gradients`` ran before its
loss was batched and its images ran in lockstep on two threads.  The step
must equal them bit for bit: the same loss, breakdown and gradient bytes.
"""

import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import dentdet.model as model_mod
import dentdet.train as train_mod
from dentdet import blas
from dentdet.config import ENV_CONFIG
from dentdet.data import generate_layout, project_level
from dentdet.diffusion import Schedule, signal_decode
from dentdet.labels import (
    HEAD_CLASS_COUNTS,
    HEAD_NAMES,
    HierarchyLevel,
)
from dentdet.manipulate import InferredBoxCache, inferred_boxes, manipulate_boxes
from dentdet.matching import (
    LossBreakdown,
    _focal,
    giou_pair_grad,
    loss_forward_backward,
    match_arrays,
)
from dentdet.model import (
    ModelConfig,
    backward_net,
    check_shapes,
    decode_grad_mask,
    encode_image,
    forward_features,
    forward_net,
    init_params,
    loss_gradients,
    loss_probs_for_mask,
    softmax,
    zero_grads,
)
from dentdet.train import StageConfig, TrainSample, train_stage
from helpers import class_row, class_rows

# A scale that is no power of two makes the decode mask round, so the order
# of the mean and the mask shows in the gradient bits.
CFG = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8, scale=1.5)
SCHED = Schedule.cosine(1000, 0.008)
LEVELS = pytest.mark.parametrize("level", list(HierarchyLevel), ids=["q", "qe", "qed"])
# The LossBreakdown field of each head's classification term.
CLS_TERM = dict(zip(HEAD_NAMES, ("cls_q", "cls_e", "cls_d")))


# ---------------------------------------------------------------------------
# Oracles: the per-image loss and gradient loop.


def _image_loss(probs, boxes01, gt_boxes, gt_classes, pairs, level, cfg):
    """Masked multi-task loss for one image; (breakdown, dlogits, dboxes01)."""
    n = boxes01.shape[0]
    gamma = cfg.focal_gamma
    deepest = level.deepest_head
    pred_idx = np.array([i for i, _ in pairs], dtype=int)
    gt_idx = np.array([j for _, j in pairs], dtype=int)
    n_pairs = len(pairs)

    cls_terms = {"cls_q": 0.0, "cls_e": 0.0, "cls_d": 0.0}
    dlogits = {}
    for head in level.heads:
        p = probs[head]
        k_loss = p.shape[1]
        dp_t = np.zeros(n)
        targets = np.full(n, -1, dtype=int)
        if head == deepest:
            targets[:] = k_loss - 1
            scale = np.full(n, 1.0 / n)
        else:
            scale = np.zeros(n)
            if n_pairs:
                scale[pred_idx] = 1.0 / n_pairs
        if n_pairs:
            targets[pred_idx] = gt_classes[gt_idx, HEAD_NAMES.index(head)]
        rows = np.nonzero(scale > 0)[0]
        p_t = p[rows, targets[rows]]
        val, dval = _focal(p_t, gamma)
        cls_terms[CLS_TERM[head]] = float((val * scale[rows]).sum())
        dp_t[rows] = dval * scale[rows]
        dl = np.zeros((n, k_loss))
        pt_full = np.zeros(n)
        pt_full[rows] = p_t
        coef = dp_t * pt_full
        dl[rows] = -coef[rows, None] * p[rows]
        dl[rows, targets[rows]] += coef[rows]
        dlogits[head] = dl * cfg.cls_weight

    dboxes01 = np.zeros_like(boxes01)
    if n_pairs:
        pb = boxes01[pred_idx]
        gb = gt_boxes[gt_idx]
        diff = pb - gb
        l1 = float(np.abs(diff).sum() / n_pairs)
        np.add.at(dboxes01, pred_idx, cfg.l1_weight * np.sign(diff) / n_pairs)
        gv, gd = giou_pair_grad(pb, gb)
        giou_term = float((1.0 - gv).sum() / n_pairs)
        np.add.at(dboxes01, pred_idx, -cfg.giou_weight * gd / n_pairs)
    else:
        l1 = 0.0
        giou_term = 0.0
    total = (
        cfg.cls_weight * (cls_terms["cls_q"] + cls_terms["cls_e"] + cls_terms["cls_d"])
        + cfg.l1_weight * l1
        + cfg.giou_weight * giou_term
    )
    breakdown = LossBreakdown(
        cls_q=cls_terms["cls_q"], cls_e=cls_terms["cls_e"], cls_d=cls_terms["cls_d"],
        l1=l1, giou=giou_term, total=total, matched_pairs=n_pairs,
    )
    return breakdown, dlogits, dboxes01


def _oracle_loss_gradients(params, grids, z, t, gt_boxes, gt_classes, level, cfg):
    """Per-image forward, match, loss and backward; (loss, grads, breakdown)."""
    check_shapes(params, cfg)
    grads = zero_grads(cfg)
    b = len(z)
    totals = np.zeros(6)
    n_matched = 0
    caches = [
        forward_net(params, forward_features(cfg, grids[i], z[i], t[i]), z[i])
        for i in range(b)
    ]
    for cache, gt, cls in zip(caches, gt_boxes, gt_classes, strict=True):
        boxes01 = signal_decode(cache.z0_pred, cfg.scale)
        probs = loss_probs_for_mask(cache.logits, level)
        pairs = _match_one(probs, boxes01, gt, cls, level, cfg)
        bd, dlogits, dboxes01 = _image_loss(probs, boxes01, gt, cls, pairs, level, cfg)
        if not np.isfinite(bd.total):
            bad = [
                name
                for name, v in zip(
                    ("cls_q", "cls_e", "cls_d", "l1", "giou"),
                    (bd.cls_q, bd.cls_e, bd.cls_d, bd.l1, bd.giou),
                )
                if not np.isfinite(v)
            ]
            raise FloatingPointError(f"non-finite loss terms: {bad}")
        totals += np.array([bd.cls_q, bd.cls_e, bd.cls_d, bd.l1, bd.giou, bd.total])
        n_matched += len(pairs)
        dz0_pred = dboxes01 * decode_grad_mask(cache.z0_pred, cfg.scale) / b
        full_dlogits = {}
        for head, dl in dlogits.items():
            full = np.zeros_like(cache.logits[head])
            full[:, : dl.shape[1]] = dl / b
            full_dlogits[head] = full
        backward_net(params, cache, dz0_pred, full_dlogits, grads)
    totals /= b
    breakdown = LossBreakdown(*totals, matched_pairs=n_matched)
    return breakdown.total, grads, breakdown


def _match_one(probs, boxes01, gt_boxes, gt_classes, level, cfg):
    """One image's pairs, from ``match_arrays`` on a one-image stack."""
    one = {head: p[None] for head, p in probs.items()}
    return match_arrays(one, boxes01[None], [gt_boxes], [gt_classes], level, cfg)[0]


# ---------------------------------------------------------------------------
# Batches: one proposal count, with an image without ground truth, one whose
# every proposal is matched, and rows spliced by manipulate_boxes (clean
# copies of ground truth, so matching meets exact cost ties).


def _triple(rng, level):
    return class_row(
        int(rng.integers(4)),
        int(rng.integers(8)) if "enumeration" in level.heads else -1,
        int(rng.integers(4)) if "diagnosis" in level.heads else -1,
    )


def _batch(rng, level, n=6, counts=(2, 0, 6, 4, 1)):
    """``loss_gradients``' batch arguments (grids, z, t, gt_boxes,
    gt_classes) for images of ``n`` proposals with ``counts`` ground-truth
    boxes."""
    grids, z, t, gt_boxes, gt_classes = [], [], [], [], []
    for m in counts:
        gt = np.column_stack(
            [rng.uniform(0.2, 0.8, (m, 2)), rng.uniform(0.05, 0.3, (m, 2))]
        )
        noisy = rng.standard_normal((n, 4))
        if m:
            inferred = inferred_boxes(
                [(*gt[j], s) for j, s in ((0, 0.9), (m - 1, 0.7), (0, 0.3))]
            )
            noisy = manipulate_boxes(noisy, inferred, 0.5, scale=CFG.scale)
        grids.append(rng.normal(size=(CFG.grid, CFG.grid, CFG.channels)))
        z.append(noisy)
        t.append(float(rng.integers(1, SCHED.T + 1)))
        gt_boxes.append(gt)
        gt_classes.append(class_rows(_triple(rng, level) for _ in range(m)))
    return np.stack(grids), np.stack(z), np.array(t), gt_boxes, gt_classes


def _params(rng):
    params = init_params(CFG, rng, head_scale=0.5)
    for name in params:
        if name.endswith(".b"):
            params[name] = params[name] + rng.normal(0, 0.1, params[name].shape)
    return params


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------


@LEVELS
@pytest.mark.parametrize("seed", range(4))
def test_loss_gradients_equal_per_image_oracle(level, seed):
    rng = np.random.default_rng([seed, 41])
    params = _params(rng)
    batch = _batch(rng, level)
    loss, grads, bd = loss_gradients(params, *batch, level, CFG)
    want_loss, want_grads, want_bd = _oracle_loss_gradients(params, *batch, level, CFG)
    assert loss == want_loss
    assert bd == want_bd
    assert bd.matched_pairs == sum(len(gt) for gt in batch[3])
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert _same_bytes(grads[name], want_grads[name]), name


@LEVELS
def test_loss_rows_equal_per_image_oracle(level):
    rng = np.random.default_rng(42)
    n = 8
    probs, boxes, gts, classes, pairs = [], [], [], [], []
    for m in (3, 0, 8, 1):
        p = {}
        for head in level.heads:
            k = HEAD_CLASS_COUNTS[head] + (head == level.deepest_head)
            p[head] = softmax(rng.normal(size=(n, k)))
        b01 = np.column_stack([rng.uniform(0, 1, (n, 2)), rng.uniform(0.01, 0.5, (n, 2))])
        gt = np.column_stack([rng.uniform(0, 1, (m, 2)), rng.uniform(0.01, 0.5, (m, 2))])
        cls = class_rows(_triple(rng, level) for _ in range(m))
        probs.append(p)
        boxes.append(b01)
        gts.append(gt)
        classes.append(cls)
        pairs.append(_match_one(p, b01, gt, cls, level, ModelConfig()))
    bd, dlogits, dboxes = loss_forward_backward(
        {h: np.stack([p[h] for p in probs]) for h in level.heads},
        np.stack(boxes), pairs, gts, classes, level, ModelConfig(),
    )
    totals = np.zeros(6)
    for i in range(len(boxes)):
        want_bd, want_dl, want_db = _image_loss(
            probs[i], boxes[i], gts[i], classes[i], pairs[i], level, ModelConfig()
        )
        totals += np.array([want_bd.cls_q, want_bd.cls_e, want_bd.cls_d,
                            want_bd.l1, want_bd.giou, want_bd.total])
        assert dlogits.keys() == want_dl.keys()
        for head in dlogits:
            assert _same_bytes(dlogits[head][i], want_dl[head]), (i, head)
        assert _same_bytes(dboxes[i], want_db), i
    totals /= len(boxes)
    assert bd == LossBreakdown(*totals, matched_pairs=12)


def _malformed(grids, z, t, gt_boxes, gt_classes):
    flat = z.reshape(-1, 4)  # the images' rows stacked, as unequal counts would be
    yield "flat rows", (grids, flat, t, gt_boxes, gt_classes)
    yield "no box axis", (grids, z[..., :3], t, gt_boxes, gt_classes)
    yield "one grid", (grids[0], z, t, gt_boxes, gt_classes)
    yield "grids short", (grids[:-1], z, t, gt_boxes, gt_classes)
    yield "t short", (grids, z, t[:-1], gt_boxes, gt_classes)
    yield "t per row", (grids, z, np.repeat(t, z.shape[1]).reshape(z.shape[:2]),
                        gt_boxes, gt_classes)
    yield "gt_boxes short", (grids, z, t, gt_boxes[:-1], gt_classes)
    yield "gt_classes long", (grids, z, t, gt_boxes, gt_classes + gt_classes[:1])


def test_malformed_batch_is_refused():
    rng = np.random.default_rng(47)
    level = HierarchyLevel.FULL
    params, batch = _params(rng), _batch(rng, level)
    for case, args in _malformed(*batch):
        with pytest.raises(ValueError, match="^a batch is") as err:
            loss_gradients(params, *args, level, CFG)
        grids, z, t, gt_boxes, gt_classes = args
        for part in (f"grids {np.shape(grids)}", f"z {np.shape(z)}", f"t {np.shape(t)}",
                     f"{len(gt_boxes)} gt_boxes", f"{len(gt_classes)} gt_classes"):
            assert part in str(err.value), case
    # Images of unequal proposal counts make no (B, N, 4) stack.
    ragged = [z_i[: 6 - i] for i, z_i in enumerate(batch[1])]
    with pytest.raises(ValueError):
        loss_gradients(params, batch[0], ragged, *batch[2:], level, CFG)


@LEVELS
def test_non_finite_loss_names_the_terms(level):
    rng = np.random.default_rng(43)
    params = _params(rng)
    params[f"head_{level.deepest_head}.b"][0] = np.nan
    # No ground truth: the assignment is skipped and the loss sees the NaN.
    batch = _batch(rng, level, n=5, counts=(0, 0))
    with pytest.raises(FloatingPointError) as want:
        _oracle_loss_gradients(params, *batch, level, CFG)
    with pytest.raises(FloatingPointError) as got:
        loss_gradients(params, *batch, level, CFG)
    assert str(got.value) == str(want.value)
    assert CLS_TERM[level.deepest_head] in str(got.value)


def _samples(level, n=3, seed0=700):
    out = []
    for i in range(n):
        img, layout = generate_layout(seed0 + i)
        gt_boxes, gt_classes = project_level(layout, level)
        out.append(
            TrainSample(
                image_id=f"s{i}", image=img, grid_feats=encode_image(img, CFG.grid),
                gt_boxes=gt_boxes, gt_classes=gt_classes, width=256, height=256,
            )
        )
    return out


@pytest.mark.parametrize(("level", "augment"), [
    pytest.param(level, augment, id=level.name + "-augment" * augment)
    for augment in (False, True) for level in HierarchyLevel
])
def test_train_stage_with_oracle_is_byte_equal(level, augment, monkeypatch, tmp_path):
    # With augment, the step's grids are the stacked grids of the crops.
    samples = _samples(level)
    manip = level is not HierarchyLevel.QUADRANT_ONLY
    cfg = StageConfig(level=level, iterations=6, batch_size=3, lr=1e-2,
                      n_proposals=40, seed=3, augment=augment, log_every=1)

    def run(out_dir):
        cache = None
        if manip:
            cache = InferredBoxCache(0.5, {
                s.image_id: inferred_boxes([(*row, 0.8) for row in s.gt_boxes[:5]])
                for s in samples
            })
        params, metrics = train_stage(cfg, samples, CFG, SCHED, cache=cache,
                                      out_dir=out_dir)
        records = [json.loads(line) for line in (out_dir / "metrics.jsonl").open()]
        for rec in metrics + records:
            rec.pop("wall_time")
        return params, metrics, records

    params, metrics, records = run(tmp_path / "batched")
    monkeypatch.setattr(train_mod, "loss_gradients", _oracle_loss_gradients)
    want_params, want_metrics, want_records = run(tmp_path / "oracle")
    assert params.keys() == want_params.keys()
    for name in params:
        assert _same_bytes(params[name], want_params[name]), name
    assert metrics == want_metrics and records == want_records
    assert all(rec["matched_pairs"] > 0 for rec in records)


# ---------------------------------------------------------------------------
# The step worker runs the second half of the forward pass and the output
# layers' and first layer's gradients.  Its shares must finish before a step
# returns, and what goes wrong there must reach the caller.


class Injected(Exception):
    pass


def _on_worker():
    return threading.current_thread().name.startswith("dentdet-step")


def _on_worker_only(fn, before=None):
    """``fn``, with ``before()`` run first whenever the worker calls it."""

    def wrapped(*args, **kwargs):
        if before is not None and _on_worker():
            before()
        return fn(*args, **kwargs)

    return wrapped


def _raise():
    raise Injected("worker share failed")


@pytest.mark.parametrize("share", ["forward_net", "_output_layer_grads", "_first_layer_grads"])
def test_worker_exception_reaches_the_caller(share, monkeypatch):
    rng = np.random.default_rng(44)
    level = HierarchyLevel.FULL
    params, batch = _params(rng), _batch(rng, level)
    monkeypatch.setattr(model_mod, share, _on_worker_only(getattr(model_mod, share), _raise))
    with pytest.raises(Injected, match="^worker share failed$"):
        loss_gradients(params, *batch, level, CFG)
    monkeypatch.undo()
    # The worker is free again, and the next step is whole.
    loss, grads, _ = loss_gradients(params, *batch, level, CFG)
    want_loss, want_grads, _ = _oracle_loss_gradients(params, *batch, level, CFG)
    assert loss == want_loss
    for name in grads:
        assert _same_bytes(grads[name], want_grads[name]), name


def test_in_parallel_waits_for_the_worker_and_raises_its_error():
    done = []

    def slow():
        time.sleep(0.05)
        done.append(threading.current_thread().name)
        return "there"

    assert blas.in_parallel(lambda: "here", slow) == ("here", "there")
    with pytest.raises(RuntimeError, match="here failed"):
        blas.in_parallel(lambda: _fail(RuntimeError("here failed")), slow)
    assert len(done) == 2  # the second call waited although here() raised
    assert all(name.startswith("dentdet-step") for name in done)
    with pytest.raises(KeyError, match="there failed"):
        blas.in_parallel(lambda: None, lambda: _fail(KeyError("there failed")))


def _fail(error):
    raise error


class _Held:
    pass


def test_worker_keeps_nothing_of_a_finished_share():
    # A share and its result hold the caller's buffers; the worker must not
    # keep them alive while it waits for the next share.
    share, result = _Held(), _Held()
    refs = weakref.ref(share), weakref.ref(result)
    there = functools.partial(lambda held, out: out, share, result)
    _, got = blas.in_parallel(lambda: None, there)
    assert got is result
    del share, result, there, got
    # The worker may still be leaving its frame when the caller resumes.
    deadline = time.monotonic() + 5
    while any(ref() is not None for ref in refs) and time.monotonic() < deadline:
        time.sleep(0.001)
    assert [ref() for ref in refs] == [None, None]


def _slow_worker(monkeypatch):
    """Delay each of the worker's forward and backward calls; returns the
    list they append to once done."""
    finished = []
    for name in ("forward_net", "_output_layer_grads", "_first_layer_grads"):
        real = getattr(model_mod, name)

        def wrapped(*args, _real=real, _name=name, **kwargs):
            if not _on_worker():
                return _real(*args, **kwargs)
            time.sleep(0.005)
            out = _real(*args, **kwargs)
            finished.append(_name)
            return out

        monkeypatch.setattr(model_mod, name, wrapped)
    return finished


def test_step_returns_after_the_worker_finished(monkeypatch):
    rng = np.random.default_rng(45)
    level = HierarchyLevel.QUADRANT_ENUM
    params, batch = _params(rng), _batch(rng, level)
    want_loss, want_grads, _ = _oracle_loss_gradients(params, *batch, level, CFG)
    finished = _slow_worker(monkeypatch)
    loss, grads, _ = loss_gradients(params, *batch, level, CFG)
    # The worker forwards images 3 and 4 (the second half, one block) and
    # adds the output and first layers' gradients of all five.
    n_images = len(batch[1])
    assert finished.count("forward_net") == 1
    assert finished.count("_output_layer_grads") == n_images
    assert finished.count("_first_layer_grads") == n_images
    assert loss == want_loss
    for name in grads:
        assert _same_bytes(grads[name], want_grads[name]), name


def test_train_stage_returns_after_the_worker_finished(monkeypatch):
    level = HierarchyLevel.QUADRANT_ONLY
    cfg = StageConfig(level=level, iterations=3, batch_size=4, n_proposals=16, seed=2)
    want, _ = train_stage(cfg, _samples(level), CFG, SCHED)
    finished = _slow_worker(monkeypatch)
    params, _ = train_stage(cfg, _samples(level), CFG, SCHED)
    assert finished.count("forward_net") == cfg.iterations
    assert finished.count("_output_layer_grads") == cfg.iterations * cfg.batch_size
    assert finished.count("_first_layer_grads") == cfg.iterations * cfg.batch_size
    for name in params:
        assert _same_bytes(params[name], want[name]), name


def test_second_identical_train_stage_is_byte_equal():
    level = HierarchyLevel.FULL
    samples = _samples(level)
    cache = InferredBoxCache(0.5, {
        s.image_id: inferred_boxes([(*row, 0.8) for row in s.gt_boxes[:4]])
        for s in samples
    })
    cfg = StageConfig(level=level, iterations=5, batch_size=4, lr=1e-2,
                      n_proposals=40, seed=8, augment=True, log_every=1)
    runs = [train_stage(cfg, samples, CFG, SCHED, cache=cache) for _ in range(2)]
    (first, first_metrics), (second, second_metrics) = runs
    for name in first:
        assert _same_bytes(first[name], second[name]), name
    for rec in first_metrics + second_metrics:
        rec.pop("wall_time")
    assert first_metrics == second_metrics


def test_concurrent_steps_share_the_worker_without_lost_updates():
    # Three callers, more than the two cores, each run steps that put their
    # shares on the one worker, with the interpreter switching threads
    # every microsecond.  A gradient add lost or crossed between steps
    # would break the byte equality.
    level = HierarchyLevel.QUADRANT_ENUM
    cases = []
    for seed in range(3):
        rng = np.random.default_rng([seed, 46])
        params, batch = _params(rng), _batch(rng, level)
        cases.append((params, batch, _oracle_loss_gradients(params, *batch, level, CFG)))
    errors = []

    def caller(params, batch, want):
        try:
            for _ in range(4):
                loss, grads, bd = loss_gradients(params, *batch, level, CFG)
                assert (loss, bd) == (want[0], want[2])
                for name in grads:
                    assert _same_bytes(grads[name], want[1][name]), name
        except BaseException as e:  # reported by the test thread below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=case) for case in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_worker():
    blas.in_parallel(lambda: None, lambda: None)  # this process's worker runs
    pid = os.fork()
    if pid == 0:  # the child has no copy of the worker thread
        signal.alarm(20)  # a child left waiting on it dies
        ok = False
        try:
            ok = blas.in_parallel(lambda: 1, lambda: 2) == (1, 2)
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


_WORKER_START = """
import tempfile
import threading
from pathlib import Path

import numpy as np

from dentdet.data import AnnotationSet, generate_dataset, level_tag, load_annotations
from dentdet.diffusion import Schedule
from dentdet.labels import HierarchyLevel
from dentdet.model import ModelConfig, init_params, loss_gradients
from dentdet.train import infer, prepare_samples


def step_threads():
    return [t for t in threading.enumerate() if t.name.startswith("dentdet-step")]


assert threading.active_count() == 1, "import started a thread"
cfg, level = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8), HierarchyLevel.QUADRANT_ONLY
schedule = Schedule.cosine(1000, 0.008)
rng = np.random.default_rng(0)
params = init_params(cfg, rng)
grids = [rng.random((8, 8, cfg.channels)) for _ in range(2)]
infer(params, grids[:1], level, cfg, schedule, n_proposals=8, steps=2)
assert threading.active_count() == 1, "a one-image pass started a thread"
with tempfile.TemporaryDirectory() as tmp:
    generate_dataset(Path(tmp), 2, 0)
    aset = load_annotations(Path(tmp) / f"annotations_{level_tag(level)}.json", level)
    one = AnnotationSet(level, aset.images[:1], aset.boxes[:1], aset.classes[:1])
    prepare_samples(one, Path(tmp) / "images", cfg)
    assert threading.active_count() == 1, "encoding one image started a thread"
    samples = prepare_samples(aset, Path(tmp) / "images", cfg)
worker = step_threads()
assert len(worker) == 1 and threading.active_count() == 2, threading.enumerate()
grids = [s.grid_feats for s in samples]
infer(params, grids, level, cfg, schedule, n_proposals=8, steps=2)
assert step_threads() == worker and threading.active_count() == 2, threading.enumerate()
gt = np.array([[0.5, 0.5, 0.2, 0.2]])
loss_gradients(params, np.stack(grids), rng.standard_normal((2, 8, 4)), np.full(2, 10.0),
               [gt, gt], [np.zeros((1, 3), int)] * 2, level, cfg)
assert step_threads() == worker and threading.active_count() == 2, threading.enumerate()
print("ok")
"""


def test_worker_starts_on_the_first_split_pass():
    # No thread at import, for a one-image pass or for encoding one image.
    # Encoding two images starts the step worker, and a later sampler pass
    # and training step reuse it.
    src = Path(model_mod.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WORKER_START], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
