"""The sampler's split passes: each pass's images run in two halves, one on
the calling thread and one on the step worker, and the records must be the
bytes the one-thread sampler gives."""

import threading

import numpy as np
import pytest

import dentdet.train as train_mod
from dentdet import blas
from dentdet.diffusion import Schedule, box_renewal, ddim_step, signal_decode
from dentdet.geometry import nms
from dentdet.labels import HEAD_NAMES, HierarchyLevel
from dentdet.manipulate import inference_proposals
from dentdet.model import ModelConfig, decode, init_params, softmax
from dentdet.train import DETECTED, INFER_PASS_ROWS, _sample

SCHED = Schedule.cosine(1000, 0.008)
SMALL = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
LEVEL = HierarchyLevel.FULL


@blas.one_thread()
def _serial_sample(params, grids, level, model_cfg, schedule, n_proposals=64, steps=1,
                   seed=0, eta=0.0, renewal_threshold=0.5, nms_iou=0.5):
    """The sampler as it ran before the split: every pass's images in one
    lockstep chain on the calling thread."""
    times = list(dict.fromkeys(
        np.round(np.linspace(schedule.T, 0, steps + 1)).astype(int).tolist()
    ))
    per_pass = max(1, INFER_PASS_ROWS // n_proposals)
    results = []
    for first in range(0, len(grids), per_pass):
        images = range(first, min(first + per_pass, len(grids)))
        grid = np.stack([grids[i] for i in images])
        rngs = [np.random.default_rng([seed, i]) for i in images]
        z = np.stack([inference_proposals(n_proposals, rng) for rng in rngs])
        for si, (t, t_next) in enumerate(zip(times, times[1:])):
            renew = si < len(times) - 2
            z0_pred, _, scores, _ = decode(
                params, grid, z, float(t), level, model_cfg,
                heads=(level.deepest_head,) if renew else (),
            )
            for b, rng in enumerate(rngs):
                z[b] = ddim_step(z[b], z0_pred[b], t, t_next, schedule, eta, rng)
                if renew:
                    z[b] = box_renewal(scores[b], z[b], renewal_threshold, rng)
        z0_pred = decode(params, grid, z, 0.0, level, model_cfg, heads=())[0]
        z0_pred, probs, scores, logits = decode(params, grid, z0_pred, 0.0, level, model_cfg)
        boxes01 = signal_decode(z0_pred, model_cfg.scale)
        kept = nms(boxes01, scores, nms_iou)
        out = np.recarray(len(kept[0]), dtype=DETECTED)
        out.box = boxes01[kept]
        for head in HEAD_NAMES:
            out[f"probs_{head}"] = probs[head][kept]
        out.score = scores[kept]
        out.objectness = 1.0 - softmax(logits[level.deepest_head][kept])[:, -1]
        results += np.split(out, np.cumsum(np.bincount(kept[0], minlength=len(grid)))[:-1])
    return results


def _inputs(cfg, n_images, seed=0):
    rng = np.random.default_rng(seed)
    # Large head weights spread the scores, so renewal replaces some rows
    # and NMS suppresses some boxes.
    params = init_params(cfg, rng, head_scale=0.3)
    grids = [rng.normal(size=(cfg.grid, cfg.grid, cfg.channels)) for _ in range(n_images)]
    return params, grids


def _same_records(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype == DETECTED, i
        assert len(a) == len(b) and a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("n_proposals", [64, 300], ids=["split", "one-image-passes"])
@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("steps", [1, 3, 4])
@pytest.mark.parametrize("n_images", [0, 1, 2, 7, 9, 13, 32])
def test_split_passes_equal_the_serial_sampler(n_images, steps, eta, n_proposals):
    params, grids = _inputs(SMALL, n_images, seed=n_images)
    kw = dict(n_proposals=n_proposals, steps=steps, seed=5, eta=eta,
              renewal_threshold=0.3, nms_iou=0.5)
    want = _serial_sample(params, grids, LEVEL, SMALL, SCHED, **kw)
    _same_records(_sample(params, grids, LEVEL, SMALL, SCHED, **kw), want)
    assert sum(len(r) for r in want) > 0 or n_images == 0


@pytest.mark.parametrize("n_images, steps", [(13, 3), (32, 4)])
def test_split_passes_equal_the_serial_sampler_at_the_default_size(n_images, steps):
    cfg = ModelConfig()
    params, grids = _inputs(cfg, n_images, seed=1)
    kw = dict(steps=steps, seed=2, eta=1.0, renewal_threshold=0.3)
    want = _serial_sample(params, grids, LEVEL, cfg, SCHED, **kw)
    _same_records(_sample(params, grids, LEVEL, cfg, SCHED, **kw), want)


class Injected(Exception):
    pass


def test_worker_half_exception_reaches_the_caller(monkeypatch):
    params, grids = _inputs(SMALL, 7)
    kw = dict(steps=3, seed=1, eta=1.0, renewal_threshold=0.3)
    calls = {"MainThread": 0, "worker": 0}

    def failing(*args, **kwargs):
        if threading.current_thread().name.startswith("dentdet-step"):
            calls["worker"] += 1
            raise Injected("worker half failed")
        calls["MainThread"] += 1
        return ddim_step(*args, **kwargs)

    monkeypatch.setattr(train_mod, "ddim_step", failing)
    with pytest.raises(Injected, match="^worker half failed$"):
        _sample(params, grids, LEVEL, SMALL, SCHED, **kw)
    # The caller's half ran to its end: 4 images, 3 steps each.
    assert calls == {"MainThread": 4 * 3, "worker": 1}
    monkeypatch.undo()
    # The worker is free again, and the next call is whole.
    want = _serial_sample(params, grids, LEVEL, SMALL, SCHED, **kw)
    _same_records(_sample(params, grids, LEVEL, SMALL, SCHED, **kw), want)
