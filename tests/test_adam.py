"""train.Adam against the allocating per-tensor update it replaced.

``_OracleAdam`` is the update ``train_stage`` ran before Adam wrote into
scratch buffers.  The in-place update must equal it bit for bit, step by
step, through the warm-up and with the gradient clip active.
"""

import numpy as np
import pytest

import dentdet.train as train_mod
from dentdet.data import generate_layout, project_level
from dentdet.diffusion import Schedule
from dentdet.labels import HierarchyLevel
from dentdet.model import ModelConfig, encode_image, init_params, level_params, param_shapes
from dentdet.train import Adam, StageConfig, TrainSample, _global_norm, train_stage
from helpers import truth_arrays

CFG = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
SCHED = Schedule.cosine(1000, 0.008)


class _OracleAdam:
    """The allocating update: fresh arrays for every intermediate."""

    def __init__(self, params, names, weight_decay):
        self.names, self.weight_decay, self.steps = list(names), weight_decay, 0
        self.m = {n: np.zeros_like(params[n]) for n in self.names}
        self.v = {n: np.zeros_like(params[n]) for n in self.names}

    def step(self, params, grads, lr, clip):
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.steps += 1
        step, m, v = self.steps, self.m, self.v
        for n in self.names:
            g = grads[n] * clip
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            mhat = m[n] / (1 - b1**step)
            vhat = v[n] / (1 - b2**step)
            params[n] -= lr * (mhat / (np.sqrt(vhat) + eps) + self.weight_decay * params[n])


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.5])
def test_in_place_update_equals_allocating_oracle(weight_decay):
    rng = np.random.default_rng(60)
    params = init_params(CFG, rng, head_scale=0.3)
    want = {n: p.copy() for n, p in params.items()}
    names = level_params(HierarchyLevel.QUADRANT_ENUM)
    adam, oracle = Adam(params, names, weight_decay), _OracleAdam(want, names, weight_decay)
    lr0, warmup, grad_clip = 3e-2, 8, 1.0
    clipped = 0
    for it in range(30):
        # Gradient norms from about 0.005 to 50: some steps clip, some do not.
        scale = 10.0 ** rng.uniform(-4, 0)
        grads = {n: rng.normal(0, scale, s) for n, s in param_shapes(CFG).items()}
        lr = lr0 * (it + 1) / warmup if it < warmup else lr0
        norm = _global_norm(grads, names)
        clip = min(1.0, grad_clip / norm) if norm > grad_clip else 1.0
        clipped += clip < 1.0
        oracle.step(want, {n: g.copy() for n, g in grads.items()}, lr, clip)
        adam.step(params, grads, lr, clip)
        for n in params:  # tensors outside ``names`` stay as they were
            assert _same_bytes(params[n], want[n]), (it, n)
        for n in names:
            assert _same_bytes(adam.m[n], oracle.m[n]), (it, n)
            assert _same_bytes(adam.v[n], oracle.v[n]), (it, n)
    assert 0 < clipped < 30


def test_step_allocates_no_tensor():
    rng = np.random.default_rng(61)
    params = init_params(CFG, rng)
    names = level_params(None)
    adam = Adam(params, names, 1e-4)
    grads = {n: rng.normal(size=params[n].shape) for n in names}
    before = {n: params[n] for n in names}
    moments = {n: (adam.m[n], adam.v[n]) for n in names}
    adam.step(params, grads, 1e-3, 0.5)
    for n in names:
        assert params[n] is before[n]
        assert (adam.m[n], adam.v[n]) == moments[n]  # the same arrays


def _samples(level, n=3):
    out = []
    for i in range(n):
        img, layout = generate_layout(720 + i)
        gt_boxes, gt_classes = truth_arrays(project_level(layout, level))
        out.append(TrainSample(
            image_id=f"s{i}", image=img, grid_feats=encode_image(img, CFG.grid),
            gt_boxes=gt_boxes, gt_classes=gt_classes, width=256, height=256,
        ))
    return out


def test_train_stage_equals_allocating_oracle(monkeypatch):
    level = HierarchyLevel.QUADRANT_ENUM
    samples = _samples(level)
    cfg = StageConfig(level=level, iterations=24, batch_size=3, lr=2e-2, n_proposals=40,
                      seed=5, warmup=6, grad_clip=0.5, weight_decay=1e-3, log_every=1)

    def run():
        params, metrics = train_stage(cfg, samples, CFG, SCHED)
        for rec in metrics:
            rec.pop("wall_time")
        return params, metrics

    params, metrics = run()
    monkeypatch.setattr(train_mod, "Adam", _OracleAdam)
    want_params, want_metrics = run()
    for n in params:
        assert _same_bytes(params[n], want_params[n]), n
    assert metrics == want_metrics
    assert min(rec["clip_factor"] for rec in metrics) < 1.0  # the clip was active
