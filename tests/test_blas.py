"""One-thread OpenBLAS around training and inference."""

import numpy as np
import pytest

import dentdet.train as train_mod
from dentdet import blas
from dentdet.data import generate_layout, project_level
from dentdet.diffusion import Schedule
from dentdet.labels import HierarchyLevel
from dentdet.model import ModelConfig, encode_image, init_params
from dentdet.train import StageConfig, TrainSample, infer, train_stage

needs_openblas = pytest.mark.skipif(
    blas._openblas() is None, reason="numpy is not linked to OpenBLAS"
)


def _threads() -> int:
    return blas._openblas()[0]()


@needs_openblas
def test_one_thread_sets_and_restores_the_count():
    get, set_ = blas._openblas()
    before = get()
    set_(2)
    try:
        with blas.one_thread():
            assert _threads() == 1
            with blas.one_thread():
                assert _threads() == 1
            assert _threads() == 1
        assert _threads() == 2
        with pytest.raises(RuntimeError), blas.one_thread():
            raise RuntimeError
        assert _threads() == 2
    finally:
        set_(before)


@needs_openblas
@pytest.mark.parametrize(
    "m, k, n",
    [(64, 304, 128), (256, 16, 288), (304, 64, 128), (512, 304, 128)],
)
def test_products_are_bit_identical_on_one_thread(m, k, n):
    """Decoder, RoI-pooling, weight-gradient and stacked-batch shapes."""
    rng = np.random.default_rng([m, k, n])
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    get, set_ = blas._openblas()
    before = get()
    set_(2)
    try:
        threaded = a @ b
        with blas.one_thread():
            single = a @ b
    finally:
        set_(before)
    assert np.array_equal(threaded, single)


@needs_openblas
def test_training_and_inference_run_on_one_thread(monkeypatch):
    cfg = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
    schedule = Schedule.cosine(1000, 0.008)
    level = HierarchyLevel.QUADRANT_ONLY
    samples = []
    for i in range(2):
        img, layout = generate_layout(700 + i)
        gt_boxes, gt_classes = project_level(layout, level)
        samples.append(TrainSample(
            image_id=f"s{i}", image=img, grid_feats=encode_image(img, cfg.grid),
            gt_boxes=gt_boxes, gt_classes=gt_classes, width=256, height=256,
        ))
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append(_threads())
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(train_mod, "decode", spy(train_mod.decode))
    monkeypatch.setattr(train_mod, "loss_gradients", spy(train_mod.loss_gradients))
    get, set_ = blas._openblas()
    before = get()
    set_(2)
    try:
        train_stage(
            StageConfig(level=level, iterations=2, batch_size=2, lr=1e-3,
                        n_proposals=8, seed=0),
            samples, cfg, schedule,
        )
        infer(init_params(cfg, np.random.default_rng(0)),
              [s.grid_feats for s in samples], level, cfg, schedule,
              n_proposals=8, steps=2)
        assert _threads() == 2
    finally:
        set_(before)
    assert seen and set(seen) == {1}
