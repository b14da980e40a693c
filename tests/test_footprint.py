"""Footprint: inference and scoring run without scipy or numpy.ma, training
loads its assignment solver on the first step, a sampler call of one pass
or of several and a training step each hold about one head input's worth of
memory beyond what they must keep, and encoding more images holds no more
scratch."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dentdet
from dentdet import matching, train
from dentdet.config import ENV_CONFIG
from dentdet.data import (
    AnnotationSet,
    generate_dataset,
    generate_layout,
    level_tag,
    load_annotations,
    project_level,
)
from dentdet.diffusion import Schedule, forward_noise, pad_gt_boxes
from dentdet.labels import HierarchyLevel
from dentdet.model import ModelConfig, encode_image, init_params, loss_gradients
from dentdet.train import StageConfig, infer, prepare_samples, train_stage

SRC = Path(dentdet.__file__).resolve().parent.parent

# Refuses every scipy module, then runs the inference-side commands and
# checks that neither they nor data generation imported numpy.ma.
_WITHOUT_SCIPY = textwrap.dedent("""
    import importlib.abc
    import sys


    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"{name} is refused", name=name)
            return None


    sys.meta_path.insert(0, RefuseScipy())

    from pathlib import Path

    import numpy as np

    import dentdet
    from dentdet import cli
    from dentdet.data import generate_dataset
    from dentdet.model import ModelConfig, init_params, save_checkpoint

    work = Path(sys.argv[1])
    generate_dataset(work / "data", 2, 0)
    ckpt = work / "init.bin"
    save_checkpoint(ckpt, init_params(ModelConfig(), np.random.default_rng(0)))
    image = work / "data" / "images" / "q_00000.pgm"
    infer = ["infer", "--checkpoint", str(ckpt), "--level", "a",
             "--images", str(image), "--out", str(work / "dets.json")]
    evaluate = ["eval", "--data", str(work / "data"), "--level", "c",
                "--checkpoint", str(ckpt), "--out", str(work / "report.txt")]
    assert cli.main(infer) == 0
    assert cli.main(evaluate) == 0
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded
    # numpy.ma costs about half a megabyte; nothing on these paths needs it.
    assert "numpy.ma" not in sys.modules, "numpy.ma imported"
    print("ok")
""")


def test_inference_and_scoring_run_without_scipy(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "dets.json").is_file() and (tmp_path / "report.txt").is_file()


def test_training_solves_with_scipy(tmp_path):
    scipy_optimize = pytest.importorskip("scipy.optimize")  # training needs scipy
    level = HierarchyLevel.QUADRANT_ONLY
    model_cfg = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
    generate_dataset(tmp_path, 2, 0)
    aset = load_annotations(tmp_path / f"annotations_{level_tag(level)}.json", level)
    samples = prepare_samples(aset, tmp_path / "images", model_cfg)
    stage = StageConfig(level=level, iterations=1, batch_size=2, n_proposals=8)
    _, metrics = train_stage(stage, samples, model_cfg, Schedule.cosine(1000, 0.008))
    assert metrics[-1]["matched_pairs"] > 0

    rng = np.random.default_rng(0)
    for shape in [(1, 1), (5, 3), (3, 5), (8, 8), (40, 12)]:
        cost = rng.normal(size=shape)
        rows, cols = matching.linear_sum_assignment(cost)
        want_rows, want_cols = scipy_optimize.linear_sum_assignment(cost)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


def _infer_peak(n_images: int) -> float:
    """Traced peak of a default-size, 4-step infer call over ``n_images``
    images of 64 proposals, in head inputs of one 512-row pass."""
    cfg, n_proposals = ModelConfig(), 64
    assert 8 * n_proposals == train.INFER_PASS_ROWS == 512
    rng = np.random.default_rng(0)
    params = init_params(cfg, rng, head_scale=0.3)
    grids = [rng.normal(size=(cfg.grid, cfg.grid, cfg.channels)) for _ in range(n_images)]
    args = (params, grids, HierarchyLevel.FULL, cfg, Schedule.cosine(1000, 0.008))
    kw = dict(n_proposals=n_proposals, steps=4, eta=1.0, renewal_threshold=0.3)
    infer(*args, **kw)  # first-call imports, caches and the worker stay out of the trace
    tracemalloc.start()
    try:
        infer(*args, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (train.INFER_PASS_ROWS * (cfg.hidden + cfg.feat_dim) * 8)


def test_sampler_pass_peaks_below_two_and_a_half_head_inputs():
    # One infer call that is exactly one pass: 8 images of 64 proposals.
    # Each decode holds one (rows, H + D) head input; a decode output that
    # kept it alive into the next decode would hold two.
    peak = _infer_peak(8)
    assert peak < 2.5, f"{peak:.2f} head inputs"


def test_sampler_passes_peak_below_two_and_a_half_head_inputs():
    # Four passes of 8 images, each split 4 + 4 over two threads that
    # decode into one head input: about 2.4.  Two whole passes at once,
    # each with its own head input, peak at about 3.8.
    peak = _infer_peak(32)
    assert peak < 2.5, f"{peak:.2f} head inputs"


def test_training_step_peaks_at_most_two_and_a_half_head_inputs():
    # One default-size step: level b, 8 images of 64 proposals, about 30
    # ground-truth boxes each.  The head input, the first hidden layer and
    # the gradients it must keep come to about 1.6 head inputs; the two
    # halves' RoI pooling at once, or the matching costs of the whole batch
    # built at once, would each add most of the rest.
    pytest.importorskip("scipy.optimize")  # matching needs the solver
    cfg, level, n_images, n_proposals = ModelConfig(), HierarchyLevel.QUADRANT_ENUM, 8, 64
    schedule = Schedule.cosine(1000, 0.008)
    rng = np.random.default_rng(0)
    grids = np.empty((n_images, cfg.grid, cfg.grid, cfg.channels))
    z, t = np.empty((n_images, n_proposals, 4)), np.empty(n_images)
    gt_boxes, gt_classes = [], []
    for i in range(n_images):
        img, layout = generate_layout(100 + i)
        boxes, classes = project_level(layout, level)
        t[i] = step = int(rng.integers(1, schedule.T + 1))
        z0 = pad_gt_boxes(boxes, n_proposals, rng, cfg.scale)
        z[i] = forward_noise(z0, step, schedule, rng)
        encode_image(img, cfg.grid, out=grids[i])
        gt_boxes.append(boxes)
        gt_classes.append(classes)
    assert 25 <= np.mean([len(boxes) for boxes in gt_boxes]) <= 35
    params = init_params(cfg, rng, head_scale=0.3)
    batch = grids, z, t, gt_boxes, gt_classes
    loss_gradients(params, *batch, level, cfg)  # the solver's import and the worker stay out
    tracemalloc.start()
    try:
        loss_gradients(params, *batch, level, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    head_input = n_images * n_proposals * (cfg.hidden + cfg.feat_dim) * 8
    assert peak <= 2.5 * head_input, f"{peak / head_input:.2f} head inputs"


def test_encoding_more_images_holds_no_more_scratch(tmp_path):
    # prepare_samples encodes every image in one call on two threads, each
    # freeing an image's two image-sized arrays before its next image, so
    # the scratch held at once is two images' worth however many there are.
    # Beyond the images it reads and keeps, 16 images may peak above 4 only
    # by the 12 extra output grids, plus 256 KiB: each thread's 256x256 band
    # counts and band comparison, which may or may not peak together, and
    # the samples' small objects.  Scratch kept per image would add 1 MiB
    # per image.
    level, cfg = HierarchyLevel.QUADRANT_ONLY, ModelConfig()
    generate_dataset(tmp_path, 16, 0)
    aset = load_annotations(tmp_path / f"annotations_{level_tag(level)}.json", level)

    def peak_beyond_images(n_images: int) -> int:
        first = AnnotationSet(
            level, aset.images[:n_images], aset.boxes[:n_images], aset.classes[:n_images]
        )
        tracemalloc.start()
        try:
            samples = prepare_samples(first, tmp_path / "images", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(s.image.nbytes for s in samples)

    peak_beyond_images(2)  # the step worker starts outside the trace
    grid_bytes = cfg.grid * cfg.grid * cfg.channels * 8
    growth = peak_beyond_images(16) - peak_beyond_images(4)
    assert growth <= 12 * grid_bytes + 256 * 1024, f"{growth} bytes"
