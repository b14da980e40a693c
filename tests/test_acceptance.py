"""Release acceptance checks: statistical, oracle, and end-to-end gates.

Each test verifies one externally stated guarantee of the package at its
stated tolerance, including wall-clock budgets, so regressions in accuracy
or speed fail loudly.
"""

import itertools
import time

import numpy as np
import pytest

from dentdet.data import generate_dataset, generate_layout, load_annotations, level_tag, project_level, split_manifest
from dentdet.diffusion import (
    Schedule,
    ddim_step,
    forward_noise,
    signal_encode,
)
from dentdet.geometry import Box, iou
from dentdet.labels import HierarchyLevel
from dentdet.manipulate import inferred_boxes, manipulate_boxes
from dentdet.matching import solve_assignment
from dentdet.model import (
    ModelConfig,
    encode_image,
    init_params,
    load_checkpoint,
    loss_gradients,
    save_checkpoint,
)
from dentdet.train import (
    ARMS,
    StageConfig,
    TrainSample,
    evaluate_params,
    make_plan,
    prepare_samples,
    run_pipeline,
)
from helpers import EvalInstance, grad_batch, score

SCHED = Schedule.cosine(1000, 0.008)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


# ---------------------------------------------------------------------------
# 1. Forward-noising statistics


def test_forward_noise_statistics():
    z0 = signal_encode(np.array([0.3, 0.6, 0.2, 0.1]), 2.0)
    n = 100_000
    rng = np.random.default_rng(123)
    with Timer() as timer:
        for t in (100, 500, 900):
            draws = np.empty((n, 4))
            batch = np.broadcast_to(z0, (1000, 4))
            for i in range(n // 1000):
                draws[1000 * i : 1000 * (i + 1)] = forward_noise(
                    batch, t, SCHED, rng
                )
            ab = SCHED.alpha_bar[t]
            sigma = np.sqrt(1.0 - ab)
            mean_tol = 3.0 * sigma / np.sqrt(n)
            np.testing.assert_allclose(
                draws.mean(axis=0), np.sqrt(ab) * z0, atol=mean_tol
            )
            var = draws.var(axis=0, ddof=1)
            np.testing.assert_allclose(var, 1.0 - ab, rtol=0.02)
    assert timer.elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Reverse-process oracle recovery


def test_ddim_oracle_chain():
    rng = np.random.default_rng(7)
    z0 = rng.normal(size=(8, 4))
    with Timer() as timer:
        # Full reverse chain with the true clean signal as the predictor.
        z = rng.standard_normal((8, 4))
        for t in range(SCHED.T, 0, -1):
            z = ddim_step(z, z0, t, t - 1, SCHED, eta=0.0)
        np.testing.assert_allclose(z, z0, atol=1e-9)
        # A single jump to t_next = 0 reproduces the prediction exactly.
        zt = forward_noise(z0, 700, SCHED, rng)
        out = ddim_step(zt, z0, 700, 0, SCHED, eta=0.0)
        np.testing.assert_array_equal(out, z0)
    assert timer.elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. Assignment optimality


def test_assignment_matches_exhaustive_search():
    rng = np.random.default_rng(42)
    with Timer() as timer:
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(6, n) + 1))
            cost = rng.uniform(0.0, 10.0, size=(n, m))
            pairs = solve_assignment(cost)
            got = sum(cost[i, j] for i, j in sorted(pairs, key=lambda p: p[1]))
            perms = np.array(
                list(itertools.permutations(range(n), m)), dtype=int
            )
            best = float(cost[perms, np.arange(m)].sum(axis=1).min())
            assert got == best
    assert timer.elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. Analytic gradients vs central finite differences

GRAD_CFG = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)

PARAM_GROUPS = {
    "trunk": ("trunk.w1", "trunk.b1", "trunk.w2", "trunk.b2"),
    "box": ("box.w", "box.b"),
    "head_quadrant": ("head_quadrant.w", "head_quadrant.b"),
    "head_enumeration": ("head_enumeration.w", "head_enumeration.b"),
    "head_diagnosis": ("head_diagnosis.w", "head_diagnosis.b"),
}


def test_gradients_match_finite_differences():
    eps = 1e-5
    with Timer() as timer:
        for level in HierarchyLevel:
            rng = np.random.default_rng(10)
            params = init_params(GRAD_CFG, rng)
            # Jitter biases so no ReLU pre-activation sits exactly at its
            # kink, where two-sided differences match neither side's slope.
            for name in params:
                if name.endswith(".b") or ".b" in name:
                    params[name] = params[name] + rng.normal(
                        0, 0.01, params[name].shape
                    )
            batch = grad_batch(rng, level, GRAD_CFG, 2)
            _, grads, _ = loss_gradients(params, *batch, level, GRAD_CFG)

            frozen_heads = [
                h for h in ("enumeration", "diagnosis")
                if h not in level.heads
            ]
            for head in frozen_heads:
                assert np.all(grads[f"head_{head}.w"] == 0.0)
                assert np.all(grads[f"head_{head}.b"] == 0.0)

            worst = 0.0
            for group, names in PARAM_GROUPS.items():
                sizes = [params[n].size for n in names]
                total = sum(sizes)
                assert total >= 50, group
                picks = rng.choice(total, size=50, replace=False)
                offsets = np.cumsum([0] + sizes)
                for flat_i in picks:
                    which = int(np.searchsorted(offsets, flat_i, "right")) - 1
                    name = names[which]
                    i = int(flat_i - offsets[which])
                    flat = params[name].reshape(-1)
                    orig = flat[i]
                    flat[i] = orig + eps
                    lp, _, _ = loss_gradients(params, *batch, level, GRAD_CFG)
                    flat[i] = orig - eps
                    lm, _, _ = loss_gradients(params, *batch, level, GRAD_CFG)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * eps)
                    g = grads[name].reshape(-1)[i]
                    # Central differences carry ~eps_machine*|L|/eps ~ 1e-10
                    # of roundoff, so relative error is meaningless for
                    # near-zero gradients; the floor keeps those comparisons
                    # on an absolute scale (errors ~1e-9 still fail).
                    denom = max(abs(fd), abs(g), 1e-5)
                    worst = max(worst, abs(fd - g) / denom)
            assert worst < 1e-4, level
    assert timer.elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. Noisy-box manipulation contract


def test_manipulation_contract():
    rng = np.random.default_rng(99)
    with Timer() as timer:
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            noisy = rng.standard_normal((n, 4))
            inferred = inferred_boxes([
                (*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.1, 0.2, 2),
                 float(rng.uniform()))
                for _ in range(int(rng.integers(0, 16)))
            ])
            out = manipulate_boxes(noisy, inferred, 0.5, scale=2.0)
            assert out.shape == (n, 4)
            confident = [e for e in inferred if e.score > 0.5]
            if len(confident) > n:
                keep = sorted(
                    sorted(
                        enumerate(confident), key=lambda ie: (-ie[1].score, ie[0])
                    )[:n]
                )
                confident = [e for _, e in keep]
            k = len(confident)
            if k:
                want = signal_encode(np.stack([e.box for e in confident]), 2.0)
                np.testing.assert_array_equal(out[n - k :], want)
            np.testing.assert_array_equal(out[: n - k], noisy[: n - k])
            # An impossible gate admits nothing.
            np.testing.assert_array_equal(
                manipulate_boxes(noisy, inferred, 1.0, scale=2.0), noisy
            )
    assert timer.elapsed < 5.0


# ---------------------------------------------------------------------------
# 6. Metric oracle equivalence


def _naive_task_metrics(instances, num_classes, thr, max_dets=100):
    """AP at one IoU threshold per class, written with plain loops."""
    per_class = []
    for cls in range(num_classes):
        all_dets = []
        gts = {}
        for i, inst in enumerate(instances):
            gts[i] = [b for b, c in inst.gts if c == cls]
            mine = sorted(
                [(b, s) for b, c, s in inst.dets if c == cls],
                key=lambda x: -x[1],
            )[:max_dets]
            for rank, (b, s) in enumerate(mine):
                all_dets.append((s, i, rank, b))
        n_gt = sum(len(v) for v in gts.values())
        if n_gt == 0:
            continue
        all_dets.sort(key=lambda r: (-r[0], r[1], r[2]))
        used = {i: set() for i in gts}
        tp, curve = 0, []
        for rank, (s, i, _, b) in enumerate(all_dets, start=1):
            best, best_v = None, thr
            for j, gb in enumerate(gts[i]):
                if j in used[i]:
                    continue
                v = iou(b, gb)
                if v >= best_v and (best is None or v > best_v):
                    best, best_v = j, v
            if best is not None:
                used[i].add(best)
                tp += 1
            curve.append((tp / n_gt, tp / rank))
        ap = 0.0
        for r in np.linspace(0, 1, 101):
            ap += max((p for rec, p in curve if rec >= r), default=0.0)
        per_class.append(ap / 101.0)
    return float(np.mean(per_class)) if per_class else -1.0


def _random_eval_instances(rng):
    out = []
    for _ in range(int(rng.integers(1, 4))):
        gts = [
            (
                Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.1, 0.3, 2)),
                int(rng.integers(4)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        dets = []
        for b, c in gts:
            if rng.uniform() < 0.8:
                arr = b.to_array() + rng.normal(0, 0.03, 4)
                dets.append(
                    (
                        Box(*np.clip(arr, 0.05, 0.95)),
                        c if rng.uniform() < 0.8 else int(rng.integers(4)),
                        float(rng.uniform(0.3, 1.0)),
                    )
                )
        for _ in range(int(rng.integers(0, 3))):
            dets.append(
                (
                    Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.2, 2)),
                    int(rng.integers(4)),
                    float(rng.uniform()),
                )
            )
        out.append(EvalInstance(dets=tuple(dets), gts=tuple(gts), width=256, height=256))
    return out


def test_metric_oracle():
    rng = np.random.default_rng(11)
    with Timer() as timer:
        # Brute-force equivalence on random small instances.
        for _ in range(200):
            instances = _random_eval_instances(rng)
            tm = score(instances, "quadrant")
            assert tm.ap50 == _naive_task_metrics(instances, 4, 0.5)
            assert tm.ap75 == _naive_task_metrics(instances, 4, 0.75)

        # Ground truth copied as detections scores perfectly.
        perfect = []
        for _ in range(4):
            gts = [
                (
                    Box(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.2, 0.4, 2)),
                    int(rng.integers(4)),
                )
                for _ in range(3)
            ]
            perfect.append(
                EvalInstance(
                    dets=tuple((b, c, 1.0) for b, c in gts),
                    gts=tuple(gts),
                    width=256,
                    height=256,
                )
            )
        tm = score(perfect, "quadrant")
        assert tm.ap == 1.0 and tm.ap50 == 1.0 and tm.ar == 1.0

        # Hand-derived case: a disjoint wrong detection outranks the correct
        # one, so precision is 0 at rank 1 and 1/2 at rank 2 where recall
        # reaches 1 -> AP50 is exactly 0.5.
        gt = Box(0.3, 0.3, 0.2, 0.2)
        correct = Box(0.3, 0.35, 0.2, 0.2)  # IoU 0.6 via the 0.05 shift
        wrong = Box(0.8, 0.8, 0.1, 0.1)
        inst = EvalInstance(
            dets=((wrong, 0, 0.95), (correct, 0, 0.9)),
            gts=((gt, 0),),
            width=256,
            height=256,
        )
        assert score([inst], "quadrant").ap50 == 0.5
    assert timer.elapsed < 10.0


# ---------------------------------------------------------------------------
# 7. Synthetic end-to-end training


@pytest.mark.slow
def test_synthetic_end_to_end(tmp_path):
    model_cfg = ModelConfig()
    base = StageConfig(
        level=HierarchyLevel.QUADRANT_ONLY,
        iterations=2000,
        batch_size=8,
        lr=2e-3,
        n_proposals=64,
        seed=0,
        warmup=20,
    )
    with Timer() as timer:
        train_dir = tmp_path / "train"
        eval_dir = tmp_path / "eval"
        generate_dataset(train_dir, 64, 0)
        generate_dataset(eval_dir, 16, 1)
        datasets, eval_datasets = {}, {}
        for level in HierarchyLevel:
            tag = level_tag(level)
            datasets[level] = prepare_samples(
                load_annotations(train_dir / f"annotations_{tag}.json", level),
                train_dir / "images",
                model_cfg,
            )
            eval_datasets[level] = prepare_samples(
                load_annotations(eval_dir / f"annotations_{tag}.json", level),
                eval_dir / "images",
                model_cfg,
            )
        result = run_pipeline(
            make_plan("full", base), datasets, model_cfg, SCHED,
            eval_datasets=eval_datasets,
        )
        assert len(result.stages) == 3

        stage_a = result.stages[0].report
        assert stage_a.tasks["quadrant"].ap50 >= 0.5

        stage_c = result.stages[2].report
        untrained = evaluate_params(
            init_params(model_cfg, np.random.default_rng(0)),
            HierarchyLevel.FULL,
            eval_datasets[HierarchyLevel.FULL],
            model_cfg,
            SCHED,
            n_proposals=64,
            seed=0,
        )
        gain = stage_c.tasks["quadrant"].ap50 - untrained.tasks["quadrant"].ap50
        assert gain >= 0.3
    assert timer.elapsed < 900.0


# ---------------------------------------------------------------------------
# 8. Ablation plumbing

ABL_CFG = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)


def _tiny_datasets():
    datasets = {}
    for level in HierarchyLevel:
        samples = []
        for i in range(2):
            img, layout = generate_layout(900 + i)
            gt_boxes, gt_classes = project_level(layout, level)
            samples.append(
                TrainSample(
                    image_id=f"im{i}",
                    image=img,
                    grid_feats=encode_image(img, ABL_CFG.grid),
                    gt_boxes=gt_boxes,
                    gt_classes=gt_classes,
                    width=256,
                    height=256,
                )
            )
        datasets[level] = samples
    return datasets


def test_ablation_plumbing():
    base = StageConfig(
        level=HierarchyLevel.QUADRANT_ONLY,
        iterations=3,
        batch_size=2,
        lr=1e-3,
        n_proposals=8,
        seed=0,
    )
    datasets = _tiny_datasets()
    reports = {}
    for arm in ARMS:
        result = run_pipeline(make_plan(arm, base), datasets, ABL_CFG, SCHED)
        rerun = run_pipeline(make_plan(arm, base), datasets, ABL_CFG, SCHED)
        assert result.report_text() == rerun.report_text()
        reports[arm] = result.report_text()

        if arm in ("no_manipulation", "neither"):
            assert [sr.cache_reads for sr in result.stages] == [0, 0, 0]
        else:
            assert any(sr.cache_reads > 0 for sr in result.stages[1:])
        if arm == "neither":
            for a in range(3):
                for b in range(a + 1, 3):
                    pa = result.stages[a].params
                    pb = result.stages[b].params
                    for name in pa:
                        assert pa[name].tobytes() != pb[name].tobytes(), name
    assert len(set(reports.values())) == len(ARMS)


# ---------------------------------------------------------------------------
# 9. Format round-trips and the reference split


def test_format_round_trips(tmp_path):
    # Checkpoints: save -> load -> save reproduces the file byte for byte.
    params = init_params(ABL_CFG, np.random.default_rng(21))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, params, {"note": "x"})
    loaded, meta = load_checkpoint(p1)
    save_checkpoint(p2, loaded, meta)
    assert p1.read_bytes() == p2.read_bytes()

    # Annotations: write -> load -> write reproduces the file byte for byte.
    data_dir = tmp_path / "data"
    generate_dataset(data_dir, 2, 13)
    for level in HierarchyLevel:
        src = data_dir / f"annotations_{level_tag(level)}.json"
        aset = load_annotations(src, level)
        from dentdet.data import write_annotations

        dst = tmp_path / f"rt_{level_tag(level)}.json"
        write_annotations(aset, dst)
        assert src.read_bytes() == dst.read_bytes()

    # Reference split proportions on a 1,005-image manifest.
    from dentdet.data import AnnotationSet, ImageInfo

    aset = AnnotationSet(level=HierarchyLevel.FULL)
    for i in range(1005):
        aset.images.append(ImageInfo(f"im{i:04d}", 256, 256, f"im{i:04d}.pgm"))
    train, val, test = split_manifest(
        aset, (705 / 1005, 50 / 1005, 250 / 1005), 0
    )
    assert (len(train), len(val), len(test)) == (705, 50, 250)
    assert len(set(train) | set(val) | set(test)) == 1005
