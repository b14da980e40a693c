"""Training loop, inference, cache building, and the staged pipeline."""

import json
import threading

import numpy as np
import pytest

import dentdet.train as train_mod
from dentdet.data import generate_layout, project_level
from dentdet.diffusion import (
    Schedule,
    box_renewal,
    ddim_step,
    signal_decode,
    signal_encode,
)
from dentdet.geometry import Box, iou
from dentdet.labels import HEAD_CLASS_COUNTS, HEAD_NAMES, HierarchyLevel
from dentdet.manipulate import (
    InferredBoxCache,
    inference_proposals,
    inferred_boxes,
    manipulate_boxes,
)
from dentdet.model import (
    ModelConfig,
    decode,
    encode_image,
    forward_features,
    forward_net,
    init_params,
    level_params,
    load_checkpoint,
    loss_probs_for_mask,
    softmax,
)
from dentdet.train import (
    ARMS,
    Detection,
    PipelinePlan,
    StageConfig,
    TrainingDiverged,
    TrainSample,
    build_cache,
    infer,
    make_plan,
    run_pipeline,
    train_stage,
)

CFG = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
SCHED = Schedule.cosine(1000, 0.008)


def _samples(level, n=4, seed0=500):
    out = []
    for i in range(n):
        img, layout = generate_layout(seed0 + i)
        gt_boxes, gt_classes = project_level(layout, level)
        out.append(
            TrainSample(
                image_id=f"s{i}",
                image=img,
                grid_feats=encode_image(img, CFG.grid),
                gt_boxes=gt_boxes,
                gt_classes=gt_classes,
                width=256,
                height=256,
            )
        )
    return out


def _stage(level, **kw):
    base = dict(level=level, iterations=5, batch_size=2, lr=1e-3,
                n_proposals=8, seed=0)
    base.update(kw)
    return StageConfig(**base)


# ---------------------------------------------------------------------------
# Object-based sampler: one Detection per decoded proposal and a scalar-IoU
# NMS, kept as the reference the array sampler must equal exactly.


def _oracle_decode(params, grid_feats, z, t, level, cfg):
    x = forward_features(cfg, grid_feats, z, t)
    cache = forward_net(params, x, z)
    display = {
        head: softmax(cache.logits[head][:, : HEAD_CLASS_COUNTS[head]])
        for head in HEAD_NAMES
    }
    loss_probs = loss_probs_for_mask(cache.logits, level)
    boxes01 = signal_decode(cache.z0_pred, cfg.scale)
    dets = [
        Detection(
            box=Box.from_array(boxes01[i]),
            probs_q=display["quadrant"][i],
            probs_e=display["enumeration"][i],
            probs_d=display["diagnosis"][i],
            score=float(display[level.deepest_head][i].max()),
            objectness=1.0 - float(loss_probs[level.deepest_head][i][-1]),
        )
        for i in range(z.shape[0])
    ]
    return dets, cache.z0_pred


def _nms_detections(dets, thr):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    for i in order:
        if all(iou(dets[i].box, dets[j].box) <= thr for j in kept):
            kept.append(i)
    return [dets[i] for i in kept]


def _oracle_infer(params, grids, level, model_cfg, schedule, n_proposals=64,
                  steps=1, seed=0, eta=0.0, renewal_threshold=0.5, nms_iou=0.5):
    times = np.unique(
        np.round(np.linspace(schedule.T, 0, steps + 1)).astype(int)
    )[::-1]
    results = []
    for img_i, grid in enumerate(grids):
        rng = np.random.default_rng([seed, img_i])
        z = inference_proposals(n_proposals, rng)
        for si in range(len(times) - 1):
            t, t_next = int(times[si]), int(times[si + 1])
            dets, z0_pred = _oracle_decode(params, grid, z, float(t), level, model_cfg)
            z = ddim_step(z, z0_pred, t, t_next, schedule, eta, rng)
            if si < len(times) - 2:
                scores = np.array([d.score for d in dets])
                z = box_renewal(scores, z, renewal_threshold, rng)
        dets, z0_pred = _oracle_decode(params, grid, z, 0.0, level, model_cfg)
        dets, _ = _oracle_decode(params, grid, z0_pred, 0.0, level, model_cfg)
        results.append(_nms_detections(dets, nms_iou))
    return results


def _thread():
    """Which of the sampler's two threads is running."""
    on_worker = threading.current_thread().name.startswith("dentdet-step")
    return "worker" if on_worker else "caller"


def _same_detection(a, b):
    return (
        a.box == b.box
        and a.score == b.score
        and all(np.array_equal(x, y) for x, y in (
            (a.probs_q, b.probs_q), (a.probs_e, b.probs_e), (a.probs_d, b.probs_d)))
        and a.objectness == b.objectness
    )


class TestPlan:
    def test_arm_flags(self):
        # arm -> (transfer, manipulation); the arms share one stage plan.
        assert ARMS == {
            "full": (True, True),
            "no_transfer": (False, True),
            "no_manipulation": (True, False),
            "neither": (False, False),
        }
        for arm in ARMS:
            plan = make_plan(arm)
            assert plan.arm == arm
            assert plan.stages == make_plan("full").stages

    def test_stage_order(self):
        plan = make_plan("full")
        assert [s.level for s in plan.stages] == [
            HierarchyLevel.QUADRANT_ONLY,
            HierarchyLevel.QUADRANT_ENUM,
            HierarchyLevel.FULL,
        ]

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError):
            make_plan("extra")
        with pytest.raises(ValueError):
            PipelinePlan(arm="bogus", stages=make_plan("full").stages)

    def test_wrong_stage_order_rejected(self):
        stages = make_plan("full").stages
        with pytest.raises(ValueError):
            PipelinePlan(arm="full", stages=(stages[1], stages[0], stages[2]))


class TestStageConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _stage(HierarchyLevel.QUADRANT_ONLY, iterations=-1)
        with pytest.raises(ValueError):
            _stage(HierarchyLevel.QUADRANT_ONLY, lr=0.0)


class TestTrainStage:
    def test_zero_iterations_returns_init(self):
        samples = _samples(HierarchyLevel.QUADRANT_ONLY)
        init = init_params(CFG, np.random.default_rng(1))
        params, metrics = train_stage(
            _stage(HierarchyLevel.QUADRANT_ONLY, iterations=0),
            samples, CFG, SCHED, init=init,
        )
        assert metrics == []
        for name in init:
            np.testing.assert_array_equal(params[name], init[name])
        assert params[name] is not init[name]  # defensive copy

    def test_deterministic_rerun(self):
        samples = _samples(HierarchyLevel.QUADRANT_ONLY)
        cfg = _stage(HierarchyLevel.QUADRANT_ONLY, iterations=8)
        p1, m1 = train_stage(cfg, samples, CFG, SCHED)
        p2, m2 = train_stage(cfg, samples, CFG, SCHED)
        for name in p1:
            assert p1[name].tobytes() == p2[name].tobytes()
        strip = lambda ms: [
            {k: v for k, v in m.items() if k != "wall_time"} for m in ms
        ]
        assert strip(m1) == strip(m2)

    def test_smoke_convergence(self):
        # Loss halves within 500 iterations on a small fixed set.
        samples = _samples(HierarchyLevel.QUADRANT_ONLY, n=8)
        cfg = _stage(
            HierarchyLevel.QUADRANT_ONLY, iterations=500, batch_size=4,
            lr=2e-3, n_proposals=16, log_every=25,
        )
        _, metrics = train_stage(cfg, samples, CFG, SCHED)
        first = metrics[0]["loss"]
        best = min(m["loss"] for m in metrics)
        assert best <= 0.5 * first

    def test_frozen_heads_unchanged(self):
        samples = _samples(HierarchyLevel.QUADRANT_ONLY)
        init = init_params(CFG, np.random.default_rng(2))
        params, _ = train_stage(
            _stage(HierarchyLevel.QUADRANT_ONLY, iterations=6),
            samples, CFG, SCHED, init=init,
        )
        for head in ("enumeration", "diagnosis"):
            np.testing.assert_array_equal(
                params[f"head_{head}.w"], init[f"head_{head}.w"]
            )
        assert not np.array_equal(params["trunk.w1"], init["trunk.w1"])

    @pytest.mark.parametrize("level", list(HierarchyLevel), ids=lambda lv: lv.name)
    def test_init_order_does_not_matter(self, level):
        # A checkpoint reads back with its names sorted; training from it
        # must equal training from the same store in layout order, gradient
        # norm and clip factor included.
        samples = _samples(level)
        init = init_params(CFG, np.random.default_rng(12), head_scale=0.3)
        assert list(init) == level_params()
        cfg = _stage(level, iterations=12, log_every=1)
        strip = lambda ms: [
            {k: v for k, v in m.items() if k != "wall_time"} for m in ms
        ]
        runs = [
            train_stage(cfg, samples, CFG, SCHED, init=store)
            for store in (init, dict(sorted(init.items())))
        ]
        (p1, m1), (p2, m2) = runs
        assert any(m["clip_factor"] < 1.0 for m in m1)
        assert p1.keys() == p2.keys()
        for name in p1:
            assert p1[name].tobytes() == p2[name].tobytes(), name
        assert strip(m1) == strip(m2)

    def test_splices_above_the_cache_gate(self, monkeypatch):
        # A box scoring 0.4 from a cache gated at 0.3 is spliced: the cache's
        # gate is the only one, with no second filter at 0.5.
        samples = _samples(HierarchyLevel.QUADRANT_ENUM, n=2)
        box = Box(0.3, 0.4, 0.1, 0.2)
        cache = InferredBoxCache(0.3, {
            s.image_id: inferred_boxes([(*box.to_array(), 0.4)]) for s in samples
        })
        calls = []

        def recorder(noisy, inferred, score_threshold, scale):
            out = manipulate_boxes(noisy, inferred, score_threshold, scale=scale)
            calls.append((score_threshold, out))
            return out

        monkeypatch.setattr(train_mod, "manipulate_boxes", recorder)
        train_stage(
            _stage(HierarchyLevel.QUADRANT_ENUM, iterations=2),
            samples, CFG, SCHED, cache=cache,
        )
        assert len(calls) == 4 and cache.reads == 4
        want = signal_encode(box.to_array(), CFG.scale)
        for threshold, out in calls:
            assert threshold == 0.3
            np.testing.assert_array_equal(out[-1], want)

    def test_divergence_aborts_with_context(self, tmp_path, monkeypatch):
        import dentdet.train as train_mod

        calls = {"n": 0}
        real = train_mod.loss_gradients

        def wrecked(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise FloatingPointError("non-finite loss terms: ['l1']")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "loss_gradients", wrecked)
        samples = _samples(HierarchyLevel.QUADRANT_ONLY)
        cfg = _stage(HierarchyLevel.QUADRANT_ONLY, iterations=10,
                     checkpoint_every=1)
        with pytest.raises(TrainingDiverged) as exc:
            train_stage(cfg, samples, CFG, SCHED, out_dir=tmp_path)
        assert exc.value.iteration == 2
        assert exc.value.last_checkpoint is not None
        assert (tmp_path / exc.value.last_checkpoint.split("/")[-1]).exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow as it diverges
    def test_diverging_run_raises_and_keeps_its_last_checkpoint(self, tmp_path):
        # Non-finite decoder outputs reach the assignment costs before the
        # loss sees them; that too must end the stage as a divergence.
        level = HierarchyLevel.QUADRANT_ENUM
        cfg = _stage(level, iterations=30, lr=1e12, grad_clip=1e300, checkpoint_every=1)
        with pytest.raises(TrainingDiverged) as exc:
            train_stage(cfg, _samples(level), CFG, SCHED, out_dir=tmp_path)
        assert isinstance(exc.value.__cause__, FloatingPointError)
        assert "non-finite assignment costs" in str(exc.value.__cause__)
        it = exc.value.iteration
        assert 0 < it < cfg.iterations
        assert exc.value.last_checkpoint == str(tmp_path / f"ckpt_{it:06d}.bin")
        params, _ = load_checkpoint(exc.value.last_checkpoint)  # refuses non-finite
        assert params.keys() == init_params(CFG, np.random.default_rng(0)).keys()

    def test_metrics_and_checkpoints_on_disk(self, tmp_path):
        samples = _samples(HierarchyLevel.QUADRANT_ONLY)
        cfg = _stage(HierarchyLevel.QUADRANT_ONLY, iterations=4,
                     log_every=2, checkpoint_every=2)
        _, metrics = train_stage(cfg, samples, CFG, SCHED, out_dir=tmp_path)
        records = [
            json.loads(line) for line in (tmp_path / "metrics.jsonl").open()
        ]
        assert records == metrics
        assert [r["iteration"] for r in records] == [0, 2, 3]
        for r in records:
            assert np.isfinite(r["grad_norm"]) and r["grad_norm"] > 0
            assert r["clip_factor"] == min(1.0, cfg.grad_clip / r["grad_norm"])
            # Two images of four quadrant boxes each, all matched.
            assert r["matched_pairs"] == 8
        assert (tmp_path / "ckpt_000002.bin").exists()
        assert (tmp_path / "ckpt_000004.bin").exists()

    def test_rejects_samples_without_the_level_labels(self):
        samples = _samples(HierarchyLevel.QUADRANT_ONLY, n=2)
        with pytest.raises(ValueError, match="sample s0 lacks labels of level"):
            train_stage(_stage(HierarchyLevel.QUADRANT_ENUM), samples, CFG, SCHED)


class TestInfer:
    def test_steps_validation(self):
        params = init_params(CFG, np.random.default_rng(3))
        with pytest.raises(ValueError):
            infer(params, [], HierarchyLevel.QUADRANT_ONLY, CFG, SCHED, steps=0)

    def test_deterministic_and_order_independent(self):
        params = init_params(CFG, np.random.default_rng(4))
        grids = [s.grid_feats for s in _samples(HierarchyLevel.QUADRANT_ONLY, n=3)]
        a = infer(params, grids, HierarchyLevel.QUADRANT_ONLY, CFG, SCHED, seed=7)
        b = infer(params, grids, HierarchyLevel.QUADRANT_ONLY, CFG, SCHED, seed=7)
        assert len(a) == 3
        for da, db in zip(a, b):
            assert len(da) == len(db)
            for x, y in zip(da, db):
                assert x.box == y.box and x.score == y.score
        # Processing a prefix gives the same per-image results.
        c = infer(params, grids[:1], HierarchyLevel.QUADRANT_ONLY, CFG, SCHED, seed=7)
        assert [d.box for d in c[0]] == [d.box for d in a[0]]

    @pytest.mark.parametrize("steps", [1, 2, 4])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_equals_object_oracle(self, steps, eta, monkeypatch):
        level = HierarchyLevel.QUADRANT_ENUM
        # Large head weights spread the scores, so renewal replaces some rows
        # and NMS suppresses some boxes.
        params = init_params(CFG, np.random.default_rng(8), head_scale=0.3)
        grids = [s.grid_feats for s in _samples(level, n=3)]
        kw = dict(n_proposals=24, steps=steps, seed=3, eta=eta,
                  renewal_threshold=0.45, nms_iou=0.4)
        renewed, offered = [], []

        def counting(scores, z, score_threshold, rng):
            renewed.append(int((np.asarray(scores) < score_threshold).sum()))
            offered.append(np.size(scores))
            return box_renewal(scores, z, score_threshold, rng)

        monkeypatch.setattr(train_mod, "box_renewal", counting)
        got = infer(params, grids, level, CFG, SCHED, **kw)
        want = _oracle_infer(params, grids, level, CFG, SCHED, **kw)
        if steps > 1:
            assert 0 < sum(renewed) < sum(offered)
        assert all(len(d) < kw["n_proposals"] for d in want)
        assert [len(d) for d in got] == [len(d) for d in want]
        for dg, dw in zip(got, want):
            assert all(_same_detection(a, b) for a, b in zip(dg, dw))

    @pytest.mark.parametrize("pass_rows", [128, 512])
    @pytest.mark.parametrize("n_images, n_proposals", [
        (9, 64),  # several images a pass, the last pass shorter
        (2, None),  # more rows than a pass holds: one image a pass
        (0, 64),
    ], ids=["short-last-pass", "over-full", "no-images"])
    def test_passes_equal_object_oracle(self, pass_rows, n_images, n_proposals,
                                        monkeypatch):
        n_proposals = n_proposals or pass_rows + 72
        per_pass = max(1, pass_rows // n_proposals)
        sizes = [min(per_pass, n_images - i) for i in range(0, n_images, per_pass)]
        level = HierarchyLevel.FULL
        params = init_params(CFG, np.random.default_rng(9), head_scale=0.3)
        grids = [s.grid_feats for s in _samples(level, n=n_images)]
        kw = dict(n_proposals=n_proposals, steps=2, seed=4, eta=1.0,
                  renewal_threshold=0.3, nms_iou=0.5)
        decoded = {"caller": [], "worker": []}

        def counting(params, grid_feats, z, *args, out=None, **kwargs):
            decoded[_thread()].append((len(z), out))
            return decode(params, grid_feats, z, *args, out=out, **kwargs)

        monkeypatch.setattr(train_mod, "INFER_PASS_ROWS", pass_rows)
        monkeypatch.setattr(train_mod, "decode", counting)
        got = infer(params, grids, level, CFG, SCHED, **kw)
        want = _oracle_infer(params, grids, level, CFG, SCHED, **kw)
        # Each pass decodes each half of its images in two sampler steps and
        # two readouts: the first half on the calling thread, the second on
        # the step worker.  A pass of one image has no second half.
        firsts = [(size + 1) // 2 for size in sizes]
        seconds = [size // 2 for size in sizes if size > 1]
        assert [n for n, _ in decoded["caller"]] == [n for n in firsts for _ in range(4)]
        assert [n for n, _ in decoded["worker"]] == [n for n in seconds for _ in range(4)]
        # Each half decodes into its own images' rows of one head input.
        buffers = decoded["caller"] + decoded["worker"]
        assert len({id(out.base) for _, out in buffers}) <= 1
        width = CFG.hidden + CFG.feat_dim
        assert all(out.shape == (n, n_proposals, width) for n, out in buffers)
        assert not any(np.shares_memory(a, b)
                       for _, a in decoded["caller"] for _, b in decoded["worker"])
        assert len(got) == len(want) == n_images
        assert [len(d) for d in got] == [len(d) for d in want]
        for dg, dw in zip(got, want):
            assert all(_same_detection(a, b) for a, b in zip(dg, dw))

    def test_records_are_the_detections(self):
        level = HierarchyLevel.FULL
        params = init_params(CFG, np.random.default_rng(8), head_scale=0.3)
        grids = [s.grid_feats for s in _samples(level, n=3)]
        kw = dict(n_proposals=24, steps=2, seed=3, nms_iou=0.4)
        detected = train_mod._sample(params, grids, level, CFG, SCHED, **kw)
        objects = infer(params, grids, level, CFG, SCHED, **kw)
        assert [len(r) for r in detected] == [len(d) for d in objects]
        for records, dets in zip(detected, objects):
            assert records.dtype == train_mod.DETECTED
            for r, d in zip(records, dets):
                assert Box.from_array(r.box) == d.box
                assert (r.score, r.objectness) == (d.score, d.objectness)
                for head, field in zip(HEAD_NAMES, ("probs_q", "probs_e", "probs_d")):
                    assert np.array_equal(r[f"probs_{head}"], getattr(d, field))

    @pytest.mark.parametrize("steps", [1, 3])
    def test_only_renewing_steps_decode_a_head(self, steps, monkeypatch):
        level = HierarchyLevel.FULL
        params = init_params(CFG, np.random.default_rng(9))
        grids = [s.grid_feats for s in _samples(level, n=2)]
        heads = {"caller": [], "worker": []}

        def recording(*args, **kwargs):
            heads[_thread()].append(kwargs.get("heads", HEAD_NAMES))
            return decode(*args, **kwargs)

        monkeypatch.setattr(train_mod, "decode", recording)
        infer(params, grids, level, CFG, SCHED, n_proposals=8, steps=steps)
        # One pass of two images: each half decodes in the same order.
        renewing = [(level.deepest_head,)] * (steps - 1)
        assert heads["caller"] == heads["worker"] == [*renewing, (), (), HEAD_NAMES]

    def test_untrained_scores_uniform(self):
        params = init_params(CFG, np.random.default_rng(5), head_scale=0.0)
        grids = [s.grid_feats for s in _samples(HierarchyLevel.QUADRANT_ONLY, n=1)]
        dets = infer(params, grids, HierarchyLevel.QUADRANT_ONLY, CFG, SCHED)
        for d in dets[0]:
            assert d.score == pytest.approx(0.25)


class TestBuildCache:
    def test_threshold_filters(self):
        params = init_params(CFG, np.random.default_rng(6))
        samples = _samples(HierarchyLevel.QUADRANT_ENUM, n=2)
        hi = build_cache(params, samples, HierarchyLevel.QUADRANT_ONLY,
                         CFG, SCHED, n_proposals=8, threshold=0.99)
        lo = build_cache(params, samples, HierarchyLevel.QUADRANT_ONLY,
                         CFG, SCHED, n_proposals=8, threshold=0.01)
        assert len(hi) <= len(lo)
        assert (hi.threshold, lo.threshold) == (0.99, 0.01)
        for entries in lo.entries.values():
            for e in entries:
                assert e.score > 0.01

    @pytest.mark.parametrize("threshold", [0.26, 0.3, 0.99])
    def test_equals_detection_list_oracle(self, threshold):
        # The cache as built from Detection objects, one row tuple a box.
        level = HierarchyLevel.QUADRANT_ONLY
        params = init_params(CFG, np.random.default_rng(8), head_scale=0.3)
        samples = _samples(HierarchyLevel.QUADRANT_ENUM, n=3)
        kw = dict(n_proposals=16, steps=2, seed=5, eta=1.0)
        got = build_cache(params, samples, level, CFG, SCHED, threshold=threshold, **kw)
        want = InferredBoxCache(threshold)
        grids = [s.grid_feats for s in samples]
        for s, dets in zip(samples, infer(params, grids, level, CFG, SCHED, **kw)):
            rows = [(d.box.cx, d.box.cy, d.box.w, d.box.h, d.score)
                    for d in dets if d.score > threshold]
            if rows:
                want.entries[s.image_id] = inferred_boxes(rows)
        assert threshold == 0.99 or len(want)
        assert got.entries.keys() == want.entries.keys()
        for key, records in want.entries.items():
            assert got.entries[key].tobytes() == records.tobytes()


class TestPipeline:
    def _datasets(self, n=2):
        return {level: _samples(level, n=n, seed0=700) for level in HierarchyLevel}

    def test_missing_dataset_rejected(self):
        plan = make_plan("neither", _stage(HierarchyLevel.QUADRANT_ONLY))
        datasets = self._datasets()
        del datasets[HierarchyLevel.FULL]
        with pytest.raises(ValueError, match="missing dataset"):
            run_pipeline(plan, datasets, CFG, SCHED)

    def test_neither_arm_no_sharing_no_cache(self):
        plan = make_plan("neither", _stage(HierarchyLevel.QUADRANT_ONLY, iterations=3))
        result = run_pipeline(plan, self._datasets(), CFG, SCHED)
        assert [sr.cache_reads for sr in result.stages] == [0, 0, 0]
        assert all(sr.copied_tensors == [] for sr in result.stages)
        # No tensor may be bit-identical across independently seeded stages.
        for a in range(3):
            for b in range(a + 1, 3):
                pa, pb = result.stages[a].params, result.stages[b].params
                for name in pa:
                    assert pa[name].tobytes() != pb[name].tobytes(), name

    def test_full_arm_transfers_and_reads_cache(self, tmp_path):
        plan = make_plan("full", _stage(HierarchyLevel.QUADRANT_ONLY, iterations=3))
        result = run_pipeline(plan, self._datasets(), CFG, SCHED, out_dir=tmp_path)
        assert result.stages[0].copied_tensors == []
        assert len(result.stages[1].copied_tensors) == 8  # trunk+box+quadrant head
        assert len(result.stages[2].copied_tensors) == 10
        assert result.stages[1].cache_reads > 0
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "stage_1_quadrant_enumeration" / "inferred_boxes.tsv").exists()

    def test_saved_caches_read_back(self, tmp_path, monkeypatch):
        built, real = [], train_mod.build_cache

        def recorder(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(train_mod, "build_cache", recorder)
        plan = make_plan("full", _stage(HierarchyLevel.QUADRANT_ONLY, iterations=3))
        run_pipeline(plan, self._datasets(), CFG, SCHED, out_dir=tmp_path,
                     cache_threshold=0.05)
        paths = sorted(tmp_path.glob("stage_*/inferred_boxes.tsv"))
        assert len(paths) == len(built) == 2
        for path, cache in zip(paths, built):
            assert path.stat().st_size > 0 and len(cache) > 0
            back = InferredBoxCache.load(path, 0.05)
            assert back.entries.keys() == cache.entries.keys()
            for image_id, records in cache.entries.items():
                got = back.get(image_id)
                assert np.array_equal(got.box, records.box)
                assert np.array_equal(got.score, records.score)
                # perfbench's splice hook iterates records and reads these.
                for e in got:
                    assert e.box.shape == (4,) and e.score > 0.05

    def test_all_arms_distinct_reports(self):
        texts = set()
        for arm, (transfer, manipulation) in ARMS.items():
            plan = make_plan(arm, _stage(HierarchyLevel.QUADRANT_ONLY, iterations=3))
            result = run_pipeline(plan, self._datasets(), CFG, SCHED)
            texts.add(result.report_text())
            # Stages after the first inherit and splice as the arm's row says.
            for sr in result.stages[1:]:
                assert bool(sr.copied_tensors) is transfer
                assert (sr.cache_reads > 0) is manipulation
        assert len(texts) == len(ARMS)
