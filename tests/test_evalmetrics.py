"""Detection metrics against naive reimplementations and hand-computed cases."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dentdet.evalmetrics as evalmetrics
from dentdet.data import generate_layout, project_level
from dentdet.diffusion import Schedule
from dentdet.evalmetrics import (
    AREA_BUCKETS,
    AREA_LARGE,
    AREA_MEDIUM,
    IOU_THRESHOLDS,
    RECALL_POINTS,
    EvalReport,
    TaskMetrics,
    _area_px as _area_px_array,
    _bucket_outside,
    _greedy_match,
    _pad,
    _rows,
    _run_positions,
    build_report,
    detections_to_eval,
    evaluate,
    task_ground_truth,
)
from dentdet.geometry import Box, iou, iou_matrix
from dentdet.labels import HEAD_CLASS_COUNTS, HEAD_NAMES, HierarchyLevel, LabelTriple
from dentdet.model import ModelConfig, encode_image, init_params
from dentdet.train import DETECTED, Detection, _sample, infer
from helpers import EvalInstance, eval_arrays, score, truth_arrays

# ---------------------------------------------------------------------------
# Scalar oracle: the scorer as first written, one (class, IoU threshold,
# area bucket) at a time with the scalar iou.  evaluate must equal it
# exactly, field for field.


def _area_px(box: Box, width: int, height: int) -> float:
    return box.w * width * box.h * height


def _class_pr(
    instances: list[EvalInstance],
    cls: int,
    thr: float,
    max_dets: int,
    area_range: tuple[float, float] | None,
):
    """Greedy matching for one (class, IoU threshold, area bucket).

    Returns (tp flags, fp flags, number of counted gts), or None when the
    bucket holds no ground truth of this class.
    """
    records = []  # (score, image index, det index, box)
    gt_boxes: list[list[Box]] = []
    gt_ignore: list[np.ndarray] = []
    n_gt = 0
    for img_i, inst in enumerate(instances):
        boxes = [b for b, c in inst.gts if c == cls]
        if area_range is None:
            ignore = np.zeros(len(boxes), dtype=bool)
        else:
            areas = np.array(
                [_area_px(b, inst.width, inst.height) for b in boxes]
            )
            ignore = (
                (areas < area_range[0]) | (areas >= area_range[1])
                if len(boxes)
                else np.zeros(0, dtype=bool)
            )
        gt_boxes.append(boxes)
        gt_ignore.append(ignore)
        n_gt += int((~ignore).sum())
        dets = [(b, s) for b, c, s in inst.dets if c == cls]
        dets.sort(key=lambda bs: -bs[1])
        for det_i, (b, s) in enumerate(dets[:max_dets]):
            records.append((s, img_i, det_i, b))
    if n_gt == 0:
        return None
    # Global score order; ties broken by (image, detection index).
    records.sort(key=lambda r: (-r[0], r[1], r[2]))
    taken = [np.zeros(len(bs), dtype=bool) for bs in gt_boxes]
    tp = np.zeros(len(records), dtype=bool)
    fp = np.zeros(len(records), dtype=bool)
    for ri, (s, img_i, det_i, b) in enumerate(records):
        best_j = -1
        best_iou = 0.0
        best_ignored_j = -1
        for j, gb in enumerate(gt_boxes[img_i]):
            if taken[img_i][j]:
                continue
            v = iou(b, gb)
            if v < thr:
                continue
            if not gt_ignore[img_i][j]:
                if best_j < 0 or v > best_iou:
                    best_j, best_iou = j, v
            elif best_ignored_j < 0:
                best_ignored_j = j
        if best_j >= 0:
            taken[img_i][best_j] = True
            tp[ri] = True
        elif best_ignored_j >= 0:
            taken[img_i][best_ignored_j] = True  # ignored match: neither tp nor fp
        else:
            if area_range is not None:
                inst = instances[img_i]
                a = _area_px(b, inst.width, inst.height)
                if a < area_range[0] or a >= area_range[1]:
                    continue  # detection outside the bucket: ignored
            fp[ri] = True
    return tp, fp, n_gt


def _ap_from_flags(tp: np.ndarray, fp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated average precision."""
    counted = tp | fp
    tp_c = np.cumsum(tp[counted])
    fp_c = np.cumsum(fp[counted])
    if len(tp_c) == 0:
        return 0.0
    recall = tp_c / n_gt
    precision = tp_c / (tp_c + fp_c)
    # Monotone envelope from the right.
    prec_interp = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        idx = np.searchsorted(recall, r, side="left")
        ap += prec_interp[idx] if idx < len(prec_interp) else 0.0
    return ap / 101.0


def _oracle_evaluate(instances, task, max_dets=100) -> TaskMetrics:
    num_classes = HEAD_CLASS_COUNTS[task]

    def mean_ap(thresholds, area_range):
        per_class = []
        for cls in range(num_classes):
            vals = []
            for thr in thresholds:
                res = _class_pr(instances, cls, thr, max_dets, area_range)
                if res is None:
                    vals = None
                    break
                vals.append(_ap_from_flags(res[0], res[1], res[2]))
            if vals is not None:
                per_class.append(float(np.mean(vals)))
        return float(np.mean(per_class)) if per_class else -1.0

    def mean_recall():
        per_class = []
        for cls in range(num_classes):
            vals = []
            for thr in IOU_THRESHOLDS:
                res = _class_pr(instances, cls, thr, max_dets, None)
                if res is None:
                    vals = None
                    break
                vals.append(res[0].sum() / res[2])
            if vals is not None:
                per_class.append(float(np.mean(vals)))
        return float(np.mean(per_class)) if per_class else -1.0

    if not any(inst.gts for inst in instances):
        raise ValueError(f"no ground truth labeled for task {task!r}")
    return TaskMetrics(
        ar=mean_recall(),
        ap=mean_ap(IOU_THRESHOLDS, None),
        ap50=mean_ap((0.5,), None),
        ap75=mean_ap((0.75,), None),
        ap_m=mean_ap(IOU_THRESHOLDS, AREA_MEDIUM),
        ap_l=mean_ap(IOU_THRESHOLDS, AREA_LARGE),
    )


# ---------------------------------------------------------------------------


def _inst(dets, gts, size=256):
    return EvalInstance(dets=tuple(dets), gts=tuple(gts), width=size, height=size)


def _naive_pr(instances, cls, thr, max_dets=100):
    """Greedy matcher written independently with plain loops and dicts."""
    all_dets = []
    gts = {}
    for i, inst in enumerate(instances):
        gts[i] = [b for b, c in inst.gts if c == cls]
        mine = sorted(
            [(b, s) for b, c, s in inst.dets if c == cls], key=lambda x: -x[1]
        )[:max_dets]
        for rank, (b, s) in enumerate(mine):
            all_dets.append((s, i, rank, b))
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return None
    all_dets.sort(key=lambda r: (-r[0], r[1], r[2]))
    used = {i: set() for i in gts}
    flags = []
    for s, i, rank, b in all_dets:
        best, best_v = None, thr
        for j, gb in enumerate(gts[i]):
            if j in used[i]:
                continue
            v = iou(b, gb)
            if v >= best_v and (best is None or v > best_v):
                best, best_v = j, v
        if best is not None:
            used[i].add(best)
            flags.append(True)
        else:
            flags.append(False)
    tp = 0
    curve = []  # (recall, precision)
    for k, good in enumerate(flags, start=1):
        tp += good
        curve.append((tp / n_gt, tp / k))
    ap = 0.0
    for r in np.linspace(0, 1, 101):
        best_p = max((p for rec, p in curve if rec >= r), default=0.0)
        ap += best_p
    recall = tp / n_gt
    return ap / 101.0, recall


def _random_instances(rng, n_images=3, n_classes=3):
    out = []
    for _ in range(n_images):
        gts = [
            (Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.1, 0.3, 2)),
             int(rng.integers(n_classes)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        dets = []
        for b, c in gts:
            if rng.uniform() < 0.8:  # jittered copy of a gt
                arr = b.to_array() + rng.normal(0, 0.03, 4)
                dets.append(
                    (Box(*np.clip(arr, 0.05, 0.95)),
                     c if rng.uniform() < 0.8 else int(rng.integers(n_classes)),
                     float(rng.uniform(0.3, 1.0)))
                )
        for _ in range(int(rng.integers(0, 3))):  # spurious
            dets.append(
                (Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.2, 2)),
                 int(rng.integers(n_classes)), float(rng.uniform(0, 1)))
            )
        out.append(_inst(dets, gts))
    return out


class TestClassPr:
    def test_matches_naive_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            instances = _random_instances(rng)
            for cls in range(3):
                for thr in (0.5, 0.75):
                    got = _class_pr(instances, cls, thr, 100, None)
                    want = _naive_pr(instances, cls, thr)
                    if want is None:
                        assert got is None
                        continue
                    tp, fp, n_gt = got
                    ap = _ap_from_flags(tp, fp, n_gt)
                    assert ap == pytest.approx(want[0], abs=1e-12)
                    assert tp.sum() / n_gt == pytest.approx(want[1], abs=1e-12)

    def test_none_when_class_absent(self):
        instances = [_inst([], [(Box(0.5, 0.5, 0.2, 0.2), 1)])]
        assert _class_pr(instances, 0, 0.5, 100, None) is None


class TestEvaluate:
    def test_perfect_detections_score_one(self):
        rng = np.random.default_rng(1)
        instances = []
        for _ in range(4):
            gts = [
                (Box(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.2, 0.4, 2)),
                 int(rng.integers(4)))
                for _ in range(3)
            ]
            instances.append(_inst([(b, c, 1.0) for b, c in gts], gts))
        tm = score(instances, "quadrant")
        assert tm.ap == pytest.approx(1.0)
        assert tm.ap50 == pytest.approx(1.0)
        assert tm.ar == pytest.approx(1.0)

    def test_no_detections_scores_zero(self):
        instances = [_inst([], [(Box(0.5, 0.5, 0.3, 0.3), 0)])]
        tm = score(instances, "quadrant")
        assert tm.ap == 0.0 and tm.ap50 == 0.0 and tm.ar == 0.0

    def test_hand_derived_half_ap(self):
        # One gt; a disjoint wrong detection outranks the correct one:
        # precision 0 at rank 1, 1/2 at rank 2 where recall reaches 1.
        gt = Box(0.3, 0.3, 0.2, 0.2)
        correct = Box(0.3, 0.35, 0.2, 0.2)  # IoU 0.6 with a 0.05 shift
        assert iou(correct, gt) == pytest.approx(0.6, abs=1e-9)
        wrong = Box(0.8, 0.8, 0.1, 0.1)
        inst = _inst([(wrong, 0, 0.95), (correct, 0, 0.9)], [(gt, 0)])
        tm = score([inst], "quadrant")
        assert tm.ap50 == pytest.approx(0.5, abs=1e-12)

    def test_ap_not_above_ap50(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            instances = _random_instances(rng)
            tm = score(instances, "quadrant")
            assert tm.ap <= tm.ap50 + 1e-12
            assert tm.ap75 <= tm.ap50 + 1e-12

    def test_adding_correct_detection_never_lowers_ar(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            instances = _random_instances(rng)
            before = score(instances, "quadrant").ar
            # Duplicate one image's first gt as a max-score detection.
            target = None
            for i, inst in enumerate(instances):
                if inst.gts:
                    target = i
                    break
            inst = instances[target]
            b, c = inst.gts[0]
            boosted = _inst(list(inst.dets) + [(b, c, 1.0)], inst.gts)
            after = score(
                instances[:target] + [boosted] + instances[target + 1:],
                "quadrant",
            ).ar
            assert after >= before - 1e-12

    def test_area_bucket_exclusion(self):
        # All gts large: AP_m must report the -1 exclusion sentinel.
        gt = Box(0.5, 0.5, 0.5, 0.5)  # 128x128 px on a 256 image
        inst = _inst([(gt, 0, 1.0)], [(gt, 0)])
        tm = score([inst], "quadrant")
        assert tm.ap_l == pytest.approx(1.0)
        assert tm.ap_m == -1.0

    def test_max_dets_budget(self):
        gt = Box(0.5, 0.5, 0.3, 0.3)
        junk = [(Box(0.1, 0.1, 0.05, 0.05), 0, 0.9) for _ in range(5)]
        inst = _inst(junk + [(gt, 0, 0.1)], [(gt, 0)])
        full = score([inst], "quadrant", max_dets=100)
        tight = score([inst], "quadrant", max_dets=3)
        assert full.ar == pytest.approx(1.0)
        assert tight.ar == 0.0  # the low-scoring hit falls off the budget

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            score([_inst([], [(Box(0.5, 0.5, 0.1, 0.1), 0)])], "teeth")

    def test_no_gt_at_all_rejected(self):
        with pytest.raises(ValueError):
            score([_inst([], [])], "quadrant")


# On 330x220 and 340x260 images, 96x96 and 32x32 px boxes land on the
# bucket edges only when areas are computed as w * width * h * height.
SIZES = ((256, 256), (512, 384), (300, 200), (330, 220), (340, 260))


@st.composite
def _scored_images(draw, num_classes):
    """Images built to hit the scorer's exact-equality edges.

    Box sides sit at and around 32 and 96 pixels, so areas straddle both
    bucket edges or sit on them up to rounding.  Boxes on a 1/64 grid keep
    IoU arithmetic exact: a half-width copy of such a box sits at IoU
    exactly 0.5 (of any other box, within rounding of 0.5), and a box
    centred between two shifted copies ties at IoU 0.6 with both; a later
    detection then overlaps only the first copy, at its size or grown into
    the next area bucket.  Scores repeat, detections are duplicated or
    labelled with another class, and an image may lack detections or
    ground truth of any class.
    """
    classes = st.integers(0, num_classes - 1)
    scores = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    grid = st.integers(16, 48).map(lambda k: k / 64)
    sides = st.one_of(  # (w, h) in pixels
        st.sampled_from([(32, 32), (16, 64), (31, 33), (96, 96), (48, 192), (95, 97)]),
        st.tuples(st.integers(4, 160), st.integers(4, 160)),
    )
    images = []
    for _ in range(draw(st.integers(1, 4))):
        width, height = draw(st.sampled_from(SIZES))
        gts, dets = [], []
        for _ in range(draw(st.integers(0, 3))):
            cls = draw(classes)
            kind = draw(st.sampled_from(["missed", "copy", "shifted", "half", "tie", "stray"]))
            if kind == "tie" or kind == "half" and draw(st.booleans()):
                w, h = draw(st.integers(4, 40)) / 64, draw(st.integers(4, 40)) / 64
                gt = Box(draw(grid), draw(grid), w, h)
            else:
                w_px, h_px = draw(sides)
                gt = Box(draw(grid), draw(grid), w_px / width, h_px / height)
            if kind == "stray":
                dets.append((gt, cls, draw(scores)))
                continue
            if kind == "tie":
                left = Box(gt.cx - gt.w / 4, gt.cy, gt.w, gt.h)
                right = Box(gt.cx + gt.w / 4, gt.cy, gt.w, gt.h)
                grown = Box(left.cx, left.cy, left.w * 1.25, left.h * 1.25)
                hi, lo = sorted((draw(scores), draw(scores)), reverse=True)
                gts += [(left, cls), (right, cls)]
                dets += [(gt, cls, hi), (draw(st.sampled_from([left, grown])), cls, lo)]
                continue
            gts.append((gt, cls))
            if kind == "copy":
                det = gt
            elif kind == "shifted":
                dx, dy = draw(st.integers(-8, 8)) / 256, draw(st.integers(-8, 8)) / 256
                det = Box(gt.cx + dx, gt.cy + dy, gt.w, gt.h)
            elif kind == "half":
                det = Box(gt.cx, gt.cy, gt.w / 2, gt.h)
            else:
                continue
            copies = draw(st.integers(1, 2))
            dets += [(det, draw(st.one_of(st.just(cls), classes)), draw(scores))] * copies
        images.append(EvalInstance(tuple(dets), tuple(gts), width, height))
    return images


class TestScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("task", ["quadrant", "enumeration"])
    def test_equals_oracle_exactly(self, task, data):
        instances = data.draw(_scored_images(HEAD_CLASS_COUNTS[task]))
        assume(any(inst.gts for inst in instances))
        max_dets = data.draw(st.sampled_from([1, 2, 3, 100]))
        assert score(instances, task, max_dets) == _oracle_evaluate(
            instances, task, max_dets
        )

    def test_iou_exactly_at_threshold_matches(self):
        gt = Box(0.5, 0.5, 0.25, 0.25)
        half = Box(0.5, 0.5, 0.125, 0.25)
        assert iou(half, gt) == 0.5
        tm = score([_inst([(half, 0, 1.0)], [(gt, 0)])], "quadrant")
        assert tm == _oracle_evaluate([_inst([(half, 0, 1.0)], [(gt, 0)])], "quadrant")
        assert tm.ap50 == 1.0 and tm.ar == 0.1

    def test_first_maximal_iou_wins(self):
        # The first detection ties at IoU 0.6 with both ground truths and
        # takes the first; the exact copy of that one, scored lower, is then
        # a false positive up to IoU 0.6 (picking the last tie would make
        # it a true positive).
        left, right = Box(0.4375, 0.5, 0.25, 0.25), Box(0.5625, 0.5, 0.25, 0.25)
        mid = Box(0.5, 0.5, 0.25, 0.25)
        assert iou(mid, left) == iou(mid, right) >= 0.6
        inst = _inst([(mid, 0, 0.9), (left, 0, 0.8)], [(left, 0), (right, 0)])
        tm = score([inst], "quadrant")
        assert tm == _oracle_evaluate([inst], "quadrant")
        assert tm.ar == 0.5
        assert tm.ap50 == 51 / 101


    def test_first_qualifying_ignored_gt_wins(self):
        # In the large bucket both 88 px ground truths are ignored.  The
        # first detection ties on them and takes the first; the grown copy
        # of that one (110 px, inside the bucket) is then a false positive
        # that outranks the only counted hit, so AP_l is 0.5 at every IoU.
        left = Box(0.4140625, 0.5, 0.34375, 0.34375)
        right = Box(0.5859375, 0.5, 0.34375, 0.34375)
        mid = Box(0.5, 0.5, 0.34375, 0.34375)
        grown = Box(left.cx, left.cy, left.w * 1.25, left.h * 1.25)
        assert iou(mid, left) == iou(mid, right) >= 0.6
        assert iou(grown, left) >= 0.6 > 0.5 > iou(grown, right)
        large = Box(0.5, 0.5, 0.5, 0.5)
        instances = [
            _inst([(mid, 0, 0.9), (grown, 0, 0.8)], [(left, 0), (right, 0)]),
            _inst([(large, 0, 0.5)], [(large, 0)]),
        ]
        tm = score(instances, "quadrant")
        assert tm == _oracle_evaluate(instances, "quadrant")
        assert tm.ap_l == 0.5


# ---------------------------------------------------------------------------
# Matcher oracle: _greedy_match as first written on arrays, one detection
# slot at a time for every image, bucket and threshold.  The closed form
# and the contest replay must give the same tp and fp flags, with ==.


def _greedy_match_oracle(dets, gts):
    (det_boxes, det_cls, det_outside), (gt_boxes, gt_cls, gt_ignore) = dets, gts
    n_img, n_det = det_cls.shape
    n_gt = gt_cls.shape[1]
    shape = (n_img, len(AREA_BUCKETS), len(IOU_THRESHOLDS))
    thresholds = np.asarray(IOU_THRESHOLDS)[:, None]
    ignored = gt_ignore.transpose(0, 2, 1)[:, :, None, :]
    counted = ~ignored
    free = np.ones(shape + (n_gt,), dtype=bool)  # not yet taken
    tp = np.zeros((n_img, n_det) + shape[1:], dtype=bool)
    fp = np.zeros_like(tp)
    for d in range(n_det):
        v = iou_matrix(det_boxes[:, d, None], gt_boxes)[:, None]  # (I, 1, 1, G)
        same_class = (det_cls[:, d, None] == gt_cls)[:, None, None]
        ok = (v >= thresholds) & same_class & free
        hit = ok & counted
        matched = hit.any(-1)
        spare = ok & ignored
        fallback = spare.any(-1) & ~matched
        best = np.max(
            np.broadcast_to(v, hit.shape), axis=-1, where=hit, initial=-1.0,
            keepdims=True,
        )
        col = np.where(matched, (hit & (v == best)).argmax(-1), spare.argmax(-1))
        i, a, t = np.nonzero(matched | fallback)
        free[i, a, t, col[i, a, t]] = False
        tp[:, d] = matched
        fp[:, d] = ~(matched | fallback) & ~det_outside[:, d, :, None]
    return tp, fp


def _padded(per_image, row_shape, dtype):
    """Per-image rows stacked into (I, max rows, ...), zero-padded."""
    n = max(len(rows) for rows in per_image)
    out = np.zeros((len(per_image), n) + row_shape, dtype=dtype)
    for i, rows in enumerate(per_image):
        if len(rows):
            out[i, :len(rows)] = rows
    return out


@st.composite
def _contested_matches(draw):
    """Matcher input dense in detections that contest a ground truth.

    Each image has 4 to 7 ground truths, some of them shifted copies of an
    earlier one, with sides at and around 32 and 96 pixels so that some are
    ignored in the medium or the large bucket.  Detections copy, shift,
    halve or grow a ground truth, are duplicated, and may take another
    class; an image may have none.  Rows past an image's count are the
    zero-size padding the scorer adds.
    """
    num_classes = draw(st.integers(1, 3))
    classes = st.integers(0, num_classes - 1)
    grid = st.integers(16, 48).map(lambda k: k / 64)
    step = st.integers(-6, 6).map(lambda k: k / 128)
    sides = st.one_of(  # (w, h) in pixels
        st.sampled_from([(32, 32), (31, 33), (96, 96), (95, 97), (48, 192), (100, 40)]),
        st.tuples(st.integers(8, 160), st.integers(8, 160)),
    )
    images = []
    for _ in range(draw(st.integers(1, 4))):
        width, height = draw(st.sampled_from(SIZES))
        gts = []
        for _ in range(draw(st.integers(4, 7))):
            if gts and draw(st.booleans()):
                src, cls = gts[draw(st.integers(0, len(gts) - 1))]
                box = Box(src.cx + draw(step), src.cy + draw(step), src.w, src.h)
                cls = draw(st.one_of(st.just(cls), classes))
            else:
                w_px, h_px = draw(sides)
                box = Box(draw(grid), draw(grid), w_px / width, h_px / height)
                cls = draw(classes)
            gts.append((box, cls))
        dets = []
        for _ in range(draw(st.sampled_from([0, 2, 4, 6, 9]))):
            gt, cls = gts[draw(st.integers(0, len(gts) - 1))]
            kind = draw(st.sampled_from(["copy", "shifted", "half", "grown"]))
            if kind == "shifted":
                gt = Box(gt.cx + draw(step), gt.cy + draw(step), gt.w, gt.h)
            elif kind == "half":
                gt = Box(gt.cx, gt.cy, gt.w / 2, gt.h)
            elif kind == "grown":
                gt = Box(gt.cx, gt.cy, gt.w * 1.25, gt.h * 1.25)
            det = (gt, draw(st.one_of(st.just(cls), classes)))
            dets += [det] * draw(st.integers(1, 3))
        images.append((dets, gts, width, height))

    def side(pick):
        boxes = [np.array([b.to_array() for b, _ in pick(img)]).reshape(-1, 4)
                 for img in images]
        areas = [_area_px_array(b, img[2], img[3]) for b, img in zip(boxes, images)]
        return (
            _padded(boxes, (4,), np.float64),
            _padded([[c for _, c in pick(img)] for img in images], (), np.int64),
            _padded([_bucket_outside(a) for a in areas], (len(AREA_BUCKETS),), bool),
        )

    return side(lambda img: img[0]), side(lambda img: img[1])


class TestMatcherOracle:
    @settings(max_examples=300, deadline=None)
    @given(_contested_matches())
    def test_equals_oracle_exactly(self, case):
        dets, gts = case
        tp, fp = _greedy_match(dets, gts)
        want_tp, want_fp = _greedy_match_oracle(dets, gts)
        assert tp.shape == want_tp.shape
        assert (tp == want_tp).all() and (fp == want_fp).all()

    def test_later_detection_takes_the_ground_truth_above_the_first_iou(self):
        # Both detections contest one ground truth: the higher-scored one
        # (IoU 0.6) takes it up to IoU 0.6, the lower-scored one (IoU 0.9)
        # from there up to 0.9.  Neither is matched in closed form.
        gt = Box(0.5, 0.5, 0.25, 0.25)
        first = Box(0.5625, 0.5, 0.25, 0.25)  # shifted by a quarter width
        second = Box(0.5, 0.5, 0.225, 0.25)  # inside, 0.9 of its area
        v1, v2 = iou(first, gt), iou(second, gt)
        assert v1 == pytest.approx(0.6) and v2 == pytest.approx(0.9)
        boxes = np.array([[first.to_array(), second.to_array()]])
        zero = np.zeros((1, 2, len(AREA_BUCKETS)), dtype=bool)
        dets = (boxes, np.zeros((1, 2), dtype=np.int64), zero)
        gts = (np.array([[gt.to_array()]]), np.zeros((1, 1), dtype=np.int64), zero[:, :1])
        tp, fp = _greedy_match(dets, gts)
        want_tp, want_fp = _greedy_match_oracle(dets, gts)
        assert (tp == want_tp).all() and (fp == want_fp).all()
        thr = np.asarray(IOU_THRESHOLDS)
        assert (tp[0, 0, 0] == (v1 >= thr)).all()
        assert (tp[0, 1, 0] == ((v2 >= thr) & (v1 < thr))).all()
        assert tp[0, 1, 0].any() and tp[0, 0, 0].any()
        assert (fp == ~tp).all()


def _detected(dets) -> np.recarray:
    """One image's sampler records (``train.DETECTED``) of Detection objects."""
    out = np.recarray(len(dets), dtype=DETECTED)
    for i, d in enumerate(dets):
        out[i] = (d.box.to_array(), d.probs_q, d.probs_e, d.probs_d, d.score,
                  d.objectness)
    return out


class TestReport:
    def _oracle_detection(self, box, lab):
        probs_q = np.zeros(4)
        probs_q[lab.quadrant] = 1.0
        probs_e = np.zeros(8)
        probs_e[lab.enumeration] = 1.0
        probs_d = np.zeros(4)
        probs_d[lab.diagnosis] = 1.0
        return Detection(box=box, probs_q=probs_q, probs_e=probs_e,
                         probs_d=probs_d, score=1.0)

    def test_oracle_report_all_ones(self):
        rng = np.random.default_rng(4)
        gts, dets, sizes = [], [], []
        for _ in range(3):
            img_gts = [
                (Box(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.2, 0.4, 2)),
                 LabelTriple(int(rng.integers(4)), int(rng.integers(8)),
                             int(rng.integers(4))))
                for _ in range(3)
            ]
            gts.append(truth_arrays(img_gts))
            dets.append(_detected([self._oracle_detection(b, lab) for b, lab in img_gts]))
            sizes.append((256, 256))
        report = build_report(dets, gts, sizes)
        for task, tm in report.tasks.items():
            assert tm.ap == pytest.approx(1.0), task
            assert tm.ar == pytest.approx(1.0), task

    def test_report_requires_task_labels(self):
        gts = [truth_arrays([(Box(0.5, 0.5, 0.2, 0.2), LabelTriple(1))])]
        dets = [_detected([self._oracle_detection(Box(0.5, 0.5, 0.2, 0.2),
                                                  LabelTriple(1, 0, 0))])]
        with pytest.raises(ValueError, match="fully labeled"):
            build_report(dets, gts, [(256, 256)], tasks=("quadrant", "diagnosis"))

    def test_table_formats_exclusions(self):
        gt = Box(0.5, 0.5, 0.5, 0.5)
        inst_dets = [_detected([self._oracle_detection(gt, LabelTriple(0, 0, 0))])]
        gts = [truth_arrays([(gt, LabelTriple(0, 0, 0))])]
        report = build_report(inst_dets, gts, [(256, 256)], tasks=("quadrant",))
        text = report.table()
        assert "quadrant" in text
        assert "-" in text  # empty medium bucket renders as a dash
        assert "100.0" in text


class TestDetectionsToEval:
    def test_objectness_weighting(self):
        d = Detection(
            box=Box(0.5, 0.5, 0.2, 0.2),
            probs_q=np.array([0.1, 0.7, 0.1, 0.1]),
            probs_e=np.full(8, 0.125),
            probs_d=np.full(4, 0.25),
            score=0.7,
            objectness=0.8,
        )
        boxes, classes, scores = detections_to_eval(_detected([d]), "quadrant")
        assert boxes.tolist() == [[0.5, 0.5, 0.2, 0.2]]
        assert classes.tolist() == [1]
        assert scores.tolist() == [0.7 * 0.8]


    def test_no_detections(self):
        boxes, classes, scores = detections_to_eval(_detected([]), "enumeration")
        assert boxes.shape == (0, 4) and classes.shape == scores.shape == (0,)


# ---------------------------------------------------------------------------
# The scorer as it was before it read sampler records and batched the AP
# curves: Detection lists restacked per image and task, and one
# _ap_from_flags call per class.  The array path must equal it exactly.


def _ap_one_class(tp: np.ndarray, fp: np.ndarray, n_gt: np.ndarray) -> np.ndarray:
    """(A, T) APs of one class's (N, A, T) flags, (A,) counted ground truths."""
    n, *curve_shape = tp.shape
    n_curves = int(np.prod(curve_shape))
    tp = tp.reshape(n, n_curves).T
    fp = fp.reshape(n, n_curves).T
    tp_c = np.cumsum(tp, axis=1)
    recall = tp_c / np.repeat(np.maximum(n_gt, 1), curve_shape[1])[:, None]
    precision = np.zeros(tp_c.shape)
    np.divide(tp_c, tp_c + np.cumsum(fp, axis=1), out=precision, where=tp | fp)
    envelope = np.zeros((n_curves, n + 1))
    envelope[:, :n] = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    below = np.searchsorted(RECALL_POINTS, recall, side="right")
    width = len(RECALL_POINTS) + 1
    hist = np.bincount(
        (below + width * np.arange(n_curves)[:, None]).ravel(),
        minlength=n_curves * width,
    ).reshape(n_curves, width)
    idx = np.cumsum(hist, axis=1)[:, :-1]
    sampled = np.take_along_axis(envelope, idx, axis=1)
    return (np.cumsum(sampled, axis=1)[:, -1] / 101.0).reshape(curve_shape)


def _evaluate_per_class(dets, gts, sizes, task, max_dets=100) -> TaskMetrics:
    num_classes = HEAD_CLASS_COUNTS[task]
    n_img = len(sizes)
    width, height = np.array(sizes).reshape(n_img, 2).T
    g_img = np.repeat(np.arange(n_img), [len(classes) for _, classes in gts])
    g_box = _rows([boxes for boxes, _ in gts], np.float64, 4)
    g_cls = _rows([classes for _, classes in gts], np.int64)
    g_slot = _run_positions(g_img)
    g_ignore = _bucket_outside(_area_px_array(g_box, width[g_img], height[g_img]))
    n_gt = (
        (g_cls[:, None] == np.arange(num_classes))[:, :, None] & ~g_ignore[:, None, :]
    ).sum(axis=0)
    d_img = np.repeat(np.arange(n_img), [len(scores) for _, _, scores in dets])
    d_box = _rows([boxes for boxes, _, _ in dets], np.float64, 4)
    d_cls = _rows([classes for _, classes, _ in dets], np.int64)
    d_score = _rows([scores for _, _, scores in dets], np.float64)
    order = np.lexsort((-d_score, d_cls, d_img))
    rank = _run_positions(d_img[order], d_cls[order])
    keep = rank < max_dets
    order, rank = order[keep], rank[keep]
    d_img, d_box, d_cls, d_score = d_img[order], d_box[order], d_cls[order], d_score[order]
    d_slot = _run_positions(d_img)
    d_outside = _bucket_outside(_area_px_array(d_box, width[d_img], height[d_img]))
    tp, fp = _greedy_match(
        [_pad(x, d_img, d_slot, n_img) for x in (d_box, d_cls, d_outside)],
        [_pad(x, g_img, g_slot, n_img) for x in (g_box, g_cls, g_ignore)],
    )
    tp, fp = tp[d_img, d_slot], fp[d_img, d_slot]
    pr_order = np.lexsort((rank, d_img, -d_score))
    t50, t75 = IOU_THRESHOLDS.index(0.5), IOU_THRESHOLDS.index(0.75)
    ar, ap, ap50, ap75, ap_m, ap_l = ([] for _ in range(6))
    for cls in range(num_classes):
        rows = pr_order[d_cls[pr_order] == cls]
        class_ap = _ap_one_class(tp[rows], fp[rows], n_gt[cls])
        if n_gt[cls, 0]:
            ar.append(float(np.mean(tp[rows, 0].sum(axis=0) / n_gt[cls, 0])))
            ap.append(float(np.mean(class_ap[0])))
            ap50.append(float(class_ap[0, t50]))
            ap75.append(float(class_ap[0, t75]))
        if n_gt[cls, 1]:
            ap_m.append(float(np.mean(class_ap[1])))
        if n_gt[cls, 2]:
            ap_l.append(float(np.mean(class_ap[2])))

    def mean(per_class):
        return float(np.mean(per_class)) if per_class else -1.0

    return TaskMetrics(ar=mean(ar), ap=mean(ap), ap50=mean(ap50), ap75=mean(ap75),
                       ap_m=mean(ap_m), ap_l=mean(ap_l))


def _detections_to_eval_objects(dets, task):
    boxes = np.array([(d.box.cx, d.box.cy, d.box.w, d.box.h) for d in dets])
    field = dict(zip(HEAD_NAMES, ("probs_q", "probs_e", "probs_d")))[task]
    probs = np.array([getattr(d, field) for d in dets])
    probs = probs.reshape(len(dets), HEAD_CLASS_COUNTS[task])
    classes = probs.argmax(axis=1)
    scores = probs[np.arange(len(dets)), classes] * np.array(
        [d.objectness for d in dets], dtype=np.float64
    )
    return boxes.reshape(-1, 4), classes, scores


def _build_report_objects(per_image_dets, per_image_gts, sizes, tasks) -> EvalReport:
    return EvalReport(tasks={
        task: _evaluate_per_class(
            [_detections_to_eval_objects(dets, task) for dets in per_image_dets],
            task_ground_truth(per_image_gts, task),
            sizes,
            task,
        )
        for task in tasks
    })


@st.composite
def _class_flags(draw):
    """Per-class (N_c, A, T) tp and fp flags, never both set, and (C, A)
    counted ground truths; a class may have no detections at all, and a
    class more tps than ground truths."""
    curve = (len(AREA_BUCKETS), len(IOU_THRESHOLDS))
    classes = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([0, 0, 1, 2, 5, 9]))
        cells = n * curve[0] * curve[1]
        kind = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=cells, max_size=cells))
        kind = np.array(kind, dtype=np.int64).reshape((n,) + curve)
        classes.append((kind == 1, kind == 2))
    n_gt = draw(st.lists(st.integers(0, 6), min_size=len(classes) * curve[0],
                         max_size=len(classes) * curve[0]))
    return classes, np.array(n_gt).reshape(-1, curve[0])


class TestOneApCall:
    @settings(max_examples=200, deadline=None)
    @given(_class_flags())
    def test_one_call_equals_per_class_calls(self, flags):
        classes, n_gt = flags
        cls = np.repeat(np.arange(len(classes)), [len(tp) for tp, _ in classes])
        tp, fp = (np.concatenate([c[k] for c in classes]) for k in (0, 1))
        got = evalmetrics._ap_from_flags(tp, fp, n_gt, cls)
        assert got.shape == (len(classes), len(AREA_BUCKETS), len(IOU_THRESHOLDS))
        for c, (tp_c, fp_c) in enumerate(classes):
            assert np.array_equal(got[c], _ap_one_class(tp_c, fp_c, n_gt[c]))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("task", ["quadrant", "enumeration"])
    def test_evaluate_equals_per_class_oracle(self, task, data):
        # Images may hold no detections, and classes no detections.
        instances = data.draw(_scored_images(HEAD_CLASS_COUNTS[task]))
        assume(any(inst.gts for inst in instances))
        max_dets = data.draw(st.sampled_from([1, 3, 100]))
        arrays = eval_arrays(instances)
        assert evaluate(*arrays, task, max_dets) == _evaluate_per_class(
            *arrays, task, max_dets
        )

    def test_one_ap_call_per_evaluate(self, monkeypatch):
        calls = []
        real = evalmetrics._ap_from_flags

        def counting(tp, fp, n_gt, cls):
            calls.append((tp.shape, n_gt.shape, np.bincount(cls, minlength=4).tolist()))
            return real(tp, fp, n_gt, cls)

        monkeypatch.setattr(evalmetrics, "_ap_from_flags", counting)
        rng = np.random.default_rng(7)
        # Classes 0-2 only, and a last image without detections.
        instances = _random_instances(rng, n_images=4, n_classes=3)
        instances.append(_inst([], [(Box(0.5, 0.5, 0.2, 0.2), 3)]))
        tm = score(instances, "quadrant")
        per_class = [sum(c == k for inst in instances for _, c, _ in inst.dets)
                     for k in range(4)]
        assert per_class[3] == 0
        curve = (len(AREA_BUCKETS), len(IOU_THRESHOLDS))
        assert calls == [((sum(per_class), *curve), (4, curve[0]), per_class)]
        assert tm == _evaluate_per_class(*eval_arrays(instances), "quadrant")


def _level_images(level, n, seed0=500):
    cfg = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
    grids, gts = [], []
    for i in range(n):
        img, layout = generate_layout(seed0 + i)
        grids.append(encode_image(img, cfg.grid))
        gts.append(truth_arrays(project_level(layout, level)))
    return cfg, grids, gts


@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("level", list(HierarchyLevel), ids=["a", "b", "c"])
def test_array_report_equals_detection_list_report(level, steps):
    cfg, grids, gts = _level_images(level, 3)
    params = init_params(cfg, np.random.default_rng(8), head_scale=0.3)
    args = (params, grids, level, cfg, Schedule.cosine(1000, 0.008))
    kw = dict(n_proposals=24, steps=steps, seed=3, eta=1.0,
              renewal_threshold=0.45, nms_iou=0.4)
    detected, objects = _sample(*args, **kw), infer(*args, **kw)
    # A fourth image without detections.
    detected.append(_detected([]))
    objects.append([])
    gts.append(gts[0])
    sizes = [(256, 256)] * len(gts)
    for task in HEAD_NAMES:
        for records, dets in zip(detected, objects):
            got = detections_to_eval(records, task)
            want = _detections_to_eval_objects(dets, task)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.array_equal(g, w)
    tasks = level.heads
    got = build_report(detected, gts, sizes, tasks)
    want = _build_report_objects(objects, gts, sizes, tasks)
    assert got.key_values() == want.key_values()
