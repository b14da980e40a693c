"""COCO-style average precision / average recall, decomposed per head.

Detections are matched greedily in score order to same-class ground truth
at each IoU threshold; precision-recall curves are integrated with the
101-point interpolation.  Area buckets (medium, large) are measured in
original pixel units; classes or buckets with no ground truth are excluded
from the averages.

As in COCOeval (Lin et al., arXiv 1405.0312), one matching serves every
IoU threshold and area bucket, and AR, AP, AP50, AP75, AP_m and AP_l all
read it.  The (image, detection, ground truth) IoUs are computed at once.
A detection that shares no candidate ground truth with another is matched
in closed form; only detections that contest a ground truth go through
the greedy steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import iou, iou_matrix  # noqa: F401  (perfbench counts iou calls)
from .labels import HEAD_CLASS_COUNTS, HEAD_NAMES

IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 1.0, 0.05), 2))
AREA_MEDIUM = (32.0**2, 96.0**2)
AREA_LARGE = (96.0**2, float("inf"))
AREA_BUCKETS = (None, AREA_MEDIUM, AREA_LARGE)  # all, medium, large
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class TaskMetrics:
    ar: float
    ap: float
    ap50: float
    ap75: float
    ap_m: float
    ap_l: float

    def as_dict(self) -> dict[str, float]:
        return {
            "AR": self.ar,
            "AP": self.ap,
            "AP50": self.ap50,
            "AP75": self.ap75,
            "AP_m": self.ap_m,
            "AP_l": self.ap_l,
        }


@dataclass(frozen=True)
class EvalReport:
    tasks: dict[str, TaskMetrics]

    def table(self) -> str:
        cols = ("AR", "AP", "AP50", "AP75", "AP_m", "AP_l")
        lines = ["task         " + "".join(f"{c:>8}" for c in cols)]
        for task, tm in self.tasks.items():
            vals = tm.as_dict()
            cells = "".join(
                f"{100 * vals[c]:>8.1f}" if vals[c] >= 0 else f"{'-':>8}"
                for c in cols
            )
            lines.append(f"{task:<13}" + cells)
        return "\n".join(lines)

    def key_values(self) -> dict[str, float]:
        return {
            f"{task}/{k}": v
            for task, tm in self.tasks.items()
            for k, v in tm.as_dict().items()
        }


def _area_px(boxes: np.ndarray, width, height) -> np.ndarray:
    return boxes[..., 2] * width * boxes[..., 3] * height


def _run_positions(*keys: np.ndarray) -> np.ndarray:
    """Index of each element within its run of equal keys (keys sorted)."""
    n = len(keys[0])
    new_run = np.arange(n) == 0
    for k in keys:
        new_run[1:] |= k[1:] != k[:-1]
    start = np.maximum.accumulate(np.where(new_run, np.arange(n), 0))
    return np.arange(n) - start


def _pad(values: np.ndarray, img: np.ndarray, slot: np.ndarray, n_img: int):
    """Scatter per-box values into a zero-padded (I, slots, ...) array."""
    n_slots = int(slot.max()) + 1 if len(slot) else 0
    out = np.zeros((n_img, n_slots) + values.shape[1:], dtype=values.dtype)
    out[img, slot] = values
    return out


def _bucket_outside(areas: np.ndarray) -> np.ndarray:
    """(..., A) mask of areas outside each bucket of AREA_BUCKETS."""
    out = np.zeros(areas.shape + (len(AREA_BUCKETS),), dtype=bool)
    for a, bucket in enumerate(AREA_BUCKETS):
        if bucket is not None:
            out[..., a] = (areas < bucket[0]) | (areas >= bucket[1])
    return out


def _greedy_match(dets, gts):
    """COCO greedy matching of every image, threshold and area bucket at once.

    dets: boxes (I, D, 4), classes (I, D) and outside-bucket flags (I, D, A),
    each image's rows in score order within each class; gts: boxes (I, G, 4),
    classes (I, G) and ignore flags (I, G, A).  Padding has zero size, so
    its IoU with any box is 0.  Returns tp, fp: (I, D, A, T).  A detection
    takes the first not yet taken counted ground truth of its class with
    maximal IoU at or above the threshold; failing that, the first
    qualifying ignored one, which makes it neither tp nor fp.  An unmatched
    detection outside the bucket is not an fp.

    Only a candidate (same class, IoU at or above the lowest threshold) can
    be taken.  A detection is contested when one of its candidates is also
    another detection's candidate.  An uncontested detection finds all its
    candidates free at its turn, and what it takes no other detection could
    take, so its flags follow in closed form from its best counted and best
    candidate IoU.  The greedy steps replay only the contested detections
    (``_replay``).
    """
    (det_boxes, det_cls, det_outside), (gt_boxes, gt_cls, gt_ignore) = dets, gts
    thresholds = np.asarray(IOU_THRESHOLDS)
    v = iou_matrix(det_boxes, gt_boxes)  # (I, D, G)
    cand = (det_cls[:, :, None] == gt_cls[:, None, :]) & (v >= thresholds[0])
    # A detection is matched (tp) at the thresholds its best counted
    # candidate reaches, and takes a ground truth at those its best
    # candidate of any kind reaches.
    i, d, g = np.nonzero(cand)
    counted_v = np.where(gt_ignore[i, g], -1.0, v[i, d, g, None])  # (pairs, A)
    best_counted = np.full(det_cls.shape + (len(AREA_BUCKETS),), -1.0)
    np.maximum.at(best_counted, (i, d), counted_v)
    best = np.max(v, axis=-1, where=cand, initial=-1.0)
    matched = best_counted[..., None] >= thresholds  # (I, D, A, T)
    taken = matched | (best[..., None, None] >= thresholds)
    contested = (cand & (cand.sum(axis=1, keepdims=True) > 1)).any(-1)
    if contested.any():
        ci, cd = np.nonzero(contested)
        matched[ci, cd], taken[ci, cd] = _replay(v[ci, cd], cand[ci, cd], gt_ignore[ci], ci)
    fp = ~taken & ~det_outside[..., None]
    return matched, fp


def _replay(v, cand, ignored, img):
    """The greedy steps of the contested detections, one image per row.

    v, cand: (K, G) IoUs and candidate flags of the contested detections,
    in image then slot order; ignored: (K, G, A) their images' ground-truth
    ignore flags; img: (K,) their images.  Each image keeps only the
    columns of its contested detections' candidates, in their order, so
    the first-maximal and first-ignored tie rules pick the same ground
    truth.  Returns matched (tp) and taken (a ground truth taken, counted
    or ignored): (K, A, T).
    """
    slot = _run_positions(img)
    starts = np.flatnonzero(slot == 0)
    row = np.cumsum(slot == 0) - 1
    col_row, col_gt = np.nonzero(np.logical_or.reduceat(cand, starts, axis=0))
    col_slot = _run_positions(col_row)
    n_rows, n_slots, n_cols = len(starts), int(slot.max()) + 1, int(col_slot.max()) + 1
    col_of = np.zeros((n_rows, cand.shape[1]), dtype=np.int64)
    col_of[col_row, col_gt] = col_slot
    # Candidate IoUs; every other cell stays 0, below every threshold.
    k, g = np.nonzero(cand)
    sub_v = np.zeros((n_rows, n_slots, n_cols))
    sub_v[row[k], slot[k], col_of[row[k], g]] = v[k, g]
    sub_ignored = np.zeros((n_rows, len(AREA_BUCKETS), n_cols), dtype=bool)
    sub_ignored[col_row, :, col_slot] = ignored[starts[col_row], col_gt]
    # An available counted ground truth ranks by its IoU, an ignored one
    # below any counted one (-1), and a taken or too distant one last (-2);
    # argmax takes the first maximal.
    rank_if_ok = np.where(sub_ignored[:, None], -1.0, sub_v[:, :, None])[:, :, :, None]
    thresholds = np.asarray(IOU_THRESHOLDS)[:, None]
    free = np.ones((n_rows, len(AREA_BUCKETS), len(IOU_THRESHOLDS), n_cols), dtype=bool)
    matched = np.zeros((n_rows, n_slots) + free.shape[1:3], dtype=bool)
    taken = np.zeros_like(matched)
    for s in range(n_slots):
        ok = (sub_v[:, s, None, None] >= thresholds) & free  # (rows, A, T, cols)
        rank = np.where(ok, rank_if_ok[:, s], -2.0)
        col = rank.argmax(-1)
        top = np.take_along_axis(rank, col[..., None], axis=-1)[..., 0]
        matched[:, s], taken[:, s] = top >= 0.0, top > -2.0
        i, a, t = np.nonzero(taken[:, s])
        free[i, a, t, col[i, a, t]] = False
    return matched[row, slot], taken[row, slot]


def _ap_from_flags(
    tp: np.ndarray, fp: np.ndarray, n_gt: np.ndarray, cls: np.ndarray
) -> np.ndarray:
    """101-point interpolated AP of every (class, bucket, threshold) curve.

    tp, fp: (R, A, T) flags of all detections, class by class, each class's
    rows in global score order; cls: (R,) their classes, ascending; n_gt:
    (C, A) counted ground truths.  Returns (C, A, T).

    The precision sampled at recall point r_j is the largest precision at
    or after the first entry with recall >= r_j, or 0 past the end of the
    curve.  Recall rises only at a tp and an fp lowers the precision of the
    entry before it, so that is the largest precision of a tp with recall
    >= r_j.  A detection that is neither tp nor fp changes neither count.
    Each tp lands in the bin of the recall points at or below its recall;
    the maximum from the right over the bins gives every sampled precision.
    """
    n_cls = len(n_gt)
    n_rows, *curve_shape = tp.shape
    # Running counts over all rows, restarted at each class's first row.
    start = np.searchsorted(cls, np.arange(n_cls))[cls]
    tp_run = np.zeros((n_rows + 1, *curve_shape), dtype=np.int64)
    counted_run = np.zeros_like(tp_run)
    np.cumsum(tp, axis=0, out=tp_run[1:])
    np.cumsum(tp | fp, axis=0, out=counted_run[1:])
    r, a, t = np.nonzero(tp)
    tp_c = tp_run[r + 1, a, t] - tp_run[start[r], a, t]
    counted = counted_run[r + 1, a, t] - counted_run[start[r], a, t]
    c = cls[r]
    recall = tp_c / np.maximum(n_gt, 1)[c, a]
    # Bin k holds the tps with exactly k recall points at or below them.
    width = len(RECALL_POINTS) + 1
    k = np.searchsorted(RECALL_POINTS, recall, side="right")
    best = np.zeros((n_cls, *curve_shape, width))
    np.maximum.at(best.reshape(-1), np.ravel_multi_index((c, a, t, k), best.shape),
                  tp_c / counted)
    # Recall point j reads the bins above it: j + 1 and on.
    sampled = np.maximum.accumulate(best[..., ::-1], axis=-1)[..., -2::-1]
    # cumsum adds in order, as a running sum over the recall points does.
    return np.cumsum(sampled, axis=-1)[..., -1] / 101.0


def _rows(per_image, dtype, width=None) -> np.ndarray:
    """The images' rows (of ``width`` columns) concatenated in image order."""
    shape = (-1,) if width is None else (-1, width)
    return np.concatenate([np.asarray(a, dtype=dtype).reshape(shape) for a in per_image])


def evaluate(dets, gts, sizes, task: str, max_dets: int = 100) -> TaskMetrics:
    """Task metrics over a set of images.

    Per image: ``dets`` holds (boxes (D, 4), classes (D,), scores (D,)),
    ``gts`` holds (boxes (G, 4), classes (G,)) and ``sizes`` (width,
    height), the original pixel size for area bucketing.  Boxes are
    normalized center-size.  Every image must carry ground truth labeled
    for the task (evaluation is restricted to fully labeled data for the
    deeper heads).
    """
    if task not in HEAD_NAMES:
        raise ValueError(f"unknown task {task!r}")
    num_classes = HEAD_CLASS_COUNTS[task]
    if not any(len(classes) for _, classes in gts):
        raise ValueError(f"no ground truth labeled for task {task!r}")
    n_img = len(sizes)
    width, height = np.array(sizes).reshape(n_img, 2).T

    g_img = np.repeat(np.arange(n_img), [len(classes) for _, classes in gts])
    g_box = _rows([boxes for boxes, _ in gts], np.float64, 4)
    g_cls = _rows([classes for _, classes in gts], np.int64)
    g_slot = _run_positions(g_img)
    g_ignore = _bucket_outside(_area_px(g_box, width[g_img], height[g_img]))
    n_gt = (  # counted ground truths per (class, bucket)
        (g_cls[:, None] == np.arange(num_classes))[:, :, None]
        & ~g_ignore[:, None, :]
    ).sum(axis=0)

    # Each image's detections by class, then descending score (stable),
    # at most max_dets per class.
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

    d_outside = _bucket_outside(_area_px(d_box, width[d_img], height[d_img]))
    tp, fp = _greedy_match(
        [_pad(x, d_img, d_slot, n_img) for x in (d_box, d_cls, d_outside)],
        [_pad(x, g_img, g_slot, n_img) for x in (g_box, g_cls, g_ignore)],
    )

    # Each class's curve in global score order, ties broken by (image, rank
    # within the class); all classes' curves in one call.
    pr_order = np.lexsort((rank, d_img, -d_score, d_cls))
    pr_rows = d_img[pr_order], d_slot[pr_order]
    tp, fp, pr_cls = tp[pr_rows], fp[pr_rows], d_cls[pr_order]
    all_ap = _ap_from_flags(tp, fp, n_gt, pr_cls)
    bounds = np.searchsorted(pr_cls, np.arange(num_classes + 1))
    t50, t75 = IOU_THRESHOLDS.index(0.5), IOU_THRESHOLDS.index(0.75)
    ar, ap, ap50, ap75, ap_m, ap_l = ([] for _ in range(6))
    for cls, class_ap in enumerate(all_ap):
        if n_gt[cls, 0]:
            n_tp = tp[bounds[cls] : bounds[cls + 1], 0].sum(axis=0)
            ar.append(float(np.mean(n_tp / n_gt[cls, 0])))
            ap.append(float(np.mean(class_ap[0])))
            ap50.append(float(class_ap[0, t50]))
            ap75.append(float(class_ap[0, t75]))
        if n_gt[cls, 1]:
            ap_m.append(float(np.mean(class_ap[1])))
        if n_gt[cls, 2]:
            ap_l.append(float(np.mean(class_ap[2])))

    def mean(per_class):
        return float(np.mean(per_class)) if per_class else -1.0

    return TaskMetrics(
        ar=mean(ar), ap=mean(ap), ap50=mean(ap50), ap75=mean(ap75),
        ap_m=mean(ap_m), ap_l=mean(ap_l),
    )


def detections_to_eval(detected: np.ndarray, task: str):
    """Boxes (D, 4), classes (D,) and scores (D,) of one image's sampler
    records (``train.DETECTED``) for a task.

    The class is the argmax of the task's display probabilities; its score
    is that probability weighted by the detection's objectness.
    """
    probs = detected[f"probs_{task}"]
    classes = probs.argmax(axis=1)
    scores = probs[np.arange(len(detected)), classes] * detected["objectness"]
    return detected["box"], classes, scores


def task_ground_truth(per_image_gts, task: str):
    """Each image's (boxes, classes) for one task: the task's column of its
    (M, 3) class array, which must hold a label (not -1) in every row."""
    col = HEAD_NAMES.index(task)
    out = [(boxes, classes[:, col]) for boxes, classes in per_image_gts]
    if any((classes < 0).any() for _, classes in out):
        raise ValueError(
            f"ground truth lacks {task} labels; "
            "evaluation needs fully labeled data for this task"
        )
    return out


def build_report(per_image_dets, per_image_gts, sizes, tasks=HEAD_NAMES) -> EvalReport:
    """Evaluate several tasks over the same images.

    per_image_dets holds each image's ``train.DETECTED`` record array;
    per_image_gts holds (boxes (M, 4), classes (M, 3)) arrays whose classes
    carry every requested task's column.
    """
    return EvalReport(tasks={
        task: evaluate(
            [detections_to_eval(dets, task) for dets in per_image_dets],
            task_ground_truth(per_image_gts, task),
            sizes,
            task,
        )
        for task in tasks
    })
