"""Hungarian set matching between proposals and ground truth, and the
masked multi-task loss (focal classification + L1 + GIoU).

The assignment cost and the training loss share one set of weights so the
optimizer is trained against the same objective used to pair boxes.
Unmatched proposals are supervised as background through an extra logit on
the deepest supervised head only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import cxcywh_to_xyxy, giou_matrix
from .labels import HEAD_NAMES, HierarchyLevel


@dataclass(frozen=True)
class LossBreakdown:
    cls_q: float
    cls_e: float
    cls_d: float
    l1: float
    giou: float
    total: float
    matched_pairs: int = 0


def _cost_matrix(probs, boxes01, gt_boxes, gt_classes, level: HierarchyLevel, cfg):
    n = boxes01.shape[0]
    m = gt_boxes.shape[0]
    cost = np.zeros((n, m))
    for col, head in enumerate(level.heads):
        cost += cfg.cls_weight * (1.0 - probs[head][:, gt_classes[:, col]])
    l1 = np.abs(boxes01[:, None, :] - gt_boxes[None, :, :]).sum(axis=2)
    cost += cfg.l1_weight * l1
    cost += cfg.giou_weight * (1.0 - giou_matrix(boxes01, gt_boxes))
    return cost


_scipy_solver = None


def linear_sum_assignment(cost: np.ndarray):
    """``scipy.optimize.linear_sum_assignment``, imported on the first call.

    Only training solves assignments, and importing ``scipy.optimize`` more
    than doubles the resident memory of a process that only infers and
    scores, so those never load it.
    """
    global _scipy_solver
    if _scipy_solver is None:
        from scipy.optimize import linear_sum_assignment as _scipy_solver
    return _scipy_solver(cost)


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Optimal assignment of every column (gt) to a distinct row (pred),
    with ties broken toward lexicographically smallest pairs."""
    n, m = cost.shape
    if m > n:
        raise ValueError(f"more ground-truth boxes ({m}) than proposals ({n})")
    if m == 0:
        return []
    # Tiny index-dependent perturbation fixes the tie-break without moving
    # the optimum on generic instances.
    scale = max(1.0, np.abs(cost).max())
    tweak = scale * 1e-12 * (
        np.arange(n)[:, None] * m + np.arange(m)[None, :]
    )
    rows, cols = linear_sum_assignment(cost + tweak)
    return sorted(zip(rows.tolist(), cols.tolist()), key=lambda p: p[1])


def match_arrays(probs, boxes01, gt_boxes, gt_classes, level: HierarchyLevel, cfg):
    """Assignment of one image's (M, 4) ground-truth boxes, with (M, 3)
    ``labels.class_array`` classes, to its proposals."""
    cost = _cost_matrix(probs, boxes01, gt_boxes, gt_classes, level, cfg)
    return solve_assignment(cost)


def _focal(p_t: np.ndarray, gamma: float):
    """Focal-modulated cross entropy on the target probability, with its
    derivative w.r.t. p_t."""
    p_t = np.asarray(p_t, dtype=np.float64)
    logp = np.log(np.maximum(p_t, 1e-300))
    val = (1.0 - p_t) ** gamma * (-logp)
    dval = gamma * (1.0 - p_t) ** (gamma - 1) * logp - (1.0 - p_t) ** gamma / np.maximum(
        p_t, 1e-300
    )
    return val, dval


def giou_pair_grad(pred: np.ndarray, gt: np.ndarray):
    """GIoU of paired boxes plus its gradient w.r.t. the predicted
    center-size coordinates.  Both inputs are (M, 4) normalized cxcywh."""
    p = cxcywh_to_xyxy(pred)
    g = cxcywh_to_xyxy(gt)
    x1, y1, x2, y2 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    gx1, gy1, gx2, gy2 = g[:, 0], g[:, 1], g[:, 2], g[:, 3]
    w = np.clip(x2 - x1, 0, None)
    h = np.clip(y2 - y1, 0, None)
    area_p = w * h
    area_g = np.clip(gx2 - gx1, 0, None) * np.clip(gy2 - gy1, 0, None)

    iw = np.minimum(x2, gx2) - np.maximum(x1, gx1)
    ih = np.minimum(y2, gy2) - np.maximum(y1, gy1)
    has_i = (iw > 0) & (ih > 0)
    inter = np.where(has_i, iw * ih, 0.0)
    union = area_p + area_g - inter

    hw = np.maximum(x2, gx2) - np.minimum(x1, gx1)
    hh = np.maximum(y2, gy2) - np.minimum(y1, gy1)
    hull = hw * hh

    iou = np.where(union > 0, inter / np.maximum(union, 1e-300), 0.0)
    giou = iou - np.where(hull > 0, (hull - union) / np.maximum(hull, 1e-300), 0.0)

    # Partials w.r.t. pred corners.
    da = np.stack([-h, -w, h, w], axis=1)  # order: x1, y1, x2, y2
    di = np.stack(
        [
            -ih * (x1 > gx1),
            -iw * (y1 > gy1),
            ih * (x2 < gx2),
            iw * (y2 < gy2),
        ],
        axis=1,
    ) * has_i[:, None]
    dhull = np.stack(
        [
            -hh * (x1 < gx1),
            -hw * (y1 < gy1),
            hh * (x2 > gx2),
            hw * (y2 > gy2),
        ],
        axis=1,
    )
    du = da - di
    u2 = np.maximum(union, 1e-300) ** 2
    h2 = np.maximum(hull, 1e-300) ** 2
    diou = (di * union[:, None] - inter[:, None] * du) / u2[:, None]
    dpen = (du * hull[:, None] - union[:, None] * dhull) / h2[:, None]
    dgiou_xyxy = diou + np.where((hull > 0)[:, None], dpen, 0.0)

    # Chain corners back to center-size.
    dcx = dgiou_xyxy[:, 0] + dgiou_xyxy[:, 2]
    dcy = dgiou_xyxy[:, 1] + dgiou_xyxy[:, 3]
    dw = (dgiou_xyxy[:, 2] - dgiou_xyxy[:, 0]) / 2
    dh = (dgiou_xyxy[:, 3] - dgiou_xyxy[:, 1]) / 2
    return giou, np.stack([dcx, dcy, dw, dh], axis=1)


def _segment_sums(values: np.ndarray, bounds) -> list[float]:
    """Sum of each ``values[lo:hi]`` over consecutive ``bounds``, each
    segment summed on its own (numpy's pairwise order for that length)."""
    return [float(values[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])]


def loss_forward_backward(
    probs: dict[str, np.ndarray],
    boxes01: np.ndarray,
    offsets: np.ndarray,
    pairs: list[list[tuple[int, int]]],
    gt_boxes: list[np.ndarray],
    gt_classes: list[np.ndarray],
    level: HierarchyLevel,
    cfg,
):
    """Masked multi-task loss of a batch of images, with gradients.

    The rows of ``probs`` (from :func:`model.loss_probs_for_mask`) and
    ``boxes01`` stack the images' proposals: image i owns rows
    ``offsets[i]:offsets[i + 1]``, ``pairs[i]`` is its assignment and
    ``gt_boxes[i]``, ``gt_classes[i]`` its targets.  Each image's loss is
    normalized as if alone; the breakdown is their mean, summed image by
    image.  Returns (breakdown, dloss/dlogits per supervised head,
    dloss/dboxes01) with gradients of the sum of the per-image losses,
    expressed on the logits behind each softmax.  A non-finite loss raises
    ``FloatingPointError`` naming the image's non-finite terms.
    """
    b = len(pairs)
    offsets = np.asarray(offsets)
    n_rows = offsets[-1]
    gamma = cfg.focal_gamma
    deepest = level.deepest_head
    idx = [np.array(p, dtype=np.int64).reshape(-1, 2) for p in pairs]
    n_pairs = np.array([len(p) for p in idx])
    pair_bounds = np.concatenate([[0], np.cumsum(n_pairs)])
    pred_idx = np.concatenate([lo + p[:, 0] for lo, p in zip(offsets, idx)])
    per_pair = np.repeat(n_pairs, n_pairs)  # pair count of each pair's image
    gb = np.concatenate([g[p[:, 1]] for g, p in zip(gt_boxes, idx)])
    gc = np.concatenate([c[p[:, 1]] for c, p in zip(gt_classes, idx)])

    terms = [[0.0] * b for _ in HEAD_NAMES]  # per head, each image's term
    dlogits: dict[str, np.ndarray] = {}
    for col, head in enumerate(level.heads):
        p = probs[head]
        targets = np.full(n_rows, -1, dtype=np.int64)
        if head == deepest:
            targets[:] = p.shape[1] - 1  # background
            sizes = np.diff(offsets)
            scale = np.repeat(1.0 / sizes, sizes)
            bounds = offsets
        else:
            scale = np.zeros(n_rows)
            scale[pred_idx] = 1.0 / per_pair
            bounds = pair_bounds  # matched rows, in row order per image
        targets[pred_idx] = gc[:, col]
        rows = np.nonzero(scale > 0)[0]
        tgt = targets[rows]
        p_t = p[rows, tgt]
        val, dval = _focal(p_t, gamma)
        terms[col] = _segment_sums(val * scale[rows], bounds)
        # Softmax backward: dL/dl_j = dL/dp_t * p_t * (delta_tj - p_j)
        coef = dval * scale[rows] * p_t
        dl = np.zeros(p.shape)
        dl[rows] = -coef[:, None] * p[rows]
        dl[rows, tgt] += coef
        dl *= cfg.cls_weight
        dlogits[head] = dl

    dboxes01 = np.zeros_like(boxes01)
    pb = boxes01[pred_idx]
    diff = pb - gb
    np.add.at(dboxes01, pred_idx, cfg.l1_weight * np.sign(diff) / per_pair[:, None])
    gv, gd = giou_pair_grad(pb, gb)
    np.add.at(dboxes01, pred_idx, -cfg.giou_weight * gd / per_pair[:, None])
    l1_sums = _segment_sums(np.abs(diff), pair_bounds)
    giou_sums = _segment_sums(1.0 - gv, pair_bounds)

    totals = np.zeros(6)
    for i in range(b):
        cls = [t[i] for t in terms]
        n = int(n_pairs[i])
        l1 = l1_sums[i] / n if n else 0.0
        giou = giou_sums[i] / n if n else 0.0
        total = (
            cfg.cls_weight * sum(cls[1:], start=cls[0])  # no 0.0 start: keeps a -0.0
            + cfg.l1_weight * l1
            + cfg.giou_weight * giou
        )
        if not np.isfinite(total):
            names = [f.name for f in fields(LossBreakdown)]  # cls_*, l1, giou, ...
            bad = [k for k, v in zip(names, (*cls, l1, giou)) if not np.isfinite(v)]
            raise FloatingPointError(f"non-finite loss terms: {bad}")
        totals += np.array([*cls, l1, giou, total])
    totals /= b
    breakdown = LossBreakdown(*totals, matched_pairs=int(n_pairs.sum()))
    return breakdown, dlogits, dboxes01
