"""Hungarian set matching between proposals and ground truth, and the
masked multi-task loss (focal classification + L1 + GIoU).

The assignment cost and the training loss share one set of weights so the
optimizer is trained against the same objective used to pair boxes.
Unmatched proposals are supervised as background through an extra logit on
the deepest supervised head only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import cxcywh_to_xyxy, giou_matrix
from .labels import HeadMask, LabelTriple


@dataclass(frozen=True)
class LossBreakdown:
    cls_q: float
    cls_e: float
    cls_d: float
    l1: float
    giou: float
    total: float


def _cost_matrix(probs, boxes01, gt_boxes, gt_labels, mask: HeadMask, cfg):
    n = boxes01.shape[0]
    m = gt_boxes.shape[0]
    cost = np.zeros((n, m))
    for head in mask.active_heads:
        classes = np.array([lab.class_for(head) for lab in gt_labels], dtype=int)
        cost += cfg.cls_weight * (1.0 - probs[head][:, classes])
    l1 = np.abs(boxes01[:, None, :] - gt_boxes[None, :, :]).sum(axis=2)
    cost += cfg.l1_weight * l1
    cost += cfg.giou_weight * (1.0 - giou_matrix(boxes01, gt_boxes))
    return cost


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


def match_arrays(probs, boxes01, gt_boxes, gt_labels, mask: HeadMask, cfg):
    cost = _cost_matrix(probs, boxes01, gt_boxes, gt_labels, mask, cfg)
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


def loss_forward_backward(
    probs: dict[str, np.ndarray],
    boxes01: np.ndarray,
    gt_boxes: np.ndarray,
    gt_labels: list[LabelTriple],
    pairs: list[tuple[int, int]],
    mask: HeadMask,
    cfg,
):
    """Masked multi-task loss for one image, with gradients.

    Returns (breakdown, dloss/dlogits per supervised head, dloss/dboxes01).
    ``probs`` must come from :func:`model.loss_probs_for_mask`; gradients
    are expressed on the logits behind each of those softmaxes.
    """
    n = boxes01.shape[0]
    gamma = cfg.focal_gamma
    deepest = mask.deepest_head
    pred_idx = np.array([i for i, _ in pairs], dtype=int)
    gt_idx = np.array([j for _, j in pairs], dtype=int)
    n_pairs = len(pairs)

    cls_terms = {"cls_q": 0.0, "cls_e": 0.0, "cls_d": 0.0}
    dlogits: dict[str, np.ndarray] = {}

    for head in mask.active_heads:
        p = probs[head]
        k_loss = p.shape[1]
        dp_t = np.zeros(n)  # dloss/dp_target per row
        targets = np.full(n, -1, dtype=int)
        if head == deepest:
            targets[:] = k_loss - 1  # background
            scale = np.full(n, 1.0 / n)
        else:
            scale = np.zeros(n)
            if n_pairs:
                scale[pred_idx] = 1.0 / n_pairs
        if n_pairs:
            targets[pred_idx] = np.array(
                [gt_labels[j].class_for(head) for j in gt_idx], dtype=int
            )
        active_rows = scale > 0
        rows = np.nonzero(active_rows)[0]
        p_t = p[rows, targets[rows]]
        val, dval = _focal(p_t, gamma)
        cls_terms[_short(head)] = float((val * scale[rows]).sum())
        dp_t[rows] = dval * scale[rows]
        # Softmax backward: dL/dl_j = dL/dp_t * p_t * (delta_tj - p_j)
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
        np.add.at(
            dboxes01, pred_idx, cfg.l1_weight * np.sign(diff) / n_pairs
        )
        gv, gd = giou_pair_grad(pb, gb)
        giou_term = float((1.0 - gv).sum() / n_pairs)
        np.add.at(dboxes01, pred_idx, -cfg.giou_weight * gd / n_pairs)
    else:
        l1 = 0.0
        giou_term = 0.0

    total = (
        cfg.cls_weight
        * (cls_terms["cls_q"] + cls_terms["cls_e"] + cls_terms["cls_d"])
        + cfg.l1_weight * l1
        + cfg.giou_weight * giou_term
    )
    breakdown = LossBreakdown(
        cls_q=cls_terms["cls_q"],
        cls_e=cls_terms["cls_e"],
        cls_d=cls_terms["cls_d"],
        l1=l1,
        giou=giou_term,
        total=total,
    )
    return breakdown, dlogits, dboxes01


def _short(head: str) -> str:
    return {"quadrant": "cls_q", "enumeration": "cls_e", "diagnosis": "cls_d"}[head]
