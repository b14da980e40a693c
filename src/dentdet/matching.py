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

from .geometry import giou_matrix, overlap
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
    """(..., N, M) assignment costs of (..., N, 4) proposals, with (..., N, K)
    probabilities per head, against (..., M, 4) ground-truth boxes with
    (..., M, 3) classes; leading axes index images.

    The cost is ``cls_weight * (1 - p_gt)`` summed over the level's heads,
    plus ``l1_weight * |pred - gt|.sum(-1)``, plus ``giou_weight * (1 -
    GIoU)``.  Each term is built in place in a few (..., N, M) buffers, with
    the float operations of that formula in its order, so the costs are the
    bits it gives.
    """
    cost = np.zeros(boxes01.shape[:-1] + gt_boxes.shape[-2:-1])
    term = np.empty(cost.shape)
    for col, head in enumerate(level.heads):
        for i in np.ndindex(cost.shape[:-2]):
            # Each gt's class column of the image's (N, K) probabilities.
            term[i] = probs[head][i].T[gt_classes[i][:, col]].T
        np.subtract(1.0, term, out=term)
        term *= cfg.cls_weight
        cost += term
    pred, gt = boxes01[..., :, None, :], gt_boxes[..., None, :, :]
    # |d0| + |d1| + |d2| + |d3|, the order of numpy's sum over four values.
    l1 = np.abs(pred[..., 0] - gt[..., 0])
    for k in range(1, 4):
        l1 += np.abs(np.subtract(pred[..., k], gt[..., k], out=term), out=term)
    l1 *= cfg.l1_weight
    cost += l1
    del l1, term  # giou_matrix builds its terms in buffers of its own
    giou = giou_matrix(boxes01, gt_boxes)
    np.subtract(1.0, giou, out=giou)
    giou *= cfg.giou_weight
    cost += giou
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
    with ties broken toward lexicographically smallest pairs.  A non-finite
    cost raises ``FloatingPointError``."""
    n, m = cost.shape
    if m > n:
        raise ValueError(f"more ground-truth boxes ({m}) than proposals ({n})")
    if m == 0:
        return []
    top = np.abs(cost).max()
    if not np.isfinite(top):
        bad = cost.size - np.count_nonzero(np.isfinite(cost))
        raise FloatingPointError(f"non-finite assignment costs: {bad} of {cost.size}")
    # Tiny index-dependent perturbation fixes the tie-break without moving
    # the optimum on generic instances.
    tweaked = np.arange(n * m, dtype=np.float64).reshape(n, m)  # i * m + j
    tweaked *= max(1.0, top) * 1e-12
    tweaked += cost
    rows, cols = linear_sum_assignment(tweaked)
    order = np.argsort(cols)
    return list(zip(rows[order].tolist(), cols[order].tolist()))


# Proposal rows whose costs are built at once: a 64-proposal training batch
# builds its cost tensor four images at a time.  A slice holds at most six
# (rows, M) float64 buffers at once (the cost and giou_matrix's five terms)
# and two boolean masks, so it stays below the step's peak memory, which the
# forward pass sets.
COST_SLICE_ROWS = 256


def match_arrays(probs, boxes01, gt_boxes, gt_classes, level: HierarchyLevel, cfg):
    """Assignment of ground truth to proposals.

    One image's (N, 4) proposals and (M, 4) ground-truth boxes, with (M, 3)
    classes (-1 where a head has no label), give its (proposal, gt) pairs.  A
    lockstep block's (B, N, 4) proposals and B per-image ground-truth
    arrays give B pair lists: the block's costs are one (B, N, M_max)
    tensor, built :data:`COST_SLICE_ROWS` rows at a time with ground truth
    padded to the largest M, and each image is solved on its own M columns.
    """
    if np.ndim(boxes01) == 2:
        one = {head: p[None] for head, p in probs.items()}
        return match_arrays(one, boxes01[None], [gt_boxes], [gt_classes], level, cfg)[0]
    b, n = boxes01.shape[:2]
    counts = [len(g) for g in gt_boxes]
    boxes = np.zeros((b, max(counts, default=0), 4))
    classes = np.zeros(boxes.shape[:2] + (len(HEAD_NAMES),), dtype=np.int64)
    for i, (g, c) in enumerate(zip(gt_boxes, gt_classes)):
        boxes[i, : len(g)], classes[i, : len(c)] = g, c
    cost = np.empty(boxes01.shape[:2] + boxes.shape[1:2])
    step = max(1, COST_SLICE_ROWS // max(n, 1))
    for lo in range(0, b, step):
        part = slice(lo, lo + step)
        cost[part] = _cost_matrix(
            {head: p[part] for head, p in probs.items()}, boxes01[part],
            boxes[part], classes[part], level, cfg,
        )
    return [solve_assignment(c[:, :m]) for c, m in zip(cost, counts)]


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
    """GIoU of paired boxes (:meth:`geometry.Overlap.giou`) plus its
    gradient w.r.t. the predicted center-size coordinates.  Both inputs are
    (M, 4) normalized cxcywh."""
    o = overlap(pred, gt)
    (x1, y1, x2, y2), (gx1, gy1, gx2, gy2) = o.a, o.b
    iw, ih = o.inter_wh
    hw, hh = o.hull_wh
    w, h = np.maximum(np.asarray(pred, dtype=np.float64)[:, 2:].T, 0.0)
    union, hull = o.union, o.hull

    # Partials w.r.t. pred corners x1, y1, x2, y2.
    da = np.stack([-h, -w, h, w])
    di = np.stack(
        [-ih * (x1 > gx1), -iw * (y1 > gy1), ih * (x2 < gx2), iw * (y2 < gy2)]
    ) * ((iw > 0) & (ih > 0))
    dhull = np.stack(
        [-hh * (x1 < gx1), -hw * (y1 < gy1), hh * (x2 > gx2), hw * (y2 > gy2)]
    )
    du = da - di
    diou = (di * union - o.inter * du) / np.maximum(union, 1e-300) ** 2
    dpen = (du * hull - union * dhull) / np.maximum(hull, 1e-300) ** 2
    dx1, dy1, dx2, dy2 = diou + np.where(hull > 0, dpen, 0.0)

    # Chain corners back to center-size.
    dcxcywh = [dx1 + dx2, dy1 + dy2, (dx2 - dx1) / 2, (dy2 - dy1) / 2]
    return o.giou(), np.stack(dcxcywh, axis=1)


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
    n_pairs = np.array([len(p) for p in pairs], dtype=np.int64)
    pair_bounds = np.concatenate([[0], np.cumsum(n_pairs)])
    idx = np.array([ij for p in pairs for ij in p], dtype=np.int64).reshape(-1, 2)
    pred_idx = np.repeat(offsets[:-1], n_pairs) + idx[:, 0]
    gt_starts = np.cumsum([0] + [len(g) for g in gt_boxes[:-1]])
    gt_idx = np.repeat(gt_starts, n_pairs) + idx[:, 1]
    gb = np.concatenate(gt_boxes)[gt_idx]
    gc = np.concatenate(gt_classes)[gt_idx]
    per_pair = np.repeat(n_pairs, n_pairs)  # pair count of each pair's image
    by_row = np.argsort(pred_idx)  # matched rows are distinct

    terms = [[0.0] * b for _ in HEAD_NAMES]  # per head, each image's term
    dlogits: dict[str, np.ndarray] = {}
    for col, head in enumerate(level.heads):
        p = probs[head]
        if head == deepest:  # every row: its match's class, else background
            rows = np.arange(n_rows)
            sizes = np.diff(offsets)
            scale = np.repeat(1.0 / sizes, sizes)
            tgt = np.full(n_rows, p.shape[1] - 1, dtype=np.int64)
            tgt[pred_idx] = gc[:, col]
            bounds = offsets
        else:  # matched rows, in row order per image
            rows = pred_idx[by_row]
            scale = (1.0 / per_pair)[by_row]
            tgt = gc[by_row, col]
            bounds = pair_bounds
        p_t = p[rows, tgt]
        val, dval = _focal(p_t, gamma)
        terms[col] = _segment_sums(val * scale, bounds)
        # Softmax backward: dL/dl_j = dL/dp_t * p_t * (delta_tj - p_j)
        coef = dval * scale * p_t
        dl = np.zeros(p.shape)
        dl[rows] = -coef[:, None] * p[rows]
        dl[rows, tgt] += coef
        dl *= cfg.cls_weight
        dlogits[head] = dl

    pb = boxes01[pred_idx]
    diff = pb - gb
    gv, gd = giou_pair_grad(pb, gb)
    # Each matched row's gradient, summed from 0 as the unmatched rows' is.
    grad = np.zeros(pb.shape)
    grad += cfg.l1_weight * np.sign(diff) / per_pair[:, None]
    grad += -cfg.giou_weight * gd / per_pair[:, None]
    dboxes01 = np.zeros_like(boxes01)
    dboxes01[pred_idx] = grad
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
