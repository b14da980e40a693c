"""Hand-built ground truth and Box-based evaluation input, for the oracles,
the assignment cost and solver that the matching kernels replaced, and the
small training batch of the finite-difference checks.

The package holds ground truth as per-image arrays: (M, 4) boxes and (M, 3)
class rows.  Hand-built cases write a class row with :func:`class_row`, and
the scorer's oracles write boxes as :class:`~dentdet.geometry.Box` objects,
converted at the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dentdet import matching
from dentdet.diffusion import signal_encode
from dentdet.evalmetrics import evaluate
from dentdet.geometry import overlap
from dentdet.labels import HEAD_NAMES


def class_row(*indices: int) -> tuple[int, ...]:
    """One ground-truth class row: the given quadrant, enumeration and
    diagnosis indices, shallow to deep, and -1 for the heads left out."""
    return (*indices, *(-1,) * (len(HEAD_NAMES) - len(indices)))


def class_rows(rows) -> np.ndarray:
    """(M, 3) int64 classes of M class rows, as ``TrainSample`` holds them."""
    return np.array(list(rows), dtype=np.int64).reshape(-1, len(HEAD_NAMES))


def box_array(boxes) -> np.ndarray:
    """(M, 4) center-size rows of M Box objects."""
    return np.array([b.to_array() for b in boxes], dtype=np.float64).reshape(-1, 4)


@dataclass(frozen=True)
class EvalInstance:
    """One image's evaluation input for one task.

    dets: (box, class_id, score) triples; gts: (box, class_id) pairs.
    width/height give the original pixel size for area bucketing.
    """

    dets: tuple
    gts: tuple
    width: int
    height: int


def eval_arrays(instances):
    """``evaluate``'s dets, gts and sizes for Box-based instances."""
    dets = [
        (box_array(b for b, _, _ in inst.dets),
         np.array([c for _, c, _ in inst.dets], dtype=np.int64),
         np.array([s for _, _, s in inst.dets], dtype=np.float64))
        for inst in instances
    ]
    gts = [
        (box_array(b for b, _ in inst.gts),
         np.array([c for _, c in inst.gts], dtype=np.int64))
        for inst in instances
    ]
    sizes = [(inst.width, inst.height) for inst in instances]
    return dets, gts, sizes


def score(instances, task: str, max_dets: int = 100):
    """``evaluate`` on the arrays of Box-based instances."""
    return evaluate(*eval_arrays(instances), task, max_dets)


# ---------------------------------------------------------------------------
# Assignment oracles: ``matching._cost_matrix`` and ``solve_assignment`` as
# they were before the cost was built in place and the tie-break grid cached.
# The package's versions must equal them bit for bit.


def oracle_cost_matrix(probs, boxes01, gt_boxes, gt_classes, level, cfg):
    """(..., N, M) assignment costs of (..., N, 4) proposals, with (..., N, K)
    probabilities per head, against (..., M, 4) ground-truth boxes with
    (..., M, 3) classes; leading axes index images."""
    cost = np.zeros(boxes01.shape[:-1] + gt_boxes.shape[-2:-1])
    for col, head in enumerate(level.heads):
        p_gt = np.take_along_axis(probs[head], gt_classes[..., None, :, col], axis=-1)
        cost += cfg.cls_weight * (1.0 - p_gt)
    l1 = np.abs(boxes01[..., :, None, :] - gt_boxes[..., None, :, :]).sum(axis=-1)
    cost += cfg.l1_weight * l1
    giou = overlap(boxes01[..., :, None, :], gt_boxes[..., None, :, :]).giou()
    cost += cfg.giou_weight * (1.0 - giou)
    return cost


def oracle_solve_assignment(cost):
    """Optimal assignment of every column (gt) to a distinct row (pred),
    with ties broken toward lexicographically smallest pairs."""
    n, m = cost.shape
    if m > n:
        raise ValueError(f"more ground-truth boxes ({m}) than proposals ({n})")
    if m == 0:
        return []
    scale = max(1.0, np.abs(cost).max())
    tweak = scale * 1e-12 * (
        np.arange(n)[:, None] * m + np.arange(m)[None, :]
    )
    rows, cols = matching.linear_sum_assignment(cost + tweak)
    return sorted(zip(rows.tolist(), cols.tolist()), key=lambda p: p[1])


# ---------------------------------------------------------------------------
# A training batch for the finite-difference checks.

# Each image's two ground-truth boxes, normalized center-size.
GRAD_GT_BOXES = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.6, 0.25, 0.3]])


def grad_batch(rng, level, cfg, n_images: int):
    """``loss_gradients``' batch arguments (grids, z, t, gt_boxes,
    gt_classes) for ``n_images`` images: random (G, G, C) grids, and three
    proposals per image at t = 300, two near the image's two ground-truth
    boxes and one at random.  Draws from ``rng`` image by image: the grid,
    then the random box, then the proposals' noise."""
    grids, z, gt_classes = [], [], []
    for _ in range(n_images):
        grids.append(rng.normal(size=(cfg.grid, cfg.grid, cfg.channels)))
        boxes = np.vstack([GRAD_GT_BOXES, rng.uniform(0.2, 0.8, 4)])
        z.append(signal_encode(boxes, cfg.scale) + 0.1 * rng.standard_normal((3, 4)))
        gt_classes.append(
            class_rows(class_row(*(i, i + 2, i)[: len(level.heads)]) for i in range(2))
        )
    gt_boxes = [GRAD_GT_BOXES.copy() for _ in range(n_images)]
    return np.stack(grids), np.stack(z), np.full(n_images, 300.0), gt_boxes, gt_classes
