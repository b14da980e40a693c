"""Axis-aligned box primitives: format conversion, IoU/GIoU, NMS.

Internal canonical format is center-size (cx, cy, w, h) normalized to [0, 1].
Corner format (x1, y1, x2, y2) appears only at I/O boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_SIZE = 1e-4


@dataclass(frozen=True)
class Box:
    """One box in normalized center-size coordinates."""

    cx: float
    cy: float
    w: float
    h: float

    def to_xyxy(self) -> tuple[float, float, float, float]:
        return (
            self.cx - self.w / 2,
            self.cy - self.h / 2,
            self.cx + self.w / 2,
            self.cy + self.h / 2,
        )

    @staticmethod
    def from_xyxy(x1: float, y1: float, x2: float, y2: float) -> "Box":
        return Box((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)

    def area(self) -> float:
        return max(0.0, self.w) * max(0.0, self.h)

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Box":
        return Box(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def cxcywh_to_xyxy(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) center-size -> (N, 4) corners."""
    boxes = np.asarray(boxes, dtype=np.float64)
    half = boxes[..., 2:] / 2
    return np.concatenate([boxes[..., :2] - half, boxes[..., :2] + half], axis=-1)


def iou(a: Box, b: Box) -> float:
    """Intersection over union; degenerate (zero-area) inputs give 0."""
    ax1, ay1, ax2, ay2 = a.to_xyxy()
    bx1, by1, bx2, by2 = b.to_xyxy()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area() + b.area() - inter
    if union <= 0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (..., N, 4) and (..., M, 4) center-size arrays.

    Leading dimensions broadcast; the result is (..., N, M).  Uses the float
    operations of ``iou`` in its order, with areas from the sizes rather
    than the corners, so every cell equals the scalar IoU bit for bit and
    exact-threshold matches come out the same either way.
    """
    a = np.asarray(a, dtype=np.float64)[..., :, None, :]
    b = np.asarray(b, dtype=np.float64)[..., None, :, :]
    ax1, ay1, ax2, ay2 = np.moveaxis(cxcywh_to_xyxy(a), -1, 0)
    bx1, by1, bx2, by2 = np.moveaxis(cxcywh_to_xyxy(b), -1, 0)
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = _area(a) + _area(b) - inter
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=(iw > 0) & (ih > 0) & (union > 0))
    return out


def _area(boxes: np.ndarray) -> np.ndarray:
    """Box.area of each center-size box: max(0, w) * max(0, h)."""
    return np.maximum(boxes[..., 2], 0.0) * np.maximum(boxes[..., 3], 0.0)


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise GIoU between (N, 4) and (M, 4) center-size arrays."""
    a = cxcywh_to_xyxy(np.asarray(a, dtype=np.float64))
    b = cxcywh_to_xyxy(np.asarray(b, dtype=np.float64))
    tl = np.maximum(a[:, None, :2], b[None, :, :2])
    br = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(br - tl, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = np.clip(a[:, 2] - a[:, 0], 0, None) * np.clip(a[:, 3] - a[:, 1], 0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0, None) * np.clip(b[:, 3] - b[:, 1], 0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    iou_v = np.zeros_like(inter)
    np.divide(inter, union, out=iou_v, where=union > 0)
    htl = np.minimum(a[:, None, :2], b[None, :, :2])
    hbr = np.maximum(a[:, None, 2:], b[None, :, 2:])
    hwh = np.clip(hbr - htl, 0.0, None)
    hull = hwh[..., 0] * hwh[..., 1]
    penalty = np.zeros_like(inter)
    np.divide(hull - union, hull, out=penalty, where=hull > 0)
    return iou_v - penalty


def nms(
    boxes: np.ndarray, scores: np.ndarray, iou_threshold: float
) -> tuple[np.ndarray, ...]:
    """Greedy non-maximum suppression over (..., N, 4) center-size boxes,
    each set of N rows on its own.

    Returns the kept boxes' indices as ``np.nonzero`` does, one array per
    axis of ``scores``: set by set in C order, each set's kept rows in
    descending score order, ties going to the lower index.  A box is kept
    when its IoU with every box kept before it is at most the threshold.
    One IoU array and one sweep over the rows serve every set.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim < 1 or boxes.shape != scores.shape + (4,):
        raise ValueError("nms needs (..., N, 4) boxes and (..., N) scores")
    if not np.isfinite(scores).all():
        raise ValueError("nms requires finite scores")
    order = np.argsort(-scores, axis=-1, kind="stable")
    ranked = np.take_along_axis(boxes, order[..., None], axis=-2)
    over = iou_matrix(ranked, ranked) > iou_threshold  # (..., N, N)
    suppressed = np.zeros(scores.shape, dtype=bool)
    kept = np.zeros(scores.shape, dtype=bool)
    for i in range(scores.shape[-1]):
        np.logical_not(suppressed[..., i], out=kept[..., i])
        np.logical_or(suppressed, over[..., i, :], out=suppressed,
                      where=kept[..., i, None])
    return (*np.nonzero(kept)[:-1], order[kept])
