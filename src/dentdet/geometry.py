"""Axis-aligned box primitives: format conversion, IoU/GIoU, NMS.

Internal canonical format is center-size (cx, cy, w, h) normalized to [0, 1].
Corner format (x1, y1, x2, y2) appears only at I/O boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class Overlap:
    """What :func:`overlap` measures of two broadcast sets of boxes."""

    a: np.ndarray  # corners x1, y1, x2, y2 of the first boxes, on axis 0
    b: np.ndarray  # corners of the second boxes
    inter_wh: tuple[np.ndarray, np.ndarray]  # intersection sides, <= 0 when apart
    inter: np.ndarray  # intersection area, 0 where a side is not positive
    union: np.ndarray
    iou: np.ndarray  # 0 where the boxes do not overlap or union <= 0

    @cached_property
    def hull_wh(self) -> tuple[np.ndarray, np.ndarray]:
        """Sides of the enclosing box, computed on first use: IoU callers
        (NMS, scoring) never read them."""
        (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = self.a, self.b
        return (np.maximum(ax2, bx2) - np.minimum(ax1, bx1),
                np.maximum(ay2, by2) - np.minimum(ay1, by1))

    @cached_property
    def hull(self) -> np.ndarray:
        return self.hull_wh[0] * self.hull_wh[1]

    def giou(self) -> np.ndarray:
        """IoU minus the share of the enclosing box outside the union; the
        penalty is 0 where the enclosing box has no positive area."""
        penalty = np.zeros(self.hull.shape)
        np.divide(self.hull - self.union, self.hull, out=penalty, where=self.hull > 0)
        return self.iou - penalty


def overlap(a: np.ndarray, b: np.ndarray) -> Overlap:
    """Overlap of (..., 4) center-size boxes, element by element.

    The leading axes broadcast.  Uses the float operations of ``iou`` in its
    order, with areas ``max(0, w) * max(0, h)`` from the sizes rather than
    the corners, so each IoU equals the scalar one bit for bit and
    exact-threshold matches come out the same either way.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ax1, ay1, ax2, ay2 = ac = np.moveaxis(cxcywh_to_xyxy(a), -1, 0)
    bx1, by1, bx2, by2 = bc = np.moveaxis(cxcywh_to_xyxy(b), -1, 0)
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    has = (iw > 0) & (ih > 0)
    inter = np.where(has, iw * ih, 0.0)
    union = _area(a) + _area(b) - inter
    iou = np.zeros(inter.shape)
    np.divide(inter, union, out=iou, where=has & (union > 0))
    return Overlap(ac, bc, (iw, ih), inter, union, iou)


def _area(boxes: np.ndarray) -> np.ndarray:
    """Box.area of each center-size box: max(0, w) * max(0, h)."""
    return np.maximum(boxes[..., 2], 0.0) * np.maximum(boxes[..., 3], 0.0)


def _pairs(a, b) -> Overlap:
    """:func:`overlap` of every (..., N, 4) row of ``a`` with every
    (..., M, 4) row of ``b``: (..., N, M) terms."""
    return overlap(np.asarray(a)[..., :, None, :], np.asarray(b)[..., None, :, :])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (..., N, 4) and (..., M, 4) center-size arrays;
    leading dimensions broadcast and the result is (..., N, M)."""
    return _pairs(a, b).iou


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise GIoU between (..., N, 4) and (..., M, 4) center-size arrays;
    shapes as in :func:`iou_matrix`.

    Runs the float operations of :func:`overlap` and :meth:`Overlap.giou`,
    in their order, so each value is the one those give; the terms are built
    in place in five (..., N, M) buffers, which matching's cost slices
    count on.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac, bc = cxcywh_to_xyxy(a)[..., :, None, :], cxcywh_to_xyxy(b)[..., None, :, :]
    ax1, ay1, ax2, ay2 = (ac[..., k] for k in range(4))
    bx1, by1, bx2, by2 = (bc[..., k] for k in range(4))
    shape = np.broadcast_shapes(ax1.shape, bx1.shape)
    iw, ih, union = np.empty(shape), np.empty(shape), np.empty(shape)
    inter, iou = np.zeros(shape), np.zeros(shape)
    np.minimum(ax2, bx2, out=iw)
    iw -= np.maximum(ax1, bx1, out=union)
    np.minimum(ay2, by2, out=ih)
    ih -= np.maximum(ay1, by1, out=union)
    has = iw > 0
    has &= ih > 0
    np.multiply(iw, ih, out=inter, where=has)
    np.add(_area(a)[..., :, None], _area(b)[..., None, :], out=union)
    union -= inter
    has &= union > 0
    np.divide(inter, union, out=iou, where=has)
    # The enclosing box's sides and area, in the spent buffers.
    hull = np.maximum(ax2, bx2, out=iw)
    hull -= np.minimum(ax1, bx1, out=inter)
    np.maximum(ay2, by2, out=ih)
    ih -= np.minimum(ay1, by1, out=inter)
    hull *= ih
    np.subtract(hull, union, out=union)
    penalty = ih
    penalty.fill(0.0)
    np.divide(union, hull, out=penalty, where=hull > 0)
    iou -= penalty
    return iou


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
