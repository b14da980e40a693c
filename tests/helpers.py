"""Hand-built ground truth and Box-based evaluation input, for the oracles.

The package holds ground truth as per-image arrays: (M, 4) boxes and (M, 3)
class rows.  Hand-built cases write a class row with :func:`class_row`, and
the scorer's oracles write boxes as :class:`~dentdet.geometry.Box` objects,
converted at the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dentdet.evalmetrics import evaluate
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
