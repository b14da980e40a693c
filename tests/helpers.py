"""Ground truth and evaluation input as Box objects, for the oracles.

The package keeps ground truth as per-image arrays; the tests' oracles and
hand-built cases are written with :class:`~dentdet.geometry.Box` objects
and convert at the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dentdet.evalmetrics import evaluate
from dentdet.labels import class_array


def _boxes(boxes) -> np.ndarray:
    return np.array([b.to_array() for b in boxes], dtype=np.float64).reshape(-1, 4)


def truth_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    """(M, 4) boxes and (M, 3) ``class_array`` classes of (Box, LabelTriple)
    pairs, as ``TrainSample`` holds them."""
    return _boxes(b for b, _ in pairs), class_array([lab for _, lab in pairs])


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
        (_boxes(b for b, _, _ in inst.dets),
         np.array([c for _, c, _ in inst.dets], dtype=np.int64),
         np.array([s for _, _, s in inst.dets], dtype=np.float64))
        for inst in instances
    ]
    gts = [
        (_boxes(b for b, _ in inst.gts),
         np.array([c for _, c in inst.gts], dtype=np.int64))
        for inst in instances
    ]
    sizes = [(inst.width, inst.height) for inst in instances]
    return dets, gts, sizes


def score(instances, task: str, max_dets: int = 100):
    """``evaluate`` on the arrays of Box-based instances."""
    return evaluate(*eval_arrays(instances), task, max_dets)
