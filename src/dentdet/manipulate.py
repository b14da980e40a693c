"""Noisy-box manipulation: splice confident boxes inferred by the previous
hierarchy stage into the trailing rows of a noisy proposal set.

Training for a deeper stage concatenates noisy boxes with clean (un-noised)
inferred boxes scoring above a confidence gate; inference always starts from
completely noisy boxes and never touches the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import signal_encode
from .geometry import Box
from .labels import HierarchyLevel


@dataclass(frozen=True)
class InferredBox:
    box: Box
    score: float
    stage: HierarchyLevel


@dataclass
class InferredBoxCache:
    """Per-image confident detections produced by a completed prior stage.

    ``threshold`` is the confidence gate the cache was built with; training
    splices the entries scoring above it.  ``reads`` counts cache lookups so
    pipelines can prove that manipulation was (or was not) exercised.
    """

    threshold: float
    entries: dict[str, list[InferredBox]] = field(default_factory=dict)
    reads: int = 0

    def add(self, image_id: str, box: Box, score: float, stage: HierarchyLevel) -> None:
        if not np.isfinite(score):
            raise ValueError("inferred-box score must be finite")
        self.entries.setdefault(image_id, []).append(InferredBox(box, score, stage))

    def get(self, image_id: str) -> list[InferredBox]:
        self.reads += 1
        return self.entries.get(image_id, [])

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())

    # Line-delimited persistence: image_id, stage, cx, cy, w, h, score.
    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for image_id in sorted(self.entries):
                for e in self.entries[image_id]:
                    b = e.box
                    fields = [float(v) for v in (b.cx, b.cy, b.w, b.h, e.score)]
                    f.write(
                        "\t".join([image_id, e.stage.value, *map(repr, fields)])
                        + "\n"
                    )

    @staticmethod
    def load(path, threshold: float) -> "InferredBoxCache":
        """Read a ``save`` file; ValueError naming the file and line on a
        wrong field count, a non-numeric value, a non-finite score or an
        unknown stage."""
        cache = InferredBoxCache(threshold)
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                try:
                    if len(parts) != 7:
                        raise ValueError(f"expected 7 fields, got {len(parts)}")
                    image_id, stage, *numbers = parts
                    cx, cy, w, h, score = map(float, numbers)
                    cache.add(image_id, Box(cx, cy, w, h), score, HierarchyLevel(stage))
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None
        return cache


def manipulate_boxes(
    noisy: np.ndarray,
    inferred: list[InferredBox],
    score_threshold: float,
    scale: float = 2.0,
) -> np.ndarray:
    """Replace the trailing k noisy rows with confident inferred boxes.

    k = min(#inferred with score > threshold, N), keeping the top-k by score
    (ties broken by input order).  Selected boxes are signal-encoded clean,
    with no noise added, and keep their input order in the output.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    n = noisy.shape[0]
    if not 0.0 < score_threshold <= 1.0:
        raise ValueError("score threshold must lie in (0, 1]")
    candidates = [(i, e) for i, e in enumerate(inferred) if e.score > score_threshold]
    if len(candidates) > n:
        candidates.sort(key=lambda ie: (-ie[1].score, ie[0]))
        candidates = sorted(candidates[:n], key=lambda ie: ie[0])
    k = len(candidates)
    if k == 0:
        return noisy.copy()
    picked = np.stack([e.box.to_array() for _, e in candidates])
    return np.concatenate([noisy[: n - k], signal_encode(picked, scale)], axis=0)


def inference_proposals(
    n: int, rng: np.random.Generator, scale: float = 2.0
) -> np.ndarray:
    """Completely noisy proposals: standard-normal signal-space samples.

    Inference-time proposals are independent of any cache by construction;
    ``scale`` only fixes the signal-space convention shared with decoding.
    """
    if n < 1:
        raise ValueError("proposal count must be >= 1")
    if scale <= 0:
        raise ValueError("signal scale must be positive")
    return rng.standard_normal((n, 4))
