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

# One cached detection: its [0, 1] center-size box and its score.
INFERRED = np.dtype([("box", np.float64, (4,)), ("score", np.float64)])


def inferred_boxes(rows) -> np.recarray:
    """Record array of cached detections from (cx, cy, w, h, score) rows."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    out = np.recarray(len(rows), dtype=INFERRED)
    out.box = rows[:, :4]
    out.score = rows[:, 4]
    return out


_NO_BOXES = inferred_boxes([])
_NO_BOXES.flags.writeable = False


@dataclass
class InferredBoxCache:
    """Per-image confident detections produced by a completed prior stage.

    ``entries`` maps an image id to its :func:`inferred_boxes` record array.
    ``threshold`` is the confidence gate the cache was built with; training
    splices the entries scoring above it.  ``reads`` counts cache lookups so
    pipelines can prove that manipulation was (or was not) exercised.
    """

    threshold: float
    entries: dict[str, np.recarray] = field(default_factory=dict)
    reads: int = 0

    def get(self, image_id: str) -> np.recarray:
        """The image's records; one shared read-only empty array if none."""
        self.reads += 1
        return self.entries.get(image_id, _NO_BOXES)

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())

    # Line-delimited persistence: image_id, cx, cy, w, h, score.
    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for image_id in sorted(self.entries):
                records = self.entries[image_id]
                for row in np.column_stack([records.box, records.score]).tolist():
                    f.write("\t".join([image_id, *map(repr, row)]) + "\n")

    @staticmethod
    def load(path, threshold: float) -> "InferredBoxCache":
        """Read a ``save`` file; ValueError naming the file and line on a
        wrong field count, a non-numeric value or a non-finite number."""
        rows: dict[str, list[list[float]]] = {}
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                try:
                    if len(parts) != 6:
                        raise ValueError(f"expected 6 fields, got {len(parts)}")
                    numbers = [float(v) for v in parts[1:]]
                    if not np.isfinite(numbers).all():
                        raise ValueError("inferred-box values must be finite")
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None
                rows.setdefault(parts[0], []).append(numbers)
        return InferredBoxCache(
            threshold, {image_id: inferred_boxes(r) for image_id, r in rows.items()}
        )


def manipulate_boxes(
    noisy: np.ndarray,
    inferred: np.recarray,
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
    picked = np.flatnonzero(inferred.score > score_threshold)
    if len(picked) > n:
        top = np.argsort(-inferred.score[picked], kind="stable")[:n]
        picked = np.sort(picked[top])
    k = len(picked)
    if k == 0:
        return noisy.copy()
    return np.concatenate(
        [noisy[: n - k], signal_encode(inferred.box[picked], scale)], axis=0
    )


def inference_proposals(n: int, rng: np.random.Generator) -> np.ndarray:
    """Completely noisy proposals: standard-normal signal-space samples.

    Inference-time proposals are independent of any cache by construction.
    """
    if n < 1:
        raise ValueError("proposal count must be >= 1")
    return rng.standard_normal((n, 4))
