"""FDI label hierarchy: the levels, the heads each supervises, and label
triples.

Three annotation regimes exist, nested: quadrant only, quadrant+enumeration,
and quadrant+enumeration+diagnosis.  Each regime supervises a prefix of the
three classification heads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

NUM_QUADRANTS = 4
NUM_ENUMERATIONS = 8
NUM_DIAGNOSES = 4

DIAGNOSIS_NAMES = ("caries", "deep caries", "periapical lesion", "impacted")

HEAD_NAMES = ("quadrant", "enumeration", "diagnosis")
HEAD_CLASS_COUNTS = {
    "quadrant": NUM_QUADRANTS,
    "enumeration": NUM_ENUMERATIONS,
    "diagnosis": NUM_DIAGNOSES,
}


class HierarchyLevel(enum.Enum):
    """An annotation regime; its value joins the names of the heads it
    supervises."""

    QUADRANT_ONLY = "quadrant"
    QUADRANT_ENUM = "quadrant_enumeration"
    FULL = "quadrant_enumeration_diagnosis"

    @property
    def heads(self) -> tuple[str, ...]:
        """The supervised heads: a prefix of ``HEAD_NAMES``, shallow to deep."""
        return tuple(self.value.split("_"))

    @property
    def deepest_head(self) -> str:
        return self.heads[-1]


@dataclass(frozen=True)
class LabelTriple:
    """Zero-based class indices; a field is present iff its head is supervised."""

    quadrant: int | None = None
    enumeration: int | None = None
    diagnosis: int | None = None

    def __post_init__(self):
        missing = None  # the shallowest head without a label
        for head in HEAD_NAMES:
            value = getattr(self, head)
            if value is None:
                missing = missing or head
            elif missing is not None:
                raise ValueError(f"{head} present without {missing}")
            elif isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{head} index is not an integer: {value!r}")
            elif not 0 <= value < HEAD_CLASS_COUNTS[head]:
                raise ValueError(f"{head} index out of range: {value}")


def class_array(labels) -> np.ndarray:
    """(M, 3) integer class indices of M label triples, one column per head
    in ``HEAD_NAMES`` order; -1 where a head carries no label."""
    rows = [[getattr(lab, head) for head in HEAD_NAMES] for lab in labels]
    return np.array(
        [[-1 if c is None else c for c in row] for row in rows], dtype=np.int64
    ).reshape(-1, len(HEAD_NAMES))
