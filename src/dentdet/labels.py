"""FDI label hierarchy: head availability masks and label triples.

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
    QUADRANT_ONLY = "quadrant"
    QUADRANT_ENUM = "quadrant_enumeration"
    FULL = "quadrant_enumeration_diagnosis"


@dataclass(frozen=True)
class HeadMask:
    """Binary indicators of which heads are supervised.

    Only the nested settings (1,0,0), (1,1,0), (1,1,1) are legal.
    """

    h_q: int
    h_e: int
    h_d: int

    def __post_init__(self):
        if (self.h_q, self.h_e, self.h_d) not in {(1, 0, 0), (1, 1, 0), (1, 1, 1)}:
            raise ValueError(
                f"illegal head mask ({self.h_q},{self.h_e},{self.h_d}); "
                "hierarchy is nested"
            )

    @property
    def active_heads(self) -> tuple[str, ...]:
        out = ["quadrant"]
        if self.h_e:
            out.append("enumeration")
        if self.h_d:
            out.append("diagnosis")
        return tuple(out)

    @property
    def deepest_head(self) -> str:
        return self.active_heads[-1]


def mask_for(level: HierarchyLevel) -> HeadMask:
    """Head availability mask for an annotation regime."""
    if level is HierarchyLevel.QUADRANT_ONLY:
        return HeadMask(1, 0, 0)
    if level is HierarchyLevel.QUADRANT_ENUM:
        return HeadMask(1, 1, 0)
    if level is HierarchyLevel.FULL:
        return HeadMask(1, 1, 1)
    raise ValueError(f"unknown hierarchy level: {level!r}")


@dataclass(frozen=True)
class LabelTriple:
    """Zero-based class indices; a field is present iff its head is supervised."""

    quadrant: int | None = None
    enumeration: int | None = None
    diagnosis: int | None = None

    def __post_init__(self):
        if self.quadrant is None and (
            self.enumeration is not None or self.diagnosis is not None
        ):
            raise ValueError("enumeration/diagnosis present without quadrant")
        if self.enumeration is None and self.diagnosis is not None:
            raise ValueError("diagnosis present without enumeration")
        if self.quadrant is not None and not 0 <= self.quadrant < NUM_QUADRANTS:
            raise ValueError(f"quadrant index out of range: {self.quadrant}")
        if self.enumeration is not None and not 0 <= self.enumeration < NUM_ENUMERATIONS:
            raise ValueError(f"enumeration index out of range: {self.enumeration}")
        if self.diagnosis is not None and not 0 <= self.diagnosis < NUM_DIAGNOSES:
            raise ValueError(f"diagnosis index out of range: {self.diagnosis}")


def class_array(labels) -> np.ndarray:
    """(M, 3) integer class indices of M label triples, one column per head
    in ``HEAD_NAMES`` order; -1 where a head carries no label."""
    rows = [(lab.quadrant, lab.enumeration, lab.diagnosis) for lab in labels]
    return np.array(
        [[-1 if c is None else c for c in row] for row in rows], dtype=np.int64
    ).reshape(-1, len(HEAD_NAMES))
