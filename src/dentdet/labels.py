"""FDI label hierarchy: the levels and the heads each supervises.

Three annotation regimes exist, nested: quadrant only, quadrant+enumeration,
and quadrant+enumeration+diagnosis.  Each regime supervises a prefix of the
three classification heads.  Ground truth holds one class row per box: an
index per head in ``HEAD_NAMES`` order, -1 where the head carries no label.
"""

from __future__ import annotations

import enum

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
