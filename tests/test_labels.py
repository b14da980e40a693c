"""Label hierarchy: masks, triples, and per-head class arrays."""

import numpy as np
import pytest

from dentdet.labels import (
    HEAD_CLASS_COUNTS,
    HEAD_NAMES,
    HeadMask,
    HierarchyLevel,
    LabelTriple,
    class_array,
    mask_for,
)


def test_class_counts():
    assert HEAD_CLASS_COUNTS == {"quadrant": 4, "enumeration": 8, "diagnosis": 4}
    assert HEAD_NAMES == ("quadrant", "enumeration", "diagnosis")


@pytest.mark.parametrize(
    "level, expected",
    [
        (HierarchyLevel.QUADRANT_ONLY, (1, 0, 0)),
        (HierarchyLevel.QUADRANT_ENUM, (1, 1, 0)),
        (HierarchyLevel.FULL, (1, 1, 1)),
    ],
)
def test_mask_for_levels(level, expected):
    m = mask_for(level)
    assert (m.h_q, m.h_e, m.h_d) == expected


@pytest.mark.parametrize("bad", [(0, 0, 0), (1, 0, 1), (0, 1, 1), (0, 1, 0)])
def test_non_nested_masks_rejected(bad):
    with pytest.raises(ValueError):
        HeadMask(*bad)


def test_active_and_deepest_heads():
    assert mask_for(HierarchyLevel.QUADRANT_ONLY).active_heads == ("quadrant",)
    assert mask_for(HierarchyLevel.QUADRANT_ONLY).deepest_head == "quadrant"
    assert mask_for(HierarchyLevel.QUADRANT_ENUM).deepest_head == "enumeration"
    assert mask_for(HierarchyLevel.FULL).active_heads == HEAD_NAMES
    assert mask_for(HierarchyLevel.FULL).deepest_head == "diagnosis"


def test_triple_rejects_gaps():
    with pytest.raises(ValueError):
        LabelTriple(None, 3)
    with pytest.raises(ValueError):
        LabelTriple(1, None, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"quadrant": 4},
        {"quadrant": -1},
        {"quadrant": 0, "enumeration": 8},
        {"quadrant": 0, "enumeration": 0, "diagnosis": 4},
    ],
)
def test_triple_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        LabelTriple(**kwargs)


def test_class_for():
    # Each head's class is its column of class_array, -1 where it has no label.
    classes = class_array([LabelTriple(2, 5, 1), LabelTriple(2), LabelTriple(0, 7)])
    assert classes.dtype == np.int64
    assert classes.tolist() == [[2, 5, 1], [2, -1, -1], [0, 7, -1]]
    assert class_array([]).shape == (0, len(HEAD_NAMES))
