"""Label hierarchy: masks, triples, and FDI strings."""

import pytest

from dentdet.labels import (
    HEAD_CLASS_COUNTS,
    HEAD_NAMES,
    HeadMask,
    HierarchyLevel,
    LabelTriple,
    fdi_string,
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


def test_triple_level_property():
    assert LabelTriple(1).level is HierarchyLevel.QUADRANT_ONLY
    assert LabelTriple(1, 4).level is HierarchyLevel.QUADRANT_ENUM
    assert LabelTriple(1, 4, 2).level is HierarchyLevel.FULL


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
    t = LabelTriple(2, 5, 1)
    assert t.class_for("quadrant") == 2
    assert t.class_for("enumeration") == 5
    assert t.class_for("diagnosis") == 1
    assert LabelTriple(2).class_for("enumeration") is None


def test_fdi_strings():
    assert fdi_string(LabelTriple(0)) == "Q1"
    assert fdi_string(LabelTriple(2, 5)) == "36"
    assert fdi_string(LabelTriple(3, 7, 3)) == "48 impacted"
    with pytest.raises(ValueError):
        fdi_string(LabelTriple())
