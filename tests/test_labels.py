"""Label hierarchy: levels and their heads, triples, and per-head class arrays."""

import numpy as np
import pytest

from dentdet.labels import (
    HEAD_CLASS_COUNTS,
    HEAD_NAMES,
    HierarchyLevel,
    LabelTriple,
    class_array,
)
from dentdet.model import level_params


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
    # The paper's head availability mask (h_q, h_e, h_d) of each level.
    assert level.heads == tuple(h for h, bit in zip(HEAD_NAMES, expected) if bit)
    heads = [f"head_{h}.{p}" for h, bit in zip(HEAD_NAMES, expected) if bit
             for p in ("w", "b")]
    assert level_params(level) == [
        "trunk.w1", "trunk.b1", "trunk.w2", "trunk.b2", "box.w", "box.b", *heads
    ]


def test_level_heads_are_nested_prefixes():
    # Shallow to deep, each level supervises one more head than the last.
    for depth, level in enumerate(HierarchyLevel, start=1):
        assert level.heads == HEAD_NAMES[:depth]
        assert level.deepest_head == HEAD_NAMES[depth - 1]
    assert level_params() == level_params(HierarchyLevel.FULL)


def test_active_and_deepest_heads():
    assert HierarchyLevel.QUADRANT_ONLY.heads == ("quadrant",)
    assert HierarchyLevel.QUADRANT_ONLY.deepest_head == "quadrant"
    assert HierarchyLevel.QUADRANT_ENUM.deepest_head == "enumeration"
    assert HierarchyLevel.FULL.heads == HEAD_NAMES
    assert HierarchyLevel.FULL.deepest_head == "diagnosis"


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"quadrant": 1.5},
        {"quadrant": 1.0},
        {"quadrant": True},
        {"quadrant": "1"},
        {"quadrant": 0, "enumeration": [1]},
        {"quadrant": 0, "enumeration": 0, "diagnosis": False},
    ],
)
def test_triple_rejects_non_integers(kwargs):
    # class_array would truncate 1.5 and True to quadrant 1.
    with pytest.raises(ValueError, match="not an integer"):
        LabelTriple(**kwargs)


def test_triple_accepts_numpy_integers():
    assert class_array([LabelTriple(np.int64(3), np.int32(7))]).tolist() == [[3, 7, -1]]


def test_class_for():
    # Each head's class is its column of class_array, -1 where it has no label.
    classes = class_array([LabelTriple(2, 5, 1), LabelTriple(2), LabelTriple(0, 7)])
    assert classes.dtype == np.int64
    assert classes.tolist() == [[2, 5, 1], [2, -1, -1], [0, 7, -1]]
    assert class_array([]).shape == (0, len(HEAD_NAMES))
