"""Label hierarchy: levels and their heads, and the loader's label checks."""

import json

import numpy as np
import pytest

from dentdet.data import CATEGORY_KEYS, AnnotationError, load_annotations
from dentdet.labels import HEAD_CLASS_COUNTS, HEAD_NAMES, HierarchyLevel
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


# A label triple is one box's class row.  The annotation loader checks each
# record's labels: the supervised heads, shallow to deep, carry integer
# indices in range, and no head is labelled below a missing one.


def _label_errors(tmp_path, **labels):
    """The loader's messages for one record with these labels, at the level
    of the deepest head given."""
    level = list(HierarchyLevel)[max(HEAD_NAMES.index(h) for h in labels)]
    rec = {"image_id": "a", "bbox": [10, 10, 20, 20]}
    rec.update((CATEGORY_KEYS[head], value) for head, value in labels.items())
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(
        {"images": [{"id": "a", "width": 100, "height": 100}], "annotations": [rec]}
    ))
    with pytest.raises(AnnotationError) as exc:
        load_annotations(path, level)
    return [msg for _, msg in exc.value.errors]


def test_triple_rejects_gaps(tmp_path):
    assert "enumeration present without quadrant" in _label_errors(
        tmp_path, enumeration=3
    )
    assert "diagnosis present without enumeration" in _label_errors(
        tmp_path, quadrant=1, diagnosis=2
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"quadrant": 4},
        {"quadrant": -1},
        {"quadrant": 0, "enumeration": 8},
        {"quadrant": 0, "enumeration": 0, "diagnosis": 4},
    ],
)
def test_triple_rejects_out_of_range(tmp_path, kwargs):
    [msg] = _label_errors(tmp_path, **kwargs)
    assert "index out of range" in msg


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
def test_triple_rejects_non_integers(tmp_path, kwargs):
    # Stored as int64, 1.5 and True would both read as class 1.
    [msg] = _label_errors(tmp_path, **kwargs)
    assert "not an integer" in msg


def test_class_for(tmp_path):
    # Each head's class is its column of the loaded classes, -1 where the
    # level gives the head no label.
    doc = {
        "images": [{"id": "a", "width": 100, "height": 100},
                   {"id": "b", "width": 100, "height": 100}],
        "annotations": [
            {"image_id": "a", "bbox": [10, 10, 20, 20], "category_id_1": 2,
             "category_id_2": 5},
            {"image_id": "a", "bbox": [50, 50, 20, 20], "category_id_1": 0,
             "category_id_2": 7},
        ],
    }
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(doc))
    classes = load_annotations(path, HierarchyLevel.QUADRANT_ENUM).classes
    assert classes[0].dtype == np.int64
    assert classes[0].tolist() == [[2, 5, -1], [0, 7, -1]]
    assert classes[1].shape == (0, len(HEAD_NAMES))
