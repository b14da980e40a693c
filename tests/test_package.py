"""The package's public surface: what ``dentdet`` exports, and what it no
longer does since the object-list API moved into the tests."""

import pytest

import dentdet


def test_every_exported_name_resolves():
    assert len(set(dentdet.__all__)) == len(dentdet.__all__)
    for name in dentdet.__all__:
        assert hasattr(dentdet, name), name


@pytest.mark.parametrize(
    "name",
    ["match", "compute_loss", "giou", "NoisyBoxes", "InferredBox", "HeadMask", "mask_for",
     "LabelTriple", "Annotation", "class_array", "Box", "iou", "Detection"],
)
def test_test_only_helpers_are_not_exported(name):
    assert name not in dentdet.__all__
    assert not hasattr(dentdet, name)
