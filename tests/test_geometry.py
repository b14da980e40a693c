"""Box primitives: conversions, IoU/GIoU properties, NMS against a naive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dentdet.geometry import (
    Box,
    cxcywh_to_xyxy,
    giou_matrix,
    iou,
    iou_matrix,
    nms,
)

coords = st.floats(0.0, 1.0, allow_nan=False)
sizes = st.floats(0.01, 1.0, allow_nan=False)
boxes = st.builds(Box, coords, coords, sizes, sizes)


def giou(a: Box, b: Box) -> float:
    """Scalar generalized IoU in [-1, 1], the oracle for ``giou_matrix``:
    IoU minus the enclosing-hull penalty."""
    ax1, ay1, ax2, ay2 = a.to_xyxy()
    bx1, by1, bx2, by2 = b.to_xyxy()
    hull = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
    if hull <= 0:
        return 0.0
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = a.area() + b.area() - inter
    base = inter / union if union > 0 else 0.0
    return base - (hull - union) / hull


def test_xyxy_round_trip_identity():
    b = Box(0.25, 0.5, 0.25, 0.125)  # dyadic, so round trip is exact
    assert Box.from_xyxy(*b.to_xyxy()) == b


@given(boxes)
def test_xyxy_round_trip_random(b):
    back = Box.from_xyxy(*b.to_xyxy())
    assert np.allclose(back.to_array(), b.to_array(), atol=1e-12)


def test_array_round_trip():
    b = Box(0.25, 0.5, 0.125, 0.0625)
    assert Box.from_array(b.to_array()) == b


def test_batch_conversion_corners():
    rng = np.random.default_rng(3)
    cs = np.column_stack(
        [rng.uniform(0, 1, 40), rng.uniform(0, 1, 40),
         rng.uniform(0.01, 1, 40), rng.uniform(0.01, 1, 40)]
    )
    np.testing.assert_array_equal(
        cxcywh_to_xyxy(cs), [Box(*row).to_xyxy() for row in cs]
    )
    corners = cxcywh_to_xyxy([0.5, 0.5, 0.25, 0.125])
    assert corners.tolist() == [0.375, 0.4375, 0.625, 0.5625]


def test_iou_identical_boxes():
    b = Box(0.5, 0.5, 0.2, 0.2)
    assert iou(b, b) == pytest.approx(1.0)
    assert giou(b, b) == pytest.approx(1.0)


def test_iou_disjoint_is_zero():
    assert iou(Box(0.2, 0.2, 0.1, 0.1), Box(0.8, 0.8, 0.1, 0.1)) == 0.0


def test_iou_hand_case_quarter_overlap():
    # Unit squares offset by half in both axes: inter 0.25, union 1.75.
    a = Box.from_xyxy(0.0, 0.0, 1.0, 1.0)
    b = Box.from_xyxy(0.5, 0.5, 1.5, 1.5)
    assert iou(a, b) == pytest.approx(0.25 / 1.75)
    # Hull is 1.5 x 1.5 = 2.25; GIoU = IoU - (hull - union) / hull.
    assert giou(a, b) == pytest.approx(0.25 / 1.75 - (2.25 - 1.75) / 2.25)


def test_giou_disjoint_approaches_minus_one():
    a = Box(0.05, 0.5, 0.001, 0.001)
    b = Box(0.95, 0.5, 0.001, 0.001)
    assert giou(a, b) < -0.99


def test_zero_area_boxes_give_zero_iou():
    assert iou(Box(0.5, 0.5, 0.0, 0.1), Box(0.5, 0.5, 0.2, 0.2)) == 0.0


@given(boxes, boxes)
def test_giou_never_exceeds_iou(a, b):
    assert giou(a, b) <= iou(a, b) + 1e-12


@given(boxes, boxes)
def test_iou_symmetric(a, b):
    assert iou(a, b) == pytest.approx(iou(b, a))
    assert giou(a, b) == pytest.approx(giou(b, a))


@settings(max_examples=30)
@given(st.lists(boxes, min_size=1, max_size=6), st.lists(boxes, min_size=1, max_size=6))
def test_matrix_forms_match_scalar(al, bl):
    a = np.stack([x.to_array() for x in al])
    b = np.stack([x.to_array() for x in bl])
    im = iou_matrix(a, b)
    gm = giou_matrix(a, b)
    for i, x in enumerate(al):
        for j, y in enumerate(bl):
            assert im[i, j] == iou(x, y)
            assert gm[i, j] == giou(x, y)
    batched = iou_matrix(np.stack([a, a[::-1]]), np.stack([b, b[::-1]]))
    assert np.array_equal(batched[0], im)
    assert np.array_equal(batched[1], iou_matrix(a[::-1], b[::-1]))



@settings(max_examples=30)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 5), st.data())
def test_giou_matrix_leading_axes_equal_per_set_calls(sets, n, m, data):
    # Set s of a meets set s of b, and a one-set b broadcasts over a's sets.
    def stack(k):
        rows = data.draw(st.lists(st.lists(boxes, min_size=k, max_size=k),
                                  min_size=sets, max_size=sets))
        return np.array([[x.to_array() for x in r] for r in rows]).reshape(sets, k, 4)

    a, b = stack(n), stack(m)
    gm = giou_matrix(a, b)
    assert gm.shape == (sets, n, m)
    one_b = giou_matrix(a, b[:1])
    for s in range(sets):
        assert np.array_equal(gm[s], giou_matrix(a[s], b[s]))
        assert np.array_equal(one_b[s], giou_matrix(a[s], b[0]))


def _nms_oracle(dets, thr):
    remaining = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            i for i in remaining if iou(dets[best][0], dets[i][0]) <= thr
        ]
    return [dets[i] for i in kept]


def _nms_kept(dets, thr):
    """``nms`` on a (Box, score) list, mapped back to the list's entries."""
    boxes = np.array([b.to_array() for b, _ in dets]).reshape(len(dets), 4)
    (kept,) = nms(boxes, np.array([s for _, s in dets]), thr)
    assert kept.dtype.kind == "i"
    return [dets[i] for i in kept]


def test_nms_matches_oracle_on_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(0, 12))
        dets = [
            (
                Box(rng.uniform(0, 1), rng.uniform(0, 1),
                    rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)),
                float(rng.uniform(0, 1)),
            )
            for _ in range(n)
        ]
        thr = float(rng.uniform(0.1, 0.9))
        assert _nms_kept(dets, thr) == _nms_oracle(dets, thr)


# Dyadic boxes on a coarse lattice, so IoUs land exactly on thresholds such as
# 1/3 and 1/2; scores from a few levels, so ties are common.
lattice_boxes = st.builds(
    Box,
    st.integers(0, 8).map(lambda v: v / 8),
    st.integers(0, 8).map(lambda v: v / 8),
    st.integers(0, 4).map(lambda v: v / 8),
    st.integers(1, 4).map(lambda v: v / 8),
)


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(st.one_of(lattice_boxes, boxes),
                  st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]) | st.floats(0, 1)),
        max_size=12,
    ),
    st.sampled_from([0.0, 1 / 3, 0.5, 0.7, 1.0]),
)
def test_nms_equals_oracle(dets, thr):
    assert _nms_kept(dets, thr) == _nms_oracle(dets, thr)


def test_nms_keeps_pair_at_exactly_the_threshold():
    # Half-overlapping equal boxes: inter 1/4, union 3/4, IoU exactly 1/3.
    a, b = Box(0.25, 0.5, 0.25, 0.25), Box(0.375, 0.5, 0.25, 0.25)
    assert iou(a, b) == 1 / 3
    dets = [(a, 0.9), (b, 0.8)]
    assert _nms_kept(dets, 1 / 3) == dets
    assert _nms_kept(dets, np.nextafter(1 / 3, 0)) == dets[:1]


def test_nms_no_kept_pair_overlaps():
    rng = np.random.default_rng(5)
    dets = [
        (Box(rng.uniform(0, 1), rng.uniform(0, 1), 0.3, 0.3), float(rng.uniform(0, 1)))
        for _ in range(20)
    ]
    kept = _nms_kept(dets, 0.4)
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert iou(kept[i][0], kept[j][0]) <= 0.4


def test_nms_tie_break_prefers_lower_index():
    b1 = Box(0.5, 0.5, 0.2, 0.2)
    b2 = Box(0.51, 0.5, 0.2, 0.2)
    b3 = Box(0.1, 0.1, 0.1, 0.1)
    (kept,) = nms(np.stack([b.to_array() for b in (b1, b2, b3)]),
                  np.array([0.7, 0.7, 0.7]), 0.3)
    assert kept.tolist() == [0, 2]
    (kept,) = nms(np.stack([b.to_array() for b in (b2, b1)]), np.array([0.7, 0.7]), 0.3)
    assert kept.tolist() == [0]


def test_nms_empty_input():
    (kept,) = nms(np.zeros((0, 4)), np.zeros(0), 0.5)
    assert kept.shape == (0,) and kept.dtype.kind == "i"


def test_nms_rejects_nan_scores():
    box = np.array([[0.5, 0.5, 0.1, 0.1]])
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            nms(box, np.array([bad]), 0.5)
    with pytest.raises(ValueError):
        nms(box, np.array([0.5, 0.5]), 0.5)
    with pytest.raises(ValueError):
        nms(box[0], np.array(0.5), 0.5)
    with pytest.raises(ValueError, match="finite"):
        nms(np.stack([box, box]), np.array([[0.5], [float("nan")]]), 0.5)


# ---------------------------------------------------------------------------
# Per-image NMS, one set of boxes a call with its own IoU array and sweep, as
# the sampler ran it image by image: the batched ``nms`` must equal it.


def _nms_per_image(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float):
    order = np.argsort(-scores, kind="stable")
    over = iou_matrix(boxes[order], boxes[order]) > iou_threshold
    suppressed = np.zeros(len(order), dtype=bool)
    kept = []
    for i in range(len(order)):
        if not suppressed[i]:
            kept.append(i)
            suppressed |= over[i]
    return order[kept]


# Rows of one image: lattice boxes whose IoUs land exactly on thresholds,
# zero-width boxes, random boxes; scores from a few levels, so ties are common.
zero_size_boxes = st.builds(Box, coords, coords, st.just(0.0), st.sampled_from([0.0, 0.25]))
image_rows = st.tuples(
    st.one_of(lattice_boxes, zero_size_boxes, boxes),
    st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]) | st.floats(0, 1),
)


@st.composite
def image_sets(draw):
    """(B, N) rows; some images repeat their first row as their last, so
    equal boxes with equal scores meet."""
    n = draw(st.integers(0, 10))
    images = draw(st.lists(st.lists(image_rows, min_size=n, max_size=n), max_size=4))
    for rows in images:
        if n >= 2 and draw(st.booleans()):
            rows[-1] = rows[0]
    return n, images


@settings(max_examples=300)
@given(image_sets(), st.sampled_from([0.0, 1 / 3, 0.5, 0.7, 1.0]))
def test_batched_nms_equals_per_image_oracle(image_set, thr):
    n, images = image_set
    b_count = len(images)  # B = 0 and N = 0 both occur
    boxes = np.array([[b.to_array() for b, _ in rows] for rows in images]).reshape(b_count, n, 4)
    scores = np.array([[s for _, s in rows] for rows in images]).reshape(b_count, n)
    img, rows = nms(boxes, scores, thr)
    want = [_nms_per_image(boxes[b], scores[b], thr) for b in range(len(boxes))]
    assert img.tolist() == [b for b, kept in enumerate(want) for _ in kept]
    assert rows.tolist() == [int(i) for kept in want for i in kept]
    # Extra leading axes flatten into one: the same rows, set by set.
    *lead, rows2 = nms(boxes[None], scores[None], thr)
    assert lead[0].tolist() == [0] * len(rows) and np.array_equal(lead[1], img)
    assert np.array_equal(rows2, rows)


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0), (2, 3, 0)])
def test_batched_nms_empty_sets(shape):
    kept = nms(np.zeros(shape + (4,)), np.zeros(shape), 0.5)
    assert len(kept) == len(shape)
    assert all(k.shape == (0,) and k.dtype.kind == "i" for k in kept)


def test_batched_nms_iou_exactly_at_threshold():
    # IoU of a and b is exactly 1/3: kept together at 1/3, not just below.
    a, b = Box(0.25, 0.5, 0.25, 0.25), Box(0.375, 0.5, 0.25, 0.25)
    boxes = np.array([[a.to_array(), b.to_array()], [b.to_array(), a.to_array()]])
    scores = np.array([[0.9, 0.8], [0.8, 0.8]])
    img, rows = nms(boxes, scores, 1 / 3)
    assert img.tolist() == [0, 0, 1, 1] and rows.tolist() == [0, 1, 0, 1]
    img, rows = nms(boxes, scores, np.nextafter(1 / 3, 0))
    assert img.tolist() == [0, 1] and rows.tolist() == [0, 0]
