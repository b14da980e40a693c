"""Overlay rendering and caption formatting."""

import numpy as np

from dentdet.render import (
    FONT_5X7,
    caption,
    draw_box,
    draw_text,
    render_overlay,
)


def test_caption_levels():
    # One class row per box, -1 where a head carries no label.
    assert caption((0, -1, -1)) == "Q1"
    assert caption(np.array([2, 5, -1])) == "Q3 N36"
    assert caption((1, 0, 2)) == "Q2 N21 DPERIAPICAL LESION"


def test_font_covers_needed_glyphs():
    needed = set("0123456789QND .-") | set(
        "CARIES DEEP PERIAPICAL LESION IMPACTED"
    )
    assert needed <= set(FONT_5X7)
    for glyph in FONT_5X7.values():
        assert len(glyph) == 7
        assert all(0 <= row < 32 for row in glyph)


def test_draw_text_marks_pixels_in_bounds():
    img = np.zeros((20, 40, 3), dtype=np.uint8)
    draw_text(img, 1, 1, "Q1", np.array([255, 255, 0], dtype=np.uint8))
    assert img.sum() > 0
    # Clipping: drawing off-canvas must not raise or wrap.
    before = img.copy()
    draw_text(img, 38, 18, "XYZ", np.array([255, 0, 0], dtype=np.uint8))
    assert img.shape == before.shape


def test_draw_box_outline_only():
    img = np.zeros((64, 64, 3), dtype=np.uint8)
    color = np.array([0, 255, 0], dtype=np.uint8)
    draw_box(img, (0.25, 0.25, 0.75, 0.75), color)
    ys, xs = np.nonzero(img[..., 1])
    assert len(ys) > 0
    # Interior pixel untouched.
    assert img[32, 32, 1] == 0
    # All drawn pixels on the border rows/cols of the box.
    assert set(np.unique(ys)) <= set(range(16, 49))


def test_render_overlay_shapes_and_colors():
    img = np.full((64, 64), 90, dtype=np.uint8)
    boxes = np.array([
        [0.5, 0.5, 0.4, 0.4],
        [0.2, 0.1, 0.2, 0.15],  # caption flips below the box
    ])
    out = render_overlay(img, boxes, ["Q1", "Q2"])
    assert out.shape == (64, 64, 3)
    assert out.dtype == np.uint8
    greens = (out == np.array([0, 255, 0])).all(axis=-1)
    yellows = (out == np.array([255, 255, 0])).all(axis=-1)
    assert greens.any() and yellows.any()
    # Background stays grayscale.
    bg = (~greens) & (~yellows)
    assert np.all(out[bg][:, 0] == out[bg][:, 1])
