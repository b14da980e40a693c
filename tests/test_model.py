"""Encoder determinism, RoI pooling, decoder gradients, transfer, checkpoints."""

import re
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dentdet.train as train_mod
from dentdet.diffusion import signal_decode
from dentdet.geometry import Box
from dentdet.labels import HEAD_CLASS_COUNTS, HEAD_NAMES, HierarchyLevel
from dentdet.model import (
    HIST_CHANNELS,
    HIST_EDGES,
    NUM_CHANNELS,
    STAT_CHANNELS,
    ModelConfig,
    _bin_edges,
    _cell_overlaps,
    backward_net,
    check_shapes,
    decode,
    decode_grad_mask,
    encode_image,
    forward_features,
    forward_net,
    init_params,
    level_params,
    load_checkpoint,
    loss_gradients,
    loss_probs_for_mask,
    param_shapes,
    roi_pool_batch,
    save_checkpoint,
    softmax,
    time_embedding,
    transfer_weights,
    zero_grads,
)
from dentdet.train import encode_images
from helpers import grad_batch

SMALL = ModelConfig(grid=4, pool=2, hidden=8, time_dim=4)


def _random_image(rng, size=64):
    return (rng.uniform(0, 255, size=(size, size))).astype(np.uint8)


class TestEncoder:
    def test_shape_and_determinism(self):
        img = _random_image(np.random.default_rng(0))
        a = encode_image(img, 8)
        b = encode_image(img, 8)
        assert a.shape == (8, 8, NUM_CHANNELS)
        np.testing.assert_array_equal(a, b)

    def test_constant_image_statistics(self):
        img = np.full((32, 32), 128, dtype=np.uint8)
        f = encode_image(img, 4)
        np.testing.assert_allclose(f[..., 0], 128 / 255)
        np.testing.assert_allclose(f[..., 1], 0.0)
        np.testing.assert_allclose(f[..., 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(f[..., 3], 0.0, atol=1e-12)

    def test_histogram_channels_are_band_fractions(self):
        img = np.full((32, 32), 128, dtype=np.uint8)  # 128/255 lands in band 3
        img[:16, :] = 10  # 10/255 lands in band 0
        f = encode_image(img, 2)
        hist = f[..., STAT_CHANNELS : STAT_CHANNELS + HIST_CHANNELS]
        np.testing.assert_allclose(hist.sum(axis=-1), 1.0)
        np.testing.assert_allclose(hist[0, :, 0], 1.0)  # top half all band 0
        np.testing.assert_allclose(hist[1, :, 3], 1.0)  # bottom half band 3

    def test_positional_channels_fixed(self):
        f = encode_image(np.zeros((16, 16), dtype=np.uint8), 4)
        u = (np.arange(4) + 0.5) / 4
        base = STAT_CHANNELS + HIST_CHANNELS
        np.testing.assert_allclose(f[0, :, base], np.sin(np.pi * u))
        np.testing.assert_allclose(f[:, 0, base + 4], np.sin(np.pi * u))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((4, 4, 3)), 4)
        with pytest.raises(ValueError):
            encode_image(np.zeros((2, 2)), 4)
        for shape in [(1, 5), (5, 1), (1, 1)]:  # np.gradient needs 2 per side
            with pytest.raises(ValueError, match="at least 2 pixels per side"):
                encode_image(np.zeros(shape, dtype=np.uint8), 1)

    @pytest.mark.parametrize("grid", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("shape", [(16, 16), (64, 80), (256, 256), (257, 300)])
    def test_uint8_equals_oracle(self, shape, grid):
        img = np.random.default_rng(grid).integers(0, 256, shape).astype(np.uint8)
        assert encode_image(img, grid).tobytes() == _encode_image_oracle(img, grid).tobytes()

    @pytest.mark.parametrize("grid", [1, 3, 8])
    def test_float_edge_values_equal_oracle(self, grid):
        # Values exactly on the band edges, outside [0, 1] and non-finite,
        # mixed with ordinary ones; NaN is compared by its bytes too.
        rng = np.random.default_rng(grid)
        special = [*HIST_EDGES, 0.0, 1.0, -0.25, -3.0, 1.5, 40.0, np.nan, np.inf, -np.inf]
        img = np.where(
            rng.random((48, 61)) < 0.5,
            rng.choice(special, (48, 61)),
            rng.normal(0.5, 0.6, (48, 61)),
        )
        with np.errstate(invalid="ignore"):  # inf - inf in both
            got, want = encode_image(img, grid), _encode_image_oracle(img, grid)
        assert got.tobytes() == want.tobytes()
        finite = np.where(np.isfinite(img), img, 0.5)
        assert encode_image(finite, grid).tobytes() == _encode_image_oracle(finite, grid).tobytes()

    @pytest.mark.parametrize("value", [0, 26, 128, 255])
    def test_constant_image_equals_oracle(self, value):
        img = np.full((40, 36), value, dtype=np.uint8)
        assert encode_image(img, 4).tobytes() == _encode_image_oracle(img, 4).tobytes()
        flat = np.full((40, 36), 0.3)
        assert encode_image(flat, 4).tobytes() == _encode_image_oracle(flat, 4).tobytes()

    def test_strided_inputs_equal_oracle(self):
        rng = np.random.default_rng(3)
        big = rng.normal(0.5, 0.4, (150, 260))
        pixels = rng.integers(0, 256, (150, 260)).astype(np.uint8)
        for img in (big.T, big[::2, ::3], pixels.T, pixels[1:, 3:], big.astype(np.float32)):
            for grid in (3, 16):
                assert encode_image(img, grid).tobytes() == _encode_image_oracle(img, grid).tobytes()

    def test_float64_input_is_left_unchanged(self):
        img = np.random.default_rng(4).uniform(-0.5, 1.5, (64, 48))
        before = img.copy()
        encode_image(img, 8)
        assert img.tobytes() == before.tobytes()

    def test_result_does_not_share_the_cached_positional_channels(self):
        img = np.zeros((16, 16), dtype=np.uint8)
        encode_image(img, 4)[...] = -1.0
        assert encode_image(img, 4).tobytes() == _encode_image_oracle(img, 4).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 9])
    def test_encode_images_equals_oracle(self, count):
        rng = np.random.default_rng(count)
        images = [rng.integers(0, 256, (64, 80)).astype(np.uint8) for _ in range(count)]
        grids = encode_images(images, 8)
        assert len(grids) == count
        for img, got in zip(images, grids):
            assert got.tobytes() == _encode_image_oracle(img, 8).tobytes()

    def test_encode_images_of_several_sizes_equal_oracle(self):
        # Each half meets images of several sizes, odd pixel counts among them.
        rng = np.random.default_rng(5)
        shapes = [(256, 256), (96, 64), (256, 256), (37, 41), (45, 33)]
        images = [rng.integers(0, 256, shape).astype(np.uint8) for shape in shapes]
        for got, img in zip(encode_images(images, 16), images):
            assert got.tobytes() == _encode_image_oracle(img, 16).tobytes()

    def test_encode_images_of_every_layout_equal_oracle(self):
        # uint8, float64 and float32 inputs, C-ordered, Fortran-ordered and
        # strided, mixed in one list so each half meets several.
        rng = np.random.default_rng(6)
        big = rng.normal(0.5, 0.4, (150, 260))
        pixels = rng.integers(0, 256, (150, 260)).astype(np.uint8)
        before = big.copy()
        images = [
            pixels, big, np.asfortranarray(pixels), np.asfortranarray(big),
            big[::2, ::3], pixels[1:, 3:], big.T, big.astype(np.float32),
            np.asfortranarray(big.astype(np.float32)), pixels[::-1],
        ]
        for got, img in zip(encode_images(images, 8), images):
            assert got.tobytes() == _encode_image_oracle(img, 8).tobytes()
        assert big.tobytes() == before.tobytes()  # read in place, never written

    def test_encode_images_raises_the_second_halfs_error_after_the_first_half(
        self, monkeypatch
    ):
        rng = np.random.default_rng(7)
        good = [rng.integers(0, 256, (32, 32)).astype(np.uint8) for _ in range(3)]
        done = []

        def recording(img, grid, **kw):
            out = encode_image(img, grid, **kw)
            done.append(threading.current_thread() is threading.main_thread())
            return out

        monkeypatch.setattr(train_mod, "encode_image", recording)
        # Two images per half; the second half's last is smaller than the grid.
        with pytest.raises(ValueError, match="image 4x4 smaller than feature grid 8"):
            encode_images([*good, np.zeros((4, 4), np.uint8)], 8)
        # Both of the first half's images were encoded here, and the second
        # half's first one on the worker, before the error reached the caller.
        assert sorted(done) == [False, True, True]
        monkeypatch.undo()
        # The worker survives, and the next call is whole.
        grids = encode_images(good, 8)
        for img, got in zip(good, grids):
            assert got.tobytes() == _encode_image_oracle(img, 8).tobytes()


def _encode_image_oracle(img, grid):
    """The encoder as first written: np.gradient, np.mean, np.std, and one
    np.digitize plus six bool means for the bands.  ``encode_image`` must
    equal it to the byte."""
    img = np.asarray(img)
    h, w = img.shape
    x = img.astype(np.float64)
    if img.dtype == np.uint8:
        x = x / 255.0
    gy, gx = np.gradient(x)
    ch, cw = h // grid, w // grid
    crop = lambda a: a[: grid * ch, : grid * cw].reshape(grid, ch, grid, cw)
    cells = crop(x)
    feats = np.empty((grid, grid, NUM_CHANNELS), dtype=np.float64)
    feats[..., 0] = cells.mean(axis=(1, 3))
    feats[..., 1] = cells.std(axis=(1, 3))
    feats[..., 2] = crop(np.abs(gx)).mean(axis=(1, 3))
    feats[..., 3] = crop(np.abs(gy)).mean(axis=(1, 3))
    bands = np.digitize(cells, HIST_EDGES)
    for b in range(HIST_CHANNELS):
        feats[..., STAT_CHANNELS + b] = (bands == b).mean(axis=(1, 3))
    u = (np.arange(grid) + 0.5) / grid
    uu, vv = np.meshgrid(u, u)
    pos = [
        np.sin(np.pi * uu), np.cos(np.pi * uu),
        np.sin(2 * np.pi * uu), np.cos(2 * np.pi * uu),
        np.sin(np.pi * vv), np.cos(np.pi * vv),
        np.sin(2 * np.pi * vv), np.cos(2 * np.pi * vv),
    ]
    feats[..., STAT_CHANNELS + HIST_CHANNELS :] = np.stack(pos, axis=-1)
    return feats


def test_augmented_training_with_the_encode_oracle_is_byte_equal(monkeypatch):
    # Augmented steps encode every crop they train on, in one encode_images
    # call per batch that splits the crops over two threads; each thread's
    # encode_image is the oracle here.  Not under TestEncoder, whose tests
    # run without scipy.
    from dentdet.data import generate_layout, project_level
    from dentdet.diffusion import Schedule
    from dentdet.train import StageConfig, TrainSample, train_stage

    cfg = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
    schedule = Schedule.cosine(1000, 0.008)
    level = HierarchyLevel.QUADRANT_ENUM
    samples = []
    for i in range(3):
        img, layout = generate_layout(700 + i)
        gt_boxes, gt_classes = project_level(layout, level)
        samples.append(TrainSample(
            image_id=f"s{i}", image=img, grid_feats=encode_image(img, cfg.grid),
            gt_boxes=gt_boxes, gt_classes=gt_classes, width=256, height=256,
        ))
    stage = StageConfig(level=level, iterations=6, batch_size=3, lr=1e-2,
                        n_proposals=24, seed=5, augment=True)
    calls = []

    def oracle(img, grid, *, out):
        calls.append(1)
        out[...] = _encode_image_oracle(img, grid)
        return out

    got, _ = train_stage(stage, samples, cfg, schedule)
    monkeypatch.setattr(train_mod, "encode_image", oracle)
    want, _ = train_stage(stage, samples, cfg, schedule)
    assert len(calls) == stage.iterations * stage.batch_size
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].tobytes() == want[name].tobytes(), name


def _axis_weights(lo, hi, pool, grid):
    """Bin-to-cell overlap weights S + (P, G) and bin widths S of spans S."""
    edges, width = _bin_edges(lo, hi, pool)
    return _cell_overlaps(edges, grid), width


def _roi_pool_oracle(grid_feats, boxes01, pool):
    """The original single-einsum RoI pooling: the reference that the two-GEMM
    kernel in ``roi_pool_batch`` must reproduce."""
    g = grid_feats.shape[0]
    x0 = np.clip(boxes01[:, 0] - boxes01[:, 2] / 2, 0.0, 1.0)
    x1 = np.clip(boxes01[:, 0] + boxes01[:, 2] / 2, 0.0, 1.0)
    y0 = np.clip(boxes01[:, 1] - boxes01[:, 3] / 2, 0.0, 1.0)
    y1 = np.clip(boxes01[:, 1] + boxes01[:, 3] / 2, 0.0, 1.0)
    wx, bw = _axis_weights(x0, x1, pool, g)
    wy, bh = _axis_weights(y0, y1, pool, g)
    vals = np.einsum("nyg,nxh,ghc->nyxc", wy, wx, grid_feats, optimize=True)
    vals = vals / (
        np.maximum(bh, 1e-12)[:, None, None, None]
        * np.maximum(bw, 1e-12)[:, None, None, None]
    )
    return vals.reshape(boxes01.shape[0], -1)


def _two_call_axis_weights(lo, hi, pool, grid):
    """``_axis_weights`` as it was for (N,) spans of one axis."""
    span = hi - lo
    tiny = span < 1e-9
    lo = np.where(tiny, np.clip(lo, 0.0, 1.0 - 1e-6), lo)
    span = np.where(tiny, 1e-6, span)
    edges = lo[:, None] + span[:, None] * np.arange(pool + 1) / pool
    cell_lo = np.arange(grid) / grid
    cell_hi = cell_lo + 1.0 / grid
    w = np.minimum(edges[:, 1:, None], cell_hi) - np.maximum(
        edges[:, :-1, None], cell_lo
    )
    return np.clip(w, 0.0, None), span / pool


def _two_call_roi_pool(grid_feats, boxes01, pool):
    """One image's RoI pooling with one axis-weights call per axis: the
    reference the both-axes, many-image kernel must equal exactly."""
    g, _, c = grid_feats.shape
    n = boxes01.shape[0]
    x0 = np.clip(boxes01[:, 0] - boxes01[:, 2] / 2, 0.0, 1.0)
    x1 = np.clip(boxes01[:, 0] + boxes01[:, 2] / 2, 0.0, 1.0)
    y0 = np.clip(boxes01[:, 1] - boxes01[:, 3] / 2, 0.0, 1.0)
    y1 = np.clip(boxes01[:, 1] + boxes01[:, 3] / 2, 0.0, 1.0)
    wx, bw = _two_call_axis_weights(x0, x1, pool, g)
    wy, bh = _two_call_axis_weights(y0, y1, pool, g)
    rows = wy.reshape(n * pool, g) @ grid_feats.reshape(g, g * c)
    vals = wx[:, None] @ rows.reshape(n, pool, g, c)
    vals /= (np.maximum(bh, 1e-12) * np.maximum(bw, 1e-12))[:, None, None, None]
    return vals.reshape(n, pool * pool * c)


def _pool_one(grid, box, pool):
    return roi_pool_batch(grid, box.to_array()[None], pool)[0]


# Centers reach half a unit past the image on every side and sizes reach
# 1.5, so boxes fall inside, straddle the border, or lie wholly off it.
_coord = st.floats(-0.5, 1.5, allow_nan=False)
_size = st.floats(0.0, 1.5, allow_nan=False)
_box = st.one_of(
    st.tuples(_coord, _coord, _size, _size),
    st.tuples(_coord, _coord, st.just(0.0), st.just(0.0)),  # zero-size
    st.just((0.5, 0.5, 1.0, 1.0)),  # full image
)


class TestRoiPool:
    def test_constant_grid_pools_to_constant(self):
        grid = np.full((8, 8, 3), 7.5)
        out = _pool_one(grid, Box(0.5, 0.5, 0.6, 0.4), 2)
        np.testing.assert_allclose(out, 7.5)

    def test_full_image_box_equals_cell_blocks(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(4, 4, 1))
        # A full-image box with pool=4 on a 4-cell grid: one bin per cell.
        out = _pool_one(grid, Box(0.5, 0.5, 1.0, 1.0), 4).reshape(4, 4)
        np.testing.assert_allclose(out, grid[..., 0], atol=1e-9)

    def test_quadrant_box_selects_quadrant(self):
        grid = np.zeros((4, 4, 1))
        grid[:2, :2, 0] = 1.0  # top-left quarter
        out = _pool_one(grid, Box(0.25, 0.25, 0.5, 0.5), 2)
        np.testing.assert_allclose(out, 1.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        grid = rng.normal(size=(8, 8, 5))
        boxes = np.column_stack(
            [rng.uniform(0.2, 0.8, 6), rng.uniform(0.2, 0.8, 6),
             rng.uniform(0.05, 0.5, 6), rng.uniform(0.05, 0.5, 6)]
        )
        batch = roi_pool_batch(grid, boxes, 3)
        for i in range(6):
            single = roi_pool_batch(grid, boxes[i][None], 3)[0]
            np.testing.assert_allclose(batch[i], single)

    def test_degenerate_box_is_finite(self):
        grid = np.random.default_rng(3).normal(size=(8, 8, 2))
        out = _pool_one(grid, Box(0.5, 0.5, 0.0, 0.0), 2)
        assert np.all(np.isfinite(out))

    def test_empty_batch(self):
        grid = np.random.default_rng(4).normal(size=(8, 8, 5))
        out = roi_pool_batch(grid, np.zeros((0, 4)), 3)
        assert out.shape == (0, 3 * 3 * 5)

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.sampled_from([4, 8, 16]),
        c=st.sampled_from([1, 5, 18]),
        pool=st.integers(1, 4),
        boxes=st.lists(_box, min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_einsum_oracle(self, g, c, pool, boxes, seed):
        grid = np.random.default_rng(seed).normal(size=(g, g, c))
        boxes = np.array(boxes, dtype=np.float64)
        got = roi_pool_batch(grid, boxes, pool)
        want = _roi_pool_oracle(grid, boxes, pool)
        assert got.shape == want.shape == (len(boxes), pool * pool * c)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got, _two_call_roi_pool(grid, boxes, pool))

    @pytest.mark.parametrize("boxes", [
        # Wholly off each side, straddling corners, larger than the image.
        [(-0.5, 0.5, 0.3, 0.3), (1.5, 0.5, 0.3, 0.3), (0.5, -0.4, 0.2, 0.2),
         (0.5, 1.4, 0.2, 0.2), (0.0, 0.0, 0.5, 0.5), (1.0, 1.0, 0.6, 0.2),
         (0.5, 0.5, 3.0, 3.0)],
        # Zero or near-zero spans, inside and on the border.
        [(0.5, 0.5, 0.0, 0.0), (0.3, 0.7, 0.0, 0.4), (0.3, 0.7, 0.4, 0.0),
         (1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 1e-10, 1e-10),
         (-0.2, 0.5, 0.2, 0.2)],
        # Box edges on the cell edges of an 8-cell grid.
        [(0.5, 0.5, 0.5, 0.25), (0.25, 0.25, 0.5, 0.5), (0.125, 0.375, 0.25, 0.25),
         (0.5, 0.5, 1.0, 1.0), (0.0625, 0.9375, 0.125, 0.125)],
    ], ids=["outside", "degenerate", "cell-edges"])
    def test_equals_two_call_oracle(self, boxes):
        grid = np.random.default_rng(20).normal(size=(8, 8, 5))
        boxes = np.array(boxes, dtype=np.float64)
        for pool in (1, 2, 3, 4):
            got = roi_pool_batch(grid, boxes, pool)
            np.testing.assert_array_equal(got, _two_call_roi_pool(grid, boxes, pool))
            # The same boxes as one image of a batch of three.
            many = roi_pool_batch(np.stack([grid] * 3), np.stack([boxes] * 3), pool)
            np.testing.assert_array_equal(many, np.stack([got] * 3))

    @pytest.mark.parametrize("b, n, g, c, pool", [(3, 7, 8, 5, 3), (2, 64, 16, 18, 4)])
    def test_images_axis_equals_stacked_calls(self, b, n, g, c, pool):
        rng = np.random.default_rng(21)
        grids = rng.normal(size=(b, g, g, c))
        boxes = rng.uniform(-0.2, 1.2, size=(b, n, 4))
        got = roi_pool_batch(grids, boxes, pool)
        assert got.shape == (b, n, pool * pool * c)
        want = np.stack([roi_pool_batch(gr, bx, pool) for gr, bx in zip(grids, boxes)])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one-image", "three-images"])
    def test_out_slice_is_filled_and_returned(self, lead):
        rng = np.random.default_rng(22)
        g, c, pool, n = 8, 5, 3, 7
        grids = rng.normal(size=(*lead, g, g, c))
        boxes = rng.uniform(-0.2, 1.2, size=(*lead, n, 4))
        # A column slice of a wider buffer: rows are strided, columns are not.
        buf = np.full((*lead, n, pool * pool * c + 6), 7.0)
        out = buf[..., 2 : 2 + pool * pool * c]
        got = roi_pool_batch(grids, boxes, pool, out=out)
        assert got is out
        np.testing.assert_array_equal(out, roi_pool_batch(grids, boxes, pool))
        for i in np.ndindex(*lead):
            np.testing.assert_array_equal(out[i], _two_call_roi_pool(grids[i], boxes[i], pool))
            np.testing.assert_allclose(
                out[i], _roi_pool_oracle(grids[i], boxes[i], pool), rtol=0, atol=1e-12
            )
        assert (buf[..., :2] == 7.0).all() and (buf[..., -4:] == 7.0).all()

    @pytest.mark.parametrize("grids_lead, boxes_lead", [
        ((3,), (2,)),  # one grid too many: a per-image loop would drop it
        ((), (2,)),
        ((2,), ()),
    ])
    def test_grids_and_boxes_must_pair_up(self, grids_lead, boxes_lead):
        grids = np.zeros((*grids_lead, 8, 8, 5))
        boxes = np.full((*boxes_lead, 4, 4), 0.5)
        shapes = re.escape(f"grids {grids.shape}, boxes {boxes.shape}")
        with pytest.raises(ValueError, match=shapes):
            roi_pool_batch(grids, boxes, 2)


class TestTimeEmbedding:
    def test_shape_and_range(self):
        e = time_embedding(500.0, 16)
        assert e.shape == (16,)
        assert np.all(np.abs(e) <= 1.0)

    def test_zero_time(self):
        e = time_embedding(0.0, 8)
        np.testing.assert_allclose(e[:4], 0.0)
        np.testing.assert_allclose(e[4:], 1.0)


class TestParams:
    def test_init_matches_declared_shapes(self):
        params = init_params(SMALL, np.random.default_rng(0))
        assert {k: v.shape for k, v in params.items()} == param_shapes(SMALL)
        check_shapes(params, SMALL)

    def test_heads_start_near_zero(self):
        params = init_params(SMALL, np.random.default_rng(1))
        for head in ("quadrant", "enumeration", "diagnosis"):
            assert np.all(np.abs(params[f"head_{head}.w"]) <= 1e-4)

    def test_zero_head_scale_is_exactly_zero(self):
        params = init_params(SMALL, np.random.default_rng(2), head_scale=0.0)
        assert np.all(params["head_quadrant.w"] == 0.0)

    def test_check_shapes_rejects_mismatch(self):
        params = init_params(SMALL, np.random.default_rng(3))
        params["box.w"] = params["box.w"][:, :3]
        with pytest.raises(ValueError):
            check_shapes(params, SMALL)
        del params["box.w"]
        with pytest.raises(ValueError):
            check_shapes(params, SMALL)


class TestDecode:
    def test_zero_heads_give_uniform_probs(self):
        params = init_params(SMALL, np.random.default_rng(4), head_scale=0.0)
        grid = np.random.default_rng(5).normal(size=(4, 4, NUM_CHANNELS))
        z = np.random.default_rng(6).standard_normal((6, 4))
        z0_pred, probs, scores, logits = decode(
            params, grid, z, 500.0, HierarchyLevel.QUADRANT_ONLY, SMALL
        )
        assert z0_pred.shape == (6, 4)
        assert {h: p.shape for h, p in probs.items()} == {
            "quadrant": (6, 4), "enumeration": (6, 8), "diagnosis": (6, 4),
        }
        np.testing.assert_allclose(probs["quadrant"], 0.25)
        np.testing.assert_allclose(scores, 0.25)
        # loss distribution includes the background logit
        loss = loss_probs_for_mask(logits, HierarchyLevel.QUADRANT_ONLY)
        np.testing.assert_allclose(loss["quadrant"], 0.2)

    def test_scores_are_max_of_deepest_head(self):
        params = init_params(SMALL, np.random.default_rng(10), head_scale=1.0)
        grid = np.random.default_rng(11).normal(size=(4, 4, NUM_CHANNELS))
        z = np.random.default_rng(12).standard_normal((5, 4))
        for level, head in zip(HierarchyLevel, HEAD_NAMES):
            _, probs, scores, logits = decode(params, grid, z, 50.0, level, SMALL)
            np.testing.assert_array_equal(scores, probs[head].max(axis=1))
            for h, p in probs.items():
                k = p.shape[1]
                assert logits[h].shape == (5, k + 1)
                np.testing.assert_array_equal(p, softmax(logits[h][:, :k]))

    def test_boxes_are_decoded_signal(self):
        params = init_params(SMALL, np.random.default_rng(7))
        grid = np.zeros((4, 4, NUM_CHANNELS))
        z = np.random.default_rng(8).standard_normal((3, 4))
        z0_pred, _, _, logits = decode(params, grid, z, 100.0, HierarchyLevel.FULL, SMALL)
        net = forward_net(params, forward_features(SMALL, grid, z, 100.0), z)
        np.testing.assert_array_equal(z0_pred, net.z0_pred)
        for head in HEAD_NAMES:
            np.testing.assert_array_equal(logits[head], net.logits[head])
        boxes01 = signal_decode(z0_pred, SMALL.scale)
        assert ((boxes01 >= 0.0) & (boxes01 <= 1.0)).all()

    def test_rejects_bad_proposals(self):
        params = init_params(SMALL, np.random.default_rng(9))
        grid = np.zeros((4, 4, NUM_CHANNELS))
        level = HierarchyLevel.QUADRANT_ONLY
        with pytest.raises(ValueError):
            decode(params, grid, np.zeros((3, 5)), 10.0, level, SMALL)
        with pytest.raises(ValueError, match="one .* feature grid per image"):
            decode(params, grid, np.zeros((2, 3, 4)), 10.0, level, SMALL)

    @pytest.mark.parametrize("cfg, n", [(SMALL, 5), (ModelConfig(), 64)],
                             ids=["small", "default"])
    def test_images_axis_equals_stacked_calls(self, cfg, n):
        rng = np.random.default_rng(13)
        params = init_params(cfg, rng, head_scale=0.3)
        grids = rng.normal(size=(3, cfg.grid, cfg.grid, NUM_CHANNELS))
        z = rng.standard_normal((3, n, 4))
        level = HierarchyLevel.QUADRANT_ENUM
        z0_pred, probs, scores, logits = decode(params, grids, z, 250.0, level, cfg)
        ones = [decode(params, g, zi, 250.0, level, cfg) for g, zi in zip(grids, z)]
        np.testing.assert_array_equal(z0_pred, np.stack([o[0] for o in ones]))
        np.testing.assert_array_equal(scores, np.stack([o[2] for o in ones]))
        for head in HEAD_NAMES:
            np.testing.assert_array_equal(probs[head], np.stack([o[1][head] for o in ones]))
            np.testing.assert_array_equal(logits[head], np.stack([o[3][head] for o in ones]))
        net = forward_net(params, forward_features(cfg, grids, z, 250.0), z)
        for b, o in enumerate(ones):
            one = forward_net(params, forward_features(cfg, grids[b], z[b], 250.0), z[b])
            for name in ("x", "h1", "z0_pred"):
                np.testing.assert_array_equal(getattr(net, name)[b], getattr(one, name))
            for head in HEAD_NAMES:
                np.testing.assert_array_equal(net.logits[head][b], one.logits[head])
                np.testing.assert_array_equal(o[3][head], one.logits[head])

    def test_computes_only_the_listed_heads(self):
        params = init_params(SMALL, np.random.default_rng(14), head_scale=1.0)
        grid = np.random.default_rng(15).normal(size=(2, 4, 4, NUM_CHANNELS))
        z = np.random.default_rng(16).standard_normal((2, 5, 4))
        level = HierarchyLevel.QUADRANT_ENUM
        z0_all, probs_all, scores_all, _ = decode(params, grid, z, 40.0, level, SMALL)
        z0_pred, probs, scores, logits = decode(params, grid, z, 40.0, level, SMALL, heads=())
        np.testing.assert_array_equal(z0_pred, z0_all)
        assert probs == {} and logits == {} and scores is None
        _, probs, scores, logits = decode(
            params, grid, z, 40.0, level, SMALL, heads=("enumeration",)
        )
        assert set(probs) == set(logits) == {"enumeration"}
        np.testing.assert_array_equal(probs["enumeration"], probs_all["enumeration"])
        np.testing.assert_array_equal(scores, scores_all)


# ---------------------------------------------------------------------------
# The decoder as it was before the head input was shared: the trunk output is
# concatenated with the decoder input for the heads, in forward and backward.
# The head-input versions must equal it exactly.


def _concat_forward_net(params, x, z, heads=HEAD_NAMES):
    h1 = np.maximum(x @ params["trunk.w1"] + params["trunk.b1"], 0.0)
    h2 = np.maximum(h1 @ params["trunk.w2"] + params["trunk.b2"], 0.0)
    z0_pred = np.asarray(z, dtype=np.float64) + h2 @ params["box.w"] + params["box.b"]
    logits = {}
    if heads:
        h2x = np.concatenate([h2, x], axis=-1)
        logits = {
            head: h2x @ params[f"head_{head}.w"] + params[f"head_{head}.b"]
            for head in heads
        }
    return SimpleNamespace(x=x, h1=h1, h2=h2, z0_pred=z0_pred, logits=logits)


def _concat_backward_net(params, cache, dz0_pred, dlogits, grads):
    h1, h2, x = cache.h1, cache.h2, cache.x
    width = h2.shape[1]
    h2x = np.concatenate([h2, x], axis=1)
    dh2 = dz0_pred @ params["box.w"].T
    grads["box.w"] += h2.T @ dz0_pred
    grads["box.b"] += dz0_pred.sum(axis=0)
    for head, dl in dlogits.items():
        dh2 += dl @ params[f"head_{head}.w"][:width].T
        grads[f"head_{head}.w"] += h2x.T @ dl
        grads[f"head_{head}.b"] += dl.sum(axis=0)
    dh2 = dh2 * (h2 > 0)
    dh1 = (dh2 @ params["trunk.w2"].T) * (h1 > 0)
    grads["trunk.w2"] += h1.T @ dh2
    grads["trunk.b2"] += dh2.sum(axis=0)
    grads["trunk.w1"] += x.T @ dh1
    grads["trunk.b1"] += dh1.sum(axis=0)


def _head_input(x, hidden, layout):
    """An (..., H + D) head input holding ``x`` in its last D columns, laid
    out as its own array, as a row range of a taller buffer, or as a column
    range of a wider one (rows then sit further apart than H + D)."""
    lead, d = x.shape[:-1], x.shape[-1]
    if layout == "own":
        buf = np.empty((*lead, hidden + d))
    elif layout == "rows":
        buf = np.empty((*lead[:-1], lead[-1] + 5, hidden + d))[..., 3 : 3 + lead[-1], :]
    else:
        buf = np.empty((*lead, hidden + d + 7))[..., 4 : 4 + hidden + d]
    buf[..., :hidden] = np.nan  # forward_net must overwrite every trunk column
    buf[..., hidden:] = x
    return buf


LAYOUTS = ("own", "rows", "strided")


class TestHeadInput:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("lead", [(6,), (3, 6)], ids=["2d", "3d"])
    @pytest.mark.parametrize("heads", [HEAD_NAMES, ("enumeration",), ()],
                             ids=["all", "one", "none"])
    def test_forward_net_equals_concat_oracle(self, layout, lead, heads):
        rng = np.random.default_rng(30)
        params = init_params(SMALL, rng, head_scale=0.3)
        x = rng.normal(size=(*lead, SMALL.feat_dim))
        z = rng.standard_normal((*lead, 4))
        hx = _head_input(x, SMALL.hidden, layout)
        got = forward_net(params, hx, z, heads)
        want = _concat_forward_net(params, x, z, heads)
        assert got.x is hx
        np.testing.assert_array_equal(hx[..., : SMALL.hidden], want.h2)
        np.testing.assert_array_equal(hx[..., SMALL.hidden :], x)
        np.testing.assert_array_equal(got.h1, want.h1)
        np.testing.assert_array_equal(got.z0_pred, want.z0_pred)
        assert set(got.logits) == set(want.logits) == set(heads)
        for head in heads:
            np.testing.assert_array_equal(got.logits[head], want.logits[head])

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("lead", [(6,), (3, 6)], ids=["2d", "3d"])
    def test_forward_features_fills_the_decoder_columns(self, layout, lead):
        rng = np.random.default_rng(31)
        grids = rng.normal(size=(*lead[:-1], SMALL.grid, SMALL.grid, NUM_CHANNELS))
        z = rng.standard_normal((*lead, 4))
        out = _head_input(np.zeros((*lead, SMALL.feat_dim)), SMALL.hidden, layout)
        assert forward_features(SMALL, grids, z, 70.0, out=out) is out
        fresh = forward_features(SMALL, grids, z, 70.0)
        assert fresh.shape == (*lead, SMALL.hidden + SMALL.feat_dim)
        roi_dim = SMALL.feat_dim - SMALL.time_dim
        boxes01 = signal_decode(z, SMALL.scale)
        for part in (out, fresh):
            x = part[..., SMALL.hidden :]
            np.testing.assert_array_equal(
                x[..., :roi_dim], roi_pool_batch(grids, boxes01, SMALL.pool)
            )
            np.testing.assert_array_equal(
                x[..., roi_dim:], np.broadcast_to(time_embedding(70.0, SMALL.time_dim),
                                                  (*lead, SMALL.time_dim))
            )
        assert np.isnan(out[..., : SMALL.hidden]).all()

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("heads", [HEAD_NAMES, ("quadrant",), ()],
                             ids=["all", "one", "none"])
    def test_backward_net_equals_concat_oracle(self, layout, heads):
        rng = np.random.default_rng(32)
        params = init_params(SMALL, rng, head_scale=0.3)
        x = rng.normal(size=(9, SMALL.feat_dim))
        z = rng.standard_normal((9, 4))
        dz0_pred = rng.normal(size=(9, 4))
        dlogits = {h: rng.normal(size=(9, params[f"head_{h}.b"].size)) for h in heads}
        got, want = zero_grads(SMALL), zero_grads(SMALL)
        cache = forward_net(params, _head_input(x, SMALL.hidden, layout), z, heads)
        backward_net(params, cache, dz0_pred, dlogits, got)
        oracle = _concat_forward_net(params, x, z, heads)
        _concat_backward_net(params, oracle, dz0_pred, dlogits, want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("level", list(HierarchyLevel), ids=["q", "qe", "qed"])
class TestGradients:
    def test_finite_difference_check(self, level):
        rng = np.random.default_rng(10)
        params = init_params(SMALL, rng)
        # Jitter biases so no ReLU pre-activation sits exactly at its kink,
        # where two-sided differences disagree with either one-sided slope.
        for name in params:
            if name.endswith(".b") or ".b" in name:
                params[name] = params[name] + rng.normal(0, 0.01, params[name].shape)
        batch = grad_batch(rng, level, SMALL, 1)
        _, grads, _ = loss_gradients(params, *batch, level, SMALL)
        eps = 1e-5
        worst = 0.0
        for name in params:
            flat = params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                lp, _, _ = loss_gradients(params, *batch, level, SMALL)
                flat[i] = orig - eps
                lm, _, _ = loss_gradients(params, *batch, level, SMALL)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                # The 1e-6 floor keeps sub-1e-7 gradients, where central
                # differences are pure roundoff, from dominating the check.
                denom = max(abs(fd), abs(gflat[i]), 1e-6)
                worst = max(worst, abs(fd - gflat[i]) / denom)
        assert worst < 1e-4

    def test_frozen_heads_zero_gradient(self, level):
        rng = np.random.default_rng(11)
        params = init_params(SMALL, rng)
        _, grads, _ = loss_gradients(params, *grad_batch(rng, level, SMALL, 1), level, SMALL)
        frozen = [h for h in ("enumeration", "diagnosis") if h not in level.heads]
        for head in frozen:
            assert np.all(grads[f"head_{head}.w"] == 0.0)
            assert np.all(grads[f"head_{head}.b"] == 0.0)


class TestBatching:
    def test_batch_loss_is_mean_of_singles(self):
        rng = np.random.default_rng(12)
        level = HierarchyLevel.QUADRANT_ENUM
        params = init_params(SMALL, rng)
        batch = grad_batch(rng, level, SMALL, 3)
        loss_b, grads_b, _ = loss_gradients(params, *batch, level, SMALL)
        singles = [
            loss_gradients(params, *(part[i : i + 1] for part in batch), level, SMALL)
            for i in range(3)
        ]
        assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for name in grads_b:
            want = np.mean([s[1][name] for s in singles], axis=0)
            np.testing.assert_allclose(grads_b[name], want, atol=1e-12)


class TestDecodeGradMask:
    def test_masks_clamped_coordinates(self):
        scale = 2.0
        z = np.array([[0.0, 5.0, -5.0, 0.0]])
        m = decode_grad_mask(z, scale)
        assert m[0, 0] == pytest.approx(1 / (2 * scale))  # interior center
        assert m[0, 1] == 0.0  # clamped high
        assert m[0, 2] == 0.0  # clamped low (below size floor)
        assert m[0, 3] == pytest.approx(1 / (2 * scale))


# ---------------------------------------------------------------------------
# The hand-written parameter set the layout replaced: init_params drew each
# tensor by name, and transfer_weights listed the tensors it copies.  Kept
# as the oracles the layout walk must equal exactly.

_SHARED = ("trunk.w1", "trunk.b1", "trunk.w2", "trunk.b2", "box.w", "box.b")


def _oracle_init_params(cfg, rng, head_scale=1e-4):
    def xavier(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    d, h = cfg.feat_dim, cfg.hidden
    params = {
        "trunk.w1": xavier(d, h),
        "trunk.b1": np.zeros(h),
        "trunk.w2": xavier(h, h),
        "trunk.b2": np.zeros(h),
        "box.w": xavier(h, 4),
        "box.b": np.zeros(4),
    }
    for head in HEAD_NAMES:
        k = HEAD_CLASS_COUNTS[head] + 1
        params[f"head_{head}.w"] = rng.uniform(-head_scale, head_scale, size=(h + d, k))
        params[f"head_{head}.b"] = rng.uniform(-head_scale, head_scale, size=k)
    return params


def _oracle_transfer_weights(src, dst, src_level=None):
    for name in _SHARED:
        if src[name].shape != dst[name].shape:
            raise ValueError(f"incompatible trunk shapes for {name}")
    heads = src_level.heads if src_level is not None else tuple(HEAD_NAMES)
    copied = [*_SHARED, *(f"head_{h}.{p}" for h in heads for p in ("w", "b"))]
    out = {k: v.copy() for k, v in dst.items()}
    for name in copied:
        if src[name].shape != out[name].shape:
            raise ValueError(f"incompatible shapes for {name}")
        out[name] = src[name].copy()
    return out, copied


def _same_store(a, b):
    return list(a) == list(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)


LEVELS = [*HierarchyLevel, None]


@pytest.mark.parametrize("cfg", [SMALL, ModelConfig()], ids=["small", "default"])
@pytest.mark.parametrize("head_scale", [0.0, 1e-4])
class TestLayout:
    def test_init_equals_named_draws(self, cfg, head_scale):
        got = init_params(cfg, np.random.default_rng(31), head_scale)
        want = _oracle_init_params(cfg, np.random.default_rng(31), head_scale)
        assert _same_store(got, want)
        assert level_params() == list(param_shapes(cfg)) == list(got)

    @pytest.mark.parametrize("level", LEVELS, ids=["a", "b", "c", "all"])
    def test_transfer_equals_named_list(self, cfg, head_scale, level):
        src = init_params(cfg, np.random.default_rng(32), head_scale=0.3)
        dst = init_params(cfg, np.random.default_rng(33), head_scale)
        got, copied = transfer_weights(src, dst, src_level=level)
        want, want_copied = _oracle_transfer_weights(src, dst, src_level=level)
        assert _same_store(got, want)
        assert copied == want_copied == level_params(level)


class TestTransfer:
    def test_copies_trunk_and_supervised_heads(self):
        src = init_params(SMALL, np.random.default_rng(13))
        dst = init_params(SMALL, np.random.default_rng(14))
        out, copied = transfer_weights(src, dst, src_level=HierarchyLevel.QUADRANT_ENUM)
        assert "head_diagnosis.w" not in copied
        np.testing.assert_array_equal(out["trunk.w1"], src["trunk.w1"])
        np.testing.assert_array_equal(out["head_quadrant.w"], src["head_quadrant.w"])
        np.testing.assert_array_equal(out["head_enumeration.w"],
                                      src["head_enumeration.w"])
        np.testing.assert_array_equal(out["head_diagnosis.w"],
                                      dst["head_diagnosis.w"])

    def test_inputs_not_mutated(self):
        src = init_params(SMALL, np.random.default_rng(15))
        dst = init_params(SMALL, np.random.default_rng(16))
        dst_before = {k: v.copy() for k, v in dst.items()}
        out, _ = transfer_weights(src, dst, src_level=HierarchyLevel.QUADRANT_ONLY)
        for k in dst:
            np.testing.assert_array_equal(dst[k], dst_before[k])
        out["trunk.w1"][0, 0] += 1.0
        assert src["trunk.w1"][0, 0] != out["trunk.w1"][0, 0]

    def test_shape_mismatch_rejected(self):
        src = init_params(SMALL, np.random.default_rng(17))
        dst = init_params(ModelConfig(grid=4, pool=2, hidden=16, time_dim=4),
                          np.random.default_rng(18))
        with pytest.raises(ValueError):
            transfer_weights(src, dst)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(SMALL, np.random.default_rng(19))
        meta = {"level": "quadrant", "iteration": 42}
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, meta)
        back, meta2 = load_checkpoint(path)
        assert meta2 == meta
        assert set(back) == set(params)
        for name in params:
            assert back[name].tobytes() == params[name].tobytes()

    def test_double_round_trip_identical_files(self, tmp_path):
        params = init_params(SMALL, np.random.default_rng(20))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, params, {"x": 1})
        back, meta = load_checkpoint(p1)
        save_checkpoint(p2, back, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [1, 8, 12, 512])
    def test_truncated_tensor_names_it(self, tmp_path, cut):
        # Cuts inside a float and cuts at a float boundary (down to the whole
        # last tensor) must both name the short tensor.
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(SMALL, np.random.default_rng(22)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=r"truncated tensor 'trunk\.w2'"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(SMALL, np.random.default_rng(23)))
        blob = path.read_bytes()
        for size in (12, 40):  # inside the header length, inside the header
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="truncated header"):
                load_checkpoint(path)


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(21).normal(scale=50, size=(10, 5))
    p = softmax(x)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)
