"""Synthetic layout generation, annotation I/O, splits, and image files."""

import numpy as np
import pytest

from dentdet.data import (
    Annotation,
    AnnotationError,
    AnnotationSet,
    ImageInfo,
    Layout,
    generate_dataset,
    generate_layout,
    level_tag,
    load_annotations,
    project_level,
    quadrant_region,
    random_crop_resize,
    split_manifest,
    write_annotations,
)
from dentdet.geometry import Box, iou
from dentdet.imageio import read_pgm, write_pgm
from dentdet.labels import NUM_ENUMERATIONS, NUM_QUADRANTS, HierarchyLevel, LabelTriple
from helpers import truth_arrays


def check_layout(layout: Layout) -> None:
    """Raise if a layout violates its structural invariants."""
    seen = set()
    for t in layout.teeth:
        key = (t.quadrant, t.enumeration)
        if key in seen:
            raise ValueError(f"duplicate tooth slot {key}")
        seen.add(key)
        if not t.present:
            continue
        x0, y0, x1, y1 = quadrant_region(t.quadrant, layout.size)
        bx0, by0, bx1, by1 = (v * layout.size for v in t.box.to_xyxy())
        if not (x0 - 1e-6 <= bx0 and bx1 <= x1 + 1e-6 and y0 - 1e-6 <= by0 and by1 <= y1 + 1e-6):
            raise ValueError(
                f"tooth {key} box escapes its quadrant region"
            )
    if len(layout.teeth) != NUM_QUADRANTS * NUM_ENUMERATIONS:
        raise ValueError("layout must carry 32 tooth slots")


class TestLayout:
    def test_seed_determinism(self):
        img1, lay1 = generate_layout(123)
        img2, lay2 = generate_layout(123)
        np.testing.assert_array_equal(img1, img2)
        assert lay1 == lay2

    def test_different_seeds_differ(self):
        img1, _ = generate_layout(1)
        img2, _ = generate_layout(2)
        assert not np.array_equal(img1, img2)

    def test_invariant_sweep(self):
        for seed in range(300):
            img, layout = generate_layout(seed)
            check_layout(layout)
            assert img.shape == (256, 256) and img.dtype == np.uint8
            n_missing = 32 - len(layout.present())
            assert 0 <= n_missing <= 4
            assert 1 <= len(layout.diagnosed()) <= 5

    def test_teeth_have_integer_pixel_boxes(self):
        _, layout = generate_layout(7)
        for t in layout.present():
            arr = t.box.to_array() * 256
            x1, y1, x2, y2 = np.array(t.box.to_xyxy()) * 256
            for v in (x1, y1, x2, y2):
                assert v == pytest.approx(round(v), abs=1e-9)

    def test_quadrant_region_partition(self):
        covered = np.zeros((64, 64), dtype=int)
        for q in range(4):
            x0, y0, x1, y1 = quadrant_region(q, 64)
            covered[y0:y1, x0:x1] += 1
        assert np.all(covered == 1)


@pytest.fixture(scope="module")
def layout():
    return generate_layout(42)[1]


class TestProjection:

    def test_quadrant_envelopes_cover_member_teeth(self, layout):
        anns = project_level(layout, HierarchyLevel.QUADRANT_ONLY)
        assert 1 <= len(anns) <= 4
        for env, lab in anns:
            assert lab.enumeration is None
            ex1, ey1, ex2, ey2 = env.to_xyxy()
            members = [t for t in layout.present() if t.quadrant == lab.quadrant]
            assert members
            for t in members:
                x1, y1, x2, y2 = t.box.to_xyxy()
                assert ex1 <= x1 + 1e-9 and ey1 <= y1 + 1e-9
                assert x2 <= ex2 + 1e-9 and y2 <= ey2 + 1e-9

    def test_enum_level_lists_every_present_tooth(self, layout):
        anns = project_level(layout, HierarchyLevel.QUADRANT_ENUM)
        assert len(anns) == len(layout.present())
        for _, lab in anns:
            assert lab.enumeration is not None and lab.diagnosis is None

    def test_full_level_lists_only_diagnosed(self, layout):
        anns = project_level(layout, HierarchyLevel.FULL)
        assert len(anns) == len(layout.diagnosed())
        for _, lab in anns:
            assert lab.diagnosis is not None


def _tiny_set(level=HierarchyLevel.FULL):
    aset = AnnotationSet(level=level)
    aset.images.append(ImageInfo("im0", 256, 256, "im0.pgm"))
    labels = {
        HierarchyLevel.QUADRANT_ONLY: LabelTriple(2),
        HierarchyLevel.QUADRANT_ENUM: LabelTriple(2, 5),
        HierarchyLevel.FULL: LabelTriple(2, 5, 1),
    }
    aset.annotations.append(
        Annotation("im0", Box(0.25, 0.5, 0.125, 0.25), labels[level])
    )
    return aset


class TestAnnotationIO:
    @pytest.mark.parametrize("level", list(HierarchyLevel))
    def test_round_trip_exact(self, tmp_path, level):
        aset = _tiny_set(level)
        path = tmp_path / "ann.json"
        write_annotations(aset, path)
        back = load_annotations(path, level)
        assert back.images == aset.images
        assert back.annotations == aset.annotations

    def test_generated_dataset_round_trips(self, tmp_path):
        generate_dataset(tmp_path, 3, 9)
        for level in HierarchyLevel:
            path = tmp_path / f"annotations_{level_tag(level)}.json"
            aset = load_annotations(path, level)
            out = tmp_path / "rewritten.json"
            write_annotations(aset, out)
            back = load_annotations(out, level)
            assert back.annotations == aset.annotations

    def test_pixel_bbox_convention(self, tmp_path):
        # cx 0.25, w 0.125 on a 256-px image -> bbox x = 48, w = 32.
        path = tmp_path / "ann.json"
        write_annotations(_tiny_set(), path)
        import json

        doc = json.loads(path.read_text())
        assert doc["annotations"][0]["bbox"] == [48.0, 96.0, 32.0, 64.0]
        assert doc["annotations"][0]["category_id_1"] == 2
        assert doc["annotations"][0]["category_id_3"] == 1

    def test_missing_required_label_rejected(self, tmp_path):
        path = tmp_path / "ann.json"
        write_annotations(_tiny_set(HierarchyLevel.QUADRANT_ONLY), path)
        with pytest.raises(AnnotationError) as exc:
            load_annotations(path, HierarchyLevel.QUADRANT_ENUM)
        assert any("missing enumeration" in msg for _, msg in exc.value.errors)

    def test_extra_label_rejected(self, tmp_path):
        path = tmp_path / "ann.json"
        write_annotations(_tiny_set(HierarchyLevel.FULL), path)
        with pytest.raises(AnnotationError) as exc:
            load_annotations(path, HierarchyLevel.QUADRANT_ONLY)
        assert any("not allowed" in msg for _, msg in exc.value.errors)

    def test_bad_geometry_rejected(self, tmp_path):
        import json

        doc = {
            "level": "quadrant",
            "images": [{"id": "a", "width": 100, "height": 100, "file_name": "a.pgm"}],
            "annotations": [
                {"image_id": "a", "bbox": [10, 10, 0, 5], "category_id_1": 0},
                {"image_id": "a", "bbox": [90, 90, 20, 20], "category_id_1": 0},
                {"image_id": "b", "bbox": [1, 1, 5, 5], "category_id_1": 0},
                {"image_id": "a", "bbox": [float("nan"), 1, 5, 5], "category_id_1": 0},
                {"image_id": "a", "bbox": [1, 1, 5, float("nan")], "category_id_1": 0},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationError) as exc:
            load_annotations(path, HierarchyLevel.QUADRANT_ONLY)
        msgs = [m for _, m in exc.value.errors]
        assert any("non-positive" in m for m in msgs)
        assert any("outside image bounds" in m for m in msgs)
        assert any("unknown image_id" in m for m in msgs)
        assert [i for i, _ in exc.value.errors] == [0, 1, 2, 3, 4]


    @pytest.mark.parametrize("width, height", [
        (100.7, 100), (100, True), ("256", 256), (0, 100), (100, -3), (None, 100),
    ])
    def test_image_size_must_be_positive_integers(self, tmp_path, width, height):
        import json

        doc = {"images": [{"id": "a", "width": 100, "height": 100},
                          {"id": "b", "width": width, "height": height}],
               "annotations": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationError) as exc:
            load_annotations(path, HierarchyLevel.QUADRANT_ONLY)
        assert exc.value.errors == [
            (1, f"image size {width!r}x{height!r} is not two positive integers")
        ]

    def test_duplicate_image_id_rejected(self, tmp_path):
        import json

        doc = {
            "images": [{"id": "a", "width": 100, "height": 100},
                       {"id": "b", "width": 80, "height": 80},
                       {"id": "a", "width": 50, "height": 50}],
            "annotations": [{"image_id": "a", "bbox": [60, 60, 30, 30], "category_id_1": 0}],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationError) as exc:
            load_annotations(path, HierarchyLevel.QUADRANT_ONLY)
        # Only the second "a" is at fault; the box lies inside the first.
        assert exc.value.errors == [(2, "duplicate image id 'a'")]

class TestSplit:
    def _set_of(self, n, level=HierarchyLevel.FULL):
        aset = AnnotationSet(level=level)
        for i in range(n):
            aset.images.append(ImageInfo(f"im{i:04d}", 256, 256, f"im{i:04d}.pgm"))
        return aset

    def test_reference_proportions(self):
        aset = self._set_of(1005)
        tr, va, te = split_manifest(aset, (705 / 1005, 50 / 1005, 250 / 1005), 0)
        assert (len(tr), len(va), len(te)) == (705, 50, 250)
        assert len(set(tr) | set(va) | set(te)) == 1005

    def test_deterministic(self):
        aset = self._set_of(40)
        assert split_manifest(aset, (0.5, 0.25, 0.25), 3) == split_manifest(
            aset, (0.5, 0.25, 0.25), 3
        )
        assert split_manifest(aset, (0.5, 0.25, 0.25), 3) != split_manifest(
            aset, (0.5, 0.25, 0.25), 4
        )

    def test_partial_levels_cannot_hold_test_data(self):
        aset = self._set_of(10, HierarchyLevel.QUADRANT_ONLY)
        with pytest.raises(ValueError):
            split_manifest(aset, (0.5, 0.25, 0.25), 0)
        tr, va, te = split_manifest(aset, (0.8, 0.2, 0.0), 0)
        assert te == []

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split_manifest(self._set_of(4), (0.5, 0.2, 0.2), 0)


def box_crop_resize(img, gts, rng, min_area=0.8):
    """The augmentation as first written, on (Box, label) pairs: the oracle
    ``random_crop_resize`` must equal exactly."""
    h, w = img.shape
    frac = np.sqrt(rng.uniform(min_area, 1.0))
    cw, ch = int(round(w * frac)), int(round(h * frac))
    x0 = int(rng.integers(0, w - cw + 1))
    y0 = int(rng.integers(0, h - ch + 1))
    crop = img[y0 : y0 + ch, x0 : x0 + cw]
    yi = np.clip((np.arange(h) * ch / h).astype(int), 0, ch - 1)
    xi = np.clip((np.arange(w) * cw / w).astype(int), 0, cw - 1)
    out_img = crop[np.ix_(yi, xi)]
    out_gts = []
    for box, label in gts:
        cx_px, cy_px = box.cx * w, box.cy * h
        if not (x0 <= cx_px < x0 + cw and y0 <= cy_px < y0 + ch):
            continue
        x1, y1, x2, y2 = (v * s for v, s in zip(box.to_xyxy(), (w, h, w, h)))
        x1 = max(x1 - x0, 0.0) / cw
        x2 = min(x2 - x0, cw) / cw
        y1 = max(y1 - y0, 0.0) / ch
        y2 = min(y2 - y0, ch) / ch
        if x2 - x1 <= 0 or y2 - y1 <= 0:
            continue
        out_gts.append((Box.from_xyxy(x1, y1, x2, y2), label))
    return out_img, out_gts


def box_oracle_crop(img, boxes, classes, rng, min_area=0.8):
    """``box_crop_resize`` with ``random_crop_resize``'s array signature."""
    pairs = [(Box.from_array(b), tuple(c)) for b, c in zip(boxes, classes)]
    out_img, out = box_crop_resize(img, pairs, rng, min_area)
    out_boxes = np.array([b.to_array() for b, _ in out], dtype=np.float64)
    out_classes = np.array([c for _, c in out], dtype=classes.dtype)
    return out_img, out_boxes.reshape(-1, 4), out_classes.reshape(-1, classes.shape[1])


class TestAugmentation:
    def test_shape_preserved_and_boxes_valid(self):
        rng = np.random.default_rng(0)
        img, layout = generate_layout(11)
        boxes, classes = truth_arrays(project_level(layout, HierarchyLevel.QUADRANT_ENUM))
        for _ in range(20):
            out_img, out_boxes, out_classes = random_crop_resize(img, boxes, classes, rng)
            assert out_img.shape == img.shape
            assert len(out_boxes) == len(out_classes) <= len(boxes)
            for box in out_boxes:
                x1, y1, x2, y2 = Box.from_array(box).to_xyxy()
                assert -1e-9 <= x1 < x2 <= 1 + 1e-9
                assert -1e-9 <= y1 < y2 <= 1 + 1e-9

    def test_identity_crop_possible(self):
        rng = np.random.default_rng(1)
        img = np.arange(64 * 64, dtype=np.uint8).reshape(64, 64)
        boxes, classes = truth_arrays([(Box(0.5, 0.5, 0.25, 0.25), LabelTriple(0))])
        out_img, out_boxes, out_classes = random_crop_resize(
            img, boxes, classes, rng, min_area=1.0
        )
        np.testing.assert_array_equal(out_img, img)
        assert np.array_equal(out_boxes, boxes)
        assert np.array_equal(out_classes, classes)

    def test_equals_box_oracle(self):
        # Layout boxes of every level, and random boxes on the pixel grid
        # whose centres can sit exactly on a crop edge; small crops drop
        # and clip many of them.
        dropped = clipped = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            img, layout = generate_layout(seed, size=64)
            level = list(HierarchyLevel)[seed % 3]
            boxes, classes = truth_arrays(project_level(layout, level))
            k = 8
            grid = rng.integers(0, 65, (k, 2)) / 64
            sizes = rng.integers(1, 40, (k, 2)) / 64
            boxes = np.concatenate([boxes, np.column_stack([grid, sizes])])
            classes = np.concatenate([classes, rng.integers(-1, 4, (k, 3))])
            min_area = (0.3, 0.8, 1.0)[seed % 3]
            want_rng, got_rng = (np.random.default_rng([seed, 1]) for _ in range(2))
            want = box_oracle_crop(img, boxes, classes, want_rng, min_area)
            got = random_crop_resize(img, boxes, classes, got_rng, min_area)
            assert np.array_equal(got[0], want[0])
            assert got[1].shape == want[1].shape and (got[1] == want[1]).all()
            assert got[2].dtype == classes.dtype
            assert np.array_equal(got[2], want[2])
            assert got_rng.random() == want_rng.random()
            dropped += len(boxes) - len(got[1])
            corners = np.array([Box.from_array(r).to_xyxy() for r in got[1]])
            clipped += int(np.isclose(corners, 0.0).sum() + np.isclose(corners, 1.0).sum())
        assert dropped > 100 and clipped > 100

    def test_train_stage_with_box_oracle_is_byte_equal(self, monkeypatch):
        import dentdet.train as train_mod
        from dentdet.diffusion import Schedule
        from dentdet.model import ModelConfig, encode_image
        from dentdet.train import StageConfig, TrainSample, train_stage

        cfg = ModelConfig(grid=8, pool=2, hidden=16, time_dim=8)
        schedule = Schedule.cosine(1000, 0.008)
        level = HierarchyLevel.QUADRANT_ENUM
        samples = []
        for i in range(3):
            img, layout = generate_layout(600 + i)
            gt_boxes, gt_classes = truth_arrays(project_level(layout, level))
            samples.append(TrainSample(
                image_id=f"s{i}", image=img, grid_feats=encode_image(img, cfg.grid),
                gt_boxes=gt_boxes, gt_classes=gt_classes, width=256, height=256,
            ))
        stage = StageConfig(level=level, iterations=6, batch_size=3, lr=1e-2,
                            n_proposals=24, seed=5, augment=True)
        calls = []

        def oracle(*args, **kwargs):
            calls.append(1)
            return box_oracle_crop(*args, **kwargs)

        got, _ = train_stage(stage, samples, cfg, schedule)
        monkeypatch.setattr(train_mod, "random_crop_resize", oracle)
        want, _ = train_stage(stage, samples, cfg, schedule)
        assert len(calls) == stage.iterations * stage.batch_size
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestDatasetGeneration:
    def test_writes_all_levels(self, tmp_path):
        paths = generate_dataset(tmp_path, 2, 5)
        assert set(paths) == set(HierarchyLevel)
        pgms = sorted(p.name for p in (tmp_path / "images").iterdir())
        assert len(pgms) == 6  # two per level, level-tagged ids
        assert pgms[0].startswith("q_")
        for level, path in paths.items():
            aset = load_annotations(path, level)
            assert len(aset.images) == 2
            for info in aset.images:
                img = read_pgm(tmp_path / "images" / info.file_name)
                assert img.shape == (256, 256)

    def test_regeneration_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, 2, 31)
        generate_dataset(b, 2, 31)
        for p in sorted(a.rglob("*")):
            q = b / p.relative_to(a)
            if p.is_file():
                assert p.read_bytes() == q.read_bytes()


class TestImageIO:
    def test_pgm_round_trip(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, (17, 23)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_ascii_pgm_with_comments(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n# comment\n2 2\n255\n0 64\n128 255\n")
        np.testing.assert_array_equal(
            read_pgm(path), np.array([[0, 64], [128, 255]], dtype=np.uint8)
        )

    @pytest.mark.parametrize("content, message", [
        (b"P6\n2 2\n255\n" + bytes(12), "unsupported netpbm magic b'P6'"),
        (b"P5\n2 2\n65535\n" + bytes(8), "only 8-bit graymaps supported"),
        (b"P5\n0 2\n255\n", "bad image size 0x2"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated pixel data: 3 of 4 bytes"),
        (b"P2\n2 2\n255\n0 64 128\n", "truncated pixel data: 3 of 4 values"),
        (b"P2\n2 2\n255\n0 64 128 300\n", "out of bounds for uint8"),
        (b"P5\n2", "truncated netpbm header"),
        (b"P5\nx 2\n255\n", "invalid literal"),
    ])
    def test_malformed_graymap_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError) as err:
            read_pgm(path)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    def test_rejects_wrong_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2, 3)))
