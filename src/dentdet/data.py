"""Synthetic hierarchical dental-layout generation and annotation file I/O.

The generator draws a desk-scale stand-in for a panoramic X-ray: two arch
curves of bright tooth rectangles on a noisy dark background, with four
diagnosis classes rendered as visually distinct intensity motifs.  Boxes are
produced on integer pixel coordinates and stored normalized.

Annotation files mirror the public hierarchical challenge container: an
``images`` array and an ``annotations`` array with pixel ``bbox`` [x, y, w, h]
plus ``category_id_1`` (quadrant), ``category_id_2`` (enumeration) and
``category_id_3`` (diagnosis); absent fields are permitted per level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Box, cxcywh_to_xyxy
from .labels import (
    HEAD_CLASS_COUNTS,
    HEAD_NAMES,
    NUM_ENUMERATIONS,
    NUM_QUADRANTS,
    HierarchyLevel,
)

DEFAULT_SIZE = 256

# Quadrant regions partition the image into four half-plane rectangles:
# 0 upper-left, 1 upper-right, 2 lower-left, 3 lower-right.
def quadrant_region(q: int, size: int) -> tuple[int, int, int, int]:
    half = size // 2
    x0 = 0 if q in (0, 2) else half
    y0 = 0 if q in (0, 1) else half
    return (x0, y0, x0 + half, y0 + half)


@dataclass(frozen=True)
class Tooth:
    quadrant: int
    enumeration: int
    present: bool
    box: Box | None  # normalized center-size; None when absent
    diagnosis: int | None


@dataclass(frozen=True)
class Layout:
    size: int
    teeth: tuple[Tooth, ...]  # 32 slots, quadrant-major order

    def present(self):
        return [t for t in self.teeth if t.present]

    def diagnosed(self):
        return [t for t in self.teeth if t.present and t.diagnosis is not None]


# Diagnosis motifs are intensity-coded so that cell-statistics features can
# separate them: 0 caries = dark notch at the crown, 1 deep caries = dark
# core, 2 periapical lesion = bright band at the root, 3 impacted = sheared
# mid-gray tooth.
_TOOTH_INTENSITY = 175
_BACKGROUND_MEAN = 40.0


def _draw_tooth(img: np.ndarray, x: int, y: int, w: int, h: int, diagnosis, rng) -> None:
    base = _TOOTH_INTENSITY + int(rng.integers(-8, 9))
    if diagnosis == 1:  # deep caries: uniformly dark core
        img[y : y + h, x : x + w] = 75
        return
    if diagnosis == 3:  # impacted: sheared parallelogram, mid gray
        shear = 0.3 if rng.random() < 0.5 else -0.3
        span = max(6, w - int(abs(shear) * h))
        for r in range(h):
            off = int(abs(shear) * (r if shear > 0 else h - 1 - r))
            off = min(off, w - span)
            img[y + r, x + off : x + off + span] = 120
        return
    img[y : y + h, x : x + w] = base
    if diagnosis == 0:  # caries: dark notch over the crown third
        img[y : y + max(1, h // 3), x : x + w] = 70
    elif diagnosis == 2:  # periapical lesion: bright root band
        img[y + h - max(1, h // 4) : y + h, x : x + w] = 250


def generate_layout(seed: int, size: int = DEFAULT_SIZE):
    """Deterministic synthetic image and layout for a seed.

    Returns (image uint8 (size, size), Layout).
    """
    rng = np.random.default_rng(seed)
    img = np.clip(
        rng.normal(_BACKGROUND_MEAN, 8.0, size=(size, size)), 0, 255
    )
    half = size // 2
    scale = size / 256.0

    teeth: list[Tooth] = []
    slots = []
    for q in range(NUM_QUADRANTS):
        x0, y0, _, _ = quadrant_region(q, size)
        upper = q in (0, 1)
        for e in range(NUM_ENUMERATIONS):
            # Tooth 1 sits next to the midline in FDI; lay slots out from
            # the midline toward the outer edge of each quadrant.
            margin = int(8 * scale)
            span = half - 2 * margin
            pos = (e + 0.5) / NUM_ENUMERATIONS
            local = margin + span * (pos if q in (1, 3) else 1.0 - pos)
            w = int(rng.integers(24, 29) * scale)
            h = int(rng.integers(46, 57) * scale)
            cx = x0 + local + rng.integers(-2, 3)
            t = (local / half) - 0.5
            arch = 14 * scale * 4 * t * t
            cy_local = (half - 38 * scale - arch) if upper else (38 * scale + arch)
            cy = y0 + cy_local + rng.integers(-3, 4)
            bx = int(round(cx - w / 2))
            by = int(round(cy - h / 2))
            # Shift into the quadrant region, never resize.
            bx = min(max(bx, x0 + 1), x0 + half - w - 1)
            by = min(max(by, y0 + 1), y0 + half - h - 1)
            slots.append((q, e, bx, by, w, h))

    missing = set()
    n_missing = int(rng.integers(0, 5))
    if n_missing:
        missing = set(rng.choice(len(slots), size=n_missing, replace=False).tolist())
    present_idx = [i for i in range(len(slots)) if i not in missing]
    n_diag = int(rng.integers(1, 6))
    diag_idx = rng.choice(len(present_idx), size=min(n_diag, len(present_idx)), replace=False)
    diagnosis_of = {
        present_idx[i]: int(rng.integers(0, 4)) for i in diag_idx
    }

    for i, (q, e, bx, by, w, h) in enumerate(slots):
        if i in missing:
            teeth.append(Tooth(q, e, False, None, None))
            continue
        d = diagnosis_of.get(i)
        _draw_tooth(img, bx, by, w, h, d, rng)
        box = Box(
            (bx + w / 2) / size, (by + h / 2) / size, w / size, h / size
        )
        teeth.append(Tooth(q, e, True, box, d))

    img = np.clip(img + rng.normal(0, 5.0, size=img.shape), 0, 255).astype(np.uint8)
    return img, Layout(size=size, teeth=tuple(teeth))


def project_level(layout: Layout, level: HierarchyLevel):
    """Ground truth visible at a hierarchy level: quadrant envelopes, all
    present teeth, or diagnosed teeth only.

    Returns (M, 4) boxes and (M, 3) classes, as ``load_annotations`` holds
    an image's records."""
    if level is HierarchyLevel.QUADRANT_ONLY:
        boxes, classes = [], []
        for q in range(NUM_QUADRANTS):
            members = [t.box.to_array() for t in layout.present() if t.quadrant == q]
            if not members:
                continue
            corners = cxcywh_to_xyxy(np.array(members))
            x0, y0 = corners[:, :2].min(axis=0)
            x1, y1 = corners[:, 2:].max(axis=0)
            boxes.append(((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0))
            classes.append((q, -1, -1))
    elif level is HierarchyLevel.QUADRANT_ENUM:
        teeth = layout.present()
        boxes = [t.box.to_array() for t in teeth]
        classes = [(t.quadrant, t.enumeration, -1) for t in teeth]
    elif level is HierarchyLevel.FULL:
        teeth = layout.diagnosed()
        boxes = [t.box.to_array() for t in teeth]
        classes = [(t.quadrant, t.enumeration, t.diagnosis) for t in teeth]
    else:
        raise ValueError(f"unknown level {level!r}")
    return (
        np.array(boxes, dtype=np.float64).reshape(-1, 4),
        np.array(classes, dtype=np.int64).reshape(-1, len(HEAD_NAMES)),
    )


# ---------------------------------------------------------------------------
# Annotation container


@dataclass(frozen=True)
class ImageInfo:
    id: str
    width: int
    height: int
    file_name: str

    def check_size(self, image: np.ndarray, path) -> None:
        """ValueError naming ``path`` unless ``image`` has this record's size."""
        h, w = image.shape
        if (w, h) != (self.width, self.height):
            raise ValueError(
                f"{path}: image is {w}x{h}, but its annotation record says "
                f"{self.width}x{self.height}"
            )


@dataclass
class AnnotationSet:
    """One level's ground truth as per-image arrays.

    ``boxes[i]`` (M_i, 4) normalized center-size and ``classes[i]`` (M_i, 3)
    class indices, one column per head in ``HEAD_NAMES`` order with -1 where
    a head carries no label, belong to ``images[i]``; rows keep file order.
    """

    level: HierarchyLevel
    images: list[ImageInfo] = field(default_factory=list)
    boxes: list[np.ndarray] = field(default_factory=list)
    classes: list[np.ndarray] = field(default_factory=list)


# Each head's label field in an annotation record, shallow to deep.
CATEGORY_KEYS = {head: f"category_id_{k}" for k, head in enumerate(HEAD_NAMES, start=1)}


class AnnotationError(ValueError):
    """Schema or invariant violations, with per-record indices."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        lines = "; ".join(f"record {i}: {msg}" for i, msg in errors[:10])
        more = f" (+{len(errors) - 10} more)" if len(errors) > 10 else ""
        super().__init__(f"invalid annotations: {lines}{more}")


def write_annotations(aset: AnnotationSet, path) -> None:
    images = [
        {"id": i.id, "width": i.width, "height": i.height, "file_name": i.file_name}
        for i in aset.images
    ]
    annotations = []
    for info, boxes, classes in zip(aset.images, aset.boxes, aset.classes, strict=True):
        w_img, h_img = info.width, info.height
        corners = cxcywh_to_xyxy(boxes).tolist()
        for (x1, y1, x2, y2), row in zip(corners, classes.tolist()):
            rec = {
                "image_id": info.id,
                "bbox": [x1 * w_img, y1 * h_img, (x2 - x1) * w_img, (y2 - y1) * h_img],
            }
            rec.update((key, c) for key, c in zip(CATEGORY_KEYS.values(), row) if c >= 0)
            annotations.append(rec)
    doc = {"level": aset.level.value, "images": images, "annotations": annotations}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _is_int(value) -> bool:
    """An integer, not a bool, that converts to a float: a JSON integer can
    have any number of digits."""
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_number(value) -> bool:
    return isinstance(value, float) or _is_int(value)  # NaN fails the box checks


def _is_size(value) -> bool:
    return _is_int(value) and value > 0


def _label_error(values) -> str | None:
    """The first fault, in head order, of one record's labels, or None.

    ``values`` holds the level's heads shallow to deep, None where a label
    is missing."""
    missing = None  # the shallowest head without a label
    for head, value in zip(HEAD_NAMES, values):
        if value is None:
            missing = missing or head
        elif missing is not None:
            return f"{head} present without {missing}"
        elif isinstance(value, bool) or not isinstance(value, int):
            return f"{head} index is not an integer: {value!r}"
        elif not 0 <= value < HEAD_CLASS_COUNTS[head]:
            return f"{head} index out of range: {value}"
    return None


def load_annotations(path, level: HierarchyLevel) -> AnnotationSet:
    """Parse and validate an annotation file for a declared hierarchy level.

    Any malformed content raises :class:`AnnotationError`; errors of the
    file as a whole carry record index -1."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # also an integer past Python's digit limit
            raise AnnotationError([(-1, f"not a JSON file: {e}")])
    if not isinstance(doc, dict):
        raise AnnotationError([(-1, "top level must be an object")])
    for key in ("images", "annotations"):
        if not isinstance(doc.get(key, []), list):
            raise AnnotationError([(-1, f"{key} must be a list")])
    errors: list[tuple[int, str]] = []
    if "level" in doc and doc["level"] != level.value:
        errors.append((-1, f"file level {doc['level']!r} != declared {level.value!r}"))
    images = []
    dims = {}
    for i, rec in enumerate(doc.get("images", [])):
        try:
            info = ImageInfo(
                id=str(rec["id"]),
                width=rec["width"],
                height=rec["height"],
                file_name=str(rec.get("file_name", "")),
            )
        except (KeyError, TypeError) as e:
            errors.append((i, f"bad image record: {e}"))
            continue
        if not (_is_size(info.width) and _is_size(info.height)):
            errors.append((i, f"image size {info.width!r}x{info.height!r} is not "
                              "two positive integers"))
            continue
        if info.id in dims:
            errors.append((i, f"duplicate image id {info.id!r}"))
            continue
        images.append(info)
        dims[info.id] = (info.width, info.height)
    # Each image's box rows and class rows, in file order.
    box_rows = {image_id: [] for image_id in dims}
    class_rows = {image_id: [] for image_id in dims}
    heads = level.heads
    for i, rec in enumerate(doc.get("annotations", [])):
        if not isinstance(rec, dict):
            errors.append((i, "annotation record is not an object"))
            continue
        image_id = str(rec.get("image_id"))
        if image_id not in dims:
            errors.append((i, f"unknown image_id {image_id!r}"))
            continue
        w_img, h_img = dims[image_id]
        bbox = rec.get("bbox")
        if not (
            isinstance(bbox, list) and len(bbox) == 4 and all(map(_is_number, bbox))
        ):
            errors.append((i, "bbox must be [x, y, w, h] numbers"))
            continue
        x, y, w, h = (float(v) for v in bbox)
        # Written so that a NaN fails each test.
        if not (w > 0 and h > 0):
            errors.append((i, f"non-positive box size {w}x{h}"))
            continue
        if not (x >= 0 and y >= 0 and x + w <= w_img + 1e-6 and y + h <= h_img + 1e-6):
            errors.append((i, "box outside image bounds"))
            continue
        labels = []  # the supervised heads' values, None where missing
        for head, key in CATEGORY_KEYS.items():
            value = rec.get(key)
            if head in heads:
                if value is None:
                    errors.append((i, f"missing {head} label for level {level.value}"))
                labels.append(value)
            elif value is not None:
                errors.append((i, f"{head} label not allowed at level {level.value}"))
        fault = _label_error(labels)
        if fault:
            errors.append((i, fault))
            continue
        box_rows[image_id].append(
            ((x + w / 2) / w_img, (y + h / 2) / h_img, w / w_img, h / h_img)
        )
        class_rows[image_id].append(labels + [-1] * (len(HEAD_NAMES) - len(labels)))
    if errors:
        raise AnnotationError(errors)
    return AnnotationSet(
        level=level,
        images=images,
        boxes=[
            np.array(box_rows[i.id], dtype=np.float64).reshape(-1, 4) for i in images
        ],
        classes=[
            np.array(class_rows[i.id], dtype=np.int64).reshape(-1, len(HEAD_NAMES))
            for i in images
        ],
    )


def split_manifest(aset: AnnotationSet, fractions, seed: int):
    """Deterministic train/val/test split of image ids.

    Test images are only permitted for fully labeled sets.
    """
    f_train, f_val, f_test = fractions
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    if f_test > 0 and aset.level is not HierarchyLevel.FULL:
        raise ValueError("test splits require fully labeled data")
    ids = sorted(i.id for i in aset.images)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    ids = [ids[i] for i in order]
    n = len(ids)
    n_train = int(round(f_train * n))
    n_val = int(round(f_val * n))
    n_val = min(n_val, n - n_train)
    return ids[:n_train], ids[n_train : n_train + n_val], ids[n_train + n_val :]


def random_crop_resize(
    img: np.ndarray,
    boxes: np.ndarray,
    classes: np.ndarray,
    rng: np.random.Generator,
    min_area: float = 0.8,
):
    """Augmentation: random crop retaining at least ``min_area`` of the image
    area, resized back to the original shape (nearest neighbor).

    ``boxes`` (M, 4) center-size are clipped to the crop; rows whose center
    leaves the crop are dropped from them and from ``classes``.  Returns the
    image, boxes and classes."""
    h, w = img.shape
    frac = np.sqrt(rng.uniform(min_area, 1.0))
    cw, ch = int(round(w * frac)), int(round(h * frac))
    x0 = int(rng.integers(0, w - cw + 1))
    y0 = int(rng.integers(0, h - ch + 1))
    crop = img[y0 : y0 + ch, x0 : x0 + cw]
    yi = np.clip((np.arange(h) * ch / h).astype(int), 0, ch - 1)
    xi = np.clip((np.arange(w) * cw / w).astype(int), 0, cw - 1)
    out_img = crop[np.ix_(yi, xi)]
    cx_px, cy_px = boxes[:, 0] * w, boxes[:, 1] * h
    x1, y1, x2, y2 = (cxcywh_to_xyxy(boxes) * (w, h, w, h)).T
    x1 = np.maximum(x1 - x0, 0.0) / cw
    x2 = np.minimum(x2 - x0, cw) / cw
    y1 = np.maximum(y1 - y0, 0.0) / ch
    y2 = np.minimum(y2 - y0, ch) / ch
    keep = (
        (x0 <= cx_px) & (cx_px < x0 + cw) & (y0 <= cy_px) & (cy_px < y0 + ch)
        & (x2 - x1 > 0) & (y2 - y1 > 0)
    )
    out = np.stack([(x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1], axis=1)
    return out_img, out[keep], classes[keep]


def level_tag(level: HierarchyLevel) -> str:
    """The level's name in file names: ``annotations_<tag>.json``."""
    return level.value


def generate_dataset(out_dir, count: int, seed: int, size: int = DEFAULT_SIZE):
    """Write a three-level synthetic dataset under ``out_dir``.

    Each level gets ``count`` images of its own (ids carry the level tag);
    images land in ``images/`` as binary graymaps, annotations in one JSON
    file per level.  Returns the per-level annotation file paths.
    """
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    img_dir.mkdir(parents=True, exist_ok=True)
    from .imageio import write_pgm

    paths = {}
    offset = 0
    for level, tag in zip(HierarchyLevel, ("q", "qe", "qed")):
        aset = AnnotationSet(level=level)
        for i in range(count):
            image_seed = seed * 1_000_003 + offset + i
            img, layout = generate_layout(image_seed, size)
            image_id = f"{tag}_{i:05d}"
            file_name = f"{image_id}.pgm"
            write_pgm(img_dir / file_name, img)
            boxes, classes = project_level(layout, level)
            aset.images.append(ImageInfo(image_id, size, size, file_name))
            aset.boxes.append(boxes)
            aset.classes.append(classes)
        path = out_dir / f"annotations_{level_tag(level)}.json"
        write_annotations(aset, path)
        paths[level] = path
        offset += count
    return paths
