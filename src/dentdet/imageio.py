"""Dependency-free portable graymap / pixmap readers and writers."""

from __future__ import annotations

import numpy as np


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError("write_pgm expects a 2-D array")
    img = np.clip(img, 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("write_ppm expects an (H, W, 3) array")
    img = np.clip(img, 0, 255).astype(np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def _read_tokens(data: bytes, count: int):
    """Read whitespace-separated header tokens, skipping # comments.
    Returns (tokens, offset past the single whitespace after the last one)."""
    tokens = []
    i = 0
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise ValueError("truncated netpbm header")
        tokens.append(data[i:j])
        i = j
    return tokens, i + 1


def read_pgm(path) -> np.ndarray:
    """8-bit binary (P5) or ASCII (P2) graymap; ValueError naming ``path``
    if the file is anything else or is cut short."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _decode_pgm(data)
    except (ValueError, OverflowError) as e:  # OverflowError: a P2 value > 255
        raise ValueError(f"{path}: {e}") from None


def _decode_pgm(data: bytes) -> np.ndarray:
    tokens, offset = _read_tokens(data, 4)
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"unsupported netpbm magic {magic!r}")
    if maxval != 255:
        raise ValueError("only 8-bit graymaps supported")
    if w < 1 or h < 1:
        raise ValueError(f"bad image size {w}x{h}")
    if magic == b"P5":
        if len(data) - offset < w * h:
            raise ValueError(
                f"truncated pixel data: {max(len(data) - offset, 0)} of {w * h} bytes"
            )
        raw = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=offset)
        return raw.reshape(h, w).copy()
    vals = data[offset - 1 :].split()[: w * h]
    if len(vals) < w * h:
        raise ValueError(f"truncated pixel data: {len(vals)} of {w * h} values")
    return np.array(vals, dtype=np.uint8).reshape(h, w)
