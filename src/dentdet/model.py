"""Frozen feature encoder, RoI pooling, and the trainable detection decoder.

The encoder is handcrafted and deterministic (cell statistics plus fixed
sinusoidal positional channels); only the decoder MLP and its four output
heads (box regression plus quadrant / enumeration / diagnosis classifiers)
carry parameters.  All gradients are computed analytically in float64.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import blas
from .diffusion import MIN_SIZE, signal_decode
from .labels import HEAD_CLASS_COUNTS, HEAD_NAMES, HierarchyLevel

ParamStore = dict[str, np.ndarray]

STAT_CHANNELS = 4  # mean, std, |grad_x|, |grad_y|
HIST_EDGES = (0.1, 0.3, 0.5, 0.7, 0.9)  # intensity-band boundaries
HIST_CHANNELS = len(HIST_EDGES) + 1
POS_CHANNELS = 8
NUM_CHANNELS = STAT_CHANNELS + HIST_CHANNELS + POS_CHANNELS


@dataclass(frozen=True)
class ModelConfig:
    grid: int = 16  # feature grid resolution G
    pool: int = 4  # RoI bins per axis P
    hidden: int = 128  # trunk width H
    time_dim: int = 16  # sinusoidal timestep embedding size
    scale: float = 2.0  # signal-space scale
    focal_gamma: float = 2.0
    cls_weight: float = 2.0
    l1_weight: float = 5.0
    giou_weight: float = 2.0

    def __post_init__(self):
        from .config import MODEL_BOUNDS, _check_bounds  # config imports this module

        _check_bounds("model", self, MODEL_BOUNDS)

    @property
    def channels(self) -> int:
        return NUM_CHANNELS

    @property
    def feat_dim(self) -> int:
        return self.pool * self.pool * self.channels + self.time_dim

    def fingerprint(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Frozen encoder


def encode_image(
    img: np.ndarray, grid: int = 16, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Deterministic (G, G, C) feature grid from a grayscale image, written
    into ``out`` if given and returned.

    Per cell: mean intensity, intensity std, mean horizontal and vertical
    gradient magnitudes, the occupancy fractions of six fixed intensity
    bands (a coarse per-cell histogram, which preserves distinct gray
    levels that a plain mean would blend away), and eight fixed sinusoidal
    positional channels.  uint8 images are scaled to [0, 1]; pixels past
    the last whole cell on either axis are left out.

    Each channel equals, to the bit, what ``np.mean``, ``np.std``,
    ``np.gradient`` and ``np.digitize`` give, since the same float
    operations run in the same memory order; but the image is read fewer
    times: mean and std share one sum, the gradients are taken in place in
    one buffer, and the bands come from one integer count per cell.
    """
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("encode_image expects a non-empty 2-D grayscale array")
    h, w = img.shape
    if min(h, w) < 2:
        raise ValueError(
            f"image {w}x{h} too small: the gradient channels need at least "
            "2 pixels per side"
        )
    if h < grid or w < grid:
        raise ValueError(f"image {w}x{h} smaller than feature grid {grid}")
    # Never written to, so a float64 input is read in place.
    if img.dtype == np.uint8:
        x = np.divide(img, 255.0)
    else:
        x = img.astype(np.float64, copy=False)
    ch, cw = h // grid, w // grid
    n = ch * cw
    crop = lambda a: a[: grid * ch, : grid * cw].reshape(grid, ch, grid, cw)
    cells = crop(x)
    feats = np.empty((grid, grid, NUM_CHANNELS), dtype=np.float64) if out is None else out
    # One scratch image holds the deviations, then each gradient, then the
    # band keys, so a call allocates two image-sized arrays, not five.  It
    # takes x's memory order, as np.gradient's output does: the order of
    # each cell sum follows it.
    buf = np.empty_like(x)
    # Mean and std by _mean's and _var's own ufuncs, on one shared sum.
    mean = np.true_divide(cells.sum(axis=(1, 3)), n, out=feats[..., 0])
    dev = np.subtract(cells, mean[:, None, :, None], out=crop(buf))
    np.square(dev, out=dev)
    var = np.true_divide(dev.sum(axis=(1, 3)), n)
    np.sqrt(var, out=feats[..., 1])
    for axis, c in ((1, 2), (0, 3)):
        _abs_gradient(x, axis, out=buf)
        np.true_divide(crop(buf).sum(axis=(1, 3)), n, out=feats[..., c])
    # np.digitize puts a pixel in band b when exactly b edges are at or
    # below it, and a NaN in the last band.  Counting per pixel the edges
    # it is below (a NaN is below none) gives the bands in reverse order.
    below = np.less(cells, HIST_EDGES[0]).view(np.uint8)
    for e in HIST_EDGES[1:]:
        below += np.less(cells, e)
    cell_key = np.arange(grid * grid).reshape(grid, 1, grid, 1) * HIST_CHANNELS
    keys = buf.view(np.intp).ravel(order="K")[: below.size]
    np.add(below, cell_key, out=keys.reshape(below.shape))
    counts = np.bincount(keys, minlength=grid * grid * HIST_CHANNELS)
    np.true_divide(
        counts.reshape(grid, grid, HIST_CHANNELS)[..., ::-1], n,
        out=feats[..., STAT_CHANNELS : STAT_CHANNELS + HIST_CHANNELS],
    )
    feats[..., STAT_CHANNELS + HIST_CHANNELS :] = _positional_channels(grid)
    return feats


def _abs_gradient(x: np.ndarray, axis: int, out: np.ndarray) -> None:
    """``|np.gradient(x, axis=axis)|`` written into ``out`` with numpy's
    operations: halved central differences inside, one-sided differences
    at the two edges (numpy divides those by the unit spacing, which
    changes no bit)."""
    f, g = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=g[1:-1])
    np.divide(g[1:-1], 2.0, out=g[1:-1])
    np.subtract(f[1], f[0], out=g[0])
    np.subtract(f[-1], f[-2], out=g[-1])
    np.abs(out, out=out)


@functools.lru_cache
def _positional_channels(grid: int) -> np.ndarray:
    """The (G, G, 8) sinusoidal channels, computed once per grid, read-only."""
    u = (np.arange(grid) + 0.5) / grid
    uu, vv = np.meshgrid(u, u)  # uu varies along x (axis 1), vv along y (axis 0)
    pos = np.stack([
        np.sin(np.pi * uu), np.cos(np.pi * uu),
        np.sin(2 * np.pi * uu), np.cos(2 * np.pi * uu),
        np.sin(np.pi * vv), np.cos(np.pi * vv),
        np.sin(2 * np.pi * vv), np.cos(2 * np.pi * vv),
    ], axis=-1)
    pos.flags.writeable = False
    return pos


def _bin_edges(lo: np.ndarray, hi: np.ndarray, pool: int):
    """Edges of P equal bins over spans [lo, hi] within [0, 1] of any shape S.

    Returns (edges S + (P+1,), bin width S).
    """
    span = hi - lo
    # Fully degenerate spans sample the single nearest cell.
    tiny = span < 1e-9
    lo = np.where(tiny, np.minimum(lo, 1.0 - 1e-6), lo)
    span = np.where(tiny, 1e-6, span)
    return lo[..., None] + span[..., None] * np.arange(pool + 1) / pool, span / pool


def _cell_overlaps(edges: np.ndarray, grid: int) -> np.ndarray:
    """Overlap lengths S + (P, G) between bins with edges S + (P+1,) and the
    G grid cells."""
    cell_lo = np.arange(grid) / grid
    cell_hi = cell_lo + 1.0 / grid
    w = np.minimum(edges[..., 1:, None], cell_hi) - np.maximum(
        edges[..., :-1, None], cell_lo
    )
    return np.maximum(w, 0.0)


def roi_pool_batch(
    grid_feats: np.ndarray,
    boxes01: np.ndarray,
    pool: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pool normalized center-size boxes into P*P*C feature vectors.

    (N, 4) boxes on a (G, G, C) grid give (N, P*P*C); (B, N, 4) boxes on B
    stacked grids (B, G, G, C) give (B, N, P*P*C), written into ``out`` if
    given and returned.  Each of the P x P bins takes the coverage-weighted
    mean of the grid cells it overlaps; boxes are clamped to the image first.
    """
    g, c = grid_feats.shape[-2:]
    boxes01 = np.asarray(boxes01, dtype=np.float64)
    lead, n = boxes01.shape[:-2], boxes01.shape[-2]
    if grid_feats.shape[:-3] != lead:
        raise ValueError(
            "one (G, G, C) feature grid per image of boxes required: grids "
            f"{grid_feats.shape}, boxes {boxes01.shape}"
        )
    if out is None:
        out = np.empty((*lead, n, pool * pool * c))
    # Both axes at once: coordinates move to the front, x before y.
    coords = boxes01.transpose(-1, *range(boxes01.ndim - 1))
    centers, half = coords[:2], coords[2:] / 2
    lo = np.minimum(np.maximum(centers - half, 0.0), 1.0)
    hi = np.minimum(np.maximum(centers + half, 0.0), 1.0)
    edges, (bw, bh) = _bin_edges(lo, hi, pool)
    area = np.maximum(bh, 1e-12) * np.maximum(bw, 1e-12)
    # Bin weights factor per axis: pool rows with one GEMM, then columns with
    # a batched one.  Image by image, so only one image's weights and
    # (N*P, G*C) bin rows are held at a time.
    b = math.prod(lead)
    edges, area = edges.reshape(2, b, n, pool + 1), area.reshape(b, n, 1, 1, 1)
    grids = grid_feats.reshape(b, g, g * c)
    vals = out.reshape(b, n, pool, pool, c)  # a view: only the last axis splits
    rows = np.empty((n * pool, g * c))
    for i in range(b):
        wx, wy = _cell_overlaps(edges[:, i], g)
        np.matmul(wy.reshape(n * pool, g), grids[i], out=rows)
        np.matmul(wx[:, None], rows.reshape(n, pool, g, c), out=vals[i])
        vals[i] /= area[i]
    return out


@functools.lru_cache(maxsize=1024)
def time_embedding(t: float, dim: int) -> np.ndarray:
    """Standard sinusoidal embedding of a scalar timestep.

    Computed once per (t, dim) and shared read-only: the sampler decodes
    every pass at the same few timesteps, and training draws t from T.
    """
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = t * freqs
    out = np.concatenate([np.sin(args), np.cos(args)])
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Parameters


def _head_dim(head: str) -> int:
    # One extra logit per head reserved for the background decision; only
    # the deepest supervised head uses it at loss time.
    return HEAD_CLASS_COUNTS[head] + 1


def init_params(
    cfg: ModelConfig, rng: np.random.Generator, head_scale: float = 1e-4
) -> ParamStore:
    """Fresh decoder parameters, drawn in :func:`param_shapes` order.

    Trunk and box head use Xavier-uniform init; classification heads start
    near zero (uniform class probabilities).  ``head_scale`` sets the small
    symmetric range for head weights so independently initialized stages
    never share a tensor bit-for-bit; pass 0 for exactly-zero heads.
    """
    params: ParamStore = {}
    for name, shape in param_shapes(cfg).items():
        if name.startswith("head_"):
            params[name] = rng.uniform(-head_scale, head_scale, size=shape)
        elif len(shape) == 2:
            lim = np.sqrt(6.0 / sum(shape))
            params[name] = rng.uniform(-lim, lim, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


def level_params(level: HierarchyLevel | None = None) -> list[str]:
    """Names of the tensors a level trains and hands on to the next, in
    layout order: trunk, box head, then the classification heads ``level``
    supervises (all of them if None), shallow to deep."""
    heads = HEAD_NAMES if level is None else level.heads
    return [
        "trunk.w1", "trunk.b1", "trunk.w2", "trunk.b2", "box.w", "box.b",
        *(f"head_{head}.{p}" for head in heads for p in ("w", "b")),
    ]


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The parameter layout: every tensor's shape, in :func:`level_params`
    order."""
    d, h = cfg.feat_dim, cfg.hidden
    shapes = [(d, h), (h,), (h, h), (h,), (h, 4), (4,)]
    for head in HEAD_NAMES:
        k = _head_dim(head)
        shapes += [(h + d, k), (k,)]
    return dict(zip(level_params(), shapes))


def check_shapes(params: ParamStore, cfg: ModelConfig) -> None:
    expected = param_shapes(cfg)
    if set(params) != set(expected):
        raise ValueError(
            f"parameter names mismatch: {sorted(set(params) ^ set(expected))}"
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(
                f"{name}: shape {params[name].shape}, expected {shape}"
            )


def zero_grads(cfg: ModelConfig) -> ParamStore:
    return {k: np.zeros(v) for k, v in param_shapes(cfg).items()}


# ---------------------------------------------------------------------------
# Forward / backward


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ForwardCache:
    """Intermediate activations kept for the analytic backward pass."""

    x: np.ndarray  # (..., M, H + D) head input: trunk output, then decoder input
    h1: np.ndarray
    z0_pred: np.ndarray  # (..., M, 4) signal space
    logits: dict[str, np.ndarray]  # computed head -> (..., M, K+1)


def forward_features(
    cfg: ModelConfig,
    grid_feats: np.ndarray,
    z: np.ndarray,
    t,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Head input with the per-proposal decoder input in its last D columns:
    pooled RoI features of the decoded noisy box followed by the timestep
    embedding.  (N, H + D) for (N, 4) proposals or (B, N, H + D) for
    (B, N, 4), written into ``out`` if given; the first H columns are left
    for :func:`forward_net`'s trunk output.  ``t`` is one timestep for every
    image, or a sequence of B, one per image."""
    boxes01 = signal_decode(np.asarray(z, dtype=np.float64), cfg.scale)
    if out is None:
        out = np.empty(boxes01.shape[:-1] + (cfg.hidden + cfg.feat_dim,))
    roi_end = cfg.hidden + cfg.feat_dim - cfg.time_dim
    roi_pool_batch(grid_feats, boxes01, cfg.pool, out=out[..., cfg.hidden : roi_end])
    if np.ndim(t) == 0:
        out[..., roi_end:] = time_embedding(t, cfg.time_dim)
    else:
        for rows, ti in zip(out, t):
            rows[:, roi_end:] = time_embedding(ti, cfg.time_dim)
    return out


def forward_net(
    params: ParamStore,
    x: np.ndarray,
    z: np.ndarray,
    heads: tuple[str, ...] = HEAD_NAMES,
) -> ForwardCache:
    """Two-layer ReLU trunk; the box head reads the trunk output, while the
    classification heads read the trunk output followed by the raw input
    features — a skip connection that keeps linearly separable input
    evidence available even when the trunk specializes toward regression.

    The box head is residual: it predicts a signal-space correction to the
    input proposal ``z`` rather than an absolute position.  This anchors the
    identity mapping (a proposal refines toward the object under it) at
    initialization.  With an absolute head, set matching can amplify a
    chance anti-correlation in the fresh weights into a stable mirrored
    solution: each object gets claimed by the proposal at its reflected
    position, which scores fine on position-defined labels but leaves
    appearance-defined heads reading the wrong window.

    ``x`` is the (N, H + D) or (B, N, H + D) head input of
    :func:`forward_features`; the trunk output is written into its first H
    columns, so the heads read it without a concatenation.  Every product
    stays one GEMM per image.  Only the classification heads named in
    ``heads`` are computed.
    """
    width = params["trunk.w2"].shape[1]
    h1 = x[..., width:] @ params["trunk.w1"]
    h1 += params["trunk.b1"]
    np.maximum(h1, 0.0, out=h1)
    h2 = np.matmul(h1, params["trunk.w2"], out=x[..., :width])
    h2 += params["trunk.b2"]
    np.maximum(h2, 0.0, out=h2)
    z0_pred = np.asarray(z, dtype=np.float64) + h2 @ params["box.w"] + params["box.b"]
    logits = {
        head: x @ params[f"head_{head}.w"] + params[f"head_{head}.b"]
        for head in heads
    }
    return ForwardCache(x=x, h1=h1, z0_pred=z0_pred, logits=logits)


def backward_net(
    params: ParamStore,
    cache: ForwardCache,
    dz0_pred: np.ndarray,
    dlogits: dict[str, np.ndarray],
    grads: ParamStore,
    defer=None,
) -> None:
    """Accumulate parameter gradients for upstream gradients on one image's
    (N, ...) decoder outputs.  Heads absent from ``dlogits`` receive exactly
    zero gradient.

    ``defer``, if given, takes the output layers' and the first layer's
    shares in place of running them here: it is called as ``defer(fn,
    *args)``, where ``fn(grads, *args)`` adds the share.  The output layers'
    share comes first, with the head input and the gradients on the box
    prediction and on the logits; the first layer's as soon as the gradient
    on the first hidden layer is known."""
    if defer is None:
        def defer(fn, *args):
            fn(grads, *args)
    h1, h2x = cache.h1, cache.x
    width = h1.shape[1]
    h2, x = h2x[:, :width], h2x[:, width:]
    defer(_output_layer_grads, h2x, dz0_pred, dlogits)
    dh2 = dz0_pred @ params["box.w"].T
    for head, dl in dlogits.items():
        dh2 += dl @ params[f"head_{head}.w"][:width].T
    dh2 = dh2 * (h2 > 0)
    dh1 = (dh2 @ params["trunk.w2"].T) * (h1 > 0)
    defer(_first_layer_grads, x, dh1)
    grads["trunk.w2"] += h1.T @ dh2
    grads["trunk.b2"] += dh2.sum(axis=0)


def _output_layer_grads(grads: ParamStore, h2x: np.ndarray, dz0_pred: np.ndarray,
                        dlogits: dict[str, np.ndarray]) -> None:
    """The box head's and the classification heads' gradients, from the
    (N, H + D) head input and the gradients on their outputs."""
    grads["box.w"] += h2x[:, : grads["box.w"].shape[0]].T @ dz0_pred
    grads["box.b"] += dz0_pred.sum(axis=0)
    for head, dl in dlogits.items():
        grads[f"head_{head}.w"] += h2x.T @ dl
        grads[f"head_{head}.b"] += dl.sum(axis=0)


def _first_layer_grads(grads: ParamStore, x: np.ndarray, dh1: np.ndarray) -> None:
    grads["trunk.w1"] += x.T @ dh1
    grads["trunk.b1"] += dh1.sum(axis=0)


def loss_probs_for_mask(
    logits: dict[str, np.ndarray], level: HierarchyLevel
) -> dict[str, np.ndarray]:
    """Per-head probabilities used by matching and the loss.

    The deepest supervised head runs softmax over K+1 classes (background
    included); shallower supervised heads over their K foreground classes.
    Unsupervised heads are omitted.
    """
    out = {}
    for head in level.heads:
        k = HEAD_CLASS_COUNTS[head]
        if head == level.deepest_head:
            out[head] = softmax(logits[head])
        else:
            out[head] = softmax(logits[head][..., :k])
    return out


def decode(
    params: ParamStore,
    grid_feats: np.ndarray,
    z: np.ndarray,
    t: float,
    level: HierarchyLevel,
    cfg: ModelConfig,
    heads: tuple[str, ...] = HEAD_NAMES,
    out: np.ndarray | None = None,
):
    """Run the decoder on (N, 4) proposals over a (G, G, C) grid, or on
    (B, N, 4) proposals over B stacked (B, G, G, C) grids.  The head input
    is built in ``out``, an (..., N, H + D) buffer, if given.

    Returns (z0_pred, probs, scores, logits): the signal-space box
    prediction shaped like ``z``; for each head in ``heads``, the (..., N, K)
    display probabilities, softmaxed over the foreground classes only; the
    (..., N) confidence, the largest display probability of the deepest
    supervised head, or None when ``heads`` leaves that head out; and the
    (..., N, K+1) logits of ``heads``, which give the background-aware
    ``loss_probs_for_mask``.  No other activation outlives the call.
    """
    check_shapes(params, cfg)
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (2, 3) or z.shape[-1] != 4:
        raise ValueError("proposals must be an (N, 4) or (B, N, 4) array")
    cache = forward_net(params, forward_features(cfg, grid_feats, z, t, out), z, heads)
    probs = {
        head: softmax(cache.logits[head][..., : HEAD_CLASS_COUNTS[head]])
        for head in heads
    }
    deepest = probs.get(level.deepest_head)
    scores = None if deepest is None else deepest.max(axis=-1)
    return cache.z0_pred, probs, scores, cache.logits


def decode_grad_mask(z0_pred: np.ndarray, scale: float) -> np.ndarray:
    """Derivative of signal_decode w.r.t. its input (0 where clamped)."""
    x = (z0_pred / scale + 1.0) / 2.0
    m = np.empty_like(x)
    m[..., :2] = (x[..., :2] > 0.0) & (x[..., :2] < 1.0)
    m[..., 2:] = (x[..., 2:] > MIN_SIZE) & (x[..., 2:] < 1.0)
    return m / (2.0 * scale)


@blas.one_thread()
def loss_gradients(
    params: ParamStore,
    grids: np.ndarray,
    z: np.ndarray,
    t: np.ndarray,
    gt_boxes: list[np.ndarray],
    gt_classes: list[np.ndarray],
    level: HierarchyLevel,
    cfg: ModelConfig,
):
    """Loss and exact analytic gradients over a batch of B images.

    The batch is B stacked (B, G, G, C) feature grids, (B, N, 4)
    signal-space proposals, (B,) timesteps, and B per-image (M_i, 4)
    normalized center-size ground-truth boxes with (M_i, 3) class indices
    (-1 where a head has no label).  A batch whose parts disagree on B, or
    whose proposals are not (B, N, 4), raises ``ValueError``.

    Returns (loss, grads, breakdown) with the loss mean-reduced over images
    and the breakdown counting the matched pairs.  Gradients of heads the
    level does not supervise are identically zero.

    The images run in lockstep.  The step worker (:func:`blas.in_parallel`)
    forwards the second half of the batch while this thread forwards the
    first; proposals are matched from one cost tensor, and the loss runs
    once over the (B, N) rows.  The backward pass is split by tensor: the
    worker adds the box head's, the classification heads' and the first
    layer's gradients, this thread works back through the trunk and adds
    the second layer's.  Each tensor is still summed by one thread, image by
    image in image order, so every gradient is the float sum a per-image
    loop gives.
    """
    from queue import SimpleQueue  # kept out of the inference imports

    check_shapes(params, cfg)
    z = np.asarray(z, dtype=np.float64)
    grids, t = np.asarray(grids), np.asarray(t, dtype=np.float64)
    if (
        z.ndim != 3 or z.shape[-1] != 4 or grids.ndim != 4 or t.ndim != 1
        or not z.shape[0] == len(grids) == len(t) == len(gt_boxes) == len(gt_classes)
    ):
        raise ValueError(
            f"a batch is (B, G, G, C) grids, (B, N, 4) proposals, (B,) timesteps "
            f"and B ground-truth arrays each: got grids {grids.shape}, z {z.shape}, "
            f"t {t.shape}, {len(gt_boxes)} gt_boxes, {len(gt_classes)} gt_classes"
        )
    b = len(z)
    x = np.empty(z.shape[:-1] + (cfg.hidden + cfg.feat_dim,))

    def forward(images: slice) -> ForwardCache:
        forward_features(cfg, grids[images], z[images], t[images], out=x[images])
        return forward_net(params, x[images], z[images], level.heads)

    half = (b + 1) // 2
    halves = blas.in_parallel(
        lambda: forward(slice(0, half)), lambda: forward(slice(half, b))
    )
    bd, dz0_pred, dlogits = _output_gradients(halves, gt_boxes, gt_classes, level, cfg)
    # Allocated only now, so the forward pass and matching peak lower.
    grads = zero_grads(cfg)
    handoff = SimpleQueue()

    def worker_layers():
        while (share := handoff.get()) is not None:
            layer, args = share
            layer(grads, *args)

    def caller_layers():
        try:
            for i, cache in enumerate(_images(halves)):
                backward_net(
                    params, cache, dz0_pred[i],
                    {head: dl[i] for head, dl in dlogits.items()}, grads,
                    defer=lambda fn, *args: handoff.put((fn, args)),
                )
        finally:
            handoff.put(None)

    blas.in_parallel(caller_layers, worker_layers)
    return bd.total, grads, bd


def _images(blocks):
    """Each image's (N, ...) view of the lockstep caches, in image order."""
    for c in blocks:
        for i in range(len(c.x)):
            yield ForwardCache(
                c.x[i], c.h1[i], c.z0_pred[i], {h: lg[i] for h, lg in c.logits.items()}
            )


def _output_gradients(halves, gt_boxes, gt_classes, level: HierarchyLevel,
                      cfg: ModelConfig):
    """Match the batch, then take the batch-mean loss and its gradients on
    the (B, N, 4) box predictions and (B, N, K+1) full-width logits.

    Kept apart from :func:`loss_gradients` so the loss's intermediates are
    freed before the backward passes run.
    """
    from .matching import loss_forward_backward, match_arrays

    z0_pred = np.concatenate([c.z0_pred for c in halves])
    b = len(z0_pred)
    boxes01 = signal_decode(z0_pred, cfg.scale)
    probs = loss_probs_for_mask(
        {head: np.concatenate([c.logits[head] for c in halves]) for head in level.heads},
        level,
    )
    pairs = match_arrays(probs, boxes01, gt_boxes, gt_classes, level, cfg)
    bd, dlogits, dboxes01 = loss_forward_backward(
        probs, boxes01, pairs, gt_boxes, gt_classes, level, cfg
    )
    # Mean over the batch; pad partial-head gradients up to K+1 logits.
    dz0_pred = dboxes01 * decode_grad_mask(z0_pred, cfg.scale) / b
    full = {}
    for head, dl in dlogits.items():
        full[head] = np.zeros(z0_pred.shape[:-1] + (_head_dim(head),))
        np.divide(dl, b, out=full[head][..., : dl.shape[-1]])
    return bd, dz0_pred, full


# ---------------------------------------------------------------------------
# Weight transfer and checkpoints


def transfer_weights(
    src: ParamStore,
    dst: ParamStore,
    src_level: HierarchyLevel | None = None,
) -> tuple[ParamStore, list[str]]:
    """Copy ``level_params(src_level)`` from ``src`` into a copy of ``dst``:
    the trunk, the box head and the heads the previous stage supervised.

    Heads ``src_level`` does not supervise (newly supervised at the deeper
    stage) keep their fresh initialization.  Returns the new store and the
    list of copied tensor names.
    """
    copied = level_params(src_level)
    out = {k: v.copy() for k, v in dst.items()}
    for name in copied:
        if src[name].shape != out[name].shape:
            raise ValueError(f"incompatible shapes for {name}")
        out[name] = src[name].copy()
    return out, copied


_CKPT_MAGIC = b"DDCKPT01"


def save_checkpoint(path, params: ParamStore, meta: dict | None = None) -> None:
    """Self-describing binary container: JSON header with tensor directory,
    then raw float64 little-endian data.  Round-trips bit-exactly."""
    names = sorted(params)
    header = json.dumps(
        {
            "meta": meta or {},
            "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
        }
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for n in names:
            f.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())


def _read_exact(f, size: int, what: str) -> bytes:
    # Checked before reading: a corrupt length must not size an allocation.
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise ValueError(f"{f.name}: truncated {what}: {left} of {size} bytes")
    return f.read(size)


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    """Read a ``save_checkpoint`` file; ValueError if foreign, truncated or
    holding a non-finite value."""
    with open(path, "rb") as f:
        if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<Q", _read_exact(f, 8, "header length"))
        header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
        params: ParamStore = {}
        for entry in header["tensors"]:
            name, shape = entry["name"], tuple(entry["shape"])
            data = _read_exact(f, 8 * math.prod(shape), f"tensor {name!r}")
            params[name] = np.frombuffer(data, "<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(params[name]).all():
                raise ValueError(f"{path}: tensor {name!r} holds non-finite values")
    return params, header["meta"]
