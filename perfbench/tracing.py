"""Out-of-package tracing for the dentdet benchmark.

A :class:`Tracer` replaces public dentdet functions with wrappers in the
namespace their callers look them up in (``dentdet.train.decode``, not
``dentdet.model.decode``, because ``train`` imported the name).  A span
wrapper records (name, start, end, parent, phase); a count wrapper only
counts calls, for functions called hundreds of thousands of times such as
the scalar ``iou``.  Everything is kept in memory, and leaving the ``with``
block restores every replaced attribute.

Span names use the defining module (``model.decode``), so each per-layer
metric names the module it measures.  A span's self time is its duration
minus the time covered by its traced children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

SPAN, COUNT = "span", "count"


def _rows(arg):
    def hook(counts, name, bound, result):
        counts[f"{name}.rows"] += len(bound[arg])

    return hook


def _assignment(counts, name, bound, result):
    counts["matching.cost_cells"] += bound["cost"].size
    counts["matching.matched_pairs"] += len(result)


def _renewal(counts, name, bound, result):
    scores = bound["scores"]
    counts["diffusion.box_renewal.offered"] += len(scores)
    counts["diffusion.box_renewal.renewed"] += int((scores < bound["score_threshold"]).sum())


def _splice(counts, name, bound, result):
    # Documented rule of manipulate_boxes: k = min(#inferred above the gate, N).
    gate = bound["score_threshold"]
    above = sum(1 for e in bound["inferred"] if e.score > gate)
    counts["manipulate.spliced_rows"] += min(above, len(bound["noisy"]))


def _cached(counts, name, bound, result):
    counts["manipulate.cached_boxes"] += len(result)


def _copied(counts, name, bound, result):
    counts["train.transfer_weights.copied_tensors"] += len(result[1])


# (owner, attribute, metric name, kind, hook).  The owner is the module (or
# class) whose attribute the calling code reads at call time.
PATCH_POINTS = (
    ("dentdet.data", "load_annotations", "data.load_annotations", SPAN, None),
    ("dentdet.imageio", "read_pgm", "imageio.read_pgm", SPAN, None),
    ("dentdet.train", "prepare_samples", "train.prepare_samples", SPAN, None),
    ("dentdet.train", "encode_image", "model.encode_image", SPAN, None),
    ("dentdet.train", "train_stage", "train.train_stage", SPAN, None),
    ("dentdet.train", "loss_gradients", "model.loss_gradients", SPAN, None),
    ("dentdet.train", "decode", "model.decode", SPAN, None),
    ("dentdet.model", "roi_pool_batch", "model.roi_pool_batch", SPAN, _rows("boxes01")),
    ("dentdet.model", "forward_net", "model.forward_net", SPAN, _rows("x")),
    ("dentdet.model", "backward_net", "model.backward_net", SPAN, None),
    ("dentdet.matching", "match_arrays", "matching.match_arrays", SPAN, None),
    ("dentdet.matching", "solve_assignment", "matching.solve_assignment", SPAN, _assignment),
    ("dentdet.matching", "linear_sum_assignment", "matching.linear_sum_assignment", SPAN, None),
    ("dentdet.matching", "loss_forward_backward", "matching.loss_forward_backward", SPAN, None),
    ("dentdet.train", "pad_gt_boxes", "diffusion.pad_gt_boxes", SPAN, None),
    ("dentdet.train", "forward_noise", "diffusion.forward_noise", SPAN, None),
    ("dentdet.train", "ddim_step", "diffusion.ddim_step", SPAN, None),
    ("dentdet.train", "box_renewal", "diffusion.box_renewal", SPAN, _renewal),
    ("dentdet.train", "manipulate_boxes", "manipulate.manipulate_boxes", SPAN, _splice),
    ("dentdet.manipulate:InferredBoxCache", "get", "manipulate.cache_reads", COUNT, None),
    ("dentdet.train", "build_cache", "train.build_cache", SPAN, _cached),
    ("dentdet.train", "transfer_weights", "train.transfer_weights", SPAN, _copied),
    ("dentdet.train", "infer", "train.infer", SPAN, None),
    ("dentdet.train", "iou", "train.nms_iou_calls", COUNT, None),
    ("dentdet.train", "evaluate_params", "train.evaluate_params", SPAN, None),
    ("dentdet.train", "build_report", "evalmetrics.build_report", SPAN, None),
    ("dentdet.evalmetrics", "evaluate", "evalmetrics.evaluate", SPAN, None),
    ("dentdet.evalmetrics", "detections_to_eval", "evalmetrics.detections_to_eval", SPAN, None),
    ("dentdet.evalmetrics", "iou", "evalmetrics.iou_calls", COUNT, None),
)

# Per-layer metrics: (name, unit, better).  Units ending in "/op" are totals
# over the traced operations divided by their number; "/setup" are totals of
# the one traced set-up.  The end-to-end metric each should move is listed in
# perfbench/README.md.
LAYER_METRICS = (
    ("model.roi_pool_batch.calls", "count/op", "lower"),
    ("model.roi_pool_batch.rows", "count/op", "lower"),
    ("model.roi_pool_batch.self_s", "s/op", "lower"),
    ("model.roi_pool_batch.train_share_pct", "%", "lower"),
    ("model.roi_pool_batch.infer_share_pct", "%", "lower"),
    ("model.forward_net.rows", "count/op", "lower"),
    ("model.forward_net.self_s", "s/op", "lower"),
    ("model.backward_net.self_s", "s/op", "lower"),
    ("model.decode.calls", "count/op", "lower"),
    ("model.decode.self_s", "s/op", "lower"),
    ("model.loss_gradients.self_s", "s/op", "lower"),
    ("model.encode_image.calls", "count/setup", "lower"),
    ("model.encode_image.self_s", "s/setup", "lower"),
    ("matching.match_arrays.calls", "count/op", "lower"),
    ("matching.match_arrays.self_s", "s/op", "lower"),
    ("matching.cost_cells", "count/op", "lower"),
    ("matching.solve_assignment.self_s", "s/op", "lower"),
    ("matching.linear_sum_assignment.self_s", "s/op", "lower"),
    ("matching.matched_pairs", "count/op", "higher"),
    ("matching.loss_forward_backward.self_s", "s/op", "lower"),
    ("diffusion.pad_gt_boxes.self_s", "s/op", "lower"),
    ("diffusion.forward_noise.self_s", "s/op", "lower"),
    ("diffusion.ddim_step.calls", "count/op", "lower"),
    ("diffusion.ddim_step.self_s", "s/op", "lower"),
    ("diffusion.box_renewal.calls", "count/op", "lower"),
    ("diffusion.box_renewal.renewed_ratio", "ratio", "lower"),
    ("manipulate.manipulate_boxes.calls", "count/op", "lower"),
    ("manipulate.manipulate_boxes.self_s", "s/op", "lower"),
    ("manipulate.spliced_rows", "count/op", "higher"),
    ("manipulate.cache_reads", "count/op", "higher"),
    ("manipulate.cached_boxes", "count/op", "higher"),
    ("train.train_stage.self_s", "s/op", "lower"),
    ("train.build_cache.s", "s/op", "lower"),
    ("train.infer.calls", "count/op", "lower"),
    ("train.infer.self_s", "s/op", "lower"),
    ("train.nms_iou_calls", "count/op", "lower"),
    ("train.evaluate_params.s", "s/op", "lower"),
    ("train.transfer_weights.copied_tensors", "count/op", "higher"),
    ("evalmetrics.build_report.s", "s/op", "lower"),
    ("evalmetrics.evaluate.calls", "count/op", "lower"),
    ("evalmetrics.evaluate.self_s", "s/op", "lower"),
    ("evalmetrics.iou_calls", "count/op", "lower"),
    ("evalmetrics.detections_to_eval.self_s", "s/op", "lower"),
    ("data.load_annotations.self_s", "s/setup", "lower"),
    ("imageio.read_pgm.calls", "count/setup", "lower"),
    ("imageio.read_pgm.self_s", "s/setup", "lower"),
    ("train.prepare_samples.self_s", "s/setup", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def resolve_owner(spec: str):
    """Module, or class inside a module for ``"module:Class"``."""
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Install span and count wrappers; remove them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[str, Counter] = {}
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner_spec, attr, name, kind, hook in PATCH_POINTS:
                owner = resolve_owner(owner_spec)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapper = self._span(fn, name, hook) if kind == SPAN else self._count(fn, name)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _phase_counts(self) -> Counter:
        return self.counts.setdefault(self.phase, Counter())

    def _count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._phase_counts()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, name, hook):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self._phase_counts(), name, bound.arguments, result)
            return result

        return wrapper

    def aggregate(self) -> dict[str, Counter]:
        """Per phase: ``<span>.calls``, ``<span>.s``, ``<span>.self_s`` and counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {phase: Counter(c) for phase, c in self.counts.items()}
        for i, (name, t0, t1, _, phase) in enumerate(self.spans):
            agg = out.setdefault(phase, Counter())
            agg[f"{name}.calls"] += 1
            agg[f"{name}.s"] += t1 - t0
            agg[f"{name}.self_s"] += t1 - t0 - child[i]
        return out

    def share_pct(self, name: str, ancestor: str) -> float:
        """Percent of ``ancestor`` span time spent in ``name`` spans below it."""
        total = sum(t1 - t0 for n, t0, t1, _, _ in self.spans if n == ancestor)
        inside = 0.0
        for n, t0, t1, parent, _ in self.spans:
            if n != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                inside += t1 - t0
        return 100.0 * inside / total if total else 0.0

    def layer_metrics(self, n_ops: int, overhead_pct: float) -> dict:
        """Per-layer metrics over one traced set-up and ``n_ops`` operations."""
        agg = self.aggregate()
        setup, ops = agg.get("setup", Counter()), agg.get("ops", Counter())
        offered = ops["diffusion.box_renewal.offered"]
        special = {
            "model.roi_pool_batch.train_share_pct": self.share_pct(
                "model.roi_pool_batch", "train.train_stage"
            ),
            "model.roi_pool_batch.infer_share_pct": self.share_pct(
                "model.roi_pool_batch", "train.infer"
            ),
            "diffusion.box_renewal.renewed_ratio": (
                ops["diffusion.box_renewal.renewed"] / offered if offered else 0.0
            ),
            "trace.overhead_pct": overhead_pct,
        }
        out = {}
        for name, unit, _ in LAYER_METRICS:
            if name in special:
                value = special[name]
            elif unit.endswith("/setup"):
                value = setup[name]
            else:
                value = ops[name] / n_ops
            out[name] = {"value": float(value), "unit": unit}
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p, "phase": ph}
                for n, t0, t1, p, ph in self.spans
            ],
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
        }
