#!/usr/bin/env python3
"""dentdet benchmark: three closed-loop workloads over the public Python API.

Run from the repository root:

    python3 perfbench/run.py --workload {pipeline,detect,evaluate} \
        --seed N --seconds S --trace {0,1}

One caller in one process makes each call only after the previous one has
returned.  Inputs are written by ``data.generate_dataset`` from the seed;
data generation, the fixture checkpoint, set-up and the output checks stay
outside the timed region.  Calls pass the values ``dentdet`` resolves from
the default ``RunConfig``, as the CLI commands do.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics, in seconds calibrated to the host's speed by
``calibrate.HostClock``; with ``--trace 1`` the run measures half its time
untraced and half with the wrappers of ``tracing.py`` installed, and the
JSON holds the per-layer metrics.  Earlier stdout lines give the report by
name, with units and sample counts, and the environment.  Every failed
output check counts toward ``failed`` and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))
from calibrate import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("pipeline", "detect", "evaluate")
DETECT_STEPS = 4  # multi-step sampling, so ddim_step and box_renewal run

# End-to-end metrics, printed by every workload with --trace 0.  Times are
# calibrated seconds (see calibrate.py): a shared host's speed changes by
# half again within seconds and for minutes at a time, and calibration
# takes that out.  setup_s is the median set-up.  images_per_s is the images
# of the operations that passed their checks over the calibrated time of all
# operations (pipeline: training-batch, cache and held-out images); it is a
# throughput, not a median, because a run-level median jumps between the
# host's fast and slow modes.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "images_per_s": "images/s",
}


@dataclass(frozen=True)
class Sizes:
    eval_images: int = 32  # level-b set scored by detect and evaluate
    pipeline_train_images: int = 16  # per level
    pipeline_eval_images: int = 8  # per level
    pipeline_iterations: int = 10  # per stage
    fixture_images: int = 32
    fixture_iterations: int = 300
    setup_repeats: int = 7


FULL = Sizes()
TINY = Sizes(
    eval_images=2, pipeline_train_images=2, pipeline_eval_images=2,
    pipeline_iterations=2, fixture_images=2, fixture_iterations=3, setup_repeats=2,
)


def import_dentdet():
    """Import dentdet from this checkout's ``src``, never an installed copy."""
    pkg = SRC / "dentdet"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: dentdet sources not found at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dentdet

    if Path(dentdet.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported dentdet from {dentdet.__file__}, not {pkg}")
    return dentdet


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dentdet").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_digest": source_digest(),
    }


def stage_config(cfg, level, iterations: int):
    """Base stage from the default RunConfig, as ``dentdet train`` builds it."""
    from dentdet.train import StageConfig

    t = cfg.train
    return StageConfig(
        level=level, iterations=iterations, batch_size=t.batch_size, lr=t.lr,
        n_proposals=t.n_proposals, seed=t.seed, weight_decay=t.weight_decay,
        grad_clip=t.grad_clip, warmup=t.warmup, augment=t.augment, log_every=1,
    )


def fixture_checkpoint(cfg, schedule, sizes: Sizes, work: Path) -> dict:
    """Level-b checkpoint trained with ``train_stage`` at a fixed seed.

    It is cached in ``work`` under a key of the package sources and the
    fixture settings, so a checkout trains it once.
    """
    from dentdet import data, model, train
    from dentdet.labels import HierarchyLevel

    key = hashlib.sha256(
        f"{source_digest()}:{cfg.fingerprint()}:{sizes.fixture_images}:"
        f"{sizes.fixture_iterations}".encode()
    ).hexdigest()[:16]
    path = work / f"fixture-{key}.bin"
    if not path.exists():
        level = HierarchyLevel.QUADRANT_ENUM
        data_dir = work / f"fixture-data-{os.getpid()}"
        t0 = time.perf_counter()
        try:
            # Seed 0 is even; workload datasets use odd seeds.
            data.generate_dataset(data_dir, sizes.fixture_images, 0)
            samples = train.prepare_samples(
                data.load_annotations(
                    data_dir / f"annotations_{data.level_tag(level)}.json", level
                ),
                data_dir / "images",
                cfg.model,
            )
            params, _ = train.train_stage(
                stage_config(cfg, level, sizes.fixture_iterations),
                samples, cfg.model, schedule,
            )
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        model.save_checkpoint(
            partial, params,
            {"level": level.value, "iterations": sizes.fixture_iterations,
             "build_s": time.perf_counter() - t0},
        )
        os.replace(partial, path)
    params, meta = model.load_checkpoint(path)
    weights = hashlib.sha256()
    for name in sorted(params):
        weights.update(name.encode())
        weights.update(params[name].tobytes())
    return {
        "path": path,
        "weights_sha256": weights.hexdigest()[:16],
        "build_s": meta["build_s"],
        "iterations": meta["iterations"],
    }


@dataclass
class Inputs:
    train: dict
    eval: dict
    params: dict | None


def setup(workload: str, cfg, data_dir: Path, fixture: dict | None) -> Inputs:
    """Load annotations, read and encode images, load the checkpoint."""
    from dentdet import data, model, train
    from dentdet.labels import HierarchyLevel

    levels = list(HierarchyLevel) if workload == "pipeline" else [HierarchyLevel.QUADRANT_ENUM]

    def load(d: Path) -> dict:
        return {
            lv: train.prepare_samples(
                data.load_annotations(d / f"annotations_{data.level_tag(lv)}.json", lv),
                d / "images",
                cfg.model,
            )
            for lv in levels
        }

    if workload == "pipeline":
        return Inputs(train=load(data_dir / "train"), eval=load(data_dir / "eval"), params=None)
    params, _ = model.load_checkpoint(fixture["path"])
    return Inputs(train={}, eval=load(data_dir / "eval"), params=params)


# ---------------------------------------------------------------------------
# Workloads: an operation, the images it handles, and its output checks.


class Workload:
    """One closed-loop workload over prepared inputs."""

    def __init__(self, name: str, cfg, schedule, sizes: Sizes, tmp: Path):
        from dentdet.labels import HierarchyLevel

        self.name, self.cfg, self.schedule, self.sizes, self.tmp = name, cfg, schedule, sizes, tmp
        self.level_b = HierarchyLevel.QUADRANT_ENUM
        self.reference = None

    def images_per_op(self, inputs: Inputs) -> int:
        if self.name != "pipeline":
            return len(inputs.eval[self.level_b])
        stages = 3 * self.sizes.pipeline_iterations * self.cfg.train.batch_size
        levels = list(inputs.train)
        cache = sum(len(inputs.train[lv]) for lv in levels[1:])
        held_out = sum(len(inputs.eval[lv]) for lv in levels)
        return stages + cache + held_out

    def op(self, inputs: Inputs):
        from dentdet import train
        from dentdet.labels import HierarchyLevel

        cfg = self.cfg
        if self.name == "pipeline":
            base = stage_config(cfg, HierarchyLevel.QUADRANT_ONLY, self.sizes.pipeline_iterations)
            return train.run_pipeline(
                train.make_plan("full", base), inputs.train, cfg.model, self.schedule,
                out_dir=self.tmp / "pipeline_run", eval_datasets=inputs.eval,
                infer_steps=cfg.schedule.steps,
            )
        samples = inputs.eval[self.level_b]
        if self.name == "detect":
            return train.infer(
                inputs.params, [s.grid_feats for s in samples], self.level_b,
                cfg.model, self.schedule, n_proposals=cfg.train.n_proposals,
                steps=DETECT_STEPS, seed=cfg.train.seed,
                eta=cfg.schedule.eta, renewal_threshold=cfg.infer.renewal_threshold,
                nms_iou=cfg.infer.nms_iou,
            )
        return train.evaluate_params(
            inputs.params, self.level_b, samples, cfg.model, self.schedule,
            n_proposals=cfg.train.n_proposals, steps=cfg.schedule.steps,
            seed=cfg.train.seed,
        )

    def summary(self, out):
        """Comparable form of an operation's output."""
        if self.name == "pipeline":
            return [np.concatenate([p.ravel() for _, p in sorted(sr.params.items())])
                    for sr in out.stages]
        if self.name == "detect":
            return [detection_array(dets) for dets in out]
        return out.key_values()

    def check(self, out) -> list[str]:
        fails = []
        summary = self.summary(out)
        if self.name == "pipeline":
            for sr in out.stages:
                if not all(np.isfinite(r["loss"]) for r in sr.metrics):
                    fails.append(f"non-finite training loss at stage {sr.level.value}")
            for sr in out.stages[1:]:
                if not sr.copied_tensors or sr.cache_reads <= 0:
                    fails.append(f"full arm stage {sr.level.value}: transfer or cache unused")
        elif self.name == "detect":
            for arr in summary:
                fails += check_detections(arr)
        else:
            for key, val in summary.items():
                if not (np.isfinite(val) and (0.0 <= val <= 1.0 or val == -1.0)):
                    fails.append(f"metric {key}={val} outside [0, 1]")
        if self.reference is None:
            self.reference = summary
        elif not same(summary, self.reference):
            fails.append("output differs from the first identical call")
        return fails

    def steps_ms(self, out) -> list[float]:
        """Training-iteration times of a staged run, from its records."""
        if self.name != "pipeline":
            return []
        steps = []
        for sr in out.stages:
            walls = [r["wall_time"] for r in sr.metrics]
            steps += [1000.0 * d for d in np.diff([0.0] + walls)]
        return steps


def detection_array(dets) -> np.ndarray:
    """Rows of (cx, cy, w, h, score, quadrant, enumeration, diagnosis probs)."""
    return np.array(
        [[d.box.cx, d.box.cy, d.box.w, d.box.h, d.score,
          *d.probs_q, *d.probs_e, *d.probs_d] for d in dets]
    ).reshape(len(dets), 5 + 4 + 8 + 4)


def check_detections(arr: np.ndarray) -> list[str]:
    fails = []
    if not np.isfinite(arr).all():
        return ["non-finite detection values"]
    boxes = arr[:, :4]
    if ((boxes < 0.0) | (boxes > 1.0)).any():
        fails.append("detection box outside [0, 1]")
    for name, lo, hi in (("quadrant", 5, 9), ("enumeration", 9, 17), ("diagnosis", 17, 21)):
        if not np.allclose(arr[:, lo:hi].sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            fails.append(f"{name} probabilities do not sum to 1")
    return fails


def same(a, b) -> bool:
    if isinstance(a, dict):
        return a == b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def oracle_check(data_dir: Path, levels, out_dir: Path) -> list[str]:
    """``dentdet eval --oracle`` must score every metric of every task at 100."""
    from dentdet import cli

    fails = []
    for level in levels:
        out = out_dir / f"oracle_{level}.txt"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["eval", "--data", str(data_dir), "--level", level,
                             "--oracle", "--out", str(out)])
        if code != 0:
            fails.append(f"oracle eval at level {level} exited {code}")
            continue
        for line in out.with_suffix(".kv").read_text().splitlines():
            key, val = line.split("=")
            # -100 marks an area bucket without ground truth.
            if float(val) != 100.0 and not (key.endswith(("AP_m", "AP_l")) and float(val) == -100.0):
                fails.append(f"oracle level {level}: {key}={val}, expected 100")
    return fails


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Loop:
    spans: list = field(default_factory=list)  # (start, end) per operation
    steps_ms: list = field(default_factory=list)
    images: int = 0  # handled by operations that passed their checks
    attempted: int = 0
    failed: int = 0

    def record(self, fails: list[str]) -> bool:
        self.attempted += 1
        if fails:
            self.failed += 1
            print(f"check failed: {'; '.join(fails)}", file=sys.stderr)
        return not fails

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in self.spans]


def attempt(workload: Workload, inputs: Inputs):
    """One operation: (output or None, (start, end), failed checks)."""
    t0 = time.perf_counter()
    try:
        out = workload.op(inputs)
    except Exception:  # a failed operation is counted; the loop goes on
        traceback.print_exc()
        return None, (t0, time.perf_counter()), ["operation raised"]
    span = (t0, time.perf_counter())
    return out, span, workload.check(out)


def measure(workload: Workload, inputs: Inputs, seconds: float, loop: Loop) -> Loop:
    """Closed loop: operations start until ``seconds`` have passed."""
    images = workload.images_per_op(inputs)
    end = time.perf_counter() + seconds
    while True:
        out, span, fails = attempt(workload, inputs)
        loop.spans.append(span)
        if loop.record(fails):
            loop.images += images
            loop.steps_ms += workload.steps_ms(out)
        if time.perf_counter() >= end:
            return loop


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, work: Path | None = None) -> dict:
    """One benchmark run; returns the result document."""
    import_dentdet()
    from dentdet.config import RunConfig
    from dentdet.diffusion import Schedule

    if workload_name not in WORKLOADS:
        raise ValueError(f"unknown workload {workload_name!r}")
    cfg = RunConfig()
    schedule = Schedule.cosine(cfg.schedule.timesteps, cfg.schedule.s)
    work = work or ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    tmp = work / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        return _run(workload_name, seed, seconds, trace, sizes, work, tmp, cfg, schedule)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(name, seed, seconds, trace, sizes, work, tmp, cfg, schedule) -> dict:
    from dentdet import data

    fixture = None if name == "pipeline" else fixture_checkpoint(cfg, schedule, sizes, work)
    # Workload datasets use odd seeds, so they never meet the fixture's data.
    if name == "pipeline":
        data.generate_dataset(tmp / "train", sizes.pipeline_train_images, 4 * seed + 1)
    data.generate_dataset(
        tmp / "eval",
        sizes.pipeline_eval_images if name == "pipeline" else sizes.eval_images,
        4 * seed + 3,
    )

    workload = Workload(name, cfg, schedule, sizes, tmp)
    loop = Loop()
    loop.record(oracle_check(tmp / "eval", ("a", "b", "c") if name == "pipeline" else ("b",), tmp))
    report = {}
    # The end-to-end run samples the host's speed through set-up and the
    # timed loop; the traced run reports wall time.
    clock = None if trace else HostClock()
    with clock or contextlib.nullcontext():
        setup_spans = []
        for _ in range(sizes.setup_repeats):
            t0 = time.perf_counter()
            inputs = setup(name, cfg, tmp, fixture)
            setup_spans.append((t0, time.perf_counter()))
        if name != "pipeline":
            # Untimed warm-up call: fills caches and sets the reference output.
            first, _, fails = attempt(workload, inputs)
            if loop.record(fails) and name == "evaluate":
                report = {f"{task}_ap50": (tm.ap50, "AP50", len(inputs.eval[workload.level_b]))
                          for task, tm in first.tasks.items()}
        if not trace:
            measure(workload, inputs, seconds, loop)

    tracer = None
    if trace:
        setup_times = [end - start for start, end in setup_spans]
        plain = measure(workload, inputs, seconds / 2, Loop())
        with Tracer() as tracer:
            t0 = time.perf_counter()
            inputs = setup(name, cfg, tmp, fixture)
            traced_setup = time.perf_counter() - t0
            tracer.phase = "ops"
            measure(workload, inputs, seconds / 2, loop)
        untraced_s, traced_s = percentile(plain.durations, 50), percentile(loop.durations, 50)
        metrics = tracer.layer_metrics(len(loop.durations), 100.0 * (traced_s / untraced_s - 1.0))
        report.update({
            "traced_setup_s": (traced_setup, "s", 1),
            "untraced_op_s_p50": (untraced_s, "s", len(plain.durations)),
            "traced_op_s_p50": (traced_s, "s", len(loop.durations)),
        })
        loop.attempted += plain.attempted
        loop.failed += plain.failed
        op_s = loop.durations
    else:
        # A set-up holds few samples; the whole set-up phase gives
        # each of them the same, steadier host speed.
        setup_speed = clock.speed(setup_spans[0][0], setup_spans[-1][1])
        wall_setup = [clock.interval(*span)[0] for span in setup_spans]
        setup_times = [busy * setup_speed for busy in wall_setup]
        op_s, calibrated_ops = zip(*(clock.interval(*span) for span in loop.spans))
        images_per_s = loop.images / sum(calibrated_ops)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "images_per_s": images_per_s,
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in metrics.items()}
        if name != "pipeline":
            key = "detect_images_per_s" if name == "detect" else "eval_images_per_s"
            report[key] = (images_per_s, "images/s", len(op_s))
        report.update({
            "wall_images_per_s": (loop.images / sum(op_s), "images/s", len(op_s)),
            "wall_setup_s": (statistics.median(wall_setup), "s", len(wall_setup)),
            "host_speed": (clock.speed(), "nominal=1", len(clock.durations)),
        })
        if clock.steal_pct() is not None:
            report["host_steal_pct"] = (clock.steal_pct(), "%", 1)

    report.update({
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "error_rate": (loop.failed / loop.attempted, "failed/attempted", loop.attempted),
    })
    if name == "pipeline":
        report.update({
            "pipeline_s": (percentile(op_s, 50), "s", len(op_s)),
            "train_iter_ms_p50": (percentile(loop.steps_ms, 50), "ms", len(loop.steps_ms)),
            "train_iter_ms_p95": (percentile(loop.steps_ms, 95), "ms", len(loop.steps_ms)),
        })
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": asdict(sizes),
        "environment": environment(),
        "fixture": None if fixture is None else {
            k: v for k, v in fixture.items() if k != "path"
        },
        "report": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report.items()},
        "samples": {"op_s": list(op_s), "step_ms": loop.steps_ms},
        "trace_data": tracer.dump() if tracer else None,
        "result": {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    # The benchmark measures the default RunConfig, whatever the shell sets.
    os.environ.pop("DENTDET_CONFIG", None)
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))

    out_dir = ROOT / ".bench_build" / "perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1, default=str))
    print(f"environment: {json.dumps(doc['environment'])}")
    if doc["fixture"]:
        print(f"fixture: {json.dumps(doc['fixture'])}")
    for key, r in doc["report"].items():
        print(f"{key:<22} {r['value']:>14.6g} {r['unit']:<18} n={r['samples']}")
    print(f"result file: {out_dir / stem}.json")
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
