"""Tests of the benchmark itself: declared metrics, wrapper removal, smoke runs.

Run with ``python3 -m pytest perfbench``.  Each workload runs at the tiny
sizes in ``run.TINY``, into a temporary work directory.
"""

import json
import signal
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def declared():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _attributes():
    """Every attribute of every dentdet module and of the classes in them."""
    run.import_dentdet()
    seen = {}
    for mod_name in sorted(m for m in sys.modules if m.split(".")[0] == "dentdet"):
        mod = sys.modules[mod_name]
        for attr, val in vars(mod).items():
            seen[(mod_name, attr)] = val
            if isinstance(val, type):
                for cattr, cval in vars(val).items():
                    seen[(mod_name, attr, cattr)] = cval
    return seen


def test_benchmark_json_declares_the_emitted_metric_names(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS
    ]


def test_every_patch_point_resolves_to_a_function():
    run.import_dentdet()
    for owner, attr, *_ in tracing.PATCH_POINTS:
        assert callable(getattr(tracing.resolve_owner(owner), attr)), (owner, attr)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_checks_and_prints_declared_metrics(workload, trace, work, declared):
    before = _attributes() if trace else None
    doc = run.run(workload, seed=1, seconds=0.01, trace=trace, sizes=run.TINY, work=work)
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = declared["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        after = _attributes()
        changed = [k for k in before if after.get(k) is not before[k]]
        assert changed == []
        counts = result["metrics"]
        assert counts["model.roi_pool_batch.calls"]["value"] > 0
        assert counts["imageio.read_pgm.calls"]["value"] > 0


def test_tracer_restores_attributes_when_an_install_fails(monkeypatch):
    before = _attributes()
    bad = tracing.PATCH_POINTS + (("dentdet.train", "no_such_function", "x", tracing.SPAN, None),)
    monkeypatch.setattr(tracing, "PATCH_POINTS", bad)
    with pytest.raises(AttributeError):
        with tracing.Tracer():
            pass
    after = _attributes()
    assert [k for k in before if after.get(k) is not before[k]] == []


def test_host_clock_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.HostClock(period_s=0.01) as clock:
        deadline = run.time.perf_counter() + 0.2
        while run.time.perf_counter() < deadline:
            pass
    assert len(clock.durations) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_calibrated_interval_excludes_samples_and_scales_by_host_speed():
    clock = calibrate.HostClock()
    ref = calibrate.REFERENCE_S
    clock.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    clock.durations = [ref, 2 * ref, 2 * ref, 2 * ref, ref]  # host at half speed
    busy, calibrated = clock.interval(0.5, 4.0)
    assert busy == pytest.approx(3.5 - 6 * ref)
    assert calibrated == pytest.approx(busy / 2)
    # Too few samples inside: the nearest ones stand in.
    busy, calibrated = clock.interval(9.9, 10.05)
    assert busy == pytest.approx(0.15 - ref)
    assert calibrated == pytest.approx(busy * (1 + 0.5 + 0.5) / 3)


def test_failed_check_is_counted(work, monkeypatch):
    monkeypatch.setattr(run.Workload, "check", lambda self, out: ["injected"])
    doc = run.run("detect", seed=1, seconds=0.01, trace=False, sizes=run.TINY, work=work)
    assert not doc["result"]["correct"]
    assert doc["result"]["failed"] == doc["result"]["attempted"] - 1  # oracle check passed


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
