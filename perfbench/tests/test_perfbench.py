"""The benchmark's own tests: catalogue limits, tracer hygiene, smoke runs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
from layers import LAYERS, LayerTracer, repro_modules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


# ---- catalogue ------------------------------------------------------------- #


def test_metric_names_and_units_are_well_formed():
    rows = (*metrics.END_TO_END, *metrics.DETAIL, *metrics.PER_LAYER)
    for m in rows:
        assert metrics.NAME_RE.match(m.name), m.name
        assert metrics.UNIT_RE.match(m.unit), m.unit
        assert m.better in ("lower", "higher")
    for group in (metrics.END_TO_END, metrics.DETAIL, metrics.PER_LAYER):
        names = [m.name for m in group]
        assert len(names) == len(set(names))


def test_counts_within_limits():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8


def test_benchmark_json_matches_catalogue():
    from workloads import WORKLOADS

    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_host_speed_scales_timings():
    from hostspeed import NOMINAL_S

    def run(kernel_s, slowdown=1.0):
        its = [types.SimpleNamespace(setup_s=[0.2 * slowdown], work=10.0,
                                     run_s=2.0 * slowdown, kernel_s=(kernel_s, kernel_s))]
        return metrics.end_to_end(its, peak_rss_mib=100.0)

    nominal = run(NOMINAL_S)
    assert nominal == {"setup_s": 0.2, "work_per_s": 5.0, "peak_rss_mib": 100.0}
    # a host that runs the kernel and the workload twice as slowly reads the same
    assert run(2 * NOMINAL_S, slowdown=2.0) == pytest.approx(nominal)


def test_predictions_cover_every_workload():
    import predictions

    layers = {m.name: 1.0 for m in metrics.PER_LAYER}
    layers.update({"tracing.wall_s": 100.0, "tracing.self_s": 20.0, "tracing.overhead_s": 20.0})
    fp = {k: "x" for k in ("seconds", "seed", "python", "numpy", "ec_backend",
                           "source_sha", "bench_sha")}
    records = {w["name"]: {"iterations": 3, "layers": layers, "fingerprint": fp}
               for w in SPEC["workloads"]}
    assert predictions.WORKLOADS == tuple(records)
    out = predictions.build(records)
    assert set(out["workloads"]) == set(records)
    names = {m.name for m in (*metrics.END_TO_END, *metrics.DETAIL)}
    for row in out["predictions"]:
        assert set(row["layer_metrics"]) <= set(layers)
        assert {m.split(" ")[0] for m in row["moves"]} <= names
        assert row["measured_share"]["lifetime"] > 0


# ---- tracer ---------------------------------------------------------------- #


def _traced_attributes():
    found = []
    for mod in repro_modules():
        for name, value in vars(mod).items():
            if getattr(value, "__perfbench_traced__", False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, "__perfbench_traced__", False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


def test_every_patched_attribute_is_restored():
    tracer = LayerTracer()
    with tracer:
        patches = list(tracer.patches)
        assert len(patches) > 100
        assert _traced_attributes()
    for owner, name, original in patches:
        assert vars(owner)[name] is original, f"{owner}.{name} not restored"
    assert not tracer.patches
    assert _traced_attributes() == []


def test_split_adds_up_to_the_traced_wall():
    from time import perf_counter

    from repro.core.throughput import max_pipelined_throughput
    from repro.net import BandwidthSnapshot, RepairContext
    import numpy as np

    ctx = RepairContext(
        snapshot=BandwidthSnapshot(
            uplink=np.array([1000.0, 600, 960, 600, 600]),
            downlink=np.array([1000.0, 300, 1000, 300, 300]),
        ),
        requester=0, helpers=(1, 2, 3, 4), k=3,
    )
    tracer = LayerTracer()
    with tracer:
        tracer.active = True
        t0 = perf_counter()
        for _ in range(50):
            max_pipelined_throughput(ctx)
        wall = perf_counter() - t0
        tracer.active = False
    split = tracer.split(wall)
    assert set(split) == {*LAYERS, "other", "tracing"}
    assert sum(split.values()) == pytest.approx(wall)
    assert split["core"] > 0
    assert tracer.layer_totals()["core"][0] >= 50


# ---- compare --------------------------------------------------------------- #


def test_verdicts():
    base = [100.0 + i for i in range(10)]
    pairs = lambda new: list(zip(base, new))  # noqa: E731
    faster = [v * 1.5 for v in base]
    assert compare.verdict(base, faster, pairs(faster), "higher", 0.1) == "better"
    slower = [v * 0.7 for v in base]
    assert compare.verdict(base, slower, pairs(slower), "higher", 0.1) == "worse"
    assert compare.verdict(base, base, pairs(base), "higher", 0.1) == "unchanged"
    noisy = [100.0, 160.0] * 5
    mixed = [160.0, 100.0] * 5
    assert compare.verdict(noisy, mixed, list(zip(noisy, mixed)), "higher", 0.1) == "unresolved"
    near = [v + (0.5 if i % 2 else -0.5) for i, v in enumerate(base)]
    assert compare.verdict(base, near, pairs(near), "higher", 0.1) == "unchanged"


def _record(seed, value, **fp):
    fingerprint = {"commit": "a", "source_sha": "s", "input_sha": f"in{seed}",
                   "python": "3", "seed": seed, "workload": "w", "trace": 0}
    fingerprint.update(fp)
    return {"workload": "w", "seed": seed, "trace": 0, "fingerprint": fingerprint,
            "metrics": {"work_per_s": value}, "detail": {}}


def test_compare_refuses_different_settings_and_inputs():
    base = [_record(s, 10.0) for s in range(3)]
    compare.check_comparable(base, [_record(s, 11.0, commit="b") for s in range(3)])
    with pytest.raises(SystemExit, match="fingerprints differ"):
        compare.check_comparable(base, [_record(0, 11.0, python="4")])
    with pytest.raises(SystemExit, match="inputs differ"):
        compare.check_comparable(base, [_record(0, 11.0, input_sha="other")])


# ---- end to end ------------------------------------------------------------ #


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_checks(workload, tmp_path):
    out = tmp_path / "runs.jsonl"
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    record = json.loads(out.read_text().splitlines()[-1])
    assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in record["metrics"].values())
    layers = record["layers"]
    parts = sum(layers[f"{x}.self_s"] for x in (*LAYERS, "other", "tracing"))
    assert parts == pytest.approx(layers["tracing.wall_s"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "plan-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_module_import_has_no_side_effects():
    import layers
    import run

    assert isinstance(layers, types.ModuleType) and callable(run.main)
