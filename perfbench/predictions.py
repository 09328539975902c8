"""Write ``predictions.json``: which layer should move which metric where,
next to the per-layer split a traced run measured.

Usage, from the root of a checkout, after one traced run per workload::

    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1
    python3 perfbench/predictions.py perfbench/results/runs.jsonl

The last traced record of each workload in the file is used.  Shares are
layer self time over the traced wall minus the estimated wrapper cost
(``tracing.self_s``).  The predictions are written before measuring;
where a measurement contradicts one, the measurement is what the file
records next to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402

WORKLOADS = ("recover-fine", "recover-coarse", "lifetime", "plan-sweep")

#: Per-layer counts worth keeping next to the split.
COUNTS = (
    "sim.events.executed", "sim.events.per_rebuilt_mib", "cluster.datanode.slices",
    "obs.spans", "obs.spans_per_slice", "integrity.bytes_per_rebuilt_byte",
    "integrity.slice_checksums", "ec.bytes", "cluster.master.plans",
    "cluster.system.attempts", "cluster.system.replans", "cluster.system.failed",
    "cluster.system.wire_bytes_per_rebuilt_byte", "recovery.ticks",
    "recovery.dispatched", "recovery.requeues", "recovery.dead_letters",
    "lifetime.repairs",
)

#: (layer metrics, the self-time rows whose share is measured, metrics they
#: should move, workloads where they should, workloads where they should
#: move little or not at all)
PREDICTIONS = (
    (("core.throughput_self_s", "core.scheduling_self_s", "repair.baselines_self_s",
      "repair.validate_self_s"),
     ("core.self_s", "repair.self_s"),
     ("plan_p50_us", "plan_p99_us", "plans_per_s", "work_per_s"),
     ("plan-sweep",), ("recover-fine", "recover-coarse", "lifetime")),
    (("sim.transfer.self_s",),
     ("sim.transfer.self_s",),
     ("plans_per_s", "work_per_s"),
     ("plan-sweep",), ("recover-fine", "recover-coarse", "lifetime")),
    (("sim.events.self_s", "sim.events.executed", "sim.events.peak_pending",
      "sim.events.per_rebuilt_mib", "cluster.datanode.self_s", "cluster.datanode.slices",
      "obs.self_s", "obs.spans", "obs.spans_per_slice", "integrity.slice_checksums"),
     ("sim.events.self_s", "cluster.datanode.self_s", "obs.self_s"),
     ("rebuilt_mib_per_s", "work_per_s", "peak_rss_mib (obs.spans)"),
     ("recover-fine",), ("recover-coarse",)),
    (("ec.self_s", "ec.bytes", "ec.encode_self_s", "ec.combine_self_s",
      "integrity.self_s", "integrity.bytes", "integrity.bytes_per_rebuilt_byte"),
     ("ec.self_s", "integrity.self_s"),
     ("rebuilt_mib_per_s", "work_per_s", "setup_s"),
     ("recover-coarse",), ("lifetime",)),
    (("cluster.master.plans", "cluster.system.attempts", "cluster.system.replans",
      "cluster.system.failed", "cluster.system.wire_bytes_per_rebuilt_byte"),
     ("cluster.master.self_s", "cluster.system.self_s"),
     ("failed_share", "drain_sim_s"),
     ("recover-fine", "recover-coarse"), ("lifetime", "plan-sweep")),
    (("recovery.self_s", "recovery.ticks", "recovery.dispatched", "recovery.requeues",
      "recovery.dead_letters", "recovery.queue_wait_sim_s", "lifetime.self_s"),
     ("recovery.self_s", "lifetime.self_s"),
     ("stripe_years_per_s", "work_per_s", "drain_sim_s (recover-*)"),
     ("lifetime", "recover-fine", "recover-coarse"), ("plan-sweep",)),
    (("workloads.self_s",),
     ("workloads.self_s",),
     ("setup_s",),
     ("recover-fine", "recover-coarse", "plan-sweep"), ("lifetime",)),
)


def _base(layers: dict) -> float:
    return layers["tracing.wall_s"] - layers["tracing.self_s"]


def share(layers: dict, *rows: str) -> float:
    return round(sum(layers[r] for r in rows) / _base(layers), 3)


def build(records: dict[str, dict]) -> dict:
    workloads = {}
    for name in WORKLOADS:
        r = records[name]
        layers = r["layers"]
        split = {
            x: share(layers, f"{x}.self_s")
            for x in (*LAYERS, "other")
            if share(layers, f"{x}.self_s") >= 0.001
        }
        untraced = layers["tracing.wall_s"] - layers["tracing.overhead_s"]
        workloads[name] = {
            "iterations": r["iterations"],
            "tracing_overhead_share": round(layers["tracing.overhead_s"] / untraced, 3),
            "split": dict(sorted(split.items(), key=lambda kv: -kv[1])),
            "counts": {c: round(layers[c], 3) for c in COUNTS if layers[c]},
        }
    predictions = [
        {
            "layer_metrics": list(metrics),
            "moves": list(moves),
            "on": list(on),
            "little_change_on": list(off),
            "measured_share": {w: share(records[w]["layers"], *rows) for w in WORKLOADS},
        }
        for metrics, rows, moves, on, off in PREDICTIONS
    ]
    fp = records[WORKLOADS[0]]["fingerprint"]
    return {
        "about": (
            "Which layer metric should move which end-to-end metric on which "
            "workload, next to the per-layer split a traced run measured. "
            "Shares are layer self time over the traced wall minus the "
            "estimated wrapper cost (tracing.self_s)."
        ),
        "measured_with": {
            "seconds": fp["seconds"],
            "seed": fp["seed"],
            "hardware": "2-vCPU x86 Linux VM",
            **{k: fp[k] for k in ("python", "numpy", "ec_backend", "source_sha", "bench_sha")},
        },
        "workloads": workloads,
        "predictions": predictions,
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit(__doc__)
    records = {}
    for line in Path(args[0]).read_text().splitlines():
        r = json.loads(line)
        if r["trace"] and r.get("layers"):
            records[r["workload"]] = r
    missing = [w for w in WORKLOADS if w not in records]
    if missing:
        raise SystemExit(f"predictions: no traced record for {missing}")
    (HERE / "predictions.json").write_text(json.dumps(build(records), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
