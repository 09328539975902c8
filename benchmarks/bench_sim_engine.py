"""Engine-scale benchmark: orchestrated recovery at million-slice scale.

The ROADMAP's fleet-lifetime campaigns need the simulator to sustain
millions of slice transfers per run, so this harness measures it the
way those campaigns will use it: a large orchestrated recovery (node
kills under foreground load, SLO-coupled throttle) driven entirely
through ``run_recovery_scenario`` with small slices, so per-slice work
— not erasure-coding arithmetic — dominates.  The data plane solves a
task's slice schedule at once (one event per pipeline, not per slice),
so the work is counted in *slice-hops* (slice copies put on the wire)
and the gate is wall time per repaired MiB; events/sec stays in the
report as an informational rate.

Three tiers of measurement land in ``BENCH_sim.json``:

* ``gate`` — a smoke-scale scenario timed with the profiler *disabled*
  (best of ``GATE_PASSES`` setup-subtracted passes, GC off).  The
  tier-1 test compares a fresh measurement against the committed
  number and fails when wall seconds per repaired MiB grow past the
  committed value / 0.8 (the >20% regression line, on time).  The
  section also carries the disabled-profiler overhead bound: the hooks
  are checked once per ``run()`` call (never per event), so the implied
  overhead — measured empty-``run()`` dispatch cost x run calls over the
  pass wall — must stay <=3%, same contract as ``BENCH_obs.json``.
* ``profiled`` — the same scenario with the :class:`EngineProfiler`
  and :class:`RunMonitor` attached: events/sec under profiling, the
  hot action sites, and the heartbeat/flamegraph artefacts
  (``benchmarks/out/sim_engine.speedscope.json`` etc.; a ``--smoke``
  run writes its own beside ``BENCH_sim.smoke.json`` instead).
* ``million_event`` (full runs only) — the ~1M-slice-hop campaign
  itself, ``MILLION_PASSES`` passes disabled and profiled (min /
  median / max wall), proving the scale target end to end.

``optimization`` records the profiler-driven fix this harness paid for
on its first outing (see ``OPTIMIZATION_RECORD``).

Run directly (``python -m benchmarks.bench_sim_engine``), or with
``--smoke`` for the fast schema/gate tier used by the tests.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import statistics
import sys
from pathlib import Path
from time import perf_counter

from benchmarks.common import OUT_DIR, REPO_ROOT, SEED, write_json_report

from repro.faults import FAILED
from repro.net import units
from repro.obs import collapsed_stacks, speedscope_json
from repro.recovery import run_recovery_scenario
from repro.sim.events import EventQueue

SCHEMA_VERSION = 1

#: Ceiling for the *disabled* profiler/monitor overhead (percent of the
#: gate pass wall), mirroring the ``BENCH_obs.json`` no-op contract.
MAX_DISABLED_OVERHEAD_PERCENT = 3.0

#: Disabled gate passes; the gate statistic is the *best* pass, which a
#: genuine code regression shifts down with the rest while transient
#: host noise (CI neighbours, thermal throttling) cannot inflate.
GATE_PASSES = 5

#: Passes per side of the million-slice-hop campaign.
MILLION_PASSES = 3

#: Smoke-scale scenario: ~19k slice-hops.  Both the committed artefact
#: and the tier-1 test measure THIS protocol, so the comparison is
#: like-for-like.
GATE_SCENARIO = dict(
    num_stripes=48,
    chunk_bytes=64 * units.KIB,
    slice_bytes=4 * units.KIB,
    foreground_reads=200,
    kills=((0, 0.001), (3, 0.004)),
    seed=SEED,
)

#: Full-scale campaign: ~1M slice-hops (calibrated at ~2.5k per
#: 128-slice stripe across the repair pipelines + foreground reads).
MILLION_SCENARIO = dict(
    num_stripes=420,
    chunk_bytes=128 * units.KIB,
    slice_bytes=1 * units.KIB,
    foreground_reads=400,
    kills=((0, 0.001), (3, 0.004)),
    seed=SEED,
)

#: The first profiler-driven engine optimization, measured on the gate
#: protocol (disabled median of 3 / profiled tick cost) before and
#: after the change on the same host.  The profiled gate run surfaced
#: ``RecoveryOrchestrator._tick`` as the dominant control-plane site at
#: 1.68 ms/call: every SLO evaluation re-merged the fleet rolling
#: window three times per rule (count + quantile + mean round-trips),
#: and ``_publish_gauges`` re-resolved five registry handles per tick.
#: Fix: revision-keyed merged-digest cache on ``RollingWindow``, a
#: single shared ``window_digest`` per SLO measurement, and cached
#: gauge handles.  ``after.tick_mean_us_this_run`` is re-measured live
#: by every full run so drift in the claim is visible in the diff.
OPTIMIZATION_RECORD = {
    "name": "slo-window-digest-cache",
    "surfaced_by": "profiled gate run: RecoveryOrchestrator._tick #2 site",
    "change": (
        "RollingWindow merged-digest cache (rev+epoch keyed) + "
        "SLOEngine._measure single window_digest + orchestrator gauge-"
        "handle caching"
    ),
    # measured pre-harness with GC left on, so before/after compare to
    # each other — not to gate.events_per_s, which disables GC
    "protocol": "gate scenario; disabled median of 3 (GC on), profiled tick cost",
    "before": {
        "disabled_events_per_s_median": 13013.0,
        "tick_mean_us": 1678.6,
        "tick_total_ms": 335.7,
        "tick_calls": 200,
    },
    "after": {
        "disabled_events_per_s_median": 13940.0,
        "tick_mean_us": 278.8,
        "tick_total_ms": 55.8,
        "tick_calls": 200,
    },
    "tick_speedup": 6.0,
}


#: The segment executor (one event per pipeline instead of per slice),
#: against the per-slice executor it replaced.  ``before`` was measured
#: on the parent commit with this harness's protocols on the same
#: 2-vCPU host and session as the committed ``after`` numbers: the gate
#: as a side-by-side median of 5 disabled passes, the layer splits by
#: :func:`layer_split`; the million run's wall is the committed
#: single-pass figure of the parent artefact.
SEGMENT_EXECUTOR_RECORD = {
    "name": "segment-executor",
    "change": (
        "DataNode solves each task's slice schedule once; the requester "
        "runs one event per pipeline; faults split and re-solve schedules"
    ),
    "before": {
        "gate": {
            "engine_wall_s_median": 2.356,
            "events": 23373,
            "layer_split": {
                "profiled_wall_s": 4.76,
                "self_s": {
                    "repro.obs": 0.998, "repro.cluster.datanode": 0.84,
                    "builtins": 0.829, "repro.cluster.system": 0.573,
                    "repro.ec": 0.369, "repro.sim.events": 0.346,
                    "repro.integrity": 0.289, "repro": 0.233,
                    "repro.cluster": 0.095, "repro.recovery": 0.073,
                    "other": 0.031,
                },
            },
        },
        "million": {
            "engine_wall_s_median": 99.837,
            "events": 1029613,
            "layer_split": {
                "profiled_wall_s": 252.54,
                "self_s": {
                    "repro.cluster.datanode": 54.67, "repro.obs": 53.861,
                    "builtins": 41.404, "repro.cluster.system": 34.893,
                    "repro.sim.events": 21.788, "repro.integrity": 21.115,
                    "repro.ec": 13.963, "repro.cluster": 3.357,
                    "repro": 1.524, "repro.recovery": 1.129, "other": 0.309,
                },
            },
        },
    },
}

#: Module prefixes a layer split charges self time to, most specific
#: first; C functions (CRC, numpy kernels, heapq) count as ``builtins``.
LAYERS = (
    "repro.cluster.datanode",
    "repro.cluster.system",
    "repro.cluster",
    "repro.sim.events",
    "repro.obs",
    "repro.integrity",
    "repro.ec",
    "repro.recovery",
    "repro",
)


def _layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" not in path:
        return "builtins" if filename[:1] in ("~", "<") else "other"
    module = "repro." + path.split("/repro/", 1)[1].rsplit(".py", 1)[0]
    module = module.replace("/", ".")
    return next(
        (name for name in LAYERS
         if module == name or module.startswith(name + ".")),
        "repro",
    )


def layer_split(cfg: dict) -> dict:
    """Self time per layer over one whole scenario pass (set-up
    included) under ``cProfile``: says *which layer* the wall goes to.
    Profiling inflates every call, so compare splits with splits."""
    profile = cProfile.Profile()
    t0 = perf_counter()
    profile.enable()
    run_recovery_scenario(**cfg)
    profile.disable()
    wall = perf_counter() - t0
    split: dict[str, float] = {}
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        layer = _layer_of(filename)
        split[layer] = split.get(layer, 0.0) + row[2]
    return {
        "profiled_wall_s": round(wall, 2),
        "self_s": {
            k: round(v, 3) for k, v in sorted(split.items(), key=lambda kv: -kv[1])
        },
    }


def _setup_wall(cfg: dict) -> tuple[int, float]:
    """(events, wall) of a run stopped almost immediately.

    ``run_recovery_scenario`` builds the cluster and writes every
    stripe (EC encodes, digests) before the engine runs; subtracting
    this setup-only pass isolates the engine's own events/sec.
    """
    t0 = perf_counter()
    scenario = run_recovery_scenario(**cfg, until=5e-4)
    return scenario.system.events.executed, perf_counter() - t0


def repaired_mib(scenario, chunk_bytes: int) -> float:
    """MiB the scenario rebuilt: every lost chunk of a finished repair
    plus every degraded foreground read (the benchmark's work unit)."""
    done = [r for r in scenario.orchestrator.records if r.status != FAILED]
    reads = [r for r in scenario.foreground.reads if r.ok and r.degraded]
    return (
        sum(r.priority_class for r in done) * chunk_bytes
        + sum(r.nbytes for r in reads)
    ) / units.MIB


def _spread(values: list[float]) -> dict:
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def _disabled_passes(cfg: dict, passes: int) -> dict:
    """Setup-subtracted disabled-engine passes (GC off while timed)."""
    null_events, null_wall = _setup_wall(cfg)
    rates, walls, per_mib, events = [], [], [], 0
    for _ in range(passes):
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            scenario = run_recovery_scenario(**cfg)
            wall = perf_counter() - t0
        finally:
            gc.enable()
        events = scenario.system.events.executed
        engine_wall = max(wall - null_wall, 1e-9)
        mib = repaired_mib(scenario, cfg["chunk_bytes"])
        walls.append(engine_wall)
        per_mib.append(engine_wall / mib if mib else float("inf"))
        rates.append((events - null_events) / engine_wall)
    report = scenario.report
    return {
        "events": events,
        "slice_hops": scenario.system.plane.slice_hops,
        "sim_seconds": scenario.system.events.now,
        "repaired": report.repaired,
        "repaired_mib": mib,
        "peak_pending": scenario.system.events.peak_pending,
        "setup_wall_s": null_wall,
        "engine_wall_s": statistics.median(walls),
        "passes_engine_wall_s": [round(w, 4) for w in walls],
        "engine_wall_spread_s": _spread(walls),
        "passes_wall_s_per_repaired_mib": per_mib,
        "wall_s_per_repaired_mib": min(per_mib),
        "wall_s_per_repaired_mib_median": statistics.median(per_mib),
        # informational: the data plane schedules one event per pipeline,
        # so this rate no longer measures the same work as slice-hops
        "passes_events_per_s": [round(r, 1) for r in rates],
        "events_per_s": round(max(rates), 1),
        "events_per_s_median": round(statistics.median(rates), 1),
    }


def _empty_run_dispatch_ns(iterations: int = 20_000) -> float:
    """Cost of one ``run()`` call on an empty queue.

    An upper bound on what the self-observability hooks add to a
    disabled run: the hook check, budget sampling and try/finally all
    live at ``run()`` entry/exit (the per-event compare existed before
    the hooks), so the whole empty-call cost bounds the added share.
    """
    q = EventQueue()
    run = q.run
    t0 = perf_counter()
    for _ in range(iterations):
        run()
    return (perf_counter() - t0) / iterations * 1e9


def _disabled_overhead(gate: dict) -> dict:
    dispatch_ns = _empty_run_dispatch_ns()
    # the scenario drives everything through one events.run() call
    run_calls = 1
    wall_ns = gate["engine_wall_s"] * 1e9
    implied = dispatch_ns * run_calls / wall_ns * 100.0
    return {
        "empty_run_dispatch_ns": round(dispatch_ns, 1),
        "run_calls_per_scenario": run_calls,
        "per_event_added_cost": "none (hooks checked once per run call)",
        "implied_overhead_percent": implied,
        "max_overhead_percent": MAX_DISABLED_OVERHEAD_PERCENT,
        "pass": implied <= MAX_DISABLED_OVERHEAD_PERCENT,
    }


def _profiled_pass(cfg: dict, *, heartbeat_s: float,
                   artefact_prefix: Path | None) -> dict:
    """One profiled+monitored pass; optionally writes the artefacts
    (``<artefact_prefix>.speedscope.json`` and siblings)."""
    scenario = run_recovery_scenario(
        **cfg, profile=True, heartbeat_s=heartbeat_s
    )
    profiler, monitor = scenario.profiler, scenario.monitor
    wall_s = profiler.run_wall_ns / 1e9
    out = {
        "events": profiler.events,
        "slice_hops": scenario.system.plane.slice_hops,
        "engine_wall_s": wall_s,
        "events_per_s": round(profiler.events / wall_s, 1) if wall_s else 0.0,
        "mean_batch_size": round(profiler.mean_batch_size, 2),
        "heartbeats": len(monitor.heartbeats),
        "hot_sites": [s.to_dict() for s in profiler.hot_sites(5)],
        "fanout": {
            hook: sum(hist.values())
            for hook, hist in sorted(profiler.fanout.items())
        },
    }
    if artefact_prefix is not None:
        artefact_prefix.parent.mkdir(exist_ok=True)
        name = artefact_prefix.name
        paths = [
            artefact_prefix.with_name(f"{name}.speedscope.json"),
            artefact_prefix.with_name(f"{name}.collapsed.txt"),
            artefact_prefix.with_name(f"{name}_heartbeats.jsonl"),
        ]
        paths[0].write_text(
            json.dumps(speedscope_json(profiler, name=name), sort_keys=True)
            + "\n"
        )
        paths[1].write_text(collapsed_stacks(profiler))
        paths[2].write_text(monitor.heartbeats_jsonl())
        out["artefacts"] = [
            str(p.relative_to(REPO_ROOT) if p.is_relative_to(REPO_ROOT) else p)
            for p in paths
        ]
    return out


def run(smoke: bool = False, out_path=None) -> dict:
    """Run the harness; returns (and writes) the report dict.

    The full run regenerates the committed profile artefacts in
    ``benchmarks/out``; a smoke run writes its own beside its report
    (``BENCH_sim.smoke.json`` by default), leaving the committed ones
    alone.
    """
    if smoke:
        out_path = Path(out_path or REPO_ROOT / "BENCH_sim.smoke.json")
        prefix = out_path.with_suffix("")
    else:
        prefix = OUT_DIR / "sim_engine"
    gate = _disabled_passes(GATE_SCENARIO, GATE_PASSES)
    gate["disabled_overhead"] = _disabled_overhead(gate)
    profiled = _profiled_pass(
        GATE_SCENARIO, heartbeat_s=0.2, artefact_prefix=prefix
    )
    profiled["vs_disabled"] = (
        round(profiled["events_per_s"] / gate["events_per_s_median"], 3)
        if gate["events_per_s_median"]
        else 0.0
    )

    optimization = json.loads(json.dumps(OPTIMIZATION_RECORD))
    tick = [
        s for s in profiled["hot_sites"]
        if s["site"].endswith("RecoveryOrchestrator._tick")
    ]
    if tick:
        optimization["after"]["tick_mean_us_this_run"] = round(
            tick[0]["mean_us"], 1
        )

    segment = json.loads(json.dumps(SEGMENT_EXECUTOR_RECORD))
    segment["after"] = {"gate": {
        "engine_wall_s_median": gate["engine_wall_s"],
        "events": gate["events"],
        "slice_hops": gate["slice_hops"],
    }}
    if not smoke:
        gate["layer_split"] = segment["after"]["gate"]["layer_split"] = (
            layer_split(GATE_SCENARIO)
        )

    report = {
        "benchmark": "sim",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "smoke": smoke,
            "seed": SEED,
            "gate_passes": GATE_PASSES,
            "gate_scenario": _jsonable_cfg(GATE_SCENARIO),
            "million_scenario": _jsonable_cfg(MILLION_SCENARIO),
        },
        "gate": gate,
        "profiled": profiled,
        "optimization": optimization,
        "segment_executor": segment,
    }

    if not smoke:
        disabled = _disabled_passes(MILLION_SCENARIO, passes=MILLION_PASSES)
        profiled_passes = [
            _profiled_pass(
                MILLION_SCENARIO, heartbeat_s=1.0,
                artefact_prefix=(
                    OUT_DIR / "sim_engine_million" if i == MILLION_PASSES - 1
                    else None
                ),
            )
            for i in range(MILLION_PASSES)
        ]
        big = profiled_passes[-1]
        walls = [p["engine_wall_s"] for p in profiled_passes]
        big["passes_engine_wall_s"] = [round(w, 4) for w in walls]
        big["engine_wall_spread_s"] = _spread(walls)
        big["vs_disabled"] = (
            round(disabled["engine_wall_s"] / statistics.median(walls), 3)
            if walls
            else 0.0
        )
        disabled["layer_split"] = layer_split(MILLION_SCENARIO)
        report["million_event"] = {"disabled": disabled, "profiled": big}
        segment["after"]["million"] = {
            "engine_wall_s_median": disabled["engine_wall_s"],
            "engine_wall_spread_s": disabled["engine_wall_spread_s"],
            "events": disabled["events"],
            "slice_hops": disabled["slice_hops"],
            "layer_split": disabled["layer_split"],
        }

    path = write_json_report("sim", report, path=out_path)
    print(f"report written to {path}")
    return report


def _jsonable_cfg(cfg: dict) -> dict:
    return {
        k: list(map(list, v)) if isinstance(v, tuple) else v
        for k, v in cfg.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast schema/gate tier; writes BENCH_sim.smoke.json so the "
             "full-run artefact survives",
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    ok = report["gate"]["disabled_overhead"]["pass"]
    if not smoke_scale_sane(report):
        ok = False
    print(
        f"gate: {report['gate']['wall_s_per_repaired_mib']:.4f} s/MiB best "
        f"({report['gate']['slice_hops']} slice-hops, "
        f"{report['gate']['events']} events), "
        f"disabled overhead "
        f"{report['gate']['disabled_overhead']['implied_overhead_percent']:.2g}% "
        f"(ceiling {MAX_DISABLED_OVERHEAD_PERCENT:.0f}%) "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def smoke_scale_sane(report: dict) -> bool:
    """Loose structural sanity the harness itself asserts on every run."""
    gate = report["gate"]
    if gate["slice_hops"] < 10_000:
        return False
    if report["profiled"]["slice_hops"] < 10_000:
        return False
    million = report.get("million_event")
    if million is not None and million["disabled"]["slice_hops"] < 900_000:
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
