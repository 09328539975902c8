"""Metric catalogue and the arithmetic that turns iterations into metrics.

Three families:

* ``END_TO_END`` — what every run reports with tracing off, on every
  workload, and what ``BENCHMARK.json`` bounds;
* ``DETAIL`` — the workload-specific user-facing metrics (only the
  workloads a metric applies to report it); they go to the result
  record and the printed report, and ``compare.py`` compares them;
* ``PER_LAYER`` — what a traced run reports, one row per layer metric.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass

import numpy as np

import hostspeed
from layers import LAYERS

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

RECOVER = ("recover-fine", "recover-coarse")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    meaning: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, meaning=(
        "median seconds to set up one iteration (build the cluster and "
        "write/encode/digest every stripe; build the fleet; generate traces "
        "and sample contexts), each scaled to the reference host speed")),
    Metric("work_per_s", "1/s", "higher", 0.25, meaning=(
        "median over iterations of the work per second of the run phase, "
        "each scaled to the reference host speed: rebuilt MiB (recover-*), "
        "simulated stripe-years (lifetime), plan+execute pairs (plan-sweep)")),
    Metric("peak_rss_mib", "MiB", "lower", 0.1, meaning=(
        "peak resident memory of the process, which runs one workload")),
)

DETAIL = (
    Metric("host_setup_s", "s", "lower",
           meaning="setup_s in host seconds, not scaled"),
    Metric("host_kernel_ms", "ms", "lower", meaning=(
        "median time of the reference kernel timed between iterations; "
        "hostspeed.speed turns it into the scale factor of the END_TO_END "
        "timings")),
    Metric("rebuilt_mib_per_s", "MiB/s", "higher", meaning=(
        "recover-*: MiB rebuilt (orchestrated repairs + successful degraded "
        "reads) per host second of the run phase, median over iterations, "
        "not scaled")),
    Metric("stripe_years_per_s", "1/s", "higher",
           meaning="lifetime: simulated stripe-years per host second, not scaled"),
    Metric("plans_per_s", "1/s", "higher", meaning=(
        "plan-sweep: (context, algorithm) plan + execute per host second, "
        "not scaled")),
    Metric("plan_p50_us", "us", "lower",
           meaning="plan-sweep: median host latency of one FullRepair plan"),
    Metric("plan_p99_us", "us", "lower",
           meaning="plan-sweep: 99th-percentile host latency of one FullRepair plan"),
    Metric("failed_share", "ratio", "lower", meaning=(
        "failed reads + dead-lettered repairs (lifetime: dead letters; "
        "plan-sweep: invalid plans) / operations attempted")),
    Metric("drain_sim_s", "s", "lower",
           meaning="recover-*: mean simulated time until the repair backlog drains"),
    Metric("fg_read_p50_sim_ms", "ms", "lower", meaning=(
        "recover-*: median simulated latency of successful foreground reads, "
        "issued open-loop one per 2 ms")),
    Metric("fg_read_p95_sim_ms", "ms", "lower",
           meaning="recover-*: 95th-percentile simulated foreground read latency"),
    Metric("sim_repair_s", "s", "lower",
           meaning="plan-sweep: mean simulated FullRepair repair time of a 64 MiB chunk"),
    Metric("stripes_lost", "count", "lower",
           meaning="lifetime: stripes destroyed over the horizon, mean per campaign"),
)


def _layer_metrics() -> tuple[Metric, ...]:
    rows = []
    for layer in LAYERS:
        rows.append(Metric(f"{layer}.calls", "count", "lower"))
        rows.append(Metric(f"{layer}.self_s", "s", "lower"))
    extras = (
        ("other.self_s", "s", "traced wall outside every layer span"),
        ("tracing.self_s", "s", "wrapper cost moved out of the layers"),
        ("tracing.wall_s", "s", "traced wall of the set-up and run phases"),
        ("tracing.overhead_s", "s", "traced wall minus untraced wall"),
        ("core.throughput_self_s", "s", "Algorithm 1 (core.throughput)"),
        ("core.scheduling_self_s", "s", "Algorithm 2 / TASKASSIGN (core.scheduling)"),
        ("repair.baselines_self_s", "s", "baseline planners (rp, pivot, ppt, ...)"),
        ("repair.validate_self_s", "s", "plan validation"),
        ("sim.events.executed", "count", "events run"),
        ("sim.events.peak_pending", "count", "largest pending-event count"),
        ("sim.events.per_rebuilt_mib", "1/MiB", "events per rebuilt MiB"),
        ("cluster.datanode.slices", "count", "slice deliveries run as events"),
        ("obs.spans", "count", "tracer spans started or recorded"),
        ("obs.spans_per_slice", "ratio", "obs.spans / slice deliveries"),
        ("integrity.bytes", "bytes", "bytes digested or checksummed"),
        ("integrity.bytes_per_rebuilt_byte", "ratio", "integrity bytes / rebuilt bytes"),
        ("integrity.slice_checksums", "count", "wire slice checksums"),
        ("ec.bytes", "bytes", "bytes handed to the EC layer"),
        ("ec.encode_self_s", "s", "EC time below encode calls"),
        ("ec.combine_self_s", "s", "EC time below GF combine calls"),
        ("cluster.master.plans", "count", "plans the master computed"),
        ("cluster.system.attempts", "count", "repair attempts"),
        ("cluster.system.replans", "count", "re-plans after the first plan"),
        ("cluster.system.failed", "count", "repairs ending failed"),
        ("cluster.system.wire_bytes_per_rebuilt_byte", "ratio",
         "payload bytes sent / rebuilt bytes"),
        ("recovery.ticks", "count", "orchestrator control ticks"),
        ("recovery.dispatched", "count", "stripe repairs dispatched"),
        ("recovery.requeues", "count", "failed repairs requeued"),
        ("recovery.dead_letters", "count", "stripes dead-lettered"),
        ("recovery.queue_wait_sim_s", "s", "mean simulated enqueue-to-admit wait"),
        ("lifetime.stripe_years", "count", "simulated stripe-years"),
        ("lifetime.losses", "count", "loss events"),
        ("lifetime.stripes_lost", "count", "stripes destroyed"),
        ("lifetime.repairs", "count", "repairs dispatched"),
    )
    rows += [Metric(n, u, "lower", meaning=m) for n, u, m in extras]
    return tuple(rows)


PER_LAYER = _layer_metrics()


# ---- arithmetic ------------------------------------------------------------ #


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pooled(iterations, key) -> list[float]:
    return [x for it in iterations for x in it.sim[key]]


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(iterations, peak_rss_mib: float) -> dict[str, float]:
    """The END_TO_END values of one run.  Each iteration's host timings
    are scaled by the host speed the reference kernel measured around it."""
    setups, rates = [], []
    for it in iterations:
        speed = hostspeed.speed(statistics.fmean(it.kernel_s))
        setups += [s * speed for s in it.setup_s]
        rates.append(it.work / it.run_s / speed)
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": statistics.median(rates),
        "peak_rss_mib": peak_rss_mib,
    }


def detail(name: str, iterations) -> dict[str, float]:
    """The DETAIL values that apply to workload ``name``."""
    attempted = sum(it.attempted for it in iterations)
    rate = statistics.median(it.work / it.run_s for it in iterations)
    out = {
        "host_setup_s": statistics.median(s for it in iterations for s in it.setup_s),
        "host_kernel_ms": statistics.median(k for it in iterations for k in it.kernel_s) * 1e3,
        "failed_share": sum(it.failed for it in iterations) / max(attempted, 1),
    }
    if name in RECOVER:
        lat = _pooled(iterations, "read_latency_sim_s")
        out["rebuilt_mib_per_s"] = rate
        out["drain_sim_s"] = _mean([it.sim["drain_sim_s"] or 0.0 for it in iterations])
        out["fg_read_p50_sim_ms"] = _pct(lat, 50) * 1e3
        out["fg_read_p95_sim_ms"] = _pct(lat, 95) * 1e3
    elif name == "lifetime":
        out["stripe_years_per_s"] = rate
        out["stripes_lost"] = _mean([it.sim["stripes_lost"] for it in iterations])
    elif name == "plan-sweep":
        ns = [x for it in iterations for x in it.host["plan_ns"]]
        out["plans_per_s"] = rate
        out["plan_p50_us"] = _pct(ns, 50) / 1e3
        out["plan_p99_us"] = _pct(ns, 99) / 1e3
        out["sim_repair_s"] = _mean(_pooled(iterations, "fullrepair_sim_s"))
    return out


def per_layer(tracer, iterations, traced_wall: float, untraced_wall: float) -> dict:
    """The PER_LAYER values of a traced run over ``iterations``."""
    from repro.faults import FAILED

    overhead = traced_wall - untraced_wall
    tracer.rescale(overhead)
    split = tracer.split(traced_wall)
    totals = tracer.layer_totals()
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = totals[layer][0]
        out[f"{layer}.self_s"] = split[layer]
    out["other.self_s"] = split["other"]
    out["tracing.self_s"] = split["tracing"]
    out["tracing.wall_s"] = traced_wall
    out["tracing.overhead_s"] = overhead

    def key_has(*names):
        return lambda k: k.split(":", 1)[1] in names

    def module_is(*mods):
        return lambda k: k.split(":", 1)[0] in mods

    rebuilt = sum(it.rebuilt_bytes for it in iterations)
    rebuilt_mib = rebuilt / (1 << 20)
    queues = [o for o in tracer.instances if type(o).__name__ == "EventQueue"]
    orchs = [o for o in tracer.instances if hasattr(o, "dead_letters")]
    slices = sum(
        tracer.functions[k][0]
        for k in tracer.action_keys
        if tracer.layer_of_key[k] == "cluster.datanode"
    )
    spans = tracer.spans(key_has("Tracer.start_span", "Tracer.record_span"))
    integrity_bytes = tracer.layer_bytes.get("integrity", 0)
    executed = sum(q.executed for q in queues)
    records = [r for o in orchs for r in o.records]
    outcomes = tracer.outcomes
    wire = sum(it.wire_bytes for it in iterations)
    lifetime = [it.sim for it in iterations if "stripes_lost" in it.sim]

    def ratio(a, b):
        return a / b if b else 0.0

    out.update({
        "core.throughput_self_s": tracer.self_s(module_is("repro.core.throughput")),
        "core.scheduling_self_s": tracer.self_s(module_is("repro.core.scheduling")),
        "repair.baselines_self_s": tracer.self_s(module_is(
            "repro.repair.rp", "repro.repair.pivot", "repro.repair.ppt",
            "repro.repair.ppr", "repro.repair.conventional", "repro.repair.treeopt")),
        "repair.validate_self_s": tracer.self_s(
            lambda k: k.startswith("repro.repair.") and k.endswith(".validate")),
        "sim.events.executed": executed,
        "sim.events.peak_pending": max((q.peak_pending for q in queues), default=0),
        "sim.events.per_rebuilt_mib": ratio(executed, rebuilt_mib),
        "cluster.datanode.slices": slices,
        "obs.spans": spans,
        "obs.spans_per_slice": ratio(spans, slices),
        "integrity.bytes": integrity_bytes,
        "integrity.bytes_per_rebuilt_byte": ratio(integrity_bytes, rebuilt),
        "integrity.slice_checksums": tracer.spans(key_has("slice_checksum")),
        "ec.bytes": tracer.layer_bytes.get("ec", 0),
        "ec.encode_self_s": tracer.entry_self_s(
            lambda k: k.startswith("repro.ec.") and k.endswith("encode")),
        "ec.combine_self_s": tracer.entry_self_s(
            lambda k: k.startswith("repro.ec.")
            and k.rsplit(".", 1)[-1] in ("mul_chunk", "addmul_chunk", "dot", "evaluate")),
        "cluster.master.plans": tracer.spans(key_has("Master.plan_for_context")),
        "cluster.system.attempts": sum(o.attempts for o in outcomes),
        "cluster.system.replans": sum(o.replans for o in outcomes),
        "cluster.system.failed": sum(1 for o in outcomes if o.status == FAILED),
        "cluster.system.wire_bytes_per_rebuilt_byte": ratio(wire, rebuilt),
        "recovery.ticks": sum(len(o.timeline) for o in orchs),
        "recovery.dispatched": len(records),
        "recovery.requeues": sum(o.requeues for o in orchs),
        "recovery.dead_letters": sum(len(o.dead_letters) for o in orchs),
        "recovery.queue_wait_sim_s": _mean([r.admitted_at - r.enqueued_at for r in records]),
        "lifetime.stripe_years": sum(it.work for it in iterations) if lifetime else 0.0,
        "lifetime.losses": sum(s["losses"] for s in lifetime),
        "lifetime.stripes_lost": sum(s["stripes_lost"] for s in lifetime),
        "lifetime.repairs": sum(s["repairs"] for s in lifetime),
    })
    return out
