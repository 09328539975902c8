"""Differential oracle for the cluster data plane.

Runs a fixed set of repair scenarios ("cells") through the public
``repro`` API and records what the data plane decided in each: every
``RepairOutcome`` field, a digest of the rebuilt bytes, per-node wire
accounting, a digest of the sorted transfer spans and the integrity /
watchdog / byte counters.  Orchestrated cells add drain time and
per-record finish and read-latency times.

The committed output (``slice_oracle.json`` beside this file) was
produced by the per-slice executor the segment executor replaced;
``tests/cluster/test_slice_oracle.py`` replays every cell on the
current code and demands the same record.  Because the generator only
touches the public API it runs unchanged against any checkout::

    PYTHONPATH=<checkout>/src python tests/cluster/oracle/gen_slice_oracle.py \
        --out slice_oracle.json

``--only PREFIX`` restricts the run to cells whose name starts with
``PREFIX`` (printing the records instead of writing them when no
``--out`` is given).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from repro.cluster import ClusterSystem
from repro.core.plancache import PlanCache
from repro.ec import RSCode
from repro.faults import FAILED, Crash, FaultInjector, Stall, Straggler
from repro.net import BandwidthSnapshot
from repro.obs import DivergenceMonitor, MetricsRegistry, Tracer
from repro.recovery import RecoveryConfig, RecoveryOrchestrator, run_recovery_scenario
from repro.workloads import make_trace

FIXTURE = Path(__file__).with_name("slice_oracle.json")

#: floats must agree this closely (relative); bit-identical is expected
REL_TOL = 1e-9

COUNTERS = (
    "repro_integrity_retransmits_total",
    "repro_watchdog_fires_total",
    "repro_node_bytes_sent_total",
)


# ---- what a cell records ---------------------------------------------- #


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:24]


def outcome_record(out) -> dict:
    return {
        "status": out.status,
        "attempts": out.attempts,
        "retries": out.retries,
        "replans": out.replans,
        "bytes_received": out.bytes_received,
        "bytes_retransferred": out.bytes_retransferred,
        "elapsed_seconds": out.elapsed_seconds,
        "verified": bool(out.verified),
        "failure_reason": out.failure_reason,
        "corruption_detected": bool(out.corruption_detected),
        "quarantined_chunks": list(out.quarantined_chunks),
        "rebuilt_sha": None if out.rebuilt is None else _sha(out.rebuilt.tobytes()),
        "plan_sha": None if out.plan is None else _sha(out.plan.pipelines),
    }


def span_digest(tracer) -> dict:
    """Count and digest of every transfer span, order-independent."""
    by_id = {s.span_id: s for s in tracer.spans()}
    rows = []
    for s in by_id.values():
        if s.kind != "transfer":
            continue
        a = s.attrs
        parent = by_id.get(s.parent_id)
        rows.append((
            a["src"], a["dst"], a["lo"], a["hi"], repr(s.start), repr(s.end),
            a["wire"], a["pipeline"], a["node"], a["direction"],
            None if parent is None else parent.name,
        ))
    rows.sort()
    return {"count": len(rows), "sha": _sha(rows)}


def system_record(system, tracer, metrics) -> dict:
    return {
        "nodes": [
            [n.bytes_sent, n.uplink_busy_s, n.downlink_busy_s]
            for n in system.nodes
        ],
        "traffic_bytes": system.traffic_bytes,
        "spans": span_digest(tracer),
        "counters": {name: metrics.total(name) for name in COUNTERS},
        "now": system.events.now,
    }


def obs():
    return Tracer(), MetricsRegistry()


# ---- tests/cluster/test_faults.py ------------------------------------- #

FAULT_REQUESTER, FAULT_FAILED, FAULT_CHUNK = 12, 3, 64 * 1024


def _fault_snapshot():
    return make_trace("tpcds", num_nodes=14, num_snapshots=60, seed=4).snapshot(30)


def _fault_system(algorithm="fullrepair", num_nodes=14):
    tracer, metrics = obs()
    sys_ = ClusterSystem(num_nodes, RSCode(9, 6), algorithm=algorithm,
                         slice_bytes=4096, tracer=tracer, metrics=metrics)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 256, (6, FAULT_CHUNK), dtype=np.uint8)
    sys_.write_stripe("s1", data, placement=tuple(range(9)))
    sys_.set_bandwidth(_fault_snapshot())
    sys_.fail_node(FAULT_FAILED)
    return sys_, tracer, metrics


def _fault_clean():
    sys_, _, _ = _fault_system()
    out = sys_.repair("s1", FAULT_FAILED, requester=FAULT_REQUESTER, store=False)
    hubs, leaves = set(), set()
    for p in out.plan.pipelines:
        parents = {e.parent for e in p.edges}
        for e in p.edges:
            if e.parent == FAULT_REQUESTER and e.child in parents:
                hubs.add(e.child)
        for e in p.edges:
            if e.child not in parents:
                leaves.add(e.child)
    return {"elapsed": out.elapsed_seconds, "hub": min(hubs),
            "leaf": min(leaves - hubs)}


def _fault_cell(fault_of, algorithm="fullrepair", **repair_kw):
    sys_, tracer, metrics = _fault_system(algorithm)
    inj = fault_of(sys_)
    if inj is not None:
        repair_kw["injector"] = inj
    out = sys_.repair("s1", FAULT_FAILED, requester=FAULT_REQUESTER,
                      on_failure="outcome", **repair_kw)
    return {"outcome": outcome_record(out), **system_record(sys_, tracer, metrics)}


WHEN = {"before-first-byte": 1e-6, "mid-segment": 0.5, "last-segment": 0.95}


def _at(clean, when):
    t = WHEN[when]
    return t if t < 1e-3 else t * clean["elapsed"]


def fault_cells():
    clean = {}

    def ref():
        if not clean:
            clean.update(_fault_clean())
        return clean

    cells = {}
    cells["faults/clean"] = lambda: _fault_cell(lambda s: None, store=False)
    for role in ("hub", "leaf"):
        for when in WHEN:
            cells[f"faults/crash-{role}-{when}"] = (
                lambda role=role, when=when: _fault_cell(
                    lambda s: FaultInjector(
                        [Crash(node=ref()[role], time=_at(ref(), when))]
                    ),
                    store=False,
                )
            )
    for when in WHEN:
        cells[f"faults/stall-requester-{when}"] = (
            lambda when=when: _fault_cell(
                lambda s: FaultInjector([Stall(
                    node=FAULT_REQUESTER, time=_at(ref(), when), duration_s=0.04
                )]),
                store=False,
            )
        )
    for role in ("hub", "leaf"):
        for when in ("mid-segment", "last-segment"):
            cells[f"faults/stall-{role}-{when}"] = (
                lambda role=role, when=when: _fault_cell(
                    lambda s: FaultInjector([Stall(
                        node=ref()[role], time=_at(ref(), when), duration_s=0.01
                    )]),
                    store=False,
                )
            )
            cells[f"faults/straggler-{role}-{when}"] = (
                lambda role=role, when=when: _fault_cell(
                    lambda s: FaultInjector([Straggler(
                        node=ref()[role], time=_at(ref(), when),
                        rate_cap_mbps=40.0,
                    )]),
                    store=False,
                )
            )
    cells["faults/crash-hub-replan"] = lambda: _fault_cell(
        lambda s: None, store=False,
        inject_failure=(ref()["hub"], 0.5 * ref()["elapsed"]),
    )
    cells["faults/crash-hub-single-attempt"] = lambda: _fault_cell(
        lambda s: None, store=False, max_attempts=1,
        inject_failure=(ref()["hub"], 0.5 * ref()["elapsed"]),
    )
    cells["faults/escalate-conventional"] = lambda: _escalate_conventional()
    for role in ("hub", "helper", "requester"):
        cells[f"faults/escalated-crash-{role}"] = (
            lambda role=role: _escalated_crash(role)
        )
    return cells


ESCALATE_AT = 1e-4


def _bystander(sys_):
    probe = sys_.master.schedule_repair("s1", FAULT_FAILED, requester=FAULT_REQUESTER)
    participants = {e.child for p in probe.pipelines for e in p.edges}
    return next(
        n for n in sys_.master.stripe("s1").placement
        if n != FAULT_FAILED and n not in participants
    )


def _on_escalated_dispatch(system, action):
    fired = []
    for node in system.nodes:
        def assign(task, inner=node.assign):
            if not fired and system.events.now > ESCALATE_AT:
                fired.append(system.events.now)
                action()
            inner(task)

        node.assign = assign
    return fired


def _escalate_conventional():
    sys_, tracer, metrics = _fault_system("conventional")
    out = sys_.repair("s1", FAULT_FAILED, requester=FAULT_REQUESTER,
                      inject_failure=(_bystander(sys_), 1e-4))
    return {"outcome": outcome_record(out), **system_record(sys_, tracer, metrics)}


_ESCALATED: dict = {}


def _escalated_ref():
    if not _ESCALATED:
        sys_, _, _ = _fault_system("rp")
        bystander = _bystander(sys_)
        dispatched = _on_escalated_dispatch(sys_, lambda: None)
        out = sys_.repair("s1", FAULT_FAILED, requester=FAULT_REQUESTER,
                          inject_failure=(bystander, ESCALATE_AT))
        edges = [e for p in out.plan.pipelines for e in p.edges]
        parents = {e.parent for e in edges}
        _ESCALATED.update(
            bystander=bystander,
            hub=min(e.child for e in edges if e.child in parents),
            helper=min(e.child for e in edges if e.child not in parents),
            requester=sys_.master.stripe("s1").node_of(bystander),
            delay=0.5 * (out.elapsed_seconds - dispatched[0]),
        )
    return _ESCALATED


def _escalated_crash(role):
    ref = _escalated_ref()
    victim = ref[role]
    sys_, tracer, metrics = _fault_system("rp")
    _on_escalated_dispatch(sys_, lambda: sys_.events.schedule(
        ref["delay"], lambda: sys_.fail_node(victim)
    ))
    out = sys_.repair("s1", FAULT_FAILED, requester=FAULT_REQUESTER,
                      on_failure="outcome",
                      inject_failure=(ref["bystander"], ESCALATE_AT))
    return {"outcome": outcome_record(out), **system_record(sys_, tracer, metrics)}


# ---- tests/integrity/test_matrix.py ----------------------------------- #

INT_REQUESTER, INT_MID_T = 9, 0.0005


def _integrity_system(seed=3):
    tracer, metrics = obs()
    sys_ = ClusterSystem(14, RSCode(9, 6), slice_bytes=4096,
                         tracer=tracer, metrics=metrics)
    rng = np.random.default_rng(seed)
    sys_.set_bandwidth(BandwidthSnapshot(
        uplink=rng.uniform(300.0, 1000.0, 14),
        downlink=rng.uniform(300.0, 1000.0, 14),
    ))
    data = rng.integers(0, 256, (6, 16 * 1024), dtype=np.uint8)
    loc = sys_.write_stripe("s0", data, placement=tuple(range(9)))
    return sys_, loc, tracer, metrics


def _inject(sys_, fault, node):
    if fault == "bitrot":
        sys_.corrupt_chunk(node, flips=8, seed=5)
    elif fault == "torn":
        sys_.arm_torn_write(node, tail_fraction=0.3, seed=5)
    else:
        sys_.corrupt_wire(node, duration_s=0.002, seed=5)


def _integrity_cell(fault, role, timing):
    sys_, loc, tracer, metrics = _integrity_system()
    victim = loc.placement[0]
    sys_.fail_node(victim)
    plan = sys_.master.schedule_repair("s0", victim, INT_REQUESTER)
    edges = plan.pipelines[0].edges
    hub = next(e.child for e in edges if e.parent == INT_REQUESTER)
    leaf = next(e.child for e in edges if e.parent == hub and e.child != hub)
    node = {"hub": hub, "helper": leaf, "requester": INT_REQUESTER}[role]
    if timing == "before":
        _inject(sys_, fault, node)
    else:
        sys_.events.schedule_at(INT_MID_T, lambda: _inject(sys_, fault, node))
    out = sys_.repair("s0", victim, INT_REQUESTER, on_failure="outcome")
    return {"outcome": outcome_record(out), **system_record(sys_, tracer, metrics)}


def integrity_cells():
    return {
        f"integrity/{fault}-{role}-{timing}": (
            lambda f=fault, r=role, t=timing: _integrity_cell(f, r, t)
        )
        for fault in ("bitrot", "torn", "wire")
        for role in ("hub", "helper", "requester")
        for timing in ("before", "mid")
    }


# ---- tests/cluster/test_multi_failure.py::TestMultiSelfHeal ------------ #


def _multi_system():
    tracer, metrics = obs()
    sys_ = ClusterSystem(14, RSCode(9, 6), slice_bytes=4096,
                         tracer=tracer, metrics=metrics)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 256, (6, 24 * 1024), dtype=np.uint8)
    sys_.write_stripe("s1", data, placement=tuple(range(9)))
    sys_.set_bandwidth(_fault_snapshot())
    sys_.fail_node(1)
    sys_.fail_node(4)
    return sys_, tracer, metrics


def _multi_record(sys_, tracer, metrics, outs):
    return {
        "outcomes": {str(f): outcome_record(o) for f, o in sorted(outs.items())},
        **system_record(sys_, tracer, metrics),
    }


def _multi_crash_at():
    sys_, _, _ = _multi_system()
    clean = sys_.repair_multi("s1", (1, 4), {1: 10, 4: 11})
    return 0.5 * max(o.elapsed_seconds for o in clean.values())


def _multi_sync():
    crash_at = _multi_crash_at()
    sys_, tracer, metrics = _multi_system()
    sys_.events.schedule(crash_at, lambda: sys_.fail_node(0))
    outs = sys_.repair_multi("s1", (1, 4), {1: 10, 4: 11})
    return _multi_record(sys_, tracer, metrics, outs)


def _multi_async():
    crash_at = _multi_crash_at()
    sys_, tracer, metrics = _multi_system()
    sys_.events.schedule(crash_at, lambda: sys_.fail_node(0))
    settled = []
    sys_.repair_multi_async(
        "s1", (1, 4), {1: 10, 4: 11}, deadline_s=30.0,
        on_done=lambda outs: settled.append((sys_.events.now, outs)),
    )
    sys_.events.run()
    ((t, outs),) = settled
    return {"settled_at": t, **_multi_record(sys_, tracer, metrics, outs)}


def _multi_node_repair():
    sys_, tracer, metrics = _multi_system()
    outs = sys_.repair_node(4)
    return {
        "outcomes": {sid: outcome_record(o) for sid, o in sorted(outs.items())},
        **system_record(sys_, tracer, metrics),
    }


def multi_cells():
    return {
        "multi/sync-helper-crash": _multi_sync,
        "multi/async-helper-crash": _multi_async,
        "multi/node-repair-escalates": _multi_node_repair,
    }


# ---- tests/cluster/test_detect_watchdog.py::TestEarlyAbort ------------- #

DET_N, DET_K, DET_NODES = 14, 10, 16
DET_FAILED, DET_REQUESTER = 3, DET_NODES - 1


def _detect_system(monitor=None, tracer=None, metrics=None):
    snapshot = make_trace(
        "tpcds", num_nodes=DET_NODES, num_snapshots=60, seed=4
    ).snapshot(30)
    system = ClusterSystem(DET_NODES, RSCode(DET_N, DET_K), slice_bytes=4096,
                           tracer=tracer, metrics=metrics)
    system.master.plan_cache = PlanCache(max_entries=32)
    rng = np.random.default_rng(2023)
    data = rng.integers(0, 256, (DET_K, 64 * 1024), dtype=np.uint8)
    system.write_stripe("s1", data, placement=tuple(range(DET_N)))
    system.set_bandwidth(snapshot)
    system.fail_node(DET_FAILED)
    system.divergence = monitor
    if monitor is not None:
        monitor.clock = lambda: system.events.now
    system.enable_heartbeats(period_s=0.005)
    return system


def _detect_cell(arm):
    clean = _detect_system().repair("s1", DET_FAILED, requester=DET_REQUESTER,
                                    store=False)
    hub = None
    for p in clean.plan.pipelines:
        parents = {e.parent for e in p.edges}
        for e in p.edges:
            if hub is None and e.parent == DET_REQUESTER and e.child in parents:
                hub = e.child
    if hub is None:
        hub = clean.plan.pipelines[0].edges[0].child
    tracer, metrics = obs()
    monitor = (
        DivergenceMonitor.standard(tracer=tracer, metrics=metrics)
        if arm == "detector" else None
    )
    system = _detect_system(monitor, tracer=tracer, metrics=metrics)
    system.events.schedule(0.5 * clean.elapsed_seconds,
                           lambda: system.fail_node(hub))
    out = system.repair("s1", DET_FAILED, requester=DET_REQUESTER, store=False,
                        on_failure="outcome")
    names = sorted(e.name for e in tracer.all_events())
    return {
        "outcome": outcome_record(out),
        "events": _sha(names),
        "early_aborts": metrics.total("repro_detect_early_aborts_total"),
        **system_record(system, tracer, metrics),
    }


def detect_cells():
    return {f"detect/hub-crash-{arm}": (lambda a=arm: _detect_cell(a))
            for arm in ("baseline", "detector")}


# ---- tests/cluster/test_chaos.py -------------------------------------- #

CHAOS_NODES, CHAOS_REQUESTER, CHAOS_FAILED = 18, 16, 3


def _chaos_cell(seed, corruption):
    tracer, metrics = obs()
    sys_ = ClusterSystem(CHAOS_NODES, RSCode(14, 10), algorithm="fullrepair",
                         slice_bytes=4096, tracer=tracer, metrics=metrics)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (10, 16 * 1024), dtype=np.uint8)
    sys_.write_stripe("s1", data, placement=tuple(range(14)))
    sys_.set_bandwidth(BandwidthSnapshot(
        uplink=rng.uniform(200.0, 1000.0, CHAOS_NODES),
        downlink=rng.uniform(200.0, 1000.0, CHAOS_NODES),
    ))
    sys_.fail_node(CHAOS_FAILED)
    injector = FaultInjector.random_schedule(
        seed, nodes=range(CHAOS_NODES), horizon_s=0.05,
        max_faults=4 if corruption else 3, max_crashes=2,
        protected=(CHAOS_REQUESTER,), corruption=corruption,
    )
    sys_.enable_heartbeats(period_s=0.01)
    out = sys_.repair("s1", CHAOS_FAILED, requester=CHAOS_REQUESTER,
                      injector=injector, on_failure="outcome", store=False)
    return {"outcome": outcome_record(out), **system_record(sys_, tracer, metrics)}


def chaos_cells():
    cells = {}
    for seed in range(200):
        cells[f"chaos/faults-{seed:03d}"] = lambda s=seed: _chaos_cell(s, False)
    for seed in range(200):
        cells[f"chaos/corruption-{seed:03d}"] = lambda s=seed: _chaos_cell(s, True)
    return cells


def _orch_record(system, orch, tracer, metrics, reads=()):
    return {
        "drained_at": orch.drained_at,
        "records": [
            [r.stripe_id, r.status, r.priority_class, bool(r.verified),
             r.admitted_at, r.finished_at, r.failure_reason]
            for r in orch.records
        ],
        "dead_letters": sorted(orch.dead_letters.items()),
        "reads": [[r.stripe_id, r.chunk_index, bool(r.ok), r.latency_s]
                  for r in reads],
        **system_record(system, tracer, metrics),
    }


def _orchestrated_cell(seed):
    rng = np.random.default_rng(seed + 10_000)
    tracer, metrics = obs()
    sys_ = ClusterSystem(12, RSCode(6, 4), slice_bytes=4096,
                         tracer=tracer, metrics=metrics)
    sys_.set_bandwidth(BandwidthSnapshot(
        uplink=rng.uniform(200.0, 1000.0, 12),
        downlink=rng.uniform(200.0, 1000.0, 12),
    ))
    for s in range(8):
        data = rng.integers(0, 256, (4, 16 * 1024), dtype=np.uint8)
        sys_.write_stripe(
            f"s{s}", data,
            placement=tuple(int(x) for x in rng.choice(12, 6, replace=False)),
        )
    orch = RecoveryOrchestrator(sys_, RecoveryConfig(
        budget_fraction=0.5, max_concurrent=2, tick_s=0.005,
        multi_deadline_s=0.05, max_item_attempts=3,
    ))
    orch.start()
    victims = [int(v) for v in rng.choice(12, size=3, replace=False)]
    times = sorted(0.001 + rng.uniform(0.0, 0.04, 3))
    for victim, t in zip(victims, times):
        sys_.events.schedule_at(t, lambda v=victim: sys_.fail_node(v))
    sys_.events.run()
    return _orch_record(sys_, orch, tracer, metrics)


def orchestrated_cells():
    return {f"orchestrated/chaos-{seed:02d}": (lambda s=seed: _orchestrated_cell(s))
            for seed in range(25)}


# ---- the benchmark's recover-fine / recover-coarse scenarios ----------- #

RECOVER_PARAMS = {
    "recover-fine": dict(
        num_nodes=12, n=6, k=4, num_stripes=12, chunk_bytes=64 * 1024,
        slice_bytes=4 * 1024, kills=((0, 0.001),), foreground_reads=50,
    ),
    "recover-coarse": dict(
        num_nodes=16, n=14, k=10, num_stripes=4, chunk_bytes=1 << 20,
        slice_bytes=256 * 1024, kills=((13, 0.001),), foreground_reads=16,
    ),
}


def _recover_cell(name, seed):
    sc = run_recovery_scenario(seed=seed, until=0.0, **RECOVER_PARAMS[name])
    sc.system.events.run()
    if sc.slo is not None:
        sc.slo.evaluate(sc.system.events.now)
    orch = sc.orchestrator
    done = [r for r in orch.records if r.status != FAILED]
    rec = _orch_record(sc.system, orch, sc.tracer, sc.metrics, sc.foreground.reads)
    rec["repair_sim_s"] = [r.finished_at - r.enqueued_at for r in done]
    rec["requeue_reasons"] = sorted(
        r.failure_reason or "" for r in orch.records if r.status == FAILED
    )
    return rec


def recover_cells():
    return {f"{name}/seed-{seed:02d}": (lambda n=name, s=seed: _recover_cell(n, s))
            for name in RECOVER_PARAMS for seed in range(1, 13)}


# ---- registry, comparison and CLI ------------------------------------- #


def all_cells() -> dict:
    cells = {}
    for group in (fault_cells, integrity_cells, multi_cells, detect_cells,
                  chaos_cells, orchestrated_cells, recover_cells):
        cells.update(group())
    return cells


def normalise(value):
    """JSON round-trip form (tuples become lists, keys strings)."""
    return json.loads(json.dumps(value))


def differences(expected, actual, path="") -> list[str]:
    """Where ``actual`` departs from ``expected``: exact for everything
    but floats, which must agree within ``REL_TOL`` (relative)."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
            if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=1e-15):
                return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}/{key}: only on one side")
            else:
                out += differences(expected[key], actual[key], f"{path}/{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += differences(e, a, f"{path}[{i}]")
        return out
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--only", default="")
    args = parser.parse_args(argv)
    cells = {k: v for k, v in all_cells().items() if k.startswith(args.only)}
    records = {}
    for name, cell in cells.items():
        records[name] = normalise(cell())
        print(name, file=sys.stderr)
    if args.out is None:
        json.dump(records, sys.stdout, indent=1, sort_keys=True)
        return 0
    lines = [f"{json.dumps(k)}: {json.dumps(records[k], sort_keys=True)}"
             for k in sorted(records)]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
