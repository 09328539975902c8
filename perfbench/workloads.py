"""The benchmark's four workloads: inputs, timed phases and output checks.

Each workload turns a seed into inputs, runs one *iteration* of work on
them and checks the outputs.  An iteration has a timed set-up phase, a
timed run phase and an untimed check phase; a run repeats iterations
with fresh seeds until its time is up.  Only the set-up and run phases
are traced when a :class:`~layers.LayerTracer` is passed in.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

# Program entry points are reached through their modules, so the layer
# tracer's patches (which replace module attributes) see these calls.
from repro import recovery, workloads as traces
from repro.analysis import experiments
from repro.core import constraints, throughput
from repro.ec import rs
from repro.faults import FAILED
from repro.lifetime import ExponentialProcess, LifetimeConfig, RepairModel, campaign
from repro.net import units
from repro.repair import base as planners
from repro.sim import transfer

MIB = float(units.MIB)


@dataclass
class Iteration:
    """One unit of work: its timings, outcome counts and checks."""

    seed: int
    setup_s: list[float]
    run_s: float
    #: work done, in the workload's unit (MiB, stripe-years, plans)
    work: float
    attempted: int
    failed: int
    failures: Counter
    #: simulated results; deterministic for a seed, traced or not
    sim: dict
    #: host-side samples (per-plan latencies), not part of ``sim``
    host: dict
    input_sha: str
    errors: list[str] = field(default_factory=list)
    #: bytes the simulated system rebuilt (for per-layer ratios)
    rebuilt_bytes: float = 0.0
    #: payload bytes the simulated nodes sent (for per-layer ratios)
    wire_bytes: int = 0
    #: reference-kernel seconds timed just before and just after
    kernel_s: tuple[float, float] = (0.0, 0.0)


class _Timed:
    """Times a phase and switches a tracer on for exactly that phase."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "_Timed":
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.active = False


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, (bytes, bytearray, memoryview)) else repr(p).encode())
    return h.hexdigest()


# ---- recover-fine / recover-coarse ----------------------------------------- #


@dataclass(frozen=True)
class RecoverWorkload:
    """An orchestrated recovery scenario under foreground reads."""

    name: str
    why: str
    params: dict
    smoke_params: dict
    #: host seconds of one untraced plus one traced iteration (2-vCPU x86 VM)
    traced_pair_s: float = 1.3

    def iteration(self, seed: int, *, smoke: bool = False, tracer=None) -> Iteration:
        p = self.smoke_params if smoke else self.params
        with _Timed(tracer) as setup:
            # run_recovery_scenario builds the cluster, writes and encodes
            # every stripe, and arms the orchestrator, the read stream and
            # the kills; until=0 stops it before the first simulated event.
            sc = recovery.run_recovery_scenario(seed=seed, until=0.0, **p)
        snap = sc.system.master.snapshot()
        input_sha = _sha(
            sorted(p.items()),
            seed,
            snap.uplink.tobytes(),
            snap.downlink.tobytes(),
            *(sc.payloads[s].tobytes() for s in sorted(sc.payloads)),
        )
        with _Timed(tracer) as run:
            sc.system.events.run()
            if sc.slo is not None:
                sc.slo.evaluate(sc.system.events.now)

        orch, fg, system = sc.orchestrator, sc.foreground, sc.system
        chunk = p["chunk_bytes"]
        done = [r for r in orch.records if r.status != FAILED]
        reads_ok = [r for r in fg.reads if r.ok]
        rebuilt = sum(r.priority_class for r in done) * chunk + sum(
            r.nbytes for r in reads_ok if r.degraded
        )
        failures = Counter(
            f"read: {r.failure_reason}" for r in fg.reads if not r.ok
        )
        failures.update(
            f"dead-letter: {reason}" for reason in orch.dead_letters.values()
        )
        it = Iteration(
            seed=seed,
            setup_s=[setup.seconds],
            run_s=run.seconds,
            work=rebuilt / MIB,
            attempted=len(fg.reads) + len(done) + len(orch.dead_letters),
            failed=sum(1 for r in fg.reads if not r.ok) + len(orch.dead_letters),
            failures=failures,
            sim={
                "drain_sim_s": orch.drained_at,
                "repair_sim_s": [r.finished_at - r.enqueued_at for r in done],
                "read_latency_sim_s": [r.latency_s for r in reads_ok],
                "requeue_reasons": sorted(
                    r.failure_reason or "" for r in orch.records if r.status == FAILED
                ),
                "events": system.events.executed,
                "now": system.events.now,
            },
            host={},
            input_sha=input_sha,
            rebuilt_bytes=float(rebuilt),
            wire_bytes=system.traffic_bytes,
        )
        it.errors = self._check(sc, p)
        return it

    @staticmethod
    def _check(sc, p) -> list[str]:
        """Rebuilt chunks and read payloads must match the written data."""
        errors: list[str] = []
        code = rs.RSCode(p["n"], p["k"])
        dead = sc.orchestrator.dead_letters
        for sid, data in sc.payloads.items():
            if sid in dead:
                continue
            stripe = code.encode(data)
            for idx in range(p["n"]):
                try:
                    got = sc.system.read_chunk(sid, idx)
                except RuntimeError as exc:
                    errors.append(f"{sid}[{idx}] unreadable after recovery: {exc}")
                    continue
                if not np.array_equal(got, stripe[idx]):
                    errors.append(f"{sid}[{idx}] differs from the encoded stripe")
        for r in sc.foreground.reads:
            if r.ok and not np.array_equal(r.payload, sc.payloads[r.stripe_id][r.chunk_index]):
                errors.append(f"read of {r.stripe_id}[{r.chunk_index}] returned wrong bytes")
        if sc.orchestrator.inflight or len(sc.orchestrator.queue):
            errors.append("repair backlog did not drain")
        return errors


# ---- lifetime ------------------------------------------------------------- #

#: BENCH_lifetime's gate campaign: one million stripe-years of a (14, 10)
#: fleet through the real recovery orchestrator.
LIFETIME_CONFIG = LifetimeConfig(
    n=14,
    k=10,
    num_stripes=200_000,
    placement_groups=128,
    years=5.0,
    seed=2023,
    disk_process=ExponentialProcess.from_years(0.25, mttr_hours=12.0),
    machine_process=ExponentialProcess.from_years(0.5, mttr_hours=4.0),
    repair_model=RepairModel(chunk_mib=16.0, node_mbps=600.0),
    budget_fraction=0.3,
    max_concurrent=8,
    tick_s=900.0,
)

#: What the seed-2023 gate campaign produced when BENCH_lifetime.json was
#: committed; a campaign that drifts from it broke determinism.
LIFETIME_EXPECTED = {"losses": 5, "stripes_lost": 7814, "events": 79619}

#: Simulated years per measured campaign (the gate config runs 5).
LIFETIME_YEARS = 1.0

#: Set-up repeats per iteration (fleet builds are ~20 ms each).
LIFETIME_SETUPS = 2


@dataclass(frozen=True)
class LifetimeWorkload:
    name: str = "lifetime"
    why: str = ""
    traced_pair_s: float = 2.8

    def config(self, seed: int, smoke: bool) -> LifetimeConfig:
        cfg = dataclasses.replace(LIFETIME_CONFIG, seed=seed, years=LIFETIME_YEARS)
        if smoke:
            cfg = dataclasses.replace(
                cfg, num_stripes=20_000, placement_groups=32, years=0.25
            )
        return cfg

    def iteration(self, seed: int, *, smoke: bool = False, tracer=None) -> Iteration:
        cfg = self.config(seed, smoke)
        setups = []
        for _ in range(LIFETIME_SETUPS):
            # a campaign whose horizon ends before any failure is exactly
            # run_campaign's set-up: the fleet tree, placements, stripe
            # table, orchestrator and every unit's first failure clock
            with _Timed(tracer) as setup:
                campaign.run_campaign(dataclasses.replace(cfg, years=1e-9))
            setups.append(setup.seconds)
        with _Timed(tracer) as run:
            result = campaign.run_campaign(cfg)
        failures = Counter()
        if result.dead_letters:
            failures["dead-letter"] = result.dead_letters
        it = Iteration(
            seed=seed,
            setup_s=setups,
            run_s=run.seconds,
            work=result.stripe_years,
            attempted=max(result.repairs_dispatched, 1),
            failed=result.dead_letters,
            failures=failures,
            sim={
                "exposure_sim_s": float(result.exposure_digest.mean),
                "stripes_lost": result.stripes_lost,
                "losses": len(result.loss_events),
                "events": result.events_executed,
                "repairs": result.repairs_dispatched,
                "chunks_rebuilt": result.chunks_rebuilt,
                "chunks_destroyed": result.chunks_destroyed,
                "dead_letters": result.dead_letters,
                "requeues": result.requeues,
                "ticks": result.ticks,
            },
            host={},
            input_sha=_sha(cfg),
            rebuilt_bytes=result.chunks_rebuilt * cfg.repair_model.chunk_mib * MIB,
        )
        if not 0 <= result.stripes_lost <= cfg.num_stripes:
            it.errors.append(f"stripes_lost={result.stripes_lost} out of range")
        if result.chunks_rebuilt > result.chunks_destroyed:
            it.errors.append("more chunks rebuilt than destroyed")
        if result.events_executed <= 0:
            it.errors.append("campaign executed no events")
        return it

    @staticmethod
    def reproduction_errors() -> list[str]:
        """The seed-2023 gate campaign must reproduce its committed counts."""
        result = campaign.run_campaign(LIFETIME_CONFIG)
        got = {
            "losses": len(result.loss_events),
            "stripes_lost": result.stripes_lost,
            "events": result.events_executed,
        }
        if got != LIFETIME_EXPECTED:
            return [f"seed-2023 campaign gave {got}, expected {LIFETIME_EXPECTED}"]
        return []


# ---- plan-sweep ----------------------------------------------------------- #

PLAN_TRACES = ("tpcds", "tpch", "swim")
PLAN_CODES = ((6, 4), (9, 6), (12, 8), (14, 10))
PLAN_ALGORITHMS = ("fullrepair", "pivotrepair", "rp")
PLAN_NODES = 16
PLAN_SNAPSHOTS = 2000
PLAN_PARAMS = transfer.TransferParams(chunk_bytes=64 * units.MIB, slice_bytes=64 * units.KIB)


@dataclass(frozen=True)
class PlanSweepWorkload:
    name: str = "plan-sweep"
    why: str = ""
    traced_pair_s: float = 2.8
    #: contexts per (trace, code) pair: 3 x 4 x 15 = 180 per iteration
    per_pair: int = 15
    smoke_per_pair: int = 4

    def iteration(self, seed: int, *, smoke: bool = False, tracer=None) -> Iteration:
        per_pair = self.smoke_per_pair if smoke else self.per_pair
        rng = np.random.default_rng(seed)
        trace_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(PLAN_TRACES))]
        with _Timed(tracer) as setup:
            contexts = []
            seen = set()
            for name, tseed in zip(PLAN_TRACES, trace_seeds):
                trace = traces.make_trace(
                    name, num_nodes=PLAN_NODES, num_snapshots=PLAN_SNAPSHOTS, seed=tseed
                )
                for n, k in PLAN_CODES:
                    for ctx in experiments.sample_contexts(trace, n, k, per_pair, seed=tseed + n):
                        key = (
                            ctx.snapshot.uplink.tobytes(),
                            ctx.snapshot.downlink.tobytes(),
                            ctx.requester,
                            ctx.helpers,
                            ctx.k,
                        )
                        if key not in seen:
                            seen.add(key)
                            contexts.append(ctx)
        input_sha = _sha(*(
            part
            for c in contexts
            for part in (c.snapshot.uplink.tobytes(), c.snapshot.downlink.tobytes(),
                         (c.requester, c.helpers, c.k))
        ))
        algos = {name: planners.get_algorithm(name) for name in PLAN_ALGORITHMS}
        plans = []
        sims = {name: [] for name in PLAN_ALGORITHMS}
        latencies_ns = []
        failures = Counter()
        with _Timed(tracer) as run:
            for ctx in contexts:
                for name, algo in algos.items():
                    t0 = perf_counter_ns()
                    try:
                        plan = algo.plan(ctx)
                        t1 = perf_counter_ns()
                        result = transfer.execute(plan, PLAN_PARAMS)
                    except (ValueError, RuntimeError) as exc:
                        failures[f"{name}: {exc}"] += 1
                        continue
                    if name == "fullrepair":
                        latencies_ns.append(t1 - t0)
                    sims[name].append(result.transfer_seconds)
                    plans.append(plan)
        attempted = len(contexts) * len(algos)
        it = Iteration(
            seed=seed,
            setup_s=[setup.seconds],
            run_s=run.seconds,
            work=float(attempted),
            attempted=attempted,
            failed=sum(failures.values()),
            failures=failures,
            sim={
                "fullrepair_sim_s": sims["fullrepair"],
                **{f"{name}_total_sim_s": sum(v) for name, v in sims.items()},
                "contexts": len(contexts),
            },
            host={"plan_ns": latencies_ns},
            input_sha=input_sha,
        )
        it.errors = self._check(plans, sims)
        return it

    @staticmethod
    def _check(plans, sims) -> list[str]:
        """Plans are valid, FullRepair meets Eqs. (2)-(5) and is fastest."""
        errors = []
        for plan in plans:
            try:
                plan.validate()
            except ValueError as exc:
                errors.append(f"{plan.algorithm} plan invalid: {exc}")
                continue
            if plan.algorithm == "fullrepair":
                report = constraints.check(
                    plan.context, throughput.max_pipelined_throughput(plan.context)
                )
                if not report.all_ok:
                    errors.append(f"fullrepair t_max violates constraints: {report}")
        fr = float(np.mean(sims["fullrepair"])) if sims["fullrepair"] else 0.0
        for name in PLAN_ALGORITHMS[1:]:
            if sims[name] and fr > float(np.mean(sims[name])):
                errors.append(f"fullrepair mean {fr:.4f}s slower than {name}")
        return errors


# ---- registry ------------------------------------------------------------- #

WORKLOADS = {
    w.name: w
    for w in (
        RecoverWorkload(
            name="recover-fine",
            why=(
                "per-slice work dominates: (6,4), 64 KiB chunks in 4 KiB slices, "
                "one node killed under foreground reads; obs, datanode and CRC per slice"
            ),
            # stripe s sits on nodes s..s+5 (mod 12), so node 0 holds a chunk
            # of 6 of the 12 stripes whatever the seed.  A single kill: a
            # second kill while repairs run fails some degraded reads with
            # "second chunk lost mid-repair", and the benchmark's workloads
            # are ones on which no operation fails.
            params=dict(
                num_nodes=12, n=6, k=4, num_stripes=12,
                chunk_bytes=64 * units.KIB, slice_bytes=4 * units.KIB,
                kills=((0, 0.001),), foreground_reads=50,
            ),
            smoke_params=dict(
                num_nodes=12, n=6, k=4, num_stripes=8,
                chunk_bytes=16 * units.KIB, slice_bytes=4 * units.KIB,
                kills=((0, 0.001),), foreground_reads=40,
            ),
        ),
        RecoverWorkload(
            name="recover-coarse",
            why=(
                "bytes dominate, not events: (14,10), 1 MiB chunks in 256 KiB slices; "
                "RS encode in set-up, GF combine and CRC over large buffers in repair"
            ),
            # stripe s sits on nodes s..s+13 (mod 16), so node 13 holds a
            # chunk of every stripe and each iteration rebuilds num_stripes
            # chunks whatever the seed
            params=dict(
                num_nodes=16, n=14, k=10, num_stripes=4,
                chunk_bytes=units.MIB, slice_bytes=256 * units.KIB,
                kills=((13, 0.001),), foreground_reads=16,
            ),
            smoke_params=dict(
                num_nodes=16, n=14, k=10, num_stripes=3,
                chunk_bytes=256 * units.KIB, slice_bytes=64 * units.KIB,
                kills=((13, 0.001),), foreground_reads=16,
            ),
            traced_pair_s=2.6,
        ),
        LifetimeWorkload(
            why=(
                "no data plane and no planner: a simulated year of a 200k-stripe (14,10) "
                "fleet per iteration loads the recovery orchestrator and the event heap"
            ),
        ),
        PlanSweepWorkload(
            why=(
                "the paper's Exp. 1/2 path: FullRepair, PivotRepair and RP plans over "
                "tpcds/tpch/swim contexts, each executed for a 64 MiB chunk"
            ),
        ),
    )
}
