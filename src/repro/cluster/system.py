"""ClusterSystem — the end-to-end prototype.

Ties the pieces into the paper's §V-A system: an RS-coded cluster of data
nodes with a master, where clients write stripes, nodes fail, and failed
chunks are rebuilt through whichever repair algorithm the master runs.
The control plane (reports, dispatch) and the data plane (slice
transfers with real GF arithmetic) both run on the deterministic event
queue, so a repair returns the rebuilt *bytes* (verified against the
original) plus the simulated wall-clock it took.

Beyond the paper's single-chunk scenario the prototype also supports:

* **one repair state machine** — every entry point runs a
  :class:`RepairJob`, for one lost chunk or several, sync or async;
* **degraded reads** — serving a chunk whose node is down by repairing
  on the read path without persisting;
* **mid-repair failure recovery** — a progress watchdog detects a
  stalled transfer (crashed helper, dead link), aborts the attempt, and
  re-plans only the *unfinished remainder* against the surviving
  helpers, walking the degradation ladder (helper promotion -> full
  re-plan -> conventional star fallback) before giving an explicit
  ``failed`` verdict (see ``docs/FAULTS.md``);
* **fault injection** — :class:`~repro.faults.FaultInjector` schedules
  crashes, stragglers, stalls, and report faults onto the same event
  queue through the cluster's fault hooks (:meth:`fail_node`,
  :meth:`set_rate_cap`, :meth:`stall_node`, :meth:`suppress_reports`,
  :meth:`delay_reports`);
* **full-node repair** — rebuilding every chunk of a dead node through
  the batch planner in :mod:`repro.core.fullnode`;
* **end-to-end integrity** — per-chunk digests and per-slice wire
  checksums (:mod:`repro.integrity`), silent-corruption fault hooks
  (:meth:`corrupt_chunk`, :meth:`arm_torn_write`, :meth:`corrupt_wire`),
  post-repair verification against surplus parity with leave-one-out
  localization and quarantine of poisoned chunks, and checksum-failed
  slice retransmission (see ``docs/INTEGRITY.md``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..core.fullnode import StripeRepairSpec, plan_full_node_repair
from ..ec.rs import RSCode
from ..faults import COMPLETED, DEGRADED, ESCALATED, FAILED
from ..integrity.verify import audit_stripe
from ..net import units
from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..obs import NULL_FLEET, NULL_METRICS, NULL_TRACER
from ..repair.base import RepairAlgorithm, get_algorithm
from ..repair.plan import RepairPlan
from ..repair.recovery import uncovered_intervals
from ..sim.events import EventQueue
from .datanode import DataNode, DataPlane, SliceStream
from .master import DeadNodeError, Master, StripeLocation
from .messages import BandwidthReport, TransferTask

log = logging.getLogger("repro.cluster.system")


@dataclass
class RepairOutcome:
    """Result of one end-to-end chunk repair.

    Attributes
    ----------
    status:
        Terminal verdict (see :mod:`repro.faults`): ``completed`` (the
        planned algorithm finished, possibly after re-plans), ``degraded``
        (finished via a ladder rung — helper promotion or star fallback),
        ``escalated`` (a second chunk was lost mid-repair and the same
        job rebuilt it too), or ``failed`` (explicit failure
        verdict — never silent corruption).
    retries:
        Attempts aborted by the progress watchdog (re-dispatches).
    replans:
        Plans computed after the first (full re-plans and promotions).
    bytes_retransferred:
        Payload bytes received at the requester whose byte ranges never
        completed in their attempt and had to be repaired again.
    corruption_detected:
        Silent corruption was caught somewhere in this repair — a
        helper chunk failing its digest, a wire slice failing its
        checksum, a torn write caught on readback, or a post-repair
        parity verification failure.
    quarantined_chunks:
        Stripe chunk indices this repair proved corrupt and quarantined.
    """

    plan: RepairPlan | None
    rebuilt: np.ndarray | None
    elapsed_seconds: float
    bytes_received: int
    verified: bool
    attempts: int = 1
    status: str = COMPLETED
    retries: int = 0
    replans: int = 0
    bytes_retransferred: int = 0
    failure_reason: str | None = None
    corruption_detected: bool = False
    quarantined_chunks: tuple = ()


class _Pipe:
    """Requester-side reassembly of one pipeline of an attempt."""

    __slots__ = ("streams", "event", "due", "got", "folded")

    def __init__(self) -> None:
        #: the last-hop streams by sender node
        self.streams: dict[int, SliceStream] = {}
        #: the completion event, at the pipeline's last intact landing
        self.event = None
        self.due: float | None = None
        #: per slice: senders already folded into the buffer (None until
        #: the first partial fold)
        self.got: list[int] | None = None
        #: per sender: which slices are folded
        self.folded: dict[int, list[bool]] = {}


@dataclass
class _ChunkRepair:
    """Requester-side reassembly of one lost chunk, across attempts."""

    failed_node: int
    requester: int
    #: chunk index lost on failed_node, resolved at dispatch — the live
    #: placement may have relocated it by the time the repair settles
    #: (a degraded read racing the orchestrator on the same chunk)
    lost_chunk: int
    #: base wire id; attempt N > 1 streams under ``repair_id#aN``
    repair_id: str
    chunk_bytes: int
    buffer: np.ndarray = field(repr=False, default=None)
    #: requester picked by the job on escalation (re-picked if it dies)
    spare: bool = False
    plan: RepairPlan | None = None
    wire_id: str = ""
    #: pipeline key -> sender nodes expected to deliver that range
    expected: dict[int, set] = field(default_factory=dict)
    #: pipeline key -> bytes of its range not yet decode-complete
    outstanding: dict[int, int] = field(default_factory=dict)
    #: pipeline key -> its reassembly state
    pipes: dict[int, _Pipe] = field(default_factory=dict)
    #: (node, pipeline key) of every hub task of the attempt
    hubs: set = field(default_factory=set)
    #: byte ranges with every contribution folded in (decode-correct),
    #: accumulated across attempts — the complement is the remainder
    completed: list = field(default_factory=list)
    done_bytes: int = 0
    received: int = 0
    last_arrival: float = 0.0
    #: post-repair parity verification verdict (None = not verifiable)
    integrity_ok: bool | None = None

    @property
    def complete(self) -> bool:
        return self.done_bytes >= self.chunk_bytes

    def clear_attempt(self) -> None:
        self.expected = {}
        self.outstanding = {}
        self.pipes = {}
        self.hubs = set()

    def restart(self) -> int:
        """Drop every decoded byte; returns how many are lost."""
        lost = self.done_bytes
        self.buffer[:] = 0
        self.completed = []
        self.done_bytes = 0
        self.clear_attempt()
        return lost


@dataclass
class RepairJob:
    """One self-healing repair of a stripe's lost chunks.

    Every repair entry point of :class:`ClusterSystem` submits one of
    these.  The job owns its lost set (failed node -> requester, one
    assembly buffer each), its attempts and wire epochs, the progress
    watchdog and divergence-detector timers, and the post-repair
    verification.  Each attempt plans the uncovered remainder of every
    unfinished chunk; a chunk lost mid-repair outside the plan joins the
    lost set of a ``store=True`` job (escalation).
    """

    stripe_id: str
    repair_id: str
    #: failed node -> its chunk's reassembly, primary chunk first
    chunks: dict[int, _ChunkRepair]
    tag: str = ""
    store: bool = True
    #: fraction of cluster bandwidth this repair (and its re-plans) may use
    bandwidth_scale: float = 1.0
    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_base_s: float = 0.02
    deadline_s: float | None = None
    #: plans for the first attempt, when the caller already has them
    first_plan: dict | None = None
    #: terminal callback, fired once with {failed node: RepairOutcome}
    on_done: object = None
    start_time: float = 0.0
    busy_before: list | None = None
    attempt: int = 0
    retries: int = 0
    replans: int = 0
    bytes_retransferred: int = 0
    #: epoch id of the current attempt (the watchdog/detector key)
    wire_id: str = ""
    in_flight: bool = False
    received: int = 0
    failure_reason: str | None = None
    escalated: bool = False
    degraded: bool = False
    settled: bool = False
    timer: object = None
    armed_timeout: float = 0.0
    timer_mark: int = -1
    deadline_timer: object = None
    # ---- divergence-detector sampler (DivergenceMonitor wired only) --- #
    detect_timer: object = None
    detect_period_s: float = 0.0
    detect_mark: int = 0
    detect_mark_t: float = 0.0
    #: participant node -> uplink busy seconds at the previous tick
    detect_busy: dict = field(default_factory=dict)
    # ---- integrity state ---------------------------------------------- #
    corruption_detected: bool = False
    #: stripe chunk indices this repair proved corrupt and quarantined
    quarantined: list = field(default_factory=list)
    # ---- observability (None / NULL_SPAN when tracing is off) --------- #
    span: object = None
    attempt_span: object = None

    @property
    def complete(self) -> bool:
        return all(c.complete for c in self.chunks.values())

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None

    @property
    def primary(self) -> _ChunkRepair:
        return next(iter(self.chunks.values()))

    def participants(self) -> tuple[int, ...]:
        return tuple(
            sorted(
                {
                    n
                    for c in self.chunks.values()
                    if c.plan is not None
                    for p in c.plan.pipelines
                    for n in p.participants
                }
            )
        )


def _pipeline_rates(tasks: list[TransferTask]) -> dict[int, float]:
    """Each pipeline's end-to-end rate: the min task rate on its chain.

    Recorded on pipeline spans so the bottleneck-attribution replay
    (:mod:`repro.obs.attr`) can compare measured durations against the
    plan without access to the plan object itself.
    """
    rates: dict[int, float] = {}
    for t in tasks:
        cur = rates.get(t.pipeline_id)
        if cur is None or t.rate_mbps < cur:
            rates[t.pipeline_id] = t.rate_mbps
    return rates


class ClusterSystem:
    """An erasure-coded storage cluster with pluggable repair scheduling."""

    def __init__(
        self,
        num_nodes: int,
        code: RSCode,
        *,
        algorithm: str | RepairAlgorithm = "fullrepair",
        slice_bytes: int = 64 * units.KIB,
        slice_overhead_s: float = 200e-6,
        compute_s_per_byte: float = 1.25e-10,
        dispatch_latency_s: float = 200e-6,
        tracer=None,
        metrics=None,
        fleet=None,
        slo=None,
        divergence=None,
        integrity_verify: bool = True,
    ) -> None:
        if num_nodes < code.n + 1:
            raise ValueError(
                f"need at least n+1={code.n + 1} nodes (stripe + requester), "
                f"got {num_nodes}"
            )
        self.code = code
        self.events = EventQueue()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.fleet = fleet if fleet is not None else NULL_FLEET
        self.slo = slo
        if self.tracer.enabled and self.tracer.clock is None:
            # spans are keyed to *simulated* time, not wall-clock
            self.tracer.clock = lambda: self.events.now
        if self.fleet.enabled and self.fleet.clock is None:
            self.fleet.clock = lambda: self.events.now
        #: online divergence detection (``repro.obs.detect``): when a
        #: DivergenceMonitor is wired, watchdog repairs sample realised
        #: throughput against the plan's t_max and abort diverged
        #: attempts *before* the timeout fallback fires
        self.divergence = divergence
        if self.divergence is not None and self.divergence.clock is None:
            self.divergence.clock = lambda: self.events.now
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        self.master = Master(code, algorithm, num_nodes)
        self.master.tracer = self.tracer
        self.master.metrics = self.metrics
        self.master.fleet = self.fleet
        self.dispatch_latency_s = dispatch_latency_s
        self.compute_s_per_byte = compute_s_per_byte
        self.slice_bytes = slice_bytes
        self.slice_overhead_s = slice_overhead_s
        #: the solved slice schedules of every node (segment executor)
        self.plane = DataPlane(self.events)
        self.plane.landing = self._landing
        self.plane.may_retransmit = self._may_retransmit
        self.plane.on_bad_copy = self._on_bad_copy
        self.plane.on_resolved = self._reschedule_pipes
        if self.tracer.enabled or self.metrics.enabled:
            self.plane.on_sends = self._note_sends
        self.nodes = [
            DataNode(
                i,
                self.events,
                slice_bytes=slice_bytes,
                slice_overhead_s=slice_overhead_s,
                compute_s_per_byte=compute_s_per_byte,
            )
            for i in range(num_nodes)
        ]
        #: post-repair parity verification of rebuilt chunks (the wire
        #: checksums and read-path digest checks are always on)
        self.integrity_verify = integrity_verify
        for node in self.nodes:
            node.plane = self.plane
            node.deliver = self._deliver_stream
            node.on_bad_chunk = self._on_bad_chunk
        #: (wire id, pipeline id) -> open pipeline span (tracer enabled only)
        self._pipeline_spans: dict[tuple[str, int], object] = {}
        self._alive = [True] * num_nodes
        #: unsettled repair jobs by repair id
        self._jobs: dict[str, RepairJob] = {}
        #: wire id (per chunk, per attempt epoch) -> (job, chunk) it feeds
        self._wire_job: dict[str, tuple[RepairJob, _ChunkRepair]] = {}
        #: wire ids of aborted attempts; their in-flight slices are
        #: silently dropped instead of corrupting the new attempt's state
        self._retired: set[str] = set()
        self._stripe_sizes: dict[str, int] = {}
        self._heartbeat_on = False
        self._heartbeat_period_s = 0.05
        self._heartbeat_pending = False
        #: callbacks fired (with the node id) whenever a node crashes —
        #: how the recovery orchestrator learns of new failures
        self._failure_listeners: list = []
        #: monotone suffix source keeping async repair ids collision-free
        self._async_seq = 0

    # ---- cluster state ------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def is_alive(self, node: int) -> bool:
        return self._alive[node]

    def set_bandwidth(self, snapshot: BandwidthSnapshot) -> None:
        """Feed the master a fresh bandwidth picture (live nodes report)."""
        if snapshot.num_nodes != self.num_nodes:
            raise ValueError("snapshot size mismatch")
        for i in range(self.num_nodes):
            if not self._alive[i] or self.master.is_node_dead(i):
                continue  # dead nodes do not report (master would reject)
            self.master.on_bandwidth_report(
                BandwidthReport(
                    node=i,
                    uplink_mbps=float(snapshot.uplink[i]),
                    downlink_mbps=float(snapshot.downlink[i]),
                ),
                now=self.events.now,
            )

    @property
    def traffic_bytes(self) -> int:
        """Total payload bytes every node has put on the wire so far."""
        self.plane.sync()
        return sum(node.bytes_sent for node in self.nodes)

    def write_stripe(
        self,
        stripe_id: str,
        data: np.ndarray,
        *,
        placement: tuple[int, ...] | None = None,
    ) -> StripeLocation:
        """Encode k data chunks and distribute the stripe across nodes.

        ``data`` is a (k, L) uint8 array.  Placement defaults to nodes
        ``0..n-1``; every chunk must land on a distinct, live node.
        """
        data = np.asarray(data, dtype=np.uint8)
        stripe = self.code.encode(data)
        if placement is None:
            placement = tuple(range(self.code.n))
        if any(not self._alive[p] for p in placement):
            raise ValueError("cannot place chunks on failed nodes")
        loc = StripeLocation(stripe_id=stripe_id, placement=tuple(placement))
        self.master.register_stripe(loc)
        for idx, node in enumerate(placement):
            self.nodes[node].store.put(stripe_id, idx, stripe[idx])
        self._stripe_sizes[stripe_id] = int(stripe.shape[1])
        return loc

    def fail_node(self, node: int) -> None:
        """Crash a node (its chunks become unreachable).

        The master is *not* told directly: the control plane learns of
        the death through detection — the dispatch-time liveness probe,
        a progress-watchdog abort, or heartbeat-lease expiry.

        A crash is classified against every active repair job: a
        *participant* (helper/hub of the current plans) crash is left to
        the progress watchdog, which re-plans the remainder; a crash
        that loses another, *uninvolved* chunk of the stripe joins that
        chunk to a storing job's lost set and re-plans at once
        (escalation).  Degraded reads (``store=False``) ignore it.
        """
        self._alive[node] = False
        log.debug("node %d crashed at t=%.6f", node, self.events.now)
        # copies from or to the dead node that have not landed vanish
        self.plane.resolve()
        if self.tracer.enabled:
            self.tracer.event(self._live_span(), "node.crash", node=node)
        for job in list(self._jobs.values()):
            if (
                job.store
                and node in self.master.stripe(job.stripe_id).placement
                and node not in job.chunks
                and node not in job.participants()
                and self._assign_spare(job, node, "second chunk lost mid-repair")
                and job.in_flight
            ):
                self._abort_attempt(
                    job, f"chunk on node {node} lost mid-repair", retry=False
                )
        listeners = list(self._failure_listeners)
        profiler = self.events.profiler
        if profiler is not None:
            profiler.record_fanout("failure_listeners", len(listeners))
        for listener in listeners:
            listener(node)

    def add_failure_listener(self, callback) -> None:
        """Register ``callback(node)`` to run whenever a node crashes.

        Listeners run *after* the crash has been classified against every
        active repair, so a listener observing the cluster sees the
        post-crash state (escalations already flagged).
        """
        self._failure_listeners.append(callback)

    # ---- fault hooks (used by repro.faults.FaultInjector) -------------- #

    def set_rate_cap(self, node: int, rate_cap_mbps: float | None) -> None:
        """Straggler: cap every rate ``node`` sends at (``None`` clears)."""
        self.nodes[node].rate_cap_mbps = rate_cap_mbps
        self.plane.resolve()

    def stall_node(self, node: int, duration_s: float) -> None:
        """Freeze a node's data plane: no slice starts transmitting and
        no delivery lands at it until the stall elapses."""
        until = self.events.now + duration_s
        node_ = self.nodes[node]
        node_.stalled_until = max(node_.stalled_until, until)
        self.plane.resolve()

    def suppress_reports(self, node: int, duration_s: float) -> None:
        """Drop the node's heartbeat reports for a while (lost reports)."""
        node_ = self.nodes[node]
        node_.reports_suppressed_until = max(
            node_.reports_suppressed_until, self.events.now + duration_s
        )

    def delay_reports(self, node: int, delay_s: float) -> None:
        """Delay the node's heartbeat reports by a fixed lag (late reports)."""
        self.nodes[node].report_delay_s = delay_s

    def corrupt_chunk(
        self,
        node: int,
        stripe_id: str | None = None,
        chunk_index: int | None = None,
        *,
        flips: int = 8,
        seed: int = 0,
        fix_digest: bool = False,
    ) -> bool:
        """Bit rot: flip bytes of a chunk stored on ``node``.

        With ``stripe_id``/``chunk_index`` unset, the victim is picked
        deterministically (seeded) among the chunks the node stores.
        No-op on a dead node (its unreachable store doubles as the
        ground-truth oracle in tests — rot there would be unobservable
        anyway).  Returns whether anything was corrupted.
        """
        if not self._alive[node]:
            return False
        store = self.nodes[node].store
        if stripe_id is None or chunk_index is None:
            keys = store.chunk_keys()
            if stripe_id is not None:
                keys = [k for k in keys if k[0] == stripe_id]
            if not keys:
                return False
            rng = np.random.default_rng(seed)
            stripe_id, chunk_index = keys[int(rng.integers(0, len(keys)))]
        elif not store.has(stripe_id, chunk_index):
            return False
        flipped = store.corrupt(
            stripe_id, chunk_index, flips=flips, seed=seed, fix_digest=fix_digest
        )
        log.debug(
            "bit rot: %d bytes of %s chunk %d on node %d (fix_digest=%s)",
            flipped, stripe_id, chunk_index, node, fix_digest,
        )
        return flipped > 0

    def arm_torn_write(
        self, node: int, tail_fraction: float = 0.25, seed: int = 0
    ) -> None:
        """Torn write: the node's next chunk store lands with a garbled
        tail (its digest records what the writer intended)."""
        self.nodes[node].store.arm_torn_write(tail_fraction, seed)

    def corrupt_wire(self, node: int, duration_s: float, seed: int = 0) -> None:
        """Wire corruption: slices ``node`` sends while the window is
        open are garbled in flight (stored data stays intact); receivers
        catch them via the per-slice checksum and request retransmits."""
        n = self.nodes[node]
        n.wire_corrupt_until = max(
            n.wire_corrupt_until, self.events.now + duration_s
        )
        if n._wire_rng is None:
            n._wire_rng = np.random.default_rng(seed)
        self.plane.resolve()

    def enable_heartbeats(
        self, period_s: float = 0.05, *, lease_missed: int = 3
    ) -> None:
        """Run periodic bandwidth heartbeats while repairs are active.

        Every live, unsuppressed node reports each ``period_s``; the
        master expires the lease of any node silent for ``lease_missed``
        periods (:meth:`~repro.cluster.master.Master.check_leases`) and
        excludes it from subsequent plans.  A lease false positive heals
        itself: the next report from a live node rejoins it.
        """
        self.master.configure_lease(period_s, missed_reports=lease_missed)
        self._heartbeat_on = True
        self._heartbeat_period_s = period_s

    def stripes_on(self, node: int) -> list[str]:
        """Stripe ids that placed a chunk on the given node."""
        return self.master.stripes_with_node(node)

    def chunk_bytes_of(self, stripe_id: str) -> int:
        """Chunk size in bytes of a stored stripe."""
        return self._stripe_sizes[stripe_id]

    def read_chunk(self, stripe_id: str, chunk_index: int) -> np.ndarray:
        """Direct chunk read (test/diagnostic path)."""
        loc = self.master.stripe(stripe_id)
        node = loc.node_of(chunk_index)
        if not self._alive[node]:
            raise RuntimeError(f"chunk {chunk_index} lives on failed node {node}")
        return self.nodes[node].store.get(stripe_id, chunk_index)

    # ---- integrity ---------------------------------------------------- #

    def quarantine_chunk(
        self,
        stripe_id: str,
        chunk_index: int,
        node: int | None = None,
        *,
        kind: str = "verify",
    ) -> bool:
        """Mark a chunk corrupt: excluded from every plan until rebuilt.

        The stored payload is *not* deleted (quarantine is a metadata
        verdict; repairs already streaming the chunk are aborted and
        re-planned, never surprised by a vanishing buffer).  A repair
        that relocates the chunk clears the mark.  ``kind`` labels the
        detection path for metrics (``read``/``wire``/``verify``/
        ``scrub``).  Returns False when already quarantined.
        """
        if self.master.is_quarantined(stripe_id, chunk_index):
            return False
        self.master.quarantine_chunk(stripe_id, chunk_index)
        if node is None:
            node = self.master.stripe(stripe_id).node_of(chunk_index)
        log.debug(
            "quarantined %s chunk %d on node %d (%s)",
            stripe_id, chunk_index, node, kind,
        )
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_integrity_quarantined_total",
                "Chunks quarantined as corrupt, by detection path.",
                kind=kind,
            ).inc()
            self.metrics.counter(
                "repro_integrity_corruption_detected_total",
                "Silent-corruption detections, by detection path.",
                kind=kind,
            ).inc()
        if self.tracer.enabled:
            self.tracer.event(
                None, "integrity.quarantine",
                stripe=stripe_id, chunk=chunk_index, node=node, kind=kind,
            )
        return True

    def unavailable_nodes(self, stripe_id: str) -> tuple[int, ...]:
        """Placement nodes whose chunk cannot serve reads or repairs:
        dead, or holding a quarantined (corrupt) copy.  The recovery
        orchestrator's durability-exposure basis."""
        loc = self.master.stripe(stripe_id)
        return tuple(
            n
            for i, n in enumerate(loc.placement)
            if not self._alive[n] or self.master.is_quarantined(stripe_id, i)
        )

    def _on_bad_chunk(self, node: int, task: TransferTask) -> None:
        """A helper's stored chunk failed its digest at assign time."""
        self.quarantine_chunk(task.stripe_id, task.chunk_index, node, kind="read")
        routed = self._wire_job.get(task.repair_id or task.stripe_id)
        if routed is None:
            return  # a retired epoch: its job has moved on
        job = routed[0]
        job.corruption_detected = True
        if task.chunk_index not in job.quarantined:
            job.quarantined.append(task.chunk_index)
        if self.tracer.enabled:
            self.tracer.event(
                job.attempt_span or job.span,
                "integrity.bad_chunk",
                node=node,
                chunk=task.chunk_index,
            )
        self._abort_attempt(
            job,
            f"helper chunk {task.chunk_index} failed digest verification "
            f"on node {node}",
        )

    def _on_bad_copy(self, stream: SliceStream, send) -> None:
        """A garbled copy failed its checksum at the receiving hop (at
        ``send.land``); its retransmit, if any, is already scheduled."""
        rid, pid = stream.key
        at = send.land
        lo, hi = stream.bounds(send.idx)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_integrity_corruption_detected_total",
                "Silent-corruption detections, by detection path.",
                kind="wire",
            ).inc()
        span = self._pipeline_spans.get((rid, pid))
        if self.tracer.enabled:
            self.tracer.event(
                span, "integrity.wire_corruption", t=at,
                src=stream.source, dst=stream.destination, lo=lo, hi=hi,
            )
        log.debug(
            "wire corruption caught: %d->%d [%d, %d) of %s",
            stream.source, stream.destination, lo, hi, rid,
        )
        routed = self._wire_job.get(rid)
        if routed is not None:
            routed[0].corruption_detected = True
        if not send.issued:
            # a refused retransmit leaves the range incomplete; the
            # progress watchdog aborts and re-plans the remainder
            return
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_integrity_retransmits_total",
                "Slices re-sent after a checksum failure downstream.",
            ).inc()
        if self.tracer.enabled:
            self.tracer.event(
                span, "integrity.retransmit", t=at,
                src=stream.source, lo=lo, hi=hi,
            )

    def _integrity_audit(self, stripe_id: str, lost_chunk: int, rebuilt):
        """Digest-scan the stripe's stored chunks, then parity-audit.

        Returns ``(AuditReport, holders)`` with ``holders`` mapping each
        scanned chunk index to its node.  Only live, non-quarantined
        holders participate; the leave-one-out localization therefore
        runs within *stored* chunks only — with a rotten helper both the
        helper and the rebuilt value are off-codeword, so mixing the
        rebuilt chunk into the candidate set could never localize.
        """
        loc = self.master.stripe(stripe_id)
        stored: dict[int, np.ndarray] = {}
        digest_bad: list[int] = []
        holders: dict[int, int] = {}
        for ci, node in enumerate(loc.placement):
            if ci == lost_chunk:
                continue
            if not self._alive[node] or self.master.is_quarantined(stripe_id, ci):
                continue
            store = self.nodes[node].store
            if not store.has(stripe_id, ci):
                continue
            holders[ci] = node
            if store.verify(stripe_id, ci):
                stored[ci] = store.get(stripe_id, ci)
            else:
                digest_bad.append(ci)
        report = audit_stripe(
            self.code, lost_chunk, rebuilt, stored,
            digest_bad=tuple(digest_bad),
        )
        return report, holders

    def _verify_completed(self, job: RepairJob) -> bool:
        """Post-repair verification of every chunk of a completed job.

        True — the job is terminal (each chunk verified clean, healed
        from surplus parity, or the job explicitly failed); False — some
        rebuilt bytes were poisoned, the culprits are quarantined, and a
        fresh attempt over the remaining helpers has been scheduled for
        the poisoned chunks.
        """
        if not self.integrity_verify:
            return True
        poisoned = [c for c in job.chunks.values() if not self._verify_chunk(job, c)]
        if job.failed or not poisoned:
            return True
        # scrub the poisoned chunks and repair them again with the
        # quarantined culprits excluded
        for chunk in poisoned:
            job.bytes_retransferred += chunk.restart()
        self._abort_attempt(job, "rebuilt chunk failed integrity verification")
        return False

    def _verify_chunk(self, job: RepairJob, chunk: _ChunkRepair) -> bool:
        """Parity-audit one rebuilt chunk; False asks for a re-repair."""
        report, holders = self._integrity_audit(
            job.stripe_id, chunk.lost_chunk, chunk.buffer
        )
        tracer = self.tracer
        m = self.metrics

        def note(result: str) -> None:
            if m.enabled:
                m.counter(
                    "repro_integrity_verifications_total",
                    "Post-repair stripe verifications by result.",
                    result=result,
                ).inc()
            if tracer.enabled:
                tracer.event(
                    job.attempt_span or job.span,
                    "integrity.verify",
                    result=result,
                    culprits=list(report.culprits),
                    checked=report.checked,
                )

        if report.ok:
            chunk.integrity_ok = True
            note("ok")
            return True
        if report.ok is None:
            # too few clean chunks survive to check anything
            chunk.integrity_ok = None
            note("unverifiable")
            return True
        for ci in report.culprits:
            self.quarantine_chunk(
                job.stripe_id, ci, holders.get(ci), kind="verify"
            )
            if ci not in job.quarantined:
                job.quarantined.append(ci)
        job.corruption_detected = True
        if report.rebuilt_ok:
            # rot exists at rest but the culprit never fed this repair:
            # the rebuilt value checks out against the clean chunks
            chunk.integrity_ok = True
            note("corrupt-helper")
            return True
        if report.culprits and job.attempt < job.max_attempts:
            note("retry")
            log.debug(
                "%s: rebuilt chunk failed verification (culprits %s); "
                "re-repairing", chunk.repair_id, list(report.culprits),
            )
            return False
        if report.predicted is not None:
            # attempts exhausted (or no culprit among stored chunks) but
            # the surplus parity pins the true value: heal in place
            chunk.buffer[:] = report.predicted
            chunk.integrity_ok = True
            job.degraded = True
            if m.enabled:
                m.counter(
                    "repro_integrity_healed_total",
                    "Rebuilt chunks healed from surplus parity after "
                    "failing verification.",
                ).inc()
            if tracer.enabled:
                tracer.event(
                    job.attempt_span or job.span, "integrity.healed",
                    stripe=job.stripe_id, chunk=chunk.lost_chunk,
                )
            note("healed")
            return True
        job.failure_reason = (
            "rebuilt chunk failed integrity verification and the "
            "corruption could not be localized"
        )
        note("failed")
        return True

    # ---- repair entry points (adapters over one RepairJob) ------------- #

    def repair(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        inject_failure: tuple[int, float] | None = None,
        injector=None,
        max_attempts: int = 3,
        store: bool = True,
        progress_timeout_s: float | None = None,
        backoff_base_s: float = 0.02,
        on_failure: str = "raise",
    ) -> RepairOutcome:
        """Rebuild the failed node's chunk of a stripe at ``requester``.

        Runs the full protocol on the event queue: the master schedules
        (using its current bandwidth picture), dispatches transfer tasks
        after ``dispatch_latency_s``, data nodes stream and combine
        slices, the requester assembles, stores, and verifies the chunk.

        The repair is self-healing: a progress watchdog (auto-sized from
        the plan's throughput, or ``progress_timeout_s``) aborts an
        attempt that stops making progress, scrubs half-received slices,
        and re-dispatches after an exponential backoff
        (``backoff_base_s * 2**attempt``) — re-planning only the
        unfinished remainder down the master's degradation ladder.  With
        ``store=True`` a second chunk lost mid-repair outside the plan
        joins the running repair, which rebuilds both and ends
        ``escalated``; a ``store=False`` read keeps decoding its own
        chunk from the survivors.

        Faults: ``inject_failure=(node, delay)`` crashes one node
        ``delay`` simulated seconds in; ``injector`` arms a whole
        :class:`~repro.faults.FaultInjector` schedule.

        After ``max_attempts`` attempts (or an impossible re-plan) the
        repair ends with an explicit verdict: ``on_failure="raise"``
        raises ``RuntimeError``; ``"outcome"`` returns a
        :class:`RepairOutcome` with ``status="failed"`` — never a
        silently corrupt chunk.

        A *live* ``failed_node`` is accepted when its chunk is
        quarantined as corrupt (a scrub-repair): the rotten copy is
        excluded from helpers, the chunk is rebuilt on the requester,
        and relocation clears the quarantine.
        """
        self._check_repairable(stripe_id, failed_node, requester)
        if on_failure not in ("raise", "outcome"):
            raise ValueError('on_failure must be "raise" or "outcome"')
        if inject_failure is not None:
            node, delay = inject_failure
            self.events.schedule(delay, lambda n=node: self.fail_node(n))
        if injector is not None:
            injector.arm(self)
        outcome = self._run_job(
            stripe_id,
            {failed_node: requester},
            store=store,
            max_attempts=max_attempts,
            progress_timeout_s=progress_timeout_s,
            backoff_base_s=backoff_base_s,
        )[failed_node]
        if outcome.status == FAILED and on_failure == "raise":
            raise RuntimeError(
                f"repair of {stripe_id} failed after {outcome.attempts} "
                f"attempts: {outcome.failure_reason}"
            )
        return outcome

    def degraded_read(
        self, stripe_id: str, chunk_index: int, reader: int
    ) -> tuple[np.ndarray, float]:
        """Read a chunk, repairing on the fly if its node is down.

        Returns ``(payload, seconds)``.  A healthy chunk streams directly
        from its node; a lost one is rebuilt at the reader without being
        persisted (the degraded-read path of erasure-coded stores).
        """
        loc = self.master.stripe(stripe_id)
        node = loc.node_of(chunk_index)
        if self._alive[node] and not self.master.is_quarantined(
            stripe_id, chunk_index
        ):
            payload = self.nodes[node].store.get(stripe_id, chunk_index)
            snap = self.master.snapshot()
            rate = min(snap.uplink[node], snap.downlink[reader])
            return payload, units.transfer_seconds(len(payload), rate)
        # node down, or its copy quarantined as corrupt: rebuild on the fly
        outcome = self.repair(stripe_id, node, reader, store=False)
        return outcome.rebuilt, outcome.elapsed_seconds

    def repair_multi(
        self,
        stripe_id: str,
        failed_nodes: tuple[int, ...],
        requester_for: dict[int, int],
    ) -> dict[int, RepairOutcome]:
        """Rebuild several lost chunks of ONE stripe concurrently.

        An (n, k) stripe tolerates up to n-k simultaneous failures; each
        lost chunk is rebuilt at its own requester by an independent
        multi-pipeline plan over the shared surviving helpers (see
        :meth:`_plan_multi`), all in one self-healing job with the same
        watchdog, re-planning and verification as :meth:`repair`.
        Returns outcomes keyed by failed node (plus any chunk the job
        picked up by escalation).
        """
        failed_nodes = tuple(failed_nodes)
        plans = self._plan_multi(stripe_id, failed_nodes, requester_for)
        return self._run_job(
            stripe_id,
            {f: requester_for[f] for f in failed_nodes},
            first_plan=plans,
        )

    def repair_node(
        self,
        failed_node: int,
        requester_for: dict[str, int] | None = None,
        *,
        strategy: str = "batched",
    ) -> dict[str, RepairOutcome]:
        """Rebuild every chunk the failed node held.

        Uses the :mod:`repro.core.fullnode` batch planner for batching
        decisions, then executes each batch's repairs concurrently on the
        event queue.  ``requester_for`` maps stripe ids to replacement
        nodes; defaults to spreading over live non-participant nodes.
        """
        if self._alive[failed_node]:
            raise ValueError(f"node {failed_node} has not failed")
        stripe_ids = self.stripes_on(failed_node)
        if not stripe_ids:
            return {}
        requester_for = dict(requester_for or {})
        live_pool = [
            i for i in range(self.num_nodes) if self._alive[i]
        ]
        for i, sid in enumerate(stripe_ids):
            if sid in requester_for:
                continue
            loc = self.master.stripe(sid)
            candidates = [r for r in live_pool if r not in loc.placement]
            if not candidates:
                raise RuntimeError(f"no replacement node available for {sid}")
            requester_for[sid] = candidates[i % len(candidates)]

        specs = []
        for sid in stripe_ids:
            loc = self.master.stripe(sid)
            helpers = tuple(
                n
                for n in loc.placement
                if n != failed_node
                and self._alive[n]
                and not self.master.is_quarantined(sid, loc.chunk_on(n))
            )
            specs.append(
                StripeRepairSpec(
                    stripe_id=sid,
                    requester=requester_for[sid],
                    helpers=helpers,
                    chunk_bytes=self._stripe_sizes[sid],
                )
            )
        node_plan = plan_full_node_repair(
            specs,
            self.master.snapshot(),
            self.code.k,
            algorithm=self.master.algorithm.name,
            strategy=strategy,
        )
        outcomes: dict[str, RepairOutcome] = {}
        for batch in node_plan.batches:
            for sid in batch:
                self._submit(
                    sid,
                    {failed_node: requester_for[sid]},
                    first_plan={failed_node: node_plan.plans[sid]},
                    on_done=lambda outs, s=sid: outcomes.__setitem__(
                        s, outs[failed_node]
                    ),
                )
            self.events.run()
        for sid, out in outcomes.items():
            if out.status == FAILED:
                # structured per-stripe verdict: whole-node recovery
                # degrades (other stripes keep repairing)
                out.failure_reason = (
                    f"batched repair incomplete: {out.bytes_received} of "
                    f"{self._stripe_sizes[sid]} bytes arrived "
                    f"({out.failure_reason})"
                )
        return outcomes

    def repair_async(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        on_done,
        store: bool = True,
        bandwidth_scale: float = 1.0,
        max_attempts: int = 3,
        progress_timeout_s: float | None = None,
        backoff_base_s: float = 0.02,
    ) -> str:
        """Start a self-healing chunk repair without draining the queue.

        The non-blocking sibling of :meth:`repair`, built for control
        loops that live *inside* the event queue (the recovery
        orchestrator, foreground degraded reads): the repair is planned
        inside ``bandwidth_scale`` of every node's bandwidth, dispatched,
        and left to the same job state machine as :meth:`repair`; when
        it reaches a terminal state, ``on_done(outcome)`` fires from
        within the event-queue run.  A ``store=True`` repair that loses
        a second chunk mid-repair rebuilds it in place and reports
        ``escalated``; a ``store=False`` read keeps decoding its own
        chunk from the survivors.

        Returns the repair id (unique per call, so concurrent repairs of
        the same chunk — e.g. a degraded read racing the orchestrator —
        never collide).  As with :meth:`repair`, a live ``failed_node``
        whose chunk is quarantined dispatches a scrub-repair.
        """
        self._check_repairable(stripe_id, failed_node, requester)
        self._async_seq += 1
        job = self._submit(
            stripe_id,
            {failed_node: requester},
            store=store,
            bandwidth_scale=bandwidth_scale,
            max_attempts=max_attempts,
            progress_timeout_s=progress_timeout_s,
            backoff_base_s=backoff_base_s,
            on_done=lambda outs: on_done(outs[failed_node]),
            tag=f"@a{self._async_seq}",
        )
        return job.repair_id

    def repair_multi_async(
        self,
        stripe_id: str,
        failed_nodes: tuple[int, ...],
        requester_for: dict[int, int],
        *,
        on_done,
        bandwidth_scale: float = 1.0,
        deadline_s: float | None = None,
    ) -> str:
        """Rebuild several lost chunks of one stripe without blocking.

        The non-blocking sibling of :meth:`repair_multi`: each lost
        chunk's plan is carved out of ``bandwidth_scale`` (the 1/m split
        happens *inside* the share) and dispatched onto the running event
        queue.  When the job settles — or ``deadline_s`` elapses first —
        ``on_done(outcomes)`` fires with a per-failed-node
        :class:`RepairOutcome` dict; a missed deadline fails every chunk
        with a ``failure_reason`` instead of raising, so an orchestrator
        can re-queue them.
        """
        failed_nodes = tuple(failed_nodes)
        plans = self._plan_multi(
            stripe_id, failed_nodes, requester_for,
            bandwidth_scale=bandwidth_scale,
        )
        self._async_seq += 1
        return self._submit(
            stripe_id,
            {f: requester_for[f] for f in failed_nodes},
            bandwidth_scale=bandwidth_scale,
            deadline_s=deadline_s,
            first_plan=plans,
            on_done=on_done,
            tag=f"@m{self._async_seq}",
        ).tag

    def _check_repairable(
        self, stripe_id: str, failed_node: int, requester: int
    ) -> None:
        lost = self.master.stripe(stripe_id).chunk_on(failed_node)
        if self._alive[failed_node] and not self.master.is_quarantined(
            stripe_id, lost
        ):
            raise ValueError(f"node {failed_node} has not failed")
        if not self._alive[requester]:
            raise ValueError("requester node is down")

    def _plan_multi(
        self,
        stripe_id: str,
        failed_nodes: tuple[int, ...],
        requester_for: dict[int, int],
        *,
        bandwidth_scale: float = 1.0,
    ) -> dict[int, RepairPlan]:
        """Validate a multi-chunk repair and plan each lost chunk.

        Fair split: every concurrent repair plans inside a 1/m share of
        each node's bandwidth (an algorithm like FullRepair consumes
        everything it is offered, so residual carving would starve the
        later repairs); the shares are simultaneously feasible.  The
        split is carved out of ``bandwidth_scale`` — the budget share an
        orchestrator grants the whole stripe.
        """
        loc = self.master.stripe(stripe_id)
        failed_nodes = tuple(failed_nodes)
        if any(
            self._alive[f]
            and not self.master.is_quarantined(stripe_id, loc.chunk_on(f))
            for f in failed_nodes
        ):
            raise ValueError("all listed nodes must have failed")
        if len(failed_nodes) > self.code.n - self.code.k:
            raise ValueError(
                f"an ({self.code.n},{self.code.k}) stripe tolerates at most "
                f"{self.code.n - self.code.k} failures"
            )
        helpers = tuple(
            n for n in loc.placement
            if n not in failed_nodes
            and self._alive[n]
            and not self.master.is_quarantined(stripe_id, loc.chunk_on(n))
        )
        if len(helpers) < self.code.k:
            raise ValueError("not enough surviving helpers to decode")
        for f in failed_nodes:
            r = requester_for[f]
            if not self._alive[r] or r in loc.placement:
                raise ValueError(f"invalid requester {r} for failed node {f}")
        if len(set(requester_for[f] for f in failed_nodes)) != len(failed_nodes):
            raise ValueError("each lost chunk needs a distinct requester")
        snapshot = self.master.snapshot()
        factor = bandwidth_scale / len(failed_nodes)
        share = BandwidthSnapshot(
            uplink=snapshot.uplink * factor,
            downlink=snapshot.downlink * factor,
        )
        plans: dict[int, RepairPlan] = {}
        for f in failed_nodes:
            context = RepairContext(
                snapshot=share,
                requester=requester_for[f],
                helpers=helpers,
                k=self.code.k,
                chunk_index={n: loc.chunk_on(n) for n in helpers},
            )
            plans[f] = self.master.plan_with_fallback(context)
        return plans

    # ---- the repair job state machine ---------------------------------- #

    def _run_job(
        self, stripe_id: str, requester_for: dict[int, int], **kw
    ) -> dict[int, RepairOutcome]:
        """Submit a job and drain the event queue; returns its outcomes."""
        settled: dict[int, RepairOutcome] = {}
        self._submit(stripe_id, requester_for, on_done=settled.update, **kw)
        self.events.run()
        return settled

    def _submit(
        self,
        stripe_id: str,
        requester_for: dict[int, int],
        *,
        store: bool = True,
        bandwidth_scale: float = 1.0,
        max_attempts: int = 3,
        progress_timeout_s: float | None = None,
        backoff_base_s: float = 0.02,
        deadline_s: float | None = None,
        first_plan: dict[int, RepairPlan] | None = None,
        on_done,
        tag: str = "",
    ) -> RepairJob:
        """Build one repair job for ``requester_for``'s lost chunks and
        start its first attempt.  ``on_done({failed node: outcome})``
        fires exactly once, from inside the event-queue run that settles
        the job (or synchronously, if the first plan is impossible)."""
        loc = self.master.stripe(stripe_id)
        chunks = {
            f: self._new_chunk(stripe_id, loc, f, r, tag)
            for f, r in requester_for.items()
        }
        if self.metrics.enabled:
            self.plane.sync()  # busy_before reads the node counters
        job = RepairJob(
            stripe_id=stripe_id,
            repair_id=next(iter(chunks.values())).repair_id,
            chunks=chunks,
            tag=tag,
            store=store,
            bandwidth_scale=bandwidth_scale,
            max_attempts=max_attempts,
            timeout_s=progress_timeout_s,
            backoff_base_s=backoff_base_s,
            deadline_s=deadline_s,
            first_plan=first_plan,
            on_done=on_done,
            start_time=self.events.now,
            busy_before=(
                [(n.uplink_busy_s, n.downlink_busy_s) for n in self.nodes]
                if self.metrics.enabled
                else None
            ),
        )
        if self.tracer.enabled:
            primary = job.primary
            job.span = self.tracer.start_span(
                f"repair {job.repair_id}",
                kind="repair",
                stripe=stripe_id,
                failed_node=primary.failed_node,
                requester=primary.requester,
                chunk_bytes=primary.chunk_bytes,
                algorithm=self.master.algorithm.name,
                bandwidth_scale=bandwidth_scale,
            )
        self._jobs[job.repair_id] = job
        self._start_attempt(job)
        if deadline_s is not None and not job.settled:
            job.deadline_timer = self.events.schedule(
                deadline_s, lambda j=job: self._on_deadline(j)
            )
        return job

    def _new_chunk(
        self, stripe_id: str, loc, failed_node: int, requester: int, tag: str
    ) -> _ChunkRepair:
        chunk_bytes = self._stripe_sizes[stripe_id]
        return _ChunkRepair(
            failed_node=failed_node,
            requester=requester,
            lost_chunk=loc.chunk_on(failed_node),
            repair_id=f"{stripe_id}/n{failed_node}{tag}",
            chunk_bytes=chunk_bytes,
            buffer=np.zeros(chunk_bytes, dtype=np.uint8),
        )

    def _assign_spare(self, job: RepairJob, node: int, reason: str) -> bool:
        """Rebuild the chunk lost on ``node`` at a spare requester.

        Adds the chunk to a storing job's lost set (escalation), or moves
        it off a spare requester that died with its bytes.  False when
        no live node outside the placement is left: the job is failed.
        """
        loc = self.master.stripe(job.stripe_id)
        used = {c.requester for c in job.chunks.values()}
        requester = next(
            (
                r
                for r in range(self.num_nodes)
                if self._alive[r]
                and r not in loc.placement
                and r not in used
                and not self.master.is_node_dead(r)
            ),
            None,
        )
        if requester is None:
            job.failure_reason = (
                f"{reason}; no spare requester for chunk on node {node}"
            )
            self._finish_job(job, retire=True)
            return False
        chunk = job.chunks.get(node)
        if chunk is not None:
            job.bytes_retransferred += chunk.restart()
            chunk.requester = requester
            return True
        chunk = self._new_chunk(job.stripe_id, loc, node, requester, job.tag)
        chunk.spare = True
        job.chunks[node] = chunk
        job.escalated = True
        job.first_plan = None  # planned without the new chunk
        # rebuilding the extra chunk is not a failed attempt
        job.max_attempts += 1
        if self.tracer.enabled:
            self.tracer.event(
                job.span, "repair.escalate",
                node=node, requester=requester, reason=reason,
            )
        log.debug(
            "%s: chunk on node %d lost (%s); rebuilding it at node %d",
            job.repair_id, node, reason, requester,
        )
        return True

    def _start_attempt(self, job: RepairJob) -> None:
        """Plan and dispatch one attempt over the unfinished remainder."""
        if job.settled:
            return
        loc = self.master.stripe(job.stripe_id)
        # dispatch-time liveness probe: the master checks the placement
        # (and the requesters) before planning, so crashed nodes are
        # declared dead without waiting for a lease to expire
        for n in (*loc.placement, *(c.requester for c in job.chunks.values())):
            if not self._alive[n] and not self.master.is_node_dead(n):
                self.master.mark_node_dead(n)
        if job.store:
            participants = job.participants()
            for n in loc.placement:
                if (
                    not self._alive[n]
                    and n not in job.chunks
                    and n not in participants
                    and not self._assign_spare(
                        job, n, "uninvolved chunk lost before attempt"
                    )
                ):
                    return
            for chunk in list(job.chunks.values()):
                # the job picked this requester, so it may re-pick
                if (
                    chunk.spare
                    and not self._alive[chunk.requester]
                    and not self._assign_spare(
                        job, chunk.failed_node,
                        f"requester {chunk.requester} died",
                    )
                ):
                    return
        newly_dead = tuple(
            n
            for n in job.participants()
            if not self._alive[n] or self.master.is_node_dead(n)
        )
        job.attempt += 1
        if job.attempt > 1:
            job.replans += 1
        tracer = self.tracer
        if tracer.enabled:
            job.attempt_span = tracer.start_span(
                f"attempt {job.attempt}",
                kind="attempt",
                parent=job.span,
                n=job.attempt,
                repair_id=job.repair_id,
            )
            if job.attempt > 1:
                tracer.event(
                    job.attempt_span,
                    "replan",
                    attempt=job.attempt,
                    newly_dead=list(newly_dead),
                )
        log.debug(
            "%s: attempt %d (newly dead: %s)",
            job.repair_id, job.attempt, list(newly_dead),
        )
        todo = [c for c in job.chunks.values() if not c.complete]
        try:
            if job.first_plan is not None:
                plans, job.first_plan = job.first_plan, None
            elif len(todo) == 1:
                (chunk,) = todo
                plans = {
                    chunk.failed_node: self.master.schedule_repair(
                        job.stripe_id,
                        chunk.failed_node,
                        chunk.requester,
                        prev_plan=chunk.plan,
                        newly_dead=newly_dead,
                        bandwidth_scale=job.bandwidth_scale,
                    )
                }
            else:
                plans = self._plan_multi(
                    job.stripe_id,
                    tuple(c.failed_node for c in todo),
                    {c.failed_node: c.requester for c in todo},
                    bandwidth_scale=job.bandwidth_scale,
                )
        except (ValueError, RuntimeError) as exc:
            job.failure_reason = f"planning failed: {exc}"
            log.debug("%s: planning failed: %s", job.repair_id, exc)
            if tracer.enabled:
                tracer.event(job.attempt_span, "planning.failed", error=str(exc))
            self._finish_job(job, retire=True)
            return
        suffix = "" if job.attempt == 1 else f"#a{job.attempt}"
        job.wire_id = job.repair_id + suffix
        dispatch: list[tuple[TransferTask, int]] = []
        remaining = 0
        for chunk in todo:
            plan = chunk.plan = plans[chunk.failed_node]
            if "recovery" in plan.meta:
                job.degraded = True  # a ladder rung (promotion / star) was used
            remainder = uncovered_intervals(chunk.chunk_bytes, chunk.completed)
            left = sum(b - a for a, b in remainder)
            remaining += left
            wire = chunk.wire_id = chunk.repair_id + suffix
            self._retired.discard(wire)  # a sync repair id may be reused
            self._wire_job[wire] = (job, chunk)
            tasks = self.master.compile_tasks(
                plan,
                job.stripe_id,
                chunk.lost_chunk,
                chunk_bytes=chunk.chunk_bytes,
                num_slices=max(1, -(-left // self.slice_bytes)),
                repair_id=wire,
                intervals=remainder,
            )
            chunk.clear_attempt()
            for task in tasks:
                src = loc.node_of(task.chunk_index)
                if task.destination == chunk.requester:
                    chunk.expected.setdefault(task.pipeline_id, set()).add(src)
                    chunk.outstanding[task.pipeline_id] = task.stop - task.start
                if task.wait_for:
                    chunk.hubs.add((src, task.pipeline_id))
            if tracer.enabled:
                rate_by_pid = _pipeline_rates(tasks)
                for pid, nbytes in chunk.outstanding.items():
                    self._pipeline_spans[(wire, pid)] = tracer.start_span(
                        f"pipeline {pid}",
                        kind="pipeline",
                        parent=job.attempt_span,
                        pipeline=pid,
                        bytes=nbytes,
                        wire=wire,
                        rate_mbps=rate_by_pid.get(pid, 0.0),
                    )
            dispatch.extend((t, loc.node_of(t.chunk_index)) for t in tasks)
        if tracer.enabled:
            tracer.set_attrs(
                job.attempt_span,
                wire=job.wire_id,
                remaining_bytes=remaining,
                pipelines=sum(len(c.outstanding) for c in todo),
                rung=todo[0].plan.meta.get("recovery", "none"),
                t_max_mbps=float(sum(c.plan.total_rate for c in todo)),
            )
        for task, owner in dispatch:
            self.events.schedule(
                self.dispatch_latency_s,
                lambda t=task, o=owner: self._assign_if_alive(o, t),
            )
        job.in_flight = True
        self._arm_timer(job)
        self._arm_detector(job)
        self._ensure_heartbeat()

    def _cancel_timer(self, job: RepairJob) -> None:
        if job.timer is not None:
            self.events.cancel(job.timer)
            job.timer = None

    def _arm_timer(self, job: RepairJob) -> None:
        """(Re)arm the progress watchdog for the current attempt."""
        self._cancel_timer(job)
        timeout = job.timeout_s
        if timeout is None:
            # auto: 4x the slowest chunk's remaining time at plan rate
            slowest = max(
                units.transfer_seconds(
                    max(c.chunk_bytes - c.done_bytes, 1),
                    max(c.plan.total_rate if c.plan is not None else 0.0, 1.0),
                )
                for c in job.chunks.values()
            )
            timeout = max(0.05, 4.0 * slowest)
        timeout *= 2**job.retries  # back off after every aborted attempt
        job.armed_timeout = timeout
        job.timer_mark = job.received
        job.timer = self.events.schedule(
            timeout, lambda j=job: self._on_timeout(j)
        )

    #: throughput samples taken per armed watchdog window — the sampler
    #: must out-resolve the timeout for early detection to mean anything
    DETECT_TICKS_PER_TIMEOUT = 16

    def _arm_detector(self, job: RepairJob) -> None:
        """Start the divergence sampler for the current attempt.

        Every tick scores the realised throughput of the attempt's wire
        epoch (bytes folded since the last tick, over the plans'
        ``t_max``) with the monitor's ``repair.throughput_ratio``
        detector, and feeds each participant's uplink busy fraction to
        ``node.busy_fraction``.  A throughput alarm aborts the attempt
        immediately — the blunt timeout stays armed as the fallback for
        faults the detector cannot see (e.g. a crash during warmup).
        """
        if self.divergence is None:
            return
        if job.detect_timer is not None:
            self.events.cancel(job.detect_timer)
        job.detect_period_s = job.armed_timeout / self.DETECT_TICKS_PER_TIMEOUT
        self.plane.sync()
        job.detect_mark = job.received
        job.detect_mark_t = self.events.now
        job.detect_busy = {
            n: self.nodes[n].uplink_busy_s for n in job.participants()
        }
        self._schedule_tick(job, job.wire_id)

    def _schedule_tick(self, job: RepairJob, wire: str) -> None:
        job.detect_timer = self.events.schedule(
            job.detect_period_s, lambda j=job, w=wire: self._detect_tick(j, w)
        )

    def _disarm_detector(self, job: RepairJob) -> None:
        if job.detect_timer is not None:
            self.events.cancel(job.detect_timer)
            job.detect_timer = None
        if self.divergence is not None and job.wire_id:
            # drop the per-wire detector so a recycled epoch re-learns
            self.divergence.discard("repair.throughput_ratio", job.wire_id)

    def _detect_tick(self, job: RepairJob, wire: str) -> None:
        job.detect_timer = None
        if job.settled or job.complete:
            return
        monitor = self.divergence
        if wire != job.wire_id or wire in self._retired:
            # the timeout fallback (or a re-plan) already retired this
            # attempt epoch: the detector declines rather than double-
            # aborting, and says so in the trace (satellite: the chaos
            # sweeps stay fully explanatory)
            monitor.suppressed(
                "repair.throughput_ratio",
                "timeout fallback owns attempt epoch",
                key=wire,
                attempt=job.attempt,
            )
            monitor.discard("repair.throughput_ratio", wire)
            return
        now = self.events.now
        dt = now - job.detect_mark_t
        if dt <= 0:
            self._schedule_tick(job, wire)
            return
        self._sync_job(job)
        plan_rate = float(
            sum(c.plan.total_rate for c in job.chunks.values()
                if c.plan is not None and not c.complete)
        )
        realised = units.bytes_per_s_to_mbps((job.received - job.detect_mark) / dt)
        ratio = realised / plan_rate if plan_rate > 0 else 0.0
        for node, before in job.detect_busy.items():
            busy = self.nodes[node].uplink_busy_s
            monitor.feed(
                "node.busy_fraction",
                now,
                min(1.0, max(0.0, (busy - before) / dt)),
                key=str(node),
            )
            job.detect_busy[node] = busy
        job.detect_mark = job.received
        job.detect_mark_t = now
        alarm = monitor.feed("repair.throughput_ratio", now, ratio, key=wire)
        if alarm is None:
            self._schedule_tick(job, wire)
            return
        # divergence confirmed while the timeout is still ticking: abort
        # the attempt now instead of burning the rest of the window
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_detect_early_aborts_total",
                "Attempts aborted by the divergence detector ahead of "
                "the watchdog timeout.",
            ).inc()
        if self.tracer.enabled:
            self.tracer.event(
                job.attempt_span or job.span,
                "detect.abort",
                attempt=job.attempt,
                ratio=ratio,
                detector=alarm.detector,
                stat=alarm.stat,
                timeout_s=job.armed_timeout,
            )
        log.debug(
            "%s: divergence detector fired on attempt %d "
            "(ratio %.3g, stat %.3g)",
            job.repair_id, job.attempt, ratio, alarm.stat,
        )
        self._abort_attempt(
            job,
            f"throughput diverged from plan (ratio {ratio:.3g}, "
            f"attempt {job.attempt})",
        )

    def _on_timeout(self, job: RepairJob) -> None:
        job.timer = None
        if job.settled or job.complete:
            return
        self._sync_job(job)
        if job.received > job.timer_mark:
            self._arm_timer(job)  # progress since the last check: keep watching
            return
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_watchdog_fires_total",
                "Stalled attempts aborted by the progress watchdog.",
            ).inc()
        if self.tracer.enabled:
            self.tracer.event(
                job.attempt_span or job.span,
                "watchdog.fire",
                attempt=job.attempt,
                timeout_s=job.armed_timeout,
                received=job.received,
            )
        log.debug(
            "%s: watchdog fired on attempt %d (timeout %.4gs)",
            job.repair_id, job.attempt, job.armed_timeout,
        )
        self._abort_attempt(
            job,
            f"no progress within {job.armed_timeout:.4g}s "
            f"(attempt {job.attempt})",
        )

    def _on_deadline(self, job: RepairJob) -> None:
        job.deadline_timer = None
        if job.settled:
            return
        job.failure_reason = (
            f"multi-chunk repair missed its {job.deadline_s:g}s deadline"
        )
        self._finish_job(job, retire=True)

    def _abort_attempt(
        self, job: RepairJob, reason: str, *, retry: bool = True
    ) -> None:
        """Tear down the current attempt and schedule the next one.

        ``retry=False`` re-plans at once without charging the attempt
        as a failure (an escalation widened the lost set).
        """
        if retry:
            job.retries += 1
        self._sync_job(job)
        self._cancel_timer(job)
        self._disarm_detector(job)
        self._retire_attempt(job)
        if self.tracer.enabled and job.attempt_span:
            self.tracer.event(job.attempt_span, "attempt.abort", reason=reason)
        self._end_attempt_span(job, aborted=True)
        log.debug("%s: attempt %d aborted: %s", job.repair_id, job.attempt, reason)
        # scrub slices that only partially arrived — their XOR state is
        # useless without the missing contributions, and a stale late
        # slice must never fold into the next attempt's bytes
        for chunk in job.chunks.values():
            for pid, pipe in chunk.pipes.items():
                if pipe.got is None:
                    continue
                want = len(chunk.expected.get(pid, ()))
                geometry = next(iter(pipe.streams.values()))
                for i, got in enumerate(pipe.got):
                    if got and got != want:
                        lo, hi = geometry.bounds(i)
                        job.bytes_retransferred += (hi - lo) * got
                        chunk.buffer[lo:hi] = 0
            chunk.clear_attempt()
        if not retry:
            self.events.schedule(0.0, lambda j=job: self._start_attempt(j))
            return
        if job.attempt >= job.max_attempts:
            job.failure_reason = f"{reason}; {job.attempt} attempts exhausted"
            self._finish_job(job, retire=False)
            return
        delay = job.backoff_base_s * (2 ** (job.attempt - 1))
        self.events.schedule(delay, lambda j=job: self._start_attempt(j))

    def _retire_attempt(self, job: RepairJob, *, abort: bool = True) -> None:
        """Retire the job's wire ids: in-flight slices of the epoch are
        dropped on delivery and, on ``abort``, nodes stop sending."""
        job.in_flight = False
        self._retired.add(job.wire_id or job.repair_id)
        for chunk in job.chunks.values():
            wire = chunk.wire_id or chunk.repair_id
            self._retired.add(wire)
            self._wire_job.pop(wire, None)
            for pipe in chunk.pipes.values():
                if pipe.event is not None:
                    self.events.cancel(pipe.event)
                    pipe.event = None
            if abort:
                for node in self.nodes:
                    node.cancel_repair(wire)
                self._close_pipeline_spans(wire, aborted=True)
            else:
                self._close_pipeline_spans(wire)

    def _end_attempt_span(self, job: RepairJob, **attrs) -> None:
        if job.attempt_span:
            self.tracer.end_span(job.attempt_span, **attrs)
        job.attempt_span = None

    def _close_pipeline_spans(self, wire_id: str, **attrs) -> None:
        """End any still-open pipeline spans belonging to a wire epoch."""
        if not self._pipeline_spans:
            return
        for key in [k for k in self._pipeline_spans if k[0] == wire_id]:
            self.tracer.end_span(self._pipeline_spans.pop(key), **attrs)

    def _finish_job(self, job: RepairJob, *, retire: bool) -> None:
        """Settle a job: verify, stop its timers, store and report every
        chunk, and fire ``on_done``.  ``retire`` also stops the nodes
        still streaming for it."""
        if job.settled:
            return
        self._sync_job(job)
        # verify the rebuilt bytes before declaring success; a poisoned
        # chunk quarantines its culprit and re-repairs
        if job.complete and not job.failed and not self._verify_completed(job):
            return  # a fresh attempt is scheduled; not terminal yet
        job.settled = True
        self._cancel_timer(job)
        self._disarm_detector(job)
        if job.deadline_timer is not None:
            self.events.cancel(job.deadline_timer)
        # stale slices of this job's epochs may still be in flight and
        # must keep being dropped silently
        self._retire_attempt(job, abort=retire)
        self._end_attempt_span(job)
        self._jobs.pop(job.repair_id, None)
        outcomes = {f: self._chunk_outcome(job, c) for f, c in job.chunks.items()}
        self._finalize_repair_obs(job, outcomes[job.primary.failed_node])
        job.on_done(outcomes)

    def _chunk_outcome(self, job: RepairJob, chunk: _ChunkRepair) -> RepairOutcome:
        """Terminal outcome of one chunk of a settled job (persisting the
        rebuilt bytes of a successful storing job)."""
        ok = chunk.complete and not job.failed
        if ok and job.store:
            self._persist(job, chunk)
        common = dict(
            plan=chunk.plan,
            bytes_received=chunk.received,
            attempts=max(job.attempt, 1),
            retries=job.retries,
            replans=job.replans,
            bytes_retransferred=job.bytes_retransferred,
            corruption_detected=job.corruption_detected,
            quarantined_chunks=tuple(sorted(job.quarantined)),
        )
        if not ok:
            return RepairOutcome(
                rebuilt=None,
                elapsed_seconds=self.events.now - job.start_time,
                verified=False,
                status=FAILED,
                failure_reason=job.failure_reason or "repair did not complete",
                **common,
            )
        failed_store = self.nodes[chunk.failed_node].store
        verified = failed_store.has(job.stripe_id, chunk.lost_chunk) and bool(
            np.array_equal(
                chunk.buffer, failed_store.get(job.stripe_id, chunk.lost_chunk)
            )
        )
        if not verified and chunk.integrity_ok is True:
            # the "original" on the failed/quarantined node was itself
            # rotten (or gone): parity verification over the clean
            # stored chunks proved the rebuilt value correct
            verified = True
        if job.escalated:
            status = ESCALATED
        else:
            status = DEGRADED if job.degraded else COMPLETED
        return RepairOutcome(
            rebuilt=chunk.buffer,
            elapsed_seconds=chunk.last_arrival - job.start_time,
            verified=verified,
            status=status,
            **common,
        )

    def _persist(self, job: RepairJob, chunk: _ChunkRepair) -> None:
        """Store a rebuilt chunk at its requester and relocate it there."""
        store = self.nodes[chunk.requester].store
        store.put(job.stripe_id, chunk.lost_chunk, chunk.buffer)
        if not store.verify(job.stripe_id, chunk.lost_chunk):
            # a torn write garbled the persisted copy; the digest caught
            # it on readback — rewrite from the in-memory buffer (the
            # tear is one-shot)
            job.corruption_detected = True
            log.debug(
                "%s: torn write caught on readback at node %d",
                chunk.repair_id, chunk.requester,
            )
            if self.metrics.enabled:
                self.metrics.counter(
                    "repro_integrity_corruption_detected_total",
                    "Silent-corruption detections, by detection path.",
                    kind="torn-write",
                ).inc()
            if self.tracer.enabled:
                self.tracer.event(
                    job.span, "integrity.torn_write", node=chunk.requester
                )
            store.put(job.stripe_id, chunk.lost_chunk, chunk.buffer)
        self.master.relocate_chunk(job.stripe_id, chunk.lost_chunk, chunk.requester)

    # ---- heartbeats ---------------------------------------------------- #

    def _ensure_heartbeat(self) -> None:
        if not self._heartbeat_on or self._heartbeat_pending:
            return
        self._heartbeat_pending = True
        self.events.schedule(self._heartbeat_period_s, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self._heartbeat_pending = False
        now = self.events.now
        snap = self.master.snapshot()
        for i in range(self.num_nodes):
            if not self._alive[i]:
                continue  # crashed nodes stop reporting; leases expire
            node = self.nodes[i]
            if node.reports_suppressed_until > now:
                continue
            up = float(snap.uplink[i])
            if node.rate_cap_mbps is not None:
                up = min(up, node.rate_cap_mbps)
            report = BandwidthReport(
                node=i, uplink_mbps=up, downlink_mbps=float(snap.downlink[i])
            )
            if node.report_delay_s > 0:
                self.events.schedule(
                    node.report_delay_s,
                    lambda r=report: self._submit_report(r),
                )
            else:
                self._submit_report(report)
        self.master.check_leases(now)
        if self._jobs:  # settled jobs leave the table
            self._ensure_heartbeat()

    def _submit_report(self, report: BandwidthReport) -> None:
        try:
            self.master.on_bandwidth_report(report, now=self.events.now)
        except DeadNodeError:
            if self._alive[report.node]:
                # lease false positive: the node is alive and reporting —
                # rejoin it (the master's dead set is a belief, not truth)
                self.master.mark_node_live(report.node)
                self.master.on_bandwidth_report(report, now=self.events.now)

    # ---- observability -------------------------------------------------- #

    def _note_sends(self, sends: list) -> None:
        """Obs accounting of decided sends (installed only when obs is
        live), in the order they were sent.

        Credits each sender's byte counter, charges the receiver's
        downlink occupancy, and records one uplink + one downlink
        ``transfer`` span per slice copy — one batched tracer call per
        task-hop (the Chrome exporter lays them out on per-node lanes).
        """
        by_stream: dict[SliceStream, list] = {}
        num_nodes = len(self.nodes)
        for stream, send in sends:
            dest = stream.destination
            if 0 <= dest < num_nodes:
                self.nodes[dest].downlink_busy_s += send.arrive - send.start
            by_stream.setdefault(stream, []).append(send)
        for stream, batch in by_stream.items():
            if self.metrics.enabled:
                self.metrics.counter(
                    "repro_node_bytes_sent_total",
                    "Payload bytes each node has put on the wire.",
                    node=str(stream.source),
                ).inc(sum(s.hi - s.lo for s in batch))
            if self.tracer.enabled:
                wire, pid = stream.key
                src, dst = stream.source, stream.destination
                self.tracer.record_transfers(
                    self._pipeline_spans.get(stream.key),
                    [(src, dst, s.lo, s.hi, s.start, s.arrive, wire, pid)
                     for s in batch],
                )

    def trace_fault(self, fault) -> None:
        """Observability hook called by :class:`~repro.faults.FaultInjector`
        as each fault is applied."""
        kind = type(fault).__name__
        log.debug("fault injected: %r", fault)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_faults_injected_total",
                "Faults applied by the injector, by kind.",
                kind=kind,
            ).inc()
        if self.tracer.enabled:
            attrs = {"kind": kind}
            node = getattr(fault, "node", None)
            if node is not None:
                attrs["node"] = node
            self.tracer.event(self._live_span(), "fault.injected", **attrs)

    def _live_span(self):
        """The first unsettled job's repair span (parent of fault events)."""
        return next((j.span for j in self._jobs.values() if j.span), None)

    def _finalize_repair_obs(
        self, job: RepairJob, outcome: RepairOutcome
    ) -> None:
        """Close the repair span and publish end-of-repair metrics."""
        start_time, busy_before = job.start_time, job.busy_before
        elapsed = max(outcome.elapsed_seconds, 0.0)
        t_max = float(outcome.plan.total_rate) if outcome.plan else 0.0
        achieved = (
            job.primary.done_bytes / units.mbps_to_bytes_per_s(1.0) / elapsed
            if outcome.plan is not None and elapsed > 0
            else None
        )
        if self.tracer.enabled and job.span:
            self.tracer.set_attrs(
                job.span,
                status=outcome.status,
                attempts=outcome.attempts,
                retries=outcome.retries,
                replans=outcome.replans,
                bytes_received=outcome.bytes_received,
                bytes_retransferred=outcome.bytes_retransferred,
                verified=outcome.verified,
            )
            if outcome.failure_reason:
                self.tracer.set_attrs(
                    job.span, failure_reason=outcome.failure_reason
                )
            self.tracer.end_span(job.span, t=start_time + elapsed)
        if self.fleet.enabled:
            now = self.events.now
            algo = self.master.algorithm.name
            f = self.fleet
            f.observe("repro_repair_seconds", elapsed, t=now, algorithm=algo)
            f.observe(
                "repro_repair_failed",
                1.0 if outcome.status == FAILED else 0.0,
                t=now,
                algorithm=algo,
            )
            if achieved is not None:
                f.observe("repro_achieved_mbps", achieved, t=now, algorithm=algo)
                if t_max > 0:
                    f.observe(
                        "repro_throughput_ratio",
                        achieved / t_max,
                        t=now,
                        algorithm=algo,
                    )
        if self.slo is not None:
            self.slo.evaluate(self.events.now)
        m = self.metrics
        if not m.enabled:
            return
        m.counter(
            "repro_repairs_total", "Repairs by terminal status.",
            status=outcome.status,
        ).inc()
        m.histogram(
            "repro_repair_seconds",
            "End-to-end repair time (simulated seconds).",
        ).observe(elapsed)
        m.counter(
            "repro_retries_total",
            "Attempts aborted by the progress watchdog.",
        ).inc(outcome.retries)
        m.counter(
            "repro_replans_total", "Plans computed after the first.",
        ).inc(outcome.replans)
        m.counter(
            "repro_bytes_retransferred_total",
            "Requester bytes scrubbed and repaired again after aborts.",
        ).inc(outcome.bytes_retransferred)
        m.counter(
            "repro_bytes_received_total",
            "Payload bytes folded into requester assembly buffers.",
        ).inc(outcome.bytes_received)
        if outcome.plan is not None:
            m.gauge(
                "repro_t_max_mbps",
                "Planned repair throughput t_max of the last plan (Mbps).",
            ).set(t_max)
        if achieved is not None:
            m.gauge(
                "repro_achieved_mbps",
                "Decoded-chunk throughput actually achieved (Mbps).",
            ).set(achieved)
            if t_max > 0:
                m.gauge(
                    "repro_throughput_ratio",
                    "Achieved throughput over the planner's t_max "
                    "(1.0 = optimal, lower = overheads/faults).",
                ).set(achieved / t_max)
        m.gauge(
            "repro_event_queue_executed",
            "Simulation events executed so far.",
        ).set(self.events.executed)
        m.gauge(
            "repro_event_queue_peak_depth",
            "High-water mark of the pending-event queue.",
        ).set(self.events.peak_pending)
        window = self.events.now - start_time
        if busy_before is not None and window > 0:
            for i, node in enumerate(self.nodes):
                up0, down0 = busy_before[i]
                m.gauge(
                    "repro_node_uplink_busy_fraction",
                    "Fraction of the repair window each uplink was busy.",
                    node=str(i),
                ).set(min(1.0, (node.uplink_busy_s - up0) / window))
                m.gauge(
                    "repro_node_downlink_busy_fraction",
                    "Fraction of the repair window each downlink was busy.",
                    node=str(i),
                ).set(min(1.0, (node.downlink_busy_s - down0) / window))

    # ---- internals ---------------------------------------------------- #

    def _assign_if_alive(self, node: int, task: TransferTask) -> None:
        # a same-batch assign may race an abort (e.g. a bad-chunk
        # quarantine at assign time): never execute tasks of a retired wire
        if self._alive[node] and (task.repair_id or task.stripe_id) not in self._retired:
            self.nodes[node].assign(task)

    def _landing(self, stream: SliceStream, at: float) -> float | None:
        """When a copy checked at ``at`` lands at the stream's
        destination: copies from or to dead nodes vanish, a stalled
        receiver takes them when its stall elapses."""
        dest = stream.destination
        if not self._alive[stream.source] or not self._alive[dest]:
            return None
        until = self.nodes[dest].stalled_until
        return until if until > at else at

    def _may_retransmit(self, stream: SliceStream) -> bool:
        """A garbled copy is resent by a live sender of a live epoch."""
        return (
            stream.cancelled_at is None
            and self._alive[stream.source]
            and stream.key[0] not in self._retired
        )

    def _deliver_stream(self, destination: int, stream: SliceStream) -> None:
        """Route a solved stream to a hub task or into requester assembly."""
        rid, pid = stream.key
        node = self.nodes[destination]
        if stream.key in node._tasks:
            node.receive(stream)
            return
        routed = self._wire_job.get(rid)
        if routed is None:
            if rid in self._retired:
                return  # a stale epoch: nothing it sends is folded
            raise RuntimeError(
                f"stream for {stream.task.stripe_id} delivered to unexpected node "
                f"{destination}"
            )
        job, chunk = routed
        if chunk.requester != destination:
            if (destination, pid) in chunk.hubs:
                node.park(stream)  # the hub's own task is not assigned yet
                return
            raise RuntimeError(
                f"stream for {stream.task.stripe_id} delivered to unexpected node "
                f"{destination}"
            )
        sources = chunk.expected.get(pid)
        if sources is None or stream.source not in sources:
            raise RuntimeError(
                f"unexpected stream from {stream.source} for pipeline {pid}"
            )
        pipe = chunk.pipes.setdefault(pid, _Pipe())
        if stream.source in pipe.streams:
            raise RuntimeError(
                f"duplicate stream from {stream.source} for pipeline {pid}"
            )
        pipe.streams[stream.source] = stream
        if len(pipe.streams) == len(sources):
            self._schedule_pipe(job, chunk, pid, pipe)

    def _schedule_pipe(self, job, chunk, pid: int, pipe: _Pipe) -> None:
        """(Re)place a pipeline's completion event at its last landing."""
        due = -1.0
        for stream in pipe.streams.values():
            if stream.lands_by is None:
                due = None
                break
            due = max(due, stream.lands_by)
        if pipe.event is not None:
            if due == pipe.due and self.events.is_pending(pipe.event):
                return
            self.events.cancel(pipe.event)
            pipe.event = None
        pipe.due = due
        if due is not None:
            pipe.event = self.events.schedule_at(
                due, lambda: self._pipe_done(job, chunk, pid, pipe)
            )

    def _reschedule_pipes(self) -> None:
        """After a split: move every live pipeline's completion event."""
        for job, chunk in list(self._wire_job.values()):
            for pid, pipe in list(chunk.pipes.items()):
                if len(pipe.streams) == len(chunk.expected.get(pid, ())):
                    self._schedule_pipe(job, chunk, pid, pipe)

    def _pipe_done(self, job, chunk, pid: int, pipe: _Pipe) -> None:
        """Every slice of a pipeline has landed intact at the requester:
        fold the segment, release the pipeline's streams, settle it."""
        pipe.event = None
        if chunk.pipes.get(pid) is not pipe:
            return
        self.plane.sync()
        self._fold(job, chunk, pid, pipe, final=True)
        del chunk.pipes[pid]
        stack = list(pipe.streams.values())
        while stack:
            stream = stack.pop()
            stack.extend(stream.inputs.values())
            self.plane.drop(stream)
        if self.tracer.enabled and chunk.outstanding[pid] <= 0:
            span = self._pipeline_spans.pop((chunk.wire_id, pid), None)
            if span:
                self.tracer.end_span(span)
        if chunk.complete and job.complete:
            self._finish_job(job, retire=False)

    def _sync_job(self, job: RepairJob) -> None:
        """Bring the node counters and ``job``'s requester assembly up to
        now: fold every slice that has landed by now."""
        self.plane.sync()
        for chunk in job.chunks.values():
            for pid, pipe in chunk.pipes.items():
                if len(pipe.streams) == len(chunk.expected.get(pid, ())):
                    self._fold(job, chunk, pid, pipe, final=False)

    def _fold(self, job, chunk, pid: int, pipe: _Pipe, *, final: bool) -> None:
        """XOR landed slices into the chunk's assembly buffer.

        ``final`` folds everything (the pipeline's last slice has landed);
        otherwise only slices that landed strictly before now.  A slice
        whose every sender is folded is decode-complete.
        """
        cpb = self.compute_s_per_byte
        buffer = chunk.buffer
        want = len(chunk.expected[pid])
        if final and pipe.got is None:
            # the common case: one XOR per sender over the whole segment
            for stream in pipe.streams.values():
                lo, hi = stream.task.start, stream.task.stop
                span = buffer[lo:hi]
                np.bitwise_xor(span, stream.payload, out=span)
                chunk.received += hi - lo
                job.received += hi - lo
                last = max(
                    c + cpb * (b - a)
                    for c, (a, b) in zip(stream.clean, map(stream.bounds, range(stream.num_slices)))
                )
                chunk.last_arrival = max(chunk.last_arrival, last)
            chunk.completed.append((lo, hi))
            chunk.done_bytes += hi - lo
            chunk.outstanding[pid] -= hi - lo
            return
        now = self.events.now
        geometry = next(iter(pipe.streams.values()))
        if pipe.got is None:
            pipe.got = [0] * geometry.num_slices
        got = pipe.got
        for src, stream in pipe.streams.items():
            folded = pipe.folded.setdefault(src, [False] * stream.num_slices)
            for i, c in enumerate(stream.clean):
                if folded[i] or c is None or (not final and c >= now):
                    continue
                folded[i] = True
                lo, hi = stream.bounds(i)
                span = buffer[lo:hi]
                np.bitwise_xor(span, stream.slice_payload(i), out=span)
                chunk.received += hi - lo
                job.received += hi - lo
                chunk.last_arrival = max(chunk.last_arrival, c + cpb * (hi - lo))
                got[i] += 1
                if got[i] == want:
                    chunk.completed.append((lo, hi))
                    chunk.done_bytes += hi - lo
                    chunk.outstanding[pid] -= hi - lo
