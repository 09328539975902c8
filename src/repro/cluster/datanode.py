"""Data node: stores chunks and executes pipelined transfer tasks.

A node executes :class:`~repro.cluster.messages.TransferTask` assignments
with the execution model of :mod:`repro.sim.transfer` — leaf senders
stream coefficient-scaled slices of their chunk; hub nodes combine each
incoming slice with their own contribution before forwarding; every edge
is a FIFO serialised at its planned rate with a fixed per-slice overhead.

It does so a *segment* at a time.  When a task's inputs are known (a
leaf at assign, a hub once every upstream stream is attached) the task
solves its whole slice schedule at once: per slice, the pump time (when
the old one-event-per-slice model would have decided to send it), the
start of transmission and the arrival, with exactly that model's float
arithmetic (``start = max(ready, edge_free, stalled_until)`` then
``edge_free = start + occupancy``).  The payload comes from one
``mul_chunk`` over the segment (a hub adds one XOR per input) and the
solved stream is handed to its destination in one call; the requester
then needs a single event per pipeline, at its last arrival.

Faults split the schedule rather than replaying it: node state changes
(:meth:`DataPlane.resolve`) keep every send already decided — pump time
at or before the split — and re-solve the rest under the new state, so
a crash, stall, rate cap, wire-corruption window or cancellation lands
on exactly the slices the per-slice model would have given it.  Wire
corruption is decided at solve time (a copy whose transmission starts
inside the window is garbled), the receiving hop re-checksums it and
the sender retransmits it on its edge as soon as the garbled copy lands.

Progress is read, not pushed: :meth:`DataPlane.sync` brings every node's
``bytes_sent`` / ``uplink_busy_s`` (and, through the cluster's hook, the
transfer spans and byte counters) up to the current simulated time, in
the order the sends were decided.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..ec import backend as ec_backend
from ..integrity.digest import slice_checksum
from ..net import units
from ..sim.events import EventQueue
from .chunkstore import ChunkStore
from .messages import TransferTask

_INF = float("inf")

#: resends per slice one solve pass may schedule before it pauses
RESEND_BUDGET = 4


class _Send:
    """One copy of one slice on a task's outgoing edge."""

    __slots__ = ("idx", "lo", "hi", "pump", "start", "arrive", "occ",
                 "garbled", "land", "check", "resend", "issued", "noted")

    def __init__(self, idx, lo, hi, pump, start, arrive, occ, garbled, resend):
        self.idx = idx
        #: the slice's byte range in the chunk
        self.lo = lo
        self.hi = hi
        #: when the sender decided to send (edge free + inputs in)
        self.pump = pump
        self.start = start
        self.arrive = arrive
        self.occ = occ
        #: garbled in flight (fails the receiving hop's checksum)
        self.garbled = garbled
        #: when the copy reaches the destination (None: it vanished)
        self.land: float | None = None
        #: time of the last delivery decision (arrival or deferral)
        self.check = arrive
        #: a retransmission of a copy that arrived garbled
        self.resend = resend
        #: a garbled copy whose retransmission was sent
        self.issued = False
        #: the receiving hop's detection of a garbled copy was reported
        self.noted = False


class SliceStream:
    """One task-hop: the slice stream a node sends to its destination.

    Holds the task's whole schedule (:attr:`sends`, ordered by pump
    time), its clean payload over the segment and the per-slice wire
    checksums; the destination reads :attr:`clean` — when each slice's
    first intact copy landed — instead of receiving slice messages.
    """

    __slots__ = (
        "node", "task", "key", "source", "destination", "num_slices",
        "_bounds", "seq", "assigned_at", "inputs", "down", "own", "payload",
        "_sums", "sends", "clean", "cancelled_at", "resume_event",
        "accounted", "bad", "lands_by",
    )

    def __init__(self, node: "DataNode", task: TransferTask, num: int,
                 now: float, seq: int) -> None:
        self.node = node
        self.task = task
        self.key = (task.repair_id or task.stripe_id, task.pipeline_id)
        self.source = node.node_id
        self.destination = task.destination
        self.num_slices = num
        # balanced split of the segment into ``num`` windows: window i
        # spans [start + i*q + min(i, r), ...) with q, r = divmod(len, num)
        # — the same formula on every node of a pipeline, so slice
        # boundaries line up across hops
        q, r = divmod(task.stop - task.start, num)
        cuts = [task.start + i * q + min(i, r) for i in range(num + 1)]
        self._bounds = list(zip(cuts, cuts[1:]))
        self.seq = seq
        self.assigned_at = now
        #: upstream streams by source node (hubs)
        self.inputs: dict[int, SliceStream] = {}
        #: the hub stream this one feeds (None: the requester)
        self.down: SliceStream | None = None
        self.own: np.ndarray | None = None
        self.payload: np.ndarray | None = None
        self._sums: list[int | None] = [None] * num
        self.sends: list[_Send] = []
        #: per slice: when its first intact copy landed (None: never)
        self.clean: list[float | None] = [None] * num
        self.cancelled_at: float | None = None
        #: pending event continuing a paused schedule
        self.resume_event = None
        #: sends already charged to the node counters and the obs hook
        self.accounted = 0
        #: garbled copies, in send order
        self.bad: list[_Send] = []
        #: latest landing of any intact slice (None: some slice is lost)
        self.lands_by: float | None = None

    # ---- geometry ------------------------------------------------------ #

    def bounds(self, idx: int) -> tuple[int, int]:
        """Byte range ``[lo, hi)`` of slice ``idx`` in the chunk."""
        return self._bounds[idx]

    def slice_payload(self, idx: int) -> np.ndarray:
        lo, hi = self.bounds(idx)
        base = self.task.start
        return self.payload[lo - base : hi - base]

    def checksum(self, idx: int) -> int:
        """Wire checksum of slice ``idx`` as the sender stamps it."""
        s = self._sums[idx]
        if s is None:
            s = self._sums[idx] = slice_checksum(self.slice_payload(idx))
        return s

    @property
    def ready(self) -> bool:
        return all(s in self.inputs for s in self.task.wait_for)

    # ---- payload ------------------------------------------------------- #

    def combine(self, lo: int = 0, hi: int | None = None) -> None:
        """payload[lo:hi] = own contribution XOR every input's payload."""
        hi = len(self.own) if hi is None else hi
        if self.payload is None:
            self.payload = self.own.copy()
        else:
            self.payload[lo:hi] = self.own[lo:hi]
        for up in self.inputs.values():
            np.bitwise_xor(self.payload[lo:hi], up.payload[lo:hi],
                           out=self.payload[lo:hi])

    def reread(self, after: float) -> list[int]:
        """Re-read the own contribution of slices whose first intact
        input landed after ``after`` (a hub reads its chunk slice by
        slice as the inputs arrive); returns the slices re-read."""
        t = self.task
        redo = []
        for i in range(self.num_slices):
            first = min(
                (up.clean[i] for up in self.inputs.values()
                 if up.clean[i] is not None),
                default=None,
            )
            if first is None or first > after:
                redo.append(i)
        for i in redo:
            lo, hi = self.bounds(i)
            a, b = lo - t.start, hi - t.start
            self.own[a:b] = self.node.own_contribution(t, lo, hi)
        return redo

    def refresh(self, idxs: list[int]) -> None:
        """Recombine slices ``idxs`` and every hop downstream of them."""
        stream = self
        while stream is not None:
            base = stream.task.start
            for i in idxs:
                lo, hi = stream.bounds(i)
                stream.combine(lo - base, hi - base)
                stream._sums[i] = None
            stream = stream.down

    # ---- the schedule -------------------------------------------------- #

    def _input_ready(self, idx: int) -> float | None:
        """When slice ``idx``'s last intact input landed (None: never)."""
        last = self.assigned_at
        for up in self.inputs.values():
            c = up.clean[idx]
            if c is None:
                return None
            if c > last:
                last = c
        return last

    def solve(self, t: float, plane: "DataPlane", *, resume: bool = False) -> None:
        """(Re-)solve the schedule from time ``t``.

        Sends pumped at or before ``t`` are kept (their landings are
        re-decided when still pending); everything later is solved again
        under the node's current state: rate cap, stall, wire-corruption
        window, cancellation, and the destination's liveness and stall.

        A retransmit chain can be endless (a wire that garbles every
        copy), so one pass sends at most :data:`RESEND_BUDGET` resends per
        slice and then pauses; ``resume=True`` continues a paused
        schedule at its pause time ``t`` (nothing at ``t`` was sent yet).
        """
        node = self.node
        sends = self.sends
        keep = len(sends)
        while keep and (sends[keep - 1].pump >= t if resume else sends[keep - 1].pump > t):
            keep -= 1
        del sends[keep:]
        n = self.num_slices
        clean: list[float | None] = [None] * n
        pending: list[tuple[float, int, int]] = []  # (land, order, slice)
        landing = plane.landing
        last_copy: dict[int, _Send] = {}
        edge_free = self.assigned_at
        sent = 0
        prev_arrive = self.assigned_at
        for s in sends:
            if s.check > t:
                c = s.arrive if s.arrive > t else s.check
                s.land = landing(self, c)
                s.check = c if s.land is None else s.land
            last_copy[s.idx] = s
            if s.arrive > edge_free:
                edge_free = s.arrive
            if not s.resend:
                sent += 1
                prev_arrive = s.arrive
        for idx, s in last_copy.items():
            if s.land is None:
                continue
            if not s.garbled:
                clean[idx] = s.land
            elif s.land > t or (resume and s.land == t):
                # caught after the split: its retransmit is re-decided
                s.issued = False
                pending.append((s.land, s.pump, idx))
        self.bad = [s for s in sends if s.garbled]
        heapq.heapify(pending)
        task = self.task
        cap = node.rate_cap_mbps
        rate_mbps = task.rate_mbps if cap is None else min(task.rate_mbps, cap)
        rate = units.mbps_to_bytes_per_s(rate_mbps)
        overhead = node.slice_overhead_s
        stalled = node.stalled_until
        corrupt_until = node.wire_corrupt_until if node._wire_rng is not None else -_INF
        cancelled = self.cancelled_at
        hub = bool(task.wait_for)
        cpb = node.compute_s_per_byte
        may_resend = plane.may_retransmit(self)
        budget = RESEND_BUDGET * n
        paused = None
        while True:
            pump = _INF
            din = None
            if sent < n:
                din = self._input_ready(sent) if hub else self.assigned_at
                if din is not None:
                    pump = din if din > prev_arrive else prev_arrive
                    if cancelled is not None and pump > cancelled:
                        pump = _INF
            resend_at = pending[0][0] if pending else _INF
            if resend_at == _INF and pump == _INF:
                break
            if resend_at <= pump:
                if budget <= 0:
                    paused = resend_at
                    break
                budget -= 1
                _, _, idx = heapq.heappop(pending)
                if not may_resend or (cancelled is not None and resend_at > cancelled):
                    continue
                last_copy[idx].issued = True
                lo, hi = self.bounds(idx)
                occ = (hi - lo) / rate + overhead
                start = max(resend_at, edge_free, stalled)
                s = _Send(idx, lo, hi, resend_at, start, start + occ, occ,
                          False, True)
            else:
                idx = sent
                lo, hi = self.bounds(idx)
                ready = din + cpb * (hi - lo) if hub else self.assigned_at
                occ = (hi - lo) / rate + overhead
                start = max(ready, edge_free, stalled)
                s = _Send(idx, lo, hi, pump, start, start + occ, occ, False,
                          False)
                sent += 1
                prev_arrive = s.arrive
            edge_free = s.arrive
            if start < corrupt_until and hi > lo:
                s.garbled = plane.garble(self, s)
            s.land = landing(self, s.arrive)
            s.check = s.arrive if s.land is None else s.land
            sends.append(s)
            last_copy[idx] = s
            if s.land is None:
                clean[idx] = None
            elif s.garbled:
                self.bad.append(s)
                heapq.heappush(pending, (s.land, s.pump, idx))
            else:
                clean[idx] = s.land
        plane.pause(self, paused)
        plane.watch(self)
        self.clean = clean
        latest = -_INF
        for c in clean:
            if c is None:
                latest = None
                break
            if c > latest:
                latest = c
        self.lands_by = latest

    def tail(self) -> float:
        """The last time any copy of this stream is still in flight."""
        return max((max(s.arrive, s.check) for s in self.sends), default=0.0)

    def unsent(self) -> int:
        return self.num_slices - sum(1 for s in self.sends if not s.resend)


class DataPlane:
    """The solved task schedules of every node sharing one event queue.

    A cluster creates one and hands it to all its nodes (a standalone
    node makes its own).  It keeps the active streams in the order they
    were first solved — upstream before downstream — so a split can
    re-solve them all in one pass, and it charges decided sends to the
    node counters.  The cluster installs the delivery rules:

    * ``landing(stream, t)`` — when a copy checked at ``t`` lands at the
      stream's destination, or ``None`` if it vanishes;
    * ``may_retransmit(stream)`` — whether a garbled copy is resent;
    * ``on_sends(batch)`` — obs accounting of ``(stream, send)`` pairs,
      in decision order;
    * ``on_bad_copy(stream, send)`` — a garbled copy was caught;
    * ``on_resolved()`` — every stream was re-solved after a split.
    """

    def __init__(self, events: EventQueue) -> None:
        self.events = events
        self.active: dict[SliceStream, None] = {}
        self._seq = itertools.count()
        #: heap of (next unaccounted pump time, tie, stream) — a stream
        #: may appear more than once; stale entries are re-keyed on pop
        self._due: list = []
        self._tie = itertools.count()
        #: streams with garbled copies not yet reported
        self._bad: dict[SliceStream, None] = {}
        self.landing = lambda stream, t: t
        self.may_retransmit = lambda stream: True
        self.on_sends = None
        self.on_bad_copy = None
        self.on_resolved = None
        #: slice copies put on the wire so far (a work counter)
        self.slice_hops = 0

    def next_seq(self) -> int:
        return next(self._seq)

    def start(self, stream: SliceStream) -> None:
        """First solve of a stream whose inputs are all known; hands it
        to its destination."""
        stream.solve(self.events.now, self)
        self.active[stream] = None
        node = stream.node
        if node.deliver is not None:
            node.deliver(stream.destination, stream)

    def pause(self, stream: SliceStream, at: float | None) -> None:
        """(Re)arm, or with ``at=None`` clear, the continuation of a
        schedule paused at ``at``."""
        if stream.resume_event is not None:
            self.events.cancel(stream.resume_event)
            stream.resume_event = None
        if at is not None:
            stream.resume_event = self.events.schedule_at(
                at, lambda: self._resume(stream, at)
            )

    def _resume(self, stream: SliceStream, at: float) -> None:
        stream.resume_event = None
        if stream not in self.active:
            return
        stream.solve(at, self, resume=True)
        self.resolve()

    def resolve(self) -> None:
        """Split every active stream at ``now`` and re-solve the rest."""
        now = self.events.now
        for stream in list(self.active):
            stream.solve(now, self)
        if self.on_resolved is not None:
            self.on_resolved()

    def garble(self, stream: SliceStream, send: _Send) -> bool:
        """Garble a copy in flight; True when the receiving hop's
        checksum catches it (the sender's stored partial stays clean)."""
        rng = stream.node._wire_rng
        payload = stream.slice_payload(send.idx)
        garbled = payload.copy()
        count = min(int(rng.integers(1, 9)), len(garbled))
        positions = rng.choice(len(garbled), size=count, replace=False)
        masks = rng.integers(1, 256, size=count, dtype=np.uint8)
        garbled[positions] ^= masks
        return slice_checksum(garbled) != stream.checksum(send.idx)

    def watch(self, stream: SliceStream) -> None:
        """Note a (re-)solved stream's next send still to be charged."""
        if stream.accounted < len(stream.sends):
            heapq.heappush(
                self._due,
                (stream.sends[stream.accounted].pump, next(self._tie), stream),
            )
        if stream.bad:
            self._bad[stream] = None

    def sync(self) -> None:
        """Charge every send decided by now (pump time <= now), in the
        order the per-slice model would have sent them, and report the
        garbled copies caught by now."""
        now = self.events.now
        if self._bad and self.on_bad_copy is not None:
            for stream in list(self._bad):
                for s in stream.bad:
                    if not s.noted and s.land is not None and s.land <= now:
                        s.noted = True
                        self.on_bad_copy(stream, s)
        due = self._due
        seen = set()
        batch = []
        while due and due[0][0] <= now:
            stream = heapq.heappop(due)[2]
            if stream in seen or stream not in self.active:
                continue
            seen.add(stream)
            sends = stream.sends
            a = stream.accounted
            while a < len(sends) and sends[a].pump <= now:
                batch.append((sends[a].pump, stream.seq, a, stream))
                a += 1
            stream.accounted = a
            if a < len(sends):
                heapq.heappush(due, (sends[a].pump, next(self._tie), stream))
        if not batch:
            return
        batch.sort()  # (pump, stream seq, send index): unique before the stream
        pairs = []
        for _, _, a, stream in batch:
            send = stream.sends[a]
            node = stream.node
            node.bytes_sent += send.hi - send.lo
            node.uplink_busy_s += send.occ
            if send.land is not None and not send.garbled:
                # the receiving hop re-checksums every intact copy
                base = stream.task.start
                view = stream.payload[send.lo - base : send.hi - base]
                if slice_checksum(view) != stream.checksum(send.idx):
                    raise RuntimeError(
                        f"node {stream.destination}: checksum mismatch on "
                        f"intact slice {send.idx} from {stream.source}"
                    )
            pairs.append((stream, send))
        self.slice_hops += len(pairs)
        if self.on_sends is not None:
            self.on_sends(pairs)

    def drop(self, stream: SliceStream) -> None:
        """Release a finished or cancelled stream's state and payload."""
        self.pause(stream, None)
        self.active.pop(stream, None)
        self._bad.pop(stream, None)
        stream.node._tasks.pop(stream.key, None)
        stream.inputs = {}
        stream.down = None
        stream.own = stream.payload = None


class DataNode:
    """One storage node: chunk store + segment task executor."""

    def __init__(
        self,
        node_id: int,
        events: EventQueue,
        *,
        slice_bytes: int = 64 * units.KIB,
        slice_overhead_s: float = 200e-6,
        compute_s_per_byte: float = 1.25e-10,
    ) -> None:
        self.node_id = node_id
        self.events = events
        #: the schedules this node's streams live in; a cluster replaces
        #: it with the one plane all its nodes share
        self.plane = DataPlane(events)
        self.store = ChunkStore()
        self.store.on_mutate = self._on_store_mutate
        self.slice_bytes = slice_bytes
        self.slice_overhead_s = slice_overhead_s
        self.compute_s_per_byte = compute_s_per_byte
        #: streams this node sends, by (wire id, pipeline id)
        self._tasks: dict[tuple[str, int], SliceStream] = {}
        #: upstream streams handed over before this hub's task arrived
        self._inbound: dict[tuple[str, int], dict[int, SliceStream]] = {}
        #: hand-over callback installed by the cluster: (dest, SliceStream)
        self.deliver = None
        #: total payload bytes this node has put on the wire (as of the
        #: last :meth:`DataPlane.sync`)
        self.bytes_sent = 0
        #: cumulative seconds this node's uplink was occupied by sends
        self.uplink_busy_s = 0.0
        #: cumulative seconds of inbound edge occupancy (set by the cluster)
        self.downlink_busy_s = 0.0
        # ---- fault state (set by the cluster's fault hooks) ----------- #
        #: straggler: persistent cap (Mbps) on every rate this node sends at
        self.rate_cap_mbps: float | None = None
        #: stall: no slice may *start* transmitting before this time
        self.stalled_until: float = 0.0
        #: report faults: heartbeat reports dropped until / delayed by
        self.reports_suppressed_until: float = 0.0
        self.report_delay_s: float = 0.0
        #: wire corruption: slices starting before this time are garbled
        #: in flight (the sender's stored data stays intact)
        self.wire_corrupt_until: float = 0.0
        self._wire_rng: np.random.Generator | None = None
        # ---- integrity hooks installed by the cluster ----------------- #
        #: called when this node's stored chunk fails digest verification
        #: at assign time: (node, TransferTask); the cluster quarantines
        #: the chunk and re-plans the repair around it
        self.on_bad_chunk = None

    # ------------------------------------------------------------------ #

    def assign(self, task: TransferTask) -> None:
        """Accept a transfer task from the master and start executing."""
        seg_len = task.stop - task.start
        if seg_len <= 0:
            return
        if task.coeff != 0 and self.on_bad_chunk is not None:
            # read-path digest check: refuse to stream a rotten chunk
            # into the pipeline — the cluster quarantines it and
            # re-plans with a different helper
            if not (
                self.store.has(task.stripe_id, task.chunk_index)
                and self.store.verify(task.stripe_id, task.chunk_index)
            ):
                self.on_bad_chunk(self.node_id, task)
                return
        if task.num_slices is not None:
            num = max(1, min(task.num_slices, seg_len))
        else:
            num = max(1, -(-seg_len // self.slice_bytes))
        plane = self.plane
        stream = SliceStream(self, task, num, self.events.now, plane.next_seq())
        stream.own = self.own_contribution(task, task.start, task.stop)
        self._tasks[stream.key] = stream
        if not task.wait_for:
            stream.payload = stream.own
            plane.start(stream)
            return
        for up in self._inbound.pop(stream.key, {}).values():
            self._attach(stream, up)
        if stream.ready:
            stream.combine()
            plane.start(stream)

    def own_contribution(self, task: TransferTask, lo: int, hi: int) -> np.ndarray:
        """``coeff * chunk[lo:hi]`` (zeros for a pure relay)."""
        if task.coeff == 0:
            return np.zeros(hi - lo, dtype=np.uint8)
        raw = self.store.get_range(task.stripe_id, task.chunk_index, lo, hi)
        # coefficient scaling goes through the EC backend so the hub
        # combine path shares the blocked table kernels with encode
        return ec_backend.get_backend().mul_chunk(task.coeff, raw)

    def cancel_repair(self, repair_id: str) -> int:
        """Stop executing tasks of a retired repair attempt.

        Copies already on the wire still arrive (packets in flight);
        nothing further is sent.  The cancelled streams are charged up
        to now and released.  Returns the number of tasks cancelled.
        """
        mine = [s for key, s in self._tasks.items() if key[0] == repair_id]
        for key in [k for k in self._inbound if k[0] == repair_id]:
            del self._inbound[key]
        if not mine:
            return 0
        plane = self.plane
        now = self.events.now
        tail = now
        for stream in mine:
            stream.cancelled_at = now
            if stream in plane.active:
                stream.solve(now, plane)
                tail = max(tail, stream.tail())
        plane.sync()
        for stream in mine:
            plane.drop(stream)
        if tail > now:
            # the in-flight copies still occupy the simulated clock
            self.events.schedule_at(tail, _in_flight)
        return len(mine)

    def receive(self, stream: SliceStream) -> None:
        """Attach an upstream stream to the matching hub task."""
        state = self._tasks.get(stream.key)
        if state is None:
            raise RuntimeError(
                f"node {self.node_id}: stream for unknown task {stream.key}"
            )
        self._attach(state, stream)
        if state.ready and state.payload is None:
            state.combine()
            self.plane.start(state)

    def _attach(self, state: SliceStream, stream: SliceStream) -> None:
        t, u = state.task, stream.task
        if u.start != t.start or stream.num_slices != state.num_slices:
            raise RuntimeError(
                f"node {self.node_id}: misaligned stream [{u.start}, {u.stop}) "
                f"in {stream.num_slices} slices from {stream.source}"
            )
        if u.stop != t.stop or len(stream.payload) != t.stop - t.start:
            raise RuntimeError(
                f"node {self.node_id}: stream size {len(stream.payload)} "
                f"!= expected {t.stop - t.start}"
            )
        if stream.source in state.inputs:
            raise RuntimeError(
                f"node {self.node_id}: duplicate stream from {stream.source}"
            )
        if stream.source not in t.wait_for:
            raise RuntimeError(
                f"node {self.node_id}: unexpected stream from {stream.source}"
            )
        state.inputs[stream.source] = stream
        stream.down = state

    def park(self, stream: SliceStream) -> None:
        """Hold a stream for a hub task that is not assigned yet."""
        waiting = self._inbound.setdefault(stream.key, {})
        if stream.source in waiting:
            raise RuntimeError(
                f"node {self.node_id}: duplicate stream from {stream.source}"
            )
        waiting[stream.source] = stream

    def _on_store_mutate(self, stripe_id: str, chunk_index: int) -> None:
        """A stored chunk changed: hubs still to read slices of it pick
        up the new bytes, as a slice-by-slice reader would."""
        now = self.events.now
        for stream in list(self._tasks.values()):
            t = stream.task
            if not (
                t.wait_for
                and t.coeff != 0
                and t.stripe_id == stripe_id
                and t.chunk_index == chunk_index
                and self.store.has(stripe_id, chunk_index)
            ):
                continue
            if stream.payload is None:  # no input has landed yet
                stream.own = self.own_contribution(t, t.start, t.stop)
                continue
            redo = stream.reread(now)
            if redo:
                stream.refresh(redo)

    def pending_tasks(self) -> int:
        """Tasks not yet fully sent (diagnostic)."""
        return sum(1 for s in self._tasks.values() if s.unsent())


def _in_flight() -> None:
    """Marks the arrival of copies sent before their task was cancelled."""
