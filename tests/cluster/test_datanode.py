"""DataNode segment execution unit tests (the stream API)."""

import numpy as np
import pytest

from repro.cluster import DataNode, DataPlane, TransferTask
from repro.ec import gf256
from repro.sim import EventQueue


def make_node(node_id=1, slice_bytes=256, plane=None, events=None, **kw):
    events = events or EventQueue()
    node = DataNode(node_id, events, slice_bytes=slice_bytes, **kw)
    if plane is not None:
        node.plane = plane  # nodes of one cluster share a plane
    delivered = []
    node.deliver = lambda dest, stream: delivered.append((dest, stream))
    return node, events, delivered


def leaf_task(chunk_index=0, coeff=3, start=0, stop=1024, dest=9, rate=100.0,
              num_slices=None, pipeline_id=7):
    return TransferTask(
        stripe_id="s", pipeline_id=pipeline_id, chunk_index=chunk_index,
        coeff=coeff, start=start, stop=stop, destination=dest, rate_mbps=rate,
        num_slices=num_slices,
    )


def slices(stream):
    """(lo, hi, payload, arrival) of every slice copy, in send order."""
    return [
        (*stream.bounds(s.idx), stream.slice_payload(s.idx), s.arrive)
        for s in stream.sends
    ]


class TestLeafSending:
    def test_sends_scaled_slices_in_order(self):
        node, events, delivered = make_node()
        chunk = np.arange(1024, dtype=np.uint8)
        node.store.put("s", 0, chunk)
        node.assign(leaf_task())
        events.run()
        ((dest, stream),) = delivered  # the whole segment, handed over once
        assert dest == 9
        sent = slices(stream)
        assert len(sent) == 4  # 1024 / 256
        assert [lo for lo, _, _, _ in sent] == [0, 256, 512, 768]
        for lo, hi, payload, _ in sent:
            expected = gf256.mul_chunk(3, chunk[lo:hi])
            assert np.array_equal(payload, expected)

    def test_window_count_override(self):
        node, events, delivered = make_node()
        node.store.put("s", 0, np.zeros(1000, dtype=np.uint8))
        node.assign(leaf_task(stop=1000, num_slices=3))
        events.run()
        sizes = [hi - lo for lo, hi, _, _ in slices(delivered[0][1])]
        assert len(sizes) == 3
        assert sorted(sizes) == [333, 333, 334]
        assert sum(sizes) == 1000

    def test_fifo_serialisation_times(self):
        node, events, delivered = make_node(slice_overhead_s=0.0)
        node.store.put("s", 0, np.zeros(1024, dtype=np.uint8))
        node.assign(leaf_task(rate=8.0))  # 1 byte/us
        events.run()
        stream = delivered[0][1]
        # 256 bytes at 1e6 B/s = 256 us per slice, strictly serialised
        assert [a for _, _, _, a in slices(stream)] == pytest.approx(
            [256e-6 * i for i in (1, 2, 3, 4)]
        )
        assert stream.clean == [a for _, _, _, a in slices(stream)]

    def test_empty_segment_ignored(self):
        node, events, delivered = make_node()
        node.assign(leaf_task(start=100, stop=100))
        events.run()
        assert delivered == []
        assert node.pending_tasks() == 0

    def test_counters_read_at_sync(self):
        node, events, delivered = make_node(slice_overhead_s=0.0)
        node.store.put("s", 0, np.zeros(1024, dtype=np.uint8))
        node.assign(leaf_task(rate=8.0))
        node.plane.sync()
        assert node.bytes_sent == 256  # only slice 0 is pumped at t=0
        events.schedule_at(1e-3, lambda: None)
        events.run()
        node.plane.sync()
        assert node.bytes_sent == 1024
        assert node.uplink_busy_s == pytest.approx(4 * 256e-6)


class TestHubCombining:
    def _hub_setup(self):
        events = EventQueue()
        plane = DataPlane(events)
        node, _, delivered = make_node(node_id=2, events=events, plane=plane)
        chunk = np.full(512, 7, dtype=np.uint8)
        node.store.put("s", 1, chunk)
        task = TransferTask(
            stripe_id="s", pipeline_id=7, chunk_index=1, coeff=5,
            start=0, stop=512, destination=9, rate_mbps=100.0,
            wait_for=(4,), num_slices=2,
        )
        node.assign(task)
        return node, events, delivered, chunk

    def _upstream(self, hub, payload, *, start=0, stop=512, num_slices=2,
                  pipeline_id=7):
        """A leaf on node 4 whose stream (coeff 1) carries ``payload``."""
        leaf, _, sent = make_node(node_id=4, events=hub.events, plane=hub.plane)
        chunk = np.zeros(512, dtype=np.uint8)
        chunk[start:stop] = payload
        leaf.store.put("s", 0, chunk)
        leaf.assign(leaf_task(coeff=1, start=start, stop=stop, dest=2,
                              num_slices=num_slices, pipeline_id=pipeline_id))
        ((_, stream),) = sent
        return stream

    def test_waits_for_upstream(self):
        node, events, delivered, _ = self._hub_setup()
        events.run()
        assert delivered == []  # nothing sendable before the inputs land

    def test_combines_and_forwards(self):
        node, events, delivered, chunk = self._hub_setup()
        incoming = np.arange(512, dtype=np.uint8)
        up = self._upstream(node, incoming)
        node.receive(up)
        events.run()
        ((dest, stream),) = delivered
        assert dest == 9
        expected = np.bitwise_xor(gf256.mul_chunk(5, chunk), incoming)
        assert np.array_equal(stream.payload, expected)
        for s in stream.sends:
            # a slice leaves only after its input landed and was combined
            assert s.start > up.clean[s.idx]

    def test_duplicate_slice_rejected(self):
        node, events, delivered, _ = self._hub_setup()
        up = self._upstream(node, np.zeros(512, dtype=np.uint8))
        node.receive(up)
        with pytest.raises(RuntimeError, match="duplicate"):
            node.receive(up)

    def test_misaligned_slice_rejected(self):
        node, events, delivered, _ = self._hub_setup()
        up = self._upstream(node, np.zeros(499, dtype=np.uint8), start=13)
        with pytest.raises(RuntimeError, match="misaligned"):
            node.receive(up)

    def test_wrong_size_payload_rejected(self):
        node, events, delivered, _ = self._hub_setup()
        up = self._upstream(node, np.zeros(256, dtype=np.uint8), stop=256)
        with pytest.raises(RuntimeError, match="size"):
            node.receive(up)

    def test_unknown_task_rejected(self):
        node, events, delivered, _ = self._hub_setup()
        up = self._upstream(node, np.zeros(512, dtype=np.uint8), pipeline_id=99)
        with pytest.raises(RuntimeError, match="unknown task"):
            node.receive(up)
