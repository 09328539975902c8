"""The segment executor's bookkeeping: events, released state, verify cache."""

import numpy as np
import pytest

from repro.cluster import ClusterSystem, DataNode, TransferTask
from repro.cluster import chunkstore
from repro.ec import RSCode
from repro.net import BandwidthSnapshot
from repro.recovery import run_recovery_scenario
from repro.sim import EventQueue


def small_system(**kw):
    sys_ = ClusterSystem(14, RSCode(9, 6), slice_bytes=4096, **kw)
    rng = np.random.default_rng(3)
    sys_.set_bandwidth(BandwidthSnapshot(
        uplink=rng.uniform(300.0, 1000.0, 14),
        downlink=rng.uniform(300.0, 1000.0, 14),
    ))
    data = rng.integers(0, 256, (6, 64 * 1024), dtype=np.uint8)
    sys_.write_stripe("s0", data, placement=tuple(range(9)))
    sys_.fail_node(0)
    return sys_, data


def assert_no_task_state(system):
    assert not system.plane.active
    for node in system.nodes:
        assert not node._tasks, node.node_id
        assert not node._inbound, node.node_id


class TestEvents:
    def test_one_event_per_pipeline_not_per_slice(self):
        sys_, data = small_system()
        out = sys_.repair("s0", 0, requester=9, store=False)
        assert out.verified
        pipelines = len(out.plan.pipelines)
        tasks = sum(len(p.edges) for p in out.plan.pipelines)
        # dispatch + one completion per pipeline + the watchdog timer
        assert sys_.events.executed <= tasks + pipelines + 2
        assert sys_.plane.slice_hops >= 4 * sys_.events.executed


class TestReleasedState:
    def test_clean_repair_leaves_no_task_state(self):
        sys_, _ = small_system()
        sys_.repair("s0", 0, requester=9, store=False)
        assert_no_task_state(sys_)

    def test_aborted_attempt_leaves_no_task_state(self):
        sys_, data = small_system()
        clean = small_system()[0].repair("s0", 0, requester=9, store=False)
        hub = next(e.child for p in clean.plan.pipelines for e in p.edges
                   if e.parent == 9)
        out = sys_.repair("s0", 0, requester=9, store=False,
                          inject_failure=(hub, 0.5 * clean.elapsed_seconds))
        assert out.verified and out.retries >= 1
        assert np.array_equal(out.rebuilt, data[0])
        assert_no_task_state(sys_)

    def test_drained_recovery_scenario_leaves_no_task_state(self):
        sc = run_recovery_scenario(
            num_nodes=12, n=6, k=4, num_stripes=8, chunk_bytes=16 * 1024,
            slice_bytes=4 * 1024, kills=((0, 0.001),), foreground_reads=40,
        )
        assert sc.report.repaired > 0
        assert_no_task_state(sc.system)


class TestVerifyCache:
    def test_helper_digests_its_chunk_once_per_repair(self, monkeypatch):
        sys_, _ = small_system()
        calls = []
        real = chunkstore.chunk_digest
        monkeypatch.setattr(
            chunkstore, "chunk_digest", lambda a: calls.append(len(a)) or real(a)
        )
        out = sys_.repair("s0", 0, requester=9, store=False)
        helpers = {e.child for p in out.plan.pipelines for e in p.edges}
        tasks = sum(len(p.edges) for p in out.plan.pipelines)
        assert tasks > len(helpers)  # some helper serves several pipelines
        # one digest per helper at assign, then the post-repair audit's
        # re-reads hit the cache as well
        assert len(calls) == len(helpers)

    def test_corruption_between_assigns_is_refused(self):
        node = DataNode(1, EventQueue(), slice_bytes=256)
        node.store.put("s", 0, np.arange(1024, dtype=np.uint8))
        refused = []
        node.on_bad_chunk = lambda n, task: refused.append(task.pipeline_id)
        node.deliver = lambda dest, stream: None

        def task(pid):
            return TransferTask(
                stripe_id="s", pipeline_id=pid, chunk_index=0, coeff=3,
                start=0, stop=1024, destination=9, rate_mbps=100.0,
            )

        node.assign(task(1))
        node.store.corrupt("s", 0, flips=4, seed=1)
        node.assign(task(2))
        assert refused == [2]

    @pytest.mark.parametrize("mutate", ["put", "delete"])
    def test_mutations_invalidate_the_cached_verdict(self, mutate):
        store = chunkstore.ChunkStore()
        store.put("s", 0, np.zeros(64, dtype=np.uint8))
        assert store.verify("s", 0)
        store.arm_torn_write(0.5, seed=1)
        if mutate == "put":
            store.put("s", 0, np.ones(64, dtype=np.uint8))
            assert not store.verify("s", 0)  # the tear landed on this put
        else:
            store.delete("s", 0)
            store.put("s", 0, np.ones(64, dtype=np.uint8))
            assert not store.verify("s", 0)
