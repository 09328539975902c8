"""The engine-scale harness: smoke run, schema, and the wall-time gate.

The smoke tier doubles as the tier-1 perf gate for the simulator: it
re-runs the gate-protocol scenario (profiler disabled, GC off,
setup-subtracted) and fails if the best pass needs more than the
committed wall seconds per repaired MiB / 0.8 (the 20% regression line,
expressed on time).  The data plane runs one event per pipeline rather
than per slice, so events/sec no longer measures the same work; it
stays in the artefact as an informational rate.  Unlike the EC gate
this compares an *absolute* cost, so the gate statistic is the best of
the passes — a real regression drags every pass down, while transient
host noise can only slow passes, never speed up the best one.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_sim_engine import (
    GATE_PASSES,
    MAX_DISABLED_OVERHEAD_PERCENT,
    SCHEMA_VERSION,
    run,
)
from benchmarks.common import REPO_ROOT

pytestmark = pytest.mark.prof

#: A fresh best pass may cost up to the committed best / this before the
#: gate trips (the >20% regression line).
REGRESSION_TOLERANCE = 0.8


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One smoke pass per test module (writes outside the repo tree)."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_sim.json"
    report = run(smoke=True, out_path=out)
    return report, out


class TestSchema:
    def test_file_round_trips(self, smoke_report):
        report, path = smoke_report
        assert path.exists()
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))

    def test_top_level_keys(self, smoke_report):
        report, _ = smoke_report
        assert report["benchmark"] == "sim"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is True
        for key in ("gate", "profiled", "optimization"):
            assert key in report

    def test_gate_section(self, smoke_report):
        report, _ = smoke_report
        gate = report["gate"]
        assert gate["slice_hops"] > 10_000
        assert gate["repaired"] > 0
        assert len(gate["passes_wall_s_per_repaired_mib"]) == GATE_PASSES
        assert gate["wall_s_per_repaired_mib"] == min(
            gate["passes_wall_s_per_repaired_mib"]
        )
        assert gate["wall_s_per_repaired_mib"] > 0
        assert gate["events_per_s"] > 0
        assert 0 < gate["engine_wall_s"] < 60

    def test_disabled_overhead_bounded_in_fresh_run(self, smoke_report):
        """The disabled-hooks contract, re-proven on every smoke run."""
        report, _ = smoke_report
        ov = report["gate"]["disabled_overhead"]
        assert ov["max_overhead_percent"] == MAX_DISABLED_OVERHEAD_PERCENT
        assert ov["implied_overhead_percent"] <= MAX_DISABLED_OVERHEAD_PERCENT
        assert ov["pass"] is True
        # the empty-run dispatch (upper bound on the added entry cost)
        # stays in microbenchmark territory
        assert ov["empty_run_dispatch_ns"] < 50_000

    def test_profiled_section(self, smoke_report):
        report, _ = smoke_report
        prof = report["profiled"]
        assert prof["events"] == report["gate"]["events"]
        assert prof["slice_hops"] == report["gate"]["slice_hops"]
        assert prof["events_per_s"] > 0
        assert prof["heartbeats"] >= 1
        assert prof["hot_sites"], "profiler attributed no sites"
        top = prof["hot_sites"][0]
        for key in ("site", "events", "self_ms", "mean_us"):
            assert key in top
        # the cluster data plane, not the profiler's own bookkeeping,
        # must top the attribution for a slice-heavy scenario
        assert top["site"].startswith("repro.cluster")
        assert not top["site"].startswith("repro.obs.prof")

    def test_optimization_record(self, smoke_report):
        report, _ = smoke_report
        opt = report["optimization"]
        before, after = opt["before"], opt["after"]
        assert after["tick_mean_us"] < before["tick_mean_us"] / 3
        assert (
            after["disabled_events_per_s_median"]
            > before["disabled_events_per_s_median"]
        )
        # the live re-measurement keeps the claim falsifiable: the
        # optimised tick must stay well under the recorded before cost
        live = after.get("tick_mean_us_this_run")
        if live is not None:
            assert live < before["tick_mean_us"] * 0.6

    def test_artefacts_written(self, smoke_report):
        report, out = smoke_report
        prof = report["profiled"]
        for rel in prof["artefacts"]:
            path = REPO_ROOT / rel
            assert path.exists(), rel
            # smoke artefacts sit beside the report, never over the
            # committed full-run ones
            assert path.resolve().parent == out.resolve().parent, rel
        speedscope = json.loads(
            (REPO_ROOT / prof["artefacts"][0]).read_text()
        )
        assert speedscope["profiles"][0]["type"] == "sampled"
        assert speedscope["profiles"][0]["weights"]
        heartbeats = [
            json.loads(line)
            for line in (REPO_ROOT / prof["artefacts"][2])
            .read_text().splitlines()
        ]
        assert len(heartbeats) == prof["heartbeats"]
        assert heartbeats[-1]["final"] is True


class TestCommittedArtifact:
    def test_committed_artifact_matches_schema(self):
        path = REPO_ROOT / "BENCH_sim.json"
        assert path.exists(), "run `python -m benchmarks.bench_sim_engine`"
        report = json.loads(path.read_text())
        assert report["benchmark"] == "sim"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is False
        assert report["gate"]["disabled_overhead"]["pass"] is True

    def test_committed_million_event_run(self):
        """The headline scale target: ~1M slice-hops through one recovery."""
        report = json.loads((REPO_ROOT / "BENCH_sim.json").read_text())
        million = report["million_event"]
        for side in ("disabled", "profiled"):
            run = million[side]
            assert run["slice_hops"] >= 900_000
            assert len(run["passes_engine_wall_s"]) >= 3
            spread = run["engine_wall_spread_s"]
            assert 0 < spread["min"] <= spread["median"] <= spread["max"]
        assert million["disabled"]["events_per_s"] > 0
        assert million["profiled"]["heartbeats"] >= 3

    def test_merges_into_bench_trajectory(self):
        """`repro bench report` picks the artefact up like the others."""
        from repro.analysis import merge_bench_reports, render_bench_trajectory

        report = json.loads((REPO_ROOT / "BENCH_sim.json").read_text())
        merged = merge_bench_reports({"BENCH_sim.json": report})
        (entry,) = merged["reports"]
        assert entry["benchmark"] == "sim"
        assert "gate.events_per_s" in entry["metrics"]
        text = render_bench_trajectory(merged)
        assert "gate.events_per_s" in text

    def test_regression_gate_vs_committed_wall_per_mib(self, smoke_report):
        """>20% more wall time per repaired MiB at the gate protocol
        fails tier-1.

        Both sides measure the same scenario with the same protocol
        (best of GATE_PASSES setup-subtracted passes, GC off), so the
        comparison is like-for-like on one host.  Absolute costs do not
        cancel host speed the way the EC ratios do — the committed
        artefact must be regenerated when the reference machine
        changes.
        """
        committed = json.loads((REPO_ROOT / "BENCH_sim.json").read_text())
        fresh, _ = smoke_report
        base = committed["gate"]["wall_s_per_repaired_mib"]
        measured = fresh["gate"]["wall_s_per_repaired_mib"]
        ceiling = base / REGRESSION_TOLERANCE
        assert measured <= ceiling, (
            f"wall per repaired MiB regressed: measured {measured:.4f}s "
            f"vs committed {base:.4f}s (ceiling {ceiling:.4f}s)"
        )
