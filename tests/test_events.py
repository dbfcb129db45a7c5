"""Event recorder tests and runner integration."""

import pytest

from repro.kube.events import EventRecorder, Reason


class TestRecorder:
    def test_emit_and_query(self):
        rec = EventRecorder()
        rec.emit(100.0, Reason.SCHEDULED, "req/1", "placed on n0")
        rec.emit(200.0, Reason.EVICTED, "req/2", "preempted", type="Warning")
        assert len(rec.events()) == 2
        assert len(rec.events(reason=Reason.EVICTED)) == 1
        assert rec.events(involved="req/1")[0].message == "placed on n0"

    def test_dedup_within_window_counts(self):
        rec = EventRecorder(dedup_window_ms=1_000.0)
        assert rec.emit(0.0, Reason.SCHEDULED, "req/1", "a") is not None
        assert rec.emit(100.0, Reason.SCHEDULED, "req/1", "b") is None
        assert rec.count(Reason.SCHEDULED, "req/1") == 2
        # outside the window a new entry appears
        assert rec.emit(2_000.0, Reason.SCHEDULED, "req/1", "c") is not None

    def test_capacity_bounded(self):
        rec = EventRecorder(capacity=5, dedup_window_ms=0.0)
        for i in range(20):
            rec.emit(float(i), Reason.SCHEDULED, f"req/{i}", "x")
        assert len(rec.events()) == 5
        assert rec.tail(3)[-1].involved == "req/19"

    def test_count_aggregates_over_objects(self):
        rec = EventRecorder()
        rec.emit(0.0, Reason.EVICTED, "req/1", "x")
        rec.emit(0.0, Reason.EVICTED, "req/2", "x")
        assert rec.count(Reason.EVICTED) == 2

    def test_render_format(self):
        rec = EventRecorder()
        rec.emit(1_500.0, Reason.SCHEDULED, "req/9", "hello")
        out = rec.render()
        assert "REASON" in out and "Scheduled" in out and "req/9" in out

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EventRecorder(capacity=0)


class TestRunnerIntegration:
    def test_runner_emits_audit_stream(self):
        from repro import TangoConfig, TangoSystem
        from repro.cluster.topology import TopologyConfig
        from repro.sim.runner import RunnerConfig
        from repro.workloads.trace import SyntheticTrace, TraceConfig

        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=1),
            runner=RunnerConfig(duration_ms=4_000.0, record_events=True),
        )
        trace = SyntheticTrace(
            TraceConfig(n_clusters=2, duration_ms=4_000.0, seed=1)
        ).generate()
        system = TangoSystem(config)
        metrics = system.run(trace)
        recorder = system.last_runner.events
        assert recorder is not None
        assert recorder.count(Reason.SCHEDULED) > 0
        if metrics.be_evictions:
            assert recorder.count(Reason.EVICTED) > 0

    def test_events_disabled_by_default(self):
        from repro import TangoConfig, TangoSystem
        from repro.cluster.topology import TopologyConfig
        from repro.sim.runner import RunnerConfig

        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=1),
            runner=RunnerConfig(duration_ms=1_000.0),
        )
        system = TangoSystem(config)
        system.run([])
        assert system.last_runner.events is None
