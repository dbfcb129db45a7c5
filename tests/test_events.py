"""Runner integration of the event bus: the run's lifecycle stream."""

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.obs.events import RequestEvicted, RequestScheduled
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig


class TestRunnerIntegration:
    def test_runner_emits_audit_stream(self):
        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=1),
            runner=RunnerConfig(duration_ms=4_000.0, observe=True),
        )
        trace = SyntheticTrace(
            TraceConfig(n_clusters=2, duration_ms=4_000.0, seed=1)
        ).generate()
        system = TangoSystem(config)
        metrics = system.run(trace)
        bus = system.last_runner.bus
        assert bus is not None
        assert bus.count(RequestScheduled) > 0
        # no failures are configured, so every eviction is a preemption
        assert bus.count(RequestEvicted) == metrics.be_evictions

    def test_events_disabled_by_default(self):
        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=1),
            runner=RunnerConfig(duration_ms=1_000.0),
        )
        system = TangoSystem(config)
        system.run([])
        runner = system.last_runner
        assert runner.hub is None and runner.bus is None
        assert not runner.emitter.enabled
