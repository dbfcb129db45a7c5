"""Failure-injection tests: crashes, partitions, and graceful degradation."""

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import EdgeCloudSystem, TopologyConfig
from repro.sim.failures import FailureConfig, FailureInjector
from repro.sim.request import RequestState, ServiceRequest
from repro.sim.runner import RunnerConfig
from repro.workloads.spec import ServiceKind, default_catalog
from repro.workloads.trace import SyntheticTrace, TraceConfig

CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


def make_system():
    return EdgeCloudSystem(TopologyConfig(n_clusters=3, workers_per_cluster=2,
                                          seed=0))


class TestInjector:
    def test_crash_takes_node_down_then_recovers(self):
        system = make_system()
        injector = FailureInjector(
            system,
            FailureConfig(node_mtbf_ms=1.0, node_downtime_ms=100.0, seed=1),
        )
        injector.apply(10.0)
        assert len(injector.down_nodes) >= 1
        name = next(iter(injector.down_nodes))
        assert injector.node_is_down(name)
        injector.apply(10_000.0)
        assert not injector.node_is_down(name)
        kinds = [e.kind for e in injector.events]
        assert "crash" in kinds and "recover" in kinds

    def test_crash_displaces_running_and_queued(self):
        system = make_system()
        worker = system.clusters[0].workers[0]

        class AdmitAll:
            def admit(self, node, request, now_ms):
                from repro.cluster.node import AdmitDecision

                demand = request.spec.min_resources
                if not demand.fits_in(node.free()):
                    return None
                return AdmitDecision(allocation=demand)

            def on_complete(self, node, running, now_ms):
                pass

            def tick(self, node, now_ms):
                pass

        worker.manager = AdmitAll()
        running_be = ServiceRequest(spec=BE, origin_cluster=0, arrival_ms=0.0)
        queued_lc = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        worker.enqueue(running_be, 0.0)
        worker.step(0.0, 25.0)
        worker.enqueue(queued_lc, 25.0)
        assert len(worker.running) == 1

        injector = FailureInjector(
            system, FailureConfig(node_mtbf_ms=None, seed=0)
        )
        displaced = injector._crash(worker, 50.0)
        assert worker.running == {}
        assert worker.allocated.is_zero()
        ids = {r.request_id for r in displaced}
        assert running_be.request_id in ids
        assert queued_lc.request_id in ids
        assert running_be.state is RequestState.QUEUED_MASTER
        assert running_be.evictions == 1

    def test_partition_excludes_cluster_then_heals(self):
        system = make_system()
        injector = FailureInjector(
            system,
            FailureConfig(
                node_mtbf_ms=None,
                partition_mtbf_ms=1.0,
                partition_duration_ms=50.0,
                seed=3,
            ),
        )
        injector.apply(10.0)
        partitioned = [
            c for c in range(3) if injector.cluster_is_partitioned(c)
        ]
        if partitioned:  # central cluster is never partitioned
            injector.apply(10_000.0)
            assert not any(
                injector.cluster_is_partitioned(c) for c in range(3)
            )

    def test_central_cluster_never_partitioned(self):
        system = make_system()
        injector = FailureInjector(
            system,
            FailureConfig(
                node_mtbf_ms=None,
                partition_mtbf_ms=0.5,
                partition_duration_ms=1e9,
                seed=5,
            ),
        )
        for t in range(1, 200):
            injector.apply(float(t * 10))
        assert not injector.cluster_is_partitioned(system.central_cluster_id)

    def test_disabled_injection_never_fires(self):
        system = make_system()
        injector = FailureInjector(
            system,
            FailureConfig(node_mtbf_ms=None, partition_mtbf_ms=None),
        )
        for t in range(100):
            assert injector.apply(float(t * 100)) == []
        assert injector.events == []

    def test_deterministic_for_seed(self):
        events = []
        for _ in range(2):
            system = make_system()
            injector = FailureInjector(
                system, FailureConfig(node_mtbf_ms=500.0, seed=9)
            )
            for t in range(200):
                injector.apply(float(t * 25))
            events.append([(e.time_ms, e.kind, e.target) for e in injector.events])
        assert events[0] == events[1]


class TestEndToEndWithFailures:
    def test_system_survives_crashes(self):
        """Tango keeps serving under node churn; no conservation violations."""
        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=3, workers_per_cluster=3, seed=1),
            runner=RunnerConfig(
                duration_ms=10_000.0,
                failures=FailureConfig(
                    node_mtbf_ms=1_500.0, node_downtime_ms=2_000.0, seed=2
                ),
            ),
        )
        trace = SyntheticTrace(
            TraceConfig(n_clusters=3, duration_ms=10_000.0, seed=1,
                        lc_peak_rps=12.0, be_peak_rps=4.0)
        ).generate()
        system = TangoSystem(config)
        metrics = system.run(trace)
        runner = system.last_runner
        assert runner.injector is not None
        assert any(e.kind == "crash" for e in runner.injector.events)
        # progress continues despite churn
        assert metrics.lc_completed > 0
        assert metrics.be_completed > 0
        # resource conservation still holds everywhere
        for worker in system.system.all_workers():
            total = worker.allocated + worker.free()
            assert total.approx_equal(worker.capacity, tol=1e-6)

    def test_failures_reduce_but_do_not_zero_qos(self):
        def run(failures):
            config = TangoConfig.tango(
                topology=TopologyConfig(n_clusters=3, workers_per_cluster=3,
                                        seed=1),
                runner=RunnerConfig(duration_ms=8_000.0, failures=failures),
            )
            trace = SyntheticTrace(
                TraceConfig(n_clusters=3, duration_ms=8_000.0, seed=1)
            ).generate()
            return TangoSystem(config).run(trace)

        healthy = run(None)
        churned = run(FailureConfig(node_mtbf_ms=1_000.0,
                                    node_downtime_ms=2_000.0, seed=4))
        assert churned.qos_satisfaction_rate <= healthy.qos_satisfaction_rate + 0.02
        assert churned.qos_satisfaction_rate > 0.3
