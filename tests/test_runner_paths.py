"""Runner path tests: distributed BE, drop caps, delay accounting."""

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.spec import ServiceKind, default_catalog
from repro.workloads.trace import SyntheticTrace, TraceConfig, TraceRecord

CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


def small_run(be_policy="k8s-native", lc_policy="k8s-native", manager="hrm",
              duration=6_000.0, **runner_kw):
    config = TangoConfig(
        manager=manager,
        lc_policy=lc_policy,
        be_policy=be_policy,
        reassurance_enabled=(manager == "hrm"),
        topology=TopologyConfig(n_clusters=3, workers_per_cluster=2, seed=2),
        runner=RunnerConfig(duration_ms=duration, **runner_kw),
    )
    trace = SyntheticTrace(
        TraceConfig(n_clusters=3, duration_ms=duration, seed=2,
                    lc_peak_rps=10.0, be_peak_rps=4.0)
    ).generate()
    system = TangoSystem(config)
    metrics = system.run(trace)
    return system, metrics


class TestDistributedBEPath:
    def test_dsaco_be_dispatch_is_distributed(self):
        system, metrics = small_run(be_policy="dsaco", lc_policy="dsaco",
                                    manager="static")
        runner = system.last_runner
        assert runner.ctx.be_distributed
        # the central forwarding queue is never used on this path
        assert len(runner.ctx.central_be) == 0
        assert metrics.be_completed > 0

    def test_centralised_be_pays_wan_forwarding(self):
        """BE requests forwarded to central carry non-trivial network delay."""
        from repro.metrics.collectors import PeriodCollector

        completed = []
        original = PeriodCollector.on_completion

        def hook(self, request):
            completed.append(request)
            return original(self, request)

        PeriodCollector.on_completion = hook
        try:
            system, _ = small_run()
        finally:
            PeriodCollector.on_completion = original
        central = system.system.central_cluster_id
        remote_be = [
            r for r in completed
            if not r.is_lc and r.origin_cluster != central
        ]
        if remote_be:  # topology-dependent, but typically non-empty
            assert all(r.network_delay_ms > 1.0 for r in remote_be)


class TestRequeueBounds:
    def test_be_drop_after_max_reschedules(self):
        """A BE request evicted too often is eventually dropped, not looped."""
        system, metrics = small_run(max_be_reschedules=0)
        runner = system.last_runner
        if metrics.be_evictions > 0:
            assert runner.dropped_be > 0
            assert runner.dropped_be <= metrics.be_evictions

    def test_requeue_disabled_drops_immediately(self):
        system, metrics = small_run(requeue_evicted_be=False)
        runner = system.last_runner
        assert runner.dropped_be == metrics.be_evictions


class TestTraceHandling:
    def test_unknown_service_records_skipped(self):
        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=0),
            runner=RunnerConfig(duration_ms=2_000.0),
        )
        bogus = TraceRecord(
            time_ms=10.0, cluster_id=0, service="no-such-service",
            kind=ServiceKind.LC, cpu=1.0, memory=100.0,
        )
        real = TraceRecord(
            time_ms=20.0, cluster_id=0, service=LC.name,
            kind=ServiceKind.LC, cpu=1.0, memory=100.0,
        )
        metrics = TangoSystem(config).run([bogus, real])
        assert metrics.lc_arrived == 1

    def test_cluster_id_wrapped_into_range(self):
        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=0),
            runner=RunnerConfig(duration_ms=2_000.0),
        )
        record = TraceRecord(
            time_ms=10.0, cluster_id=7, service=LC.name,
            kind=ServiceKind.LC, cpu=1.0, memory=100.0,
        )
        system = TangoSystem(config)
        metrics = system.run([record])
        assert metrics.lc_arrived == 1  # 7 % 2 == cluster 1

    def test_unsorted_trace_accepted(self):
        config = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=0),
            runner=RunnerConfig(duration_ms=2_000.0),
        )
        records = [
            TraceRecord(time_ms=t, cluster_id=0, service=LC.name,
                        kind=ServiceKind.LC, cpu=1.0, memory=100.0)
            for t in (500.0, 10.0, 250.0)
        ]
        metrics = TangoSystem(config).run(records)
        assert metrics.lc_arrived == 3


class TestSACPersistence:
    def test_sac_save_load_roundtrip(self, rng, tmp_path):
        import numpy as np

        from repro.nn.sac import SACAgent, SACConfig

        cfg = SACConfig(hidden=(8,), encoder_hidden=(8,))
        agent = SACAgent(4, rng, config=cfg)
        agent.save(tmp_path / "sac")
        clone = SACAgent(4, np.random.default_rng(123), config=cfg)
        clone.load(tmp_path / "sac")
        for p1, p2 in zip(agent.optimizer.params, clone.optimizer.params):
            assert np.allclose(p1, p2)
        # target nets re-synced to the restored live heads
        for live, tgt in zip(clone.q1.net.params, clone.q1_target.net.params):
            assert np.allclose(live, tgt)
