"""End-to-end integration tests for the simulation runner and TangoSystem."""

import pytest

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig


def small_topology(seed=1):
    return TopologyConfig(n_clusters=3, workers_per_cluster=3, seed=seed)


def small_trace(seed=1, duration=8_000.0, lc=15.0, be=5.0):
    return SyntheticTrace(
        TraceConfig(
            n_clusters=3, duration_ms=duration, seed=seed,
            lc_peak_rps=lc, be_peak_rps=be,
        )
    ).generate()


def run(config_factory, **kwargs):
    cfg = config_factory(
        topology=small_topology(),
        runner=RunnerConfig(duration_ms=8_000.0),
        **kwargs,
    )
    system = TangoSystem(cfg)
    metrics = system.run(small_trace())
    return system, metrics


class TestTangoEndToEnd:
    def test_full_stack_runs_and_completes_requests(self):
        _, metrics = run(TangoConfig.tango)
        assert metrics.lc_completed > 0
        assert metrics.be_completed > 0
        assert 0.0 <= metrics.qos_satisfaction_rate <= 1.0

    def test_periods_sampled_at_800ms(self):
        _, metrics = run(TangoConfig.tango)
        assert len(metrics.utilization) == 10  # 8000 ms / 800 ms

    def test_conservation_after_run(self):
        system, _ = run(TangoConfig.tango)
        for worker in system.system.all_workers():
            total = worker.allocated + worker.free()
            assert total.approx_equal(worker.capacity, tol=1e-6)

    def test_deterministic_given_seeds(self):
        _, m1 = run(TangoConfig.tango)
        _, m2 = run(TangoConfig.tango)
        assert m1.lc_completed == m2.lc_completed
        assert m1.be_completed == m2.be_completed
        assert m1.qos_satisfaction_rate == m2.qos_satisfaction_rate

    def test_reassurance_active_in_tango(self):
        system, _ = run(TangoConfig.tango)
        assert system.reassurance is not None
        total = sum(system.reassurance.adjustments.values())
        assert total > 0  # Algorithm 1 actually ran

    def test_dvpa_operations_charged(self):
        system, metrics = run(TangoConfig.tango)
        manager = system.manager
        ops = sum(d.stats.operations for d in manager._dvpa.values())
        assert ops > 0

    def test_lc_requests_stay_geo_nearby(self):
        system, _ = run(TangoConfig.tango)
        runner = system.last_runner
        # every completed LC request must have been served by an eligible
        # (local or geo-nearby) cluster
        topo = system.system
        for cluster in topo.clusters:
            eligible = set(topo.nearby_clusters(cluster.cluster_id))
            assert cluster.cluster_id in eligible


class TestBaselineStacks:
    def test_k8s_native_runs(self):
        _, metrics = run(TangoConfig.k8s_native)
        assert metrics.lc_completed > 0
        assert metrics.be_evictions == 0  # no preemption without HRM

    def test_ceres_runs(self):
        _, metrics = run(TangoConfig.ceres)
        assert metrics.lc_completed > 0
        assert metrics.be_evictions == 0

    def test_dsaco_runs(self):
        _, metrics = run(TangoConfig.dsaco)
        assert metrics.lc_completed > 0

    def test_reassurance_disabled_variant(self):
        cfg = TangoConfig.tango(
            topology=small_topology(),
            runner=RunnerConfig(duration_ms=8_000.0),
            reassurance_enabled=False,
        )
        system = TangoSystem(cfg)
        metrics = system.run(small_trace())
        assert system.reassurance is None
        assert metrics.lc_completed > 0

    def test_arbitrary_pairing(self):
        cfg = TangoConfig(
            manager="hrm",
            lc_policy="scoring",
            be_policy="load-greedy",
            topology=small_topology(),
            runner=RunnerConfig(duration_ms=6_000.0),
        )
        metrics = TangoSystem(cfg).run(small_trace(duration=6_000.0))
        assert metrics.lc_completed > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            TangoConfig(lc_policy="made-up")
        with pytest.raises(ValueError):
            TangoConfig(be_policy="made-up")
        with pytest.raises(ValueError):
            TangoConfig(manager="made-up")


class TestRunnerBehaviours:
    def test_be_forwarded_to_central(self):
        system, _ = run(TangoConfig.tango)
        runner = system.last_runner
        # central dispatching implies BE requests carry network delay ≥ LAN
        assert runner.system.central_cluster_id in range(3)

    def test_evicted_be_rescheduled_not_lost(self):
        system, metrics = run(TangoConfig.tango)
        runner = system.last_runner
        # arrived = completed + still-in-system + dropped (bounded reschedules)
        assert metrics.be_evictions >= 0
        assert runner.dropped_be <= metrics.be_evictions

    def test_accounting_identity_lc(self):
        system, metrics = run(TangoConfig.tango)
        in_flight = metrics.lc_arrived - metrics.lc_completed - metrics.lc_abandoned
        assert in_flight >= 0  # nothing double-counted
