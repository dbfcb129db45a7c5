"""TangoSystem assembly tests: factories, BE roles, scheduler injection."""

import pytest

from repro import TangoConfig, TangoSystem
from repro.baselines.ceres import CeresManager
from repro.baselines.dsaco import DSACOScheduler
from repro.baselines.static import StaticPartitionManager
from repro.cluster.topology import TopologyConfig
from repro.hrm.regulations import HRMManager
from repro.obs.events import RequestScheduled
from repro.scheduling.baselines import (
    K8sNativeScheduler,
    LoadGreedyScheduler,
    ScoringScheduler,
)
from repro.scheduling.dcg_be import DCGBEScheduler
from repro.scheduling.dss_lc import DSSLCScheduler
from repro.scheduling.gnn_sac import GNNSACScheduler
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig


def tiny_topology():
    return TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=0)


def build(config):
    return TangoSystem(config)


class TestFactories:
    def test_tango_factory_wiring(self):
        system = build(TangoConfig.tango(topology=tiny_topology()))
        assert isinstance(system.manager, HRMManager)
        assert isinstance(system.lc_scheduler, DSSLCScheduler)
        assert isinstance(system.be_scheduler, DCGBEScheduler)
        assert system.reassurance is not None
        # DSS-LC shares the live re-assurance state with HRM
        assert system.lc_scheduler.reassurance is system.reassurance

    def test_k8s_native_factory(self):
        system = build(TangoConfig.k8s_native(topology=tiny_topology()))
        assert isinstance(system.manager, StaticPartitionManager)
        assert isinstance(system.lc_scheduler, K8sNativeScheduler)
        assert system.reassurance is None

    def test_ceres_factory(self):
        system = build(TangoConfig.ceres(topology=tiny_topology()))
        assert isinstance(system.manager, CeresManager)

    def test_dsaco_factory_shares_one_agent(self):
        system = build(TangoConfig.dsaco(topology=tiny_topology()))
        assert isinstance(system.lc_scheduler, DSACOScheduler)
        # LC and BE roles are the same (weight-shared) scheduler instance
        assert system.lc_scheduler is system.be_scheduler
        assert getattr(system.be_scheduler, "distributed", False)

    def test_gnn_sac_be_policy(self):
        system = build(
            TangoConfig.tango(topology=tiny_topology(), be_policy="gnn-sac")
        )
        assert isinstance(system.be_scheduler, GNNSACScheduler)

    def test_scoring_lc_policy(self):
        system = build(
            TangoConfig.tango(topology=tiny_topology(), lc_policy="scoring")
        )
        assert isinstance(system.lc_scheduler, ScoringScheduler)

    def test_managers_attached_to_every_worker(self):
        system = build(TangoConfig.tango(topology=tiny_topology()))
        for worker in system.system.all_workers():
            assert worker.manager is system.manager


class TestInjection:
    def test_injected_be_scheduler_is_used(self):
        pretrained = DCGBEScheduler()
        system = TangoSystem(
            TangoConfig.tango(topology=tiny_topology()),
            be_scheduler=pretrained,
        )
        assert system.be_scheduler is pretrained

    def test_injected_lc_scheduler_is_used(self):
        custom = K8sNativeScheduler()
        system = TangoSystem(
            TangoConfig.tango(topology=tiny_topology()),
            lc_scheduler=custom,
        )
        assert system.lc_scheduler is custom

    @pytest.mark.parametrize(
        "policy, cls",
        [("load-greedy", LoadGreedyScheduler), ("k8s-native", K8sNativeScheduler)],
    )
    def test_be_role_baselines_carry_their_own_label(self, policy, cls):
        """A dual-role baseline serves the BE role as itself, so its BE
        ``RequestScheduled`` events name its class."""
        config = TangoConfig.tango(
            topology=tiny_topology(),
            be_policy=policy,
            runner=RunnerConfig(duration_ms=1_000.0, observe=True),
        )
        system = build(config)
        assert type(system.be_scheduler) is cls
        trace = SyntheticTrace(
            TraceConfig(n_clusters=2, duration_ms=1_000.0, seed=0)
        ).generate()
        system.run(trace)
        events = system.last_runner.hub.bus.events(RequestScheduled)
        be_labels = {ev.scheduler for ev in events if not ev.request.is_lc}
        assert be_labels == {cls.__name__}


class TestReassuranceToggle:
    def test_disabled_reassurance_freezes_minima(self):
        config = TangoConfig.tango(
            topology=tiny_topology(),
            runner=RunnerConfig(duration_ms=2_000.0),
            reassurance_enabled=False,
        )
        system = TangoSystem(config)
        assert system.reassurance is None
        # HRM still functions with catalog-default minima
        trace = SyntheticTrace(
            TraceConfig(n_clusters=2, duration_ms=2_000.0, seed=0)
        ).generate()
        metrics = system.run(trace)
        assert metrics.lc_arrived > 0
