"""TangoSystem: assemble the full framework (or any baseline) and run it.

This is the library's main entry point::

    from repro import TangoSystem, TangoConfig
    from repro.workloads.trace import SyntheticTrace, TraceConfig

    config = TangoConfig.tango()
    trace = SyntheticTrace(TraceConfig(n_clusters=config.topology.n_clusters))
    system = TangoSystem(config)
    metrics = system.run(trace.generate())
    print(metrics.summary())

The builder wires together the topology, the per-node resource managers
(HRM / static / CERES), the QoS detector + re-assurance mechanism, the
state storage, and the chosen LC/BE traffic schedulers, matching the
component diagram of Fig. 3.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.ceres import CeresManager
from repro.baselines.dsaco import DSACOConfig, DSACOScheduler
from repro.baselines.static import StaticPartitionManager
from repro.cluster.topology import EdgeCloudSystem
from repro.core.config import TangoConfig
from repro.core.state_storage import StateStorage
from repro.hrm.qos import QoSDetector
from repro.hrm.reassurance import ReassuranceMechanism
from repro.hrm.regulations import HRMManager
from repro.metrics.collectors import RunMetrics
from repro.scheduling.baselines import (
    K8sNativeScheduler,
    LoadGreedyScheduler,
    ScoringScheduler,
)
from repro.scheduling.dcg_be import DCGBEScheduler
from repro.scheduling.dss_lc import DSSLCScheduler
from repro.scheduling.gnn_sac import GNNSACScheduler
from repro.sim.runner import SimulationRunner
from repro.workloads.spec import ServiceSpec, default_catalog
from repro.workloads.trace import TraceRecord

__all__ = ["TangoSystem"]


class TangoSystem:
    """One experimental deployment: topology + policies + managers."""

    def __init__(
        self,
        config: Optional[TangoConfig] = None,
        *,
        catalog: Optional[Sequence[ServiceSpec]] = None,
        lc_scheduler=None,
        be_scheduler=None,
    ) -> None:
        """Build a system; pass ``lc_scheduler``/``be_scheduler`` to inject
        pre-built (e.g. pre-trained) policy objects instead of fresh ones —
        used by the learning-curve experiments to warm up DCG-BE/GNN-SAC
        across runs, mirroring the paper's long online-training horizon."""
        self.config = config or TangoConfig()
        self.catalog = list(catalog or default_catalog())
        self.system = EdgeCloudSystem(self.config.topology)

        # HRM plumbing (detector is useful to everyone via state storage)
        self.detector = QoSDetector()
        self.reassurance: Optional[ReassuranceMechanism] = None
        if self.config.manager == "hrm" and self.config.reassurance_enabled:
            self.reassurance = ReassuranceMechanism(
                self.detector, self.config.reassurance
            )

        self.manager = self._build_manager()
        for worker in self.system.all_workers():
            worker.manager = self.manager

        specs = {s.name: s for s in self.catalog}
        self.storage = StateStorage(
            self.system,
            self.detector,
            refresh_period_ms=self.config.runner.state_refresh_ms,
            specs=specs,
        )
        self.lc_scheduler = lc_scheduler or self._build_lc_scheduler()
        self.be_scheduler = be_scheduler or self._build_be_scheduler()

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    def _build_manager(self):
        if self.config.manager == "hrm":
            reassurance = self.reassurance or ReassuranceMechanism(
                self.detector, self.config.reassurance
            )
            if self.reassurance is None:
                # re-assurance disabled: freeze minima by never running it;
                # the mechanism object still serves the catalog defaults.
                self._frozen_reassurance = reassurance
            return HRMManager(self.detector, reassurance, self.config.hrm)
        if self.config.manager == "static":
            return StaticPartitionManager()
        if self.config.manager == "ceres":
            return CeresManager()
        raise ValueError(self.config.manager)

    def _build_lc_scheduler(self):
        policy = self.config.lc_policy
        if policy == "dss-lc":
            return DSSLCScheduler(
                self.config.dss_lc, reassurance=self.reassurance
            )
        if policy == "load-greedy":
            return LoadGreedyScheduler()
        if policy == "k8s-native":
            return K8sNativeScheduler()
        if policy == "scoring":
            return ScoringScheduler()
        if policy == "dsaco":
            return self._shared_dsaco()
        raise ValueError(policy)

    def _build_be_scheduler(self):
        policy = self.config.be_policy
        if policy == "dcg-be":
            return DCGBEScheduler(self.config.dcg_be)
        if policy == "gnn-sac":
            return GNNSACScheduler(self.config.dcg_be)
        if policy == "load-greedy":
            return LoadGreedyScheduler()
        if policy == "k8s-native":
            return K8sNativeScheduler()
        if policy == "dsaco":
            return self._shared_dsaco()
        raise ValueError(policy)

    def _shared_dsaco(self) -> DSACOScheduler:
        if not hasattr(self, "_dsaco"):
            self._dsaco = DSACOScheduler(DSACOConfig(seed=self.config.seed))
        return self._dsaco

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _build_runner(self, trace: Sequence[TraceRecord]) -> SimulationRunner:
        runner = SimulationRunner(
            self.system,
            trace,
            self.catalog,
            self.lc_scheduler,
            self.be_scheduler,
            config=self.config.runner,
            state_storage=self.storage,
            reassurance=self.reassurance,
        )
        self.last_runner = runner
        return runner

    def run(
        self, trace: Sequence[TraceRecord], until_ms: Optional[float] = None
    ) -> RunMetrics:
        """Run the simulation (optionally only up to ``until_ms``).

        The runner stays reachable as ``self.last_runner``; after a partial
        run, call ``last_runner.checkpoint()`` to freeze the state and
        ``last_runner.run()`` to continue to the configured duration.
        """
        return self._build_runner(trace).run(until_ms=until_ms)

    def resume(self, trace: Sequence[TraceRecord], checkpoint) -> RunMetrics:
        """Resume a checkpointed run to completion on a freshly built
        system.  The system, config, and trace must match the ones the
        checkpoint was taken from; the resumed run's RunMetrics are
        bit-identical to a straight run of the same configuration."""
        runner = self._build_runner(trace)
        runner.restore(checkpoint)
        return runner.run()
