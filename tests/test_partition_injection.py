"""Runner-level WAN partition coverage.

The injector-level partition mechanics live in tests/test_failures.py;
these tests drive partitions through the whole runner loop and assert the
behaviours a management framework must keep under a WAN split:

* a partitioned cluster's workers disappear from scheduler snapshots and
  no dispatch decision targets them while the partition is active;
* dispatch keeps working on the remaining topology (LC still completes);
* the heal restores visibility;
* partition/heal events land on the observability bus and name the
  partitioned cluster.
"""

from __future__ import annotations

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.obs.events import (
    PartitionHealed,
    PartitionStarted,
    RequestScheduled,
)
from repro.sim.engine import TICK_MS
from repro.sim.failures import FailureConfig
from repro.sim.runner import RunnerConfig, SimulationRunner
from repro.workloads.trace import SyntheticTrace, TraceConfig

CLUSTERS = 3
WORKERS = 2


def partition_config(seed=3, duration_ms=4_000.0):
    return RunnerConfig(
        duration_ms=duration_ms,
        observe=True,
        obs_ring_capacity=100_000,
        # refresh the scheduler snapshots every tick so a partition is
        # visible to the very next dispatch round (no staleness window).
        state_refresh_ms=TICK_MS,
        failures=FailureConfig(
            node_mtbf_ms=None,  # isolate partitions from crashes
            partition_mtbf_ms=600.0,
            partition_duration_ms=400.0,
            seed=seed,
        ),
    )


def run_partitioned(seed=3, duration_ms=4_000.0):
    cfg = TangoConfig.tango(
        topology=TopologyConfig(
            n_clusters=CLUSTERS, workers_per_cluster=WORKERS, seed=0
        ),
        runner=partition_config(seed=seed, duration_ms=duration_ms),
    )
    system = TangoSystem(cfg)
    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=CLUSTERS, duration_ms=duration_ms, seed=1,
            lc_peak_rps=15.0, be_peak_rps=5.0,
        )
    ).generate()
    metrics = system.run(trace)
    return system, metrics


class TestPartitionRun:
    def test_partitions_happen_and_dispatch_continues(self):
        system, metrics = run_partitioned()
        runner = system.last_runner
        bus = runner.hub.bus
        starts = bus.count(PartitionStarted)
        assert starts >= 1, "config must actually trigger partitions"
        # service survives: LC work keeps completing on the rest of the
        # topology despite clusters dropping off the WAN
        assert metrics.lc_completed > 0
        assert metrics.be_completed > 0

    def test_heals_follow_starts(self):
        system, _ = run_partitioned()
        bus = system.last_runner.hub.bus
        starts = bus.count(PartitionStarted)
        heals = bus.count(PartitionHealed)
        # every partition heals eventually; a start can extend an already
        # active partition (merging into one heal), and partitions still
        # active at the end of the run are outstanding — so heals never
        # exceed starts minus what is still open
        assert 0 < heals <= starts
        outstanding = len(system.last_runner.injector._partitioned)
        assert starts - heals >= outstanding

    def test_central_cluster_never_partitioned(self):
        system, _ = run_partitioned()
        bus = system.last_runner.hub.bus
        central = system.system.central_cluster_id
        for ev in bus.events(PartitionStarted):
            assert ev.cluster_id != central

    def test_no_dispatch_into_partitioned_cluster(self):
        """Reconstruct partition windows from the event stream and check
        no scheduling decision targeted an isolated cluster."""
        system, _ = run_partitioned()
        bus = system.last_runner.hub.bus
        windows = {}  # cluster -> [start, heal)
        open_at = {}
        for ev in bus.events(PartitionStarted, PartitionHealed):
            if isinstance(ev, PartitionStarted):
                open_at[ev.cluster_id] = ev.time_ms
            else:
                windows.setdefault(ev.cluster_id, []).append(
                    (open_at.pop(ev.cluster_id), ev.time_ms)
                )
        for cid, start in open_at.items():  # unhealed at end of run
            windows.setdefault(cid, []).append((start, float("inf")))
        assert windows
        for ev in bus.events(RequestScheduled):
            for start, heal in windows.get(ev.cluster_id, ()):
                assert not (start <= ev.time_ms < heal), (
                    f"request {ev.request_id} scheduled into partitioned "
                    f"cluster {ev.cluster_id} at t={ev.time_ms}"
                )

    def test_partition_events_name_clusters(self):
        system, _ = run_partitioned()
        bus = system.last_runner.hub.bus
        starts = bus.events(PartitionStarted)
        assert starts
        for ev in starts:
            assert 0 <= ev.cluster_id < CLUSTERS
            assert ev.duration_ms > 0
        assert bus.count(PartitionHealed) > 0

    def test_bus_matches_injector_event_log(self):
        system, _ = run_partitioned()
        runner = system.last_runner
        legacy = [e for e in runner.injector.events if e.kind == "partition"]
        assert len(legacy) == runner.hub.bus.count(PartitionStarted)

    def test_metric_counters(self):
        system, _ = run_partitioned()
        runner = system.last_runner
        reg = runner.hub.registry
        bus = runner.hub.bus
        assert reg.get("wan_partitions_total").value() == bus.count(
            PartitionStarted
        )
        assert reg.get("wan_heals_total").value() == bus.count(PartitionHealed)


class TestSnapshotVisibility:
    """Deterministic check of the partition → snapshot → heal path."""

    def make_runner(self):
        cfg = TangoConfig.tango(
            topology=TopologyConfig(
                n_clusters=CLUSTERS, workers_per_cluster=WORKERS, seed=0
            ),
            runner=partition_config(),
        )
        system = TangoSystem(cfg)
        runner = SimulationRunner(
            system.system, [], system.catalog,
            system.lc_scheduler, system.be_scheduler,
            config=partition_config(),
            state_storage=system.storage,
            reassurance=system.reassurance,
        )
        return system, runner

    def test_partitioned_cluster_hidden_then_restored(self):
        system, runner = self.make_runner()
        injector = runner.injector
        storage = runner.storage
        victim = 1
        assert victim != system.system.central_cluster_id

        snap = storage.refresh(0.0, force=True)
        assert {n.cluster_id for n in snap.nodes} == set(range(CLUSTERS))
        full_count = len(snap.nodes)

        # partition: workers of the victim cluster vanish from snapshots
        injector._partitioned[victim] = 1_000.0  # heals at t=1000
        snap = storage.refresh(100.0, force=True)
        assert victim not in {n.cluster_id for n in snap.nodes}
        assert len(snap.nodes) == full_count - WORKERS
        assert snap.nodes_of([victim]) == []

        # heal via the injector's own tick hook → visibility restored
        # and the heal event is published on the bus
        injector.apply(1_500.0)
        assert not injector.cluster_is_partitioned(victim)
        snap = storage.refresh(1_600.0, force=True)
        assert len(snap.nodes) == full_count
        assert victim in {n.cluster_id for n in snap.nodes}
        heals = runner.hub.bus.events(PartitionHealed)
        assert [ev.cluster_id for ev in heals] == [victim]
