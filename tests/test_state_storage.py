"""State storage snapshot + staleness tests."""

import pytest

from repro.cluster.topology import EdgeCloudSystem, TopologyConfig
from repro.core.state_storage import StateStorage, build_topology
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)


class AdmitNothing:
    def admit(self, node, request, now_ms):
        return None

    def on_complete(self, node, running, now_ms):
        pass

    def tick(self, node, now_ms):
        pass


def by_name(snap):
    return {n.name: n for n in snap.nodes}


def make_system():
    system = EdgeCloudSystem(TopologyConfig(n_clusters=3, workers_per_cluster=2))
    for w in system.all_workers():
        w.manager = AdmitNothing()
    return system


class TestSnapshot:
    def test_covers_all_nodes(self):
        system = make_system()
        storage = StateStorage(system)
        snap = storage.refresh(0.0)
        assert len(snap.nodes) == system.total_nodes()

    def test_delay_matrix_matches_topology(self):
        system = make_system()
        snap = StateStorage(system).refresh(0.0)
        for a in range(3):
            for b in range(3):
                assert snap.delay_ms[a][b] == pytest.approx(
                    system.one_way_delay_ms(a, b)
                )

    def test_nodes_of_filters_clusters(self):
        system = make_system()
        snap = StateStorage(system).refresh(0.0)
        subset = snap.nodes_of([1])
        assert all(n.cluster_id == 1 for n in subset)
        assert len(subset) == 2

    def test_queue_lengths_reflected(self):
        system = make_system()
        worker = system.clusters[0].workers[0]
        worker.enqueue(
            ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0), 0.0
        )
        snap = StateStorage(system).refresh(0.0)
        assert by_name(snap)[worker.name].lc_queue == 1


class TestStaleness:
    def test_snapshot_cached_within_period(self):
        system = make_system()
        storage = StateStorage(system, refresh_period_ms=100.0)
        snap1 = storage.refresh(0.0)
        # mutate the world
        worker = system.clusters[0].workers[0]
        worker.enqueue(
            ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=10.0), 10.0
        )
        snap2 = storage.refresh(50.0)
        assert snap2 is snap1  # still the stale snapshot
        snap3 = storage.refresh(150.0)
        assert snap3 is not snap1
        assert by_name(snap3)[worker.name].lc_queue == 1

    def test_force_refresh(self):
        system = make_system()
        storage = StateStorage(system, refresh_period_ms=1e9)
        snap1 = storage.refresh(0.0)
        snap2 = storage.refresh(1.0, force=True)
        assert snap2 is not snap1

    def test_central_cluster_propagated(self):
        system = make_system()
        snap = StateStorage(system).refresh(0.0)
        assert snap.central_cluster_id == system.central_cluster_id


class TestTopology:
    def test_unchanged_worker_set_keeps_topology(self):
        storage = StateStorage(make_system())
        snap1 = storage.refresh(0.0)
        adj, subset = snap1.topology(), snap1.topology([1, 2])
        snap2 = storage.refresh(1.0, force=True)
        assert snap2 is not snap1
        assert snap2.topology() is adj
        assert snap2.topology([2, 1]) is subset

    def test_hidden_node_rebuilds_topology(self):
        """Hiding a node, as a crash does, gives a new graph over the
        remaining nodes; showing it again gives the original graph back."""
        storage = StateStorage(make_system())
        before = storage.refresh(0.0).topology()
        storage.node_filter = lambda name, cluster: name != "c0-w0"
        snap = storage.refresh(1.0, force=True)
        assert len(snap.nodes) == len(before) - 1
        assert snap.topology() is not before
        assert snap.topology() == build_topology(snap.nodes, snap)
        storage.node_filter = None
        assert storage.refresh(2.0, force=True).topology() == before
