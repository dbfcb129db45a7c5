"""Snapshot node views and incremental-refresh behaviour of StateStorage."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import EdgeCloudSystem, TopologyConfig
from repro.core.state_storage import (
    NODE_COLUMNS,
    NodeSnapshot,
    StateStorage,
    SystemSnapshot,
    build_topology,
)
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


def make_system(clusters=3, workers=2):
    system = EdgeCloudSystem(
        TopologyConfig(n_clusters=clusters, workers_per_cluster=workers)
    )
    for w in system.all_workers():
        w.manager = AdmitNothing()
    return system


def node_snapshot(i, cluster, vals):
    return NodeSnapshot(
        name=f"n{i}",
        cluster_id=cluster,
        cpu_total=vals[0],
        cpu_available=vals[1],
        mem_total=vals[2],
        mem_available=vals[3],
        lc_queue=int(vals[4] * 10),
        be_queue=int(vals[5] * 10),
        running=0,
        min_slack=vals[6],
        be_queue_cpu=vals[7],
        be_queue_mem=vals[8],
    )


FLOATS = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@st.composite
def node_lists(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    order = draw(st.sampled_from(["grouped", "alternating", "random"]))
    if order == "grouped":
        clusters = sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    elif order == "alternating":
        clusters = [i % 2 for i in range(n)]
    else:
        clusters = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return [
        node_snapshot(i, c, draw(st.lists(FLOATS, min_size=9, max_size=9)))
        for i, c in enumerate(clusters)
    ]


class TestIndexes:
    @settings(max_examples=80, deadline=None)
    @given(
        nodes=node_lists(),
        subset=st.one_of(st.none(), st.lists(st.integers(0, 4), max_size=5)),
    )
    def test_view_columns_equal_node_fields(self, nodes, subset):
        """Every view column equals the per-node field, and the view order
        is a filter of the global order, grouped by cluster or not."""
        snap = SystemSnapshot(
            time_ms=0.0, nodes=nodes, delay_ms=[[0.0]], central_cluster_id=0
        )
        view = snap.view(subset)
        want = [
            (i, n) for i, n in enumerate(nodes)
            if subset is None or n.cluster_id in set(subset)
        ]
        assert view.index.tolist() == [i for i, _ in want]
        assert [n.name for n in view.nodes] == [n.name for _, n in want]
        assert snap.nodes_of(subset) is view.nodes
        for name, dtype in NODE_COLUMNS:
            column = getattr(view, name)
            assert column.dtype == dtype
            assert not column.flags.writeable
            assert column.tolist() == [getattr(n, name) for _, n in want]

    @settings(max_examples=80, deadline=None)
    @given(
        nodes=node_lists(),
        subset=st.one_of(st.none(), st.lists(st.integers(0, 4), max_size=5)),
        delays=st.lists(st.sampled_from([5.0, 40.0, 90.0]), min_size=25, max_size=25),
        central=st.integers(0, 4),
    )
    def test_topology_equals_builder_over_filtered_nodes(
        self, nodes, subset, delays, central
    ):
        """The memoised topology of a view is the graph built over the
        filtered node list, for any cluster order and key spelling."""
        snap = SystemSnapshot(
            time_ms=0.0,
            nodes=nodes,
            delay_ms=[delays[5 * a : 5 * a + 5] for a in range(5)],
            central_cluster_id=central,
        )
        kept = [n for n in nodes if subset is None or n.cluster_id in set(subset)]
        adj = snap.topology(subset)
        assert adj == build_topology(kept, snap)
        assert adj == build_topology(snap.view(subset).nodes, snap)
        assert all(type(row) is tuple for row in adj)
        again = None if subset is None else list(reversed(subset)) + list(subset)
        assert snap.topology(again) is adj

    def test_nodes_of_preserves_seed_ordering(self):
        """Subset order must equal a filter of the global node order."""
        snap = StateStorage(make_system(clusters=4)).refresh(0.0)
        for subset in ([2], [0, 3], [3, 0], [1, 2, 3], [2, 2, 1]):
            want = [n for n in snap.nodes if n.cluster_id in set(subset)]
            got = snap.nodes_of(list(subset))
            assert [n.name for n in got] == [n.name for n in want]

    def test_nodes_of_caches_repeated_queries(self):
        snap = StateStorage(make_system()).refresh(0.0)
        first = snap.nodes_of([0, 1])
        second = snap.nodes_of([1, 0])  # order-insensitive cache key
        assert second is first
        assert snap.view([0, 1]) is snap.view((1, 0, 1))

    def test_nodes_of_none_is_snapshot_order(self):
        snap = StateStorage(make_system()).refresh(0.0)
        assert snap.nodes_of(None) == snap.nodes
        assert snap.view().index.tolist() == list(range(len(snap.nodes)))


class TestIncrementalRefresh:
    def test_clean_nodes_reuse_their_snapshot(self):
        storage = StateStorage(make_system())
        snap1 = storage.refresh(0.0, force=True)
        snap2 = storage.refresh(1_000.0, force=True)
        # no node changed: snapshot objects are rebuilt but node views reused
        for a, b in zip(snap1.nodes, snap2.nodes):
            assert a is b

    def test_dirty_node_gets_fresh_snapshot(self):
        system = make_system()
        storage = StateStorage(system)
        snap1 = storage.refresh(0.0, force=True)
        workers = list(system.all_workers())
        worker = workers[0]
        req = ServiceRequest(request_id=1, spec=LC, arrival_ms=0.0, origin_cluster=0)
        worker.enqueue(req, 5.0)
        snap2 = storage.refresh(1_000.0, force=True)
        old = {n.name: n for n in snap1.nodes}
        new = {n.name: n for n in snap2.nodes}
        fresh = new[worker.name]
        assert fresh is not old[worker.name]
        assert fresh.lc_queue == 1
        # untouched workers still share their old node view
        other = workers[-1]
        assert new[other.name] is old[other.name]

    def test_dirty_flag_cleared_after_refresh(self):
        system = make_system()
        storage = StateStorage(system)
        storage.refresh(0.0, force=True)
        assert all(not w.snapshot_dirty for w in system.all_workers())
