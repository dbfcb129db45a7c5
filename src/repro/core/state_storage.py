"""State storage: the periodically refreshed view schedulers decide on.

Fig. 3 ➋: each master's state storage holds the status of nearby edge-clouds
and "periodically receives metrics, such as resource usage, round-trip time,
and the QoS, which are pushed by Prometheus and the QoS detector".  The
schedulers therefore act on *snapshots* that can be up to one refresh period
stale — an intentional fidelity point: it reproduces the small load-balancing
errors a real system exhibits between metric pushes.

The snapshot also owns DCG-BE's worker graph G' = (S', Z') of §5.3.1, which
refreshes carry forward until a crash, recovery or partition changes the
worker set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.topology import EdgeCloudSystem
from repro.hrm.qos import QoSDetector
from repro.workloads.spec import ServiceSpec

__all__ = ["NodeSnapshot", "NodeView", "SystemSnapshot", "StateStorage", "build_topology"]

#: delay (one-way, ms) under which two clusters get a WAN gateway edge.
WAN_EDGE_DELAY_MS = 40.0


@dataclass(frozen=True)
class NodeSnapshot:
    """One worker's state as of the last refresh (X_i^k fields of §5.2.1)."""

    name: str
    cluster_id: int
    cpu_total: float
    cpu_available: float
    mem_total: float
    mem_available: float
    lc_queue: int
    be_queue: int
    running: int
    #: worst LC slack score on the node (δ_k of §4.3; DCG-BE state feature).
    min_slack: float
    #: reference CPU/memory demand waiting in the node's BE queue (the
    #: Q_{t,i} aggregate of DCG-BE's short-term reward).
    be_queue_cpu: float = 0.0
    be_queue_mem: float = 0.0


#: the numeric NodeSnapshot fields every array-reading scheduler uses, as
#: ``(field, dtype)``; a :class:`NodeView` carries one column per entry.
NODE_COLUMNS = (
    ("cluster_id", np.intp),
    ("cpu_total", np.float64),
    ("cpu_available", np.float64),
    ("mem_total", np.float64),
    ("mem_available", np.float64),
    ("lc_queue", np.int64),
    ("be_queue", np.int64),
    ("be_queue_cpu", np.float64),
    ("be_queue_mem", np.float64),
    ("min_slack", np.float64),
)


@dataclass(frozen=True, eq=False)
class NodeView:
    """The nodes of some clusters in snapshot order, plus their columns.

    ``index`` holds each node's position in the snapshot's node list, and
    every column is the snapshot column gathered at ``index``.  Columns are
    read-only; a scheduler that updates working state copies them.
    """

    nodes: List[NodeSnapshot]
    index: np.ndarray
    cluster_id: np.ndarray
    cpu_total: np.ndarray
    cpu_available: np.ndarray
    mem_total: np.ndarray
    mem_available: np.ndarray
    lc_queue: np.ndarray
    be_queue: np.ndarray
    be_queue_cpu: np.ndarray
    be_queue_mem: np.ndarray
    min_slack: np.ndarray


@dataclass
class SystemSnapshot:
    """All node snapshots plus inter-cluster delays at one refresh instant.

    The per-node columns are built from ``nodes`` once, on first read, and
    every cluster neighbourhood a scheduler asks for is one memoised
    :class:`NodeView` of them, with one memoised :meth:`topology`.
    ``nodes`` must not be mutated after construction.
    """

    time_ms: float
    nodes: List[NodeSnapshot]
    #: one-way delay between clusters in ms, indexed [a][b].
    delay_ms: List[List[float]]
    central_cluster_id: int

    def __post_init__(self) -> None:
        #: sorted unique cluster ids (None = every cluster) -> view.
        self._views: Dict[Optional[tuple], NodeView] = {}
        #: same keys -> graph of that view; refresh hands it on (StateStorage).
        self._topologies: Dict[Optional[tuple], tuple] = {}

    def view(self, cluster_ids: Optional[Sequence[int]] = None) -> NodeView:
        """The nodes of ``cluster_ids`` (all when None) with their columns.

        The view keeps snapshot order: its index is a filter of the global
        order, whatever order the clusters' nodes appear in.
        """
        key = None if cluster_ids is None else tuple(sorted(set(cluster_ids)))
        found = self._views.get(key)
        if found is None:
            if key is None:
                index = np.arange(len(self.nodes))
                columns = {
                    name: np.array([getattr(n, name) for n in self.nodes], dtype)
                    for name, dtype in NODE_COLUMNS
                }
            else:
                # a lookup table over the (small, non-negative) cluster ids:
                # the filter np.isin does, without its per-call overhead
                full = self.view()
                member = np.zeros(int(full.cluster_id.max(initial=-1)) + 1, bool)
                member[[c for c in key if c < member.size]] = True
                index = np.flatnonzero(member[full.cluster_id])
                columns = {
                    name: getattr(full, name)[index] for name, _ in NODE_COLUMNS
                }
            for column in columns.values():
                column.flags.writeable = False
            found = self._views[key] = NodeView(
                [self.nodes[i] for i in index.tolist()], index, **columns
            )
        return found

    def nodes_of(
        self, cluster_ids: Optional[Sequence[int]] = None
    ) -> List[NodeSnapshot]:
        """The node list of :meth:`view`; callers treat it as read-only."""
        return self.view(cluster_ids).nodes

    def topology(self, cluster_ids: Optional[Sequence[int]] = None) -> tuple:
        """:func:`build_topology` over the nodes of :meth:`view`, memoised."""
        key = None if cluster_ids is None else tuple(sorted(set(cluster_ids)))
        found = self._topologies.get(key)
        if found is None:
            found = self._topologies[key] = build_topology(
                self.view(key).nodes, self
            )
        return found


def build_topology(nodes: Sequence[NodeSnapshot], snapshot: SystemSnapshot) -> tuple:
    """Adjacency over worker nodes: LAN cliques + WAN gateway edges, as a
    tuple of neighbour-index tuples so no reader can change it."""
    adj: List[List[int]] = [[] for _ in nodes]
    by_cluster: Dict[int, List[int]] = {}
    for idx, node in enumerate(nodes):
        by_cluster.setdefault(node.cluster_id, []).append(idx)
    # LAN: complete graph within a cluster
    for members in by_cluster.values():
        for i in members:
            for j in members:
                if i != j:
                    adj[i].append(j)
    # WAN: first worker of each cluster pair acts as gateway
    clusters = sorted(by_cluster)
    central = snapshot.central_cluster_id
    for ai, a in enumerate(clusters):
        for b in clusters[ai + 1 :]:
            delay = snapshot.delay_ms[a][b]
            if delay <= WAN_EDGE_DELAY_MS or central in (a, b):
                ga, gb = by_cluster[a][0], by_cluster[b][0]
                adj[ga].append(gb)
                adj[gb].append(ga)
    return tuple(map(tuple, adj))


class StateStorage:
    """Periodic snapshotter over the live system."""

    def __init__(
        self,
        system: EdgeCloudSystem,
        detector: Optional[QoSDetector] = None,
        *,
        refresh_period_ms: float = 800.0,
        specs: Optional[Dict[str, ServiceSpec]] = None,
        node_filter: Optional[Callable[[str, int], bool]] = None,
    ) -> None:
        self.system = system
        self.detector = detector
        self.refresh_period_ms = refresh_period_ms
        self.specs = specs or {}
        #: predicate (node_name, cluster_id) → visible; used by failure
        #: injection to hide crashed nodes and partitioned clusters from
        #: the schedulers, as a real monitoring pipeline would.
        self.node_filter = node_filter
        self._snapshot: Optional[SystemSnapshot] = None
        self._last_refresh_ms: float = -1e18
        #: per-worker NodeSnapshot reuse: a worker whose runtime state did
        #: not change since its last snapshot (``snapshot_dirty`` unset)
        #: serves the cached frozen snapshot instead of being re-measured.
        self._node_cache: Dict[str, NodeSnapshot] = {}
        #: inter-cluster delays are pure geometry — computed once, not per
        #: refresh (invalidated only if the cluster count changes).
        self._delay_cache: Optional[List[List[float]]] = None

    def refresh(self, now_ms: float, *, force: bool = False) -> SystemSnapshot:
        if (
            not force
            and self._snapshot is not None
            and now_ms - self._last_refresh_ms < self.refresh_period_ms
        ):
            return self._snapshot
        self._last_refresh_ms = now_ms
        nodes: List[NodeSnapshot] = []
        cache = self._node_cache
        for worker in self.system.all_workers():
            if self.node_filter is not None and not self.node_filter(
                worker.name, worker.cluster_id
            ):
                continue
            snap = cache.get(worker.name)
            if snap is None or getattr(worker, "snapshot_dirty", True):
                snap = self._snapshot_worker(worker, now_ms)
                cache[worker.name] = snap
                worker.snapshot_dirty = False
            nodes.append(snap)
        n = self.system.n_clusters
        if self._delay_cache is None or len(self._delay_cache) != n:
            self._delay_cache = [
                [self.system.one_way_delay_ms(a, b) for b in range(n)]
                for a in range(n)
            ]
        previous = self._snapshot
        self._snapshot = SystemSnapshot(
            time_ms=now_ms,
            nodes=nodes,
            delay_ms=self._delay_cache,
            central_cluster_id=self.system.central_cluster_id,
        )
        # names encode the cluster (c{id}-w{i}) and the central cluster is
        # fixed, so the same names over the same delays give the same graph
        # for every view key
        if (
            previous is not None
            and previous.delay_ms is self._delay_cache
            and [s.name for s in previous.nodes] == [s.name for s in nodes]
        ):
            self._snapshot._topologies = previous._topologies
        # publish the snapshot with its columns built, so no scheduler's
        # timed decision pays for the whole node list
        self._snapshot.view()
        return self._snapshot

    def _snapshot_worker(self, worker, now_ms: float) -> NodeSnapshot:
        free = worker.free()
        lc_q, be_q = worker.queue_lengths()
        q_cpu, q_mem = worker.queued_be_demand()
        if self.detector is not None and self.specs:
            slack = self.detector.node_min_slack(
                worker.name, self.specs, now_ms=now_ms
            )
        else:
            slack = 1.0
        return NodeSnapshot(
            name=worker.name,
            cluster_id=worker.cluster_id,
            cpu_total=worker.capacity.cpu,
            cpu_available=free.cpu,
            mem_total=worker.capacity.memory,
            mem_available=free.memory,
            lc_queue=lc_q,
            be_queue=be_q,
            running=len(worker.running),
            min_slack=slack,
            be_queue_cpu=q_cpu,
            be_queue_mem=q_mem,
        )

    @property
    def current(self) -> Optional[SystemSnapshot]:
        return self._snapshot

    def cached_node_snapshot(self, name: str) -> Optional[NodeSnapshot]:
        """Last per-worker view built by :meth:`refresh` (None before the
        first refresh touches the node).  Used by the invariant checker to
        compare the cached view against ground truth."""
        return self._node_cache.get(name)

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """Refresh phase is behaviorally observable (snapshot staleness is
        an intentional fidelity point), so the current snapshot, its
        timestamp, and the per-worker cache are all part of the state —
        restore must *not* force a refresh."""
        return {
            "snapshot": self._snapshot,
            "last_refresh_ms": self._last_refresh_ms,
            "node_cache": self._node_cache,
        }

    def restore_state(self, state: Dict) -> None:
        # rebuilt from its fields, so a snapshot pickled by an older build
        # (other index attributes, no view memo) serves views like a new one
        snapshot = state["snapshot"]
        self._snapshot = None if snapshot is None else replace(snapshot)
        self._last_refresh_ms = state["last_refresh_ms"]
        self._node_cache = state["node_cache"]
