"""State storage: the periodically refreshed view schedulers decide on.

Fig. 3 ➋: each master's state storage holds the status of nearby edge-clouds
and "periodically receives metrics, such as resource usage, round-trip time,
and the QoS, which are pushed by Prometheus and the QoS detector".  The
schedulers therefore act on *snapshots* that can be up to one refresh period
stale — an intentional fidelity point: it reproduces the small load-balancing
errors a real system exhibits between metric pushes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.topology import EdgeCloudSystem
from repro.hrm.qos import QoSDetector
from repro.workloads.spec import ServiceSpec

__all__ = ["NodeSnapshot", "SystemSnapshot", "StateStorage"]


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


@dataclass
class SystemSnapshot:
    """All node snapshots plus inter-cluster delays at one refresh instant.

    Construction builds a name index and a per-cluster index so scheduler
    candidate loops stay O(candidates) instead of O(system): :meth:`node`
    is a dict lookup and :meth:`nodes_of` concatenates pre-grouped cluster
    lists.  ``nodes`` must not be mutated after construction.
    """

    time_ms: float
    nodes: List[NodeSnapshot]
    #: one-way delay between clusters in ms, indexed [a][b].
    delay_ms: List[List[float]]
    central_cluster_id: int

    def __post_init__(self) -> None:
        self._by_name: Dict[str, NodeSnapshot] = {n.name: n for n in self.nodes}
        by_cluster: Dict[int, List[NodeSnapshot]] = {}
        for n in self.nodes:
            by_cluster.setdefault(n.cluster_id, []).append(n)
        self._by_cluster = by_cluster
        # memoised nodes_of results; every master asks for the same cluster
        # neighbourhood each tick, and callers treat the result as read-only,
        # so the same list object can be served for the snapshot's lifetime.
        self._nodes_of_cache: Dict[tuple, List[NodeSnapshot]] = {}

    def nodes_of(self, cluster_ids: Optional[List[int]] = None) -> List[NodeSnapshot]:
        if cluster_ids is None:
            return list(self.nodes)
        # sorted unique ids reproduce the global node order (the nodes list
        # is grouped by ascending cluster), matching the seed's filter scan.
        key = tuple(sorted(set(cluster_ids)))
        cached = self._nodes_of_cache.get(key)
        if cached is None:
            cached = []
            for cid in key:
                members = self._by_cluster.get(cid)
                if members:
                    cached.extend(members)
            self._nodes_of_cache[key] = cached
        return cached

    def node(self, name: str) -> NodeSnapshot:
        found = self._by_name.get(name)
        if found is None:
            raise KeyError(name)
        return found


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
        self._snapshot = SystemSnapshot(
            time_ms=now_ms,
            nodes=nodes,
            delay_ms=self._delay_cache,
            central_cluster_id=self.system.central_cluster_id,
        )
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
        self._snapshot = state["snapshot"]
        self._last_refresh_ms = state["last_refresh_ms"]
        self._node_cache = state["node_cache"]
