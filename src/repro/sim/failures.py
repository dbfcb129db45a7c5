"""Failure injection for robustness experiments.

Edge-clouds fail far more often than datacenters — nodes reboot, WAN links
flap.  The paper does not evaluate failures explicitly, but a management
framework claiming production readiness must degrade gracefully, so the
test suite injects:

* **node crashes** — a worker disappears: running requests are lost (BE
  requeued like evictions, LC abandoned), queued requests requeued, the
  node stops taking work until it recovers;
* **WAN partitions** — delays to a cluster become effectively infinite for
  a while; dispatchers keep working on the remaining topology.

The injector is deterministic for a given seed and driven by the runner's
tick loop via :meth:`apply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from typing import TYPE_CHECKING

from repro.obs.emitter import NULL_EMITTER
from repro.sim.request import RequestState, ServiceRequest

if TYPE_CHECKING:  # pragma: no cover - import avoided to keep the package
    # import graph acyclic (cluster.node uses sim.latency via sim/__init__)
    from repro.cluster.topology import EdgeCloudSystem

__all__ = ["FailureConfig", "FailureInjector", "FailureEvent"]


@dataclass(frozen=True)
class FailureEvent:
    time_ms: float
    kind: str  # "crash" | "recover" | "partition" | "heal"
    target: str


@dataclass
class FailureConfig:
    #: mean time between node crashes across the whole system (ms); None
    #: disables crash injection.
    node_mtbf_ms: Optional[float] = 30_000.0
    #: node downtime after a crash (ms).
    node_downtime_ms: float = 5_000.0
    #: mean time between WAN partitions (ms); None disables.
    partition_mtbf_ms: Optional[float] = None
    partition_duration_ms: float = 3_000.0
    seed: int = 0


class FailureInjector:
    """Schedules and applies crash/partition events against a system."""

    def __init__(
        self, system: "EdgeCloudSystem", config: Optional[FailureConfig] = None
    ) -> None:
        self.system = system
        self.config = config or FailureConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._down_nodes: Dict[str, float] = {}  # name -> recover time
        self._partitioned: Dict[int, float] = {}  # cluster -> heal time
        self._next_crash_ms = self._draw(self.config.node_mtbf_ms, 0.0)
        self._next_partition_ms = self._draw(self.config.partition_mtbf_ms, 0.0)
        self.events: List[FailureEvent] = []
        #: node names crashed during the most recent :meth:`apply` call —
        #: read by the failures stage to purge per-node derived state
        #: (QoS windows, re-assurance minima) that outlives the crash.
        self.last_crashed: List[str] = []
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER

    def _draw(self, mtbf: Optional[float], now_ms: float) -> float:
        if mtbf is None:
            return float("inf")
        return now_ms + float(self.rng.exponential(mtbf))

    # ------------------------------------------------------------------ #
    # queries used by the runner
    # ------------------------------------------------------------------ #
    def node_is_down(self, name: str) -> bool:
        return name in self._down_nodes

    def cluster_is_partitioned(self, cluster_id: int) -> bool:
        return cluster_id in self._partitioned

    @property
    def down_nodes(self) -> Set[str]:
        return set(self._down_nodes)

    # ------------------------------------------------------------------ #
    # tick hook
    # ------------------------------------------------------------------ #
    def apply(self, now_ms: float) -> List[ServiceRequest]:
        """Advance failure state; returns requests displaced this tick."""
        displaced: List[ServiceRequest] = []
        self.last_crashed = []

        # recoveries / heals
        for name in [n for n, t in self._down_nodes.items() if now_ms >= t]:
            del self._down_nodes[name]
            self.events.append(FailureEvent(now_ms, "recover", name))
            self.emitter.node_recovered(now_ms, name)
        for cid in [c for c, t in self._partitioned.items() if now_ms >= t]:
            del self._partitioned[cid]
            self.events.append(FailureEvent(now_ms, "heal", f"cluster-{cid}"))
            self.emitter.partition_healed(now_ms, cid)

        # new crash
        if now_ms >= self._next_crash_ms:
            self._next_crash_ms = self._draw(self.config.node_mtbf_ms, now_ms)
            victim = self._pick_up_node()
            if victim is not None:
                displaced.extend(self._crash(victim, now_ms))

        # new partition
        if now_ms >= self._next_partition_ms:
            self._next_partition_ms = self._draw(
                self.config.partition_mtbf_ms, now_ms
            )
            cid = int(self.rng.integers(self.system.n_clusters))
            if cid != self.system.central_cluster_id:
                self._partitioned[cid] = (
                    now_ms + self.config.partition_duration_ms
                )
                self.events.append(
                    FailureEvent(now_ms, "partition", f"cluster-{cid}")
                )
                self.emitter.partition_started(
                    now_ms, cid, self.config.partition_duration_ms
                )
        return displaced

    def _pick_up_node(self):
        candidates = [
            w for w in self.system.all_workers() if w.name not in self._down_nodes
        ]
        if not candidates:
            return None
        return candidates[int(self.rng.integers(len(candidates)))]

    def _crash(self, worker, now_ms: float) -> List[ServiceRequest]:
        self._down_nodes[worker.name] = now_ms + self.config.node_downtime_ms
        self.last_crashed.append(worker.name)
        self.events.append(FailureEvent(now_ms, "crash", worker.name))
        self.emitter.node_crashed(
            now_ms,
            worker.name,
            len(worker.running) + len(worker._lc_queue) + len(worker._be_queue),
        )
        displaced: List[ServiceRequest] = []
        # running requests lose all state
        for rr in list(worker.running.values()):
            worker.running.pop(rr.request.request_id, None)
            worker.reclaim(rr.allocation)
            request = rr.request
            if request.is_lc:
                request.mark_abandoned(now_ms)
            else:
                request.evictions += 1
                request.started_ms = None
                request.state = RequestState.QUEUED_MASTER
            displaced.append(request)
        # queued requests are displaced wholesale
        for queue in (worker._lc_queue, worker._be_queue):
            while queue:
                request = queue.popleft()
                request.state = RequestState.QUEUED_MASTER
                displaced.append(request)
        # queues/running were mutated directly, bypassing the node methods
        # that normally maintain the snapshot dirty flag.
        worker.snapshot_dirty = True
        return displaced

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """RNG position plus the full failure schedule (down/partitioned
        maps, next-event draws, event log)."""
        return {
            "rng": self.rng.bit_generator.state,
            "down_nodes": self._down_nodes,
            "partitioned": self._partitioned,
            "next_crash_ms": self._next_crash_ms,
            "next_partition_ms": self._next_partition_ms,
            "events": self.events,
        }

    def restore_state(self, state: Dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self._down_nodes = state["down_nodes"]
        self._partitioned = state["partitioned"]
        self._next_crash_ms = state["next_crash_ms"]
        self._next_partition_ms = state["next_partition_ms"]
        self.events = state["events"]
