"""Edge-cloud system topology: clusters, geography, and WAN latency.

§5.1.1/§6: clusters are connected by WAN with geography-dependent RTTs (the
production dataset shows edge→central RTTs above 97 ms); LC requests may only
be dispatched to the local or *geo-nearby* clusters (footnote 4: within
500 km); BE requests are all forwarded to a *central* cluster that is
"(i) geographically central and (ii) more resource-rich" (footnote 2).

The topology replaces the paper's Linux Traffic Control shaping: one-way
delays are ``RTT/2`` with RTT = base + distance × per-km cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.cluster import LAN_DELAY_MS, EdgeCloudCluster, make_heterogeneous_workers

__all__ = ["EdgeCloudSystem", "TopologyConfig"]

#: RTT model parameters: base switching latency + per-km propagation+routing.
RTT_BASE_MS = 4.0
RTT_PER_KM_MS = 0.055  # 500 km neighbours ≈ 31 ms; 1700 km ≈ 97 ms

#: bandwidth model (the Linux `tc` shaping the paper applies): LAN links run
#: at NIC speed; WAN throughput degrades with distance down to a floor.
LAN_MBPS = 1000.0
WAN_BASE_MBPS = 600.0
WAN_FLOOR_MBPS = 100.0
WAN_MBPS_LOST_PER_KM = 0.18


@dataclass
class TopologyConfig:
    n_clusters: int = 4
    #: workers per cluster; None draws 3-20 heterogeneously per cluster.
    workers_per_cluster: Optional[int] = 4
    #: side length of the square deployment region (km).
    region_km: float = 2400.0
    #: LC dispatch locality radius (footnote 4).
    nearby_radius_km: float = 500.0
    seed: int = 0


class EdgeCloudSystem:
    """All clusters plus the WAN connecting them."""

    def __init__(self, config: Optional[TopologyConfig] = None) -> None:
        self.config = config or TopologyConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.clusters: List[EdgeCloudCluster] = []
        positions = rng.uniform(0.0, cfg.region_km, size=(cfg.n_clusters, 2))
        for cid in range(cfg.n_clusters):
            workers = make_heterogeneous_workers(
                cid, rng, n_workers=cfg.workers_per_cluster
            )
            self.clusters.append(
                EdgeCloudCluster(
                    cluster_id=cid,
                    workers=workers,
                    position_km=(float(positions[cid, 0]), float(positions[cid, 1])),
                )
            )
        self._distance = self._distance_matrix()
        self.central_cluster_id = self._select_central()

    # ------------------------------------------------------------------ #
    # geometry / latency
    # ------------------------------------------------------------------ #
    def _distance_matrix(self) -> np.ndarray:
        pos = np.array([c.position_km for c in self.clusters])
        diff = pos[:, None, :] - pos[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    def distance_km(self, a: int, b: int) -> float:
        return float(self._distance[a, b])

    def rtt_ms(self, a: int, b: int) -> float:
        """WAN round-trip time between two clusters (0 for a==b)."""
        if a == b:
            return 2 * LAN_DELAY_MS
        return RTT_BASE_MS + self.distance_km(a, b) * RTT_PER_KM_MS

    def one_way_delay_ms(self, a: int, b: int) -> float:
        if a == b:
            return LAN_DELAY_MS
        return self.rtt_ms(a, b) / 2.0

    def bandwidth_mbps(self, a: int, b: int) -> float:
        """Link throughput between two clusters (LAN speed when a == b)."""
        if a == b:
            return LAN_MBPS
        return max(
            WAN_FLOOR_MBPS,
            WAN_BASE_MBPS
            - self.distance_km(a, b) * WAN_MBPS_LOST_PER_KM,
        )

    def transfer_ms(self, a: int, b: int, payload_kb: float) -> float:
        """One-way delivery time: propagation plus payload serialisation."""
        serialisation = (payload_kb * 8.0) / (self.bandwidth_mbps(a, b) * 1000.0)
        return self.one_way_delay_ms(a, b) + serialisation * 1000.0

    def nearby_clusters(self, cluster_id: int) -> List[int]:
        """Local + geo-nearby clusters eligible for LC dispatch (fn. 4)."""
        radius = self.config.nearby_radius_km
        return [
            other.cluster_id
            for other in self.clusters
            if other.cluster_id == cluster_id
            or self.distance_km(cluster_id, other.cluster_id) <= radius
        ]

    # ------------------------------------------------------------------ #
    # central cluster selection (footnote 2)
    # ------------------------------------------------------------------ #
    def _select_central(self) -> int:
        """Most central by mean distance, tie-broken toward resource-rich."""
        mean_dist = self._distance.mean(axis=1)
        capacity = np.array(
            [c.total_capacity().cpu for c in self.clusters], dtype=float
        )
        # normalise both criteria and combine: low distance, high capacity
        dist_score = (mean_dist - mean_dist.min()) / max(
            1e-9, mean_dist.max() - mean_dist.min()
        )
        cap_score = (capacity - capacity.min()) / max(
            1e-9, capacity.max() - capacity.min()
        )
        combined = (1.0 - dist_score) * 0.6 + cap_score * 0.4
        return int(np.argmax(combined))

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster(self, cluster_id: int) -> EdgeCloudCluster:
        return self.clusters[cluster_id]

    def all_workers(self):
        for c in self.clusters:
            yield from c.workers

    def total_nodes(self) -> int:
        return sum(len(c.workers) for c in self.clusters)

    def system_utilization(self) -> float:
        utils = [w.utilization() for w in self.all_workers()]
        return float(np.mean(utils)) if utils else 0.0
