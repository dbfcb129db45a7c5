"""§7.2 DSS-LC decision-latency scaling.

"DSS-LC is also ideal for timely performance, with a response time of
1.99 ms for a node size of 500 and 3.98 ms for a node size of 1000, which is
less than 2 % of the QoS target."

The harness sweeps the node count and times one full dispatch decision
(capacity terms + closed-form G_k solve + assignment) per size.  The shape that
must hold: near-linear growth, with the 1000-node decision roughly twice
the 500-node one and both far below the smallest LC QoS target (250 ms).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.scheduling.dss_lc import DSSLCScheduler
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

from .common import print_table

__all__ = ["run_dss_latency", "main"]

_LC = next(s for s in default_catalog() if s.kind is ServiceKind.LC)


def _snapshot(n_nodes: int, rng: np.random.Generator) -> SystemSnapshot:
    nodes = [
        NodeSnapshot(
            name=f"n{i}",
            cluster_id=0,
            cpu_total=8.0,
            cpu_available=float(rng.uniform(0.5, 8.0)),
            mem_total=16384.0,
            mem_available=float(rng.uniform(1024.0, 16384.0)),
            lc_queue=0,
            be_queue=0,
            running=0,
            min_slack=1.0,
        )
        for i in range(n_nodes)
    ]
    return SystemSnapshot(
        time_ms=0.0, nodes=nodes, delay_ms=[[1.0]], central_cluster_id=0
    )


def run_dss_latency(
    node_counts: Sequence[int] = (100, 250, 500, 1000),
    n_requests: int = 50,
    repeats: int = 5,
    seed: int = 0,
) -> Dict[int, float]:
    rng = np.random.default_rng(seed)
    result: Dict[int, float] = {}
    for n in node_counts:
        scheduler = DSSLCScheduler()
        snapshot = _snapshot(n, rng)
        for _ in range(repeats):
            requests = [
                ServiceRequest(spec=_LC, origin_cluster=0, arrival_ms=0.0)
                for _ in range(n_requests)
            ]
            scheduler.dispatch(0, requests, snapshot, [0], 0.0)
        result[n] = scheduler.mean_decision_latency_ms()
    return result


def main(scale_name: str = "small") -> Dict[int, float]:
    del scale_name
    result = run_dss_latency()
    rows = [
        {
            "nodes": n,
            "decision_ms": latency,
            "paper": "1.99 ms @500 / 3.98 ms @1000",
        }
        for n, latency in result.items()
    ]
    print_table("§7.2 DSS-LC decision latency vs node count", rows)
    return result


if __name__ == "__main__":
    main()
