"""§7.2 DSS-LC decision-latency scaling.

"DSS-LC is also ideal for timely performance, with a response time of
1.99 ms for a node size of 500 and 3.98 ms for a node size of 1000, which is
less than 2 % of the QoS target."

The harness sweeps the node count and times full dispatch decisions
(capacity terms + closed-form G_k solve + assignment).  Each size gets one
discarded warm-up dispatch, then the sizes are timed round-robin so machine
drift hits all of them alike, and each size reports the median and the
interquartile range of its repeats.  A fixed per-call cost dominates the
small sizes, so the shape that must hold is growth beyond the noise: each
round times every size back to back, so the per-round difference against
the smallest size cancels host noise common to the round, and at the
largest size the lower quartile of those differences must be positive.  The
1000-node decision must stay under the paper's 3.98 ms and every size far
below the smallest LC QoS target (250 ms).
"""

from __future__ import annotations

from typing import Dict, Sequence

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


#: node counts of the §7.2 sweep (the paper reports 500 and 1000).
NODE_COUNTS = (100, 250, 500, 1000, 2000)


def dispatch_latencies(
    node_counts: Sequence[int] = NODE_COUNTS,
    n_requests: int = 50,
    repeats: int = 21,
    seed: int = 0,
) -> Dict[int, np.ndarray]:
    """Decision latencies (ms) of ``repeats`` timed dispatches per size;
    entry ``k`` of every array was timed in round ``k``."""
    rng = np.random.default_rng(seed)
    setups = {n: (DSSLCScheduler(), _snapshot(n, rng)) for n in node_counts}
    for _ in range(1 + repeats):  # the first pass is the warm-up
        for scheduler, snapshot in setups.values():
            requests = [
                ServiceRequest(spec=_LC, origin_cluster=0, arrival_ms=0.0)
                for _ in range(n_requests)
            ]
            scheduler.dispatch(0, requests, snapshot, [0], 0.0)
    return {
        n: np.array(scheduler.decision_latencies_ms[1:])
        for n, (scheduler, _) in setups.items()
    }


def run_dss_latency(
    node_counts: Sequence[int] = NODE_COUNTS,
    n_requests: int = 50,
    repeats: int = 21,
    seed: int = 0,
) -> Dict[int, float]:
    """Median decision latency (ms) per node count."""
    samples = dispatch_latencies(node_counts, n_requests, repeats, seed)
    return {n: float(np.median(s)) for n, s in samples.items()}


def main(scale_name: str = "small") -> Dict[int, Dict[str, float]]:
    """Per node count: median and interquartile range (ms), and the lower
    quartile of the per-round differences against the smallest size."""
    del scale_name
    result = {}
    latencies = dispatch_latencies()
    smallest = latencies[min(latencies)]
    for n, samples in latencies.items():
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        result[n] = {
            "median_ms": float(median),
            "iqr_ms": float(q3 - q1),
            "paired_q1_ms": float(np.percentile(samples - smallest, 25)),
        }
    rows = [
        {"nodes": n, **stats, "paper": "1.99 ms @500 / 3.98 ms @1000"}
        for n, stats in result.items()
    ]
    print_table("§7.2 DSS-LC decision latency vs node count", rows)
    return result


if __name__ == "__main__":
    main()
