"""Scale-expansion study — §7's third evaluation question.

"Can Tango adapt to system scale expansion?"  The paper answers by moving
from the 4 physical clusters to the 104-cluster hybrid testbed.  This
harness sweeps the cluster count while holding per-cluster load constant
and checks that Tango's quality metrics hold (or improve — more nearby
clusters give DSS-LC more spill options) and that decision overheads grow
gracefully:

* LC QoS-guarantee satisfaction rate per system size;
* per-dispatch DSS-LC decision latency (must stay ≪ QoS targets);
* BE throughput per node (work-conserving scaling — no central bottleneck).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cluster.topology import TopologyConfig
from repro.core.config import TangoConfig
from repro.core.tango import TangoSystem
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

from .common import print_table

__all__ = ["run_scale_expansion", "main"]

_DURATION_MS = 10_000.0
_LC_RPS = 18.0
_BE_RPS = 6.0


def run_scale_expansion(
    cluster_counts: Sequence[int] = (2, 4, 8, 16),
    seed: int = 1,
) -> Dict[int, Dict[str, float]]:
    result: Dict[int, Dict[str, float]] = {}
    for n in cluster_counts:
        config = TangoConfig.tango(
            topology=TopologyConfig(
                n_clusters=n, workers_per_cluster=3, seed=seed,
                region_km=1200.0,
            ),
            runner=RunnerConfig(duration_ms=_DURATION_MS),
        )
        trace = SyntheticTrace(
            TraceConfig(
                n_clusters=n,
                duration_ms=_DURATION_MS,
                lc_peak_rps=_LC_RPS,
                be_peak_rps=_BE_RPS,
                seed=seed,
            )
        ).generate()
        system = TangoSystem(config)
        metrics = system.run(trace)
        n_nodes = system.system.total_nodes()
        result[n] = {
            "nodes": float(n_nodes),
            "qos_rate": metrics.qos_satisfaction_rate,
            "throughput_per_node": metrics.be_throughput / max(1, n_nodes),
            "dss_decision_ms": system.lc_scheduler.mean_decision_latency_ms(),
            "utilization": metrics.mean_utilization,
        }
    return result


def main(scale_name: str = "small") -> Dict[int, Dict[str, float]]:
    del scale_name
    result = run_scale_expansion()
    rows = [
        {"clusters": n, **{k: v for k, v in stats.items()}}
        for n, stats in result.items()
    ]
    print_table("§7.3 scale expansion: Tango vs system size", rows)
    return result


if __name__ == "__main__":
    main()
