"""The standard benchmark workload behind ``python -m repro bench``.

One fixed configuration — 10 clusters, heterogeneous worker counts (3-20 per
cluster), 10 s of simulated time, seeded trace at 60 LC / 15 BE rps — run
once with per-stage profiling.  It is a quick in-package look at one run;
performance is judged with ``perfbench/`` (``scripts/perf_ab.py`` compares
two checkouts on it).
"""

from __future__ import annotations

import platform
import time
from typing import Any, Dict, Optional

__all__ = ["STANDARD_WORKLOAD", "run_bench"]

#: the standard 10-cluster workload (matches the seed-baseline measurement).
STANDARD_WORKLOAD: Dict[str, Any] = {
    "clusters": 10,
    "workers_per_cluster": None,  # heterogeneous 3-20 per cluster
    "duration_ms": 10_000.0,
    "seed": 3,
    "lc_peak_rps": 60.0,
    "be_peak_rps": 15.0,
    "stack": "tango",
}


def run_bench(overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run the benchmark workload; returns a result dict (see keys below)."""
    from repro.cluster.topology import TopologyConfig
    from repro.core.config import TangoConfig
    from repro.core.tango import TangoSystem
    from repro.sim.runner import RunnerConfig
    from repro.workloads.trace import SyntheticTrace, TraceConfig

    wl = dict(STANDARD_WORKLOAD)
    if overrides:
        wl.update(overrides)

    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=wl["clusters"],
            duration_ms=wl["duration_ms"],
            seed=wl["seed"],
            lc_peak_rps=wl["lc_peak_rps"],
            be_peak_rps=wl["be_peak_rps"],
        )
    ).generate()

    factories = {
        "tango": TangoConfig.tango,
        "k8s-native": TangoConfig.k8s_native,
        "ceres": TangoConfig.ceres,
        "dsaco": TangoConfig.dsaco,
    }
    config = factories[wl["stack"]](
        topology=TopologyConfig(
            n_clusters=wl["clusters"],
            workers_per_cluster=wl["workers_per_cluster"],
            seed=wl["seed"],
        ),
        runner=RunnerConfig(duration_ms=wl["duration_ms"], profile=True),
    )
    system = TangoSystem(config)
    n_workers = system.system.total_nodes()

    t0 = time.perf_counter()
    metrics = system.run(trace)
    wall_s = time.perf_counter() - t0

    runner = system.last_runner
    n_ticks = int(wl["duration_ms"] / config.runner.tick_ms)
    result: Dict[str, Any] = {
        "workload": {**wl, "n_workers": n_workers, "trace_records": len(trace)},
        "ticks": n_ticks,
        "wall_s": round(wall_s, 3),
        "ticks_per_sec": round(n_ticks / wall_s, 2),
        "metrics": {
            "lc_completed": metrics.lc_completed,
            "be_completed": metrics.be_completed,
            "qos_satisfaction_rate": round(metrics.qos_satisfaction_rate, 4),
        },
        "python": platform.python_version(),
        "stage_ms": {
            k: round(v, 1) for k, v in runner.profiler.stage_ms().items()
        },
    }
    solver_stats = getattr(system.lc_scheduler, "solver_stats", None)
    if callable(solver_stats):
        result["solver"] = solver_stats()
    from repro.metrics.fingerprint import metrics_fingerprint

    result["fingerprint"] = metrics_fingerprint(metrics)
    return result

