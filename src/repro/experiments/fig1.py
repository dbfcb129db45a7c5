"""Figure 1 — Measurement of industrial edge-clouds.

(a) Resource usage of edge clouds over a day: with LC services hosted alone
    (the pre-co-location deployment the paper motivates against), average
    utilisation stays **below ~20 %** even at the afternoon/evening peaks.
(b) Average response latency of LC services: most requests complete within
    **approximately 300 ms**.

We regenerate both panels by running an LC-only day-long (compressed) trace
through the simulator with the K8s-native stack — the deployment the
production measurement reflects — and sampling utilisation and mean latency
per period.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.config import TangoConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

from .common import SCALES, build_and_run, print_table, scaled_config

__all__ = ["run_fig1", "main"]


def run_fig1(scale_name: str = "small", seed: int = 1) -> Dict[str, object]:
    scale = SCALES[scale_name]
    # LC-only trace across a compressed day (hours_per_second covers 24h)
    hours_per_second = 24.0 / (scale.duration_ms / 1000.0)
    trace_cfg = TraceConfig(
        n_clusters=scale.n_clusters,
        duration_ms=scale.duration_ms,
        lc_peak_rps=scale.lc_peak_rps,
        be_peak_rps=0.0,  # LC services hosted alone
        hours_per_second=hours_per_second,
        start_hour=0.0,
        seed=seed,
    )
    trace = SyntheticTrace(trace_cfg).generate()
    config = scaled_config(TangoConfig.k8s_native, scale, seed=seed)
    metrics = build_and_run(config, scale, trace=trace)

    n_periods = len(metrics.utilization)
    hours = [
        (i + 1) * (scale.duration_ms / n_periods) / 1000.0 * hours_per_second
        for i in range(n_periods)
    ]
    latencies = metrics.lc_latencies_ms
    return {
        "hours": hours,
        "utilization": metrics.utilization,
        "mean_utilization": metrics.mean_utilization,
        "mean_latency_ms": float(np.mean(latencies)) if latencies else 0.0,
        "p95_latency_ms": metrics.lc_tail_latency_ms() or 0.0,
        "peak_utilization": max(metrics.utilization) if metrics.utilization else 0.0,
    }


def main(scale_name: str = "small") -> Dict[str, object]:
    result = run_fig1(scale_name)
    rows = [
        {
            "panel": "(a) utilization",
            "mean": result["mean_utilization"],
            "peak": result["peak_utilization"],
            "paper": "< 0.20 mean",
        },
        {
            "panel": "(b) LC latency",
            "mean": result["mean_latency_ms"],
            "peak": result["p95_latency_ms"],
            "paper": "~300 ms",
        },
    ]
    print_table("Figure 1: industrial edge-cloud measurement", rows)
    return result


if __name__ == "__main__":
    main()
