"""Trace statistics: the summaries used to sanity-check workload realism.

Before trusting experiment results, one should check the trace actually has
the marginals the paper relies on (diurnal shape, LC/BE mix, per-type
demand heterogeneity, geographic skew).  :func:`summarize_trace` computes
them; tests pin them for the synthetic generator; examples print them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .spec import ServiceKind
from .trace import TraceRecord

__all__ = ["TraceSummary", "summarize_trace", "arrival_series"]


@dataclass
class TraceSummary:
    n_records: int
    duration_ms: float
    lc_fraction: float
    #: requests/second overall
    mean_rps: float
    #: max-over-buckets / mean (burstiness indicator)
    peak_to_mean: float
    #: per-cluster share of requests (geographic skew)
    cluster_share: Dict[int, float]
    #: per-service request counts
    service_mix: Dict[str, int]
    #: mean CPU demand per kind
    mean_cpu: Dict[str, float]

    def skew_ratio(self) -> float:
        """Max/min cluster share — 1.0 means perfectly even load."""
        shares = list(self.cluster_share.values())
        if not shares or min(shares) <= 0:
            return float("inf")
        return max(shares) / min(shares)


def arrival_series(
    records: Sequence[TraceRecord],
    bucket_ms: float = 1_000.0,
    kind: ServiceKind = None,
) -> np.ndarray:
    """Arrival counts per time bucket (optionally filtered by kind)."""
    if not records:
        return np.zeros(0)
    horizon = max(r.time_ms for r in records)
    n_buckets = int(horizon / bucket_ms) + 1
    series = np.zeros(n_buckets)
    for r in records:
        if kind is not None and r.kind is not kind:
            continue
        series[min(n_buckets - 1, int(r.time_ms / bucket_ms))] += 1
    return series


def summarize_trace(records: Sequence[TraceRecord]) -> TraceSummary:
    if not records:
        return TraceSummary(
            n_records=0, duration_ms=0.0, lc_fraction=0.0, mean_rps=0.0,
            peak_to_mean=0.0, cluster_share={}, service_mix={}, mean_cpu={},
        )
    duration_ms = max(r.time_ms for r in records)
    lc_count = sum(1 for r in records if r.kind is ServiceKind.LC)
    series = arrival_series(records)
    mean_arrivals = float(series.mean()) if len(series) else 0.0
    cluster_counts = Counter(r.cluster_id for r in records)
    total = len(records)
    cpu_by_kind: Dict[str, List[float]] = {"LC": [], "BE": []}
    for r in records:
        cpu_by_kind[r.kind.value].append(r.cpu)
    return TraceSummary(
        n_records=total,
        duration_ms=duration_ms,
        lc_fraction=lc_count / total,
        mean_rps=total / max(duration_ms / 1000.0, 1e-9),
        peak_to_mean=float(series.max() / mean_arrivals)
        if mean_arrivals > 0
        else 0.0,
        cluster_share={
            cid: count / total for cid, count in sorted(cluster_counts.items())
        },
        service_mix=dict(Counter(r.service for r in records)),
        mean_cpu={
            kind: float(np.mean(values)) if values else 0.0
            for kind, values in cpu_by_kind.items()
        },
    )
