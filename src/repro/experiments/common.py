"""Shared plumbing for the per-figure experiment harnesses.

Every experiment module exposes ``run_*(scale=...)`` returning a plain dict
of series/summaries (so benchmarks can assert on shapes) plus a ``main()``
that prints the same rows the paper's figure/table reports.

Scales:

* ``"small"`` — CI-sized: a few clusters, tens of seconds of trace.  This is
  what the benchmark suite runs; shapes (orderings, rough factors) hold.
* ``"paper"`` — closer to the paper's hybrid testbed (more clusters, longer
  trace).  Slower; for manual runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.topology import TopologyConfig
from repro.core.config import TangoConfig
from repro.core.tango import TangoSystem
from repro.metrics.collectors import RunMetrics
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

__all__ = [
    "Scale",
    "SCALES",
    "build_and_run",
    "scaled_config",
    "normalize",
    "print_table",
]


@dataclass(frozen=True)
class Scale:
    name: str
    n_clusters: int
    workers_per_cluster: Optional[int]
    duration_ms: float
    lc_peak_rps: float
    be_peak_rps: float


SCALES: Dict[str, Scale] = {
    "tiny": Scale("tiny", 3, 3, 10_000.0, 28.0, 8.0),
    "small": Scale("small", 4, 4, 20_000.0, 30.0, 8.0),
    # the paper's twin space is 104 clusters / ~1000 nodes; "paper" keeps the
    # heterogeneous 3-20 workers per cluster draw at a runnable size
    # multi-cluster heterogeneous regime for the BE-side experiments:
    # geographic load skew over many small clusters is where inter-cluster
    # scheduling separates (§7.2-7.3)
    "multi": Scale("multi", 8, None, 15_000.0, 12.0, 10.0),
    # resource-constrained multi-cluster regime (the paper's premise: edges
    # are scarce); used by the Fig. 13 state-of-the-art comparison
    "constrained": Scale("constrained", 8, 3, 15_000.0, 25.0, 10.0),
    "paper": Scale("paper", 20, None, 60_000.0, 30.0, 8.0),
}


def build_and_run(
    config: TangoConfig,
    scale: Scale,
    *,
    trace_seed: int = 1,
    trace: Optional[Sequence] = None,
) -> RunMetrics:
    """Run one system configuration against the scale's canonical trace."""
    if trace is None:
        trace = SyntheticTrace(
            TraceConfig(
                n_clusters=scale.n_clusters,
                duration_ms=scale.duration_ms,
                lc_peak_rps=scale.lc_peak_rps,
                be_peak_rps=scale.be_peak_rps,
                seed=trace_seed,
            )
        ).generate()
    system = TangoSystem(config)
    return system.run(trace)


def scaled_config(factory, scale: Scale, *, seed: int = 1, **overrides) -> TangoConfig:
    overrides.setdefault(
        "topology",
        TopologyConfig(
            n_clusters=scale.n_clusters,
            workers_per_cluster=scale.workers_per_cluster,
            seed=seed,
        ),
    )
    overrides.setdefault("runner", RunnerConfig(duration_ms=scale.duration_ms))
    return factory(**overrides)


def normalize(values: Dict[str, float]) -> Dict[str, float]:
    """Normalise a metric dict to its maximum (the paper's figure style)."""
    peak = max(values.values()) if values else 1.0
    if peak <= 0:
        return {k: 0.0 for k in values}
    return {k: v / peak for k, v in values.items()}


def print_table(title: str, rows: List[Dict[str, object]]) -> None:
    """Render rows as an aligned text table (the bench harness output)."""
    if not rows:
        print(f"{title}: (no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(_fmt(r[c])) for r in rows)) for c in columns
    }
    print(f"\n== {title} ==")
    print("  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
