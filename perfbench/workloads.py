"""The four benchmark workloads and how their inputs are built.

Every workload runs the full ``tango`` stack (HRM + DSS-LC + DCG-BE) at the
default 25 ms tick, in one single-threaded process, through the public API
(:class:`repro.TangoSystem`, :class:`repro.sim.runner.RunnerConfig`,
:class:`repro.workloads.trace.SyntheticTrace`).

Each workload has two inputs of the same shape:

* the **reference input** — topology, trace and failure schedule all drawn
  from the workload seed (``default_seed`` unless ``--workload-seed`` says
  otherwise).  Every gated end-to-end metric is measured on it, so the
  simulated metrics repeat exactly run over run and two commits compare
  exactly; only the host-time metrics carry noise.
* the **seeded input** — the same topology, with the trace (and on
  ``churn`` the failure schedule) drawn from ``--seed``.  It runs once per
  benchmark run and passes the same correctness checks, so every run also
  covers an input that was not used while the benchmark was tuned.

``held_out_seed`` is a second workload seed that was never used while the
workload was sized; a gain claimed on the default seed can be re-checked
with ``--workload-seed <held_out_seed>``.

Why 25 ms ticks everywhere: LC QoS targets are 250-350 ms and service times
70-120 ms.  At ``SCALE_WORKLOAD``'s 250 ms tick a request waits for the next
dispatch tick, ships, and is stepped in 250 ms quanta, so even an idle
system returns it after ~500 ms and φ is exactly 0 — no claim about Tango
can be tested there.  At 25 ms the same shape keeps φ well above 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "build_trace", "build_config", "input_seeds"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line: which layer this workload stresses and why it exists.
    why: str
    clusters: int
    #: workers per cluster; None draws 3-20 per cluster from the seed.
    workers_per_cluster: Optional[int]
    lc_peak_rps: float
    be_peak_rps: float
    default_seed: int
    held_out_seed: int
    #: simulated time per run of the workload.
    duration_ms: float
    #: LC dispatch locality radius; None keeps the topology default.
    nearby_radius_km: Optional[float] = None
    #: failure injection + observability bus + soft invariant checking.
    churn: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # repro.perf.bench.STANDARD_WORKLOAD's topology, seed and rates, so
        # BENCH_PR1.json history stays comparable.  DCG-BE is ~2/3 of wall
        # time and HRM co-location pressure is real (BE evictions), so
        # nn/dcg_be changes show here.
        Workload(
            name="standard",
            why="DCG-BE (GNN encode/act/train) dominates and HRM evicts BE under co-location pressure",
            clusters=10,
            workers_per_cluster=None,
            lc_peak_rps=60.0,
            be_peak_rps=15.0,
            default_seed=3,
            held_out_seed=4,
            duration_ms=5_000.0,
        ),
        # SCALE_WORKLOAD's shape at the 25 ms tick (see the module note):
        # LC-heavy, geo-wide, large per-master DSS-LC batches; BE is a few
        # percent of wall time, so a DCG-BE change should not move it.
        Workload(
            name="scale-lc",
            why="DSS-LC solves large per-master batches on geo-wide graphs; DCG-BE is a few percent, the control for BE changes",
            clusters=32,
            workers_per_cluster=3,
            lc_peak_rps=140.0,
            be_peak_rps=0.5,
            default_seed=11,
            held_out_seed=12,
            duration_ms=4_000.0,
            nearby_radius_km=2_400.0,
        ),
        # The paper's §7.2 500-node point: every master's graph spans all
        # 500 workers and carries about one request per dispatch, so
        # per-node costs (arc construction, node arrays, refresh, GraphSAGE
        # aggregation) dominate instead of batch size.
        Workload(
            name="wide-500",
            why="DSS-LC with about one request per dispatch on a 500-node graph: per-node costs dominate (paper's 7.2 point)",
            clusters=20,
            workers_per_cluster=25,
            lc_peak_rps=15.0,
            be_peak_rps=1.0,
            default_seed=5,
            held_out_seed=6,
            duration_ms=5_500.0,
            nearby_radius_km=2_400.0,
        ),
        # The only workload that runs obs/, sim/failures, sim/invariants and
        # the crash/requeue paths, so removing those layers can be shown to
        # cost nothing.
        Workload(
            name="churn",
            why="node crashes and WAN partitions with the event bus and soft invariant checks on: runs obs, failures, invariants",
            clusters=10,
            workers_per_cluster=None,
            lc_peak_rps=60.0,
            be_peak_rps=15.0,
            default_seed=7,
            held_out_seed=8,
            duration_ms=5_000.0,
            churn=True,
        ),
    )
}


def build_trace(workload: Workload, trace_seed: int, duration_ms: float):
    """The workload's request trace drawn from ``trace_seed``."""
    from repro.workloads.trace import SyntheticTrace, TraceConfig

    return SyntheticTrace(
        TraceConfig(
            n_clusters=workload.clusters,
            duration_ms=duration_ms,
            seed=trace_seed,
            lc_peak_rps=workload.lc_peak_rps,
            be_peak_rps=workload.be_peak_rps,
        )
    ).generate()


def build_config(
    workload: Workload, topology_seed: int, failure_seed: int, duration_ms: float
):
    """The ``tango`` stack over the workload's topology."""
    from repro.cluster.topology import TopologyConfig
    from repro.core.config import TangoConfig
    from repro.sim.failures import FailureConfig
    from repro.sim.runner import RunnerConfig

    topology: Dict = dict(
        n_clusters=workload.clusters,
        workers_per_cluster=workload.workers_per_cluster,
        seed=topology_seed,
    )
    if workload.nearby_radius_km is not None:
        topology["nearby_radius_km"] = workload.nearby_radius_km
    runner: Dict = dict(duration_ms=duration_ms)
    if workload.churn:
        runner.update(
            failures=FailureConfig(
                node_mtbf_ms=1_500.0,
                node_downtime_ms=3_000.0,
                partition_mtbf_ms=4_000.0,
                partition_duration_ms=2_000.0,
                seed=failure_seed,
            ),
            observe=True,
            check_invariants=True,
            invariant_mode="soft",
        )
    return TangoConfig.tango(
        topology=TopologyConfig(**topology), runner=RunnerConfig(**runner)
    )


def input_seeds(workload_seed: int, seed: int) -> Dict[str, Tuple[int, int, int]]:
    """(topology, trace, failure) seeds of the reference and seeded inputs."""
    return {
        "reference": (workload_seed, workload_seed, workload_seed),
        "seeded": (workload_seed, seed, seed),
    }
