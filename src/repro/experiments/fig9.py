"""Figure 9 — HRM effectiveness under the P1/P2/P3 patterns (§7.1).

Panels:
(a) the three request patterns themselves (periodic/random LC×BE mixes);
(b) per-kind resource utilisation under K8s **with HRM** — harmonious
    allocation, LC preempts when necessary, BE soaks idle resources;
(c) the same under **K8s-native** — turbulent allocation, fixed quotas;
(d) overall resource utilisation with vs without HRM — HRM clearly higher.

The harness runs each pattern through both stacks on a physical-scale
cluster (1 master + 4 workers, as §7.1) and reports per-period LC/BE
utilisation splits plus the overall means.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.topology import TopologyConfig
from repro.core.config import TangoConfig
from repro.core.tango import TangoSystem
from repro.sim.runner import RunnerConfig
from repro.workloads.patterns import PatternConfig, PatternKind, PatternWorkload

from .common import print_table

__all__ = ["run_fig9", "main"]

#: K8s default policy for both requests kinds, per the §7.1 setup.
_PATTERN_DURATION_MS = 20_000.0


def _one_cell(pattern: PatternKind, with_hrm: bool, seed: int) -> Dict[str, object]:
    records = PatternWorkload(
        PatternConfig(
            pattern=pattern,
            duration_ms=_PATTERN_DURATION_MS,
            lc_mean_rps=10.0,
            be_mean_rps=2.5,
            seed=seed,
        )
    ).generate(cluster_id=0)
    # §7.1 uses K8s default scheduling for both kinds; only the resource
    # manager differs between the two arms.
    factory = TangoConfig.tango if with_hrm else TangoConfig.k8s_native
    config = factory(
        lc_policy="k8s-native",
        be_policy="k8s-native",
        topology=TopologyConfig(n_clusters=1, workers_per_cluster=4, seed=seed),
        runner=RunnerConfig(duration_ms=_PATTERN_DURATION_MS),
    )
    metrics = TangoSystem(config).run(records)
    return {
        "lc_utilization": metrics.lc_utilization,
        "be_utilization": metrics.be_utilization,
        "overall": metrics.utilization,
        "mean_overall": metrics.mean_utilization,
        "qos_rate": metrics.qos_satisfaction_rate,
        "throughput": metrics.be_throughput,
    }


def run_fig9(scale_name: str = "small", seed: int = 1) -> Dict[str, object]:
    del scale_name  # Fig. 9 is defined on the physical-scale cluster
    result: Dict[str, object] = {}
    for pattern in (PatternKind.P1, PatternKind.P2, PatternKind.P3):
        result[pattern.value] = {
            "with_hrm": _one_cell(pattern, True, seed),
            "without_hrm": _one_cell(pattern, False, seed),
        }
    return result


def main(scale_name: str = "small") -> Dict[str, object]:
    result = run_fig9(scale_name)
    rows = []
    for pattern, arms in result.items():
        rows.append(
            {
                "pattern": pattern,
                "util_with_HRM": arms["with_hrm"]["mean_overall"],
                "util_without": arms["without_hrm"]["mean_overall"],
                "gain": arms["with_hrm"]["mean_overall"]
                / max(arms["without_hrm"]["mean_overall"], 1e-9),
            }
        )
    print_table("Figure 9(d): overall utilisation, HRM vs K8s-native", rows)
    return result


if __name__ == "__main__":
    main()
