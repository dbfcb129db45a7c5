"""Record RunMetrics fingerprints for the determinism pin (tests/data/).

Run from the repo root with ``PYTHONPATH=src python scripts/record_seed_metrics.py``.
The JSON it writes is compared bit-for-bit by
``tests/test_perf_determinism.py`` so hot-path optimisations can prove they
did not change scheduling outcomes.
"""

from __future__ import annotations

import functools
import json
import os
import sys

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.scheduling.dss_lc import DSSLCConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig


def fingerprint(metrics) -> dict:
    return {
        "lc_arrived": metrics.lc_arrived,
        "lc_completed": metrics.lc_completed,
        "lc_satisfied": metrics.lc_satisfied,
        "lc_abandoned": metrics.lc_abandoned,
        "be_arrived": metrics.be_arrived,
        "be_completed": metrics.be_completed,
        "be_evictions": metrics.be_evictions,
        "lc_latency_sum": round(sum(metrics.lc_latencies_ms), 6),
        "utilization": [round(u, 12) for u in metrics.utilization],
        "qos_rate_per_period": [round(r, 12) for r in metrics.qos_rate_per_period],
        "per_service": {k: list(v) for k, v in sorted(metrics.per_service.items())},
    }


def run_case(factory, *, clusters=3, workers=3, duration=8_000.0, seed=1,
             lc=15.0, be=5.0):
    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=clusters, duration_ms=duration, seed=seed,
            lc_peak_rps=lc, be_peak_rps=be,
        )
    ).generate()
    cfg = factory(
        topology=TopologyConfig(
            n_clusters=clusters, workers_per_cluster=workers, seed=seed
        ),
        runner=RunnerConfig(duration_ms=duration),
    )
    return fingerprint(TangoSystem(cfg).run(trace))


def main() -> int:
    cases = {
        "tango_small": run_case(TangoConfig.tango),
        "k8s_native_small": run_case(TangoConfig.k8s_native),
        "dsaco_small": run_case(TangoConfig.dsaco),
        "tango_mid": run_case(
            TangoConfig.tango, clusters=6, workers=5, duration=6_000.0,
            seed=7, lc=40.0, be=12.0,
        ),
        "gnn_sac_small": run_case(
            functools.partial(TangoConfig.tango, be_policy="gnn-sac")
        ),
        "tango_coordinated_small": run_case(
            functools.partial(
                TangoConfig.tango, dss_lc=DSSLCConfig(coordinate_types=True)
            )
        ),
    }
    out = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                       "seed_metrics.json")
    out = os.path.normpath(out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(cases, fh, indent=2, sort_keys=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
