"""Determinism pin for the hot-path performance layer.

The snapshot index, active-set stepping, the closed-form G_k solve, batched
GraphSAGE sampling, and memoized latency model are all required to leave
scheduling outcomes *bit-identical* — same seeds, same RunMetrics.  The
fingerprints in ``tests/data/seed_metrics.json`` were recorded against the
pre-refactor tree (``scripts/record_seed_metrics.py``); any drift here
means an optimisation changed behaviour, not just speed.
"""

from __future__ import annotations

import functools
import json
import os

import pytest

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.scheduling.dss_lc import DSSLCConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

DATA = os.path.join(os.path.dirname(__file__), "data", "seed_metrics.json")


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


@pytest.fixture(scope="module")
def recorded():
    with open(DATA) as fh:
        return json.load(fh)


class TestBitIdenticalToSeed:
    def test_tango_small(self, recorded):
        assert run_case(TangoConfig.tango) == recorded["tango_small"]

    def test_k8s_native_small(self, recorded):
        assert run_case(TangoConfig.k8s_native) == recorded["k8s_native_small"]

    def test_dsaco_small(self, recorded):
        assert run_case(TangoConfig.dsaco) == recorded["dsaco_small"]

    def test_tango_mid(self, recorded):
        got = run_case(
            TangoConfig.tango, clusters=6, workers=5, duration=6_000.0,
            seed=7, lc=40.0, be=12.0,
        )
        assert got == recorded["tango_mid"]

    def test_gnn_sac_small(self, recorded):
        got = run_case(functools.partial(TangoConfig.tango, be_policy="gnn-sac"))
        assert got == recorded["gnn_sac_small"]

    def test_tango_coordinated_small(self, recorded):
        got = run_case(
            functools.partial(
                TangoConfig.tango, dss_lc=DSSLCConfig(coordinate_types=True)
            )
        )
        assert got == recorded["tango_coordinated_small"]
