"""Figure 11 — scheduling-algorithm comparisons (§7.2).

(a, b) **DSS-LC vs LC baselines** (load-greedy, K8s-native, scoring) with BE
       fixed to K8s-native: normalized QoS-guarantee satisfaction rate, plus
       average latency and abandoned-request count.
       Paper shape: DSS-LC best and most stable on all three metrics.

(c)    **DCG-BE vs BE baselines** (GNN-SAC, load-greedy, K8s-native) with LC
       fixed to K8s-native: normalized BE throughput.  Paper shape: all
       three *inter-cluster* algorithms beat K8s-native (which has no
       cross-cluster dispatcher), and DCG-BE leads GNN-SAC (≈ +9.3 %).

(d)    **GNN-encoder ablation** inside DCG-BE: GraphSAGE-A2C vs GCN-A2C vs
       GAT-A2C vs Native-A2C (no message passing); GraphSAGE best.

The learning arms (DCG-BE, GNN-SAC, and every fig-11(d) encoder) are warmed
up on shifted trace seeds before the measured run — the paper trains its
agents online over horizons far longer than one bench run, and its figures
report the settled policy.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.config import TangoConfig
from repro.core.tango import TangoSystem
from repro.nn.gnn import GATEncoder, GCNEncoder, GraphSAGEEncoder, IdentityEncoder
from repro.scheduling.dcg_be import DCGBEConfig, DCGBEScheduler, N_NODE_FEATURES
from repro.scheduling.gnn_sac import GNNSACScheduler
from repro.workloads.trace import SyntheticTrace, TraceConfig

from .common import SCALES, Scale, build_and_run, normalize, print_table, scaled_config

__all__ = ["run_fig11ab", "run_fig11c", "run_fig11d", "main"]

LC_ALGORITHMS = ("dss-lc", "load-greedy", "k8s-native", "scoring")
BE_ALGORITHMS = ("dcg-be", "gnn-sac", "load-greedy", "k8s-native")
GNN_ENCODERS = ("graphsage", "gcn", "gat", "native")

#: warmup passes for learning arms before the measured run.
WARMUP_RUNS = 2


def run_fig11ab(scale_name: str = "small", seed: int = 1) -> Dict[str, object]:
    """LC scheduler sweep; BE side fixed to K8s-native (the §7.2 setup)."""
    scale = SCALES[scale_name]
    result: Dict[str, object] = {}
    for policy in LC_ALGORITHMS:
        config = scaled_config(
            TangoConfig.tango, scale, seed=seed,
            lc_policy=policy, be_policy="k8s-native",
        )
        metrics = build_and_run(config, scale, trace_seed=seed)
        result[policy] = {
            "qos_rate": metrics.qos_satisfaction_rate,
            "qos_per_period": metrics.qos_rate_per_period,
            "avg_latency_ms": float(np.mean(metrics.lc_latencies_ms))
            if metrics.lc_latencies_ms
            else float("inf"),
            "abandoned": metrics.lc_abandoned,
            "tail_ms": metrics.lc_tail_latency_ms() or 0.0,
        }
    return result


def _trace_for(scale: Scale, seed: int):
    return SyntheticTrace(
        TraceConfig(
            n_clusters=scale.n_clusters,
            duration_ms=scale.duration_ms,
            lc_peak_rps=scale.lc_peak_rps,
            be_peak_rps=scale.be_peak_rps,
            seed=seed,
        )
    ).generate()


def _run_learning_arm(
    scheduler,
    scale: Scale,
    seed: int,
    *,
    warmups: int = WARMUP_RUNS,
):
    """Warm a learning BE scheduler on shifted seeds, then measure."""
    def fresh_system():
        config = scaled_config(
            TangoConfig.tango, scale, seed=seed,
            lc_policy="k8s-native", be_policy="dcg-be",
        )
        return TangoSystem(config, be_scheduler=scheduler)

    for w in range(warmups):
        fresh_system().run(_trace_for(scale, 100 + w))
    return fresh_system().run(_trace_for(scale, seed))


def run_fig11c(scale_name: str = "multi", seed: int = 1) -> Dict[str, object]:
    """BE scheduler sweep; LC side fixed to K8s-native (the §7.2 setup)."""
    scale = SCALES[scale_name]
    result: Dict[str, object] = {}
    for policy in ("load-greedy", "k8s-native"):
        config = scaled_config(
            TangoConfig.tango, scale, seed=seed,
            lc_policy="k8s-native", be_policy=policy,
        )
        metrics = build_and_run(config, scale, trace_seed=seed)
        result[policy] = {
            "throughput": float(metrics.be_throughput),
            "per_period": metrics.be_completed_per_period,
        }
    for policy, cls in (("dcg-be", DCGBEScheduler), ("gnn-sac", GNNSACScheduler)):
        scheduler = cls(DCGBEConfig(seed=seed))
        metrics = _run_learning_arm(scheduler, scale, seed)
        result[policy] = {
            "throughput": float(metrics.be_throughput),
            "per_period": metrics.be_completed_per_period,
        }
    return result


def _encoder_for(name: str, cfg: DCGBEConfig):
    rng = np.random.default_rng(cfg.seed)
    hidden = [cfg.encoder_width] * cfg.hops
    if name == "graphsage":
        return GraphSAGEEncoder(
            N_NODE_FEATURES, hidden, rng, sample_size=cfg.sample_size
        )
    if name == "gcn":
        return GCNEncoder(N_NODE_FEATURES, hidden, rng)
    if name == "gat":
        return GATEncoder(N_NODE_FEATURES, hidden, rng)
    if name == "native":
        return IdentityEncoder(N_NODE_FEATURES, hidden, rng)
    raise ValueError(name)


def run_fig11d(
    scale_name: str = "multi", seed: int = 1, warmups: int = 1
) -> Dict[str, object]:
    """GNN encoder ablation inside DCG-BE."""
    scale = SCALES[scale_name]
    result: Dict[str, object] = {}
    for name in GNN_ENCODERS:
        dcg_cfg = DCGBEConfig(seed=seed)
        scheduler = DCGBEScheduler(dcg_cfg, encoder=_encoder_for(name, dcg_cfg))
        metrics = _run_learning_arm(scheduler, scale, seed, warmups=warmups)
        result[name] = {"throughput": float(metrics.be_throughput)}
    return result


def main(scale_name: str = "small") -> Dict[str, object]:
    ab = run_fig11ab(scale_name)
    qos = normalize({k: v["qos_rate"] for k, v in ab.items()})
    rows = [
        {
            "LC_algorithm": k,
            "qos_norm": qos[k],
            "avg_latency_ms": ab[k]["avg_latency_ms"],
            "abandoned": ab[k]["abandoned"],
        }
        for k in LC_ALGORITHMS
    ]
    print_table("Figure 11(a,b): DSS-LC vs LC baselines", rows)

    c = run_fig11c()
    thr = normalize({k: v["throughput"] for k, v in c.items()})
    rows_c = [
        {"BE_algorithm": k, "throughput": c[k]["throughput"], "normalized": thr[k]}
        for k in BE_ALGORITHMS
    ]
    print_table("Figure 11(c): DCG-BE vs BE baselines", rows_c)

    d = run_fig11d()
    thr_d = normalize({k: v["throughput"] for k, v in d.items()})
    rows_d = [
        {"encoder": k, "throughput": d[k]["throughput"], "normalized": thr_d[k]}
        for k in GNN_ENCODERS
    ]
    print_table("Figure 11(d): GNN encoder ablation", rows_d)
    return {"ab": ab, "c": c, "d": d}


if __name__ == "__main__":
    main()
