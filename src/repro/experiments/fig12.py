"""Figure 12 — algorithm pairing analysis (§7.3).

Every LC policy × every BE policy under the same workload, reporting the
normalized LC QoS-guarantee satisfaction rate (a) and BE throughput (b).

Paper shapes to reproduce:

* DSS-LC beats the other LC policies regardless of the BE pairing
  (≈ +8.2 % QoS), and LC results barely move with the BE policy — HRM
  insulates LC from BE scheduling churn;
* BE throughput *does* move with the LC policy, and the DCG-BE × DSS-LC
  cell is the global best (≈ +5.9 % over DCG-BE × K8s-native) — the
  "optimal algorithm combination for Tango".
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.config import TangoConfig
from repro.core.tango import TangoSystem
from repro.scheduling.dcg_be import DCGBEConfig, DCGBEScheduler
from repro.scheduling.gnn_sac import GNNSACScheduler

from .common import SCALES, Scale, print_table, scaled_config
from .fig11 import _trace_for

__all__ = ["run_fig12", "main"]

LC_SET = ("dss-lc", "scoring", "k8s-native", "load-greedy")
BE_SET = ("dcg-be", "gnn-sac", "k8s-native", "load-greedy")


def _run_pair(
    lc_policy: str, be_policy: str, scale: Scale, seed: int
) -> Tuple[float, float]:
    def fresh(be_scheduler=None):
        config = scaled_config(
            TangoConfig.tango, scale, seed=seed,
            lc_policy=lc_policy,
            be_policy=be_policy if be_scheduler is None else "dcg-be",
        )
        return TangoSystem(config, be_scheduler=be_scheduler)

    if be_policy in ("dcg-be", "gnn-sac"):
        cls = DCGBEScheduler if be_policy == "dcg-be" else GNNSACScheduler
        scheduler = cls(DCGBEConfig(seed=seed))
        # one warmup pass keeps the 16-cell matrix tractable
        fresh(scheduler).run(_trace_for(scale, 100))
        metrics = fresh(scheduler).run(_trace_for(scale, seed))
    else:
        metrics = fresh().run(_trace_for(scale, seed))
    return metrics.qos_satisfaction_rate, float(metrics.be_throughput)


def run_fig12(scale_name: str = "multi", seed: int = 1) -> Dict[str, object]:
    scale = SCALES[scale_name]
    qos: Dict[Tuple[str, str], float] = {}
    throughput: Dict[Tuple[str, str], float] = {}
    for lc in LC_SET:
        for be in BE_SET:
            q, t = _run_pair(lc, be, scale, seed)
            qos[(lc, be)] = q
            throughput[(lc, be)] = t
    return {"qos": qos, "throughput": throughput}


def main(scale_name: str = "multi") -> Dict[str, object]:
    result = run_fig12(scale_name)
    qos, thr = result["qos"], result["throughput"]
    q_max = max(qos.values()) or 1.0
    t_max = max(thr.values()) or 1.0
    rows_q, rows_t = [], []
    for lc in LC_SET:
        rows_q.append(
            {"LC \\ BE": lc, **{be: qos[(lc, be)] / q_max for be in BE_SET}}
        )
        rows_t.append(
            {"LC \\ BE": lc, **{be: thr[(lc, be)] / t_max for be in BE_SET}}
        )
    print_table("Figure 12(a): normalized LC QoS rate by pairing", rows_q)
    print_table("Figure 12(b): normalized BE throughput by pairing", rows_t)
    return result


if __name__ == "__main__":
    main()
