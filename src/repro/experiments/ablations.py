"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these probe the sensitivity of Tango's design
parameters, as a reviewer (or a deployer) would:

* **re-assurance thresholds** (α, β of Algorithm 1): too-tight thresholds
  thrash allocations; too-loose ones stop reacting to QoS violations;
* **reward mix η** of DCG-BE: η=0 drops the long-term term, η≫1 drowns the
  load-balancing signal (paper sets η=1);
* **preemption policy**: HRM's compressible/incompressible split vs
  evict-only and squeeze-only variants.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import TangoConfig
from repro.core.tango import TangoSystem
from repro.hrm.reassurance import ReassuranceConfig
from repro.scheduling.dcg_be import DCGBEConfig, DCGBEScheduler

from .common import SCALES, print_table, scaled_config
from .fig11 import _run_learning_arm, _trace_for

__all__ = [
    "run_threshold_ablation",
    "run_reward_ablation",
    "run_preemption_ablation",
    "run_coordination_ablation",
    "main",
]


def run_threshold_ablation(scale_name: str = "small", seed: int = 1) -> Dict:
    scale = SCALES[scale_name]
    variants = {
        "default (α=0.25, β=0.45)": ReassuranceConfig(),
        "wide (α=0.1, β=0.5)": ReassuranceConfig(alpha=0.1, beta=0.5),
        "tight (α=0.3, β=0.4)": ReassuranceConfig(alpha=0.3, beta=0.4),
        "loose (α=-0.5, β=0.9)": ReassuranceConfig(alpha=-0.5, beta=0.9),
    }
    result = {}
    for name, cfg in variants.items():
        config = scaled_config(
            TangoConfig.tango, scale, seed=seed, reassurance=cfg
        )
        metrics = TangoSystem(config).run(_trace_for(scale, seed))
        result[name] = {
            "qos_rate": metrics.qos_satisfaction_rate,
            "throughput": float(metrics.be_throughput),
        }
    return result


def run_reward_ablation(scale_name: str = "multi", seed: int = 1) -> Dict:
    scale = SCALES[scale_name]
    result = {}
    for eta in (0.0, 1.0, 4.0):
        scheduler = DCGBEScheduler(DCGBEConfig(seed=seed, eta=eta))
        metrics = _run_learning_arm(scheduler, scale, seed, warmups=1)
        result[f"eta={eta}"] = {"throughput": float(metrics.be_throughput)}
    return result


def run_preemption_ablation(scale_name: str = "small", seed: int = 1) -> Dict:
    """Disable parts of the §4.1 preemption machinery."""
    from repro.hrm.regulations import HRMConfig

    scale = SCALES[scale_name]
    variants = {
        "full HRM": HRMConfig(),
        "no squeeze (evict-only)": HRMConfig(be_squeeze_floor=10.0),
        "no BE expansion": HRMConfig(be_expand_rate=0.0, be_expand_cap=0.0),
    }
    result = {}
    for name, hrm_cfg in variants.items():
        config = scaled_config(TangoConfig.tango, scale, seed=seed, hrm=hrm_cfg)
        metrics = TangoSystem(config).run(_trace_for(scale, seed))
        result[name] = {
            "qos_rate": metrics.qos_satisfaction_rate,
            "throughput": float(metrics.be_throughput),
            "evictions": float(metrics.be_evictions),
            "utilization": metrics.mean_utilization,
        }
    return result


def run_coordination_ablation(scale_name: str = "small", seed: int = 1) -> Dict:
    """Per-type-parallel (the paper's Alg. 2) vs link capacities shared
    across types; both run the same per-type solve."""
    from repro.scheduling.dss_lc import DSSLCConfig

    scale = SCALES[scale_name]
    result = {}
    for name, coordinate in (("parallel (paper)", False), ("coordinated", True)):
        config = scaled_config(
            TangoConfig.tango, scale, seed=seed,
            dss_lc=DSSLCConfig(coordinate_types=coordinate, seed=seed),
        )
        metrics = TangoSystem(config).run(_trace_for(scale, seed))
        result[name] = {
            "qos_rate": metrics.qos_satisfaction_rate,
            "tail_ms": metrics.lc_tail_latency_ms() or 0.0,
            "abandoned": float(metrics.lc_abandoned),
        }
    return result


def main(scale_name: str = "small") -> Dict:
    thresholds = run_threshold_ablation(scale_name)
    print_table(
        "Ablation: re-assurance thresholds",
        [{"variant": k, **v} for k, v in thresholds.items()],
    )
    preemption = run_preemption_ablation(scale_name)
    print_table(
        "Ablation: preemption policy",
        [{"variant": k, **v} for k, v in preemption.items()],
    )
    coordination = run_coordination_ablation(scale_name)
    print_table(
        "Ablation: DSS-LC per-type-parallel vs coordinated MCNF",
        [{"variant": k, **v} for k, v in coordination.items()],
    )
    reward = run_reward_ablation()
    print_table(
        "Ablation: DCG-BE reward mix η",
        [{"variant": k, **v} for k, v in reward.items()],
    )
    return {
        "thresholds": thresholds,
        "preemption": preemption,
        "coordination": coordination,
        "reward": reward,
    }


if __name__ == "__main__":
    main()
