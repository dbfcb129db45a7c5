"""Design-choice ablations (beyond the paper's figures).

* re-assurance thresholds: the paper's (α, β) choice is no worse on QoS
  than loose thresholds;
* preemption machinery: removing BE expansion reduces utilisation; the
  full HRM stays best on the QoS × throughput frontier;
* DCG-BE reward mix η: the η=1 paper setting is competitive.
"""

from repro.experiments.ablations import (
    run_preemption_ablation,
    run_reward_ablation,
    run_threshold_ablation,
)


def test_threshold_ablation(once):
    result = once(run_threshold_ablation, "small")
    default = result["default (α=0.25, β=0.45)"]
    loose = result["loose (α=-0.5, β=0.9)"]
    assert default["qos_rate"] >= loose["qos_rate"] - 0.03
    # every variant still yields a functioning system
    assert all(v["throughput"] > 0 for v in result.values())


def test_preemption_ablation(once):
    result = once(run_preemption_ablation, "small")
    full = result["full HRM"]
    no_expand = result["no BE expansion"]
    # BE expansion is what soaks idle resources: removing it drops utilisation
    assert full["utilization"] > no_expand["utilization"]
    # full HRM keeps QoS at least as good as the crippled variants
    for name, arm in result.items():
        assert full["qos_rate"] >= arm["qos_rate"] - 0.05, name


def test_reward_ablation(once):
    result = once(run_reward_ablation, "multi")
    eta1 = result["eta=1.0"]["throughput"]
    best = max(v["throughput"] for v in result.values())
    # the paper's η=1 is competitive with the best mix
    assert eta1 >= 0.85 * best


def test_coordination_ablation(once):
    from repro.experiments.ablations import run_coordination_ablation

    result = once(run_coordination_ablation, "small")
    parallel = result["parallel (paper)"]
    coordinated = result["coordinated"]
    # shared links are never oversubscribed across types, so coordinated
    # QoS is at least comparable to the paper's per-type-parallel default
    assert coordinated["qos_rate"] >= parallel["qos_rate"] - 0.05
    assert all(v["qos_rate"] > 0.5 for v in result.values())
