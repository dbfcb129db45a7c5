"""Every manager × LC policy × BE policy combination must run clean.

The pairing experiment (Fig. 12) covers the interesting cells at length;
this matrix sweep covers *all* of them briefly — with the runtime
invariant checker on in strict mode — so a regression in any pairing is
caught by the unit suite, not only by the slow benches.
"""

import itertools

import pytest

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.core.config import BE_POLICIES, LC_POLICIES, MANAGERS
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

_TRACE = None


def get_trace():
    global _TRACE
    if _TRACE is None:
        _TRACE = SyntheticTrace(
            TraceConfig(n_clusters=2, duration_ms=2_500.0, seed=4,
                        lc_peak_rps=10.0, be_peak_rps=4.0)
        ).generate()
    return _TRACE


def run_combo(manager, lc, be):
    config = TangoConfig(
        manager=manager,
        lc_policy=lc,
        be_policy=be,
        reassurance_enabled=(manager == "hrm"),
        topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=4),
        runner=RunnerConfig(
            duration_ms=2_500.0, check_invariants=True, invariant_mode="strict"
        ),
    )
    return TangoSystem(config).run(get_trace())


# full cartesian product, minus nothing: every cell must be constructible
MATRIX = sorted(itertools.product(MANAGERS, LC_POLICIES, BE_POLICIES))


@pytest.mark.parametrize("manager,lc,be", MATRIX)
def test_policy_combination_runs_clean(manager, lc, be):
    metrics = run_combo(manager, lc, be)
    # work flows end to end under every combination
    assert metrics.lc_arrived > 0
    assert metrics.be_arrived > 0
    assert 0.0 <= metrics.qos_satisfaction_rate <= 1.0
    # bookkeeping identities hold (the strict checker also ran every tick)
    assert metrics.lc_completed + metrics.lc_abandoned <= metrics.lc_arrived
    assert metrics.invariant_violations == 0
