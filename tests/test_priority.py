"""ρ(·) priority-policy tests (DSS-LC case-2 split extension point)."""

import pytest

from repro.scheduling.priority import (
    DeadlinePriority,
    FIFOPriority,
    RandomPriority,
    TierPriority,
    make_priority,
)
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC_SPECS = [s for s in CATALOG if s.kind is ServiceKind.LC]


def req(spec=None, arrival=0.0):
    return ServiceRequest(
        spec=spec or LC_SPECS[0], origin_cluster=0, arrival_ms=arrival
    )


class TestPolicies:
    def test_random_is_a_permutation(self):
        requests = [req(arrival=float(i)) for i in range(10)]
        ordered = RandomPriority(seed=1).order(requests, 0.0)
        assert sorted(r.request_id for r in ordered) == sorted(
            r.request_id for r in requests
        )

    def test_random_deterministic_per_seed(self):
        requests = [req(arrival=float(i)) for i in range(10)]
        a = RandomPriority(seed=3).order(requests, 0.0)
        b = RandomPriority(seed=3).order(requests, 0.0)
        assert [r.request_id for r in a] == [r.request_id for r in b]

    def test_fifo_orders_by_arrival(self):
        requests = [req(arrival=5.0), req(arrival=1.0), req(arrival=3.0)]
        ordered = FIFOPriority().order(requests, 10.0)
        assert [r.arrival_ms for r in ordered] == [1.0, 3.0, 5.0]

    def test_deadline_puts_tightest_slack_first(self):
        tight_spec = min(LC_SPECS, key=lambda s: s.qos_target_ms)
        loose_spec = max(LC_SPECS, key=lambda s: s.qos_target_ms)
        tight = req(tight_spec, arrival=0.0)
        loose = req(loose_spec, arrival=0.0)
        ordered = DeadlinePriority().order([loose, tight], now_ms=50.0)
        assert ordered[0] is tight

    def test_deadline_accounts_for_waiting_time(self):
        spec = LC_SPECS[0]
        old = req(spec, arrival=0.0)
        fresh = req(spec, arrival=100.0)
        ordered = DeadlinePriority().order([fresh, old], now_ms=150.0)
        assert ordered[0] is old  # been waiting longer → less slack

    def test_tier_orders_by_sensitivity(self):
        tier3 = next(s for s in LC_SPECS if s.latency_sensitivity == 3)
        tier2 = next(s for s in LC_SPECS if s.latency_sensitivity == 2)
        low = req(tier2, arrival=0.0)
        high = req(tier3, arrival=5.0)
        ordered = TierPriority().order([low, high], 10.0)
        assert ordered[0] is high

    def test_registry(self):
        for name in ("random", "fifo", "deadline", "tier"):
            policy = make_priority(name)
            assert policy.order([req()], 0.0)
        with pytest.raises(ValueError):
            make_priority("bogus")


class TestInsideDSSLC:
    def test_deadline_policy_reduces_stale_queueing(self):
        """Under overload, EDF places the closest-to-deadline requests."""
        from repro.core.state_storage import NodeSnapshot, SystemSnapshot
        from repro.scheduling.dss_lc import DSSLCConfig, DSSLCScheduler

        spec = LC_SPECS[0]
        r_cpu, r_mem = spec.min_resources.cpu, spec.min_resources.memory
        nodes = [
            NodeSnapshot(
                name="only", cluster_id=0, cpu_total=r_cpu * 2.0,
                cpu_available=r_cpu * 1.2, mem_total=r_mem * 4.0,
                mem_available=r_mem * 1.2, lc_queue=0, be_queue=0,
                running=0, min_slack=1.0,
            )
        ]
        snap = SystemSnapshot(
            time_ms=1_000.0, nodes=nodes, delay_ms=[[1.0]],
            central_cluster_id=0,
        )
        old = req(spec, arrival=0.0)       # waited 1 s already
        fresh = req(spec, arrival=990.0)
        sched = DSSLCScheduler(
            DSSLCConfig(priority="deadline", target_fill=1.0, max_queue_push=0)
        )
        out = sched.dispatch(0, [fresh, old], snap, [0], 1_000.0)
        assert len(out) == 1
        assert out[0].request is old
