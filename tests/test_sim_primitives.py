"""Engine, request lifecycle, and latency-model tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Clock, DeliveryQueue
from repro.sim.latency import LatencyModel
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

rv = ResourceVector.of
CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


class TestClock:
    def test_advance_accumulates(self):
        clock = Clock(tick_ms=25.0)
        clock.advance()
        clock.advance()
        assert clock.now_ms == 50.0
        assert clock.tick_count == 2

    def test_rejects_nonpositive_tick(self):
        with pytest.raises(ValueError):
            Clock(tick_ms=0.0)


class TestDeliveryQueue:
    def test_pops_only_due_items(self):
        q = DeliveryQueue()
        q.schedule(10.0, "a")
        q.schedule(20.0, "b")
        assert q.pop_due(10.0) == ["a"]
        assert q.pop_due(25.0) == ["b"]

    def test_fifo_within_same_time(self):
        q = DeliveryQueue()
        q.schedule(5.0, "first")
        q.schedule(5.0, "second")
        assert q.pop_due(5.0) == ["first", "second"]

    def test_len_and_peek(self):
        q = DeliveryQueue()
        assert q.peek_next_ms() is None
        q.schedule(7.0, "x")
        assert len(q) == 1
        assert q.peek_next_ms() == 7.0

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                    min_size=1, max_size=20))
    def test_everything_delivered_in_time_order(self, times):
        q = DeliveryQueue()
        for i, t in enumerate(times):
            q.schedule(t, i)
        out = q.pop_due(1000.0)
        assert sorted(out, key=lambda i: times[i]) == out or len(set(times)) < len(times)
        assert len(out) == len(times)


class TestRequestLifecycle:
    def test_latency_accounting(self):
        r = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=100.0)
        r.network_delay_ms = 10.0
        r.started_ms = 150.0
        r.completed_ms = 300.0
        assert r.total_latency_ms() == pytest.approx(200.0)
        assert r.queueing_ms() == pytest.approx(40.0)

    def test_qos_check_against_target(self):
        r = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        r.completed_ms = LC.qos_target_ms - 1.0
        assert r.qos_met() is True
        r.completed_ms = LC.qos_target_ms + 1.0
        assert r.qos_met() is False

    def test_qos_none_until_complete(self):
        r = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        assert r.qos_met() is None

    def test_be_always_meets_qos(self):
        r = ServiceRequest(spec=BE, origin_cluster=0, arrival_ms=0.0)
        r.completed_ms = 1e9
        assert r.qos_met() is True

    def test_patience_deadline(self):
        r = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=50.0)
        assert r.patience_deadline_ms(factor=4.0) == pytest.approx(
            50.0 + 4 * LC.qos_target_ms
        )
        b = ServiceRequest(spec=BE, origin_cluster=0, arrival_ms=0.0)
        assert math.isinf(b.patience_deadline_ms())

    def test_ids_unique(self):
        a = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        b = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        assert a.request_id != b.request_id


class TestLatencyModel:
    def setup_method(self):
        self.model = LatencyModel()

    def test_reference_allocation_full_speed(self):
        s = self.model.speed(LC, LC.reference_resources, 0.0)
        assert s == pytest.approx(1.0)

    def test_cpu_starvation_slows(self):
        half = ResourceVector(
            cpu=LC.reference_resources.cpu / 2,
            memory=LC.reference_resources.memory,
        )
        s = self.model.speed(LC, half, 0.0)
        assert s == pytest.approx(0.5**LC.cpu_elasticity, rel=0.01)

    def test_zero_allocation_cannot_run(self):
        assert self.model.speed(LC, ResourceVector(), 0.0) == 0.0

    def test_memory_starvation_gentler_than_cpu(self):
        half_cpu = ResourceVector(
            cpu=LC.reference_resources.cpu / 2,
            memory=LC.reference_resources.memory,
        )
        half_mem = ResourceVector(
            cpu=LC.reference_resources.cpu,
            memory=LC.reference_resources.memory / 2,
        )
        assert self.model.speed(LC, half_mem, 0.0) >= self.model.speed(
            LC, half_cpu, 0.0
        )

    def test_contention_penalty_past_knee(self):
        ref = LC.reference_resources
        free_speed = self.model.speed(LC, ref, 0.5)
        congested = self.model.speed(LC, ref, 0.99)
        assert congested < free_speed

    def test_overprovision_capped(self):
        big = LC.reference_resources * 10
        assert self.model.speed(LC, big, 0.0) <= self.model.max_speedup

    def test_expected_processing_time(self):
        t = self.model.expected_processing_ms(LC, LC.reference_resources, 0.0)
        assert t == pytest.approx(LC.base_service_ms)
        assert math.isinf(
            self.model.expected_processing_ms(LC, ResourceVector(), 0.0)
        )

    @settings(max_examples=40)
    @given(
        frac=st.floats(min_value=0.05, max_value=1.0),
        util=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_speed_monotone_in_allocation(self, frac, util):
        smaller = LC.reference_resources * frac
        larger = LC.reference_resources * min(1.0, frac * 1.5)
        assert self.model.speed(LC, smaller, util) <= self.model.speed(
            LC, larger, util
        ) + 1e-9
