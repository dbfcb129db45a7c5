"""Metrics pipeline tests: collectors and run summaries."""

import pytest

from repro.cluster.topology import EdgeCloudSystem, TopologyConfig
from repro.metrics.collectors import PERIOD_MS, PeriodCollector
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


def lc_request(arrival=0.0):
    return ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=arrival)


def be_request(arrival=0.0):
    return ServiceRequest(spec=BE, origin_cluster=0, arrival_ms=arrival)


class TestCollector:
    def make(self):
        system = EdgeCloudSystem(TopologyConfig(n_clusters=2, workers_per_cluster=2))
        return PeriodCollector(system)

    def test_satisfaction_rate_counts_against_arrivals(self):
        collector = self.make()
        good, late = lc_request(), lc_request()
        for r in (good, late):
            collector.on_arrival(r)
        good.completed_ms = LC.qos_target_ms * 0.5
        late.completed_ms = LC.qos_target_ms * 2.0
        collector.on_completion(good)
        collector.on_completion(late)
        assert collector.metrics.qos_satisfaction_rate == pytest.approx(0.5)

    def test_abandoned_counts_against_rate(self):
        collector = self.make()
        a, b = lc_request(), lc_request()
        collector.on_arrival(a)
        collector.on_arrival(b)
        a.completed_ms = 1.0
        collector.on_completion(a)
        collector.on_abandon(b)
        assert collector.metrics.qos_satisfaction_rate == pytest.approx(0.5)
        assert collector.metrics.lc_abandoned == 1

    def test_be_throughput_counts_completions(self):
        collector = self.make()
        for _ in range(3):
            r = be_request()
            collector.on_arrival(r)
            r.completed_ms = 100.0
            collector.on_completion(r)
        assert collector.metrics.be_throughput == 3

    def test_period_sampling_cadence(self):
        collector = self.make()
        assert not collector.maybe_sample(PERIOD_MS / 2)
        assert collector.maybe_sample(PERIOD_MS)
        assert not collector.maybe_sample(PERIOD_MS + 1)
        assert collector.maybe_sample(2 * PERIOD_MS)
        assert len(collector.metrics.utilization) == 2

    def test_per_period_counters_reset(self):
        collector = self.make()
        r = lc_request()
        collector.on_arrival(r)
        collector.maybe_sample(PERIOD_MS)
        assert collector.metrics.lc_arrivals_per_period == [1]
        collector.maybe_sample(2 * PERIOD_MS)
        assert collector.metrics.lc_arrivals_per_period == [1, 0]

    def test_empty_rate_defaults_to_one(self):
        collector = self.make()
        assert collector.metrics.qos_satisfaction_rate == 1.0

    def test_summary_keys(self):
        s = self.make().metrics.summary()
        assert set(s) == {
            "qos_satisfaction_rate",
            "be_throughput",
            "mean_utilization",
            "lc_abandoned",
            "lc_tail_latency_ms",
            "be_evictions",
        }


class TestPerServiceBreakdown:
    def test_counts_and_rates(self):
        collector = PeriodCollector(
            EdgeCloudSystem(TopologyConfig(n_clusters=1, workers_per_cluster=1))
        )
        good, late = lc_request(), lc_request()
        collector.on_arrival(good)
        collector.on_arrival(late)
        good.completed_ms = LC.qos_target_ms * 0.5
        late.completed_ms = LC.qos_target_ms * 2.0
        collector.on_completion(good)
        collector.on_completion(late)
        rates = collector.metrics.service_qos_rates()
        assert rates[LC.name] == pytest.approx(0.5)

    def test_unseen_service_defaults_satisfied(self):
        collector = PeriodCollector(
            EdgeCloudSystem(TopologyConfig(n_clusters=1, workers_per_cluster=1))
        )
        assert collector.metrics.service_qos_rates() == {}

    def test_be_services_tracked_too(self):
        collector = PeriodCollector(
            EdgeCloudSystem(TopologyConfig(n_clusters=1, workers_per_cluster=1))
        )
        r = be_request()
        collector.on_arrival(r)
        r.completed_ms = 1e6
        collector.on_completion(r)
        assert collector.metrics.service_qos_rates()[BE.name] == 1.0
