"""Service catalog, synthetic trace, and pattern workload tests."""

import numpy as np
import pytest

from repro.workloads.patterns import PatternConfig, PatternKind, PatternWorkload
from repro.workloads.spec import CatalogError, ServiceKind, ServiceSpec
from repro.workloads.trace import SyntheticTrace, TraceConfig, diurnal_rate
from repro.cluster.resources import ResourceVector


class TestCatalog:
    def test_ten_types_five_each(self, catalog):
        assert len(catalog) == 10
        kinds = [s.kind for s in catalog]
        assert kinds.count(ServiceKind.LC) == 5
        assert kinds.count(ServiceKind.BE) == 5

    def test_lc_targets_around_300ms(self, catalog):
        """Fig. 1(b): LC requests respond within approximately 300 ms."""
        targets = [s.qos_target_ms for s in catalog if s.is_lc]
        assert 200 <= np.mean(targets) <= 400

    def test_latency_sensitivity_tiers(self, catalog):
        for s in catalog:
            if s.is_lc:
                assert s.latency_sensitivity in (2, 3)
            else:
                assert s.latency_sensitivity in (0, 1)

    def test_be_has_no_finite_target(self, catalog):
        assert all(
            not np.isfinite(s.qos_target_ms) for s in catalog if not s.is_lc
        )

    def test_minimum_below_reference(self, catalog):
        for s in catalog:
            assert s.min_resources.cpu < s.reference_resources.cpu

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(CatalogError):
            ServiceSpec(
                name="bad",
                kind=ServiceKind.LC,
                latency_sensitivity=3,
                qos_target_ms=-5.0,
                base_service_ms=10.0,
                min_resources=ResourceVector(cpu=1),
                reference_resources=ResourceVector(cpu=1),
            )
        with pytest.raises(CatalogError):
            ServiceSpec(
                name="bad2",
                kind=ServiceKind.BE,
                latency_sensitivity=0,
                qos_target_ms=float("inf"),
                base_service_ms=0.0,
                min_resources=ResourceVector(cpu=1),
                reference_resources=ResourceVector(cpu=1),
            )


class TestDiurnalShape:
    def test_normalised_to_at_most_one(self):
        hours = np.linspace(0, 24, 200)
        values = [diurnal_rate(h) for h in hours]
        assert max(values) <= 1.0
        assert min(values) > 0.0

    def test_afternoon_peak_exceeds_night(self):
        assert diurnal_rate(15.0) > 2 * diurnal_rate(4.0)

    def test_periodic(self):
        assert diurnal_rate(3.0) == pytest.approx(diurnal_rate(27.0))


class TestSyntheticTrace:
    def make(self, **kw):
        kw.setdefault("duration_ms", 10_000.0)
        kw.setdefault("n_clusters", 3)
        kw.setdefault("seed", 9)
        return SyntheticTrace(TraceConfig(**kw))

    def test_deterministic_per_seed(self):
        a = self.make().generate()
        b = self.make().generate()
        assert len(a) == len(b)
        assert all(
            r1.time_ms == r2.time_ms and r1.service == r2.service
            for r1, r2 in zip(a, b)
        )

    def test_different_seeds_differ(self):
        a = self.make(seed=1).generate()
        b = self.make(seed=2).generate()
        assert [r.time_ms for r in a[:50]] != [r.time_ms for r in b[:50]]

    def test_sorted_by_time_within_duration(self):
        records = self.make().generate()
        times = [r.time_ms for r in records]
        assert times == sorted(times)
        assert all(0 <= t < 10_000.0 for t in times)

    def test_both_kinds_present(self):
        records = self.make().generate()
        kinds = {r.kind for r in records}
        assert kinds == {ServiceKind.LC, ServiceKind.BE}

    def test_cluster_ids_in_range(self):
        records = self.make().generate()
        assert {r.cluster_id for r in records} <= {0, 1, 2}

    def test_rate_follows_diurnal_curve(self):
        trace = self.make(hours_per_second=1.0, duration_ms=20_000.0)
        # compare instantaneous rates at trough vs peak hours
        t_peak = (15.0 - trace.config.start_hour) * 1000.0
        t_trough = (28.0 - trace.config.start_hour) * 1000.0
        r_peak = trace.rate_at(t_peak, 0, ServiceKind.LC)
        r_trough = trace.rate_at(t_trough, 0, ServiceKind.LC)
        assert r_peak > r_trough

    def test_utilization_profile_below_20_percent(self):
        """Fig. 1(a): LC alone leaves edge clouds under ~20 % utilisation."""
        trace = self.make(duration_ms=30_000.0, lc_peak_rps=8.0)
        profile = trace.utilization_profile(capacity_cpu_per_cluster=16.0)
        assert profile["utilization"].mean() < 0.25


class TestPatterns:
    def records_for(self, pattern, seed=1):
        cfg = PatternConfig(pattern=pattern, duration_ms=20_000.0, seed=seed)
        return PatternWorkload(cfg).generate(), PatternWorkload(cfg)

    @staticmethod
    def per_second_counts(records, kind, duration_s=20):
        counts = np.zeros(duration_s)
        for r in records:
            if r.kind is kind:
                counts[min(duration_s - 1, int(r.time_ms / 1000.0))] += 1
        return counts

    def test_p1_lc_is_periodic(self):
        records, wl = self.records_for(PatternKind.P1)
        lc = self.per_second_counts(records, ServiceKind.LC)
        be = self.per_second_counts(records, ServiceKind.BE)
        # periodic LC has higher variance-to-mean structure than Poisson BE?
        # instead check the schedule directly: rates oscillate for LC only
        r0 = wl.rates_at(0.0)
        r_quarter = wl.rates_at(wl.config.period_ms / 4.0)
        assert r_quarter[0] != pytest.approx(r0[0])
        assert r_quarter[1] == pytest.approx(r0[1])

    def test_p2_be_is_periodic(self):
        _, wl = self.records_for(PatternKind.P2)
        r0 = wl.rates_at(0.0)
        r_quarter = wl.rates_at(wl.config.period_ms / 4.0)
        assert r_quarter[0] == pytest.approx(r0[0])
        assert r_quarter[1] != pytest.approx(r0[1])

    def test_p3_both_constant_rate(self):
        _, wl = self.records_for(PatternKind.P3)
        assert wl.rates_at(0.0) == wl.rates_at(1234.0)

    def test_mean_rates_close_to_config(self):
        records, wl = self.records_for(PatternKind.P3)
        lc_rate = sum(1 for r in records if r.kind is ServiceKind.LC) / 20.0
        assert lc_rate == pytest.approx(wl.config.lc_mean_rps, rel=0.3)

    def test_deterministic(self):
        a, _ = self.records_for(PatternKind.P1, seed=3)
        b, _ = self.records_for(PatternKind.P1, seed=3)
        assert [r.time_ms for r in a] == [r.time_ms for r in b]
