"""QoS detector and re-assurance (Algorithm 1) tests."""

import pytest

from repro.hrm.qos import QoSDetector
from repro.hrm.reassurance import (
    LEVEL_EXCELLENT,
    LEVEL_POOR,
    LEVEL_STABLE,
    ReassuranceConfig,
    ReassuranceMechanism,
)


class TestDetector:
    def test_slack_score_definition(self, lc_spec):
        """δ = 1 − ξ/γ with ξ the windowed p95."""
        det = QoSDetector()
        for _ in range(10):
            det.observe("n0", lc_spec.name, 0.0, lc_spec.qos_target_ms / 2)
        slack = det.slack_score("n0", lc_spec.name, lc_spec)
        assert slack == pytest.approx(0.5)

    def test_negative_slack_on_violation(self, lc_spec):
        det = QoSDetector()
        for _ in range(10):
            det.observe("n0", lc_spec.name, 0.0, lc_spec.qos_target_ms * 2)
        assert det.slack_score("n0", lc_spec.name, lc_spec) == pytest.approx(-1.0)

    def test_none_without_samples(self, lc_spec):
        assert QoSDetector().slack_score("n0", lc_spec.name, lc_spec) is None

    def test_be_services_have_no_slack(self, be_spec):
        det = QoSDetector()
        det.observe("n0", be_spec.name, 0.0, 100.0)
        assert det.slack_score("n0", be_spec.name, be_spec) is None

    def test_window_expiry_keeps_minimum(self, lc_spec):
        det = QoSDetector(window_ms=100.0, min_keep=4)
        for i in range(20):
            det.observe("n0", lc_spec.name, float(i), 100.0)
        det.observe("n0", lc_spec.name, 10_000.0, 100.0)
        assert det.sample_count("n0", lc_spec.name) >= 4

    def test_tail_latency_is_percentile(self, lc_spec):
        det = QoSDetector(min_keep=100)
        for v in range(1, 101):
            det.observe("n0", lc_spec.name, 0.0, float(v))
        assert det.tail_latency_ms("n0", lc_spec.name) == pytest.approx(95.05)

    def test_per_node_per_service_isolation(self, lc_spec):
        det = QoSDetector()
        det.observe("n0", lc_spec.name, 0.0, 10.0)
        assert det.tail_latency_ms("n1", lc_spec.name) is None

    def test_expire_on_read_drops_stale_tail(self, lc_spec):
        """Regression: a window that stops receiving completions must not
        report its last tail forever once the reader passes ``now_ms``."""
        det = QoSDetector(window_ms=100.0, min_keep=2)
        for i in range(10):
            det.observe("n0", lc_spec.name, float(i * 10), 500.0)
        det.observe("n0", lc_spec.name, 100.0, 1.0)
        det.observe("n0", lc_spec.name, 101.0, 2.0)
        # without now_ms the old samples still dominate the percentile
        assert det.tail_latency_ms("n0", lc_spec.name) > 100.0
        # a read far past the window keeps only the min_keep floor — the
        # two fresh samples — so the stale 500 ms tail is gone
        tail = det.tail_latency_ms("n0", lc_spec.name, now_ms=1_000.0)
        assert tail == pytest.approx(1.95)
        assert det.sample_count("n0", lc_spec.name) == 2

    def test_expire_on_read_honors_min_keep(self, lc_spec):
        det = QoSDetector(window_ms=100.0, min_keep=4)
        for i in range(6):
            det.observe("n0", lc_spec.name, float(i), 50.0)
        det.tail_latency_ms("n0", lc_spec.name, now_ms=10_000.0)
        assert det.sample_count("n0", lc_spec.name) == 4

    def test_expire_on_read_deterministic(self, lc_spec):
        """Two detectors fed identically and read identically agree, no
        matter how reads interleave with observes."""
        a = QoSDetector(window_ms=100.0, min_keep=2)
        b = QoSDetector(window_ms=100.0, min_keep=2)
        for det in (a, b):
            for i in range(10):
                det.observe("n0", lc_spec.name, float(i * 30), float(i))
        a.tail_latency_ms("n0", lc_spec.name, now_ms=150.0)  # extra read
        assert a.tail_latency_ms(
            "n0", lc_spec.name, now_ms=300.0
        ) == b.tail_latency_ms("n0", lc_spec.name, now_ms=300.0)

    def test_purge_node_clears_all_state(self, catalog):
        lc = [s for s in catalog if s.is_lc][:2]
        det = QoSDetector()
        for spec in lc:
            for _ in range(5):
                det.observe("n0", spec.name, 0.0, 10.0)
                det.observe("n1", spec.name, 0.0, 10.0)
        det.tail_latency_ms("n0", lc[0].name)
        det.purge_node("n0")
        assert det.sample_count("n0", lc[0].name) == 0
        assert det._node_services.get("n0") is None
        assert all(key[0] != "n0" for key in det._samples)
        # other nodes untouched
        assert det.sample_count("n1", lc[0].name) == 5
        # slack queries after the purge behave like a cold node
        specs = {s.name: s for s in lc}
        assert det.node_min_slack("n0", specs) == 1.0
        # purging a node that never reported is a no-op
        det.purge_node("never-seen")

    def test_node_min_slack_over_services(self, catalog):
        lc = [s for s in catalog if s.is_lc][:2]
        det = QoSDetector()
        for _ in range(8):
            det.observe("n0", lc[0].name, 0.0, lc[0].qos_target_ms * 0.5)
            det.observe("n0", lc[1].name, 0.0, lc[1].qos_target_ms * 1.5)
        specs = {s.name: s for s in lc}
        assert det.node_min_slack("n0", specs) == pytest.approx(-0.5)


class TestAlgorithm1:
    def make(self, alpha=0.1, beta=0.5):
        det = QoSDetector()
        mech = ReassuranceMechanism(
            det, ReassuranceConfig(alpha=alpha, beta=beta, period_ms=0.0)
        )
        return det, mech

    def fill(self, det, spec, node, latency_ratio):
        for _ in range(10):
            det.observe(node, spec.name, 0.0, spec.qos_target_ms * latency_ratio)

    def test_classification_levels(self, lc_spec):
        det, mech = self.make()
        self.fill(det, lc_spec, "n0", 1.5)  # slack = -0.5 < α → poor
        assert mech.classify("n0", lc_spec) == LEVEL_POOR
        self.fill(det, lc_spec, "n1", 0.2)  # slack = 0.8 > β → excellent
        assert mech.classify("n1", lc_spec) == LEVEL_EXCELLENT
        self.fill(det, lc_spec, "n2", 0.7)  # slack = 0.3 in (α, β) → stable
        assert mech.classify("n2", lc_spec) == LEVEL_STABLE

    def test_poor_increases_minimum(self, lc_spec):
        det, mech = self.make()
        self.fill(det, lc_spec, "n0", 1.5)
        before = mech.min_resources("n0", lc_spec)
        mech.run(0.0, {"n0": {lc_spec.name: lc_spec}})
        after = mech.min_resources("n0", lc_spec)
        assert after.cpu > before.cpu

    def test_excellent_decreases_minimum(self, lc_spec):
        det, mech = self.make()
        self.fill(det, lc_spec, "n0", 0.1)
        before = mech.min_resources("n0", lc_spec)
        mech.run(0.0, {"n0": {lc_spec.name: lc_spec}})
        after = mech.min_resources("n0", lc_spec)
        assert after.cpu < before.cpu

    def test_stable_leaves_minimum(self, lc_spec):
        det, mech = self.make()
        self.fill(det, lc_spec, "n0", 0.7)
        before = mech.min_resources("n0", lc_spec)
        assert mech.run(0.0, {"n0": {lc_spec.name: lc_spec}}) == 0
        assert mech.min_resources("n0", lc_spec).approx_equal(before)

    def test_ceiling_and_floor_respected(self, lc_spec):
        det, mech = self.make()
        cfg = mech.config
        self.fill(det, lc_spec, "n0", 3.0)
        for _ in range(100):
            mech.run(0.0, {"n0": {lc_spec.name: lc_spec}})
        ceiling = lc_spec.reference_resources * cfg.ceiling_multiple
        assert mech.min_resources("n0", lc_spec).fits_in(ceiling)

        det2, mech2 = self.make()
        self.fill(det2, lc_spec, "n0", 0.01)
        for _ in range(100):
            mech2.run(0.0, {"n0": {lc_spec.name: lc_spec}})
        floor = lc_spec.min_resources * mech2.config.floor_fraction
        assert floor.fits_in(mech2.min_resources("n0", lc_spec) + floor * 1e-6)

    def test_period_gates_runs(self, lc_spec):
        det = QoSDetector()
        mech = ReassuranceMechanism(det, ReassuranceConfig(period_ms=100.0))
        for _ in range(10):
            det.observe("n0", lc_spec.name, 0.0, lc_spec.qos_target_ms * 2)
        nodes = {"n0": {lc_spec.name: lc_spec}}
        assert mech.run(0.0, nodes) == 1
        assert mech.run(50.0, nodes) == 0  # inside the period
        assert mech.run(150.0, nodes) == 1

    def test_small_steps(self, lc_spec):
        """'high frequency with a small proportion' — one step is < 15%."""
        det, mech = self.make()
        self.fill(det, lc_spec, "n0", 2.0)
        before = mech.min_resources("n0", lc_spec)
        mech.run(0.0, {"n0": {lc_spec.name: lc_spec}})
        after = mech.min_resources("n0", lc_spec)
        assert after.cpu / before.cpu < 1.15

    def test_requires_alpha_below_beta(self):
        with pytest.raises(ValueError):
            ReassuranceMechanism(
                QoSDetector(), ReassuranceConfig(alpha=0.9, beta=0.1)
            )

    def test_reset_per_node(self, lc_spec):
        det, mech = self.make()
        self.fill(det, lc_spec, "n0", 2.0)
        mech.run(0.0, {"n0": {lc_spec.name: lc_spec}})
        assert not mech.min_resources("n0", lc_spec).approx_equal(
            lc_spec.min_resources
        )
        mech.reset("n0")
        assert mech.min_resources("n0", lc_spec).approx_equal(
            lc_spec.min_resources
        )
