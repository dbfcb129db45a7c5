"""Cross-module property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.resources import ResourceVector
from repro.flow.graph import solve_transport
from repro.hrm.qos import QoSDetector
from repro.hrm.reassurance import ReassuranceConfig, ReassuranceMechanism
from repro.kube.cgroups import CGroupTree
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)


class TestCGroupInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        targets=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=16.0),
                st.floats(min_value=16.0, max_value=8192.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_resize_sequence_never_violates_hierarchy(self, targets):
        """Any sequence of resizes keeps child limits ≤ parent limits."""
        tree = CGroupTree()
        tree.create_pod_group(
            "burstable", "prop", ["c0"], cpu_limit_cores=1.0,
            memory_limit_mib=512.0,
        )
        for cpu, mem in targets:
            tree.resize_pod(
                "burstable", "prop", "c0", ResourceVector(cpu=cpu, memory=mem)
            )
            pod = tree.pod_group("burstable", "prop")
            child = pod.children["c0"]
            assert child.cpu_limit_cores() <= pod.cpu_limit_cores() + 1e-9
            assert child.memory_limit_mib() <= pod.memory_limit_mib() + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        cpu=st.floats(min_value=0.1, max_value=16.0),
        mem=st.floats(min_value=16.0, max_value=8192.0),
    )
    def test_resize_is_idempotent(self, cpu, mem):
        tree = CGroupTree()
        tree.create_pod_group(
            "burstable", "idem", ["c0"], cpu_limit_cores=1.0,
            memory_limit_mib=512.0,
        )
        target = ResourceVector(cpu=cpu, memory=mem)
        tree.resize_pod("burstable", "idem", "c0", target)
        second = tree.resize_pod("burstable", "idem", "c0", target)
        # second identical resize is a no-op except possibly shares rewrites
        pod = tree.pod_group("burstable", "idem")
        assert pod.cpu_limit_cores() == pytest.approx(cpu)


class TestReassuranceInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=1.0, max_value=5_000.0),
            min_size=1,
            max_size=50,
        )
    )
    def test_minima_always_within_bounds(self, latencies):
        """No latency history can push minima outside [floor, ceiling]."""
        det = QoSDetector()
        mech = ReassuranceMechanism(det, ReassuranceConfig(period_ms=0.0))
        for i, latency in enumerate(latencies):
            det.observe("n", LC.name, float(i), latency)
            mech.run(float(i), {"n": {LC.name: LC}})
        result = mech.min_resources("n", LC)
        floor = LC.min_resources * mech.config.floor_fraction
        ceiling = LC.reference_resources * mech.config.ceiling_multiple
        assert result.cpu >= floor.cpu - 1e-9
        assert result.cpu <= ceiling.cpu + 1e-9
        assert result.memory >= floor.memory - 1e-9
        assert result.memory <= ceiling.memory + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(ratio=st.floats(min_value=1.2, max_value=4.0))
    def test_sustained_violation_converges_to_ceiling(self, ratio):
        det = QoSDetector()
        mech = ReassuranceMechanism(det, ReassuranceConfig(period_ms=0.0))
        for i in range(200):
            det.observe("n", LC.name, float(i), LC.qos_target_ms * ratio)
            mech.run(float(i), {"n": {LC.name: LC}})
        ceiling = LC.reference_resources * mech.config.ceiling_multiple
        assert mech.min_resources("n", LC).cpu == pytest.approx(
            ceiling.cpu, rel=0.15
        )


class TestTransportOptimality:
    @settings(max_examples=40, deadline=None)
    @given(
        pending=st.integers(min_value=1, max_value=12),
        caps=st.lists(st.integers(min_value=0, max_value=6), min_size=2,
                      max_size=4),
        data=st.data(),
    )
    def test_matches_brute_force_on_stars(self, pending, caps, data):
        """On star graphs the LP optimum equals the greedy-by-delay fill."""
        delays = [
            data.draw(st.floats(min_value=0.5, max_value=50.0))
            for _ in caps
        ]
        result = solve_transport(
            pending, np.array(caps).reshape(-1, 1), np.array(delays).reshape(-1, 1)
        )

        # greedy fill in increasing-delay order is optimal for a star
        order = np.argsort(delays)
        remaining = pending
        expected_cost = 0.0
        for idx in order:
            take = min(remaining, caps[idx])
            expected_cost += take * delays[idx]
            remaining -= take
        placed = pending - remaining
        assert result.placed == placed
        assert result.total_delay_ms == pytest.approx(expected_cost, abs=0.05)


#: a few fixed latencies so drawn windows repeat values (ties at a and b)
REPEATED_MS = (0.5, 1.0, 1.0 / 3.0, 12.25, 40.0, 99.9, 250.0)
LATENCY_MS = st.one_of(
    st.floats(min_value=0.1, max_value=1_000.0), st.sampled_from(REPEATED_MS)
)


class TestDetectorProperties:
    """The written-out p95 against numpy's ``linear`` percentile, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(LATENCY_MS, min_size=1, max_size=60))
    def test_tail_between_min_and_max(self, values):
        det = QoSDetector(min_keep=100)
        for i, v in enumerate(values):
            det.observe("n", "svc", float(i), v)
        tail = det.tail_latency_ms("n", "svc")
        assert type(tail) is float
        assert tail == float(np.percentile(values, 95))
        assert min(values) <= tail <= max(values)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=400.0), LATENCY_MS),
            min_size=1,
            max_size=60,
        ),
        min_keep=st.integers(min_value=1, max_value=6),
        now_ms=st.floats(min_value=0.0, max_value=700.0),
    )
    def test_tail_after_expiry_matches_numpy(self, samples, min_keep, now_ms):
        """Random completion times, a small ``min_keep`` floor and a read at
        ``now_ms``: the tail is the percentile of the samples that survive."""
        det = QoSDetector(window_ms=100.0, min_keep=min_keep)
        survivors = []

        def expire(at_ms):
            # the front sample drops while it is stale and more than
            # min_keep remain
            while len(survivors) > min_keep and survivors[0][0] < at_ms - 100.0:
                survivors.pop(0)

        for completed_ms, latency_ms in samples:
            det.observe("n", "svc", completed_ms, latency_ms)
            survivors.append((completed_ms, latency_ms))
            expire(completed_ms)
        tail = det.tail_latency_ms("n", "svc", now_ms=now_ms)
        expire(now_ms)
        assert det.sample_count("n", "svc") == len(survivors)
        assert tail == float(np.percentile([v for _, v in survivors], 95))
