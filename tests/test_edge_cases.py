"""Edge-case tests across modules (rounding, clamps, degenerate inputs)."""

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.flow.graph import solve_transport
from repro.kube.scheduler import NodeView
from repro.workloads.spec import ServiceKind, default_catalog

rv = ResourceVector.of
CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


class TestFlowRounding:
    def test_sub_microsecond_delays_do_not_vanish(self):
        """Delays round at µs resolution; distinct ms-scale delays stay
        distinct after scaling."""
        result = solve_transport(1, np.array([[10], [10]]), np.array([[0.001], [0.002]]))
        assert result.absorbed.tolist() == [1, 0]  # the cheaper arc wins

    def test_negative_delay_clamped_to_zero_cost(self):
        result = solve_transport(1, np.array([[10]]), np.array([[-5.0]]))
        assert result.placed == 1
        assert result.total_delay_ms == 0.0

    def test_zero_capacity_edges_skipped(self):
        result = solve_transport(2, np.array([[0], [10]]), np.array([[1.0], [9.0]]))
        assert result.absorbed.tolist() == [0, 2]
        assert result.augmentations == 1


class TestNodeViewClamping:
    def test_free_never_negative(self):
        view = NodeView("n", rv(cpu=2, memory=100), rv(cpu=5, memory=500))
        free = view.free()
        assert free.cpu == 0.0 and free.memory == 0.0


class TestHRMEdgeCases:
    def make(self, cpu=4.0, mem=8192.0):
        from repro.cluster.node import WorkerNode
        from repro.hrm.qos import QoSDetector
        from repro.hrm.reassurance import ReassuranceMechanism
        from repro.hrm.regulations import HRMManager

        det = QoSDetector()
        manager = HRMManager(det, ReassuranceMechanism(det))
        node = WorkerNode("w", 0, rv(cpu=cpu, memory=mem))
        node.manager = manager
        return manager, node

    def test_lc_larger_than_node_capacity_rejected(self):
        from repro.sim.request import ServiceRequest

        manager, node = self.make(cpu=0.1, mem=32.0)
        req = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        assert manager.admit(node, req, 0.0) is None

    def test_be_expansion_also_grows_memory(self):
        from repro.sim.request import ServiceRequest

        manager, node = self.make(cpu=16.0, mem=65536.0)
        req = ServiceRequest(spec=BE, origin_cluster=0, arrival_ms=0.0)
        node.enqueue(req, 0.0)
        node.step(0.0, 25.0)
        rr = next(iter(node.running.values()))
        mem_start = rr.allocation.memory
        for t in range(1, 20):
            manager.tick(node, t * 25.0)
        assert rr.allocation.memory >= mem_start
        assert rr.allocation.memory <= BE.reference_resources.memory + 1e-6

    def test_squeeze_respects_floor(self):
        from repro.sim.request import ServiceRequest

        manager, node = self.make(cpu=1.0, mem=65536.0)
        be_req = ServiceRequest(spec=BE, origin_cluster=0, arrival_ms=0.0)
        node.enqueue(be_req, 0.0)
        node.step(0.0, 25.0)
        rr = next(iter(node.running.values()))
        floor = BE.min_resources.cpu * manager.config.be_squeeze_floor
        manager._squeeze_be_cpu(node, missing_cpu=100.0)
        assert rr.allocation.cpu >= floor - 1e-9


class TestCatalogConsistency:
    def test_every_spec_runnable_at_minimum(self):
        """min_resources must actually let the service make progress."""
        from repro.sim.latency import LatencyModel

        model = LatencyModel()
        for spec in CATALOG:
            speed = model.speed(spec, spec.min_resources, 0.0)
            assert speed > 0.0, spec.name

    def test_lc_can_meet_target_at_minimum_unloaded(self):
        """At the minimum allocation with no contention, the processing
        time alone stays under the QoS target — queueing and network are
        what eat the remaining budget."""
        from repro.sim.latency import LatencyModel

        model = LatencyModel()
        for spec in CATALOG:
            if not spec.is_lc:
                continue
            t = model.expected_processing_ms(spec, spec.min_resources, 0.0)
            assert t < spec.qos_target_ms, spec.name
