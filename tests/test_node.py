"""Worker-node runtime tests: admission, execution, conservation invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.node import AdmitDecision, WorkerNode
from repro.cluster.resources import ResourceVector
from repro.sim.request import RequestState, ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

rv = ResourceVector.of
CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


class AdmitAll:
    """Trivial manager: reference allocation, no preemption."""

    def admit(self, node, request, now_ms):
        demand = request.spec.reference_resources
        if not demand.fits_in(node.free()):
            return None
        return AdmitDecision(allocation=demand)

    def on_complete(self, node, running, now_ms):
        pass

    def tick(self, node, now_ms):
        pass


def make_node(cpu=4.0, mem=8192.0):
    node = WorkerNode("w0", 0, rv(cpu=cpu, memory=mem))
    node.manager = AdmitAll()
    return node


def req(spec=LC, arrival=0.0):
    return ServiceRequest(spec=spec, origin_cluster=0, arrival_ms=arrival)


class TestAdmission:
    def test_enqueue_and_run(self):
        node = make_node()
        node.enqueue(req(), now_ms=0.0)
        node.step(0.0, 25.0)
        assert len(node.running) == 1
        assert node.queue_lengths() == (0, 0)

    def test_no_manager_raises(self):
        node = WorkerNode("w0", 0, rv(cpu=1, memory=1))
        node.enqueue(req(), 0.0)
        with pytest.raises(RuntimeError):
            node.step(0.0, 25.0)

    def test_lc_admitted_before_be(self):
        node = make_node(cpu=LC.reference_resources.cpu)  # room for exactly one
        node.enqueue(req(BE), 0.0)
        node.enqueue(req(LC), 0.0)
        node.step(0.0, 25.0)
        kinds = [rr.request.kind for rr in node.running.values()]
        assert ServiceKind.LC in kinds

    def test_queue_blocks_head_of_line_within_class(self):
        node = make_node(cpu=1.0, mem=99999.0)
        big = req(LC)
        node.enqueue(big, 0.0)  # needs 1.0 cpu → fits
        node.enqueue(req(LC), 0.0)  # no room left
        node.step(0.0, 25.0)
        assert len(node.running) == 1
        assert node.queue_lengths()[0] == 1


class TestExecution:
    def test_request_completes_after_service_time(self):
        node = make_node()
        r = req()
        node.enqueue(r, 0.0)
        completed = []
        t = 0.0
        for _ in range(200):
            done, _, _ = node.step(t, 25.0)
            completed.extend(done)
            t += 25.0
            if completed:
                break
        assert completed and completed[0] is r
        assert r.state is RequestState.COMPLETED
        # with reference allocation the service time is ~base_service_ms
        assert r.completed_ms == pytest.approx(LC.base_service_ms, abs=30.0)

    def test_resources_reclaimed_on_completion(self):
        node = make_node()
        node.enqueue(req(), 0.0)
        t = 0.0
        for _ in range(200):
            node.step(t, 25.0)
            t += 25.0
        assert node.allocated.is_zero()
        assert node.completed_count == 1

    def test_abandonment_of_stale_lc(self):
        node = make_node(cpu=0.1, mem=1.0)  # nothing can ever run
        r = req(LC)
        node.enqueue(r, 0.0)
        _, _, abandoned = node.step(LC.qos_target_ms * 10, 25.0)
        assert abandoned == [r]
        assert r.state is RequestState.ABANDONED

    def test_be_never_abandoned(self):
        node = make_node(cpu=0.1, mem=1.0)
        r = req(BE)
        node.enqueue(r, 0.0)
        _, _, abandoned = node.step(1e9, 25.0)
        assert abandoned == []


class TestAccounting:
    def test_grant_rejects_overcommit(self):
        node = make_node(cpu=1.0)
        with pytest.raises(ValueError):
            node.grant(rv(cpu=2.0))

    def test_utilization_by_kind_splits(self):
        node = make_node(cpu=8.0, mem=16384.0)
        node.enqueue(req(LC), 0.0)
        node.enqueue(req(BE), 0.0)
        node.step(0.0, 25.0)
        shares = node.utilization_by_kind()
        assert shares[ServiceKind.LC] > 0
        assert shares[ServiceKind.BE] > 0

    def test_adjust_running_allocation_conserves(self):
        node = make_node()
        node.enqueue(req(BE), 0.0)
        node.step(0.0, 25.0)
        rr = next(iter(node.running.values()))
        before_free = node.free().cpu
        smaller = rv(cpu=rr.allocation.cpu / 2, memory=rr.allocation.memory)
        node.adjust_running_allocation(rr, smaller)
        assert node.free().cpu == pytest.approx(
            before_free + smaller.cpu
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    def test_conservation_invariant(self, kinds):
        """allocated + free == capacity after arbitrary admission patterns."""
        node = make_node(cpu=8.0, mem=16384.0)
        for i, is_lc in enumerate(kinds):
            node.enqueue(req(LC if is_lc else BE, arrival=0.0), 0.0)
        t = 0.0
        for _ in range(30):
            node.step(t, 25.0)
            total = node.allocated + node.free()
            assert total.approx_equal(node.capacity, tol=1e-6)
            t += 25.0
