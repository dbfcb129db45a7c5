"""Pressure-testing methodology tests (§6.1 twin-space calibration)."""

import math

import pytest

from repro.cluster.resources import ResourceVector
from repro.sim.latency import LatencyModel
from repro.sim.pressure import PressurePoint, PressureTester, TableLatencyModel
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


class TestPressureTester:
    def test_reference_allocation_unloaded_is_base_time(self):
        tester = PressureTester(tick_ms=1.0)
        measured = tester.measure_once(LC, 1.0, 0.0)
        assert measured == pytest.approx(LC.base_service_ms, abs=2.0)

    def test_starvation_slows_measured_time(self):
        tester = PressureTester()
        full = tester.measure_once(LC, 1.0, 0.0)
        starved = tester.measure_once(LC, 0.5, 0.0)
        assert starved > full * 1.5

    def test_contention_slows_measured_time(self):
        tester = PressureTester()
        quiet = tester.measure_once(LC, 1.0, 0.0)
        contended = tester.measure_once(LC, 1.0, 0.99)
        assert contended > quiet

    def test_zero_allocation_infinite(self):
        tester = PressureTester()
        assert math.isinf(tester.measure_once(LC, 0.0, 0.0))

    def test_sweep_covers_full_grid(self):
        tester = PressureTester()
        points = tester.sweep(LC, (0.5, 1.0), (0.0, 0.9))
        assert len(points) == 4
        combos = {(p.allocation_fraction, p.background_utilization)
                  for p in points}
        assert combos == {(0.5, 0.0), (0.5, 0.9), (1.0, 0.0), (1.0, 0.9)}


class TestTableLatencyModel:
    def fitted(self, spec=LC):
        tester = PressureTester(tick_ms=1.0)
        model = TableLatencyModel()
        model.fit(spec, tester.sweep(spec))
        return model

    def test_table_reproduces_parametric_model(self):
        """The measured table matches the model it was measured from —
        the paper's physical↔twin closure property."""
        model = self.fitted()
        parametric = LatencyModel()
        for frac in (0.5, 0.7, 1.0):
            for util in (0.0, 0.6, 0.9):
                alloc = LC.reference_resources * frac
                want = parametric.speed(LC, alloc, util)
                got = model.speed(LC, alloc, util)
                assert got == pytest.approx(want, rel=0.1), (frac, util)

    def test_unknown_service_falls_back_to_parametric(self):
        model = self.fitted(LC)
        parametric = LatencyModel()
        assert model.speed(
            BE, BE.reference_resources, 0.0
        ) == pytest.approx(parametric.speed(BE, BE.reference_resources, 0.0))

    def test_zero_allocation_is_zero_speed(self):
        model = self.fitted()
        assert model.speed(LC, ResourceVector(), 0.0) == 0.0

    def test_incomplete_grid_rejected(self):
        model = TableLatencyModel()
        points = [PressurePoint(0.5, 0.0, 100.0), PressurePoint(1.0, 0.5, 50.0)]
        with pytest.raises(ValueError):
            model.fit(LC, points)

    def test_interpolation_monotone_in_allocation(self):
        model = self.fitted()
        speeds = [
            model.speed(LC, LC.reference_resources * f, 0.3)
            for f in (0.45, 0.65, 0.85, 1.05)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(speeds, speeds[1:]))

    def test_node_runs_on_table_model(self):
        """A WorkerNode driven by the measured table completes requests."""
        from repro.cluster.node import AdmitDecision, WorkerNode
        from repro.sim.request import ServiceRequest

        class AdmitRef:
            def admit(self, node, request, now_ms):
                d = request.spec.reference_resources
                if not d.fits_in(node.free()):
                    return None
                return AdmitDecision(allocation=d)

            def on_complete(self, node, running, now_ms):
                pass

            def tick(self, node, now_ms):
                pass

        node = WorkerNode(
            "w0", 0, ResourceVector(cpu=4, memory=8192),
            latency_model=self.fitted(),
        )
        node.manager = AdmitRef()
        req = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        node.enqueue(req, 0.0)
        t = 0.0
        for _ in range(200):
            done, _, _ = node.step(t, 25.0)
            t += 25.0
            if done:
                break
        assert req.completed_ms is not None
        assert req.completed_ms == pytest.approx(LC.base_service_ms, abs=50.0)
