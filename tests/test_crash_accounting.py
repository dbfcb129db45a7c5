"""Crash-displacement accounting: no request may vanish from the books.

Regression for the node-crash path in ``SimulationRunner._apply_failures``:
LC requests running on a node when it crashes are abandoned (counted via
the collector and ``runner.crash_abandoned``), queued LC survivors return
to their origin master, BE requests are requeued — and every LC arrival
must end the run completed, abandoned, or still somewhere in the system.
"""

from __future__ import annotations

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.sim.failures import FailureConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig


def run_with_failures(mtbf_ms=400.0, seed=5):
    duration = 6_000.0
    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=3, duration_ms=duration, seed=seed,
            lc_peak_rps=25.0, be_peak_rps=6.0,
        )
    ).generate()
    cfg = TangoConfig.tango(
        topology=TopologyConfig(n_clusters=3, workers_per_cluster=3, seed=seed),
        runner=RunnerConfig(
            duration_ms=duration,
            failures=FailureConfig(
                node_mtbf_ms=mtbf_ms, node_downtime_ms=800.0, seed=seed
            ),
        ),
    )
    system = TangoSystem(cfg)
    metrics = system.run(trace)
    return system, metrics


class TestCrashAccounting:
    def test_crashes_happened_and_were_counted(self):
        system, metrics = run_with_failures()
        runner = system.last_runner
        crashes = [e for e in runner.injector.events if e.kind == "crash"]
        assert crashes, "expected the aggressive MTBF to produce crashes"
        # crash-abandoned LC requests flow into the collector's total
        assert runner.crash_abandoned > 0
        assert metrics.lc_abandoned >= runner.crash_abandoned

    def test_lc_conservation_under_crashes(self):
        """arrived == completed + abandoned + still-in-system for LC."""
        system, metrics = run_with_failures()
        runner = system.last_runner
        in_nodes = 0
        for node in system.system.all_workers():
            lc_q, _ = node.queue_lengths()
            in_nodes += lc_q
            in_nodes += sum(1 for rr in node.running.values() if rr.is_lc)
        pending_master = sum(
            len(cluster.lc_queue) for cluster in system.system.clusters
        )
        in_transit = sum(
            1
            for _, _, payload in runner.ctx.deliveries._heap
            if payload[0].is_lc
        )
        accounted = (
            metrics.lc_completed
            + metrics.lc_abandoned
            + in_nodes
            + pending_master
            + in_transit
        )
        assert accounted == metrics.lc_arrived

    def test_requeued_survivors_carry_no_stale_assignment(self):
        """Regression: crash-displaced requests re-entered the master with
        their old target/progress fields intact, so the next dispatch saw
        half-placed state (and the conservation checker double counted)."""
        system, _ = run_with_failures()
        runner = system.last_runner
        crashes = [e for e in runner.injector.events if e.kind == "crash"]
        assert crashes
        for cluster in system.system.clusters:
            for queue in (cluster.lc_queue, cluster.be_queue):
                for request in queue:
                    assert request.target_node is None, request
                    assert request.target_cluster is None, request
                    assert request.started_ms is None, request
                    assert request.dispatched_ms is None, request
                    assert request.node_arrival_ms is None, request

    def test_no_failures_means_no_crash_abandons(self):
        duration = 2_000.0
        trace = SyntheticTrace(
            TraceConfig(
                n_clusters=2, duration_ms=duration, seed=3,
                lc_peak_rps=10.0, be_peak_rps=3.0,
            )
        ).generate()
        cfg = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=3),
            runner=RunnerConfig(duration_ms=duration),
        )
        system = TangoSystem(cfg)
        system.run(trace)
        assert system.last_runner.crash_abandoned == 0


class TestClearAssignment:
    def make_request(self):
        from repro.workloads.spec import default_catalog

        spec = next(s for s in default_catalog() if s.is_lc)
        from repro.sim.request import ServiceRequest

        request = ServiceRequest(
            spec=spec, origin_cluster=1, arrival_ms=100.0
        )
        request.target_cluster = 2
        request.target_node = "edge-2-0"
        request.dispatched_ms = 110.0
        request.node_arrival_ms = 130.0
        request.started_ms = 140.0
        return request

    def test_clears_every_placement_field(self):
        request = self.make_request()
        request.clear_assignment()
        assert request.target_cluster is None
        assert request.target_node is None
        assert request.dispatched_ms is None
        assert request.node_arrival_ms is None
        assert request.started_ms is None

    def test_patience_deadline_not_reset_by_requeue(self):
        """Displacement must not grant an LC request extra patience: the
        deadline anchors to the original arrival, before and after."""
        request = self.make_request()
        before = request.patience_deadline_ms()
        request.clear_assignment()
        assert request.patience_deadline_ms() == before
        assert before == 100.0 + 4.0 * request.spec.qos_target_ms

    def test_crash_purges_qos_windows(self):
        """The detector forgets a crashed node's latency history — a cold
        restart must not inherit pre-crash tails."""
        system, _ = run_with_failures()
        runner = system.last_runner
        detector = runner.storage.detector
        assert detector is not None
        crashed = {
            e.target for e in runner.injector.events if e.kind == "crash"
        }
        assert crashed
        still_down = {
            name for name in crashed if runner.injector.node_is_down(name)
        }
        for name in still_down:
            assert detector._node_services.get(name) is None
            assert all(key[0] != name for key in detector._samples)
