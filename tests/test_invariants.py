"""Runtime invariant checker: unit tests per law + strict-mode integration.

The unit tests run a short simulation, then *tamper* with live state and
assert the relevant law fires with useful context.  The integration tests
are the PR's acceptance gate: every stack (tango + the three baselines),
with and without failure injection, completes a default-config run in
strict mode with zero violations.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro import TangoConfig, TangoSystem
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import TopologyConfig
from repro.scheduling.dss_lc import DSSLCConfig, DispatchAuditRecord
from repro.sim.failures import FailureConfig
from repro.sim.invariants import (
    LAWS,
    InvariantViolationError,
    RuntimeInvariantChecker,
    Violation,
)
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

STACKS = {
    "tango": TangoConfig.tango,
    "k8s-native": TangoConfig.k8s_native,
    "ceres": TangoConfig.ceres,
    "dsaco": TangoConfig.dsaco,
}


def small_system(factory=TangoConfig.tango, *, clusters=2, workers=2,
                 duration_ms=3_000.0, seed=0, **runner_kwargs):
    config = factory(
        topology=TopologyConfig(
            n_clusters=clusters, workers_per_cluster=workers, seed=seed
        ),
        runner=RunnerConfig(duration_ms=duration_ms, **runner_kwargs),
    )
    return TangoSystem(config)


def small_trace(*, clusters=2, duration_ms=3_000.0, seed=0):
    return SyntheticTrace(
        TraceConfig(
            n_clusters=clusters, duration_ms=duration_ms, seed=seed,
            lc_peak_rps=12.0, be_peak_rps=5.0,
        )
    ).generate()


def run_checked(**runner_kwargs):
    """Run tango with the checker on; return the live runner."""
    system = small_system(check_invariants=True, **runner_kwargs)
    system.run(small_trace())
    return system.last_runner


class TestCheckerBasics:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="strict|soft"):
            RuntimeInvariantChecker(mode="lenient")

    def test_violation_str_carries_context(self):
        v = Violation(
            "node-resources", 1234.0, "cpu went negative",
            node="edge-0-1", service="web",
        )
        text = str(v)
        assert "node-resources" in text
        assert "t=1234.0ms" in text
        assert "edge-0-1" in text
        assert "web" in text

    def test_clean_run_records_nothing(self):
        runner = run_checked()
        assert runner.invariants is not None
        assert runner.invariants.violations == []
        metrics = runner.collector.metrics
        assert metrics.invariant_violations == 0
        assert metrics.invariant_violations_by_law == {}

    def test_checker_off_leaves_no_stage_or_feed(self):
        system = small_system()
        system.run(small_trace())
        runner = system.last_runner
        assert runner.invariants is None
        assert "invariants" not in runner.pipeline.stage_names()
        assert runner.lc_scheduler.audit_log is None


class TestConservationLaw:
    def test_tampered_counter_raises_strict(self):
        runner = run_checked()
        runner.collector.metrics.lc_arrived += 1
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        laws = {v.law for v in exc.value.violations}
        assert laws == {"request-conservation"}

    def test_satisfied_above_completed_raises(self):
        runner = run_checked()
        metrics = runner.collector.metrics
        metrics.lc_satisfied = metrics.lc_completed + 1
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        violations = exc.value.violations
        assert {v.law for v in violations} == {"request-conservation"}
        assert any("satisfied" in v.message for v in violations)

    def test_stale_placement_fields_flagged(self):
        runner = run_checked()
        # fabricate a displaced request that skipped clear_assignment()
        ctx = runner.ctx
        cluster = ctx.system.clusters[0]
        spec = next(iter(runner.catalog.values()))
        from repro.sim.request import ServiceRequest

        request = ServiceRequest(
            spec=spec, origin_cluster=0, arrival_ms=ctx.now_ms
        )
        request.target_node = "edge-0-0"
        cluster.lc_queue.append(request)
        ctx.collector.metrics.lc_arrived += 1  # keep totals balanced
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(ctx)
        messages = [v.message for v in exc.value.violations]
        assert any("stale placement" in m for m in messages)

    def test_soft_mode_counts_and_continues(self):
        runner = run_checked(invariant_mode="soft")
        metrics = runner.collector.metrics
        metrics.lc_arrived += 2
        found = runner.invariants.check_tick(runner.ctx)
        assert len(found) == 1
        assert metrics.invariant_violations == 1
        assert metrics.invariant_violations_by_law == {
            "request-conservation": 1
        }
        # a second tick keeps accumulating instead of raising
        runner.invariants.check_tick(runner.ctx)
        assert metrics.invariant_violations == 2
        assert len(runner.invariants.violations) == 2


class TestNodeResourceLaw:
    def test_negative_allocation_flagged(self):
        runner = run_checked()
        worker = runner.ctx.worker_list[0]
        worker._allocated = ResourceVector(cpu=-1.0)
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        violations = [
            v for v in exc.value.violations if v.law == "node-resources"
        ]
        assert violations
        assert violations[0].node == worker.name

    def test_overcommit_flagged(self):
        runner = run_checked()
        worker = runner.ctx.worker_list[0]
        worker._allocated = ResourceVector(
            cpu=worker.capacity.cpu + 1.0, memory=worker.allocated.memory
        )
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        assert any(
            "exceeds capacity" in v.message for v in exc.value.violations
        )

    @pytest.mark.parametrize("dim", ["cpu", "memory"])
    def test_book_vs_sum_mismatch_flagged(self, dim):
        runner = run_checked()
        # find a worker with running work and skew its book
        worker = next(
            (w for w in runner.ctx.worker_list if w.running), None
        )
        if worker is None:
            pytest.skip("no running work at end of run")
        worker._allocated = worker._allocated + ResourceVector(**{dim: 0.5})
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        assert any(
            f"per-request {dim} allocations sum to" in v.message
            for v in exc.value.violations
            if v.law == "node-resources"
        )


class TestDVPALaw:
    def test_shrunk_pod_limit_flagged(self):
        runner = run_checked()
        tampered = None
        for worker in runner.ctx.worker_list:
            pods = getattr(worker.manager, "_dvpa", None)
            if not pods or not worker.running:
                continue
            dvpa = pods.get(worker.name)
            if dvpa is None:
                continue
            service = next(iter(worker.running.values())).request.spec.name
            if dvpa.current_limit(service) is None:
                continue
            dvpa.scale(service, ResourceVector())  # limit → 0 under live load
            tampered = (worker.name, service)
            break
        if tampered is None:
            pytest.skip("no HRM worker with running work at end of run")
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        violations = [
            v for v in exc.value.violations if v.law == "dvpa-limits"
        ]
        assert violations
        assert violations[0].node == tampered[0]
        assert violations[0].service == tampered[1]


class TestSnapshotCoherenceLaw:
    def test_corrupted_cache_on_clean_node_flagged(self):
        runner = run_checked()
        storage = runner.storage
        target = None
        for worker in runner.ctx.worker_list:
            if worker.snapshot_dirty:
                continue
            snap = storage.cached_node_snapshot(worker.name)
            if snap is not None:
                target = (worker, snap)
                break
        if target is None:
            pytest.skip("no clean cached node at end of run")
        worker, snap = target
        storage._node_cache[worker.name] = dataclasses.replace(
            snap, lc_queue=snap.lc_queue + 3
        )
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        violations = [
            v for v in exc.value.violations if v.law == "snapshot-coherence"
        ]
        assert violations
        assert violations[0].node == worker.name
        assert "snapshot_dirty" in violations[0].message


class TestDispatchCapacityLaw:
    @staticmethod
    def record(immediate, queued, n_queued):
        # one node: total 8 cpu / 16384 mem, fully available, r=(1, 2048)
        # → 8 units; target_fill=1.0 keeps the holdback at zero.
        return DispatchAuditRecord(
            service="web",
            node_names=["edge-0-0"],
            cpu_available=[8.0],
            mem_available=[16384.0],
            cpu_total=[8.0],
            mem_total=[16384.0],
            lc_queue=[0],
            r_cpu=[1.0],
            r_mem=[2048.0],
            target_fill=1.0,
            immediate_counts=[immediate],
            queued_counts=[queued],
            n_queued=n_queued,
        )

    def test_within_bounds_passes(self):
        runner = run_checked()
        runner.lc_scheduler.audit_log.append(self.record(8, 0, 0))
        runner.invariants.check_tick(runner.ctx)

    def test_eq2_overshoot_flagged(self):
        runner = run_checked()
        runner.lc_scheduler.audit_log.append(self.record(9, 0, 0))
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        violations = [
            v for v in exc.value.violations if v.law == "dispatch-capacity"
        ]
        assert violations
        assert "Eq. 2" in violations[0].message

    def test_augmented_overshoot_flagged(self):
        runner = run_checked()
        # 3 placed now leaves 8-3=5 units; with |R'_k|=2 the augmented
        # capacity on the single node is 2 — push 3 to violate Eq. 7-8.
        runner.lc_scheduler.audit_log.append(self.record(3, 3, 2))
        with pytest.raises(InvariantViolationError) as exc:
            runner.invariants.check_tick(runner.ctx)
        assert any(
            "augmented capacity" in v.message for v in exc.value.violations
        )

    def test_audit_log_drained_after_check(self):
        runner = run_checked()
        runner.lc_scheduler.audit_log.append(self.record(8, 0, 0))
        runner.invariants.check_tick(runner.ctx)
        assert runner.lc_scheduler.audit_log == []


class TestStrictIntegration:
    """Acceptance gate: every stack runs clean in strict mode."""

    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("with_failures", [False, True],
                             ids=["steady", "failures"])
    def test_zero_violations(self, stack, with_failures):
        failures = None
        if with_failures:
            failures = FailureConfig(
                node_mtbf_ms=1_500.0, node_downtime_ms=800.0,
                partition_mtbf_ms=4_000.0, seed=3,
            )
        system = small_system(
            STACKS[stack],
            duration_ms=4_000.0,
            check_invariants=True,
            failures=failures,
        )
        metrics = system.run(small_trace(duration_ms=4_000.0))
        assert metrics.invariant_violations == 0
        assert system.last_runner.invariants.violations == []
        if with_failures:
            # the run must actually have exercised the crash paths
            assert system.last_runner.injector.events

    @pytest.mark.parametrize("with_failures", [False, True],
                             ids=["steady", "failures"])
    def test_coordinated_rounds_are_audited(self, with_failures):
        """With types sharing links, every type of every multi-type round
        writes its own audit record, and the run is strict-clean."""
        failures = None
        if with_failures:
            failures = FailureConfig(
                node_mtbf_ms=1_500.0, node_downtime_ms=800.0,
                partition_mtbf_ms=4_000.0, seed=3,
            )
        system = small_system(
            functools.partial(
                TangoConfig.tango, dss_lc=DSSLCConfig(coordinate_types=True)
            ),
            clusters=3,
            workers=3,
            duration_ms=4_000.0,
            check_invariants=True,
            failures=failures,
        )
        sched = system.lc_scheduler
        dispatch = sched.dispatch
        rounds = []  # (types offered, audit records written) per round

        def counted(origin, requests, snapshot, eligible, now_ms):
            before = len(sched.audit_log)
            out = dispatch(origin, requests, snapshot, eligible, now_ms)
            if snapshot.view(eligible).nodes:
                rounds.append(
                    (len({r.spec.name for r in requests}),
                     len(sched.audit_log) - before)
                )
            return out

        sched.dispatch = counted
        metrics = system.run(small_trace(clusters=3, duration_ms=4_000.0))
        assert metrics.invariant_violations == 0
        assert any(types > 1 for types, _ in rounds)
        assert all(records == types for types, records in rounds)

    def test_law_names_are_stable(self):
        # EXPERIMENTS.md's triage recipe references these identifiers
        assert LAWS == (
            "request-conservation",
            "node-resources",
            "dvpa-limits",
            "snapshot-coherence",
            "dispatch-capacity",
        )
