"""Tick-pipeline decomposition: stages, wiring, remap counting, drop cap.

The runner's per-tick control flow is a list of stage objects sharing one
``SimContext`` — profiled and unprofiled runs drive the *same* loop, with
profiling as a wrapper.  These tests pin the stage contract (names, order,
profiler keys), the idempotent publisher wiring, the trace-remap counter,
and the BE requeue drop cap.
"""

from __future__ import annotations

import inspect
import logging

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.obs.events import RequestDropped, RequestRequeued
from repro.sim.failures import FailureConfig
from repro.sim.pipeline import STAGE_NAMES, requeue_evicted
from repro.sim.request import ServiceRequest
from repro.sim.runner import RunnerConfig, SimulationRunner
from repro.workloads.spec import ServiceKind
from repro.workloads.trace import SyntheticTrace, TraceConfig, TraceRecord


def small_system(factory=TangoConfig.tango, *, clusters=2, workers=2,
                 duration_ms=2_000.0, seed=0, **runner_kwargs):
    config = factory(
        topology=TopologyConfig(
            n_clusters=clusters, workers_per_cluster=workers, seed=seed
        ),
        runner=RunnerConfig(duration_ms=duration_ms, **runner_kwargs),
    )
    return TangoSystem(config)


def small_trace(*, clusters=2, duration_ms=2_000.0, seed=0):
    return SyntheticTrace(
        TraceConfig(
            n_clusters=clusters, duration_ms=duration_ms, seed=seed,
            lc_peak_rps=10.0, be_peak_rps=4.0,
        )
    ).generate()


def build_runner(system, trace):
    return SimulationRunner(
        system.system,
        trace,
        system.catalog,
        system.lc_scheduler,
        system.be_scheduler,
        config=system.config.runner,
        state_storage=system.storage,
        reassurance=system.reassurance,
    )


class TestStageDecomposition:
    def test_stage_names_without_injector(self):
        system = small_system()
        runner = build_runner(system, [])
        expected = [
            n for n in STAGE_NAMES if n not in ("failures", "invariants")
        ]
        assert runner.pipeline.stage_names() == expected

    def test_failures_stage_present_with_injector(self):
        system = small_system(failures=FailureConfig())
        runner = build_runner(system, [])
        expected = [n for n in STAGE_NAMES if n != "invariants"]
        assert runner.pipeline.stage_names() == expected

    def test_all_stages_present_with_checker_and_injector(self):
        system = small_system(
            failures=FailureConfig(), check_invariants=True
        )
        runner = build_runner(system, [])
        assert runner.pipeline.stage_names() == list(STAGE_NAMES)

    def test_profiled_and_unprofiled_share_one_loop(self):
        # profiling is a wrapper around the same pipeline; the old
        # hand-rolled duplicate of the tick sequence is gone.
        source = inspect.getsource(SimulationRunner.run)
        assert source.count("run_tick") == 1
        for legacy in ("_inject_arrivals", "_dispatch_lc", "_dispatch_be",
                       "_step_nodes", "_apply_failures"):
            assert legacy not in source

    def test_profiler_covers_every_stage(self):
        system = small_system(profile=True)
        trace = small_trace()
        metrics = system.run(trace)
        assert metrics.lc_arrived > 0
        stage_ms = system.last_runner.profiler.stage_ms()
        expected = set(STAGE_NAMES) - {"failures", "invariants"}
        assert expected.issubset(stage_ms)

    def test_profiled_run_matches_unprofiled(self):
        trace = small_trace()
        plain = small_system().run(trace)
        profiled = small_system(profile=True).run(trace)
        assert plain.lc_completed == profiled.lc_completed
        assert plain.be_completed == profiled.be_completed
        assert sum(plain.lc_latencies_ms) == sum(profiled.lc_latencies_ms)


class TestPublisherWiring:
    def test_wiring_is_idempotent(self):
        system = small_system(observe=True)
        runner = build_runner(system, [])
        emitter = system.lc_scheduler.emitter
        runner._wire_publishers()  # wiring twice must change nothing
        assert system.lc_scheduler.emitter is emitter
        assert emitter is runner.emitter

    def test_shared_dsaco_wired_once_for_both_roles(self):
        system = small_system(TangoConfig.dsaco, observe=True)
        runner = build_runner(system, [])
        assert system.lc_scheduler is system.be_scheduler
        assert system.lc_scheduler.emitter is runner.emitter
        assert runner.emitter.enabled

    def test_rewire_resets_schedulers_and_reassurance(self):
        """One system reused across observe-on and observe-off runs: the
        second (disabled) run must reset every publisher, including the
        schedulers and the re-assurance mechanism."""
        system = small_system(observe=True)
        trace = small_trace()
        system.run(trace)
        observed = system.last_runner.emitter
        assert observed.enabled
        assert system.reassurance is not None
        for publisher in (system.lc_scheduler, system.be_scheduler,
                          system.reassurance, system.manager):
            assert publisher.emitter is observed

        # same system, observability off
        system.config.runner.observe = False
        metrics = system.run(trace)
        assert metrics.lc_arrived > 0
        runner = system.last_runner
        assert runner.bus is None
        for publisher in (system.lc_scheduler, system.be_scheduler,
                          system.reassurance, system.manager):
            assert publisher.emitter is runner.emitter
            assert not publisher.emitter.enabled


class TestBERequeueDropCap:
    def _runner_and_request(self, **runner_kwargs):
        system = small_system(observe=True, **runner_kwargs)
        runner = build_runner(system, [])
        be_spec = next(s for s in system.catalog
                       if s.kind is ServiceKind.BE)
        request = ServiceRequest(spec=be_spec, origin_cluster=0,
                                 arrival_ms=0.0)
        return runner, request

    def test_request_over_cap_dropped_exactly_once(self):
        runner, request = self._runner_and_request()
        ctx = runner.ctx
        cap = runner.config.max_be_reschedules
        request.reschedules = cap  # the next requeue attempt exceeds it
        queue_before = len(runner.system.cluster(0).be_queue)

        requeue_evicted(ctx, request, now_ms=100.0)

        assert runner.dropped_be == 1
        # not silently requeued after the drop
        assert len(runner.system.cluster(0).be_queue) == queue_before
        drops = runner.bus.events(RequestDropped)
        assert len(drops) == 1
        assert drops[0].request_id == request.request_id
        assert drops[0].reschedules == cap + 1
        assert runner.bus.count(RequestRequeued) == 0

    def test_request_under_cap_requeued_not_dropped(self):
        runner, request = self._runner_and_request()
        ctx = runner.ctx
        request.reschedules = runner.config.max_be_reschedules - 1

        requeue_evicted(ctx, request, now_ms=100.0)

        assert runner.dropped_be == 0
        assert request in runner.system.cluster(0).be_queue
        assert runner.bus.count(RequestDropped) == 0
        assert runner.bus.count(RequestRequeued) == 1

    def test_requeue_disabled_drops_immediately(self):
        runner, request = self._runner_and_request(requeue_evicted_be=False)
        requeue_evicted(runner.ctx, request, now_ms=50.0)
        assert runner.dropped_be == 1
        assert runner.bus.count(RequestDropped) == 1


class TestTraceRemap:
    def _remap_trace(self, catalog):
        lc = next(s for s in catalog if s.is_lc)
        rows = []
        for i in range(6):
            # cluster 5 does not exist in a 2-cluster topology
            cluster = 5 if i % 2 else 0
            rows.append(TraceRecord(
                time_ms=10.0 * i, cluster_id=cluster, service=lc.name,
                kind=lc.kind, cpu=1.0, memory=1.0,
            ))
        return rows

    def test_remapped_arrivals_counted_and_warned_once(self, caplog):
        system = small_system(duration_ms=500.0)
        trace = self._remap_trace(system.catalog)
        with caplog.at_level(logging.WARNING, logger="repro.sim.pipeline"):
            metrics = system.run(trace)
        assert metrics.trace_remapped == 3
        assert metrics.lc_arrived == 6  # remapped requests still arrive
        warnings = [r for r in caplog.records
                    if "remapping" in r.getMessage()]
        assert len(warnings) == 1

    def test_clean_trace_reports_zero(self):
        system = small_system(duration_ms=500.0)
        trace = small_trace(duration_ms=500.0)
        metrics = system.run(trace)
        assert metrics.trace_remapped == 0
