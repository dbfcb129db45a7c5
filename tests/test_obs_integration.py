"""End-to-end tests for the observability subsystem on real runs.

The core guarantee: with ``RunnerConfig(observe=True)`` the runner still
feeds the collector directly and only tees each lifecycle event onto the
bus — so RunMetrics fingerprints must stay bit-identical to the seed
recordings, while the request traces and the metric registry both
populate from the same event stream.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.metrics.fingerprint import metrics_fingerprint
from repro.obs.emitter import NULL_EMITTER
from repro.obs.events import (
    DispatchRound,
    PeriodSampled,
    RequestEvicted,
    RequestScheduled,
)
from repro.scheduling.gnn_sac import GNNSACScheduler
from repro.sim.failures import FailureConfig
from repro.sim.runner import RunnerConfig, SimulationRunner
from repro.workloads.trace import SyntheticTrace, TraceConfig

DATA = os.path.join(os.path.dirname(__file__), "data", "seed_metrics.json")


def fingerprint(metrics) -> dict:
    # mirrors tests/test_perf_determinism.py — the seed fingerprint shape
    return {
        "lc_arrived": metrics.lc_arrived,
        "lc_completed": metrics.lc_completed,
        "lc_satisfied": metrics.lc_satisfied,
        "lc_abandoned": metrics.lc_abandoned,
        "be_arrived": metrics.be_arrived,
        "be_completed": metrics.be_completed,
        "be_evictions": metrics.be_evictions,
        "lc_latency_sum": round(sum(metrics.lc_latencies_ms), 6),
        "utilization": [round(u, 12) for u in metrics.utilization],
        "qos_rate_per_period": [round(r, 12) for r in metrics.qos_rate_per_period],
        "per_service": {k: list(v) for k, v in sorted(metrics.per_service.items())},
    }


def observed_run(factory=TangoConfig.tango, *, clusters=3, workers=3,
                 duration=8_000.0, seed=1, lc=15.0, be=5.0, observe=True,
                 **runner_kwargs):
    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=clusters, duration_ms=duration, seed=seed,
            lc_peak_rps=lc, be_peak_rps=be,
        )
    ).generate()
    cfg = factory(
        topology=TopologyConfig(
            n_clusters=clusters, workers_per_cluster=workers, seed=seed
        ),
        runner=RunnerConfig(
            duration_ms=duration, observe=observe, **runner_kwargs
        ),
    )
    system = TangoSystem(cfg)
    metrics = system.run(trace)
    return system, metrics


@pytest.fixture(scope="module")
def recorded():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tango_run():
    """One shared observed tango run (module-scoped: runs take seconds)."""
    return observed_run()


class TestDeterminismParity:
    """Observability on must not perturb scheduling outcomes."""

    def test_tango_fingerprint_unchanged(self, recorded, tango_run):
        _, metrics = tango_run
        assert fingerprint(metrics) == recorded["tango_small"]

    def test_k8s_native_fingerprint_unchanged(self, recorded):
        _, metrics = observed_run(TangoConfig.k8s_native)
        assert fingerprint(metrics) == recorded["k8s_native_small"]


class TestModeParity:
    """One run per execution mode, with crashes: the collector sees the
    same call sequence whether or not a bus or the strict checker is
    attached, so every fingerprint is identical."""

    MODES = {
        "plain": {"observe": False},
        "observe": {},
        "strict-invariants": {"observe": False, "check_invariants": True},
        "observe+strict-invariants": {"check_invariants": True},
    }

    def test_fingerprint_identical_across_modes(self):
        runs = {
            mode: observed_run(
                failures=FailureConfig(node_mtbf_ms=1_500.0), **kwargs
            )
            for mode, kwargs in self.MODES.items()
        }
        prints = {
            mode: metrics_fingerprint(metrics)
            for mode, (_, metrics) in runs.items()
        }
        for mode, fp in prints.items():
            assert fp == prints["plain"], mode
        # both eviction causes ran, so the preemption-only filter was
        # exercised on the direct and the bus side alike
        system, metrics = runs["observe"]
        evicted = system.last_runner.hub.registry.get(
            "requests_evicted_total"
        )
        assert metrics.be_evictions > 0
        assert evicted.value(cause="preemption") == metrics.be_evictions
        assert evicted.value(cause="crash") > 0
        for mode in ("strict-invariants", "observe+strict-invariants"):
            assert runs[mode][1].invariant_violations == 0


class TestTraces:
    def test_every_completed_request_has_full_span_chain(self, tango_run):
        system, metrics = tango_run
        tracer = system.last_runner.hub.tracer
        completed = tracer.completed()
        assert len(completed) == metrics.lc_completed + metrics.be_completed
        required = {"master_queue", "schedule", "ship", "node_queue",
                    "execute", "complete"}
        for trace in completed:
            names = trace.span_names()
            assert names[0] == "master_queue"
            assert names[-1] == "complete"
            assert required.issubset(names), (
                f"request {trace.request_id} missing spans: "
                f"{required - set(names)}"
            )
            assert all(s.end_ms is not None for s in trace.spans)

    def test_trace_jsonl_round_trips(self, tango_run, tmp_path):
        system, _ = tango_run
        tracer = system.last_runner.hub.tracer
        path = tmp_path / "traces.jsonl"
        written = tracer.write_jsonl(str(path), status="completed")
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert written == len(rows) == len(tracer.completed())
        assert all(r["status"] == "completed" for r in rows)


class TestMetricsRegistry:
    def test_counters_agree_with_run_metrics(self, tango_run):
        system, metrics = tango_run
        reg = system.last_runner.hub.registry
        arrived = reg.get("requests_arrived_total")
        assert arrived.value(kind="lc") == metrics.lc_arrived
        assert arrived.value(kind="be") == metrics.be_arrived
        completed = reg.get("requests_completed_total")
        assert completed.value(kind="lc") == metrics.lc_completed
        assert completed.value(kind="be") == metrics.be_completed
        latency = reg.get("lc_latency_ms")
        assert latency.count() == len(metrics.lc_latencies_ms)
        assert latency.sum() == pytest.approx(sum(metrics.lc_latencies_ms))

    def test_period_gauges_sampled(self, tango_run):
        system, metrics = tango_run
        hub = system.last_runner.hub
        assert hub.periods == len(metrics.utilization)
        assert hub.bus.count(PeriodSampled) == hub.periods
        util = hub.registry.get("utilization")
        assert util is not None
        # the gauges hold the collector's last sample, exactly
        assert util.value(kind="system") == metrics.utilization[-1]
        assert util.value(kind="lc") == metrics.lc_utilization[-1]
        assert util.value(kind="be") == metrics.be_utilization[-1]
        assert hub.registry.get("node_queue_depth") is not None

    def test_period_events_equal_run_metrics(self):
        """Every PeriodSampled carries exactly the collector's sample of
        its period, so the event stream and RunMetrics agree to the bit."""
        system, metrics = observed_run(
            clusters=4, workers=5, obs_ring_capacity=1 << 20
        )
        events = system.last_runner.hub.bus.events(PeriodSampled)
        assert len(events) == len(metrics.utilization)
        assert [e.utilization for e in events] == metrics.utilization
        assert [e.lc_utilization for e in events] == metrics.lc_utilization
        assert [e.be_utilization for e in events] == metrics.be_utilization

    def test_prometheus_export_parses(self, tango_run):
        system, _ = tango_run
        text = system.last_runner.hub.registry.to_prometheus()
        typed = set()
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# TYPE"):
                _, _, name, mtype = line.split(" ")
                assert mtype in ("counter", "gauge", "histogram")
                typed.add(name)
                continue
            if line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            if value_part != "+Inf":
                float(value_part)
            base = name_part.split("{", 1)[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
                    break
            assert base in typed, f"sample {base} missing a # TYPE header"
        assert "tango_requests_arrived_total" in typed
        assert "tango_lc_latency_ms" in typed


class TestBusTraffic:
    def test_scheduler_dispatch_rounds_published(self, tango_run):
        system, _ = tango_run
        bus = system.last_runner.hub.bus
        rounds = bus.events(DispatchRound)
        schedulers = {ev.scheduler for ev in rounds}
        assert "dss-lc" in schedulers
        assert "dcg-be" in schedulers
        assert all(ev.assigned <= ev.offered for ev in rounds)

    def test_gnn_sac_publishes_its_own_rounds(self):
        """GNN-SAC runs DCG-BE's dispatch loop, so every BE round with work
        and nodes publishes one ``DispatchRound`` labelled ``gnn-sac``."""
        trace = SyntheticTrace(
            TraceConfig(n_clusters=2, duration_ms=4_000.0, seed=1,
                        lc_peak_rps=10.0, be_peak_rps=5.0)
        ).generate()
        system = TangoSystem(
            TangoConfig.tango(
                be_policy="gnn-sac",
                topology=TopologyConfig(
                    n_clusters=2, workers_per_cluster=2, seed=1
                ),
                runner=RunnerConfig(duration_ms=4_000.0, observe=True),
            )
        )
        scheduler = system.be_scheduler
        dispatch_be = scheduler.dispatch_be
        assigned = []

        def counted(requests, snapshot, now_ms):
            out = dispatch_be(requests, snapshot, now_ms)
            if requests and snapshot.nodes:
                assigned.append(len(out))
            return out

        scheduler.dispatch_be = counted
        system.run(trace)
        hub = system.last_runner.hub
        rounds = hub.registry.get("dispatch_rounds_total")
        assert rounds.value(scheduler="gnn-sac") == len(assigned) > 0
        assert rounds.value(scheduler="dcg-be") == 0
        published = [
            ev for ev in hub.bus.events(DispatchRound)
            if ev.scheduler == "gnn-sac"
        ]
        assert [ev.assigned for ev in published] == assigned[-len(published):]

    def test_standalone_gnn_sac_has_an_emitter(self):
        scheduler = GNNSACScheduler()
        assert scheduler.emitter is NULL_EMITTER
        assert scheduler.name == "gnn-sac"

    def test_hrm_events_flow(self, tango_run):
        system, _ = tango_run
        counts = system.last_runner.hub.bus.counts()
        # tango's HRM resizes LC allocations constantly on a loaded system
        assert counts.get("hrm.dvpa_resized", 0) > 0

    def test_recorder_fed_through_bridge(self, tango_run):
        system, metrics = tango_run
        bus = system.last_runner.hub.bus
        # ``count`` totals are kept for every publish, not just what the
        # ring still holds. One RequestScheduled per shipped assignment.
        assert bus.count(RequestScheduled) >= metrics.lc_completed
        assert bus.events(RequestScheduled)  # entries are held in the ring

    def test_evictions_on_the_bus(self, tango_run):
        system, metrics = tango_run
        bus = system.last_runner.hub.bus
        # with no failures every RequestEvicted is a preemption, which is
        # what RunMetrics counts
        assert bus.count(RequestEvicted) == metrics.be_evictions > 0


class TestDisabledPath:
    def test_disabled_run_has_no_observability_state(self):
        cfg = TangoConfig.tango(
            topology=TopologyConfig(
                n_clusters=2, workers_per_cluster=2, seed=0
            ),
            runner=RunnerConfig(duration_ms=500.0),
        )
        system = TangoSystem(cfg)
        trace = SyntheticTrace(
            TraceConfig(n_clusters=2, duration_ms=500.0, seed=0)
        ).generate()
        system.run(trace)
        runner = system.last_runner
        assert runner.hub is None and runner.bus is None
        assert system.lc_scheduler.emitter is runner.emitter
        assert not runner.emitter.enabled

    def test_rewire_resets_bus_on_shared_publishers(self):
        """Publishers are reused across runs: a disabled run must not
        inherit the previous run's bus."""
        system, _ = observed_run(clusters=2, workers=2, duration=500.0)
        assert system.lc_scheduler.emitter.enabled
        # building a disabled runner over the same system resets every
        # publisher's emitter
        runner = SimulationRunner(
            system.system, [], system.catalog,
            system.lc_scheduler, system.be_scheduler,
            config=RunnerConfig(duration_ms=500.0),
            state_storage=system.storage,
            reassurance=system.reassurance,
        )
        for publisher in (system.lc_scheduler, system.be_scheduler,
                          system.manager):
            assert publisher.emitter is runner.emitter
            assert not publisher.emitter.enabled


class TestCli:
    def test_trace_command_emits_jsonl(self, capsys):
        from repro.cli import main

        rc = main([
            "trace", "--clusters", "2", "--workers", "2",
            "--duration", "2", "--status", "completed", "--limit", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert 0 < len(rows) <= 5
        for row in rows:
            assert row["status"] == "completed"
            assert [s["name"] for s in row["spans"]][-1] == "complete"

    def test_trace_metrics_out_prom(self, capsys, tmp_path):
        from repro.cli import main

        prom = tmp_path / "m.prom"
        rc = main([
            "trace", "--clusters", "2", "--workers", "2", "--duration", "2",
            "--limit", "1", "--metrics-out", str(prom),
        ])
        assert rc == 0
        text = prom.read_text()
        assert "# TYPE tango_requests_arrived_total counter" in text

    def test_bench_json(self, capsys):
        from repro.cli import main

        rc = main(["bench", "--json", "--duration", "1", "--clusters", "2"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ticks"] > 0
        assert result["ticks_per_sec"] > 0
        assert "stage_ms" in result
