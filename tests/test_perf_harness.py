"""Tests for the stage timer (``ProfiledPipeline``) and ``repro bench``."""

from __future__ import annotations

import json
import time

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.obs.events import StageProfile
from repro.perf.bench import run_bench
from repro.sim.pipeline import ProfiledPipeline, Stage, TickPipeline
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig


class _Sleep(Stage):
    name = "sleep"

    def run(self, ctx) -> None:
        time.sleep(0.002)


def small_system(**runner_kwargs):
    config = TangoConfig.tango(
        topology=TopologyConfig(n_clusters=2, workers_per_cluster=2, seed=0),
        runner=RunnerConfig(duration_ms=1_000.0, **runner_kwargs),
    )
    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=2, duration_ms=1_000.0, seed=0,
            lc_peak_rps=10.0, be_peak_rps=4.0,
        )
    ).generate()
    return TangoSystem(config), trace


class TestProfiledPipeline:
    def test_times_each_stage_and_accumulates(self):
        profiled = ProfiledPipeline(TickPipeline([_Sleep()]))
        profiled.run_tick(None)
        first = profiled.stage_ms()["sleep"]
        profiled.run_tick(None)
        assert first >= 2.0
        assert profiled.stage_ms()["sleep"] >= first + 2.0

    def test_runner_totals_accumulate_across_runs(self):
        system, trace = small_system(profile=True)
        system.run(trace, until_ms=500.0)
        runner = system.last_runner
        profiler = runner.profiler
        half = dict(profiler.totals_s)
        runner.run()
        assert runner.profiler is profiler
        assert set(profiler.totals_s) == set(half)
        assert all(profiler.totals_s[s] > half[s] for s in half)

    def test_registry_and_bus_carry_the_profiler_totals(self):
        # the stage_wall_ms gauges and the StageProfile event are the same
        # numbers as runner.profiler.stage_ms(), not a second measurement.
        system, trace = small_system(observe=True, profile=True)
        system.run(trace)
        runner = system.last_runner
        stage_ms = runner.profiler.stage_ms()
        gauge = runner.hub.registry.get("stage_wall_ms")
        gauges = {dict(key)["stage"]: v for _, key, v in gauge.samples()}
        assert gauges == stage_ms
        [event] = runner.bus.events(StageProfile)
        assert event.stage_ms == stage_ms


class TestRunBench:
    def test_small_workload_produces_stage_breakdown(self):
        result = run_bench(
            {"clusters": 2, "duration_ms": 500.0, "lc_peak_rps": 10.0,
             "be_peak_rps": 3.0},
        )
        assert result["ticks"] == 20
        assert result["ticks_per_sec"] > 0
        for stage in ("lc", "be", "step", "refresh"):
            assert stage in result["stage_ms"]
        assert result["solver"]["solves"] >= 0

    def test_out_writes_the_printed_json(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bench.json"
        rc = main([
            "bench", "--json", "--out", str(path),
            "--duration", "0.5", "--clusters", "2",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert path.read_text() == printed
        assert json.loads(printed)["ticks"] == 20
