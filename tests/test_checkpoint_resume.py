"""Checkpoint/restore across every stateful layer.

The hard guarantee under test: for any configuration, a straight run and a
run that is checkpointed at tick t, torn down, rebuilt from scratch, and
resumed produce **identical** RunMetrics fingerprints — same counters,
same per-period series to the last bit.  That only holds if *every* layer
(clock, queues, trace cursor, in-flight deliveries, cgroup trees, D-VPA
state, re-assurance levels, scheduler agents and RNGs, failure-injector
schedule, partially filled collector periods, the global request-id
allocator) round-trips through the checkpoint.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.metrics.report import load_metrics
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    RunnerCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.failures import FailureConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

DURATION_MS = 6_000.0
#: mid-run, not period-aligned: the collector holds a partial period and
#: requests are in flight, so a shallow checkpoint would diverge.
CHECKPOINT_MS = 2_775.0


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


def build(factory, seed, *, observe=False, failures=None, clusters=3, workers=3):
    config = factory(
        topology=TopologyConfig(
            n_clusters=clusters, workers_per_cluster=workers, seed=seed
        ),
        runner=RunnerConfig(
            duration_ms=DURATION_MS, observe=observe, failures=failures
        ),
    )
    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=clusters,
            duration_ms=DURATION_MS,
            seed=seed,
            lc_peak_rps=15.0,
            be_peak_rps=5.0,
        )
    ).generate()
    return TangoSystem(config), trace


def straight_vs_resumed(factory, seed, **kwargs):
    """Fingerprints of (straight run, checkpoint-at-t-then-resume run)."""
    straight_system, trace = build(factory, seed, **kwargs)
    straight = fingerprint(straight_system.run(trace))

    leg1_system, _ = build(factory, seed, **kwargs)
    leg1_system.run(trace, until_ms=CHECKPOINT_MS)
    checkpoint = leg1_system.last_runner.checkpoint()

    leg2_system, _ = build(factory, seed, **kwargs)
    resumed = fingerprint(leg2_system.resume(trace, checkpoint))
    return straight, resumed


class TestResumeFingerprintParity:
    """checkpoint(t) + resume == straight run, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_tango(self, seed):
        straight, resumed = straight_vs_resumed(TangoConfig.tango, seed)
        assert resumed == straight

    @pytest.mark.parametrize("seed", [1, 7])
    def test_tango_observed(self, seed):
        straight, resumed = straight_vs_resumed(
            TangoConfig.tango, seed, observe=True
        )
        assert resumed == straight

    def test_k8s_native(self):
        straight, resumed = straight_vs_resumed(TangoConfig.k8s_native, 3)
        assert resumed == straight

    def test_ceres(self):
        straight, resumed = straight_vs_resumed(TangoConfig.ceres, 3)
        assert resumed == straight

    def test_dsaco_shared_scheduler(self):
        # DSACO serves both roles through one object: the checkpoint must
        # snapshot it once, and restore must keep the sharing intact.
        straight, resumed = straight_vs_resumed(TangoConfig.dsaco, 2)
        assert resumed == straight

    @pytest.mark.parametrize("observe", [False, True])
    def test_with_failure_injection(self, observe):
        # crashes + partitions: injector RNG position and schedule, down
        # sets, and crash-displaced requests must all round-trip.
        failures = FailureConfig(
            node_mtbf_ms=2_000.0,
            node_downtime_ms=800.0,
            partition_mtbf_ms=2_500.0,
            partition_duration_ms=600.0,
            seed=5,
        )
        straight, resumed = straight_vs_resumed(
            TangoConfig.tango, 4, observe=observe, failures=failures
        )
        assert resumed == straight

    def test_observe_flag_may_differ_across_legs(self):
        # the checkpoint carries no observability state, so a run recorded
        # with observe=False can be resumed with observe=True and still
        # land on the same metrics.
        straight_system, trace = build(TangoConfig.tango, 1)
        straight = fingerprint(straight_system.run(trace))

        leg1_system, _ = build(TangoConfig.tango, 1)
        leg1_system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = leg1_system.last_runner.checkpoint()

        leg2_system, _ = build(TangoConfig.tango, 1, observe=True)
        resumed = fingerprint(leg2_system.resume(trace, checkpoint))
        assert resumed == straight


class TestForkSemantics:
    def test_one_checkpoint_resumes_twice_identically(self):
        system, trace = build(TangoConfig.tango, 1)
        system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = system.last_runner.checkpoint()

        runs = []
        for _ in range(2):
            fork_system, _ = build(TangoConfig.tango, 1)
            runs.append(fingerprint(fork_system.resume(trace, checkpoint)))
        assert runs[0] == runs[1]

    def test_checkpoint_does_not_alias_live_state(self):
        # continuing the checkpointed run must not mutate the checkpoint
        system, trace = build(TangoConfig.tango, 1)
        system.run(trace, until_ms=CHECKPOINT_MS)
        runner = system.last_runner
        checkpoint = runner.checkpoint()
        cursor_at_t = checkpoint.state["runner"]["trace_cursor"]
        clock_at_t = checkpoint.state["clock"]["now_ms"]
        runner.run()  # continue to the end
        assert checkpoint.state["runner"]["trace_cursor"] == cursor_at_t
        assert checkpoint.state["clock"]["now_ms"] == clock_at_t

    def test_fork_is_independent(self):
        system, trace = build(TangoConfig.tango, 1)
        system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = system.last_runner.checkpoint()
        fork = checkpoint.fork()
        assert fork.state["runner"] == checkpoint.state["runner"]
        assert fork.state["clock"] == checkpoint.state["clock"]
        fork.state["runner"]["trace_cursor"] = -1
        assert checkpoint.state["runner"]["trace_cursor"] != -1


class TestCheckpointValidation:
    def test_save_load_round_trip(self, tmp_path):
        system, trace = build(TangoConfig.tango, 1)
        system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = system.last_runner.checkpoint()
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.version == CHECKPOINT_VERSION
        # plain sub-dicts compare directly; components hold objects
        # without __eq__, so compare their layout
        assert loaded.state["runner"] == checkpoint.state["runner"]
        assert loaded.state["clock"] == checkpoint.state["clock"]
        assert set(loaded.state["components"]) == set(
            checkpoint.state["components"]
        )

    def test_version_mismatch_rejected(self):
        system, trace = build(TangoConfig.tango, 1)
        system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = system.last_runner.checkpoint()
        bad = RunnerCheckpoint(state=checkpoint.state, version=999)
        fresh_system, _ = build(TangoConfig.tango, 1)
        with pytest.raises(ValueError, match="version"):
            fresh_system.resume(trace, bad)

    def test_mismatched_stack_rejected(self):
        system, trace = build(TangoConfig.tango, 1)
        system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = system.last_runner.checkpoint()
        other_system, _ = build(TangoConfig.ceres, 1)
        with pytest.raises(ValueError, match="component"):
            other_system.resume(trace, checkpoint)

    def test_mismatched_trace_rejected(self):
        system, trace = build(TangoConfig.tango, 1)
        system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = system.last_runner.checkpoint()
        fresh_system, _ = build(TangoConfig.tango, 1)
        with pytest.raises(ValueError, match="trace"):
            fresh_system.resume(trace[: len(trace) // 2], checkpoint)


class TestCli:
    def test_checkpoint_resume_matches_straight_run(self, tmp_path, capsys):
        from repro.cli import main

        common = [
            "--clusters", "2", "--workers", "2", "--duration", "4",
            "--seed", "3",
        ]
        rc = main(["run", "--stack", "tango", *common])
        assert rc == 0
        straight = capsys.readouterr().out

        ckpt = str(tmp_path / "cli.ckpt")
        rc = main([
            "checkpoint", "--stack", "tango", *common, "--at", "2",
            "--out", ckpt,
        ])
        assert rc == 0
        capsys.readouterr()

        rc = main(["resume", ckpt])
        assert rc == 0
        resumed = capsys.readouterr().out
        # resume prints a provenance line, then the identical summary
        assert resumed.splitlines()[1:] == straight.splitlines()

    def test_resume_ignores_retired_execution_meta(self, tmp_path):
        """Checkpoints written by older builds carry ``shards`` and
        ``parallel_backend`` in their meta; they must still resume through
        ``python -m repro resume`` to the straight-run metrics."""
        from repro.cli import main

        common = [
            "--clusters", "2", "--workers", "2", "--duration", "4",
            "--seed", "5",
        ]
        straight_json = str(tmp_path / "straight.json")
        assert main(["run", "--stack", "tango", *common,
                     "--out", straight_json]) == 0
        ckpt = str(tmp_path / "old.ckpt")
        assert main(["checkpoint", "--stack", "tango", *common,
                     "--at", "2", "--out", ckpt]) == 0
        checkpoint = load_checkpoint(ckpt)
        checkpoint.meta.update(shards=2, parallel_backend="process")
        save_checkpoint(checkpoint, ckpt)

        resumed_json = str(tmp_path / "resumed.json")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "resume", ckpt,
             "--out", resumed_json],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert fingerprint(load_metrics(resumed_json)) == fingerprint(
            load_metrics(straight_json)
        )
