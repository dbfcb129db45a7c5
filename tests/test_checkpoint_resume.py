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

import copy
import copyreg
import functools
import io
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import TangoConfig, TangoSystem
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import TopologyConfig
from repro.core.state_storage import SystemSnapshot
from repro.hrm.qos import QoSDetector
from repro.hrm.reassurance import ReassuranceMechanism
from repro.metrics.report import load_metrics
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    RunnerCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.failures import FailureConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.spec import ServiceKind, default_catalog
from repro.workloads.trace import SyntheticTrace, TraceConfig

DURATION_MS = 6_000.0
#: mid-run, not period-aligned: the collector holds a partial period and
#: requests are in flight, so a shallow checkpoint would diverge.
CHECKPOINT_MS = 2_775.0
#: one tick after the 2 700 ms refresh (period 100 ms): the resumed leg's
#: first tick reads the restored snapshot and its topology.
OFF_REFRESH_MS = 2_725.0


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


def four_field_state(vector: ResourceVector) -> dict:
    """A vector's pickled state as builds tracking four dimensions wrote it."""
    return {
        "cpu": vector.cpu,
        "memory": vector.memory,
        "bandwidth": 1000.0,
        "disk": 64 * 1024.0,
    }


def four_field_vector(cpu: float, memory: float) -> ResourceVector:
    vector = object.__new__(ResourceVector)
    vector.__dict__.update(four_field_state(ResourceVector(cpu, memory)))
    return vector


class FourFieldPickler(pickle.Pickler):
    """Pickles every ResourceVector with ``bandwidth`` and ``disk`` in its
    state, as builds that tracked four dimensions did."""

    vectors = 0

    def reducer_override(self, obj):
        if type(obj) is ResourceVector:
            self.vectors += 1
            return copyreg.__newobj__, (ResourceVector,), four_field_state(obj)
        return NotImplemented


def straight_vs_resumed(factory, seed, at_ms=CHECKPOINT_MS, **kwargs):
    """Fingerprints of (straight run, checkpoint-at-t-then-resume run)."""
    straight_system, trace = build(factory, seed, **kwargs)
    straight = fingerprint(straight_system.run(trace))

    leg1_system, _ = build(factory, seed, **kwargs)
    leg1_system.run(trace, until_ms=at_ms)
    checkpoint = leg1_system.last_runner.checkpoint()

    leg2_system, _ = build(factory, seed, **kwargs)
    resumed = fingerprint(leg2_system.resume(trace, checkpoint))
    return straight, resumed


class TestResumeFingerprintParity:
    """checkpoint(t) + resume == straight run, bit for bit."""

    @pytest.mark.parametrize(
        "seed, at_ms",
        [(1, CHECKPOINT_MS), (7, CHECKPOINT_MS), (1, OFF_REFRESH_MS), (7, OFF_REFRESH_MS)],
        ids=["1", "7", "1-2725", "7-2725"],
    )
    def test_tango(self, seed, at_ms):
        straight, resumed = straight_vs_resumed(TangoConfig.tango, seed, at_ms)
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

    @pytest.mark.parametrize("at_ms", [CHECKPOINT_MS, OFF_REFRESH_MS], ids=["2775", "2725"])
    def test_dsaco_shared_scheduler(self, at_ms):
        # DSACO serves both roles through one object: the checkpoint must
        # snapshot it once, and restore must keep the sharing intact.
        straight, resumed = straight_vs_resumed(TangoConfig.dsaco, 2, at_ms)
        assert resumed == straight

    @pytest.mark.parametrize(
        "observe, at_ms",
        [
            (False, CHECKPOINT_MS),
            (True, CHECKPOINT_MS),
            (False, OFF_REFRESH_MS),
            (True, OFF_REFRESH_MS),
        ],
        ids=["False", "True", "False-2725", "True-2725"],
    )
    def test_with_failure_injection(self, observe, at_ms):
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
            TangoConfig.tango, 4, at_ms, observe=observe, failures=failures
        )
        assert resumed == straight

    def test_tango_resumes_adjusted_minima(self):
        # the checkpoint lands after re-assurance has moved some minima, so
        # the resumed leg must rebuild them from the checkpointed mapping
        straight_system, trace = build(TangoConfig.tango, 1)
        straight = fingerprint(straight_system.run(trace))

        leg1_system, _ = build(TangoConfig.tango, 1)
        leg1_system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = leg1_system.last_runner.checkpoint()
        adjusted = checkpoint.state["components"]["reassurance"]["min_resources"]
        assert adjusted

        leg2_system, _ = build(TangoConfig.tango, 1)
        resumed = fingerprint(leg2_system.resume(trace, checkpoint))
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


class TestStorageState:
    def test_pre_view_snapshot_resumes(self):
        """A storage state whose snapshot was pickled by an older build,
        with its name/cluster indexes and without the view memo, resumes
        to the straight-run fingerprint."""
        straight_system, trace = build(TangoConfig.tango, 1)
        straight = fingerprint(straight_system.run(trace))

        leg1_system, _ = build(TangoConfig.tango, 1)
        leg1_system.run(trace, until_ms=OFF_REFRESH_MS)
        checkpoint = leg1_system.last_runner.checkpoint()
        storage = checkpoint.state["components"]["storage"]
        current = storage["snapshot"]
        by_cluster = {}
        for n in current.nodes:
            by_cluster.setdefault(n.cluster_id, []).append(n)
        old = object.__new__(SystemSnapshot)
        old.__dict__.update(
            time_ms=current.time_ms,
            nodes=current.nodes,
            delay_ms=current.delay_ms,
            central_cluster_id=current.central_cluster_id,
            _by_name={n.name: n for n in current.nodes},
            _by_cluster=by_cluster,
            _nodes_of_cache={},
        )
        assert storage["last_refresh_ms"] == 2_700.0
        storage["snapshot"] = old

        leg2_system, _ = build(TangoConfig.tango, 1)
        resumed = fingerprint(leg2_system.resume(trace, checkpoint))
        assert resumed == straight


class TestRetiredStateKeys:
    def test_tail_memo_and_dss_lc_rng_are_ignored(self):
        """A detector state carrying the retired ``tail_cache`` memo and a
        DSS-LC state carrying the retired scheduler-wide ``rng``, as older
        builds wrote them, resume to the straight-run fingerprint.  The
        memo holds wrong tails, so a restore that trusted it would drift."""
        straight_system, trace = build(TangoConfig.tango, 1)
        straight = fingerprint(straight_system.run(trace))

        leg1_system, _ = build(TangoConfig.tango, 1)
        leg1_system.run(trace, until_ms=OFF_REFRESH_MS)
        checkpoint = leg1_system.last_runner.checkpoint()
        components = checkpoint.state["components"]
        detector = components["detector"]
        assert "tail_cache" not in detector
        detector["tail_cache"] = {key: {95.0: 1e6} for key in detector["samples"]}
        assert "rng" not in components["lc_scheduler"]
        components["lc_scheduler"]["rng"] = np.random.default_rng(
            0
        ).bit_generator.state

        leg2_system, _ = build(TangoConfig.tango, 1)
        resumed = fingerprint(leg2_system.resume(trace, checkpoint))
        assert resumed == straight

    def test_four_field_vectors_are_ignored(self):
        """A checkpoint whose every ResourceVector carries ``bandwidth`` and
        ``disk`` in its pickled state, as builds tracking four dimensions
        wrote them, resumes to the straight-run fingerprint."""
        straight_system, trace = build(TangoConfig.tango, 1)
        straight = fingerprint(straight_system.run(trace))

        leg1_system, _ = build(TangoConfig.tango, 1)
        leg1_system.run(trace, until_ms=OFF_REFRESH_MS)
        buf = io.BytesIO()
        pickler = FourFieldPickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dump(leg1_system.last_runner.checkpoint())
        assert pickler.vectors > 0
        checkpoint = pickle.loads(buf.getvalue())

        leg2_system, _ = build(TangoConfig.tango, 1)
        resumed = fingerprint(leg2_system.resume(trace, checkpoint))
        assert resumed == straight


class TestNestedBEState:
    @pytest.mark.parametrize("policy", ["k8s-native", "load-greedy"])
    def test_inner_nested_be_state_resumes(self, policy):
        """Older builds wrapped a dual-role baseline serving the BE role and
        checkpointed its state under ``"inner"``; such a checkpoint resumes
        to the straight-run fingerprint."""
        factory = functools.partial(TangoConfig.k8s_native, be_policy=policy)
        straight_system, trace = build(factory, 3)
        straight = fingerprint(straight_system.run(trace))

        leg1_system, _ = build(factory, 3)
        leg1_system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = leg1_system.last_runner.checkpoint()
        components = checkpoint.state["components"]
        components["be_scheduler"] = {"inner": components["be_scheduler"]}

        leg2_system, _ = build(factory, 3)
        assert fingerprint(leg2_system.resume(trace, checkpoint)) == straight
        assert (
            leg2_system.be_scheduler.snapshot_state()
            == straight_system.be_scheduler.snapshot_state()
        )


class TestSolverCounters:
    def test_dss_lc_solver_stats_survive_resume(self):
        """The DSS-LC solve and augmentation counters round-trip; only the
        wall-clock decision latency may differ between the legs.  A state
        written before the counters were checkpointed still resumes."""
        straight_system, trace = build(TangoConfig.tango, 1)
        straight_metrics = fingerprint(straight_system.run(trace))
        straight = straight_system.lc_scheduler.solver_stats()

        leg1_system, _ = build(TangoConfig.tango, 1)
        leg1_system.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = leg1_system.last_runner.checkpoint()
        old = copy.deepcopy(checkpoint)

        leg2_system, _ = build(TangoConfig.tango, 1)
        leg2_system.resume(trace, checkpoint)
        resumed = leg2_system.lc_scheduler.solver_stats()
        del straight["mean_decision_latency_ms"], resumed["mean_decision_latency_ms"]
        assert resumed == straight

        state = old.state["components"]["lc_scheduler"]
        del state["solves"], state["augmentations"]
        leg3_system, _ = build(TangoConfig.tango, 1)
        assert fingerprint(leg3_system.resume(trace, old)) == straight_metrics


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


class TestReassuranceState:
    def test_pre_column_state_restores(self):
        """A re-assurance state as older builds wrote it, still carrying
        the retired ``version`` counter and four-field vectors, restores to
        the same minima."""
        lc = [s for s in default_catalog() if s.kind is ServiceKind.LC]
        adjusted = {
            ("w0", lc[0].name): four_field_vector(0.77, 788.48),
            ("w3", lc[0].name): four_field_vector(0.672, 688.128),
            ("w3", lc[1].name): four_field_vector(0.5775, 591.36),
        }
        state = {
            "min_resources": adjusted,
            "last_run_ms": 2_700.0,
            "adjustments": {"poor": 2, "excellent": 1, "stable": 40},
            "version": 3,
            "levels": {("w0", lc[0].name): "poor"},
        }
        mech = ReassuranceMechanism(QoSDetector())
        mech.restore_state(copy.deepcopy(state))
        for name in ("w0", "w1", "w3"):
            for spec in lc:
                assert mech.min_resources(name, spec) == adjusted.get(
                    (name, spec.name), spec.min_resources
                )
        snap = mech.snapshot_state()
        assert snap["min_resources"] == adjusted
        assert "version" not in snap
        assert snap["levels"] == state["levels"]


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
