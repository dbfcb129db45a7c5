"""Self-test of the benchmark, at tiny simulated durations.

    python3 -m pytest perfbench -q

Checks that BENCHMARK.json and the code declare the same metrics, that every
run emits each of them with its unit, that the tracer puts back every
attribute it wraps, and that ``standard`` and ``scale-lc`` stay in the
regime where the paper's claims can be tested.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import TARGETS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, build_config, build_trace  # noqa: E402

run.import_repro()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def test_benchmark_json_declares_the_emitted_metrics():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert layers == run.per_layer_names()
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace),
            "--duration-ms", "400",
        ],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def _originals():
    from repro.sim.pipeline import TickPipeline

    patched = {t.key: vars(LayerTracer.namespace(t))[t.attr] for t in TARGETS}
    patched["tick_timer"] = vars(TickPipeline)["run_tick"]
    return patched


def test_tracer_restores_every_wrapped_attribute():
    before = _originals()
    tracer = LayerTracer()
    workload = WORKLOADS["churn"]  # the only workload reaching every target
    probe = run.HostProbe()
    sim = run.simulate(workload, (7, 7, 7), 400.0, "reference", probe, tracer)
    assert not sim.problems
    assert sum(tracer.calls.values()) > 0
    untraced = run.simulate(workload, (7, 7, 7), 400.0, "reference", probe)
    assert len(untraced.tick_s) == untraced.ticks
    after = _originals()
    assert all(after[key] is before[key] for key in before)

    # an exception inside the traced region restores too
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert _originals()["node.step"] is not before["node.step"]
            raise RuntimeError("boom")
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_observes_and_never_steers():
    workload = WORKLOADS["standard"]
    probe = run.HostProbe()
    plain = run.simulate(workload, (3, 3, 3), 600.0, "reference", probe)
    traced = run.simulate(
        workload, (3, 3, 3), 600.0, "reference", probe, LayerTracer()
    )
    assert traced.fingerprint == plain.fingerprint


@pytest.mark.parametrize("name", ["standard", "scale-lc"])
def test_regime_guard_qos_stays_above_half_at_the_default_seed(name):
    # At SCALE_WORKLOAD's 250 ms tick φ is 0 (see workloads.py); these
    # workloads must stay where the paper's QoS claims can be tested.
    from repro.core.tango import TangoSystem

    workload = WORKLOADS[name]
    seed = workload.default_seed
    trace = build_trace(workload, seed, workload.duration_ms)
    system = TangoSystem(build_config(workload, seed, seed, workload.duration_ms))
    metrics = system.run(trace)
    assert metrics.qos_satisfaction_rate > 0.5
