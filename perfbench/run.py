#!/usr/bin/env python3
"""The repository benchmark: four Tango workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload standard --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, each in its own process
    python3 -m pytest perfbench -q            # the benchmark's self-test

One run builds the workload's inputs (see ``workloads.py``) and simulates
them through ``TangoSystem.run`` in whole simulations for ``--seconds`` of
host time: first the ``--seed`` input at half length, then the reference
input at least twice and again while time remains.  Every simulation is
checked, and one that fails a check counts as failed:

* repeated simulations of one input give the identical
  ``metrics_fingerprint`` (traced ones too: the tracer must only observe);
* request conservation: LC completed + abandoned <= arrived, LC satisfied
  <= completed, BE completed + dropped <= arrived;
* no runtime invariant violations (``churn`` runs the checker).

Host times are reported at a reference host speed: a fixed probe timed
after every tick measures how fast the shared host runs (see ``HostProbe``);
the record also prints the raw wall-clock figures.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
the untraced reference simulations; with ``--trace 1`` it carries the
per-layer metrics of ``tracer.py``, from reference simulations that
alternate untraced and traced so the tracing overhead is measured too.
The last line is one JSON object with the keys ``correct``, ``attempted``
(simulations run), ``failed`` (simulations that failed a check) and
``metrics``; the lines before it are the human-readable record, including
each simulation's fingerprint digest and the environment.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the GNN matmuls are small, and BLAS thread pools
# on a few shared cores oversubscribe them (several-fold slower BE stage).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

from tracer import LayerTracer  # noqa: E402
from workloads import WORKLOADS, Workload, build_config, build_trace, input_seeds  # noqa: E402

#: (name, unit, better) of every end-to-end metric; BENCHMARK.json adds bounds.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ticks_per_s", "ticks/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("lc_decision_ms_p50", "ms", "lower"),
    ("lc_decision_ms_p99", "ms", "lower"),
    ("qos_rate", "ratio", "higher"),
    ("lc_latency_ms_p50", "sim_ms", "lower"),
    ("lc_latency_ms_p99", "sim_ms", "lower"),
    ("be_completed", "requests", "higher"),
    ("failed_frac", "ratio", "lower"),
)

#: per-layer metrics computed from run counters rather than wrapped calls.
DERIVED_LAYER: Tuple[Tuple[str, str], ...] = (
    ("dss_lc.assign_ratio", "ratio"),
    ("dss_lc.case2_rounds", "count"),
    ("flow.augmentations", "count"),
    ("dcg_be.decisions", "count"),
    ("dcg_be.nofit_ratio", "ratio"),
    ("nn.encodes_per_decision", "ratio"),
    ("node.step_share", "ratio"),
    ("failures.crashes", "count"),
    ("invariants.violations", "count"),
    ("trace.overhead_frac", "ratio"),
)

#: set-up-only builds before the measured loop (set-up is ~0.1 s; the median
#: over these and every measured build is ``setup_s``).
SETUP_BUILDS = 5

#: the host-speed probe's duration at the reference host speed; host times
#: are reported at this speed (the constant only fixes the scale).
PROBE_REFERENCE_S = 100e-6

#: probes timed right before each set-up build (a build has no ticks).
SETUP_PROBES = 20

#: §7.2: DSS-LC decision latency at 500 nodes on the paper's testbed.
PAPER_DECISION_MS_500 = 1.99


#: per-layer metrics where more is better (useful outcomes); for the rest
#: (time, calls, waste ratios) less is better.
HIGHER_LAYER = {"dss_lc.assigned", "dss_lc.assign_ratio", "dcg_be.decisions"}


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    units = [(n, u) for n, (_, u) in LayerTracer().layer_metrics(1).items()]
    return [
        (name, unit, "higher" if name in HIGHER_LAYER else "lower")
        for name, unit in units + list(DERIVED_LAYER)
    ]


# ---------------------------------------------------------------------- #
# one simulation
# ---------------------------------------------------------------------- #
class HostProbe:
    """A fixed slice of interpreter and small-matrix work, timed to see how
    fast the shared host runs at this moment.

    The benchmark runs on a few cores shared with other tenants, whose load
    moves this process's speed by up to 2x within minutes.  A probe run right
    after every tick sees the same host as that tick, so the ratio of the
    simulation's tick time to the probe time cancels the host's speed while
    keeping every change in the program's own cost: the probe is benchmark
    code and is identical on both sides of any comparison.  Raw wall times
    are printed next to the adjusted ones in the record.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._matmul = np.matmul
        self._a = rng.random((64, 64))
        self._b = rng.random((64, 8))
        self._out = np.empty((64, 8))
        self._table = [0] * 32

    def __call__(self) -> float:
        """Seconds this host takes for the probe's fixed work right now.

        The probe allocates no container objects, so it never triggers the
        cyclic garbage collector (whose pass over the simulator's heap would
        be charged to the probe)."""
        table, matmul, a, b, out = (
            self._table, self._matmul, self._a, self._b, self._out
        )
        start = time.perf_counter()
        for i in range(600):
            table[i & 31] = (table[i & 31] + i) & 0xFFFF
        for _ in range(8):
            matmul(a, b, out=out)
        return time.perf_counter() - start

    def speed(self, probe_s: List[float]) -> float:
        """Factor that takes host times measured next to these probes to
        the reference host speed."""
        return PROBE_REFERENCE_S / statistics.mean(probe_s)


class TickTimer:
    """Host time of every tick, and the probe right after it: one wrapper
    around ``TickPipeline.run_tick`` (ticks take 10-100 ms, the probe
    ~0.1 ms, outside the tick's time)."""

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.tick_s: List[float] = []
        self.probe_s: List[float] = []

    def __enter__(self) -> "TickTimer":
        from repro.sim.pipeline import TickPipeline

        self._original = original = vars(TickPipeline)["run_tick"]
        ticks, probes, probe = self.tick_s, self.probe_s, self.probe
        clock = time.perf_counter

        def run_tick(pipeline, ctx):
            start = clock()
            original(pipeline, ctx)
            ticks.append(clock() - start)
            probes.append(probe())

        TickPipeline.run_tick = run_tick
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim.pipeline import TickPipeline

        TickPipeline.run_tick = self._original


@dataclass
class Sim:
    """Outcome of one ``TangoSystem.run`` of one input."""

    input: str
    traced: bool
    setup_s: float
    wall_s: float
    #: host time of each tick.
    tick_s: List[float]
    #: factor to the reference host speed, for set-up and for the run.
    setup_speed: float
    speed: float
    ticks: int
    workers: int
    metrics: Any
    fingerprint: Dict[str, Any]
    dropped_be: int
    decision_ms: List[float]
    counters: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def build(workload: Workload, seeds: Tuple[int, int, int], duration_ms: float):
    """Set-up: the trace and the system (what ``setup_s`` times)."""
    from repro.core.tango import TangoSystem

    topology_seed, trace_seed, failure_seed = seeds
    trace = build_trace(workload, trace_seed, duration_ms)
    system = TangoSystem(
        build_config(workload, topology_seed, failure_seed, duration_ms)
    )
    return trace, system


def simulate(
    workload: Workload,
    seeds: Tuple[int, int, int],
    duration_ms: float,
    input_name: str,
    probe: HostProbe,
    tracer: Optional[LayerTracer] = None,
) -> Sim:
    from repro.metrics.fingerprint import metrics_fingerprint

    gc.collect()
    timer = TickTimer(probe)
    with timer:
        if tracer is not None:
            tracer.install()
        try:
            setup_speed = probe.speed([probe() for _ in range(SETUP_PROBES)])
            t0 = time.perf_counter()
            trace, system = build(workload, seeds, duration_ms)
            t1 = time.perf_counter()
            metrics = system.run(trace)
            t2 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
    runner = system.last_runner
    lc, be = system.lc_scheduler, system.be_scheduler
    injector = runner.injector
    counters = {
        "case2_rounds": lc.case2_rounds,
        "augmentations": lc.solver_stats()["augmentations"],
        "decisions": be.decisions,
        "requeues": be.requeues,
        "crashes": sum(e.kind == "crash" for e in injector.events) if injector else 0,
    }
    sim = Sim(
        input=input_name,
        traced=tracer is not None,
        setup_s=t1 - t0,
        wall_s=t2 - t1,
        tick_s=timer.tick_s,
        setup_speed=setup_speed,
        speed=probe.speed(timer.probe_s),
        ticks=runner.clock.tick_count,
        workers=system.system.total_nodes(),
        metrics=metrics,
        fingerprint=metrics_fingerprint(metrics),
        dropped_be=runner.dropped_be,
        decision_ms=list(lc.decision_latencies_ms),
        counters=counters,
    )
    sim.problems = check_outputs(sim)
    return sim


def check_outputs(sim: Sim) -> List[str]:
    m = sim.metrics
    problems = []
    if m.lc_completed + m.lc_abandoned > m.lc_arrived:
        problems.append(
            f"LC conservation: completed {m.lc_completed} + abandoned "
            f"{m.lc_abandoned} > arrived {m.lc_arrived}"
        )
    if m.lc_satisfied > m.lc_completed:
        problems.append(
            f"LC satisfied {m.lc_satisfied} > completed {m.lc_completed}"
        )
    if m.be_completed + sim.dropped_be > m.be_arrived:
        problems.append(
            f"BE conservation: completed {m.be_completed} + dropped "
            f"{sim.dropped_be} > arrived {m.be_arrived}"
        )
    if m.invariant_violations:
        problems.append(
            f"{m.invariant_violations} invariant violations: "
            f"{m.invariant_violations_by_law}"
        )
    if m.lc_arrived == 0 or not m.lc_latencies_ms:
        problems.append("no LC request arrived or completed")
    return problems


# ---------------------------------------------------------------------- #
# one benchmark run
# ---------------------------------------------------------------------- #
def schedule(trace: bool):
    """(input, traced) of each simulation, in order, without end.

    The seeded input runs once, first and at half length: it is a check on
    an input not used in tuning, and it warms the process up (lazy imports,
    allocator growth), which would otherwise slow the first timed reference
    simulation by several percent.
    """
    yield "seeded", False
    while True:
        yield "reference", False
        yield "reference", trace


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    workload_seed: int,
    duration_ms: float,
) -> Tuple[List[Sim], List[float], Optional[LayerTracer]]:
    seeds = input_seeds(workload_seed, seed)
    probe = HostProbe()
    setups = []
    for _ in range(SETUP_BUILDS):
        gc.collect()
        speed = probe.speed([probe() for _ in range(SETUP_PROBES)])
        t0 = time.perf_counter()
        build(workload, seeds["reference"], duration_ms)
        setups.append((time.perf_counter() - t0) * speed)

    tracer = LayerTracer() if trace else None
    sims: List[Sim] = []
    start = time.perf_counter()
    longest = 0.0
    for input_name, traced in schedule(trace):
        elapsed = time.perf_counter() - start
        if len(sims) >= 3 and elapsed + longest > seconds:
            break
        t0 = time.perf_counter()
        sims.append(
            simulate(
                workload,
                seeds[input_name],
                duration_ms if input_name == "reference" else duration_ms / 2,
                input_name,
                probe,
                tracer if traced else None,
            )
        )
        longest = max(longest, time.perf_counter() - t0)

    # repeated simulations of one input must agree exactly
    first: Dict[str, Dict[str, Any]] = {}
    for sim in sims:
        expected = first.setdefault(sim.input, sim.fingerprint)
        if sim.fingerprint != expected:
            from repro.metrics.fingerprint import format_fingerprint_diff

            label = "traced" if sim.traced else "repeat"
            sim.problems.append(
                f"{sim.input} {label} fingerprint differs from the first run:\n"
                + format_fingerprint_diff(expected, sim.fingerprint)
            )
    return sims, setups, tracer


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def itemwise_median(series: List[List[float]]) -> List[float]:
    """Median of each position across equally long series."""
    return [statistics.median(values) for values in zip(*series)]


def end_to_end(sims: List[Sim], setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics of the untraced reference simulations.

    Host times are taken at the reference host speed (see :class:`HostProbe`)
    and the median is taken across simulations.  The reference input is
    deterministic, so its k-th DSS-LC dispatch does the same work in every
    simulation: dispatch times are medians per dispatch, then ranked.
    """
    ref = [s for s in sims if s.input == "reference" and not s.traced]
    m = ref[0].metrics
    run_s = statistics.median(sum(s.tick_s) * s.speed for s in ref)
    decisions = itemwise_median(
        [[d * s.speed for d in s.decision_ms] for s in ref]
    )
    arrived = m.lc_arrived + m.be_arrived
    failed = (m.lc_completed - m.lc_satisfied) + m.lc_abandoned + ref[0].dropped_be
    return {
        "ticks_per_s": ref[0].ticks / run_s,
        "setup_s": statistics.median(
            setups + [s.setup_s * s.setup_speed for s in ref]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lc_decision_ms_p50": percentile(decisions, 50),
        "lc_decision_ms_p99": percentile(decisions, 99),
        "qos_rate": m.qos_satisfaction_rate,
        "lc_latency_ms_p50": percentile(m.lc_latencies_ms, 50),
        "lc_latency_ms_p99": percentile(m.lc_latencies_ms, 99),
        "be_completed": float(m.be_completed),
        "failed_frac": failed / arrived,
    }


def per_layer(sims: List[Sim], tracer: LayerTracer) -> Dict[str, float]:
    traced = [s for s in sims if s.traced]
    plain = [s for s in sims if s.input == "reference" and not s.traced]
    n = len(traced)
    out = {name: value for name, (value, _) in tracer.layer_metrics(n).items()}

    def mean(key: str) -> float:
        return sum(s.counters[key] for s in traced) / n

    decisions = mean("decisions")
    sim = traced[0]
    requests_in = out["dss_lc.requests_in"]
    out.update(
        {
            "dss_lc.assign_ratio": out["dss_lc.assigned"] / requests_in if requests_in else 0.0,
            "dss_lc.case2_rounds": mean("case2_rounds"),
            "flow.augmentations": mean("augmentations"),
            "dcg_be.decisions": decisions,
            "dcg_be.nofit_ratio": mean("requeues") / decisions if decisions else 0.0,
            "nn.encodes_per_decision": out["nn.encode.calls"] / decisions if decisions else 0.0,
            "node.step_share": out["node.step.calls"] / (sim.ticks * sim.workers),
            "failures.crashes": mean("crashes"),
            "invariants.violations": float(sim.metrics.invariant_violations),
            "trace.overhead_frac": statistics.median(
                sum(s.tick_s) * s.speed for s in traced
            )
            / statistics.median(sum(s.tick_s) * s.speed for s in plain)
            - 1.0,
        }
    )
    return out


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #
def git_commit() -> str:
    """HEAD's commit, read from ``.git`` when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(args, workload: Workload) -> Dict[str, Any]:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload_seed": args.workload_seed,
        "held_out_seed": workload.held_out_seed,
        "seed": args.seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def describe(sims: List[Sim]) -> List[str]:
    lines = []
    for s in sims:
        m = s.metrics
        digest = json.dumps(s.fingerprint, sort_keys=True)
        lines.append(
            f"  sim {s.input:9s} traced={int(s.traced)} wall={s.wall_s:7.3f}s "
            f"({s.ticks / s.wall_s:6.2f} ticks/s; host speed {s.speed:.2f}, "
            f"{s.ticks / (sum(s.tick_s) * s.speed):6.2f} at reference speed) "
            f"setup={s.setup_s:.3f}s qos={m.qos_satisfaction_rate:.4f} "
            f"lc={m.lc_arrived}/{m.lc_completed}/{m.lc_abandoned} "
            f"be={m.be_arrived}/{m.be_completed}/{s.dropped_be} "
            f"fingerprint={hashlib.sha256(digest.encode()).hexdigest()[:16]}"
            + ("" if not s.problems else "  FAILED: " + "; ".join(s.problems))
        )
    return lines


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.workload_seed is None:
        args.workload_seed = workload.default_seed
    duration_ms = args.duration_ms or workload.duration_ms
    sims, setups, tracer = run_workload(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workload_seed=args.workload_seed,
        duration_ms=duration_ms,
    )
    failed = sum(bool(s.problems) for s in sims)
    declared = per_layer_names() if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in declared}
    values = per_layer(sims, tracer) if args.trace else end_to_end(sims, setups)

    print(f"workload {workload.name}: {workload.why}")
    ref = next(s for s in sims if s.input == "reference")
    print(
        f"  {ref.workers} workers, {ref.ticks} ticks of 25 ms "
        f"({duration_ms / 1000:g} s simulated) per reference simulation, "
        f"{len(ref.decision_ms)} DSS-LC dispatches"
    )
    print("\n".join(describe(sims)))
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6f} {unit}")
    if not args.trace and workload.name == "wide-500":
        ratio = values["lc_decision_ms_p50"] / PAPER_DECISION_MS_500
        print(
            f"  reference: lc_decision_ms_p50 {values['lc_decision_ms_p50']:.3f} ms "
            f"vs the paper's {PAPER_DECISION_MS_500} ms at 500 nodes (§7.2): "
            f"{ratio:.2f}x"
        )
    print(
        "  note: simulated QoS/latency are from the repository's model, which "
        "is unvalidated against the paper's testbed; no error figure is given"
    )
    print("env " + json.dumps(environment(args, workload), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(sims),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own child process (peak RSS is per process)."""
    summary: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.duration_ms:
            cmd += ["--duration-ms", str(args.duration_ms)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed of the seeded input's trace (default: the held-out seed)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workload-seed", type=int, default=None,
        help="seed of the reference input (default: the workload's default seed)",
    )
    parser.add_argument(
        "--duration-ms", type=float, default=None,
        help="simulated time per simulation (default: the workload's)",
    )
    args = parser.parse_args(argv)
    if args.seed is None and args.workload != "all":
        args.seed = WORKLOADS[args.workload].held_out_seed
    return args


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro resolved to {repro.__file__}, not under {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
