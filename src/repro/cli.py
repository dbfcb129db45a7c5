"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Run one system configuration against a synthetic trace and print (or
    save) the metrics::

        python -m repro run --stack tango --clusters 6 --duration 20
        python -m repro run --stack ceres --out results/ceres.json

``compare``
    Run several stacks on the *same* trace and print a comparison table::

        python -m repro compare --stacks tango,k8s-native,ceres

``experiment``
    Regenerate one paper figure/table by name::

        python -m repro experiment fig9
        python -m repro experiment dvpa

``bench``
    Run the standard 10-cluster benchmark workload with per-stage
    profiling and print ticks/sec plus the stage breakdown (performance
    is judged with ``perfbench/``; this is a quick look at one run)::

        python -m repro bench
        python -m repro bench --json          # machine-readable output
        python -m repro bench --out bench.json  # the same JSON, to a file

``trace``
    Run one stack with the observability subsystem enabled and dump the
    request-lifecycle span traces as JSONL (one trace per line)::

        python -m repro trace --stack tango --duration 10
        python -m repro trace --status completed --limit 50 --out traces.jsonl
        python -m repro trace --metrics-out metrics.prom   # Prometheus text

``checkpoint``
    Run one stack up to ``--at`` seconds, then freeze the full simulation
    state (every stateful layer) into a pickle that also records how to
    rebuild the system and trace::

        python -m repro checkpoint --stack tango --at 5 --out tango.ckpt

``resume``
    Rebuild the system and trace recorded in a checkpoint, restore the
    frozen state, and run to the configured duration.  The resumed run's
    metrics are bit-identical to an uninterrupted run::

        python -m repro resume tango.ckpt
        python -m repro resume tango.ckpt --out resumed.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cluster.topology import TopologyConfig
from repro.core.config import TangoConfig
from repro.core.tango import TangoSystem
from repro.metrics.report import comparison_table, save_metrics
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

__all__ = ["main", "build_parser"]

_STACKS = {
    "tango": TangoConfig.tango,
    "k8s-native": TangoConfig.k8s_native,
    "ceres": TangoConfig.ceres,
    "dsaco": TangoConfig.dsaco,
}

_EXPERIMENTS = {
    "fig1": "repro.experiments.fig1",
    "fig9": "repro.experiments.fig9",
    "fig10": "repro.experiments.fig10",
    "fig11": "repro.experiments.fig11",
    "fig12": "repro.experiments.fig12",
    "fig13": "repro.experiments.fig13",
    "dvpa": "repro.experiments.dvpa_latency",
    "dss-latency": "repro.experiments.dss_latency",
    "elasticity": "repro.experiments.elasticity",
    "scale-expansion": "repro.experiments.scale_expansion",
    "learning-curve": "repro.experiments.learning_curve",
    "ablations": "repro.experiments.ablations",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tango (ICPP 2023) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one stack on a synthetic trace")
    _common_run_args(run)
    run.add_argument(
        "--stack", choices=sorted(_STACKS), default="tango",
        help="which system to assemble",
    )
    run.add_argument("--out", help="write metrics JSON here")
    run.add_argument(
        "--check-invariants", action="store_true",
        help="run the runtime conservation-law checker every tick",
    )
    run.add_argument(
        "--invariant-mode", choices=["strict", "soft"], default="strict",
        help="strict raises on the first violation; soft counts and "
        "keeps running",
    )
    run.add_argument(
        "--failures", action="store_true",
        help="enable the default failure injector (node crashes)",
    )

    compare = sub.add_parser("compare", help="run several stacks, same trace")
    _common_run_args(compare)
    compare.add_argument(
        "--stacks",
        default="tango,k8s-native",
        help="comma-separated stack names",
    )
    compare.add_argument("--out", help="write the metrics set JSON here")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper figure/table"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument(
        "--scale", default="small", help="experiment scale preset"
    )

    bench = sub.add_parser(
        "bench", help="run the standard benchmark workload with profiling"
    )
    bench.add_argument(
        "--duration", type=float, default=None,
        help="override benchmark duration (seconds)",
    )
    bench.add_argument(
        "--clusters", type=int, default=None,
        help="override benchmark cluster count",
    )
    bench.add_argument("--out", help="write the benchmark JSON here")
    bench.add_argument(
        "--json", action="store_true",
        help="print the full benchmark result as JSON on stdout",
    )

    trace = sub.add_parser(
        "trace", help="run with observability on and dump span traces"
    )
    _common_run_args(trace)
    trace.add_argument(
        "--stack", choices=sorted(_STACKS), default="tango",
        help="which system to assemble",
    )
    trace.add_argument(
        "--out", help="write trace JSONL here (default: stdout)"
    )
    trace.add_argument(
        "--limit", type=int, default=None, help="max traces to dump"
    )
    trace.add_argument(
        "--service", default=None, help="only traces of this service"
    )
    trace.add_argument(
        "--status", default=None,
        choices=["open", "completed", "abandoned", "dropped"],
        help="only traces with this terminal status",
    )
    trace.add_argument(
        "--metrics-out",
        help="also write the metric registry here (.prom → Prometheus "
        "text exposition format, anything else → JSONL samples)",
    )

    ckpt = sub.add_parser(
        "checkpoint", help="run up to a point and freeze the full sim state"
    )
    _common_run_args(ckpt)
    ckpt.add_argument(
        "--stack", choices=sorted(_STACKS), default="tango",
        help="which system to assemble",
    )
    ckpt.add_argument(
        "--at", type=float, required=True,
        help="checkpoint time (seconds into the run)",
    )
    ckpt.add_argument(
        "--out", required=True, help="write the checkpoint pickle here"
    )

    resume = sub.add_parser(
        "resume", help="resume a checkpointed run to completion"
    )
    resume.add_argument("checkpoint", help="checkpoint file written by "
                        "`repro checkpoint`")
    resume.add_argument("--out", help="write metrics JSON here")
    return parser


def _common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument(
        "--workers", type=int, default=4,
        help="workers per cluster; 0 draws 3-20 heterogeneously",
    )
    parser.add_argument("--duration", type=float, default=15.0, help="seconds")
    parser.add_argument("--lc-rps", type=float, default=30.0)
    parser.add_argument("--be-rps", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)


def _build_system(
    stack: str, args: argparse.Namespace, *, observe: bool = False
) -> TangoSystem:
    factory = _STACKS[stack]
    failures = None
    if getattr(args, "failures", False):
        from repro.sim.failures import FailureConfig

        failures = FailureConfig(seed=args.seed)
    config = factory(
        topology=TopologyConfig(
            n_clusters=args.clusters,
            workers_per_cluster=args.workers or None,
            seed=args.seed,
        ),
        runner=RunnerConfig(
            duration_ms=args.duration * 1000.0,
            observe=observe,
            failures=failures,
            check_invariants=getattr(args, "check_invariants", False),
            invariant_mode=getattr(args, "invariant_mode", "strict"),
        ),
    )
    return TangoSystem(config)


def _build_trace(args: argparse.Namespace):
    return SyntheticTrace(
        TraceConfig(
            n_clusters=args.clusters,
            duration_ms=args.duration * 1000.0,
            lc_peak_rps=args.lc_rps,
            be_peak_rps=args.be_rps,
            seed=args.seed,
        )
    ).generate()


def _cmd_run(args: argparse.Namespace) -> int:
    system = _build_system(args.stack, args)
    metrics = system.run(_build_trace(args))
    for key, value in metrics.summary().items():
        print(f"{key:24s} {value:.4f}")
    if args.check_invariants:
        print(f"{'invariant_violations':24s} {metrics.invariant_violations}")
        for law, count in sorted(
            metrics.invariant_violations_by_law.items()
        ):
            print(f"  {law:22s} {count}")
    if args.out:
        path = save_metrics(metrics, args.out)
        print(f"\nmetrics written to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    stacks = [s.strip() for s in args.stacks.split(",") if s.strip()]
    unknown = [s for s in stacks if s not in _STACKS]
    if unknown:
        print(f"unknown stacks: {unknown}", file=sys.stderr)
        return 2
    trace = _build_trace(args)
    runs = {}
    for stack in stacks:
        runs[stack] = _build_system(stack, args).run(trace)
    rows = comparison_table(runs)
    columns = sorted({k for row in rows for k in row})
    # keep "system" first for readability
    columns = ["system"] + [c for c in columns if c != "system"]
    widths = {
        c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    if args.out:
        path = save_metrics(runs, args.out)
        print(f"\nmetrics set written to {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(_EXPERIMENTS[args.name])
    module.main(args.scale)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.perf.bench import run_bench

    overrides = {}
    if args.duration is not None:
        overrides["duration_ms"] = args.duration * 1000.0
    if args.clusters is not None:
        overrides["clusters"] = args.clusters
    result = run_bench(overrides or None)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
        return 0
    wl = result["workload"]
    print(
        f"{wl['stack']} | {wl['clusters']} clusters / {wl['n_workers']} "
        f"workers | {result['ticks']} ticks in {result['wall_s']:.2f}s "
        f"({result['ticks_per_sec']:.1f} ticks/sec)"
    )
    total = sum(result["stage_ms"].values())
    for stage, ms in sorted(result["stage_ms"].items(), key=lambda kv: -kv[1]):
        share = 100.0 * ms / total if total else 0.0
        print(f"  {stage:10s} {ms:10.1f} ms  {share:5.1f}%")
    if result.get("solver"):
        print(f"  solver: {result['solver']}")
    if args.out:
        print(f"\nbenchmark written to {args.out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    system = _build_system(args.stack, args, observe=True)
    system.run(_build_trace(args))
    runner = system.last_runner
    hub = runner.hub
    assert hub is not None
    kwargs = dict(
        status=args.status, service=args.service, limit=args.limit
    )
    if args.out:
        written = hub.tracer.write_jsonl(args.out, **kwargs)
        print(f"{written} traces written to {args.out}", file=sys.stderr)
    else:
        hub.tracer.to_jsonl(sys.stdout, **kwargs)
    if args.metrics_out:
        if args.metrics_out.endswith(".prom"):
            with open(args.metrics_out, "w") as fh:
                fh.write(hub.registry.to_prometheus())
        else:
            hub.registry.write_jsonl(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.sim.checkpoint import save_checkpoint

    system = _build_system(args.stack, args)
    trace = _build_trace(args)
    system.run(trace, until_ms=args.at * 1000.0)
    checkpoint = system.last_runner.checkpoint()
    # record how to rebuild an identical system + trace on resume
    checkpoint.meta.update(
        stack=args.stack,
        clusters=args.clusters,
        workers=args.workers,
        duration=args.duration,
        lc_rps=args.lc_rps,
        be_rps=args.be_rps,
        seed=args.seed,
    )
    path = save_checkpoint(checkpoint, args.out)
    print(
        f"checkpoint at t={checkpoint.meta['now_ms']:.0f}ms "
        f"({args.stack}, seed {args.seed}) written to {path}"
    )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.sim.checkpoint import load_checkpoint

    checkpoint = load_checkpoint(args.checkpoint)
    meta = checkpoint.meta
    required = {"stack", "clusters", "workers", "duration",
                "lc_rps", "be_rps", "seed"}
    missing = sorted(required - set(meta))
    if missing:
        print(
            f"{args.checkpoint}: no rebuild metadata ({missing}); "
            "resume programmatically via SimulationRunner.from_checkpoint",
            file=sys.stderr,
        )
        return 2
    build = argparse.Namespace(
        clusters=meta["clusters"],
        workers=meta["workers"],
        duration=meta["duration"],
        lc_rps=meta["lc_rps"],
        be_rps=meta["be_rps"],
        seed=meta["seed"],
    )
    system = _build_system(meta["stack"], build)
    trace = _build_trace(build)
    metrics = system.resume(trace, checkpoint)
    print(
        f"resumed {meta['stack']} from t={meta.get('now_ms', 0.0):.0f}ms "
        f"to t={build.duration * 1000.0:.0f}ms"
    )
    for key, value in metrics.summary().items():
        print(f"{key:24s} {value:.4f}")
    if args.out:
        path = save_metrics(metrics, args.out)
        print(f"\nmetrics written to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "resume":
        return _cmd_resume(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())
