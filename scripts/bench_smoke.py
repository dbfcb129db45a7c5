"""Benchmark smoke gate: fail on a >20 % ticks/sec regression.

Runs the standard workload (``repro.perf.bench``), compares against the
checked-in ``BENCH_PR1.json``, and exits non-zero when throughput dropped
more than the tolerance.  On success the JSON is rewritten in place with
the fresh "after" measurement (the recorded "before" baseline is kept).

Also runs an invariant gate: one small workload twice, with and without
``check_invariants``, expecting zero violations and bit-identical
fingerprints (the checker observes, it never steers).  A mismatch is
reported as a readable per-field diff table
(``repro.metrics.fingerprint``), never a bare assert.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--tolerance 0.2] [--dry-run]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.metrics.fingerprint import (  # noqa: E402
    format_fingerprint_diff,
    metrics_fingerprint,
)
from repro.perf.bench import run_bench, write_bench_json  # noqa: E402

BENCH_PATH = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_PR1.json")
)

GATE_DURATION_MS = 6_000.0


def _gate_run(check_invariants: bool):
    """One small-workload run for the invariant gate."""
    from repro.cluster.topology import TopologyConfig
    from repro.core.config import TangoConfig
    from repro.core.tango import TangoSystem
    from repro.sim.runner import RunnerConfig
    from repro.workloads.trace import SyntheticTrace, TraceConfig

    trace = SyntheticTrace(
        TraceConfig(n_clusters=3, duration_ms=GATE_DURATION_MS, seed=1)
    ).generate()
    config = TangoConfig.tango(
        topology=TopologyConfig(n_clusters=3, workers_per_cluster=3, seed=1),
        runner=RunnerConfig(
            duration_ms=GATE_DURATION_MS,
            check_invariants=check_invariants,
        ),
    )
    return TangoSystem(config).run(trace)


def invariant_gate() -> int:
    """Checker on vs off: zero violations, bit-identical fingerprints."""
    off = _gate_run(check_invariants=False)
    on = _gate_run(check_invariants=True)
    status = 0
    if on.invariant_violations:
        print(
            f"FAIL: invariant gate found {on.invariant_violations} "
            f"violation(s): {on.invariant_violations_by_law}",
            file=sys.stderr,
        )
        status = 1
    fp_off, fp_on = metrics_fingerprint(off), metrics_fingerprint(on)
    if fp_on != fp_off:
        print(
            "FAIL: invariant checker changed the run fingerprint — the "
            "checker must observe, never steer",
            file=sys.stderr,
        )
        print(
            format_fingerprint_diff(
                fp_off, fp_on, labels=("checker-off", "checker-on")
            ),
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(
            "invariant gate: 0 violations, checker-on/off fingerprints "
            "bit-identical"
        )
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="max allowed fractional ticks/sec drop vs the recorded run",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="check only; do not rewrite BENCH_PR1.json",
    )
    args = parser.parse_args()

    recorded = None
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as fh:
            recorded = json.load(fh)

    result = run_bench(profile=True)
    tps = result["ticks_per_sec"]
    print(f"measured: {result['wall_s']:.2f}s wall, {tps:.1f} ticks/sec")

    status = 0
    # the profiled run must break down into the canonical pipeline stages
    # (no injector in the benchmark workload, so "failures" is absent);
    # a missing key means a stage was renamed or silently dropped.
    expected_stages = {
        "arrivals", "refresh", "lc", "be", "deliver", "step",
        "reassure", "metrics",
    }
    stage_keys = set(result.get("stage_ms", {}))
    if not expected_stages.issubset(stage_keys):
        print(
            f"FAIL: profiled stages {sorted(stage_keys)} missing "
            f"{sorted(expected_stages - stage_keys)}",
            file=sys.stderr,
        )
        status = 1
    status |= invariant_gate()
    before = None
    if recorded is not None:
        before = recorded.get("before")
        ref = (recorded.get("after") or {}).get("ticks_per_sec")
        if ref:
            drop = (ref - tps) / ref
            print(f"recorded: {ref:.1f} ticks/sec -> drop {100 * drop:.1f}%")
            if drop > args.tolerance:
                print(
                    f"FAIL: throughput regressed more than "
                    f"{100 * args.tolerance:.0f}%",
                    file=sys.stderr,
                )
                status = 1

    if status == 0 and not args.dry_run:
        write_bench_json(result, BENCH_PATH, before=before)
        print(f"updated {BENCH_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
