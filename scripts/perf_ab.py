"""Same-runner throughput A/B: this checkout against a base checkout.

Runs ``perfbench/run.py --workload W --seconds 10`` in the base checkout
and in this one, ``--pairs`` times each, alternating which side runs
first, and prints every run from its last stdout line (perfbench's JSON
result).  It then reports, for each simulated metric, whether its values
are identical on both sides, naming any that moved; a change that keeps
the simulation's behaviour moves none.  Exits 1 if any simulation on
either side failed a check, or if this checkout's median ``ticks_per_s``
is below the base's by more than the ``ticks_per_s`` bound in
``BENCHMARK.json``.

Usage::

    git worktree add ../base origin/main
    python3 scripts/perf_ab.py ../base [--workload standard] [--pairs 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "10"
#: end-to-end metrics read from the simulated run, not the wall clock.
SIMULATED = (
    "qos_rate", "lc_latency_ms_p50", "lc_latency_ms_p99", "be_completed",
    "failed_frac",
)


def tps_bound() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    return next(m["bound"] for m in declared if m["name"] == "ticks_per_s")


def perfbench(checkout: str, workload: str) -> dict:
    """One perfbench run in ``checkout``; its parsed last stdout line."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seconds", SECONDS,
        ],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{checkout}: no perfbench result (exit {proc.returncode})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the base commit")
    parser.add_argument("--workload", default="standard")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"base": os.path.abspath(args.base), "change": ROOT}
    tps = {"base": [], "change": []}
    simulated = {side: {m: set() for m in SIMULATED} for side in sides}
    failed = 0
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = perfbench(sides[side], args.workload)
            value = result["metrics"]["ticks_per_s"]["value"]
            tps[side].append(value)
            for metric, seen in simulated[side].items():
                seen.add(result["metrics"][metric]["value"])
            failed += result["failed"]
            print(
                f"pair {pair + 1} {side:6s} ticks_per_s {value:8.2f} "
                f"attempted {result['attempted']} failed {result['failed']}",
                flush=True,
            )

    base, change = statistics.median(tps["base"]), statistics.median(tps["change"])
    bound = tps_bound()
    drop = (base - change) / base
    print(
        f"{args.workload}: median ticks_per_s base {base:.2f} change "
        f"{change:.2f} ({-100 * drop:+.1f}%, bound -{100 * bound:.0f}%)"
    )
    for metric in SIMULATED:
        base_values = simulated["base"][metric]
        change_values = simulated["change"][metric]
        if base_values == change_values:
            print(f"  {metric}: identical")
        else:
            print(
                f"  {metric}: MOVED base {sorted(base_values)} "
                f"change {sorted(change_values)}"
            )
    status = 0
    if failed:
        print(f"FAIL: {failed} simulation(s) failed a check", file=sys.stderr)
        status = 1
    if drop > bound:
        print("FAIL: ticks_per_s regressed beyond the bound", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
