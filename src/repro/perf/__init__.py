"""The in-package benchmark front end (``python -m repro bench``).

:func:`~repro.perf.bench.run_bench` runs the standard 10-cluster workload
once with ``RunnerConfig(profile=True)`` and reports ticks/sec, per-stage
wall-clock totals, DSS-LC solver counters and the metrics fingerprint.
The repository benchmark that judges changes is ``perfbench/``.
"""

from .bench import STANDARD_WORKLOAD, run_bench

__all__ = ["STANDARD_WORKLOAD", "run_bench"]
