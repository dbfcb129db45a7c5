"""Metrics: period collectors, run summaries."""

from .collectors import PERIOD_MS, PeriodCollector, RunMetrics
from .report import (
    comparison_table,
    load_metrics,
    metrics_from_dict,
    metrics_to_dict,
    save_metrics,
)
from .plotting import histogram, sparkline, timeline_chart

__all__ = [
    "PERIOD_MS",
    "PeriodCollector",
    "RunMetrics",
    "save_metrics",
    "load_metrics",
    "metrics_to_dict",
    "metrics_from_dict",
    "comparison_table",
    "sparkline",
    "timeline_chart",
    "histogram",
]
