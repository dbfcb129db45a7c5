"""Unified observability subsystem: event bus, tracing, and metric export.

Three pillars (wired together by :class:`repro.obs.hub.ObservabilityHub`):

* :mod:`repro.obs.bus` — a structured, ring-buffered **event bus**.  The
  runner, both Tango schedulers, the HRM modules, and the failure injector
  publish typed events (:mod:`repro.obs.events`); the request tracer and
  the metric registry (through :mod:`repro.obs.bridges`) consume them as
  subscribers.
* :mod:`repro.obs.tracing` — **request-lifecycle tracing**: every
  :class:`~repro.sim.request.ServiceRequest` gets a span chain
  (arrival → schedule → ship → queue → execute → complete/abandon/evict)
  queryable in memory and dumpable as JSONL via ``python -m repro trace``.
* :mod:`repro.obs.metrics` — a **metric registry** (counters, gauges,
  histograms) with JSONL and Prometheus-text exporters.

The whole layer is opt-in (``RunnerConfig(observe=True)``) and a no-op
when disabled: publishers hold an ``emitter`` (:mod:`repro.obs.emitter`)
that only builds and publishes events when a bus exists.  The run's
:class:`~repro.metrics.collectors.PeriodCollector` is fed by direct
emitter calls in every mode, so RunMetrics fingerprints do not depend on
whether observability is on.
"""

from repro.obs.bus import EventBus
from repro.obs.hub import ObservabilityHub
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.tracing import RequestTrace, RequestTracer, Span

__all__ = [
    "EventBus",
    "ObservabilityHub",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "RequestTracer",
    "RequestTrace",
    "Span",
]

