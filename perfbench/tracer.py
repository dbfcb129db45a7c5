"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of the ``src/repro`` modules,
around the calls into each layer, and records per function the number of
calls, the busy time and — where wrapped functions nest — the self time
(busy time minus the part covered by wrapped callees).  Wrappers only
observe: each calls the original with the same arguments and returns its
result, so a traced run must produce the same RunMetrics fingerprint as an
untraced one (the benchmark checks that it does).

Wrappers are installed on the *defining* class (or module namespace) and
:meth:`LayerTracer.uninstall` puts back the exact original objects, so no
later run inherits a patched class.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "TARGETS", "LayerTracer"]

#: counts a wrapped call contributes, from its arguments and result.
CountFn = Callable[[tuple, Any], Dict[str, int]]


@dataclass(frozen=True)
class Target:
    #: metric prefix, e.g. ``dss_lc.dispatch`` -> ``dss_lc.dispatch.ms``.
    key: str
    module: str
    #: defining class, or "" for a name in the module namespace.
    owner: str
    attr: str
    #: also report ``<key>.self_ms``.
    self_time: bool = False
    #: report ``<key>.calls`` (stages are called once per tick: no calls).
    calls: bool = True
    count: Optional[CountFn] = None
    #: the names ``count`` reports (so they read 0 when never called).
    count_keys: Tuple[str, ...] = ()


def _dispatch_counts(args: tuple, result: Any) -> Dict[str, int]:
    # DSSLCScheduler.dispatch(self, origin, requests, snapshot, eligible, now)
    return {"dss_lc.requests_in": len(args[2]), "dss_lc.assigned": len(result)}


_PIPELINE = "repro.sim.pipeline"

TARGETS: Tuple[Target, ...] = (
    # sim.pipeline: one span per stage per tick
    Target("stage.arrivals", _PIPELINE, "ArrivalsStage", "run", calls=False),
    Target("stage.failures", _PIPELINE, "FailuresStage", "run", calls=False),
    Target("stage.refresh", _PIPELINE, "RefreshStage", "run", calls=False),
    Target("stage.lc", _PIPELINE, "LCDispatchStage", "run", calls=False),
    Target("stage.be", _PIPELINE, "BEDispatchStage", "run", calls=False),
    Target("stage.deliver", _PIPELINE, "DeliverStage", "run", calls=False),
    Target("stage.step", _PIPELINE, "StepNodesStage", "run", calls=False),
    Target("stage.reassure", _PIPELINE, "ReassureStage", "run", calls=False),
    Target("stage.metrics", _PIPELINE, "MetricsStage", "run", calls=False),
    Target(
        "stage.invariants", "repro.sim.invariants", "InvariantStage", "run",
        calls=False,
    ),
    # core
    Target("storage.refresh", "repro.core.state_storage", "StateStorage", "refresh"),
    Target("core.system_build", "repro.core.tango", "TangoSystem", "__init__"),
    Target("workloads.trace_generate", "repro.workloads.trace", "SyntheticTrace", "generate"),
    # scheduling + flow
    Target(
        "dss_lc.dispatch", "repro.scheduling.dss_lc", "DSSLCScheduler", "dispatch",
        self_time=True, count=_dispatch_counts,
        count_keys=("dss_lc.requests_in", "dss_lc.assigned"),
    ),
    # the name dss_lc looks up, not its definition in repro.flow.graph
    Target(
        "flow.solve_transport", "repro.scheduling.dss_lc", "", "solve_transport",
        self_time=True,
    ),
    Target("flow.mcmf_solve", "repro.flow.mcmf", "MinCostMaxFlow", "solve"),
    Target(
        "dcg_be.dispatch_be", "repro.scheduling.dcg_be", "DCGBEScheduler",
        "dispatch_be", self_time=True,
    ),
    # nn
    Target("nn.a2c_act", "repro.nn.a2c", "A2CAgent", "act"),
    Target("nn.a2c_train_on", "repro.nn.a2c", "A2CAgent", "train_on"),
    Target("nn.encode", "repro.nn.gnn", "GraphEncoder", "encode"),
    # cluster + hrm
    Target("node.step", "repro.cluster.node", "WorkerNode", "step"),
    Target("hrm.admit", "repro.hrm.regulations", "HRMManager", "admit"),
    Target("hrm.tick", "repro.hrm.regulations", "HRMManager", "tick"),
    Target("reassurance.run", "repro.hrm.reassurance", "ReassuranceMechanism", "run"),
    Target("qos.tail_latency", "repro.hrm.qos", "QoSDetector", "tail_latency_ms"),
    Target("dvpa.scale", "repro.hrm.dvpa", "DVPA", "scale"),
    # metrics, obs, failures
    Target("collector.maybe_sample", "repro.metrics.collectors", "PeriodCollector", "maybe_sample"),
    Target("bus.publish", "repro.obs.bus", "EventBus", "publish"),
    Target("failures.apply", "repro.sim.failures", "FailureInjector", "apply"),
)

_MISSING = object()


class LayerTracer:
    """Call counts, busy and self times of the :data:`TARGETS` functions."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.calls: Dict[str, int] = {t.key: 0 for t in targets}
        self.busy_s: Dict[str, float] = {t.key: 0.0 for t in targets}
        self.child_s: Dict[str, float] = {t.key: 0.0 for t in targets}
        self.counts: Dict[str, int] = {
            name: 0 for t in targets for name in t.count_keys
        }
        #: child-time accumulators of the wrapped calls now on the stack.
        self._stack: List[float] = []
        #: (namespace, attr, original) in install order.
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #
    @staticmethod
    def namespace(target: Target) -> Any:
        module = importlib.import_module(target.module)
        return getattr(module, target.owner) if target.owner else module

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            space = self.namespace(target)
            original = vars(space).get(target.attr, _MISSING)
            if original is _MISSING:
                self.uninstall()
                raise AttributeError(
                    f"{target.module}.{target.owner or '<module>'} defines no "
                    f"{target.attr!r}; trace target {target.key!r} is stale"
                )
            self._saved.append((space, target.attr, original))
            setattr(space, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        for space, attr, original in reversed(self._saved):
            setattr(space, attr, original)
        self._saved = []

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # the wrapper
    # ------------------------------------------------------------------ #
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        key = target.key
        count = target.count
        calls, busy, child, counts = self.calls, self.busy_s, self.child_s, self.counts
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[key] += 1
                busy[key] += elapsed
                child[key] += inner
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                for name, n in count(args, result).items():
                    counts[name] += n
            return result

        return traced

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def layer_metrics(self, runs: int) -> Dict[str, Tuple[float, str]]:
        """``name -> (value, unit)`` per traced run (totals / ``runs``)."""
        out: Dict[str, Tuple[float, str]] = {}
        for target in self.targets:
            key = target.key
            if target.calls:
                out[f"{key}.calls"] = (self.calls[key] / runs, "count")
            out[f"{key}.ms"] = (self.busy_s[key] * 1000.0 / runs, "ms")
            if target.self_time:
                self_s = self.busy_s[key] - self.child_s[key]
                out[f"{key}.self_ms"] = (self_s * 1000.0 / runs, "ms")
        for name, n in sorted(self.counts.items()):
            out[name] = (n / runs, "count")
        return out
