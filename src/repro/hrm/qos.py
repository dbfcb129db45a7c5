"""QoS detector: per-(node, service) latency windows and slack scores.

§4.3: "the processing latency of LC service requests on each worker node is
collected within a time window of 100 ms".  The slack score of service *k*
on node *i* is

    δ_k(n_i) = 1 − ξ_k / γ_k

with ξ_k the p95 tail latency inside the window and γ_k the QoS target.
Negative slack means the target is violated; the re-assurance mechanism
(Algorithm 1) consumes these scores.  The same detector feeds the ``δ_k``
field of DCG-BE's node state (§5.3.1).
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.workloads.spec import ServiceSpec

__all__ = ["QoSDetector", "WINDOW_MS"]

#: §4.3 collection window.
WINDOW_MS = 100.0


@dataclass
class _Sample:
    completed_ms: float
    latency_ms: float


class QoSDetector:
    """Sliding-window tail-latency tracker."""

    def __init__(self, window_ms: float = WINDOW_MS, min_keep: int = 8) -> None:
        self.window_ms = window_ms
        #: keep at least this many samples so p95 stays defined in quiet
        #: windows (the detector would otherwise flap between ticks).
        self.min_keep = min_keep
        self._samples: Dict[Tuple[str, str], Deque[_Sample]] = defaultdict(deque)
        #: node → services it has samples for, so per-node queries do not
        #: scan every (node, service) window in the system.
        self._node_services: Dict[str, List[str]] = {}

    def observe(
        self,
        node: str,
        service: str,
        completed_ms: float,
        latency_ms: float,
    ) -> None:
        key = (node, service)
        if key not in self._samples:
            self._node_services.setdefault(node, []).append(service)
        window = self._samples[key]
        window.append(_Sample(completed_ms, latency_ms))
        self._expire(window, completed_ms)

    def _expire(self, window: Deque[_Sample], now_ms: float) -> None:
        while (
            len(window) > self.min_keep
            and window[0].completed_ms < now_ms - self.window_ms
        ):
            window.popleft()

    def purge_node(self, node: str) -> None:
        """Drop every window for a node (crashed/removed: its history is
        meaningless once the node restarts cold)."""
        for service in self._node_services.pop(node, ()):
            self._samples.pop((node, service), None)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def tail_latency_ms(
        self, node: str, service: str, *, now_ms: Optional[float] = None
    ) -> Optional[float]:
        """p95 of the window, bit for bit numpy's default ``linear``
        percentile rule written out for one quantile: the virtual index
        0.95·(n−1) falls between sorted values a and b at fraction t, and
        the value is interpolated from b when t ≥ 0.5, else from a.
        """
        window = self._samples.get((node, service))
        if not window:
            return None
        if now_ms is not None:
            # expire on read: a window that stopped receiving completions
            # (evicted service, idle node) must not report a stale tail
            # forever.  min_keep still floors the window, exactly as in
            # observe(), so quiet-window behaviour is unchanged.
            self._expire(window, now_ms)
        values = sorted(s.latency_ms for s in window)
        index = 0.95 * (len(values) - 1)
        i = int(index)
        t = index - i
        a = values[i]
        if t == 0:
            return float(a)
        b = values[i + 1]
        if t >= 0.5:
            return float(b - (b - a) * (1 - t))
        return float(a + (b - a) * t)

    def slack_score(
        self,
        node: str,
        service: str,
        spec: ServiceSpec,
        *,
        now_ms: Optional[float] = None,
    ) -> Optional[float]:
        """δ = 1 − ξ/γ; None when no samples exist yet."""
        if not spec.is_lc or not math.isfinite(spec.qos_target_ms):
            return None
        tail = self.tail_latency_ms(node, service, now_ms=now_ms)
        if tail is None:
            return None
        return 1.0 - tail / spec.qos_target_ms

    def sample_count(self, node: str, service: str) -> int:
        window = self._samples.get((node, service))
        return len(window) if window else 0

    def node_min_slack(
        self,
        node: str,
        specs: Dict[str, ServiceSpec],
        *,
        now_ms: Optional[float] = None,
    ) -> float:
        """Worst slack over LC services on a node (DCG-BE state feature)."""
        scores = []
        for service in self._node_services.get(node, ()):
            spec = specs.get(service)
            if spec is None or not spec.is_lc:
                continue
            s = self.slack_score(node, service, spec, now_ms=now_ms)
            if s is not None:
                scores.append(s)
        return min(scores) if scores else 1.0

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """``_node_services`` insertion order decides ``node_min_slack``'s
        scan order, so it is state, not a rebuildable index."""
        return {
            "samples": self._samples,
            "node_services": self._node_services,
        }

    def restore_state(self, state: Dict) -> None:
        """States written with a tail memo carry a ``tail_cache`` key; the
        tail is recomputed from the windows, so it is ignored."""
        self._samples = state["samples"]
        self._node_services = state["node_services"]
