"""K8s-style event recorder: the cluster's human-readable audit stream.

Real clusters expose ``kubectl get events`` — Scheduled/Pulled/Started/
Killing records that operators use to debug scheduling and eviction
behaviour.  The substrate components emit the same stream through
:class:`EventRecorder`; Tango's HRM emits additional events for the
behaviours the paper introduces (D-VPA resizes, preemptive squeezes,
incompressible evictions), making every experiment auditable after the
fact.

Since the observability subsystem landed, the recorder no longer sits on
any hot path directly: when a run enables event recording the runner
publishes typed events on the :class:`repro.obs.bus.EventBus` and a
:class:`repro.obs.bridges.KubeEventBridge` renders them into this stream.
A run's recorder uses the constructor defaults below (1000 events, 1 s
dedup window).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["ClusterEvent", "EventRecorder", "Reason"]

_sequence = itertools.count(1)


class Reason:
    """Well-known event reasons (mirrors upstream kubelet/scheduler ones)."""

    SCHEDULED = "Scheduled"
    STARTED = "Started"
    EVICTED = "Evicted"
    FAILED_SCHEDULING = "FailedScheduling"
    # Tango-specific reasons
    DVPA_RESIZED = "DVPAResized"
    BE_SQUEEZED = "BESqueezed"
    QOS_ADJUSTED = "QoSAdjusted"
    NODE_DOWN = "NodeDown"
    NODE_RECOVERED = "NodeRecovered"
    PARTITIONED = "WANPartition"
    PARTITION_HEALED = "WANPartitionHealed"


@dataclass(frozen=True)
class ClusterEvent:
    time_ms: float
    reason: str
    #: object the event is about, e.g. "pod/web-1" or "node/c0-w2"
    involved: str
    message: str
    #: Normal | Warning, as upstream
    type: str = "Normal"
    sequence: int = field(default_factory=lambda: next(_sequence))


class EventRecorder:
    """Bounded in-memory event log with counting dedup, like the API server.

    Repeated (reason, involved) pairs within ``dedup_window_ms`` are
    aggregated into a count instead of new entries — upstream does exactly
    this to survive crash-looping pods.
    """

    def __init__(self, capacity: int = 1000, dedup_window_ms: float = 1_000.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dedup_window_ms = dedup_window_ms
        self._events: List[ClusterEvent] = []
        self._counts: Counter = Counter()
        self._last_seen: Dict[tuple, float] = {}

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def emit(
        self,
        time_ms: float,
        reason: str,
        involved: str,
        message: str,
        *,
        type: str = "Normal",
    ) -> Optional[ClusterEvent]:
        """Record an event; returns None when deduplicated into a count."""
        key = (reason, involved)
        self._counts[key] += 1
        last = self._last_seen.get(key)
        self._last_seen[key] = time_ms
        if last is not None and time_ms - last < self.dedup_window_ms:
            return None
        event = ClusterEvent(
            time_ms=time_ms, reason=reason, involved=involved,
            message=message, type=type,
        )
        self._events.append(event)
        if len(self._events) > self.capacity:
            self._events.pop(0)
        return event

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def events(
        self,
        reason: Optional[str] = None,
        involved: Optional[str] = None,
    ) -> List[ClusterEvent]:
        out = self._events
        if reason is not None:
            out = [e for e in out if e.reason == reason]
        if involved is not None:
            out = [e for e in out if e.involved == involved]
        return list(out)

    def count(self, reason: str, involved: Optional[str] = None) -> int:
        """Total emissions (including deduplicated ones)."""
        if involved is not None:
            return self._counts[(reason, involved)]
        return sum(
            c for (r, _), c in self._counts.items() if r == reason
        )

    def tail(self, n: int = 20) -> List[ClusterEvent]:
        return self._events[-n:]

    def render(self, n: int = 20) -> str:
        """``kubectl get events``-style text block."""
        lines = ["TIME(s)   TYPE     REASON              OBJECT                MESSAGE"]
        for e in self.tail(n):
            lines.append(
                f"{e.time_ms/1000.0:<9.2f} {e.type:<8s} {e.reason:<19s} "
                f"{e.involved:<21s} {e.message}"
            )
        return "\n".join(lines)
