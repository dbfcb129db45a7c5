"""Time-stepped simulation engine primitives.

The experimental system advances in fixed 100 ms ticks (§6.1: virtual worker
update threads wake every 100 ms; §4.3: QoS windows are 100 ms) and samples
metrics every 800 ms period (§6.2).  :class:`DeliveryQueue` carries requests
across the network: a dispatch decision schedules a future delivery at
``now + one_way_delay`` and the runner collects due deliveries each tick.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TICK_MS", "Clock", "DeliveryQueue"]

#: simulation tick length (ms).  The paper's virtual nodes wake every
#: 100 ms; we default to a finer 25 ms tick so that queueing/delivery
#: quantisation stays small relative to LC QoS targets (~300 ms).
TICK_MS = 25.0


class Clock:
    """Monotonic simulated time in milliseconds."""

    def __init__(self, tick_ms: float = TICK_MS) -> None:
        if tick_ms <= 0:
            raise ValueError("tick must be positive")
        self.tick_ms = tick_ms
        self.now_ms = 0.0
        self.tick_count = 0

    def advance(self) -> float:
        self.now_ms += self.tick_ms
        self.tick_count += 1
        return self.now_ms

    # -- Checkpointable ------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, Any]:
        return {"now_ms": self.now_ms, "tick_count": self.tick_count}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.now_ms = state["now_ms"]
        self.tick_count = state["tick_count"]


class DeliveryQueue:
    """Priority queue of (due_time, payload) in-flight items.

    The FIFO tiebreak counter is a plain int (not ``itertools.count``) so
    the queue can be checkpointed: insertion order of same-due items is
    observable through delivery order.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = 0

    def schedule(self, due_ms: float, payload: Any) -> None:
        heapq.heappush(self._heap, (due_ms, self._counter, payload))
        self._counter += 1

    def pop_due(self, now_ms: float) -> List[Any]:
        due: List[Any] = []
        while self._heap and self._heap[0][0] <= now_ms + 1e-9:
            due.append(heapq.heappop(self._heap)[2])
        return due

    def __len__(self) -> int:
        return len(self._heap)

    def peek_next_ms(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def items(self) -> List[Any]:
        """All in-flight payloads, in arbitrary (heap) order — read-only
        inspection for conservation accounting."""
        return [entry[2] for entry in self._heap]

    # -- Checkpointable ------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, Any]:
        return {"heap": self._heap, "counter": self._counter}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._heap = state["heap"]
        self._counter = state["counter"]
