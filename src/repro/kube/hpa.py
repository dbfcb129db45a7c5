"""Horizontal Pod Autoscaler — the slow-elasticity baseline.

§2.1 notes horizontal scaling "is relatively time-consuming for
millisecond-level LC services due to long container start-up time".  We model
the upstream HPA control loop faithfully enough to demonstrate that: the
desired replica count follows the standard ratio formula

    desired = ceil(current * observed_utilisation / target_utilisation)

with a stabilisation window on scale-down and a sync period between
evaluations; every added replica pays the cold-start latency from
:mod:`repro.kube.kubelet` before it serves traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["HorizontalPodAutoscaler", "HPADecision"]


@dataclass
class HPADecision:
    desired_replicas: int
    reason: str


class HorizontalPodAutoscaler:
    """Replica controller for one service."""

    def __init__(
        self,
        *,
        min_replicas: int = 1,
        max_replicas: int = 10,
        target_utilization: float = 0.6,
        sync_period_ms: float = 15_000.0,
        scale_down_stabilization_ms: float = 300_000.0,
        tolerance: float = 0.1,
    ) -> None:
        if not 0 < target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1]")
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ValueError("invalid replica bounds")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.target_utilization = target_utilization
        self.sync_period_ms = sync_period_ms
        self.scale_down_stabilization_ms = scale_down_stabilization_ms
        self.tolerance = tolerance
        self._last_sync_ms: Optional[float] = None
        self._recommendations: List[tuple] = []  # (time_ms, replicas)

    def evaluate(
        self,
        now_ms: float,
        current_replicas: int,
        observed_utilization: float,
    ) -> Optional[HPADecision]:
        """Run one control-loop iteration; None when between sync periods."""
        if (
            self._last_sync_ms is not None
            and now_ms - self._last_sync_ms < self.sync_period_ms
        ):
            return None
        self._last_sync_ms = now_ms

        ratio = observed_utilization / self.target_utilization
        if abs(ratio - 1.0) <= self.tolerance:
            desired = current_replicas
        else:
            desired = math.ceil(current_replicas * ratio)
        desired = max(self.min_replicas, min(self.max_replicas, desired))

        # Scale-down stabilisation: never drop below the max recommendation
        # seen within the window (upstream behaviour).
        self._recommendations.append((now_ms, desired))
        cutoff = now_ms - self.scale_down_stabilization_ms
        self._recommendations = [
            (t, r) for t, r in self._recommendations if t >= cutoff
        ]
        if desired < current_replicas:
            stabilized = max(r for _, r in self._recommendations)
            desired = min(current_replicas, max(desired, stabilized))
            reason = "scale-down (stabilized)"
        elif desired > current_replicas:
            reason = "scale-up"
        else:
            reason = "steady"
        return HPADecision(desired_replicas=desired, reason=reason)
