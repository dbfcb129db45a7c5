"""Scheduler interfaces shared by DSS-LC, DCG-BE, and all baselines.

Two scheduler roles exist (§3):

* an **LC scheduler** runs on *every* master node and dispatches that
  cluster's LC queue to workers in the local or geo-nearby clusters, using
  the state storage snapshot;
* a **BE scheduler** runs once, on the central cluster's master, and
  dispatches the globally forwarded BE queue to any worker in the system.

Both return :class:`Assignment` lists; requests left unassigned stay in the
master queue and are re-offered next tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence

from repro.core.state_storage import SystemSnapshot
from repro.sim.request import ServiceRequest

__all__ = ["Assignment", "LCScheduler", "BEScheduler", "group_by_type"]


@dataclass(frozen=True)
class Assignment:
    request: ServiceRequest
    node_name: str
    #: cluster hosting the node (denormalised for delay lookup).
    cluster_id: int
    #: flow-edge cost the decision paid (one-way delay, ms); carried so the
    #: observability layer can attach the MCMF cost to the schedule span.
    cost_ms: float = 0.0


class LCScheduler(Protocol):
    """Distributed per-master LC dispatch policy."""

    def dispatch(
        self,
        origin_cluster: int,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        eligible_clusters: Sequence[int],
        now_ms: float,
    ) -> List[Assignment]:
        ...


class BEScheduler(Protocol):
    """Centralised BE dispatch policy at the central cluster.

    A policy with ``distributed = True`` (DSACO) has no central role: the
    runner calls its ``LCScheduler.dispatch`` once per origin cluster.
    """

    def dispatch_be(
        self,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        now_ms: float,
    ) -> List[Assignment]:
        ...


def group_by_type(
    requests: Sequence[ServiceRequest],
) -> Dict[str, List[ServiceRequest]]:
    """Group a queue by service type (the per-k loop of Alg. 2)."""
    groups: Dict[str, List[ServiceRequest]] = {}
    for request in requests:
        groups.setdefault(request.spec.name, []).append(request)
    return groups
