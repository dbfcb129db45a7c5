"""Closed-form min-cost flow on the DSS-LC star graph.

DSS-LC (§5.2) models each LC request type ``k`` as a graph ``G_k``: the
origin master supplies its ``pending`` requests, and every eligible worker
is reached over a few parallel master→worker arcs whose costs rise with
depth (a convex load cost, see :mod:`repro.scheduling.dss_lc`).  A worker's
absorption bound covers the sum of its arcs, so no worker→sink arc ever
binds and the min-cost flow on this star is a fill of the arcs in ascending
cost.  :func:`solve_transport` computes that fill with numpy and returns
exactly the flow the successive-shortest-path solver in
:mod:`repro.flow.mcmf` finds on the lowered network (super-source → master
→ arcs → workers → super-sink), including its choice among equal-cost arcs.

Tie rule: arcs cheaper than the marginal arc (the one where the cumulative
fill reaches ``pending``) fill completely, so order only matters inside the
marginal equal-cost group.  SSP with Johnson potentials first takes the
lowest-index worker of that group that carries no flow from cheaper arcs —
its reduced Dijkstra distance is 0, while a worker already carrying flow has
a positive one — and then the rest of the group in worker-index order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["COST_SCALE", "TransportResult", "solve_transport"]

#: Multiplier converting float delays (ms) to integer costs (µs resolution).
COST_SCALE = 1000


class TransportResult(NamedTuple):
    """Outcome of :func:`solve_transport`."""

    #: requests each worker absorbs (int64, one entry per worker).
    absorbed: np.ndarray
    #: total integer cost, in ``1 / COST_SCALE`` ms.
    cost: int
    #: arcs carrying flow; equals the SSP solver's augmentation count, as
    #: each augmentation saturates one arc or uses up the supply.
    augmentations: int

    @property
    def placed(self) -> int:
        return int(self.absorbed.sum())

    @property
    def total_delay_ms(self) -> float:
        return self.cost / COST_SCALE


def solve_transport(
    pending: int, arc_caps: np.ndarray, arc_delay_ms: np.ndarray
) -> TransportResult:
    """Route ``pending`` requests over a star at minimum total delay.

    ``arc_caps`` and ``arc_delay_ms`` are ``(workers, arcs)`` arrays: row
    ``i`` holds the parallel master→worker ``i`` arcs, in strictly rising
    cost (so a worker's first arc of positive capacity is its cheapest).
    Costs are ``max(0, round(delay * COST_SCALE))``; zero-capacity arcs are
    absent from the network.
    """
    caps = np.asarray(arc_caps, dtype=np.int64)
    flat_caps = caps.ravel()
    live = np.flatnonzero(flat_caps)
    rows = live // caps.shape[1]
    live_caps = flat_caps[live]
    costs = np.rint(np.ravel(arc_delay_ms)[live] * COST_SCALE)
    costs = np.maximum(costs, 0).astype(np.int64)
    order = np.argsort(costs, kind="stable")
    fill = live_caps[order]
    costs = costs[order]
    cum = np.cumsum(fill)
    if cum.size and cum[-1] > pending:
        level = costs[np.searchsorted(cum, pending)]
        lo, hi = np.searchsorted(costs, (level, level + 1))
        # the lowest-index worker whose first arc sits in the marginal
        # group has no flow yet, so SSP takes it ahead of the group; a live
        # arc is its worker's first when the live arc before it is not
        arcs = order[lo:hi]
        untouched = np.flatnonzero((arcs == 0) | (rows[arcs - 1] != rows[arcs]))
        if untouched.size:
            lead = lo + int(untouched[0])
            for arr in (order, fill):  # move the lead arc to the front
                arr[lo : lead + 1] = arr[lead], *arr[lo:lead]
        group = fill[lo:hi]
        left = pending - (cum[lo - 1] if lo else 0)
        fill = fill[:hi]
        before = np.cumsum(group) - group
        fill[lo:] = np.minimum(group, np.maximum(0, left - before))
    absorbed = np.bincount(
        rows[order[: fill.size]], weights=fill, minlength=caps.shape[0]
    )
    return TransportResult(
        absorbed=absorbed.astype(np.int64),
        cost=int(fill @ costs[: fill.size]),
        augmentations=int(np.count_nonzero(fill)),
    )
