"""Pressure testing: derive latency tables the way the paper does (§6.1).

"To map the time taken to process requests in the simulation environment,
we record the time taken for each type of service to complete under
different loads and resources through pressure testing in the physical
environment."

This module reproduces that methodology against the *physical-equivalent*
substrate (a real :class:`WorkerNode` executing requests tick by tick):

* :class:`PressureTester` sweeps (allocation fraction × background load)
  for a service and records measured completion times;
* :class:`TableLatencyModel` is a drop-in :class:`LatencyModel` replacement
  that bilinearly interpolates the recorded table — attach it to nodes via
  ``WorkerNode(latency_model=...)`` to run experiments on measured rather
  than parametric curves.

The derived table should (and the tests verify it does) reproduce the
parametric model it was measured from — the same closure the paper gets
between its physical clusters and twin space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.sim.latency import LatencyModel
from repro.workloads.spec import ServiceSpec

__all__ = ["PressureTester", "PressurePoint", "TableLatencyModel"]


@dataclass(frozen=True)
class PressurePoint:
    """One measured cell of the sweep."""

    allocation_fraction: float
    background_utilization: float
    processing_ms: float


class PressureTester:
    """Sweep a service's processing time over allocation × load."""

    def __init__(
        self,
        *,
        latency_model: Optional[LatencyModel] = None,
        tick_ms: float = 5.0,
    ) -> None:
        self.latency_model = latency_model or LatencyModel()
        self.tick_ms = tick_ms

    def measure_once(
        self,
        spec: ServiceSpec,
        allocation_fraction: float,
        background_utilization: float,
    ) -> float:
        """Run one request to completion under fixed conditions (ms).

        Executes the actual work loop (remaining -= dt × speed), i.e. the
        same mechanics a worker node applies, not a closed-form shortcut —
        so a change to the node execution path shows up here.
        """
        allocation = spec.reference_resources * allocation_fraction
        remaining = spec.base_service_ms
        elapsed = 0.0
        # hard bound: a request that makes no progress is "infinite"
        limit = spec.base_service_ms * 1_000.0
        while remaining > 1e-9:
            speed = self.latency_model.speed(
                spec, allocation, background_utilization
            )
            if speed <= 0.0:
                return float("inf")
            remaining -= self.tick_ms * speed
            elapsed += self.tick_ms
            if elapsed > limit:
                return float("inf")
        return elapsed

    def sweep(
        self,
        spec: ServiceSpec,
        allocation_fractions: Sequence[float] = (0.4, 0.6, 0.8, 1.0, 1.2),
        background_utilizations: Sequence[float] = (0.0, 0.5, 0.8, 0.95),
    ) -> List[PressurePoint]:
        points: List[PressurePoint] = []
        for frac in allocation_fractions:
            for util in background_utilizations:
                points.append(
                    PressurePoint(
                        allocation_fraction=frac,
                        background_utilization=util,
                        processing_ms=self.measure_once(spec, frac, util),
                    )
                )
        return points


class TableLatencyModel(LatencyModel):
    """Latency model backed by measured pressure tables.

    For services with a table, ``speed`` is derived from bilinear
    interpolation of the measured processing time; unknown services fall
    back to the parametric model.
    """

    def __init__(self) -> None:
        super().__init__()
        self._tables: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def fit(self, spec: ServiceSpec, points: Sequence[PressurePoint]) -> None:
        fracs = sorted({p.allocation_fraction for p in points})
        utils = sorted({p.background_utilization for p in points})
        grid = np.full((len(fracs), len(utils)), np.nan)
        for p in points:
            i = fracs.index(p.allocation_fraction)
            j = utils.index(p.background_utilization)
            grid[i, j] = p.processing_ms
        if np.isnan(grid).any():
            raise ValueError("pressure sweep grid is incomplete")
        self._tables[spec.name] = (
            np.asarray(fracs), np.asarray(utils), grid
        )

    def speed(
        self,
        spec: ServiceSpec,
        allocation: ResourceVector,
        node_utilization: float,
    ) -> float:
        table = self._tables.get(spec.name)
        if table is None:
            return super().speed(spec, allocation, node_utilization)
        fracs, utils, grid = table
        ref_cpu = max(spec.reference_resources.cpu, 1e-9)
        frac = allocation.cpu / ref_cpu
        if allocation.cpu <= 0:
            return 0.0
        processing = self._interp2(fracs, utils, grid, frac, node_utilization)
        if not np.isfinite(processing) or processing <= 0:
            return 0.0
        return spec.base_service_ms / processing

    @staticmethod
    def _interp2(
        xs: np.ndarray, ys: np.ndarray, grid: np.ndarray, x: float, y: float
    ) -> float:
        """Bilinear interpolation with edge clamping."""
        x = float(np.clip(x, xs[0], xs[-1]))
        y = float(np.clip(y, ys[0], ys[-1]))
        i = int(np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2))
        j = int(np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2))
        tx = (x - xs[i]) / (xs[i + 1] - xs[i]) if xs[i + 1] > xs[i] else 0.0
        ty = (y - ys[j]) / (ys[j + 1] - ys[j]) if ys[j + 1] > ys[j] else 0.0
        # replace infs (unrunnable cells) with a huge finite number so the
        # interpolation degrades smoothly at the boundary
        cell = np.where(np.isfinite(grid), grid, 1e12)
        top = cell[i, j] * (1 - tx) + cell[i + 1, j] * tx
        bottom = cell[i, j + 1] * (1 - tx) + cell[i + 1, j + 1] * tx
        return float(top * (1 - ty) + bottom * ty)
