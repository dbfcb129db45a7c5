"""QoS re-assurance mechanism — Algorithm 1 of the paper (§4.3).

For every worker node and LC service, the mechanism compares the slack score
δ against two empirical thresholds:

* ``δ < α``  (poor)      → *increase* the minimum requested resource amount;
* ``δ > β``  (excellent) → *decrease* it;
* otherwise  (stable)    → leave it alone.

"To minimize resource perturbations, the mechanism operates at a high
frequency with a small proportion": adjustments are multiplicative with a
small step and clamped between a floor (a fraction of the catalog minimum)
and a ceiling (a multiple of the reference allocation).

The adjusted minima live in per-service float64 columns indexed by a node
slot, so DSS-LC reads a whole node list's minima with one gather instead of
a per-node lookup.  Slots are handed out on first sight of a node name and
never move, so a slot array cached by a consumer stays valid across
``reset`` and ``restore_state``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.obs.emitter import NULL_EMITTER
from repro.workloads.spec import ServiceSpec

from .qos import QoSDetector

__all__ = [
    "ReassuranceConfig",
    "ReassuranceMechanism",
    "LEVEL_POOR",
    "LEVEL_STABLE",
    "LEVEL_EXCELLENT",
]


@dataclass
class ReassuranceConfig:
    #: slack below which performance is "poor" (α in Algorithm 1).  The
    #: paper sets the thresholds empirically; α=0.25 reacts before the p95
    #: actually crosses the target (slack < 0), keeping violations rare.
    alpha: float = 0.25
    #: slack above which performance is "excellent" (β in Algorithm 1):
    #: above it the service is over-provisioned and its minimum shrinks,
    #: freeing resources for BE work.
    beta: float = 0.45
    #: multiplicative step applied on each adjustment ("small proportion").
    increase_step: float = 1.10
    decrease_step: float = 0.96
    #: bounds relative to the catalog values.
    floor_fraction: float = 0.6
    ceiling_multiple: float = 1.6
    #: how often the mechanism runs (ms); paper: every 100 ms window.
    period_ms: float = 100.0


# Quality-performance levels from §4.3 (kept as plain strings so they can be
# used directly as dict keys in counters and reports).
LEVEL_POOR = "poor"
LEVEL_STABLE = "stable"
LEVEL_EXCELLENT = "excellent"


class ReassuranceMechanism:
    """Maintains the adjusted per-(node, service) minimum request amounts."""

    def __init__(
        self,
        detector: QoSDetector,
        config: Optional[ReassuranceConfig] = None,
    ) -> None:
        self.detector = detector
        self.config = config or ReassuranceConfig()
        if not self.config.alpha < self.config.beta:
            raise ValueError("require alpha < beta")
        #: node name -> slot (column index); append-only, so insertion
        #: order is slot order.
        self._slots: Dict[str, int] = {}
        #: service name -> ``(2, capacity)`` adjusted minima, rows cpu and
        #: memory; NaN marks a cell never adjusted.
        self._columns: Dict[str, np.ndarray] = {}
        self._last_run_ms: float = -1e18
        self.adjustments = {LEVEL_POOR: 0, LEVEL_EXCELLENT: 0, LEVEL_STABLE: 0}
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER
        #: last known level per (node, service); only maintained when the
        #: emitter is live, to publish level *transitions* rather than the
        #: stable-state classification of every pass.
        self._levels: Dict[Tuple[str, str], str] = {}

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    def min_resources(self, node: str, spec: ServiceSpec) -> ResourceVector:
        """Current minimum allocation for one request of ``spec`` on node."""
        column = self._columns.get(spec.name)
        slot = self._slots.get(node)
        if column is None or slot is None:
            return spec.min_resources
        cell = column[:, slot].tolist()
        if cell[0] != cell[0]:  # NaN: never adjusted
            return spec.min_resources
        return ResourceVector(*cell)

    def slots_of(self, nodes: Sequence[str]) -> np.ndarray:
        """Column slots of ``nodes``, assigning one to each new name."""
        return np.array([self._slot(n) for n in nodes], dtype=np.intp)

    def minima(
        self, spec: ServiceSpec, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(cpu, memory) minima of ``spec`` at ``slots``: one gather each.

        Unadjusted cells fall back to the catalog minimum, exactly as
        :meth:`min_resources` does.
        """
        base = spec.min_resources
        column = self._columns.get(spec.name)
        if column is None:
            return (
                np.full(len(slots), base.cpu, dtype=np.float64),
                np.full(len(slots), base.memory, dtype=np.float64),
            )
        # row-then-gather is a plain 1-D take (far cheaper than 2-D
        # indexing); the gathered copies are then filled in place.
        cpu, mem = column[0][slots], column[1][slots]
        np.copyto(cpu, base.cpu, where=np.isnan(cpu))
        np.copyto(mem, base.memory, where=np.isnan(mem))
        return cpu, mem

    def _slot(self, node: str) -> int:
        slot = self._slots.get(node)
        if slot is None:
            slot = self._slots[node] = len(self._slots)
            for name, column in self._columns.items():
                if slot >= column.shape[1]:
                    grown = np.full((2, 2 * column.shape[1]), np.nan)
                    grown[:, : column.shape[1]] = column
                    self._columns[name] = grown
        return slot

    def classify(
        self,
        node: str,
        spec: ServiceSpec,
        *,
        now_ms: Optional[float] = None,
    ) -> str:
        slack = self.detector.slack_score(node, spec.name, spec, now_ms=now_ms)
        if slack is None:
            return LEVEL_STABLE
        if slack < self.config.alpha:
            return LEVEL_POOR
        if slack > self.config.beta:
            return LEVEL_EXCELLENT
        return LEVEL_STABLE

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def run(
        self,
        now_ms: float,
        nodes: Dict[str, Dict[str, ServiceSpec]],
    ) -> int:
        """One pass over (node, LC service) pairs; returns adjustment count.

        ``nodes`` maps node name → {service name: spec} for the LC services
        active on that node.  Respects the configured period: calls between
        periods are no-ops, so the caller can invoke it every tick.
        """
        if now_ms - self._last_run_ms < self.config.period_ms:
            return 0
        self._last_run_ms = now_ms
        changed = 0
        for node, services in nodes.items():
            for name, spec in services.items():
                if not spec.is_lc:
                    continue
                level = self.classify(node, spec, now_ms=now_ms)
                self.adjustments[level] += 1
                if level == LEVEL_POOR:
                    self._scale(node, spec, self.config.increase_step)
                    changed += 1
                elif level == LEVEL_EXCELLENT:
                    self._scale(node, spec, self.config.decrease_step)
                    changed += 1
                if self.emitter.enabled:
                    key = (node, name)
                    previous = self._levels.get(key, LEVEL_STABLE)
                    if level != previous:
                        self._levels[key] = level
                        self.emitter.reassurance_transition(
                            now_ms, node, name, previous, level
                        )
        return changed

    def _scale(self, node: str, spec: ServiceSpec, factor: float) -> None:
        current = self.min_resources(node, spec)
        scaled = current * factor
        floor = spec.min_resources * self.config.floor_fraction
        ceiling = spec.reference_resources * self.config.ceiling_multiple
        self._write(node, spec.name, scaled.max_with(floor).min_with(ceiling))

    def _write(self, node: str, service: str, value: ResourceVector) -> None:
        slot = self._slot(node)  # first: a new slot may grow the columns
        column = self._columns.get(service)
        if column is None:
            column = np.full((2, max(8, len(self._slots))), np.nan)
            self._columns[service] = column
        column[:, slot] = value.as_tuple()

    def reset(self, node: Optional[str] = None) -> None:
        if node is None:
            self._columns.clear()
        elif node in self._slots:
            for column in self._columns.values():
                column[:, self._slots[node]] = np.nan

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """The adjusted minima as a ``{(node, service): ResourceVector}``
        mapping, so the checkpoint format does not depend on slot layout."""
        names = list(self._slots)
        adjusted = {}
        for service, column in self._columns.items():
            for slot in np.flatnonzero(~np.isnan(column[0])).tolist():
                adjusted[(names[slot], service)] = ResourceVector(
                    *column[:, slot].tolist()
                )
        return {
            "min_resources": adjusted,
            "last_run_ms": self._last_run_ms,
            "adjustments": self.adjustments,
            "levels": self._levels,
        }

    def restore_state(self, state: Dict) -> None:
        # slots stay as assigned (new names get new ones), so slot arrays
        # cached by consumers remain valid; only the cells are rebuilt.
        # Checkpoints from older builds also carry a "version" counter,
        # which nothing reads any more.
        self._columns.clear()
        for (node, service), value in state["min_resources"].items():
            self._write(node, service, value)
        self._last_run_ms = state["last_run_ms"]
        self.adjustments = state["adjustments"]
        self._levels = state["levels"]
