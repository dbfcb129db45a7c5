"""The three request patterns used in the HRM experiments (§7.1, Fig. 9(a)).

* **P1** — LC requests arrive *periodically* (a smooth sinusoidal schedule),
  BE requests arrive *randomly* (Poisson at constant mean).
* **P2** — BE periodic, LC random.
* **P3** — both random.

Each pattern yields per-tick arrival counts for one physical-scale cluster.
Rates are expressed in requests/second and converted by the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .spec import ServiceKind, ServiceSpec, default_catalog
from .trace import TraceRecord

__all__ = ["PatternKind", "PatternConfig", "PatternWorkload"]


class PatternKind(str, Enum):
    P1 = "P1"  # LC periodic, BE random
    P2 = "P2"  # BE periodic, LC random
    P3 = "P3"  # both random


@dataclass
class PatternConfig:
    pattern: PatternKind = PatternKind.P1
    duration_ms: float = 60_000.0
    lc_mean_rps: float = 8.0
    be_mean_rps: float = 2.0
    #: period of the sinusoidal component (ms).
    period_ms: float = 8_000.0
    #: peak-to-mean ratio of the periodic component.
    amplitude: float = 0.8
    seed: int = 0


class PatternWorkload:
    """Generate a trace for one of the P1/P2/P3 patterns on one cluster."""

    def __init__(
        self,
        config: Optional[PatternConfig] = None,
        catalog: Optional[List[ServiceSpec]] = None,
    ) -> None:
        self.config = config or PatternConfig()
        self.catalog = list(catalog or default_catalog())
        self._lc = [s for s in self.catalog if s.kind is ServiceKind.LC]
        self._be = [s for s in self.catalog if s.kind is ServiceKind.BE]

    def _periodic(self, t_ms: float, mean_rps: float) -> float:
        cfg = self.config
        phase = 2.0 * math.pi * t_ms / cfg.period_ms
        return max(0.0, mean_rps * (1.0 + cfg.amplitude * math.sin(phase)))

    def rates_at(self, t_ms: float) -> Tuple[float, float]:
        """(lc_rps, be_rps) at time t under the configured pattern."""
        cfg = self.config
        if cfg.pattern is PatternKind.P1:
            return self._periodic(t_ms, cfg.lc_mean_rps), cfg.be_mean_rps
        if cfg.pattern is PatternKind.P2:
            return cfg.lc_mean_rps, self._periodic(t_ms, cfg.be_mean_rps)
        return cfg.lc_mean_rps, cfg.be_mean_rps

    def generate(self, cluster_id: int = 0) -> List[TraceRecord]:
        cfg = self.config
        # stable per-pattern stream (str.__hash__ is randomised per process
        # and must never reach a seed)
        pattern_index = list(PatternKind).index(cfg.pattern)
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, pattern_index])
        )
        records: List[TraceRecord] = []
        step_ms = 100.0
        for step in range(int(cfg.duration_ms / step_ms)):
            t0 = step * step_ms
            lc_rps, be_rps = self.rates_at(t0)
            for kind, rps, specs in (
                (ServiceKind.LC, lc_rps, self._lc),
                (ServiceKind.BE, be_rps, self._be),
            ):
                lam = rps * step_ms / 1000.0
                # random components are Poisson; periodic components are
                # near-deterministic (small dispersion around the schedule)
                periodic = (
                    (cfg.pattern is PatternKind.P1 and kind is ServiceKind.LC)
                    or (cfg.pattern is PatternKind.P2 and kind is ServiceKind.BE)
                )
                if periodic:
                    count = int(lam) + (1 if rng.random() < (lam % 1.0) else 0)
                else:
                    count = int(rng.poisson(lam))
                for _ in range(count):
                    spec = specs[int(rng.integers(len(specs)))]
                    jitter = float(rng.uniform(0.9, 1.15))
                    records.append(
                        TraceRecord(
                            time_ms=t0 + float(rng.uniform(0, step_ms)),
                            cluster_id=cluster_id,
                            service=spec.name,
                            kind=kind,
                            cpu=spec.reference_resources.cpu * jitter,
                            memory=spec.reference_resources.memory * jitter,
                        )
                    )
        records.sort(key=lambda r: r.time_ms)
        return records
