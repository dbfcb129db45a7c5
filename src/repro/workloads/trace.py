"""Synthetic workload trace generator — the Google 2019 cluster-data stand-in.

The paper drives its experiments with ``<EventType, SCHEDULE>`` /
``<CollectionType, JOB>`` records from the 2019 Google cluster trace (8.08 GB
of raw data, §6.2).  That trace cannot ship with this reproduction, so we
generate records with the same *structure and marginals the paper actually
uses*:

* 10 service types from :mod:`repro.workloads.spec`, split LC/BE by
  ``LatencySensitivity`` tier;
* a diurnal arrival-rate curve (Fig. 1(a): pronounced afternoon/evening
  peaks, overall resource usage < 20 % when LC runs alone);
* per-cluster geographic load skew (§1: "user requests' loads are uneven and
  fluctuating across geographical locations") via cluster-specific phase
  offsets and weights;
* heavy-tailed arrival bursts (Gamma-modulated Poisson) matching the bursty
  industrial traces.

Every record is a :class:`TraceRecord`; the generator is deterministic for a
given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .spec import ServiceKind, ServiceSpec, default_catalog

__all__ = ["TraceRecord", "TraceConfig", "SyntheticTrace", "diurnal_rate"]


@dataclass(frozen=True)
class TraceRecord:
    """One SCHEDULE event: a request for a service arriving at a cluster."""

    time_ms: float
    cluster_id: int
    service: str
    kind: ServiceKind
    #: trace-reported resource expectation (what K8s-native would reserve).
    cpu: float
    memory: float


@dataclass
class TraceConfig:
    n_clusters: int = 4
    duration_ms: float = 120_000.0
    #: mean LC arrivals per second per cluster at the diurnal peak.
    lc_peak_rps: float = 30.0
    #: mean BE arrivals per second per cluster at the diurnal peak.
    be_peak_rps: float = 8.0
    #: simulated trace start, as hour-of-day (controls the diurnal phase).
    start_hour: float = 12.0
    #: how many trace hours elapse per simulated wall-clock second; the
    #: experiments compress a day into a couple of minutes.
    hours_per_second: float = 0.2
    seed: int = 0
    burstiness: float = 0.35


def diurnal_rate(hour: float) -> float:
    """Relative load at an hour of day, normalised to peak 1.0.

    Two-humped curve with an afternoon and an evening peak and a deep night
    trough, matching the measured industrial utilisation curve in Fig. 1(a).
    """
    h = hour % 24.0
    afternoon = math.exp(-((h - 15.0) ** 2) / (2 * 3.0**2))
    evening = math.exp(-((h - 20.5) ** 2) / (2 * 2.0**2))
    base = 0.25
    value = base + 0.9 * afternoon + 0.75 * evening
    return min(1.0, value)


class SyntheticTrace:
    """Deterministic request trace over multiple clusters."""

    def __init__(
        self,
        config: Optional[TraceConfig] = None,
        catalog: Optional[Sequence[ServiceSpec]] = None,
    ) -> None:
        self.config = config or TraceConfig()
        self.catalog = list(catalog or default_catalog())
        self._lc_specs = [s for s in self.catalog if s.kind is ServiceKind.LC]
        self._be_specs = [s for s in self.catalog if s.kind is ServiceKind.BE]
        if not self._lc_specs or not self._be_specs:
            raise ValueError("catalog must contain both LC and BE services")
        rng = np.random.default_rng(self.config.seed)
        # per-cluster load weight and diurnal phase offset (geographic skew)
        self._cluster_weight = 0.5 + rng.random(self.config.n_clusters)
        self._cluster_weight /= self._cluster_weight.mean()
        self._cluster_phase = rng.uniform(-2.0, 2.0, size=self.config.n_clusters)
        # per-type popularity follows a Zipf-ish profile
        self._lc_pop = self._popularity(len(self._lc_specs), rng)
        self._be_pop = self._popularity(len(self._be_specs), rng)
        self._rng = rng

    @staticmethod
    def _popularity(n: int, rng: np.random.Generator) -> np.ndarray:
        weights = 1.0 / np.arange(1, n + 1) ** 0.8
        perm = rng.permutation(n)
        weights = weights[perm]
        return weights / weights.sum()

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def hour_at(self, time_ms: float) -> float:
        cfg = self.config
        return cfg.start_hour + (time_ms / 1000.0) * cfg.hours_per_second

    def rate_at(self, time_ms: float, cluster_id: int, kind: ServiceKind) -> float:
        """Instantaneous arrival rate (requests/sec) for a cluster and kind."""
        cfg = self.config
        hour = self.hour_at(time_ms) + self._cluster_phase[cluster_id]
        shape = diurnal_rate(hour)
        peak = cfg.lc_peak_rps if kind is ServiceKind.LC else cfg.be_peak_rps
        return peak * shape * self._cluster_weight[cluster_id]

    def generate(self) -> List[TraceRecord]:
        """Materialise the whole trace, sorted by arrival time."""
        return sorted(self.iter_records(), key=lambda r: r.time_ms)

    def iter_records(self) -> Iterator[TraceRecord]:
        cfg = self.config
        step_ms = 100.0
        n_steps = int(cfg.duration_ms / step_ms)
        for cluster in range(cfg.n_clusters):
            # independent stream per cluster for reproducible composition
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, cluster, 77])
            )
            for kind, specs, pop in (
                (ServiceKind.LC, self._lc_specs, self._lc_pop),
                (ServiceKind.BE, self._be_specs, self._be_pop),
            ):
                for step in range(n_steps):
                    t0 = step * step_ms
                    lam = self.rate_at(t0, cluster, kind) * (step_ms / 1000.0)
                    if cfg.burstiness > 0:
                        lam *= rng.gamma(
                            1.0 / cfg.burstiness, cfg.burstiness
                        )
                    count = rng.poisson(lam)
                    if count == 0:
                        continue
                    type_ids = rng.choice(len(specs), size=count, p=pop)
                    offsets = rng.uniform(0.0, step_ms, size=count)
                    for tid, off in zip(type_ids, offsets):
                        spec = specs[tid]
                        jitter = rng.uniform(0.85, 1.25)
                        yield TraceRecord(
                            time_ms=t0 + float(off),
                            cluster_id=cluster,
                            service=spec.name,
                            kind=kind,
                            cpu=spec.reference_resources.cpu * jitter,
                            memory=spec.reference_resources.memory * jitter,
                        )

    # ------------------------------------------------------------------ #
    # summaries (used by the Fig. 1 reproduction)
    # ------------------------------------------------------------------ #
    def utilization_profile(
        self, capacity_cpu_per_cluster: float, bucket_ms: float = 1000.0
    ) -> Dict[str, np.ndarray]:
        """LC-only CPU demand over capacity, bucketed — Fig. 1(a)'s quantity."""
        cfg = self.config
        n_buckets = int(cfg.duration_ms / bucket_ms)
        demand = np.zeros(n_buckets)
        for rec in self.iter_records():
            if rec.kind is not ServiceKind.LC:
                continue
            bucket = min(n_buckets - 1, int(rec.time_ms / bucket_ms))
            spec = next(s for s in self._lc_specs if s.name == rec.service)
            demand[bucket] += rec.cpu * spec.base_service_ms / bucket_ms
        total_capacity = capacity_cpu_per_cluster * cfg.n_clusters
        hours = np.array(
            [self.hour_at(i * bucket_ms) for i in range(n_buckets)]
        )
        return {"hours": hours, "utilization": demand / total_capacity}
