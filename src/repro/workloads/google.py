"""Adapter for the real 2019 Google cluster-data trace (§6.2).

The paper extracts ``<EventType, SCHEDULE>`` / ``<CollectionType, JOB>``
records from the 2019 Google trace and classifies services into 10 LC/BE
categories via the ``LatencySensitivity`` field (tiers 0-3).  The raw trace
is 8 GB and cannot ship with this repository, so experiments default to
:class:`repro.workloads.trace.SyntheticTrace`; this module lets anyone who
*has* the trace (or any CSV in the same shape) drive the simulator with it.

Expected CSV columns (header required, extra columns ignored)::

    time,collection_id,event_type,collection_type,latency_sensitivity,
    resource_request_cpu,resource_request_memory[,cluster]

* ``time`` — microseconds since trace start (Google convention);
* rows are kept when ``event_type == "SCHEDULE"`` and
  ``collection_type == "JOB"`` (string or numeric encodings accepted);
* ``latency_sensitivity`` 2-3 → LC, 0-1 → BE (the paper's split);
* CPU is in normalized Google units (fraction of a reference machine) and
  is rescaled by ``cpu_scale`` cores; memory likewise by ``memory_scale``;
* ``cluster`` (optional) assigns the origin cluster; otherwise requests are
  sharded over ``n_clusters`` by ``collection_id``.

Within each LC/BE class, records are mapped onto the catalog's service
types by binning their CPU request — preserving the resource-demand
heterogeneity that drives the experiments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO, Union

from .spec import ServiceKind, ServiceSpec, default_catalog
from .trace import TraceRecord

__all__ = ["GoogleTraceConfig", "GoogleTraceLoader", "TraceFormatError"]

_SCHEDULE_CODES = {"SCHEDULE", "3", 3}
_JOB_CODES = {"JOB", "1", 1}

_REQUIRED_COLUMNS = (
    "time",
    "collection_id",
    "event_type",
    "collection_type",
    "latency_sensitivity",
    "resource_request_cpu",
    "resource_request_memory",
)


class TraceFormatError(ValueError):
    """Raised when the CSV is missing required columns or has bad values."""


@dataclass
class GoogleTraceConfig:
    n_clusters: int = 4
    #: cores represented by one normalized Google CPU unit.
    cpu_scale: float = 16.0
    #: MiB represented by one normalized Google memory unit.
    memory_scale: float = 32768.0
    #: trace timestamps are µs; experiments run in ms.  ``time_compression``
    #: additionally squeezes trace time (the paper compresses a day of trace
    #: into minutes of experiment).
    time_compression: float = 1000.0
    #: drop records beyond this experiment time (ms); None keeps everything.
    max_time_ms: Optional[float] = None


class GoogleTraceLoader:
    """Stream SCHEDULE/JOB records from a Google-format CSV."""

    def __init__(
        self,
        config: Optional[GoogleTraceConfig] = None,
        catalog: Optional[Sequence[ServiceSpec]] = None,
    ) -> None:
        self.config = config or GoogleTraceConfig()
        self.catalog = list(catalog or default_catalog())
        self._lc = sorted(
            (s for s in self.catalog if s.kind is ServiceKind.LC),
            key=lambda s: s.reference_resources.cpu,
        )
        self._be = sorted(
            (s for s in self.catalog if s.kind is ServiceKind.BE),
            key=lambda s: s.reference_resources.cpu,
        )
        self.skipped_rows = 0

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load(self, source: Union[str, Path, TextIO]) -> List[TraceRecord]:
        records = sorted(self.iter_records(source), key=lambda r: r.time_ms)
        return records

    def iter_records(
        self, source: Union[str, Path, TextIO]
    ) -> Iterator[TraceRecord]:
        if isinstance(source, (str, Path)):
            with open(source, newline="") as handle:
                yield from self._iter_reader(csv.DictReader(handle))
        else:
            yield from self._iter_reader(csv.DictReader(source))

    def _iter_reader(self, reader: csv.DictReader) -> Iterator[TraceRecord]:
        if reader.fieldnames is None:
            raise TraceFormatError("empty CSV (no header row)")
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise TraceFormatError(f"missing required columns: {missing}")
        has_cluster = "cluster" in reader.fieldnames
        cfg = self.config
        for row in reader:
            if str(row["event_type"]).strip() not in _SCHEDULE_CODES:
                continue
            if str(row["collection_type"]).strip() not in _JOB_CODES:
                continue
            try:
                time_ms = float(row["time"]) / 1000.0 / cfg.time_compression
                tier = int(float(row["latency_sensitivity"]))
                cpu = float(row["resource_request_cpu"]) * cfg.cpu_scale
                memory = (
                    float(row["resource_request_memory"]) * cfg.memory_scale
                )
                collection = int(float(row["collection_id"]))
            except (TypeError, ValueError):
                self.skipped_rows += 1
                continue
            if cfg.max_time_ms is not None and time_ms > cfg.max_time_ms:
                continue
            if has_cluster and row.get("cluster", "") != "":
                cluster = int(float(row["cluster"])) % cfg.n_clusters
            else:
                cluster = collection % cfg.n_clusters
            spec = self._classify(tier, cpu)
            yield TraceRecord(
                time_ms=time_ms,
                cluster_id=cluster,
                service=spec.name,
                kind=spec.kind,
                cpu=max(cpu, 0.05),
                memory=max(memory, 16.0),
            )

    # ------------------------------------------------------------------ #
    # classification (the paper's 10-category split)
    # ------------------------------------------------------------------ #
    def _classify(self, tier: int, cpu: float) -> ServiceSpec:
        """Tier → LC/BE; CPU request → service bin within the class."""
        family = self._lc if tier >= 2 else self._be
        for spec in family:
            if cpu <= spec.reference_resources.cpu * 1.25:
                return spec
        return family[-1]
