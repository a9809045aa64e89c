"""Phase-scoped counters and histograms, aggregated per run.

:class:`MetricsRegistry` is a deliberately small aggregator: named counters
(ints or floats) and fixed-memory histograms (count/sum/min/max).  Both are
deterministic, mergeable, and serialize to plain JSON — the three
properties the experiment harness needs to carry metrics across pool
workers.

:func:`rotation_metrics` distils one protocol run's reports into a
registry: per-phase simulated seconds (the Fig. 14 currency), byte and
container counters per pipeline stage, and per-backup restore histograms
(the Fig. 12 distribution).  It is a pure function of the run's reports,
so round-tripped results rebuild byte-identical payloads.
"""

from __future__ import annotations

from typing import Mapping


class MetricsRegistry:
    """Named counters + histograms with deterministic JSON serialization."""

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def count(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: int | float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            self._histograms[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
            return
        hist["count"] += 1
        hist["sum"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter(self, name: str) -> int | float:
        """Current value of a counter (0 if never touched)."""
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> dict[str, float] | None:
        """Snapshot of one histogram (count/sum/min/max), or ``None``."""
        hist = self._histograms.get(name)
        return dict(hist) if hist is not None else None

    def mean(self, name: str) -> float:
        """Mean of a histogram's observations (0.0 when empty/absent)."""
        hist = self._histograms.get(name)
        if not hist or not hist["count"]:
            return 0.0
        return hist["sum"] / hist["count"]

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # ------------------------------------------------------------------
    # Merge / serialize
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry | Mapping") -> None:
        """Fold another registry (or its ``to_dict`` form) into this one."""
        data = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for name, value in data.get("counters", {}).items():
            self.count(name, value)
        for name, hist in data.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = dict(hist)
                continue
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            mine["min"] = min(mine["min"], hist["min"])
            mine["max"] = max(mine["max"], hist["max"])

    def to_dict(self) -> dict:
        """Sorted plain-data form; round-trips exactly through JSON."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "histograms": {
                k: dict(self._histograms[k]) for k in sorted(self._histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        registry = cls()
        registry.merge(data)
        return registry


def rotation_metrics(result, stats=None, runtime=None) -> dict:
    """Aggregate one protocol run into a metrics payload.

    ``result`` is a :class:`~repro.backup.driver.RotationResult` (typed
    loosely to keep this package dependency-free); ``stats`` an optional
    :class:`~repro.backup.service.ServiceStats` whose whole-run accounting
    lands under ``service.*`` counters; ``runtime`` an optional flat
    mapping of hot-path execution counters (index probes, interner size —
    see ``BackupService.runtime_metrics``) recorded under ``runtime.*``.
    Returns ``MetricsRegistry.to_dict()`` form, ready to store on the
    result.
    """
    registry = MetricsRegistry()

    for report in result.ingest_reports:
        registry.count("ingest.backups")
        registry.count("ingest.logical_bytes", report.logical_bytes)
        registry.count("ingest.stored_bytes", report.stored_bytes)
        registry.count("ingest.dedup_bytes", report.dedup_bytes)
        registry.count("ingest.rewritten_bytes", report.rewritten_bytes)
        registry.count("ingest.containers_written", report.containers_written)
        registry.observe("ingest.backup_stored_bytes", report.stored_bytes)

    for report in result.gc_reports:
        registry.count("gc.rounds")
        registry.count("gc.backups_purged", report.backups_purged)
        registry.count("gc.containers_involved", report.involved_containers)
        registry.count("gc.containers_reclaimed", report.reclaimed_containers)
        registry.count("gc.containers_produced", report.produced_containers)
        registry.count("gc.migrated_bytes", report.migrated_bytes)
        registry.count("gc.migrated_chunks", report.migrated_chunks)
        registry.count("gc.reclaimed_bytes", report.reclaimed_bytes)
        registry.count("phase_seconds.gc.mark", report.mark_seconds)
        registry.count("phase_seconds.gc.analyze", report.analyze_seconds)
        registry.count("phase_seconds.gc.sweep_read", report.sweep_read_seconds)
        registry.count("phase_seconds.gc.sweep_write", report.sweep_write_seconds)
        registry.observe("gc.round_seconds", report.total_seconds)

    for report in result.restore_reports:
        registry.count("restore.backups")
        registry.count("restore.containers_read", report.containers_read)
        registry.count("restore.container_bytes_read", report.container_bytes_read)
        registry.count("restore.logical_bytes", report.logical_bytes)
        registry.count("restore.cache_hits", report.cache_hits)
        registry.count("phase_seconds.restore", report.read_seconds)
        registry.observe("restore.read_amplification", report.read_amplification)
        registry.observe("restore.backup_seconds", report.read_seconds)

    if stats is not None:
        registry.count("service.cumulative_logical_bytes", stats.cumulative_logical_bytes)
        registry.count("service.cumulative_stored_bytes", stats.cumulative_stored_bytes)
        registry.count("service.physical_bytes", stats.physical_bytes)
        registry.count("service.dedup_ratio", stats.dedup_ratio)

    if runtime:
        for name in sorted(runtime):
            registry.count(f"runtime.{name}", runtime[name])

    return registry.to_dict()


def merge_metric_payloads(payloads) -> dict:
    """Fold many ``MetricsRegistry.to_dict()`` payloads into one.

    Counters sum, histograms combine (count/sum/min/max compose), and the
    result is in sorted ``to_dict`` form — so merging is associative and
    deterministic in any order.  The fleet runner uses this to roll
    per-shard metrics up into the fleet-wide payload.
    """
    registry = MetricsRegistry()
    for payload in payloads:
        registry.merge(payload)
    return registry.to_dict()
