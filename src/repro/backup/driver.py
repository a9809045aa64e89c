"""The evaluation driver: the paper's §6.1 protocol, approach-agnostic.

Sequence (Fig. 11–14 methodology):

1. ingest backups until the retention window (100) is full;
2. while the dataset has more backups: logically delete the oldest
   ``turnover`` (20), run GC, ingest the next ``turnover``;
3. final round: delete the oldest ``turnover``, run GC — leaving
   ``retained − turnover`` (80) live backups;
4. restore every remaining backup and record per-backup reports.

The driver works against any :class:`~repro.backup.service.BackupService`
and any iterable of backups, so the same code runs all approaches over all
datasets (and the scaled-down test configurations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.backup.retention import RetentionPolicy
from repro.backup.service import BackupService
from repro.config import RetentionConfig
from repro.dedup.pipeline import IngestResult
from repro.gc.report import GCReport
from repro.model import ChunkRef
from repro.obs.metrics import rotation_metrics
from repro.restore.report import RestoreReport


@dataclass(frozen=True)
class BackupSpec:
    """One backup as produced by a workload: its source and chunk stream."""

    source: str
    chunks: tuple[ChunkRef, ...]

    @property
    def logical_bytes(self) -> int:
        return sum(chunk.size for chunk in self.chunks)


@dataclass
class RotationResult:
    """Everything the experiment harness reads off one protocol run."""

    approach: str
    dataset: str
    ingest_reports: list[IngestResult] = field(default_factory=list)
    gc_reports: list[GCReport] = field(default_factory=list)
    restore_reports: list[RestoreReport] = field(default_factory=list)
    dedup_ratio: float = 0.0
    physical_bytes: int = 0
    cumulative_logical_bytes: int = 0
    cumulative_stored_bytes: int = 0
    #: Aggregated per-run counters/histograms
    #: (:func:`repro.obs.metrics.rotation_metrics` form); carried through
    #: ``to_dict``/``from_dict``, so pooled runs keep their metrics.
    metrics: dict = field(default_factory=dict)

    @property
    def mean_read_amplification(self) -> float:
        """Average read-amplification factor over restored backups (Fig. 12)."""
        if not self.restore_reports:
            return 0.0
        return sum(r.read_amplification for r in self.restore_reports) / len(
            self.restore_reports
        )

    @property
    def restore_speed(self) -> float:
        """Aggregate restoration speed in bytes/simulated-second (Fig. 11)."""
        total_bytes = sum(r.logical_bytes for r in self.restore_reports)
        total_seconds = sum(r.read_seconds for r in self.restore_reports)
        if total_seconds == 0.0:
            return float("inf") if total_bytes else 0.0
        return total_bytes / total_seconds

    @property
    def gc_total_seconds(self) -> float:
        return sum(report.total_seconds for report in self.gc_reports)

    def to_dict(self) -> dict:
        """Deterministic plain-data form: every leaf is an int/float/str,
        so the dict round-trips exactly through JSON (the parallel matrix
        runner ships results this way)."""
        return {
            "approach": self.approach,
            "dataset": self.dataset,
            "ingest_reports": [r.to_dict() for r in self.ingest_reports],
            "gc_reports": [r.to_dict() for r in self.gc_reports],
            "restore_reports": [r.to_dict() for r in self.restore_reports],
            "dedup_ratio": self.dedup_ratio,
            "physical_bytes": self.physical_bytes,
            "cumulative_logical_bytes": self.cumulative_logical_bytes,
            "cumulative_stored_bytes": self.cumulative_stored_bytes,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RotationResult":
        return cls(
            approach=data["approach"],
            dataset=data["dataset"],
            ingest_reports=[IngestResult.from_dict(d) for d in data["ingest_reports"]],
            gc_reports=[GCReport.from_dict(d) for d in data["gc_reports"]],
            restore_reports=[
                RestoreReport.from_dict(d) for d in data["restore_reports"]
            ],
            dedup_ratio=data["dedup_ratio"],
            physical_bytes=data["physical_bytes"],
            cumulative_logical_bytes=data["cumulative_logical_bytes"],
            cumulative_stored_bytes=data["cumulative_stored_bytes"],
            metrics=dict(data.get("metrics", {})),
        )


class RotationDriver:
    """Runs the ingest/rotate/GC/restore protocol over one dataset."""

    def __init__(
        self,
        service: BackupService,
        retention: RetentionConfig,
        dataset_name: str = "",
    ):
        self.service = service
        self.policy = RetentionPolicy(retention)
        self.dataset_name = dataset_name

    def run(self, backups: Iterable[BackupSpec]) -> RotationResult:
        """Execute the full protocol; returns the collected result."""
        result = RotationResult(approach=self.service.name, dataset=self.dataset_name)
        iterator: Iterator[BackupSpec] = iter(backups)
        exhausted = False

        # Phase 1: fill the retention window.
        while len(self.service.live_backup_ids()) < self.policy.retained:
            spec = next(iterator, None)
            if spec is None:
                exhausted = True
                break
            result.ingest_reports.append(
                self.service.ingest(spec.chunks, source=spec.source)
            )

        # Phase 2: turnover rounds while backups remain.
        while not exhausted:
            batch: list[BackupSpec] = []
            for _ in range(self.policy.turnover):
                spec = next(iterator, None)
                if spec is None:
                    exhausted = True
                    break
                batch.append(spec)
            if not batch and exhausted:
                break
            self.service.delete_oldest(self.policy.turnover)
            result.gc_reports.append(self.service.run_gc())
            for spec in batch:
                result.ingest_reports.append(
                    self.service.ingest(spec.chunks, source=spec.source)
                )

        # Phase 3: the paper's final round — delete, GC, no new ingest.
        if self.service.live_backup_ids():
            self.service.delete_oldest(self.policy.turnover)
            result.gc_reports.append(self.service.run_gc())

        # Phase 4: restore every retained backup.
        for backup_id in self.service.live_backup_ids():
            result.restore_reports.append(self.service.restore(backup_id))

        stats = self.service.stats()
        result.dedup_ratio = stats.dedup_ratio
        result.physical_bytes = stats.physical_bytes
        result.cumulative_logical_bytes = stats.cumulative_logical_bytes
        result.cumulative_stored_bytes = stats.cumulative_stored_bytes
        result.metrics = rotation_metrics(
            result, stats, runtime=self.service.runtime_metrics()
        )
        return result
