"""The container-based backup service.

Wires together every substrate — simulated disk, container store, fingerprint
index, recipes, ingest pipeline (with an optional rewriting policy), restore
engine and mark–sweep GC (with a migration strategy) — into the facade the
evaluation driver consumes.  All six container-based configurations of the paper's §6.1
are instances of this class differing only in two plugins:

=============  ===================  =========================
approach       rewriting policy     migration strategy
=============  ===================  =========================
Non-dedup      None (no dedup)      NaiveMigration
Naïve          None                 NaiveMigration
Capping        CappingRewriting     NaiveMigration
HAR            HARRewriting         NaiveMigration
SMR            SMRRewriting         NaiveMigration
GCCDF          None                 GCCDFMigration
=============  ===================  =========================
"""

from __future__ import annotations

from repro.backup.options import DEDUP_MODES, GC_MODES
from repro.backup.service import BackupService, ChunkStream, ServiceStats
from repro.config import SystemConfig
from repro.dedup.hybrid import HybridState
from repro.dedup.pipeline import IngestPipeline, IngestResult
from repro.dedup.rewriting.base import RewritingPolicy
from repro.errors import BackupAlreadyDeletedError, ConfigError
from repro.gc.engine import MarkSweepGC
from repro.gc.incremental import GCBudget, IncrementalGC
from repro.gc.migration import MigrationStrategy
from repro.gc.report import GCReport
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.restore.engine import RestoreEngine
from repro.restore.report import RestoreReport
from repro.serve.cache import TieredReadCache
from repro.serve.reader import BackupReader, ContainerReadStrategy
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore


class DedupBackupService(BackupService):
    """Container-based deduplicating backup storage."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        rewriting: RewritingPolicy | None = None,
        migration: MigrationStrategy | None = None,
        dedup_enabled: bool = True,
        name: str = "naive",
        tracer: Tracer | None = None,
        gc_mode: str = "stw",
        gc_budget: GCBudget | None = None,
        dedup_mode: str = "inline",
        read_cache_containers: int | None = 8,
        read_cache_chunks: int | None = 1024,
    ):
        self.config = config or SystemConfig.scaled()
        self.config.validate()
        if gc_mode not in GC_MODES:
            raise ConfigError(f"unknown gc_mode {gc_mode!r}; choose one of {GC_MODES}")
        if dedup_mode not in DEDUP_MODES:
            raise ConfigError(
                f"unknown dedup_mode {dedup_mode!r}; choose one of {DEDUP_MODES}"
            )
        self.name = name
        # Explicit None test: an empty TraceRecorder is falsy (len == 0).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.disk = DiskModel(self.config.disk, tracer=self.tracer)
        self.recipes = RecipeStore()
        # Containers hold chunk ids in the recipes' interned id space, so GC
        # validity partitioning runs as set algebra.
        self.store = ContainerStore(self.config.container_size, self.disk)
        self.index = FingerprintIndex()
        # Hybrid dedup state exists only when the mode can actually take
        # effect: it needs dedup, so non-dedup services never defer.  A
        # rewriting policy attached after construction bypasses it too: the
        # pipeline takes the hybrid kernel only while ``rewriting is None``
        # and runs policy streams through the inline kernel.
        self.dedup_mode = dedup_mode
        self.hybrid = (
            HybridState() if dedup_mode == "hybrid" and dedup_enabled else None
        )
        self.pipeline = IngestPipeline(
            store=self.store,
            index=self.index,
            recipes=self.recipes,
            rewriting=rewriting,
            dedup_enabled=dedup_enabled,
            hybrid=self.hybrid,
        )
        self.restorer = RestoreEngine(
            store=self.store,
            index=self.index,
            recipes=self.recipes,
            disk=self.disk,
            cache_containers=self.config.restore_cache_containers,
        )
        self.gc_mode = gc_mode
        gc_cls = IncrementalGC if gc_mode == "incremental" else MarkSweepGC
        gc_kwargs = {"budget": gc_budget} if gc_mode == "incremental" else {}
        self.gc = gc_cls(
            config=self.config,
            store=self.store,
            index=self.index,
            recipes=self.recipes,
            disk=self.disk,
            migration=migration,
            hybrid=self.hybrid,
            **gc_kwargs,
        )
        self._cumulative_logical = 0
        self._cumulative_stored = 0
        self.ingest_history: list[IngestResult] = []
        # The serve layer's tiered cache, shared by every reader of this
        # service; built lazily so services that never serve reads keep
        # their runtime metrics (and golden outputs) untouched.
        self._read_cache_containers = read_cache_containers
        self._read_cache_chunks = read_cache_chunks
        self._read_cache: TieredReadCache | None = None

    # ------------------------------------------------------------------
    # BackupService interface
    # ------------------------------------------------------------------

    def ingest(self, stream: ChunkStream, source: str = "") -> IngestResult:
        result = self.pipeline.ingest(stream, source=source)
        self._cumulative_logical += result.logical_bytes
        self._cumulative_stored += result.stored_bytes
        self.ingest_history.append(result)
        if self.gc_mode == "incremental":
            # Live-reference barrier: a cycle in flight must never sweep a
            # chunk this new backup just deduplicated against.
            self.gc.note_live_references(
                self.recipes.get(result.backup_id).unique_fingerprints()
            )
        return result

    def delete_backup(self, backup_id: int) -> None:
        self.recipes.mark_deleted(backup_id)

    def run_gc(self) -> GCReport:
        return self.gc.collect()

    def restore(self, backup_id: int) -> RestoreReport:
        return self.restorer.restore(backup_id)

    def restore_bytes(self, backup_id: int) -> tuple[RestoreReport, bytes]:
        """Byte-level restore (requires payload-carrying ingest)."""
        return self.restorer.restore_bytes(backup_id)

    def recover(self):
        """Repair after a :class:`~repro.errors.SimulatedCrash` by rolling
        the store's incomplete journal intents back or forward; returns a
        :class:`~repro.faults.RecoveryReport`."""
        from repro.faults.recovery import recover

        return recover(self.store, self.index, self.recipes, hybrid=self.hybrid)

    @property
    def read_cache(self) -> TieredReadCache:
        """The shared tiered read cache (created on first use)."""
        cache = self._read_cache
        if cache is None:
            cache = self._read_cache = TieredReadCache(
                self.store,
                container_capacity=self._read_cache_containers,
                chunk_capacity=self._read_cache_chunks,
            )
        return cache

    def open_backup(self, backup_id: int) -> BackupReader:
        """Open a live backup for random-access reads."""
        if self.recipes.is_deleted(backup_id):
            raise BackupAlreadyDeletedError(
                f"backup {backup_id} is deleted and cannot be opened"
            )
        recipe = self.recipes.get(backup_id)
        return BackupReader(
            backup_id=backup_id,
            recipe=recipe,
            strategy=ContainerReadStrategy(self.index, self.read_cache),
            disk=self.disk,
            restore=lambda: self.restorer.restore(backup_id),
        )

    def live_backup_ids(self) -> list[int]:
        return self.recipes.live_ids()

    def stats(self) -> ServiceStats:
        return ServiceStats(
            cumulative_logical_bytes=self._cumulative_logical,
            cumulative_stored_bytes=self._cumulative_stored,
            physical_bytes=self.store.stored_bytes,
        )

    def runtime_metrics(self) -> dict[str, int | float]:
        """Hot-path execution counters (index probes, interner population)
        for the run's metrics payload."""
        metrics: dict[str, int | float] = {
            "index.lookups": self.index.lookups,
            "index.hits": self.index.hits,
            "interner.chunks": len(self.recipes.interner),
        }
        if self.hybrid is not None:
            metrics.update(self.hybrid.counters())
        if self._read_cache is not None:
            metrics.update(self._read_cache.counters())
        return metrics

    # ------------------------------------------------------------------
    # Introspection helpers used by examples and tests
    # ------------------------------------------------------------------

    @property
    def gc_history(self) -> list[GCReport]:
        return self.gc.history

    def describe(self) -> str:
        """One-line status summary."""
        return (
            f"{self.name}: {len(self.recipes)} live backups, "
            f"{len(self.store)} containers, dedup ratio {self.dedup_ratio:.2f}"
        )
