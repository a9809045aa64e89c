"""The MFDedup backup service.

Implements the :class:`~repro.backup.service.BackupService` facade over the
volume layout:

* **Ingest** — neighbor-duplicate detection against the immediately
  preceding backup (in global ingest order — the property that makes it
  collapse on multi-source streams); still-shared chunks of the
  predecessor's volumes migrate forward (``Vol(f, n-1) → Vol(f, n)``),
  fresh chunks append to ``Vol(n, n)``.
* **Restore** — read every volume covering the backup, sequentially; by the
  lifecycle invariant every byte read belongs to the backup, so read
  amplification ≈ 1.
* **GC** — deletion only: volumes wholly older than the oldest live backup
  are unlinked.  No mark, no sweep, no produced containers (Fig. 13/14's
  MFDedup accounting divides the deleted bytes by the container size for
  comparability, which :meth:`run_gc` mirrors).
"""

from __future__ import annotations

from array import array

from repro.backup.service import BackupService, ChunkStream, ServiceStats
from repro.config import SystemConfig
from repro.dedup.pipeline import IngestResult
from repro.errors import BackupAlreadyDeletedError
from repro.gc.report import GCReport
from repro.index.columnar import ColumnarRecipe
from repro.index.recipe import RecipeStore
from repro.mfdedup.volumes import VolumeStore
from repro.model import Chunk, ChunkRef
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.restore.report import RestoreReport
from repro.serve.cache import TieredReadCache
from repro.serve.reader import BackupReader, MFDedupReadStrategy
from repro.simio.disk import DiskModel


class MFDedupService(BackupService):
    """MFDedup: neighbor dedup + lifecycle volumes + deletion-only GC.

    Recipes are id/size columns against the recipe store's interner, which
    here maps 20-byte logical fingerprints, not storage keys — MFDedup has
    no rewriting, so one copy per fingerprint.
    """

    name = "mfdedup"

    def __init__(
        self,
        config: SystemConfig | None = None,
        tracer: Tracer | None = None,
        gc_mode: str = "stw",
        gc_budget=None,
        read_cache_chunks: int | None = 1024,
    ):
        self.config = config or SystemConfig.scaled()
        self.config.validate()
        # Explicit None test: an empty TraceRecorder is falsy (len == 0).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.disk = DiskModel(self.config.disk, tracer=self.tracer)
        self.volumes = VolumeStore(self.disk)
        self.recipes = RecipeStore()
        #: fp → size map of the immediately preceding backup.
        self._previous: dict[bytes, int] = {}
        self._previous_id: int | None = None
        self._cumulative_logical = 0
        self._cumulative_stored = 0
        self._gc_rounds = 0
        if gc_mode not in ("stw", "incremental"):
            raise ValueError(f"unknown gc_mode {gc_mode!r}; choose 'stw' or 'incremental'")
        self.gc_mode = gc_mode
        if gc_mode == "incremental":
            from repro.gc.incremental import IncrementalMFDedupGC

            self.gc = IncrementalMFDedupGC(self, budget=gc_budget)
            self.gc_history = self.gc.history  # one list, shared with the engine
        else:
            self.gc_history: list[GCReport] = []
        self.ingest_history: list[IngestResult] = []
        # Serve-layer cache (chunk tier only — volumes have no containers);
        # lazy so non-serving runs keep their runtime metrics untouched.
        self._read_cache_chunks = read_cache_chunks
        self._read_cache: TieredReadCache | None = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(self, stream: ChunkStream, source: str = "") -> IngestResult:
        backup_id = self.recipes.new_backup_id()
        current: dict[bytes, int] = {}
        ids = array("q")
        sizes = array("q")
        ids_append = ids.append
        sizes_append = sizes.append
        intern = self.recipes.interner.intern
        previous = self._previous
        logical_bytes = 0
        stored_bytes = 0
        dedup_bytes = 0

        with self.disk.phase("ingest") as ph:
            # Classify the stream: neighbor duplicates vs fresh chunks.
            for item in stream:
                ref = item.ref if isinstance(item, Chunk) else item
                fp = ref.fp
                size = ref.size
                logical_bytes += size
                ids_append(intern(fp))
                sizes_append(size)
                if fp in current:
                    dedup_bytes += size  # intra-backup duplicate
                    continue
                current[fp] = size
                if fp in previous:
                    dedup_bytes += size  # neighbor duplicate: will migrate
                else:
                    stored_bytes += size

            # Migrate forward the predecessor's still-shared chunks, under
            # one umbrella intent recording every performed move — a crash
            # mid-ingest must roll back *all* of them, because a partially
            # migrated predecessor breaks the next ingest's lifecycle chain
            # (``volumes_ending_at`` would miss chunks moved ahead).
            intent = self.volumes.journal.begin(
                "mfdedup.ingest", backup_id=backup_id, migrates=[]
            )
            migrates: list[dict] = intent.payload["migrates"]
            if self._previous_id is not None:
                for volume in self.volumes.volumes_ending_at(self._previous_id):
                    shared = [ref for ref in volume.chunks if ref.fp in current]
                    if shared:
                        destination = self.volumes.get_or_create(volume.first, backup_id)
                        self.volumes.migrate(volume, destination, shared)
                        migrates.append(
                            {
                                "source": (volume.first, volume.last),
                                "destination": (destination.first, destination.last),
                                "fps": [ref.fp for ref in shared],
                            }
                        )
                        self.disk.crash_point(
                            "mfdedup.migrate",
                            backup_id=backup_id,
                            source_first=volume.first,
                            chunks=len(shared),
                        )

            # Store fresh chunks in Vol(n, n).
            for fp, size in current.items():
                if fp not in self._previous:
                    self.volumes.write_chunk(backup_id, backup_id, ChunkRef(fp=fp, size=size))
            ph.annotate(
                backup_id=backup_id,
                logical_bytes=logical_bytes,
                stored_bytes=stored_bytes,
                dedup_bytes=dedup_bytes,
            )

        self.recipes.add(
            ColumnarRecipe(
                backup_id=backup_id,
                interner=self.recipes.interner,
                chunk_ids=ids,
                chunk_sizes=sizes,
                source=source,
            )
        )
        self._previous = current
        self._previous_id = backup_id
        self._cumulative_logical += logical_bytes
        self._cumulative_stored += stored_bytes
        # The recipe is durable and every migrated chunk reachable: the
        # ingest intent can be retired.
        self.volumes.journal.commit(intent)
        self.volumes.journal.close(intent)

        result = IngestResult(
            backup_id=backup_id,
            logical_bytes=logical_bytes,
            num_chunks=len(ids),
            stored_bytes=stored_bytes,
            dedup_bytes=dedup_bytes,
            rewritten_bytes=0,
            containers_written=0,
        )
        self.ingest_history.append(result)
        return result

    # ------------------------------------------------------------------
    # Delete / GC
    # ------------------------------------------------------------------

    def delete_backup(self, backup_id: int) -> None:
        self.recipes.mark_deleted(backup_id)

    def run_gc(self) -> GCReport:
        """Deletion-only GC: drop volumes older than the oldest live backup."""
        if self.gc_mode == "incremental":
            return self.gc.collect()
        with self.disk.phase("gc.purge") as ph:
            purged = self.recipes.purge_deleted()
            live = self.recipes.live_ids()
            oldest_live = live[0] if live else (self._next_unseen_id())
            # The reorg intent pins ``oldest_live`` so recovery can replay
            # ``drop_expired`` idempotently after a crash at the armed
            # ``mfdedup.reorg`` point (recipes already purged, volumes not
            # yet unlinked).
            intent = self.volumes.journal.begin("volume.reorg", oldest_live=oldest_live)
            self.disk.crash_point("mfdedup.reorg", oldest_live=oldest_live)
            volumes_dropped, bytes_dropped = self.volumes.drop_expired(oldest_live)
            # Unlinking a volume is a metadata write (no data copying).
            for _ in range(volumes_dropped):
                self.disk.write(4096)
            self.volumes.journal.commit(intent)
            self.volumes.journal.close(intent)
            ph.annotate(
                backups_purged=len(purged),
                volumes_dropped=volumes_dropped,
                bytes_dropped=bytes_dropped,
                # The Fig. 14 accounting (seek-only metadata unlinks): the
                # phase's io delta also carries the transfer term, so the
                # report quantity must travel explicitly for the trace to
                # reproduce the figure.
                sweep_write_seconds=volumes_dropped * self.config.disk.seek_time,
            )
        # Fig. 13 comparability: express processed bytes in container units.
        container_equivalents = -(-bytes_dropped // self.config.container_size)
        report = GCReport(
            round_index=self._gc_rounds,
            backups_purged=len(purged),
            involved_containers=container_equivalents,
            reclaimed_containers=container_equivalents,
            produced_containers=0,
            migrated_bytes=0,
            reclaimed_bytes=bytes_dropped,
            migrated_chunks=0,
            mark_seconds=0.0,
            analyze_seconds=0.0,
            sweep_read_seconds=0.0,
            sweep_write_seconds=volumes_dropped * self.config.disk.seek_time,
        )
        self._gc_rounds += 1
        self.gc_history.append(report)
        return report

    def _next_unseen_id(self) -> int:
        return (self._previous_id + 1) if self._previous_id is not None else 0

    def recover(self):
        """Repair after a :class:`~repro.errors.SimulatedCrash` by rolling
        the volume store's incomplete journal intents back or forward;
        returns a :class:`~repro.faults.RecoveryReport`."""
        from repro.faults.recovery import recover_mfdedup

        return recover_mfdedup(self.volumes, self.recipes)

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def restore(self, backup_id: int) -> RestoreReport:
        recipe = self.recipes.get(backup_id)
        with self.disk.phase("restore") as ph:
            covering = self.volumes.volumes_covering(backup_id)
            # MFDedup lays covering volumes out adjacently in lifecycle
            # order, so a restore is one sequential scan — charge a single
            # positioned read rather than a seek per volume (which would be
            # a scale artifact of our shrunken geometry).
            total_bytes = sum(volume.size_bytes for volume in covering)
            if covering:
                self.disk.read(total_bytes)
            ph.annotate(backup_id=backup_id, volumes_read=len(covering))
        return RestoreReport(
            backup_id=backup_id,
            logical_bytes=recipe.logical_size,
            num_chunks=recipe.num_chunks,
            containers_read=len(covering),
            container_bytes_read=ph.delta.read_bytes,
            read_seconds=ph.delta.read_seconds,
            cache_hits=0,
        )

    @property
    def read_cache(self) -> TieredReadCache:
        """The shared serve-layer cache (created on first use)."""
        cache = self._read_cache
        if cache is None:
            cache = self._read_cache = TieredReadCache(
                store=None, chunk_capacity=self._read_cache_chunks
            )
        return cache

    def open_backup(self, backup_id: int) -> BackupReader:
        """Open a live backup for random-access reads.

        Point reads resolve against the lifecycle layout: chunks of one
        backup are adjacent in its covering volumes, so each maximal run
        of uncached chunks costs a single positioned read of the run's
        bytes (see :class:`~repro.serve.reader.MFDedupReadStrategy`).
        """
        if self.recipes.is_deleted(backup_id):
            raise BackupAlreadyDeletedError(
                f"backup {backup_id} is deleted and cannot be opened"
            )
        recipe = self.recipes.get(backup_id)
        return BackupReader(
            backup_id=backup_id,
            recipe=recipe,
            strategy=MFDedupReadStrategy(self.disk, self.read_cache),
            disk=self.disk,
            restore=lambda: self.restore(backup_id),
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def live_backup_ids(self) -> list[int]:
        return self.recipes.live_ids()

    def stats(self) -> ServiceStats:
        return ServiceStats(
            cumulative_logical_bytes=self._cumulative_logical,
            cumulative_stored_bytes=self._cumulative_stored,
            physical_bytes=self.volumes.stored_bytes,
        )

    def runtime_metrics(self) -> dict[str, int | float]:
        metrics: dict[str, int | float] = {
            "interner.chunks": len(self.recipes.interner)
        }
        if self._read_cache is not None:
            metrics.update(self._read_cache.counters())
        return metrics

    @property
    def migrated_bytes(self) -> int:
        """Cumulative ingest-time migration I/O (the Fig. 3 quantity)."""
        return self.volumes.migrated_bytes

    @property
    def migration_fraction(self) -> float:
        """Migrated bytes as a fraction of the processed dataset (Fig. 3)."""
        if self._cumulative_logical == 0:
            return 0.0
        return self.volumes.migrated_bytes / self._cumulative_logical
