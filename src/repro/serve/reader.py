"""Random-access readers over live backups (mount-a-backup semantics).

A :class:`BackupReader` maps ``(offset, length)`` windows onto chunk
ranges by bisecting the recipe's cached prefix-sum offset column
(``chunk_starts``), then resolves the touched chunks through the service's
:class:`~repro.serve.cache.TieredReadCache`.  Each ``pread`` runs under
one ``read`` phase on the simulated disk, so its :class:`ReadReport`
carries the request's device bytes and simulated latency, and the trace
(when enabled) gains one ``read`` span per request.

The chunk-resolution step is the only part that differs per layout, so it
is a strategy object:

* :class:`ContainerReadStrategy` — container-based approaches; a chunk-tier
  miss resolves the storage fingerprint through the index and fetches the
  owning container whole (full read amplification, exactly as restore).
* :class:`MFDedupReadStrategy` — MFDedup's volume layout; chunks of one
  backup are adjacent in lifecycle order, so each maximal run of
  chunk-tier misses is charged as a single positioned read of exactly the
  run's bytes (the point-read analogue of the engine's single-scan
  restore model).

``read_all()`` deliberately *delegates* to the service's restore path:
sequential whole-backup reads take the streaming engine with its own
forward-assembly cache, which keeps the two paths counter-identical by
construction for every approach.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Protocol

from repro.errors import IntegrityError
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.columnar import ColumnarRecipe
from repro.restore.report import RestoreReport
from repro.serve.cache import TieredReadCache
from repro.serve.report import ReadReport
from repro.simio.disk import DiskModel


class ReadStrategy(Protocol):
    """Layout-specific chunk resolution behind a :class:`BackupReader`."""

    cache: TieredReadCache

    def read_range(self, entries, collect: bool) -> tuple[int, list[bytes] | None]:
        """Resolve a window of recipe entries, charging simulated I/O.

        Returns ``(device_reads, payloads)`` — the number of device
        fetches performed, and the touched chunks' payloads when
        ``collect`` (or ``None`` otherwise).
        """


class ContainerReadStrategy:
    """Chunk → index placement → whole-container fetch via the tiers."""

    __slots__ = ("index", "cache")

    def __init__(self, index: FingerprintIndex, cache: TieredReadCache):
        self.index = index
        self.cache = cache

    def read_range(self, entries, collect: bool) -> tuple[int, list[bytes] | None]:
        cache = self.cache
        index_get = self.index.get
        misses_before = cache.container_misses
        payloads: list[bytes] | None = [] if collect else None
        for entry in entries:
            fp = entry.fp
            cached = cache.get_chunk(fp)
            if cached is not None:
                payload = cached[1]
            else:
                container = cache.get_container(index_get(fp).container_id)
                payload = container.payload(fp)
                cache.put_chunk(fp, entry.size, payload)
            if collect:
                if payload is None:
                    raise IntegrityError(
                        "container holds no payload for a requested chunk "
                        "(trace-level data cannot be read as bytes)"
                    )
                payloads.append(payload)
        return cache.container_misses - misses_before, payloads


class MFDedupReadStrategy:
    """Positioned reads over MFDedup's adjacent lifecycle layout.

    Every maximal run of consecutive chunk-cache misses costs one
    positioned read of the run's bytes — one seek plus transfer — because
    the covering volumes lay a backup's chunks out adjacently in stream
    order (the same property that makes the engine's full restore a
    single sequential scan).
    """

    __slots__ = ("disk", "cache")

    def __init__(self, disk: DiskModel, cache: TieredReadCache):
        self.disk = disk
        self.cache = cache

    def read_range(self, entries, collect: bool) -> tuple[int, list[bytes] | None]:
        if collect:
            raise IntegrityError(
                "mfdedup stores no chunk payloads; byte-level reads are unavailable"
            )
        cache = self.cache
        disk_read = self.disk.read
        reads = 0
        run_bytes = 0
        for entry in entries:
            if cache.get_chunk(entry.fp) is not None:
                if run_bytes:
                    disk_read(run_bytes)
                    reads += 1
                    run_bytes = 0
                continue
            run_bytes += entry.size
            cache.put_chunk(entry.fp, entry.size, None)
        if run_bytes:
            disk_read(run_bytes)
            reads += 1
        return reads, None


class BackupReader:
    """Random-access handle over one live backup.

    Obtained from :meth:`repro.backup.service.BackupService.open_backup`;
    usable as a context manager.  ``pread`` returns accounting only;
    ``pread_bytes`` additionally returns the window's bytes (requires a
    payload-carrying pipeline); ``read_all`` runs the service's restore
    path and returns its :class:`~repro.restore.report.RestoreReport`.
    """

    def __init__(
        self,
        backup_id: int,
        recipe: ColumnarRecipe,
        strategy: ReadStrategy,
        disk: DiskModel,
        restore: Callable[[], RestoreReport],
    ):
        self.backup_id = backup_id
        self._recipe = recipe
        self._strategy = strategy
        self._disk = disk
        self._restore = restore
        self._starts = recipe.chunk_starts
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """The backup's logical (pre-dedup) size in bytes."""
        return self._recipe.logical_size

    @property
    def num_chunks(self) -> int:
        return self._recipe.num_chunks

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def pread(self, offset: int, length: int) -> ReadReport:
        """Read ``length`` bytes at ``offset``; returns accounting only."""
        report, _ = self._run(offset, length, collect=False)
        return report

    def pread_bytes(self, offset: int, length: int) -> tuple[ReadReport, bytes]:
        """Read a window and return its bytes (payload pipelines only)."""
        report, data = self._run(offset, length, collect=True)
        assert data is not None
        return report, data

    def read_all(self) -> RestoreReport:
        """Sequential whole-backup read — the service's restore path.

        Counter-identical to ``service.restore(backup_id)`` by
        construction (it *is* that path).
        """
        self._check_open()
        return self._restore()

    def _run(self, offset: int, length: int, collect: bool):
        self._check_open()
        if offset < 0:
            raise ValueError("read offset must be >= 0")
        if length < 0:
            raise ValueError("read length must be >= 0")
        size = self._recipe.logical_size
        end = min(offset + length, size)
        if offset >= size or end <= offset:
            # Past-EOF or zero-length: no chunks touched, no I/O, no span.
            report = ReadReport(
                backup_id=self.backup_id,
                offset=offset,
                length=length,
                bytes_read=0,
                num_chunks=0,
                chunk_hits=0,
                container_hits=0,
                containers_read=0,
                container_bytes_read=0,
                read_seconds=0.0,
            )
            return report, (b"" if collect else None)

        starts = self._starts
        first = bisect_right(starts, offset) - 1
        last = bisect_left(starts, end)  # exclusive
        entries = self._recipe.entries[first:last]

        cache = self._strategy.cache
        chunk_hits_before = cache.chunk_hits
        container_hits_before = cache.container_hits
        with self._disk.phase("read") as ph:
            device_reads, payloads = self._strategy.read_range(entries, collect)
            ph.annotate(
                backup_id=self.backup_id,
                offset=offset,
                length=end - offset,
                chunks=last - first,
                containers_read=device_reads,
                chunk_hits=cache.chunk_hits - chunk_hits_before,
                container_hits=cache.container_hits - container_hits_before,
            )

        report = ReadReport(
            backup_id=self.backup_id,
            offset=offset,
            length=length,
            bytes_read=end - offset,
            num_chunks=last - first,
            chunk_hits=cache.chunk_hits - chunk_hits_before,
            container_hits=cache.container_hits - container_hits_before,
            containers_read=device_reads,
            container_bytes_read=ph.delta.read_bytes,
            read_seconds=ph.delta.read_seconds,
        )
        if not collect:
            return report, None
        head = offset - starts[first]
        data = b"".join(payloads)[head : head + (end - offset)]
        return report, data

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the reader (idempotent); further reads raise."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("I/O operation on closed BackupReader")

    def __enter__(self) -> "BackupReader":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"BackupReader(backup_id={self.backup_id}, size={self.size}, "
            f"num_chunks={self.num_chunks}, {state})"
        )
