"""Lifecycle volumes — MFDedup's storage layout.

A volume ``Vol(first, last)`` holds chunks whose live range is exactly the
backups ``first..last`` (a contiguous range, guaranteed by neighbor-only
duplicate detection).  Volumes are append-only while ``last`` is the newest
backup; once a newer backup arrives, still-shared chunks migrate to
``Vol(first, last+1)`` and the remainder freezes until deletion drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import StorageError
from repro.faults.journal import IntentJournal
from repro.model import ChunkRef
from repro.simio.disk import DiskModel


@dataclass
class Volume:
    """One lifecycle volume: chunks alive for backups ``first..last``."""

    first: int
    last: int
    chunks: list[ChunkRef] = field(default_factory=list)
    size_bytes: int = 0

    def append(self, ref: ChunkRef) -> None:
        self.chunks.append(ref)
        self.size_bytes += ref.size

    def __repr__(self) -> str:
        return f"Volume({self.first}..{self.last}, {len(self.chunks)} chunks, {self.size_bytes}B)"


class VolumeStore:
    """All live volumes, with I/O charged against the simulated disk."""

    def __init__(self, disk: DiskModel):
        self.disk = disk
        self._volumes: dict[tuple[int, int], Volume] = {}
        #: Cumulative bytes moved between volumes by ingest-time migration.
        self.migrated_bytes = 0
        #: Cumulative bytes dropped by deletion (MFDedup's whole GC).
        self.deleted_bytes = 0
        #: Intent journal (NVRAM model, zero simulated I/O) bracketing
        #: ingest-time migration batches and volume reorgs.
        self.journal = IntentJournal()

    def get(self, first: int, last: int) -> Volume:
        key = (first, last)
        volume = self._volumes.get(key)
        if volume is None:
            raise StorageError(f"volume {first}..{last} not in store")
        return volume

    def get_or_create(self, first: int, last: int) -> Volume:
        key = (first, last)
        volume = self._volumes.get(key)
        if volume is None:
            volume = Volume(first=first, last=last)
            self._volumes[key] = volume
        return volume

    def write_chunk(self, first: int, last: int, ref: ChunkRef) -> None:
        """Append a freshly stored chunk (charges a write)."""
        self.get_or_create(first, last).append(ref)
        self.disk.write(ref.size)

    def migrate(self, source: Volume, destination: Volume, refs: list[ChunkRef]) -> int:
        """Move chunks between volumes; charges read + write (migration I/O).

        Returns the migrated byte count.  The source volume keeps the rest.
        """
        moved = sum(ref.size for ref in refs)
        if moved:
            self.disk.read(moved)
            self.disk.write(moved)
        keep = {id(ref) for ref in refs}
        source.chunks = [ref for ref in source.chunks if id(ref) not in keep]
        source.size_bytes -= moved
        for ref in refs:
            destination.append(ref)
        self.migrated_bytes += moved
        return moved

    def rollback_migrate(
        self,
        source_key: tuple[int, int],
        destination_key: tuple[int, int],
        fps: list[bytes],
    ) -> int:
        """Undo one :meth:`migrate` during crash recovery.

        Moves the chunks named by ``fps`` back from the destination volume
        to the source volume (charging the same read + write the forward
        move cost) and deletes the destination if the rollback empties it.
        Returns the bytes moved back.
        """
        source = self._volumes[tuple(source_key)]
        destination_key = tuple(destination_key)
        destination = self._volumes[destination_key]
        wanted = set(fps)
        moved = [ref for ref in destination.chunks if ref.fp in wanted]
        moved_bytes = sum(ref.size for ref in moved)
        if moved_bytes:
            self.disk.read(moved_bytes)
            self.disk.write(moved_bytes)
        destination.chunks = [ref for ref in destination.chunks if ref.fp not in wanted]
        destination.size_bytes -= moved_bytes
        for ref in moved:
            source.append(ref)
        self.migrated_bytes -= moved_bytes
        if not destination.chunks:
            del self._volumes[destination_key]
        return moved_bytes

    def volumes_ending_at(self, last: int) -> list[Volume]:
        """Volumes whose live range ends exactly at backup ``last``."""
        return [v for (f, l), v in sorted(self._volumes.items()) if l == last]

    def volumes_covering(self, backup_id: int) -> list[Volume]:
        """Volumes overlapping one backup — exactly its restore read set."""
        return [v for (f, l), v in sorted(self._volumes.items()) if f <= backup_id <= l]

    def drop_expired(self, oldest_live: int, limit: int | None = None) -> tuple[int, int]:
        """Delete volumes wholly older than the oldest live backup.

        Returns ``(volumes_dropped, bytes_dropped)``.  This is MFDedup's GC:
        no mark, no sweep, no copying — aggregated invalid data is unlinked.
        ``limit`` bounds one call (incremental GC unlinks in budgeted slices;
        repeated calls converge on the same total set, in the same order).
        """
        expired = [key for key in self._volumes if key[1] < oldest_live]
        if limit is not None:
            expired = expired[:limit]
        dropped_bytes = 0
        for key in expired:
            dropped_bytes += self._volumes[key].size_bytes
            del self._volumes[key]
        self.deleted_bytes += dropped_bytes
        return len(expired), dropped_bytes

    def expired_count(self, oldest_live: int) -> int:
        """Volumes still eligible for :meth:`drop_expired`."""
        return sum(1 for key in self._volumes if key[1] < oldest_live)

    def __len__(self) -> int:
        return len(self._volumes)

    def __iter__(self) -> Iterator[Volume]:
        return iter(self._volumes.values())

    @property
    def stored_bytes(self) -> int:
        return sum(volume.size_bytes for volume in self._volumes.values())
