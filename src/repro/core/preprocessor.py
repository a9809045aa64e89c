"""The GCCDF Preprocessor (paper §5.2).

Bridges the GC mark stage and the Analyzer.  Three tasks, as in Fig. 8:

1. **Segmentation** — group the GC work list (containers confirmed to hold
   invalid chunks) into segments of ``segment_size`` containers.  All later
   GCCDF processing runs per segment, bounding the GC cache to
   ``segment_size × container_size`` bytes and keeping the Analyzer's tree
   small (§5.5 trade-off discussion).
2. **Identify & cache valid chunks** — read each segment container (this is
   the sweep-read I/O GC would pay anyway), check chunks against the VC
   table, and keep the valid ones (interned ids + payloads) in the in-memory
   *GC cache*.
3. **Collect reference information** — union the RRT entries of the
   segment's containers into the segment's *Involved Backups* list, which
   tells the Analyzer which backups' references matter here.

Each segment also carries the partition by-products downstream consumers
need anyway: the interned-id column of its valid chunks (the Analyzer's
input) and the per-container ``(invalid_keys, invalid_bytes)`` reclaim
data.  Validity is stable for the
duration of one drained GC round — migration relocates index entries
without removing them, reclaims drop only already-invalid keys, and the VC
table never changes mid-round — so the sweep reuses these partitions at
reclaim-scheduling time instead of re-partitioning every container twice.
The incremental engine, whose rounds are *not* drained, pins only container
ids up front and builds each segment when its step runs
(:meth:`Preprocessor.build_segment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.gc.migration import ContainerPartition, SweepContext, partition


@dataclass
class Segment:
    """One unit of GCCDF work: containers, cached valid chunks, owners."""

    index: int
    container_ids: list[int]
    #: Interned ids of the segment's valid chunks, in container scan order.
    valid_ids: list[int] = field(default_factory=list)
    #: GC-cache footprint of this segment: the valid chunks' bytes (the sum
    #: of the partitions' valid size columns).
    cached_bytes: int = 0
    #: storage key → payload bytes, for chunks that carry payloads.
    payloads: dict[bytes, bytes] = field(default_factory=dict)
    #: Live backups referencing any container of this segment, ascending.
    involved_backups: tuple[int, ...] = ()
    #: Invalid bytes found across the segment's containers.
    invalid_bytes: int = 0
    #: Per-container reclaim data, in scan order:
    #: ``(container_id, invalid_keys, invalid_bytes)``.
    reclaims: list[tuple[int, list[bytes], int]] = field(default_factory=list)


class Preprocessor:
    """Builds :class:`Segment` work units from a sweep context."""

    def __init__(self, ctx: SweepContext):
        self.ctx = ctx
        self.segment_size = ctx.config.gccdf.segment_size

    def reclaimable(
        self, container_ids: Iterable[int]
    ) -> Iterator[tuple[int, ContainerPartition]]:
        """Those of ``container_ids`` that actually hold invalid chunks, as
        ``(container_id, partition)`` pairs.

        Fully-valid containers stay involved-but-untouched, matching the
        involved/reclaimed distinction of Fig. 13; ids no longer in the
        store (reclaimed before a crash interrupted the round) are skipped.
        """
        for container_id in container_ids:
            if container_id not in self.ctx.store:
                continue
            part = partition(self.ctx, container_id)
            if part.invalid_bytes:
                yield container_id, part

    def reclaimable_containers(self) -> list[tuple[int, ContainerPartition]]:
        """The GC work list: :meth:`reclaimable` over the whole GS list."""
        return list(self.reclaimable(self.ctx.mark.gs_list))

    def segments(self) -> Iterator[Segment]:
        """Yield segments one at a time (the GC cache holds one segment)."""
        work = self.reclaimable_containers()
        for seg_index, start in enumerate(range(0, len(work), self.segment_size)):
            yield self._segment(seg_index, work[start : start + self.segment_size])

    def build_segment(self, index: int, container_ids: Iterable[int]) -> Segment:
        """One segment over whichever of ``container_ids`` are reclaimable
        *now* (possibly none: ``container_ids`` then comes back empty)."""
        return self._segment(index, self.reclaimable(container_ids))

    def _segment(
        self, index: int, work: Iterable[tuple[int, ContainerPartition]]
    ) -> Segment:
        segment = Segment(index=index, container_ids=[])
        owners: set[int] = set()
        for container_id, part in work:
            segment.container_ids.append(container_id)
            segment.invalid_bytes += part.invalid_bytes
            segment.reclaims.append(
                (container_id, part.invalid_keys, part.invalid_bytes)
            )
            owners.update(self.ctx.mark.rrt.get(container_id, ()))
            if not part.valid_ids:
                continue
            # Sweep-read: fetch the container (charged I/O) and cache
            # its valid chunks in memory.
            container = self.ctx.store.read_container(container_id)
            segment.valid_ids.extend(part.valid_ids)
            segment.cached_bytes += sum(part.valid_sizes)
            if container.has_payloads():
                for key in part.valid_keys:
                    payload = container.payload(key)
                    if payload is not None:
                        segment.payloads[key] = payload
        segment.involved_backups = tuple(sorted(owners))
        return segment
