"""Sweep-stage migration: the pluggable heart of GC.

The sweep copies valid chunks out of reclaimable containers into new ones.
*Which order the valid chunks are written in* is the entire difference
between classic GC and GCCDF — so the engine delegates exactly that to a
:class:`MigrationStrategy`:

* :class:`NaiveMigration` (here) preserves container scan order — the
  paper's Naïve/Capping/HAR/SMR configurations all sweep this way;
* :class:`repro.core.gccdf.GCCDFMigration` reorders chunks per §4/§5.

Shared mechanics live in :func:`partition` (one pass splits a container's
chunks by validity, returning the valid id/key/size columns, invalid keys,
and invalid bytes together) and :class:`JournaledCopyForward`, which owns
the crash-consistent protocol both strategies write through:

1. every chunk appended toward a destination container is recorded in an
   open ``copyforward`` intent (fp, source, size) *before* anything else
   depends on it;
2. when the destination seals (store commit), the index is repointed at it
   and only then does the intent commit and close — so recovery only ever
   sees **open** copy-forward intents, which it rolls back (sources are
   still alive by rule 3);
3. a source container is reclaimed only after every chunk migrated out of
   it has durably sealed and repointed (``reclaim`` intent: drop invalid
   index keys → delete container), so a crash can never orphan data.

Reclaims are therefore *deferred* behind a FIFO that preserves the classic
reclaim order; deferral is free in the cost model (deletes charge no I/O),
so an un-faulted sweep performs the byte-identical read/write sequence the
unjournaled protocol did.

The validity split runs on interned ids.  A container *is* its id/size
columns (``array('q')``, in the recipes' id space), so the split is C-level
set algebra: the container's distinct-id set intersects the mark's live-id
set, the index-membership guard probes the index's placement map per
surviving id (skipped while the index covers the interner's key domain),
and only the unproven minority (Bloom-VC false positives, barrier
additions) reaches a Python-level probe loop.  The valid columns are then
``itertools.compress`` selections of the container's columns, keys read
from the interner's id → key table.

Strategies hand :meth:`JournaledCopyForward.migrate_batch` whole valid
id/key/size columns per source container; the batch splits into
per-destination runs against the remaining capacity (prefix sums + bisect),
extends the open ``copyforward`` intent's ``moves`` payload once per run,
and aggregates the per-source counters.  Payload-carrying (byte-level)
containers go chunk by chunk through
:meth:`~JournaledCopyForward.migrate_chunk`, which writes the same per-chunk
move records under the same seal/repoint/reclaim protocol.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from operator import not_
from typing import NamedTuple, Protocol, Sequence

from repro.config import SystemConfig
from repro.gc.mark import MarkResult
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.container import Container
from repro.storage.store import ContainerStore
from repro.storage.writer import ContainerWriter


@dataclass
class SweepContext:
    """Everything a migration strategy may consult or mutate."""

    config: SystemConfig
    store: ContainerStore
    index: FingerprintIndex
    recipes: RecipeStore
    disk: DiskModel
    mark: MarkResult
    #: Analyzer/Planner operation count (membership probes + chunk moves);
    #: converted to simulated seconds via ``gccdf.analyze_op_cost`` for the
    #: Fig. 14 breakdown, so analyze time shares the I/O stages' currency.
    analyze_ops: int = 0
    #: Effective analyze-stage parallelism: §5.5 notes segments are fully
    #: independent, so a strategy may set this to min(workers, segments)
    #: and the engine divides the simulated analyze time accordingly.
    analyze_parallelism: int = 1


@dataclass
class MigrationResult:
    """Sweep accounting used by :class:`repro.gc.report.GCReport`."""

    #: Containers confirmed to hold invalid chunks and reclaimed.
    reclaimed_ids: list[int] = field(default_factory=list)
    #: New containers produced by copy-forward.
    produced_ids: list[int] = field(default_factory=list)
    #: Valid bytes copied forward.
    migrated_bytes: int = 0
    #: Invalid bytes whose space was reclaimed.
    reclaimed_bytes: int = 0
    #: Valid chunks migrated.
    migrated_chunks: int = 0


class MigrationStrategy(Protocol):
    """Orders and executes the copy-forward phase of the sweep."""

    name: str

    def migrate(self, ctx: SweepContext) -> MigrationResult: ...


class ContainerPartition(NamedTuple):
    """One container's chunks split by validity, in container order.

    The aligned valid columns feed the batched copy-forward and the GCCDF
    Analyzer directly.  They are ``None`` only on fully-valid partitions
    (``invalid_bytes == 0``), which every consumer skips.
    """

    #: Interned ids of the valid chunks.
    valid_ids: list[int] | None
    #: Storage keys of the valid chunks.
    valid_keys: list[bytes] | None
    #: Sizes of the valid chunks.
    valid_sizes: list[int] | None
    invalid_keys: list[bytes]
    invalid_bytes: int


def partition_members(
    store: ContainerStore,
    index: FingerprintIndex,
    recipes: RecipeStore,
    mark: MarkResult,
    container_id: int,
) -> ContainerPartition:
    """Split one container's chunks by validity (metadata only, no I/O).

    One pass computes the valid columns, invalid keys, and invalid bytes
    together.  With a Bloom VC table a dead chunk may test valid and be
    retained — safe, never the reverse.

    A key the index no longer holds is always invalid, whatever the VC
    table says: the hybrid rededup pass drops coalesced duplicate keys
    from the index while their bytes are still at rest, and migrating such
    a chunk would have nothing to repoint.  (Inline mode never stores a
    container whose keys are absent from the index, so the guard is a
    no-op there.)

    Classification is per *distinct* id — validity is a key property, so
    every occurrence of the same key classifies alike — in three tiers:

    1. ids in the mark's ``live_ids`` are proven VC members (the set was
       built from the live key population; Bloom tables have no false
       negatives), leaving only the index-membership guard: a placement
       lookup per survivor, skipped entirely while the index still covers
       the interner's whole key domain;
    2. the remaining minority (dead keys, Bloom false positives, barrier
       keys added after the mark) probes the VC table and placement map
       per id;
    3. selection maps the surviving id set over the container's columns
       (``map`` + ``compress``).
    """
    container = store.peek(container_id)
    keys = recipes.interner.keys()
    placements = index.placements_map()
    vc_table = mark.vc_table
    ids = container.chunk_ids
    sizes = container.chunk_sizes
    distinct = container.distinct_ids()

    live_ids = mark.live_ids
    survivors = set(distinct & live_ids)
    rest = distinct - live_ids
    if survivors and len(placements) != len(keys):
        # Index-membership guard.  The index's key domain is always a
        # subset of the interner's (every indexed key passes through
        # interning), so equal sizes mean the index holds every interned
        # key and the guard cannot demote anything — the steady state
        # until a reclaim or a hybrid coalesce discards keys.
        # The filter probes the placement dict per survivor rather than
        # using a keys()-view set difference: dict-view set algebra copies
        # the whole view into a temporary set, which is O(index) per
        # container instead of O(survivors).
        survivors = {
            chunk_id for chunk_id in survivors if keys[chunk_id] in placements
        }
    for chunk_id in rest:
        key = keys[chunk_id]
        if key in vc_table and key in placements:
            survivors.add(chunk_id)

    if len(survivors) == len(distinct):
        # Fully valid (the GS-list majority).  Every consumer skips these
        # containers outright (``invalid_bytes == 0`` means nothing to
        # migrate or reclaim), so materialising the valid columns here
        # would be pure waste.
        return ContainerPartition(None, None, None, [], 0)
    if not survivors:
        return ContainerPartition(
            [], [], [], list(map(keys.__getitem__, ids)), container.used_bytes
        )
    mask = list(map(survivors.__contains__, ids))
    valid_sizes = list(compress(sizes, mask))
    return ContainerPartition(
        list(compress(ids, mask)),
        list(compress(map(keys.__getitem__, ids), mask)),
        valid_sizes,
        list(compress(map(keys.__getitem__, ids), map(not_, mask))),
        container.used_bytes - sum(valid_sizes),
    )


def partition(ctx: SweepContext, container_id: int) -> ContainerPartition:
    """:func:`partition_members` against a sweep context."""
    return partition_members(ctx.store, ctx.index, ctx.recipes, ctx.mark, container_id)


class JournaledCopyForward:
    """Crash-consistent copy-forward writer shared by every strategy.

    Strategies stream valid chunks through :meth:`migrate_chunk` (or whole
    per-source columns through :meth:`migrate_batch` — in whatever order
    they choose, that is their whole job) and hand each emptied source to
    :meth:`schedule_reclaim`; this class owns intent bracketing, index
    repointing at seal time, and the deferred reclaim queue.
    :meth:`finish` seals the tail and drains the queue.
    """

    def __init__(self, ctx: SweepContext):
        self.ctx = ctx
        self.journal = ctx.store.journal
        self.writer = ContainerWriter(ctx.store, on_commit=self._on_seal)
        self.result = MigrationResult()
        #: Open ``copyforward`` intent for the currently filling destination
        #: (its ``moves`` payload list is mutated in place as chunks arrive).
        self._intent = None
        self._moves: list[dict] | None = None
        #: source container id → chunks migrated out but not yet sealed.
        self._outstanding: dict[int, int] = {}
        #: fp → destination id, this round.  Guards against cross-container
        #: duplicates, which exist at rest only after an aborted round (the
        #: source survives next to an already-repointed destination).
        self._migrated: dict[bytes, int] = {}
        #: source container id → valid chunks migrated (trace reporting).
        self._valid_counts: dict[int, int] = {}
        #: FIFO of (source_id, invalid_fps, invalid_bytes) awaiting reclaim.
        #: Head-of-line blocking keeps ``reclaimed_ids`` in schedule order.
        self._pending: "deque[tuple[int, list[bytes], int]]" = deque()

    def migrate_chunk(
        self,
        chunk_id: int,
        fp: bytes,
        size: int,
        payload: bytes | None,
        source_id: int,
    ) -> None:
        """Copy one valid chunk of ``source_id`` toward the open destination."""
        if fp in self._migrated:
            # Second physical copy of a key already migrated this round
            # (possible only after a recovered crash left a duplicate at
            # rest): keep the one copy, skip the append.
            return
        # May seal the previous destination.
        destination = self.writer.append(chunk_id, size, fp, payload)
        if self._intent is None:
            self._moves = []
            self._intent = self.journal.begin(
                "copyforward", destination=destination, moves=self._moves
            )
        self._moves.append({"fp": fp, "source": source_id, "size": size})
        self._migrated[fp] = destination
        self._outstanding[source_id] = self._outstanding.get(source_id, 0) + 1
        self._valid_counts[source_id] = self._valid_counts.get(source_id, 0) + 1
        self.result.migrated_bytes += size
        self.result.migrated_chunks += 1

    def migrate_batch(
        self,
        ids: Sequence[int],
        fps: Sequence[bytes],
        sizes: Sequence[int],
        sources: "int | Sequence[int]",
    ) -> None:
        """Copy a payload-free column of valid chunks in one batched pass.

        ``ids``/``fps``/``sizes`` are aligned interned-id, storage-key and
        size columns (a container partition's valid columns, or a planner
        sequence); ``sources`` is the single source container id or a
        per-chunk column of them.
        Semantically identical to a :meth:`migrate_chunk` loop — the same
        per-chunk move records land in the ``copyforward`` intent payload,
        the same seal/repoint boundaries fire — but capacity packing, intent
        payload growth, the duplicate guard, and the per-source counters all
        run once per destination *run* instead of once per chunk.
        """
        n = len(ids)
        if n == 0:
            return
        migrated = self._migrated
        multi_source = not isinstance(sources, int)
        if (migrated and not migrated.keys().isdisjoint(fps)) or len(set(fps)) != n:
            # Duplicates in play (a recovered crash left a key at rest
            # twice): fall back to the per-chunk loop and its guard.
            source_column = sources if multi_source else repeat(sources)
            for chunk_id, fp, size, source_id in zip(ids, fps, sizes, source_column):
                self.migrate_chunk(chunk_id, fp, size, None, source_id)
            return

        writer = self.writer
        result = self.result
        outstanding = self._outstanding
        valid_counts = self._valid_counts
        prefix = list(accumulate(sizes))
        start = 0
        while start < n:
            container = writer.open_for(sizes[start])  # may seal the previous one
            if self._intent is None:
                self._moves = []
                self._intent = self.journal.begin(
                    "copyforward",
                    destination=container.container_id,
                    moves=self._moves,
                )
            base = prefix[start - 1] if start else 0
            stop = bisect_right(
                prefix, base + container.capacity - container.used_bytes, lo=start
            )
            if stop == start:
                # A single chunk larger than an empty container: surface
                # the same ContainerFullError the per-chunk path raises.
                container.append(ids[start], sizes[start], fps[start])
            run_fps = fps[start:stop]
            run_sizes = sizes[start:stop]
            run_bytes = prefix[stop - 1] - base
            container.extend(ids[start:stop], run_sizes, run_bytes)
            destination = container.container_id
            if multi_source:
                run_sources = sources[start:stop]
                self._moves.extend(
                    {"fp": fp, "source": source_id, "size": size}
                    for fp, source_id, size in zip(run_fps, run_sources, run_sizes)
                )
                for source_id, count in Counter(run_sources).items():
                    outstanding[source_id] = outstanding.get(source_id, 0) + count
                    valid_counts[source_id] = valid_counts.get(source_id, 0) + count
            else:
                self._moves.extend(
                    {"fp": fp, "source": sources, "size": size}
                    for fp, size in zip(run_fps, run_sizes)
                )
                count = stop - start
                outstanding[sources] = outstanding.get(sources, 0) + count
                valid_counts[sources] = valid_counts.get(sources, 0) + count
            migrated.update(zip(run_fps, repeat(destination)))
            result.migrated_bytes += run_bytes
            result.migrated_chunks += stop - start
            start = stop

    def schedule_reclaim(
        self, container_id: int, invalid_fps: list[bytes], invalid_bytes: int
    ) -> None:
        """Reclaim ``container_id`` once its migrated chunks are durable."""
        self._pending.append((container_id, invalid_fps, invalid_bytes))
        self._drain()

    def finish(self) -> MigrationResult:
        """Seal the open destination, drain pending reclaims, and report."""
        produced = self.writer.flush()  # triggers _on_seal → final drain
        self._drain()
        assert not self._pending, "reclaim deferred past the end of the sweep"
        self.result.produced_ids = produced
        return self.result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_seal(self, container: Container) -> None:
        """Destination sealed: repoint the index, close the intent, drain."""
        intent, moves = self._intent, self._moves
        self._intent = self._moves = None
        assert intent is not None and moves is not None
        self.ctx.disk.crash_point(
            "sweep.repoint",
            container_id=container.container_id,
            chunks=len(moves),
        )
        self.ctx.index.relocate_many(
            (move["fp"] for move in moves), container.container_id
        )
        self.journal.commit(intent)
        self.journal.close(intent)
        for move in moves:
            self._outstanding[move["source"]] -= 1
        self._drain()

    def _drain(self) -> None:
        while self._pending and self._outstanding.get(self._pending[0][0], 0) == 0:
            container_id, invalid_fps, invalid_bytes = self._pending.popleft()
            self._reclaim(container_id, invalid_fps, invalid_bytes)

    def _reclaim(self, container_id: int, invalid_fps: list[bytes], invalid_bytes: int) -> None:
        intent = self.journal.begin(
            "reclaim", container_id=container_id, invalid=invalid_fps
        )
        for fp in invalid_fps:
            self.ctx.index.discard(fp)
        self.ctx.disk.crash_point("sweep.delete", container_id=container_id)
        self.ctx.store.delete_container(container_id)
        self.journal.commit(intent)
        self.journal.close(intent)
        self.result.reclaimed_ids.append(container_id)
        self.result.reclaimed_bytes += invalid_bytes
        tracer = self.ctx.disk.tracer
        if tracer.enabled:
            tracer.emit(
                "gc.reclaim",
                sim_time=self.ctx.disk.sim_time,
                fields={
                    "container_id": container_id,
                    "valid_chunks": self._valid_counts.get(container_id, 0),
                    "invalid_bytes": invalid_bytes,
                },
            )


def sweep_source(
    copy_forward: JournaledCopyForward,
    ctx: SweepContext,
    container_id: int,
    part: ContainerPartition,
) -> None:
    """Classic per-source sweep body shared by the STW and incremental
    engines: read the source if anything survives, copy the valid chunks
    forward (batched, or per chunk with its payload for a byte-level
    container), and schedule the reclaim."""
    payload_source = ctx.store.read_container(container_id) if part.valid_ids else None
    if payload_source is None or not payload_source.has_payloads():
        copy_forward.migrate_batch(
            part.valid_ids, part.valid_keys, part.valid_sizes, container_id
        )
    else:
        for chunk_id, key, size in zip(part.valid_ids, part.valid_keys, part.valid_sizes):
            copy_forward.migrate_chunk(
                chunk_id, key, size, payload_source.payload(key), container_id
            )
    copy_forward.schedule_reclaim(container_id, part.invalid_keys, part.invalid_bytes)


class NaiveMigration:
    """Scan-order copy-forward: classic mark–sweep (paper §2.4).

    Containers are processed in GS-list order; within each container valid
    chunks keep their relative order.  No attempt is made to co-locate
    related chunks — fragmentation survives the sweep, which is precisely
    the behaviour GCCDF improves on.
    """

    name = "naive"

    def migrate(self, ctx: SweepContext) -> MigrationResult:
        copy_forward = JournaledCopyForward(ctx)
        for container_id in ctx.mark.gs_list:
            part = partition(ctx, container_id)
            if part.invalid_bytes == 0:
                continue  # involved but fully valid: nothing to reclaim
            # Sweep-read: one full container read, skipped when nothing is
            # valid (metadata already told us there is nothing to copy).
            sweep_source(copy_forward, ctx, container_id, part)
        return copy_forward.finish()
