"""The deduplicating ingest pipeline (paper §2.2).

``ingest`` consumes a backup's chunk stream — either materialised
:class:`~repro.model.Chunk` objects from a real chunker or bare
:class:`~repro.model.ChunkRef` references from a trace-level workload — and:

1. probes the logical index for duplicates,
2. offers every entry to the rewriting policy (the hook where Capping/HAR/SMR
   act; the paper's workflow puts rewriting exactly here),
3. writes unique and rewrite-flagged chunks to containers,
4. records the backup's recipe over *storage keys*, pinning the exact copies
   this backup reads at restore time.

Setting ``dedup_enabled=False`` makes every occurrence a fresh copy — the
Non-dedup baseline of §3.1 — through the same code path.

Recipes are built as :class:`~repro.index.columnar.ColumnarRecipe` id/size
columns.  Streams that need no rewriting decisions (``NullRewriting`` —
Naïve, GCCDF, Non-dedup) take a fused batched kernel: the duplicate majority
of the stream is classified with two C-level dict probes and two array
appends per chunk, materialising no ``IngestEntry``/``ChunkRef`` objects and
paying no policy calls.  Policy-bearing streams offer one ``IngestEntry``
per chunk to the policy over the same probe sequence; hybrid-mode streams
classify against the neighbor window and the ingest Bloom filter instead of
the index (:mod:`repro.dedup.hybrid`).
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from typing import Iterable, Union

from repro.dedup.hybrid import HybridState
from repro.dedup.logical_index import LogicalIndex
from repro.dedup.rewriting.base import IngestEntry, NullRewriting, RewritingPolicy
from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.model import Chunk, ChunkRef
from repro.storage.store import ContainerStore
from repro.storage.writer import ContainerWriter


@dataclass(frozen=True)
class IngestResult:
    """Accounting for one ingested backup."""

    backup_id: int
    logical_bytes: int
    num_chunks: int
    #: Bytes newly written to containers (unique + rewritten copies).
    stored_bytes: int
    #: Bytes eliminated as duplicates (not counting rewritten ones).
    dedup_bytes: int
    #: Bytes that were duplicates but stored again by the rewriting policy.
    rewritten_bytes: int
    #: Containers sealed while ingesting this backup.
    containers_written: int

    def to_dict(self) -> dict:
        """Plain-scalar dict; round-trips through JSON (worker results)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "IngestResult":
        return cls(**data)


class IngestPipeline:
    """Drives backup streams through dedup + rewriting into containers."""

    def __init__(
        self,
        store: ContainerStore,
        index: FingerprintIndex,
        recipes: RecipeStore,
        rewriting: RewritingPolicy | None = None,
        dedup_enabled: bool = True,
        hybrid: HybridState | None = None,
    ):
        self.store = store
        self.index = index
        self.recipes = recipes
        self.rewriting = rewriting or NullRewriting()
        self.dedup_enabled = dedup_enabled
        self.hybrid = hybrid
        self.logical = LogicalIndex(index)

    def ingest(
        self,
        stream: Iterable[Union[Chunk, ChunkRef]],
        source: str = "",
    ) -> IngestResult:
        """Deduplicate and store one backup; returns its accounting."""
        if (
            self.hybrid is not None
            and self.dedup_enabled
            and type(self.rewriting) is NullRewriting
        ):
            # Hybrid classification only applies to decision-free streams:
            # rewriting policies need the full inline duplicate verdict per
            # chunk, so policy-bearing services fall back to inline dedup.
            return self._ingest_hybrid_batched(stream, source)
        # The fused kernel assumes the policy is a decision-free
        # pass-through (exact type check: subclasses may override hooks).
        if type(self.rewriting) is NullRewriting:
            return self._ingest_batched(stream, source)
        return self._ingest_columnar_policy(stream, source)

    # ------------------------------------------------------------------
    # Rewriting-policy path: per-entry decisions over interned id/size
    # columns
    # ------------------------------------------------------------------

    def _ingest_columnar_policy(
        self, stream: Iterable[Union[Chunk, ChunkRef]], source: str
    ) -> IngestResult:
        """Policy-bearing ingest.

        The policy still sees one :class:`IngestEntry` per chunk — buffered
        segment decisions (Capping/HAR/SMR) need the full entry — but the
        duplicate probe is the fused ``current``/``placements`` dict pair
        with bulk-flushed statistics (as in :meth:`_ingest_batched`), and
        accepted entries append interned ids instead of ``ChunkRef``s,
        which only the miss/rewrite minority materialises.
        """
        backup_id = self.recipes.new_backup_id()
        self.rewriting.begin_backup(backup_id)
        writer = ContainerWriter(self.store)

        ids = array("q")
        sizes = array("q")
        ids_append = ids.append
        sizes_append = sizes.append
        intern = self.recipes.interner.intern
        interned_get = self.recipes.interner.id_map().get

        index = self.index
        logical = self.logical
        current = logical.current_map()
        current_get = current.get
        placements_get = index.placements_map().get
        new_key = logical.new_key
        insert = index.insert
        writer_append = writer.append
        feed = self.rewriting.feed
        chunk_type = Chunk
        dedup_enabled = self.dedup_enabled

        logical_bytes = 0
        stored_bytes = 0
        dedup_bytes = 0
        rewritten_bytes = 0
        # Probe statistics, flushed to the index objects after the loop
        # (bulk adds of the per-probe increments LogicalIndex.lookup makes).
        log_lookups = 0
        log_hits = 0
        phys_probes = 0
        phys_hits = 0

        def write_entry(entry: IngestEntry) -> None:
            nonlocal stored_bytes, dedup_bytes, rewritten_bytes
            if entry.duplicate and not entry.rewrite:
                assert entry.existing_key is not None
                ids_append(intern(entry.existing_key))
                sizes_append(entry.size)
                dedup_bytes += entry.size
                return
            key = new_key(entry.fp)
            container_id = writer_append(ChunkRef(fp=key, size=entry.size), entry.payload)
            insert(key, container_id, entry.size)
            ids_append(intern(key))
            sizes_append(entry.size)
            stored_bytes += entry.size
            if entry.duplicate:
                rewritten_bytes += entry.size

        with self.store.disk.phase("ingest") as ph:
            for item in stream:
                if isinstance(item, chunk_type):
                    fp, size, payload = item.fp, item.size, item.data
                else:
                    fp, size, payload = item.fp, item.size, None
                logical_bytes += size
                entry = IngestEntry(fp=fp, size=size, payload=payload)
                if dedup_enabled:
                    log_lookups += 1
                    key = current_get(fp)
                    if key is not None:
                        phys_probes += 1
                        placement = placements_get(key)
                        if placement is not None:
                            phys_hits += 1
                            log_hits += 1
                            # A copy sitting in the still-open container cannot
                            # be fragmented away from this stream; treat normally.
                            entry.duplicate = True
                            entry.existing_key = key
                            entry.container_id = placement.container_id
                        else:
                            # Stale entry: the copy was reclaimed — drop it
                            # (exactly what LogicalIndex.lookup does).
                            del current[fp]
                for decided in feed(entry):
                    # Accepted duplicates are the stream majority: record
                    # them inline with a bare intern-dict probe; the
                    # miss/rewrite minority takes the full write path.
                    if decided.duplicate and not decided.rewrite:
                        existing = decided.existing_key
                        chunk_id = interned_get(existing)
                        ids_append(
                            intern(existing) if chunk_id is None else chunk_id
                        )
                        sizes_append(decided.size)
                        dedup_bytes += decided.size
                    else:
                        write_entry(decided)

            for decided in self.rewriting.flush():
                write_entry(decided)
            containers = writer.flush()
            self.rewriting.end_backup()
            ph.annotate(
                backup_id=backup_id,
                logical_bytes=logical_bytes,
                stored_bytes=stored_bytes,
                dedup_bytes=dedup_bytes,
                rewritten_bytes=rewritten_bytes,
                containers_written=len(containers),
            )

        logical.lookups += log_lookups
        logical.hits += log_hits
        index.lookups += phys_probes
        index.hits += phys_hits

        recipe = ColumnarRecipe(
            backup_id=backup_id,
            interner=self.recipes.interner,
            chunk_ids=ids,
            chunk_sizes=sizes,
            source=source,
        )
        self.recipes.add(recipe)
        return IngestResult(
            backup_id=backup_id,
            logical_bytes=logical_bytes,
            num_chunks=len(ids),
            stored_bytes=stored_bytes,
            dedup_bytes=dedup_bytes,
            rewritten_bytes=rewritten_bytes,
            containers_written=len(containers),
        )

    # ------------------------------------------------------------------
    # Batched path: decision-free streams
    # ------------------------------------------------------------------

    def _ingest_batched(
        self, stream: Iterable[Union[Chunk, ChunkRef]], source: str
    ) -> IngestResult:
        """Fused classify/record kernel for ``NullRewriting`` streams.

        The policy path's step sequence — same probe order, same write
        order, same counters — with every per-chunk attribute lookup and
        method call hoisted out of the loop and the index-statistics
        updates batched, so the duplicate majority costs two dict probes
        and two array appends per occurrence.
        """
        backup_id = self.recipes.new_backup_id()
        self.rewriting.begin_backup(backup_id)
        writer = ContainerWriter(self.store)

        ids = array("q")
        sizes = array("q")
        ids_append = ids.append
        sizes_append = sizes.append
        intern = self.recipes.interner.intern

        index = self.index
        logical = self.logical
        current = logical.current_map()
        current_get = current.get
        placements = index.placements_map()
        placements_get = placements.get
        new_key = logical.new_key
        insert = index.insert
        writer_append = writer.append
        chunk_type = Chunk
        dedup_enabled = self.dedup_enabled

        logical_bytes = 0
        stored_bytes = 0
        dedup_bytes = 0
        # Probe statistics, flushed to the index objects after the loop
        # (bulk adds of the per-probe increments LogicalIndex.lookup makes).
        log_lookups = 0
        log_hits = 0
        phys_probes = 0
        phys_hits = 0

        with self.store.disk.phase("ingest") as ph:
            for item in stream:
                if isinstance(item, chunk_type):
                    fp, size, payload = item.fp, item.size, item.data
                else:
                    fp, size, payload = item.fp, item.size, None
                logical_bytes += size
                if dedup_enabled:
                    log_lookups += 1
                    key = current_get(fp)
                    if key is not None:
                        phys_probes += 1
                        if placements_get(key) is not None:
                            # Duplicate: reference the live current copy.
                            phys_hits += 1
                            log_hits += 1
                            ids_append(intern(key))
                            sizes_append(size)
                            dedup_bytes += size
                            continue
                        # Stale entry: the copy was reclaimed — drop it and
                        # fall through to the miss path (exactly what
                        # LogicalIndex.lookup does).
                        del current[fp]
                # Miss (or dedup disabled): store a fresh copy.
                key = new_key(fp)
                container_id = writer_append(ChunkRef(fp=key, size=size), payload)
                insert(key, container_id, size)
                ids_append(intern(key))
                sizes_append(size)
                stored_bytes += size

            containers = writer.flush()
            self.rewriting.end_backup()
            ph.annotate(
                backup_id=backup_id,
                logical_bytes=logical_bytes,
                stored_bytes=stored_bytes,
                dedup_bytes=dedup_bytes,
                rewritten_bytes=0,
                containers_written=len(containers),
            )

        logical.lookups += log_lookups
        logical.hits += log_hits
        index.lookups += phys_probes
        index.hits += phys_hits

        recipe = ColumnarRecipe(
            backup_id=backup_id,
            interner=self.recipes.interner,
            chunk_ids=ids,
            chunk_sizes=sizes,
            source=source,
        )
        self.recipes.add(recipe)
        return IngestResult(
            backup_id=backup_id,
            logical_bytes=logical_bytes,
            num_chunks=len(ids),
            stored_bytes=stored_bytes,
            dedup_bytes=dedup_bytes,
            rewritten_bytes=0,
            containers_written=len(containers),
        )

    # ------------------------------------------------------------------
    # Hybrid inline/out-of-line path: neighbor/filter classification,
    # deferred duplicates coalesced later by GC (repro.dedup.hybrid)
    # ------------------------------------------------------------------

    def _ingest_hybrid_batched(
        self, stream: Iterable[Union[Chunk, ChunkRef]], source: str
    ) -> IngestResult:
        """Fused hybrid kernel for ``NullRewriting`` streams.

        Per chunk: probe the per-source neighbor window (this stream's own
        entries, then the previous backup of the same source); a neighbor
        hit dedups inline after one index ``validate`` probe.  A neighbor
        miss consults only the ingest Bloom filter: "never seen" stores a
        definitely-new chunk, "maybe seen" stores a fresh copy *and*
        records it as a deferred-duplicate candidate for GC to coalesce.
        The full fingerprint index is never probed on the miss path —
        that is the fast-path saving the mode exists for.  The logical
        index's ``lookups`` counter is untouched by design: no logical
        probe happens.
        """
        hybrid = self.hybrid
        assert hybrid is not None
        backup_id = self.recipes.new_backup_id()
        self.rewriting.begin_backup(backup_id)
        writer = ContainerWriter(self.store)

        ids = array("q")
        sizes = array("q")
        ids_append = ids.append
        sizes_append = sizes.append
        intern = self.recipes.interner.intern

        index = self.index
        logical = self.logical
        placements_get = index.placements_map().get
        new_key = logical.new_key
        insert = index.insert
        writer_append = writer.append
        chunk_type = Chunk

        hybrid.maybe_rebuild_filter(logical.current_map())
        filter_contains = hybrid.filter.__contains__
        filter_add = hybrid.filter.add
        prev = hybrid.neighbors.get(source, {})
        prev_get = prev.get
        cur: dict[bytes, bytes] = {}
        cur_get = cur.get
        candidates = hybrid.candidates
        candidates_get = candidates.get

        logical_bytes = 0
        stored_bytes = 0
        dedup_bytes = 0
        # Probe/classification statistics, flushed in bulk after the loop.
        phys_probes = 0
        phys_hits = 0
        neighbor_hits = 0
        neighbor_stale = 0
        filter_new = 0
        filter_maybe = 0
        deferred = 0
        filter_adds = 0

        with self.store.disk.phase("ingest") as ph:
            for item in stream:
                if isinstance(item, chunk_type):
                    fp, size, payload = item.fp, item.size, item.data
                else:
                    fp, size, payload = item.fp, item.size, None
                logical_bytes += size
                key = cur_get(fp)
                if key is None:
                    key = prev_get(fp)
                if key is not None:
                    phys_probes += 1
                    if placements_get(key) is not None:
                        # Neighbor hit on a live copy: inline dedup.
                        phys_hits += 1
                        neighbor_hits += 1
                        ids_append(intern(key))
                        sizes_append(size)
                        dedup_bytes += size
                        cur[fp] = key
                        refs = candidates_get(key)
                        if refs is not None:
                            refs.add(backup_id)
                        continue
                    # The neighbor copy was reclaimed (or coalesced away):
                    # drop the stale entry and classify from scratch.
                    neighbor_stale += 1
                    prev.pop(fp, None)
                    cur.pop(fp, None)
                # Neighbor miss: Bloom-only classification — the full
                # index is not probed.  Either way the chunk is stored.
                maybe_seen = filter_contains(fp)
                key = new_key(fp)
                container_id = writer_append(ChunkRef(fp=key, size=size), payload)
                insert(key, container_id, size)
                ids_append(intern(key))
                sizes_append(size)
                stored_bytes += size
                cur[fp] = key
                filter_add(fp)
                filter_adds += 1
                if maybe_seen:
                    filter_maybe += 1
                    candidates[key] = {backup_id}
                    deferred += 1
                else:
                    filter_new += 1

            containers = writer.flush()
            self.rewriting.end_backup()
            ph.annotate(
                backup_id=backup_id,
                logical_bytes=logical_bytes,
                stored_bytes=stored_bytes,
                dedup_bytes=dedup_bytes,
                rewritten_bytes=0,
                containers_written=len(containers),
                deferred=deferred,
            )

        index.lookups += phys_probes
        index.hits += phys_hits
        hybrid.neighbor_hits += neighbor_hits
        hybrid.neighbor_stale += neighbor_stale
        hybrid.filter_new += filter_new
        hybrid.filter_maybe += filter_maybe
        hybrid.deferred += deferred
        hybrid.filter_adds += filter_adds
        # Advance the window: the next backup of this source dedups
        # against exactly this backup's fp → key map.
        hybrid.neighbors[source] = cur

        recipe = ColumnarRecipe(
            backup_id=backup_id,
            interner=self.recipes.interner,
            chunk_ids=ids,
            chunk_sizes=sizes,
            source=source,
        )
        self.recipes.add(recipe)
        return IngestResult(
            backup_id=backup_id,
            logical_bytes=logical_bytes,
            num_chunks=len(ids),
            stored_bytes=stored_bytes,
            dedup_bytes=dedup_bytes,
            rewritten_bytes=0,
            containers_written=len(containers),
        )
