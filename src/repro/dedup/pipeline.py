"""The deduplicating ingest pipeline (paper §2.2).

``ingest`` consumes a backup's chunk stream — either materialised
:class:`~repro.model.Chunk` objects from a real chunker or bare
:class:`~repro.model.ChunkRef` references from a trace-level workload — and:

1. probes the logical index for duplicates,
2. lets the rewriting policy pick, per stream segment, the old containers
   whose duplicates are stored again (the hook where Capping/HAR/SMR act;
   the paper's workflow puts rewriting exactly here),
3. writes unique and rewritten chunks to containers,
4. records the backup's recipe over *storage keys*, pinning the exact copies
   this backup reads at restore time.

Setting ``dedup_enabled=False`` makes every occurrence a fresh copy — the
Non-dedup baseline of §3.1 — through the same code path.

Recipes are built as :class:`~repro.index.columnar.ColumnarRecipe` id/size
columns, and every stored chunk is written to its container under the same
interned id the recipe records.  Two kernels do the work.  The inline kernel
classifies the duplicate majority of the stream with two C-level dict probes
per chunk; without a policy (Naïve, GCCDF, Non-dedup) it records each chunk
at once, with a policy it buffers ``policy.segment_bytes`` of probed chunks
and records them once :meth:`RewritingPolicy.decide` has seen the segment's
per-container duplicate bytes.  Hybrid-mode streams classify against the
neighbor window and the ingest Bloom filter instead of the index
(:mod:`repro.dedup.hybrid`).
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from typing import Iterable, Union

from repro.dedup.hybrid import HybridState
from repro.dedup.logical_index import LogicalIndex
from repro.dedup.rewriting.base import RewritingPolicy
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
        self.rewriting = rewriting
        self.dedup_enabled = dedup_enabled
        self.hybrid = hybrid
        self.logical = LogicalIndex(index)

    def ingest(
        self,
        stream: Iterable[Union[Chunk, ChunkRef]],
        source: str = "",
    ) -> IngestResult:
        """Deduplicate and store one backup; returns its accounting."""
        if self.hybrid is not None and self.dedup_enabled and self.rewriting is None:
            # Hybrid classification only applies to policy-free streams:
            # rewriting policies need the full inline duplicate verdict per
            # chunk, so policy-bearing services fall back to inline dedup.
            return self._ingest_hybrid_batched(stream, source)
        return self._ingest_batched(stream, source)

    # ------------------------------------------------------------------
    # Inline path: index classification, optional segment rewriting
    # ------------------------------------------------------------------

    def _ingest_batched(
        self, stream: Iterable[Union[Chunk, ChunkRef]], source: str
    ) -> IngestResult:
        """Fused classify/record kernel for inline dedup.

        Every per-chunk attribute lookup and method call is hoisted out of
        the loop and the index-statistics updates are batched, so a
        policy-free duplicate costs two dict probes and two array appends.
        With a rewriting policy each chunk is still probed when it arrives,
        but recorded only when its segment closes: the pending
        ``(fp, size, payload, key, container_id)`` rows (``container_id``
        −1 on a miss) wait until ``policy.segment_bytes`` have arrived (or
        the stream ends), the policy names the containers whose duplicates
        are stored again, and the segment is recorded in stream order.
        """
        backup_id = self.recipes.new_backup_id()
        policy = self.rewriting
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
        placements_get = index.placements_map().get
        new_key = logical.new_key
        insert = index.insert
        writer_append = writer.append
        chunk_type = Chunk
        dedup_enabled = self.dedup_enabled

        logical_bytes = 0
        stored_bytes = 0
        dedup_bytes = 0
        rewritten_bytes = 0
        # Probe statistics, flushed to the index objects after the loop
        # (bulk adds of the per-probe increments LogicalIndex.lookup makes;
        # a logical hit is exactly a physical hit here).
        lookups = 0
        probes = 0
        hits = 0

        pending: list[tuple[bytes, int, bytes | None, bytes | None, int]] = []
        pending_append = pending.append
        pending_bytes = 0
        segment_limit = 0

        def close_segment(segment_bytes: int) -> None:
            nonlocal stored_bytes, dedup_bytes, rewritten_bytes
            referenced: dict[int, int] = {}
            for _, size, _, _, container_id in pending:
                if container_id >= 0:
                    referenced[container_id] = referenced.get(container_id, 0) + size
            rewrite = policy.decide(referenced, segment_bytes)
            for fp, size, payload, key, container_id in pending:
                if container_id >= 0:
                    if container_id not in rewrite:
                        ids_append(intern(key))
                        sizes_append(size)
                        dedup_bytes += size
                        continue
                    rewritten_bytes += size
                key = new_key(fp)
                chunk_id = intern(key)
                insert(key, writer_append(chunk_id, size, key, payload), size)
                ids_append(chunk_id)
                sizes_append(size)
                stored_bytes += size
            pending.clear()

        with self.store.disk.phase("ingest") as ph:
            if policy is not None:
                policy.begin_backup(backup_id)
                segment_limit = policy.segment_bytes
            for item in stream:
                if isinstance(item, chunk_type):
                    fp, size, payload = item.fp, item.size, item.data
                else:
                    fp, size, payload = item.fp, item.size, None
                logical_bytes += size
                container_id = -1
                if dedup_enabled:
                    lookups += 1
                    key = current_get(fp)
                    if key is not None:
                        probes += 1
                        placement = placements_get(key)
                        if placement is None:
                            # Stale entry: the copy was reclaimed — drop it
                            # and fall through to the miss path (exactly
                            # what LogicalIndex.lookup does).
                            del current[fp]
                        else:
                            hits += 1
                            if policy is None:
                                # Duplicate: reference the live current copy.
                                ids_append(intern(key))
                                sizes_append(size)
                                dedup_bytes += size
                                continue
                            container_id = placement.container_id
                if policy is None:
                    # Miss (or dedup disabled): store a fresh copy.
                    key = new_key(fp)
                    chunk_id = intern(key)
                    insert(key, writer_append(chunk_id, size, key, payload), size)
                    ids_append(chunk_id)
                    sizes_append(size)
                    stored_bytes += size
                    continue
                pending_append((fp, size, payload, key, container_id))
                pending_bytes += size
                if pending_bytes >= segment_limit:
                    close_segment(pending_bytes)
                    pending_bytes = 0
            if pending:
                close_segment(pending_bytes)

            containers = writer.flush()
            if policy is not None:
                policy.end_backup()
            ph.annotate(
                backup_id=backup_id,
                logical_bytes=logical_bytes,
                stored_bytes=stored_bytes,
                dedup_bytes=dedup_bytes,
                rewritten_bytes=rewritten_bytes,
                containers_written=len(containers),
            )

        logical.lookups += lookups
        logical.hits += hits
        index.lookups += probes
        index.hits += hits

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
    # Hybrid inline/out-of-line path: neighbor/filter classification,
    # deferred duplicates coalesced later by GC (repro.dedup.hybrid)
    # ------------------------------------------------------------------

    def _ingest_hybrid_batched(
        self, stream: Iterable[Union[Chunk, ChunkRef]], source: str
    ) -> IngestResult:
        """Fused hybrid kernel for policy-free streams.

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
                chunk_id = intern(key)
                container_id = writer_append(chunk_id, size, key, payload)
                insert(key, container_id, size)
                ids_append(chunk_id)
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
