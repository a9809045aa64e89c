"""Forward-assembly-area (FAA) restoration — Lillibridge et al., FAST '13.

The classic bounded-memory restore algorithm for container-based dedup
storage, and the principled model behind "restore with limited memory":

1. reserve a fixed assembly buffer of M bytes;
2. take the longest recipe prefix that fits in M (one *assembly span*);
3. for each distinct container the span needs, read it **once** and copy
   all of that container's chunks used anywhere in the span into place;
4. flush the span, advance, repeat.

With M covering the whole backup this degenerates to the read-once model;
smaller M forces containers whose chunks straddle span boundaries to be
re-read in later spans, which is exactly how fragmentation hurts real
restores under memory pressure.  The cache-size ablation uses the LRU
model; this engine exists as the literature-faithful alternative and for
cross-checking the two models agree at the extremes.
"""

from __future__ import annotations

from array import array

from repro.errors import ConfigError
from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.restore.report import RestoreReport
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore


class AssemblyRestoreEngine:
    """Restores backups span by span through a fixed assembly area."""

    def __init__(
        self,
        store: ContainerStore,
        index: FingerprintIndex,
        recipes: RecipeStore,
        disk: DiskModel,
        assembly_bytes: int,
    ):
        if assembly_bytes <= 0:
            raise ConfigError("assembly_bytes must be positive")
        self.store = store
        self.index = index
        self.recipes = recipes
        self.disk = disk
        self.assembly_bytes = assembly_bytes

    def restore(self, backup_id: int) -> RestoreReport:
        """Restore one backup; returns container-read accounting."""
        recipe = self.recipes.get(backup_id)

        with self.disk.phase("restore") as ph:
            container_reads = self._restore_columnar(recipe)
            ph.annotate(backup_id=backup_id, containers_read=container_reads)

        return RestoreReport(
            backup_id=backup_id,
            logical_bytes=recipe.logical_size,
            num_chunks=recipe.num_chunks,
            containers_read=container_reads,
            container_bytes_read=ph.delta.read_bytes,
            read_seconds=ph.delta.read_seconds,
            cache_hits=0,
        )

    def _restore_columnar(self, recipe: ColumnarRecipe) -> int:
        """Batched span walk: resolve the whole recipe to a container-id
        column once, then cut spans over the size column (one assembly
        span = the longest prefix fitting the area) and read each span's
        distinct containers once, in sorted order."""
        keys = recipe.interner.keys()
        index_get = self.index.get
        ids = recipe.chunk_ids
        # Unique ids in first-occurrence order at C speed, resolved once
        # each; the full column is then one C-level ``map`` over the memo.
        container_of = dict.fromkeys(ids)
        for chunk_id in container_of:
            container_of[chunk_id] = index_get(keys[chunk_id]).container_id
        column = array("q", map(container_of.__getitem__, ids))

        sizes = recipe.chunk_sizes
        num_chunks = len(sizes)
        read_container = self.store.read_container
        assembly_bytes = self.assembly_bytes
        container_reads = 0
        position = 0
        while position < num_chunks:
            span_bytes = 0
            end = position
            while end < num_chunks:
                size = sizes[end]
                if span_bytes + size > assembly_bytes and end > position:
                    break
                span_bytes += size
                end += 1

            for container_id in sorted(set(column[position:end])):
                read_container(container_id)
                container_reads += 1

            position = end
        return container_reads
