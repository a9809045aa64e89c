"""The restore engine.

Restoration walks a backup's recipe in stream order, resolves each storage
key through the fingerprint index, and fetches the owning container — whole,
because containers are the I/O unit (paper §2.1) — through a bounded LRU
cache.  Fragmentation manifests here: a scattered backup touches many
containers and keeps evicting useful ones, while a well-laid-out backup
streams through few containers each of which is fully consumed.

When containers carry payloads (byte-level pipeline) the engine can also
return or verify the restored bytes; the trace-level experiments only need
the accounting.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.errors import IntegrityError
from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.cache import ContainerCache
from repro.storage.store import ContainerStore
from repro.restore.report import RestoreReport


class RestoreEngine:
    """Restores backups, charging container-granular simulated I/O."""

    def __init__(
        self,
        store: ContainerStore,
        index: FingerprintIndex,
        recipes: RecipeStore,
        disk: DiskModel,
        cache_containers: int | None = None,
    ):
        self.store = store
        self.index = index
        self.recipes = recipes
        self.disk = disk
        self.cache_containers = cache_containers

    def restore(self, backup_id: int) -> RestoreReport:
        """Restore one backup; returns its I/O accounting.

        Batched: resolve the whole recipe to a container-id column, then
        drive the cache over the column.  Each *unique* chunk resolves
        through :meth:`FingerprintIndex.get` exactly once, at its first
        occurrence (so an unknown chunk raises where a per-entry walk
        would); the cache sees the per-entry container sequence, so
        hit/miss counters, simulated reads, and eviction events are those
        of :meth:`restore_bytes`.
        """
        recipe = self.recipes.get(backup_id)
        cache = ContainerCache(self.store, self.cache_containers)
        with self.disk.phase("restore") as ph:
            keys = recipe.interner.keys()
            index_get = self.index.get
            ids = recipe.chunk_ids
            # ``dict.fromkeys`` collects unique ids in first-occurrence order
            # at C speed; the full column is then one C-level ``map`` over
            # the memo.
            container_of = dict.fromkeys(ids)
            for chunk_id in container_of:
                container_of[chunk_id] = index_get(keys[chunk_id]).container_id
            cache.read_column(array("q", map(container_of.__getitem__, ids)))
            self._annotate(ph, recipe, cache)
        return self._report(recipe, cache, ph)

    def restore_bytes(self, backup_id: int) -> tuple[RestoreReport, bytes]:
        """Restore one backup and return its reassembled content.

        Requires the containers to hold payloads (byte-level pipeline);
        raises :class:`IntegrityError` if any chunk's bytes are missing or
        of the wrong length.
        """
        recipe = self.recipes.get(backup_id)
        cache = ContainerCache(self.store, self.cache_containers)
        pieces: list[bytes] = []
        with self.disk.phase("restore") as ph:
            for entry in recipe.entries:
                placement = self.index.get(entry.fp)
                container = cache.get(placement.container_id)
                payload = container.payload(entry.fp)
                if payload is None:
                    raise IntegrityError(
                        f"container {container.container_id} holds no payload for a "
                        f"chunk of backup {backup_id} (trace-level data cannot be "
                        "restored to bytes)"
                    )
                if len(payload) != entry.size:
                    raise IntegrityError(
                        f"payload size mismatch for backup {backup_id}: "
                        f"expected {entry.size}, got {len(payload)}"
                    )
                pieces.append(payload)
            self._annotate(ph, recipe, cache)
        return self._report(recipe, cache, ph), b"".join(pieces)

    @staticmethod
    def _annotate(ph, recipe: ColumnarRecipe, cache: ContainerCache) -> None:
        ph.annotate(
            backup_id=recipe.backup_id,
            containers_read=cache.misses,
            cache_hits=cache.hits,
            logical_bytes=recipe.logical_size,
        )

    @staticmethod
    def _report(recipe: ColumnarRecipe, cache: ContainerCache, ph) -> RestoreReport:
        return RestoreReport(
            backup_id=recipe.backup_id,
            logical_bytes=recipe.logical_size,
            num_chunks=recipe.num_chunks,
            containers_read=cache.misses,
            container_bytes_read=ph.delta.read_bytes,
            read_seconds=ph.delta.read_seconds,
            cache_hits=cache.hits,
        )

    def restore_all(self, backup_ids: list[int] | None = None) -> Iterator[RestoreReport]:
        """Restore every live backup (or the given ids), oldest first."""
        ids = backup_ids if backup_ids is not None else self.recipes.live_ids()
        for backup_id in ids:
            yield self.restore(backup_id)
