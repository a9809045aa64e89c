"""Array-backed recipes over interned chunk ids.

A :class:`ColumnarRecipe` — the one recipe representation — stores a
backup's chunk references as two parallel ``array('q')`` columns, interned
chunk ids and sizes, rather than one :class:`~repro.model.ChunkRef` object
per chunk.  At full scale a recipe holds tens of thousands of entries and
the system holds a hundred recipes, so the representation matters twice
over:

* memory — 16 bytes per entry in two flat buffers versus a ~100-byte
  ``ChunkRef`` (object header, two slots, an interned-elsewhere bytes key);
* speed — the hot loops (ingest dedup accounting, GC mark, restore
  resolution) iterate ints from a C buffer and index flat lists, instead of
  dereferencing an attribute pair per chunk.

Per-entry consumers read *views*: ``entries`` is a lazy sequence
materialising ``ChunkRef``s on demand (verification, analysis, byte-level
restore, and the rewriting policies walk it), and ``fingerprints()`` /
``unique_fingerprints()`` resolve through the interner's id → key table at
C speed.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from repro.index.interning import FingerprintInterner
from repro.model import ChunkRef


class RecipeEntriesView:
    """Sequence view over a columnar recipe, yielding ``ChunkRef``s.

    Supports ``len``, iteration, integer indexing, and slicing (a slice
    returns a tuple).
    """

    __slots__ = ("_ids", "_sizes", "_keys")

    def __init__(self, ids: array, sizes: array, keys: list[bytes]):
        self._ids = ids
        self._sizes = sizes
        self._keys = keys

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ChunkRef]:
        keys = self._keys
        for chunk_id, size in zip(self._ids, self._sizes):
            yield ChunkRef(fp=keys[chunk_id], size=size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            keys = self._keys
            return tuple(
                ChunkRef(fp=keys[chunk_id], size=size)
                for chunk_id, size in zip(self._ids[index], self._sizes[index])
            )
        return ChunkRef(fp=self._keys[self._ids[index]], size=self._sizes[index])


class ColumnarRecipe:
    """One backup's recipe as parallel id/size columns plus an interner."""

    __slots__ = (
        "backup_id",
        "source",
        "_interner",
        "_ids",
        "_sizes",
        "_logical_size",
        "_unique_ids",
        "_starts",
    )

    def __init__(
        self,
        backup_id: int,
        interner: FingerprintInterner,
        chunk_ids: array | Iterable[int],
        chunk_sizes: array | Iterable[int],
        source: str = "",
    ):
        self.backup_id = backup_id
        self.source = source
        self._interner = interner
        self._ids = chunk_ids if isinstance(chunk_ids, array) else array("q", chunk_ids)
        self._sizes = (
            chunk_sizes if isinstance(chunk_sizes, array) else array("q", chunk_sizes)
        )
        if len(self._ids) != len(self._sizes):
            raise ValueError(
                f"column length mismatch: {len(self._ids)} ids, "
                f"{len(self._sizes)} sizes"
            )
        self._logical_size: int | None = None
        self._unique_ids: frozenset[int] | None = None
        self._starts: array | None = None

    # ------------------------------------------------------------------
    # Columnar surface (the batched kernels read these directly)
    # ------------------------------------------------------------------

    @property
    def interner(self) -> FingerprintInterner:
        return self._interner

    @property
    def chunk_ids(self) -> array:
        """Interned chunk ids in stream order (read-only ``array('q')``)."""
        return self._ids

    @property
    def chunk_sizes(self) -> array:
        """Chunk sizes in stream order (read-only ``array('q')``)."""
        return self._sizes

    # ------------------------------------------------------------------
    # Per-entry views
    # ------------------------------------------------------------------

    @property
    def entries(self) -> RecipeEntriesView:
        return RecipeEntriesView(self._ids, self._sizes, self._interner.keys())

    @property
    def logical_size(self) -> int:
        """The backup's pre-dedup size in bytes (computed once, cached)."""
        size = self._logical_size
        if size is None:
            size = self._logical_size = sum(self._sizes)
        return size

    @property
    def chunk_starts(self) -> array:
        """Exclusive prefix sums of chunk sizes: byte offset where each
        chunk begins in the logical stream (computed once, cached).

        ``chunk_starts[i]`` is the stream offset of chunk ``i``; the read
        serving layer bisects this column to map ``(offset, length)``
        windows onto chunk ranges without walking the recipe.
        """
        starts = self._starts
        if starts is None:
            starts = array("q", bytes(8 * len(self._sizes)))
            offset = 0
            for i, size in enumerate(self._sizes):
                starts[i] = offset
                offset += size
            self._starts = starts
        return starts

    @property
    def num_chunks(self) -> int:
        return len(self._ids)

    def fingerprints(self) -> Iterator[bytes]:
        """Fingerprints in stream order (with duplicates, as stored)."""
        return map(self._interner.keys().__getitem__, self._ids)

    def unique_ids(self) -> frozenset[int]:
        """The recipe's distinct interned chunk ids (computed once, cached).

        Recipes are immutable, and the GC mark stage re-walks every recipe
        each round — caching the collapsed id set turns those re-walks into
        set algebra over prebuilt operands.
        """
        ids = self._unique_ids
        if ids is None:
            ids = self._unique_ids = frozenset(self._ids)
        return ids

    def unique_fingerprints(self) -> set[bytes]:
        keys = self._interner.keys()
        return {keys[chunk_id] for chunk_id in self.unique_ids()}

    def __repr__(self) -> str:
        return (
            f"ColumnarRecipe(backup_id={self.backup_id}, "
            f"num_chunks={len(self._ids)}, source={self.source!r})"
        )
