"""Duplicate-detection index: logical fingerprint → current storage key.

This is the index ingest probes (paper §2.2 step ②).  It answers "has this
content been stored, and which physical copy should a new reference point
at?" — always the *most recent* copy, so that after a rewriting policy stores
a fresh copy, subsequent backups reference it and inherit its locality.

Entries can go stale: GC may reclaim the copy a logical entry points at
(when no recipe references it any more).  Rather than coupling GC to this
index, lookups validate against the physical index lazily and treat a stale
hit as a miss.
"""

from __future__ import annotations

from repro.dedup.keys import key_generation, storage_key
from repro.index.fingerprint_index import FingerprintIndex, Placement


class LogicalIndex:
    """fp → current storage key, validated against the physical index."""

    def __init__(self, physical: FingerprintIndex):
        self._physical = physical
        self._current: dict[bytes, bytes] = {}
        self.lookups = 0
        self.hits = 0

    def lookup(self, fp: bytes) -> tuple[bytes, Placement] | None:
        """Return the live current copy of ``fp``, or None.

        A hit whose storage key the physical index no longer holds (the copy
        was garbage-collected) is dropped and reported as a miss.
        """
        self.lookups += 1
        key = self._current.get(fp)
        if key is None:
            return None
        placement = self._physical.lookup(key)
        if placement is None:
            del self._current[fp]
            return None
        self.hits += 1
        return key, placement

    def new_key(self, fp: bytes) -> bytes:
        """Mint the storage key for a fresh copy of ``fp`` and make it
        current.  Generations increase monotonically per fingerprint."""
        previous = self._current.get(fp)
        generation = key_generation(previous) + 1 if previous is not None else 0
        key = storage_key(fp, generation)
        self._current[fp] = key
        return key

    def current_map(self) -> dict[bytes, bytes]:
        """The live fp → current-storage-key dict.

        Exposed for the batched ingest kernel, which fuses the probe /
        validate / invalidate sequence of :meth:`lookup` into one loop with
        C-level dict access; callers must mirror that exact semantics
        (including counter updates) when touching the map directly.
        """
        return self._current

    def __len__(self) -> int:
        return len(self._current)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
