"""The fingerprint index: fingerprint → physical placement.

This is the dedup system's central metadata structure: ingest probes it to
detect duplicates, restore resolves each recipe entry through it to a
container, and GC *rewrites* it when migration moves chunks.  That recipes
store only fingerprints while the index owns placements is the design
decision (DESIGN.md §4) that lets GCCDF reorder chunks during GC without
touching a single recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import UnknownChunkError


@dataclass(frozen=True, slots=True)
class Placement:
    """Where a unique chunk currently lives."""

    container_id: int
    size: int


class FingerprintIndex:
    """Mutable map fingerprint → :class:`Placement`."""

    def __init__(self) -> None:
        self._entries: dict[bytes, Placement] = {}
        self.lookups = 0
        self.hits = 0

    def lookup(self, fp: bytes) -> Placement | None:
        """Probe for ``fp``; counts ``lookups``/``hits``."""
        self.lookups += 1
        placement = self._entries.get(fp)
        if placement is not None:
            self.hits += 1
        return placement

    def lookup_many(self, fps: Sequence[bytes]) -> list["Placement | None"]:
        """Batched probes: one C-level ``dict.get`` map over ``fps`` with the
        exact ``lookups``/``hits`` accounting of ``len(fps)`` individual
        :meth:`lookup` calls.  The index is not mutated, so batching is
        unobservable beyond the saved per-call overhead.
        """
        results = list(map(self._entries.get, fps))
        self.lookups += len(results)
        # Truthiness, not ``count(None)``: placements are plain dataclasses,
        # so an equality-based count would dispatch ``__eq__`` per element.
        self.hits += len(list(filter(None, results)))
        return results

    def get(self, fp: bytes) -> Placement:
        """Resolve a fingerprint that must exist (restore path)."""
        placement = self._entries.get(fp)
        if placement is None:
            raise UnknownChunkError(f"fingerprint {fp.hex()[:10]}… not in index")
        return placement

    def insert(self, fp: bytes, container_id: int, size: int) -> None:
        """Record a newly stored unique chunk."""
        self._entries[fp] = Placement(container_id=container_id, size=size)

    def relocate(self, fp: bytes, container_id: int) -> None:
        """Update placement after GC migrates a chunk."""
        old = self._entries.get(fp)
        if old is None:
            raise UnknownChunkError(f"cannot relocate unknown fingerprint {fp.hex()[:10]}…")
        self._entries[fp] = Placement(container_id=container_id, size=old.size)

    def relocate_many(self, fps: Iterable[bytes], container_id: int) -> None:
        """Batched :meth:`relocate` for a sealed copy-forward destination:
        every ``fp`` is repointed at ``container_id``, sizes preserved.
        ``relocate`` keeps no counters, so the batch is observationally
        identical to the per-key loop (including the error on unknown
        fingerprints, re-raised with the same message)."""
        entries = self._entries
        try:
            entries.update(
                [
                    (fp, Placement(container_id=container_id, size=entries[fp].size))
                    for fp in fps
                ]
            )
        except KeyError as exc:
            fp = exc.args[0]
            raise UnknownChunkError(
                f"cannot relocate unknown fingerprint {fp.hex()[:10]}…"
            ) from None

    def discard(self, fp: bytes) -> None:
        """Forget a chunk reclaimed by GC, if present (idempotent)."""
        self._entries.pop(fp, None)

    def __contains__(self, fp: bytes) -> bool:
        return fp in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[bytes, Placement]]:
        return iter(self._entries.items())

    def placements_map(self) -> dict[bytes, Placement]:
        """The live fp → placement dict, for batched kernels that fuse many
        :meth:`lookup` probes into one loop (callers must replicate the
        ``lookups``/``hits`` accounting in bulk and never mutate the map)."""
        return self._entries

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
