"""Capping (Lillibridge et al., FAST '13).

Capping bounds the number of *old* containers a fixed-size segment of the
backup stream may reference.  The stream is buffered in segments (20 MiB in
the original paper — expressed here as a multiple of the container size so it
scales with the geometry).  Within a segment the referenced old containers
are ranked by how many duplicate bytes they supply; only the top ``cap``
survive, and duplicates pointing at any other container are rewritten.

The effect: restoring the backup touches at most ``cap`` old containers per
segment, at the cost of re-storing the rewritten duplicates.
"""

from __future__ import annotations

from repro.dedup.rewriting.base import RewritingPolicy
from repro.errors import ConfigError
from repro.storage.store import ContainerStore


class CappingRewriting(RewritingPolicy):
    """Segment-buffered container capping."""

    def __init__(
        self,
        store: ContainerStore,
        cap: int = 20,
        segment_containers: int = 5,
    ):
        """``cap``: old containers allowed per segment (the paper's artifact
        default ``CappingThreshold=20``).  ``segment_containers``: segment
        length as a multiple of the container size (20 MiB / 4 MiB = 5)."""
        if cap <= 0:
            raise ConfigError("capping cap must be positive")
        if segment_containers <= 0:
            raise ConfigError("segment_containers must be positive")
        self.cap = cap
        self.segment_bytes = segment_containers * store.capacity

    def decide(self, referenced: dict[int, int], segment_bytes: int) -> set[int]:
        """Rank referenced containers; rewrite the ones beyond the cap."""
        if len(referenced) <= self.cap:
            return set()
        ranked = sorted(referenced, key=lambda cid: (-referenced[cid], cid))
        return set(ranked[self.cap :])
