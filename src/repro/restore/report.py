"""Restore accounting: read amplification and restoration speed.

The two headline metrics follow the paper's definitions exactly:

* read amplification (§6.3) =
  ``size of containers read during restoration / size of restored backup``;
* restoration speed (§6.2) =
  ``size of the backup / time to restore it`` — time being simulated disk
  seconds under the cost model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class RestoreReport:
    """Metrics for one restored backup."""

    backup_id: int
    logical_bytes: int
    num_chunks: int
    #: Distinct containers fetched from disk (cache misses).
    containers_read: int
    #: Bytes of containers fetched from disk.
    container_bytes_read: int
    #: Simulated seconds spent reading containers.
    read_seconds: float
    #: Container-cache hits (container already in restore cache).
    cache_hits: int

    def to_dict(self) -> dict:
        """Plain-scalar dict; round-trips through JSON (worker results)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RestoreReport":
        return cls(**data)

    @property
    def read_amplification(self) -> float:
        """Container bytes fetched per byte of backup restored."""
        if self.logical_bytes == 0:
            return 0.0
        return self.container_bytes_read / self.logical_bytes

    @property
    def speed_bytes_per_second(self) -> float:
        """Restoration speed under the simulated disk model."""
        if self.read_seconds == 0.0:
            return float("inf") if self.logical_bytes else 0.0
        return self.logical_bytes / self.read_seconds
