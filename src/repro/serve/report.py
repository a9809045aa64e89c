"""Read-serving accounting: per-request bytes and simulated latency.

A :class:`ReadReport` is the point-read analogue of
:class:`~repro.restore.report.RestoreReport`: one record per
``pread(offset, length)`` call, carrying the chunk window the request
mapped onto, the tiered-cache outcome, and the simulated seconds the
request's device I/O cost — its read latency.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ReadReport:
    """Metrics for one random-access read against a backup."""

    backup_id: int
    #: Requested stream offset.
    offset: int
    #: Requested length (pre-clamp).
    length: int
    #: Logical bytes actually served (clamped to the backup's size).
    bytes_read: int
    #: Chunk entries the request window overlapped.
    num_chunks: int
    #: Chunks served from the hot-chunk cache tier (no container touched).
    chunk_hits: int
    #: Container fetches answered by the container cache tier.
    container_hits: int
    #: Device fetches (container reads, or positioned volume reads for
    #: MFDedup's container-free layout).
    containers_read: int
    #: Bytes fetched from the device for this request.
    container_bytes_read: int
    #: Simulated seconds of device I/O — the request's latency.
    read_seconds: float

    def to_dict(self) -> dict:
        """Plain-scalar dict; round-trips through JSON."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReadReport":
        return cls(**data)

    @property
    def read_amplification(self) -> float:
        """Device bytes fetched per logical byte served."""
        if self.bytes_read == 0:
            return 0.0
        return self.container_bytes_read / self.bytes_read

    @property
    def latency(self) -> float:
        """Alias for :attr:`read_seconds` (simulated request latency)."""
        return self.read_seconds
