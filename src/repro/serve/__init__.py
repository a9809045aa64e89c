"""Read serving: random-access reads over live backups.

The paper evaluates fragmentation through full sequential restores; this
package extends the argument to the traffic class where fragmentation
hurts most — latency-sensitive point reads from *old* backups
(mount-a-backup semantics, ROADMAP item 4).  ``service.open_backup``
returns a :class:`BackupReader` whose ``pread(offset, length)`` bisects
the recipe's prefix-sum offset column, resolves the touched chunks
through a :class:`TieredReadCache` (hot-chunk LRU in front of a container
LRU), and reports the request's simulated latency; ``read_all()`` is the
existing restore path, counter-identical by construction.

See ``docs/serving.md`` for the API, the cache tiers, the latency model,
and the aged-read claim (``tests/test_serve.py::TestAgedReads``; the
``reads-gccdf-web`` row of ``benchmarks/e2e`` measures the read path).
"""

from repro.serve.cache import TieredReadCache
from repro.serve.reader import (
    BackupReader,
    ContainerReadStrategy,
    MFDedupReadStrategy,
)
from repro.serve.report import ReadReport

__all__ = [
    "BackupReader",
    "ContainerReadStrategy",
    "MFDedupReadStrategy",
    "ReadReport",
    "TieredReadCache",
]
