"""HAR — History-Aware Rewriting (Fu et al., TPDS '16).

HAR's insight is that fragmentation shows up as *sparse containers*: old
containers of which the current backup references only a small fraction.
Because consecutive backups are similar, a container sparse for backup *n*
will be sparse for backup *n+1* too.  So HAR records, while ingesting each
backup, the utilization of every old container it references; containers
below the utilization threshold are declared sparse, and during the *next*
backup every duplicate chunk housed in a sparse container is rewritten.

Decisions are per chunk (``segment_bytes = 0``: no stream buffering), which
is what makes HAR cheap at ingest time.
"""

from __future__ import annotations

from repro.dedup.rewriting.base import RewritingPolicy
from repro.errors import ConfigError, UnknownContainerError
from repro.storage.store import ContainerStore


class HARRewriting(RewritingPolicy):
    """Sparse-container rewriting driven by the previous backup's history."""

    def __init__(self, store: ContainerStore, utilization_threshold: float = 0.25):
        """``utilization_threshold``: containers whose referenced fraction
        falls below this are sparse.  The default is calibrated so HAR's
        profile matches the paper's §3.1/§6.2 observation — a moderate
        restore gain bought with a lasting dedup-ratio loss."""
        if not (0.0 < utilization_threshold <= 1.0):
            raise ConfigError("utilization_threshold must be in (0, 1]")
        self.store = store
        self.utilization_threshold = utilization_threshold
        #: Persistent per-container utilization records ("history"): the
        #: container's referenced fraction the last time any backup touched
        #: it.  Persistence (rather than previous-backup-only state) is what
        #: keeps HAR effective on multi-source streams, where the relevant
        #: history for a source is several backups old.
        self._utilization: dict[int, float] = {}
        #: Referenced bytes per old container, accumulated this backup.
        self._referenced: dict[int, int] = {}

    def begin_backup(self, backup_id: int) -> None:
        self._referenced = {}

    def decide(self, referenced: dict[int, int], segment_bytes: int) -> set[int]:
        """Rewrite from sparse containers; record references to the rest."""
        sparse = set()
        for container_id, referenced_bytes in referenced.items():
            utilization = self._utilization.get(container_id)
            if utilization is not None and utilization < self.utilization_threshold:
                sparse.add(container_id)
            else:
                self._referenced[container_id] = (
                    self._referenced.get(container_id, 0) + referenced_bytes
                )
        return sparse

    def end_backup(self) -> None:
        """Fold this backup's utilization observations into the records."""
        for container_id, referenced_bytes in self._referenced.items():
            try:
                container = self.store.peek(container_id)
            except UnknownContainerError:
                self._utilization.pop(container_id, None)
                continue  # reclaimed by GC since we saw it
            if container.used_bytes == 0:
                continue
            self._utilization[container_id] = referenced_bytes / container.used_bytes
        self._referenced = {}
