"""The container store: all sealed containers on the backup disk.

The store owns the durable container map and charges every container-granular
read and write against the simulated :class:`~repro.simio.DiskModel`.  Two
rules, both from the container-based layouts the paper builds on:

* **Reads are container-granular.**  ``read_container`` charges the whole
  container's used bytes even if the caller wants one chunk — that is the
  mechanism of read amplification.
* **Containers are immutable.**  There is no partial overwrite; space comes
  back only via :meth:`delete_container` after GC copies valid chunks away.

Every durable container operation emits a ``container.read`` /
``container.write`` / ``container.delete`` trace event through the disk's
tracer (guarded by ``tracer.enabled``, so the default null tracer costs one
attribute check per container — not per chunk).
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator

from repro.errors import UnknownContainerError
from repro.faults.journal import IntentJournal
from repro.simio.disk import DiskModel
from repro.storage.container import Container


class ContainerStore:
    """Durable map of container id → sealed :class:`Container`."""

    def __init__(self, capacity: int, disk: DiskModel):
        self.capacity = capacity
        self.disk = disk
        self._containers: dict[int, Container] = {}
        self._next_id = 0
        #: Monotonic counters for auditing GC behaviour.
        self.containers_written = 0
        self.containers_deleted = 0
        #: Intent journal bracketing every multi-step mutation (container
        #: writes here; sweep/copy-forward/reclaim intents from the GC).
        #: Modelled as an NVRAM metadata log: it charges no simulated I/O.
        self.journal = IntentJournal()
        #: Caches to notify when a container leaves the store.  Weak so a
        #: per-restore cache does not outlive its restore.
        self._caches: "weakref.WeakSet" = weakref.WeakSet()

    def register_cache(self, cache) -> None:
        """Subscribe a :class:`~repro.storage.cache.ContainerCache` for
        invalidation when containers are deleted (GC) or dropped (recovery)."""
        self._caches.add(cache)

    def _invalidate_caches(self, container_id: int) -> None:
        for cache in self._caches:
            cache.invalidate(container_id)

    def allocate(self) -> Container:
        """Create a fresh open container with the store's capacity."""
        container = Container(self._next_id, self.capacity)
        self._next_id += 1
        return container

    def commit(self, container: Container) -> None:
        """Seal ``container`` and write it to disk (charging write I/O).

        The write is bracketed by a ``container.write`` intent: a crash at
        the armed ``store.commit.torn`` point leaves the container in the
        map with its I/O charged but the intent still open — the torn-write
        state recovery rolls back.
        """
        container.seal()
        if not len(container):
            return  # nothing to persist; id is simply burned
        intent = self.journal.begin(
            "container.write", container_id=container.container_id
        )
        self._containers[container.container_id] = container
        self.disk.write(container.used_bytes)
        self.disk.crash_point(
            "store.commit.torn",
            container_id=container.container_id,
            bytes=container.used_bytes,
        )
        self.journal.commit(intent)
        self.journal.close(intent)
        self.containers_written += 1
        tracer = self.disk.tracer
        if tracer.enabled:
            tracer.emit(
                "container.write",
                sim_time=self.disk.sim_time,
                fields={
                    "container_id": container.container_id,
                    "bytes": container.used_bytes,
                    "chunks": len(container),
                },
            )

    def read_container(self, container_id: int) -> Container:
        """Fetch a container from disk, charging a full-container read."""
        container = self._containers.get(container_id)
        if container is None:
            raise UnknownContainerError(f"container {container_id} not in store")
        self.disk.read(container.used_bytes)
        tracer = self.disk.tracer
        if tracer.enabled:
            tracer.emit(
                "container.read",
                sim_time=self.disk.sim_time,
                fields={"container_id": container_id, "bytes": container.used_bytes},
            )
        return container

    def peek(self, container_id: int) -> Container:
        """Metadata-only access: no I/O charged.

        Used by policies that consult container metadata assumed to be held
        in memory (e.g. HAR's utilization records, the mark stage's GS-list
        construction), mirroring how real systems keep container metadata in
        an in-memory index.
        """
        container = self._containers.get(container_id)
        if container is None:
            raise UnknownContainerError(f"container {container_id} not in store")
        return container

    def delete_container(self, container_id: int) -> None:
        """Reclaim a container's space (GC only)."""
        if container_id not in self._containers:
            raise UnknownContainerError(f"container {container_id} not in store")
        del self._containers[container_id]
        self.containers_deleted += 1
        self._invalidate_caches(container_id)
        tracer = self.disk.tracer
        if tracer.enabled:
            tracer.emit(
                "container.delete",
                sim_time=self.disk.sim_time,
                fields={"container_id": container_id},
            )

    def discard_container(self, container_id: int) -> None:
        """Drop a container during crash recovery (torn write or rolled-back
        copy-forward destination).

        Unlike :meth:`delete_container` this is not a GC reclaim: it keeps
        the audit counters untouched and emits no ``container.delete`` event
        — recovery reports its own ``recovery.*`` events.  Caches are still
        invalidated.  Idempotent: discarding an absent id is a no-op.
        """
        if self._containers.pop(container_id, None) is not None:
            self._invalidate_caches(container_id)

    def __contains__(self, container_id: int) -> bool:
        return container_id in self._containers

    def __len__(self) -> int:
        return len(self._containers)

    def ids(self) -> Iterator[int]:
        """All live container ids (ascending)."""
        return iter(sorted(self._containers))

    def containers(self) -> Iterable[Container]:
        """All live containers, in id order."""
        for container_id in sorted(self._containers):
            yield self._containers[container_id]

    @property
    def stored_bytes(self) -> int:
        """Total chunk bytes across live containers (physical space cost)."""
        return sum(c.used_bytes for c in self._containers.values())
