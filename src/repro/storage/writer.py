"""Sequential container writer.

Chunks surviving dedup (and chunks migrated by GC) are appended to an open
container as interned id/size pairs — the id the caller already holds for
the recipe, so nothing is re-interned at seal time; when the next chunk
would overflow, the container is sealed, committed to the store, and a fresh
one is opened.  The writer reports each chunk's placement so callers can
update the fingerprint index.

Observability: sealing a container through :meth:`ContainerStore.commit`
emits a ``container.write`` trace event (when the store's disk has an
enabled tracer), so the writer itself stays tracer-free — every durable
write is already visible at the store boundary.

Crash consistency: the ``on_commit`` hook fires *after* the store has made
the container durable (and journalled its write intent), which is what lets
:class:`repro.gc.migration.JournaledCopyForward` treat it as the seal
notification — index repointing and intent close happen inside the hook, so
a crash during the commit itself always leaves the copy-forward intent open
and therefore rollable-back.  If :meth:`ContainerStore.commit` raises (an
injected torn write), the hook is never invoked and ``committed_ids`` does
not record the container.
"""

from __future__ import annotations

from typing import Callable

from repro.storage.container import Container
from repro.storage.store import ContainerStore

#: Callback invoked as ``on_commit(container)`` whenever a container seals.
CommitHook = Callable[[Container], None]


class ContainerWriter:
    """Fills containers sequentially from a stream of chunks."""

    def __init__(self, store: ContainerStore, on_commit: CommitHook | None = None):
        self.store = store
        self._on_commit = on_commit
        self._open: Container | None = None
        self.committed_ids: list[int] = []

    def append(
        self, chunk_id: int, size: int, key: bytes, payload: bytes | None = None
    ) -> int:
        """Write one chunk; returns the id of the container it landed in."""
        if self._open is not None and not self._open.fits(size):
            self._commit_open()
        if self._open is None:
            self._open = self.store.allocate()
        self._open.append(chunk_id, size, key, payload)
        return self._open.container_id

    def open_for(self, size: int) -> Container:
        """The open container ready to take ``size`` more bytes, sealing and
        rolling over exactly as :meth:`append` would.

        Batched callers use this to locate run boundaries up front: commit
        the full container, allocate a fresh one, and hand it back so a
        whole run of pre-validated chunks can be appended through
        :meth:`Container.extend <repro.storage.container.Container.extend>`
        without a per-chunk ``fits`` check.  (A chunk larger than an empty
        container is the caller's to surface, as with :meth:`append`.)
        """
        if self._open is not None and not self._open.fits(size):
            self._commit_open()
        if self._open is None:
            self._open = self.store.allocate()
        return self._open

    def _commit_open(self) -> None:
        container = self._open
        self._open = None
        assert container is not None
        self.store.commit(container)
        if len(container):
            self.committed_ids.append(container.container_id)
            if self._on_commit is not None:
                self._on_commit(container)

    def flush(self) -> list[int]:
        """Seal any open container; returns ids of all containers committed
        through this writer so far."""
        if self._open is not None and len(self._open):
            self._commit_open()
        elif self._open is not None:
            self._open = None
        return list(self.committed_ids)
