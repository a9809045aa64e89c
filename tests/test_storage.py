"""Unit tests for containers, the container store, writer, and cache."""

import pytest

from repro.config import DiskConfig
from repro.errors import (
    ConfigError,
    ContainerFullError,
    ContainerSealedError,
    UnknownContainerError,
)
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.interning import FingerprintInterner
from repro.simio.disk import DiskModel
from repro.storage.cache import ContainerCache
from repro.storage.container import Container
from repro.storage.store import ContainerStore
from repro.storage.writer import ContainerWriter


def key(i: int) -> bytes:
    return synthetic_fingerprint("t", i)


def put(target, i: int, size: int = 100, payload: bytes | None = None):
    """Append chunk id ``i`` (key ``key(i)``) to a container or writer."""
    return target.append(i, size, key(i), payload)


@pytest.fixture
def store() -> ContainerStore:
    return ContainerStore(capacity=1000, disk=DiskModel(DiskConfig(bandwidth=1e9)))


class TestContainer:
    def test_append_tracks_usage(self):
        container = Container(0, 1000)
        put(container, 1, 300)
        put(container, 2, 200)
        assert container.used_bytes == 500
        assert len(container) == 2
        assert container.utilization == pytest.approx(0.5)

    def test_fits_boundary(self):
        container = Container(0, 1000)
        put(container, 1, 900)
        assert container.fits(100)
        assert not container.fits(101)

    def test_overflow_rejected(self):
        container = Container(0, 1000)
        put(container, 1, 900)
        with pytest.raises(ContainerFullError):
            put(container, 2, 200)

    def test_sealed_rejects_appends(self):
        container = Container(0, 1000)
        container.seal()
        with pytest.raises(ContainerSealedError):
            put(container, 1)

    def test_payload_storage_optional(self):
        container = Container(0, 1000)
        put(container, 1, payload=b"abc")
        put(container, 2)
        assert container.payload(key(1)) == b"abc"
        assert container.payload(key(2)) is None

    def test_fingerprints_set(self):
        """A sealed container's fingerprints are its distinct-id set (built
        at seal time), resolved through the owning interner."""
        interner = FingerprintInterner()
        container = Container(0, 1000)
        for i in (1, 2, 1):
            container.append(interner.intern(key(i)), 100, key(i))
        assert container.distinct_ids() is None
        container.seal()
        fingerprints = {interner.key_of(i) for i in container.distinct_ids()}
        assert fingerprints == {key(1), key(2)}

    def test_iteration_preserves_order(self):
        container = Container(0, 1000)
        for i in range(5):
            put(container, i, size=100 + i)
        assert list(container.chunk_ids) == list(range(5))
        assert list(container.chunk_sizes) == [100 + i for i in range(5)]


class TestContainerStore:
    def test_commit_charges_write_io(self, store):
        container = store.allocate()
        put(container, 1, 600)
        store.commit(container)
        assert store.disk.stats.write_bytes == 600
        assert store.containers_written == 1

    def test_commit_empty_container_is_noop(self, store):
        container = store.allocate()
        store.commit(container)
        assert len(store) == 0
        assert store.containers_written == 0

    def test_read_charges_container_read(self, store):
        container = store.allocate()
        put(container, 1, 600)
        store.commit(container)
        before = store.disk.stats.read_bytes
        store.read_container(container.container_id)
        assert store.disk.stats.read_bytes - before == 600

    def test_peek_charges_nothing(self, store):
        container = store.allocate()
        put(container, 1, 600)
        store.commit(container)
        before = store.disk.stats.read_bytes
        store.peek(container.container_id)
        assert store.disk.stats.read_bytes == before

    def test_ids_monotonically_increase(self, store):
        a = store.allocate()
        b = store.allocate()
        assert b.container_id == a.container_id + 1

    def test_delete_reclaims(self, store):
        container = store.allocate()
        put(container, 1, 600)
        store.commit(container)
        store.delete_container(container.container_id)
        assert container.container_id not in store
        assert store.stored_bytes == 0
        assert store.containers_deleted == 1

    def test_unknown_container_raises(self, store):
        with pytest.raises(UnknownContainerError):
            store.read_container(404)
        with pytest.raises(UnknownContainerError):
            store.delete_container(404)

    def test_stored_bytes_sums_live_containers(self, store):
        for i in range(3):
            container = store.allocate()
            put(container, i, 100)
            store.commit(container)
        assert store.stored_bytes == 300


class TestContainerWriter:
    def test_rolls_over_when_full(self, store):
        writer = ContainerWriter(store)
        placements = [put(writer, i, 400) for i in range(5)]
        writer.flush()
        # 1000-byte capacity → 2 chunks per container.
        assert placements == [0, 0, 1, 1, 2]
        assert len(store) == 3

    def test_flush_commits_partial_container(self, store):
        writer = ContainerWriter(store)
        put(writer, 1, 100)
        committed = writer.flush()
        assert len(committed) == 1
        assert store.peek(committed[0]).used_bytes == 100

    def test_flush_idempotent(self, store):
        writer = ContainerWriter(store)
        put(writer, 1, 100)
        first = writer.flush()
        assert writer.flush() == first

    def test_commit_hook_invoked_per_seal(self, store):
        sealed = []
        writer = ContainerWriter(store, on_commit=lambda c: sealed.append(c.container_id))
        for i in range(5):
            put(writer, i, 400)
        writer.flush()
        assert sealed == [0, 1, 2]


class TestContainerCache:
    def _committed(self, store, n):
        ids = []
        for i in range(n):
            container = store.allocate()
            put(container, i, 500)
            store.commit(container)
            ids.append(container.container_id)
        return ids

    def test_hit_avoids_io(self, store):
        (cid,) = self._committed(store, 1)
        cache = ContainerCache(store, capacity=2)
        cache.get(cid)
        before = store.disk.stats.read_ops
        cache.get(cid)
        assert store.disk.stats.read_ops == before
        assert cache.hits == 1

    def test_lru_eviction_order(self, store):
        ids = self._committed(store, 3)
        cache = ContainerCache(store, capacity=2)
        cache.get(ids[0])
        cache.get(ids[1])
        cache.get(ids[0])  # refresh 0 → 1 is now LRU
        cache.get(ids[2])  # evicts 1
        assert ids[1] not in cache
        assert ids[0] in cache

    def test_unbounded_cache_never_evicts(self, store):
        ids = self._committed(store, 5)
        cache = ContainerCache(store, capacity=None)
        for cid in ids:
            cache.get(cid)
        assert all(cid in cache for cid in ids)
        assert cache.misses == 5

    def test_invalidate(self, store):
        (cid,) = self._committed(store, 1)
        cache = ContainerCache(store, capacity=2)
        cache.get(cid)
        cache.invalidate(cid)
        assert cid not in cache

    def test_store_deletion_invalidates_registered_caches(self, store):
        ids = self._committed(store, 2)
        cache = ContainerCache(store, capacity=4)
        other = ContainerCache(store, capacity=4)
        cache.get(ids[0])
        other.get(ids[0])
        store.delete_container(ids[0])
        assert ids[0] not in cache
        assert ids[0] not in other
        with pytest.raises(UnknownContainerError):
            cache.get(ids[0])

    def test_store_discard_invalidates_registered_caches(self, store):
        (cid,) = self._committed(store, 1)
        cache = ContainerCache(store, capacity=4)
        cache.get(cid)
        store.discard_container(cid)
        assert cid not in cache
        # Discard is idempotent: a second call is a no-op.
        store.discard_container(cid)

    def test_hit_rate(self, store):
        (cid,) = self._committed(store, 1)
        cache = ContainerCache(store, capacity=2)
        cache.get(cid)
        cache.get(cid)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_rejected(self, store):
        with pytest.raises(ConfigError):
            ContainerCache(store, capacity=0)
