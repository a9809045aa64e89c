"""Property-based invariants of the container writer and store."""

from hypothesis import given, settings, strategies as st

from repro.errors import SimulatedCrash
from repro.faults import FaultPlan, recover
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore
from repro.storage.writer import ContainerWriter

CAPACITY = 2048

chunk_sizes = st.lists(
    st.integers(min_value=1, max_value=CAPACITY), min_size=0, max_size=60
)


def write_all(sizes):
    """Write chunk ids 0, 1, ... with the given sizes; returns the store and
    ``(chunk_id, container_id)`` placements in append order."""
    store = ContainerStore(capacity=CAPACITY, disk=DiskModel())
    writer = ContainerWriter(store)
    placements = []
    for chunk_id, size in enumerate(sizes):
        key = synthetic_fingerprint("ps", chunk_id)
        placements.append((chunk_id, writer.append(chunk_id, size, key)))
    writer.flush()
    return store, placements


@given(chunk_sizes)
@settings(max_examples=80)
def test_no_container_exceeds_capacity(sizes):
    store, _ = write_all(sizes)
    assert all(c.used_bytes <= CAPACITY for c in store.containers())


@given(chunk_sizes)
@settings(max_examples=80)
def test_every_chunk_lands_where_reported(sizes):
    store, placements = write_all(sizes)
    for chunk_id, container_id in placements:
        assert chunk_id in store.peek(container_id).distinct_ids()


@given(chunk_sizes)
@settings(max_examples=80)
def test_total_bytes_conserved(sizes):
    store, _ = write_all(sizes)
    assert store.stored_bytes == sum(sizes)


@given(chunk_sizes)
@settings(max_examples=50)
def test_stream_order_preserved_within_and_across_containers(sizes):
    """Reading containers in id order replays the append order exactly."""
    store, placements = write_all(sizes)
    replayed = [i for container in store.containers() for i in container.chunk_ids]
    assert replayed == [chunk_id for chunk_id, _ in placements]


@given(chunk_sizes, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_torn_write_recovery_keeps_durable_prefix(sizes, occurrence):
    """Arm a torn container write at an arbitrary commit: after recovery
    the store holds exactly the durable prefix of the append order, every
    retained container is intact, and the journal is empty."""
    disk = DiskModel(faults=FaultPlan.single("store.commit.torn", occurrence))
    store = ContainerStore(capacity=CAPACITY, disk=disk)
    writer = ContainerWriter(store)
    appended = []
    crashed = False
    try:
        for chunk_id, size in enumerate(sizes):
            writer.append(chunk_id, size, synthetic_fingerprint("pf", chunk_id))
            appended.append(chunk_id)
        writer.flush()
    except SimulatedCrash:
        crashed = True
        recover(store, FingerprintIndex(), RecipeStore())

    assert len(store.journal) == 0
    replayed = [i for container in store.containers() for i in container.chunk_ids]
    assert replayed == appended[: len(replayed)]
    assert all(c.used_bytes <= CAPACITY for c in store.containers())
    if not crashed:
        assert replayed == appended


@given(chunk_sizes)
@settings(max_examples=50)
def test_packing_is_first_fit_dense(sizes):
    """The writer seals only when the next chunk would not fit, so every
    sealed container (except possibly the last) could not have absorbed the
    first chunk of its successor."""
    store, _ = write_all(sizes)
    containers = list(store.containers())
    for current, following in zip(containers, containers[1:]):
        if len(following):
            first_next = following.chunk_sizes[0]
            assert current.used_bytes + first_next > CAPACITY
