"""Property-based invariants of the container writer and store."""

from hypothesis import given, settings, strategies as st

from repro.errors import SimulatedCrash
from repro.faults import FaultPlan, recover
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.interning import FingerprintInterner
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore
from repro.storage.writer import ContainerWriter

CAPACITY = 2048

chunk_sizes = st.lists(
    st.integers(min_value=1, max_value=CAPACITY), min_size=0, max_size=60
)


def write_all(sizes):
    store = ContainerStore(
        capacity=CAPACITY, disk=DiskModel(), interner=FingerprintInterner()
    )
    writer = ContainerWriter(store)
    placements = []
    for index, size in enumerate(sizes):
        ref = ChunkRef(fp=synthetic_fingerprint("ps", index), size=size)
        placements.append((ref, writer.append(ref)))
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
    for ref, container_id in placements:
        assert ref.fp in store.peek(container_id).fingerprints()


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
    replayed = [entry.fp for container in store.containers() for entry in container]
    assert replayed == [ref.fp for ref, _ in placements]


@given(chunk_sizes, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_torn_write_recovery_keeps_durable_prefix(sizes, occurrence):
    """Arm a torn container write at an arbitrary commit: after recovery
    the store holds exactly the durable prefix of the append order, every
    retained container is intact, and the journal is empty."""
    disk = DiskModel(faults=FaultPlan.single("store.commit.torn", occurrence))
    store = ContainerStore(capacity=CAPACITY, disk=disk, interner=FingerprintInterner())
    writer = ContainerWriter(store)
    appended = []
    crashed = False
    try:
        for index, size in enumerate(sizes):
            ref = ChunkRef(fp=synthetic_fingerprint("pf", index), size=size)
            writer.append(ref)
            appended.append(ref)
        writer.flush()
    except SimulatedCrash:
        crashed = True
        recover(store, FingerprintIndex(), RecipeStore())

    assert len(store.journal) == 0
    replayed = [entry.fp for container in store.containers() for entry in container]
    assert replayed == [ref.fp for ref in appended[: len(replayed)]]
    assert all(c.used_bytes <= CAPACITY for c in store.containers())
    if not crashed:
        assert replayed == [ref.fp for ref in appended]


@given(chunk_sizes)
@settings(max_examples=50)
def test_packing_is_first_fit_dense(sizes):
    """The writer seals only when the next chunk would not fit, so every
    sealed container (except possibly the last) could not have absorbed the
    first chunk of its successor."""
    store, _ = write_all(sizes)
    containers = list(store.containers())
    for current, following in zip(containers, containers[1:]):
        if following.entries:
            first_next = following.entries[0].size
            assert current.used_bytes + first_next > CAPACITY
