"""Columnar sweep-engine equivalence (the batched GC/copy-forward path).

The columnar sweep kernels — manifest-backed validity partitioning,
``migrate_batch`` copy-forward runs, ``lookup_many``/``relocate_many`` bulk
index probes — must leave the system in an *observationally identical*
end state to the legacy per-chunk loops: same surviving containers with
the same chunk layout (which pins the reclaim and copy-forward write
order), same stored bytes, same index contents and probe counters, same
GC reports and journal traffic.  A property test drives both
representations through randomized ingest/delete/GC sequences across
every approach and both GC modes; unit tests pin the container manifest
(build, incremental maintenance, desync rebuild, rehydration) and the
bulk index kernels' counter/error parity.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup.approaches import APPROACHES, make_service
from repro.backup.options import ServiceOptions
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.errors import UnknownChunkError
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.interning import FingerprintInterner
from repro.model import ChunkRef
from repro.storage.container import Container

from tests.conftest import refs


def make_config() -> SystemConfig:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=6, turnover=2),
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# End-state snapshot: everything the sweep engine can influence
# ---------------------------------------------------------------------------


def snapshot(service) -> dict:
    """Observable end state of a service, independent of representation."""
    state: dict = {
        "stats": service.stats(),
        "live_backups": service.live_backup_ids(),
    }
    store = getattr(service, "store", None)
    if store is not None:
        # Container ids are allocated in commit order, so the full layout
        # (id -> ordered (fp, size) entries) pins both the reclaim order
        # and the copy-forward write order, not just the surviving set.
        state["layout"] = {
            container.container_id: [(e.fp, e.size) for e in container]
            for container in store.containers()
        }
        state["stored_bytes"] = store.stored_bytes
        state["containers_deleted"] = store.containers_deleted
        journal = store.journal
        state["journal"] = (journal.begun, journal.closed, len(journal))
    index = getattr(service, "index", None)
    if index is not None:  # mfdedup has no flat fingerprint index
        state["index"] = {
            fp: (placement.container_id, placement.size)
            for fp, placement in index.items()
        }
        state["probes"] = (
            index.lookups,
            index.hits,
            index.guard_probes,
            index.guard_skips,
        )
    state["gc_reports"] = [
        # analyze_cpu_seconds is measured interpreter wall time — the one
        # legitimately representation-dependent field.
        {
            k: v
            for k, v in report.to_dict().items()
            if k != "analyze_cpu_seconds"
        }
        for report in getattr(getattr(service, "gc", None), "history", [])
    ]
    state["sim_time"] = service.disk.sim_time
    return state


# One step = ingest a window of the chunk-id space, or rotate (delete the
# oldest backups and run a full GC cycle).
sweep_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"),
            st.integers(min_value=0, max_value=60),  # window start
            st.integers(min_value=4, max_value=40),  # window length
        ),
        st.tuples(
            st.just("gc"),
            st.integers(min_value=1, max_value=3),  # backups to delete
            st.just(0),
        ),
    ),
    min_size=2,
    max_size=10,
)


@settings(deadline=None, max_examples=50)
@given(
    ops=sweep_ops,
    approach=st.sampled_from(APPROACHES),
    gc_mode=st.sampled_from(["stw", "incremental"]),
    # GCCDF's reference check: the exact id kernel (columnar) against exact
    # key sets (legacy), or the Bloom ablation at a false-positive rate
    # high enough to misplace chunks — identically on both sides.
    bloom_fp_rate=st.sampled_from([None, 0.2]),
)
def test_sweep_end_state_matches_legacy(ops, approach, gc_mode, bloom_fp_rate):
    config = make_config()
    if bloom_fp_rate is not None:
        config = config.with_gccdf(
            exact_reference_check=False, bloom_fp_rate=bloom_fp_rate
        )
    states = {}
    for columnar in (True, False):
        service = make_service(
            approach,
            config=config,
            options=ServiceOptions(columnar=columnar, gc_mode=gc_mode),
        )
        for op, a, b in ops:
            if op == "ingest":
                service.ingest(refs("sweep-prop", range(a, a + b)))
            elif service.live_backup_ids():
                service.delete_oldest(a)
                service.run_gc()
        states[columnar] = snapshot(service)

    columnar_state, legacy_state = states[True], states[False]
    assert set(columnar_state) == set(legacy_state)
    for key in columnar_state:
        assert columnar_state[key] == legacy_state[key], key


# ---------------------------------------------------------------------------
# Container manifest: build, incremental maintenance, desync, rehydration
# ---------------------------------------------------------------------------


def _ref(i: int, size: int = 100) -> ChunkRef:
    return ChunkRef(fp=synthetic_fingerprint("manifest", i), size=size)


class TestManifest:
    def test_build_manifest_columns_parallel_entries(self):
        container = Container(container_id=0, capacity=4096)
        chunks = [_ref(i) for i in (0, 1, 2, 1, 0)]
        for ref in chunks:
            container.append(ref)
        container.seal()
        interner = FingerprintInterner()
        container.build_manifest(interner)
        assert list(container.chunk_ids) == [
            interner.id_of(ref.fp) for ref in chunks
        ]
        assert list(container.chunk_sizes) == [ref.size for ref in chunks]
        assert container.distinct_ids() == frozenset(container.chunk_ids)
        assert container.distinct_ids() is container.distinct_ids()  # cached
        # Rebuilding is idempotent (commit + later peek both call it).
        ids_before = container.chunk_ids
        container.build_manifest(interner)
        assert container.chunk_ids is ids_before

    def test_incremental_extend_matches_seal_time_build(self):
        interner = FingerprintInterner()
        chunks = [_ref(i) for i in range(6)]
        ids = [interner.intern(ref.fp) for ref in chunks]

        incremental = Container(container_id=0, capacity=4096)
        incremental.extend(chunks[:4], 400, ids=ids[:4], sizes=[100] * 4)
        incremental.extend(chunks[4:], 200, ids=ids[4:], sizes=[100] * 2)
        incremental.seal()
        columns_before = incremental.chunk_ids
        incremental.build_manifest(interner)  # must be the cheap no-op path
        assert incremental.chunk_ids is columns_before

        from_scratch = Container(container_id=1, capacity=4096)
        from_scratch.extend(chunks, 600)
        from_scratch.seal()
        from_scratch.build_manifest(interner)

        assert list(incremental.chunk_ids) == list(from_scratch.chunk_ids)
        assert list(incremental.chunk_sizes) == list(from_scratch.chunk_sizes)
        assert incremental.distinct_ids() == from_scratch.distinct_ids()

    def test_extend_defaults_sizes_from_refs(self):
        interner = FingerprintInterner()
        chunks = [_ref(i, size=50 + i) for i in range(3)]
        ids = [interner.intern(ref.fp) for ref in chunks]
        container = Container(container_id=0, capacity=4096)
        container.extend(chunks, sum(r.size for r in chunks), ids=ids)
        assert list(container.chunk_sizes) == [ref.size for ref in chunks]

    def test_interleaved_append_desyncs_and_rebuild_recovers(self):
        interner = FingerprintInterner()
        chunks = [_ref(i) for i in range(5)]
        ids = [interner.intern(ref.fp) for ref in chunks]
        container = Container(container_id=0, capacity=4096)
        container.extend(chunks[:2], 200, ids=ids[:2], sizes=[100, 100])
        container.append(chunks[2])  # per-chunk path: no id carried
        assert len(container.chunk_ids) != len(container.entries)  # desynced
        # Further id-carrying batches must NOT extend a desynced manifest
        # (that would silently misalign the columns).
        container.extend(chunks[3:], 200, ids=ids[3:], sizes=[100, 100])
        assert len(container.chunk_ids) == 2
        container.seal()
        container.build_manifest(interner)  # length check -> full rebuild
        assert list(container.chunk_ids) == ids
        assert container.distinct_ids() == frozenset(ids)

    def test_manifest_absent_without_ids(self):
        container = Container(container_id=0, capacity=4096)
        container.extend([_ref(0)], 100)
        assert container.chunk_ids is None
        with pytest.raises(TypeError):
            container.distinct_ids()

    def test_commit_builds_manifest_and_peek_rehydrates(self):
        from repro.simio.disk import DiskModel
        from repro.storage.store import ContainerStore

        config = make_config()
        disk = DiskModel(config.disk)
        store = ContainerStore(config.container_size, disk)
        interner = FingerprintInterner()
        store.bind_interner(interner)

        container = store.allocate()
        chunks = [_ref(i) for i in range(4)]
        for ref in chunks:
            container.append(ref)
        store.commit(container)
        sealed = store.peek(container.container_id)
        assert sealed.chunk_ids is not None
        assert [interner.key_of(i) for i in sealed.chunk_ids] == [
            ref.fp for ref in chunks
        ]

        # A container sealed before the interner was bound (recovery
        # rebuilds) gets its manifest lazily on peek.
        bare_store = ContainerStore(config.container_size, DiskModel(config.disk))
        bare = bare_store.allocate()
        for ref in chunks:
            bare.append(ref)
        bare_store.commit(bare)
        assert bare_store.peek(bare.container_id).chunk_ids is None
        bare_store.bind_interner(interner)
        rehydrated = bare_store.peek(bare.container_id)
        assert rehydrated.chunk_ids is not None
        assert list(rehydrated.chunk_ids) == [
            interner.id_of(ref.fp) for ref in chunks
        ]


# ---------------------------------------------------------------------------
# Bulk index kernels: counter and error parity with the per-key loops
# ---------------------------------------------------------------------------


def _keyed(i: int) -> bytes:
    return synthetic_fingerprint("bulk", i) + b"\x00\x00\x00\x00"


probe_batches = st.lists(
    st.integers(min_value=0, max_value=40), min_size=0, max_size=60
)


class TestBulkIndexKernels:
    @settings(deadline=None, max_examples=50)
    @given(probe_batches, st.booleans())
    def test_lookup_many_matches_lookup_loop(self, probe_ids, guard):
        bulk = FingerprintIndex(negative_guard=guard)
        loop = FingerprintIndex(negative_guard=guard)
        for i in range(0, 40, 2):  # evens present, odds missing
            bulk.insert(_keyed(i), container_id=i, size=64)
            loop.insert(_keyed(i), container_id=i, size=64)
        fps = [_keyed(i) for i in probe_ids]
        assert bulk.lookup_many(fps) == [loop.lookup(fp) for fp in fps]
        for attr in ("lookups", "hits", "guard_probes", "guard_skips"):
            assert getattr(bulk, attr) == getattr(loop, attr), attr

    def test_lookup_many_empty_batch_is_free(self):
        index = FingerprintIndex(negative_guard=True)
        assert index.lookup_many([]) == []
        assert index.lookups == index.guard_probes == 0

    def test_relocate_many_matches_relocate_loop(self):
        batch = FingerprintIndex()
        loop = FingerprintIndex()
        fps = [_keyed(i) for i in range(8)]
        for i, fp in enumerate(fps):
            batch.insert(fp, container_id=i, size=32 + i)
            loop.insert(fp, container_id=i, size=32 + i)
        batch.relocate_many(fps[:5], container_id=99)
        for fp in fps[:5]:
            loop.relocate(fp, container_id=99)
        assert {fp: (p.container_id, p.size) for fp, p in batch.items()} == {
            fp: (p.container_id, p.size) for fp, p in loop.items()
        }

    def test_relocate_many_unknown_fp_raises_like_relocate(self):
        index = FingerprintIndex()
        index.insert(_keyed(0), container_id=0, size=16)
        missing = _keyed(1)
        with pytest.raises(UnknownChunkError) as batch_err:
            index.relocate_many([_keyed(0), missing], container_id=7)
        with pytest.raises(UnknownChunkError) as loop_err:
            index.relocate(missing, container_id=7)
        assert str(batch_err.value) == str(loop_err.value)


# ---------------------------------------------------------------------------
# Batched copy-forward: GC report and probe counters match legacy per-chunk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", ["naive", "capping", "gccdf"])
@pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
def test_batched_copy_forward_counter_parity(approach, gc_mode):
    reports = {}
    probes = {}
    for columnar in (True, False):
        service = make_service(
            approach,
            config=make_config(),
            options=ServiceOptions(columnar=columnar, gc_mode=gc_mode),
        )
        for generation in range(6):
            service.ingest(refs("cf-parity", range(generation, generation + 12)))
        service.delete_oldest(2)
        report = service.run_gc()
        reports[columnar] = dataclasses.replace(report, analyze_cpu_seconds=0.0)
        probes[columnar] = (
            service.index.lookups,
            service.index.hits,
            service.index.guard_probes,
            service.index.guard_skips,
        )
    assert reports[True] == reports[False]
    assert probes[True] == probes[False]
    assert reports[True].reclaimed_containers > 0  # the sweep actually ran
