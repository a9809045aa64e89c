"""Sweep-engine equivalence and the substrate it runs on.

The sweep kernels — manifest-backed validity partitioning,
``migrate_batch`` copy-forward runs, ``lookup_many``/``relocate_many`` bulk
index probes — are driven by two engines: stop-the-world
(:class:`~repro.gc.engine.MarkSweepGC`) and budgeted incremental
(:class:`~repro.gc.incremental.IncrementalGC`).  A drained incremental
cycle must leave the system in an *observationally identical* end state to
a stop-the-world round: same surviving containers with the same chunk
layout (which pins the reclaim and copy-forward write order), same stored
bytes, same index contents and probe counters, same GC reports.  A
property test drives both engines through randomized ingest/delete/GC
sequences across every approach and GCCDF's Bloom ablation (the fixed
cells of ``tests/test_end_state_digests.py`` pin the same snapshot against
the frozen tuple-recipe oracle); unit tests pin the container manifest
(build, incremental maintenance, desync rebuild, rehydration) and the bulk
index kernels' counter/error parity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup.approaches import APPROACHES, make_service
from repro.backup.options import ServiceOptions
from repro.backup.verify import verify_service
from repro.chunking.base import split
from repro.chunking.fastcdc import FastCDC
from repro.errors import UnknownChunkError
from repro.gc.incremental import GCBudget
from repro.gc.migration import JournaledCopyForward
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.interning import FingerprintInterner
from repro.model import ChunkRef
from repro.storage.container import Container
from repro.util.rng import DeterministicRng

from tests.conftest import refs
from tests.end_state import make_config, snapshot

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

#: Small budgets: a drained cycle crosses many increment boundaries.
SMALL_BUDGET = GCBudget(mark_recipes=2, sweep_containers=1, rededup_keys=2)


def engine_states(approach, config, drive) -> dict:
    """``gc_mode → snapshot`` after ``drive(service)`` on each engine."""
    states = {}
    for gc_mode in ("stw", "incremental"):
        service = make_service(
            approach,
            config=config,
            options=ServiceOptions(gc_mode=gc_mode, gc_budget=SMALL_BUDGET),
        )
        drive(service)
        states[gc_mode] = snapshot(service)
        # The intent census is each engine's own bookkeeping (``sweep``
        # rounds vs ``gc.cycle`` cycles), not an output of the sweep.
        states[gc_mode].pop("journal", None)
    return states


@settings(deadline=None, max_examples=50)
@given(
    ops=sweep_ops,
    approach=st.sampled_from(APPROACHES),
    # GCCDF's reference check: the exact id kernel, or the Bloom ablation
    # at a false-positive rate high enough to misplace chunks —
    # identically on both engines.
    bloom_fp_rate=st.sampled_from([None, 0.2]),
)
def test_sweep_end_state_matches_across_engines(ops, approach, bloom_fp_rate):
    config = make_config()
    if bloom_fp_rate is not None:
        config = config.with_gccdf(
            exact_reference_check=False, bloom_fp_rate=bloom_fp_rate
        )

    def drive(service):
        for op, a, b in ops:
            if op == "ingest":
                service.ingest(refs("sweep-prop", range(a, a + b)))
            elif service.live_backup_ids():
                service.delete_oldest(a)
                service.run_gc()

    states = engine_states(approach, config, drive)
    assert set(states["stw"]) == set(states["incremental"])
    for key in states["stw"]:
        assert states["stw"][key] == states["incremental"][key], key


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
        interner = FingerprintInterner()
        store = ContainerStore(config.container_size, DiskModel(config.disk), interner)

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

        # A container installed without passing through commit (recovery
        # rebuilds, hand-seeded state) gets its manifest lazily on peek.
        bare = Container(container_id=99, capacity=config.container_size)
        for ref in chunks:
            bare.append(ref)
        bare.seal()
        store._containers[bare.container_id] = bare
        assert bare.chunk_ids is None
        rehydrated = store.peek(bare.container_id)
        assert rehydrated is bare
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
# Batched copy-forward: GC report and probe counters match across engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", ["naive", "capping", "gccdf"])
def test_batched_copy_forward_counter_parity(approach):
    def drive(service):
        for generation in range(6):
            service.ingest(refs("cf-parity", range(generation, generation + 12)))
        service.delete_oldest(2)
        service.run_gc()

    states = engine_states(approach, make_config(), drive)
    assert states["stw"]["gc_reports"] == states["incremental"]["gc_reports"]
    assert states["stw"]["probes"] == states["incremental"]["probes"]
    (report,) = states["stw"]["gc_reports"]
    assert report["reclaimed_containers"] > 0  # the sweep actually ran
    assert report["migrated_chunks"] > 0  # ... and copied forward


# ---------------------------------------------------------------------------
# Byte-level services: the per-chunk, payload-carrying copy-forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", ["naive", "gccdf"])
def test_byte_level_rotation_preserves_payloads(approach, monkeypatch):
    """Containers that carry payloads are swept chunk by chunk
    (``migrate_chunk`` and the payload arms of ``sweep_source`` /
    ``migrate_segment``): across a FastCDC rotation every live backup must
    restore to its original bytes, on both engines, in the same layout."""
    config = make_config()
    cdc = FastCDC(config.chunking)
    rng = DeterministicRng(23)

    def fresh(n: int) -> bytes:
        return bytes(rng.randint(0, 255) for _ in range(n))

    # Five overlapping images: each keeps most of its predecessor and
    # replaces a sliding 5 KB window, so containers age into mixed validity.
    images = [fresh(20_000)]
    for k in range(1, 5):
        cut = 3_000 * k
        images.append(images[-1][:cut] + fresh(5_000) + images[-1][cut + 5_000 :])

    payload_moves = []
    migrate_chunk = JournaledCopyForward.migrate_chunk

    def spy(self, entry, payload, source_id):
        payload_moves.append(payload is not None)
        return migrate_chunk(self, entry, payload, source_id)

    monkeypatch.setattr(JournaledCopyForward, "migrate_chunk", spy)

    def drive(service):
        originals = {}
        for k, image in enumerate(images):
            originals[service.ingest(split(cdc, image)).backup_id] = image
            if k in (2, 4):  # two delete + GC rounds
                service.delete_oldest(k // 2)
                report = service.run_gc()
                assert report.reclaimed_containers > 0 and report.migrated_chunks > 0
        assert len(service.live_backup_ids()) == 2
        for backup_id in service.live_backup_ids():
            _, restored = service.restore_bytes(backup_id)
            assert restored == originals[backup_id]
        assert verify_service(service).errors == []
        assert len(service.store.journal) == 0  # every intent drained

    states = engine_states(approach, config, drive)
    assert payload_moves and all(payload_moves)  # the per-chunk path ran, with bytes
    assert states["stw"]["layout"] == states["incremental"]["layout"]
    assert states["stw"]["gc_reports"] == states["incremental"]["gc_reports"]
