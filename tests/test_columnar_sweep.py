"""Sweep-engine equivalence and the substrate it runs on.

The sweep kernels — column-backed validity partitioning,
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
the frozen tuple-recipe oracle); unit tests pin the container's id/size
columns (per-chunk appends, batched runs, the seal-time distinct-id set)
and the bulk index kernels' counter/error parity.
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
from repro.model import ChunkRef
from repro.simio.disk import DiskModel
from repro.storage.container import Container
from repro.storage.store import ContainerStore
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
# Container columns: write-time appends, batched runs, seal-time id set
# ---------------------------------------------------------------------------


def _key(i: int) -> bytes:
    return synthetic_fingerprint("columns", i)


class TestContainerColumns:
    def test_append_builds_parallel_id_size_columns(self):
        container = Container(container_id=0, capacity=4096)
        assert list(container.chunk_ids) == list(container.chunk_sizes) == []
        chunks = [(0, 100), (1, 60), (2, 100), (1, 60), (0, 100)]
        for chunk_id, size in chunks:
            container.append(chunk_id, size, _key(chunk_id))
        assert list(container.chunk_ids) == [i for i, _ in chunks]
        assert list(container.chunk_sizes) == [size for _, size in chunks]
        assert container.used_bytes == sum(container.chunk_sizes)
        assert len(container) == len(chunks)

    def test_extend_matches_per_chunk_append(self):
        ids = list(range(6))
        sizes = [100 + i for i in ids]

        batched = Container(container_id=0, capacity=4096)
        batched.extend(ids[:4], sizes[:4], sum(sizes[:4]))
        batched.extend(ids[4:], sizes[4:], sum(sizes[4:]))
        batched.seal()

        per_chunk = Container(container_id=1, capacity=4096)
        for chunk_id, size in zip(ids, sizes):
            per_chunk.append(chunk_id, size, _key(chunk_id))
        per_chunk.seal()

        assert list(batched.chunk_ids) == list(per_chunk.chunk_ids)
        assert list(batched.chunk_sizes) == list(per_chunk.chunk_sizes)
        assert batched.used_bytes == per_chunk.used_bytes
        assert batched.distinct_ids() == per_chunk.distinct_ids()

    def test_interleaved_append_and_extend_stay_aligned(self):
        container = Container(container_id=0, capacity=4096)
        container.extend([0, 1], [100, 100], 200)
        container.append(2, 50, _key(2), payload=b"x" * 50)
        container.extend([3, 4], [100, 100], 200)
        assert list(container.chunk_ids) == [0, 1, 2, 3, 4]
        assert list(container.chunk_sizes) == [100, 100, 50, 100, 100]
        assert container.payload(_key(2)) == b"x" * 50
        container.seal()
        assert container.distinct_ids() == frozenset(range(5))

    def test_commit_seals_distinct_ids_before_gc(self):
        """The store's commit seals the container, which builds the
        distinct-id set on the write path; ``peek`` returns it as is."""
        config = make_config()
        store = ContainerStore(config.container_size, DiskModel(config.disk))
        container = store.allocate()
        for chunk_id in (3, 1, 3, 2):
            container.append(chunk_id, 100, _key(chunk_id))
        assert container.distinct_ids() is None
        store.commit(container)
        sealed = store.peek(container.container_id)
        assert sealed is container and sealed.sealed
        assert sealed.distinct_ids() == frozenset({1, 2, 3})
        assert sealed.distinct_ids() is sealed.distinct_ids()  # built once


# ---------------------------------------------------------------------------
# No ChunkRef on the payload-free ingest -> GC path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dedup_mode", ["inline", "hybrid"])
@pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
@pytest.mark.parametrize("approach", ["naive", "gccdf"])
def test_ingest_and_gc_build_no_chunk_refs(approach, gc_mode, dedup_mode, monkeypatch):
    """Ingest of pre-built payload-free streams and every GC stage (mark,
    partition, GCCDF analyze/plan, copy-forward, hybrid rededup) run on
    interned id/size columns: constructing a ``ChunkRef`` anywhere on that
    path fails the run."""
    streams = [
        refs("no-refs", [i for i in range(g * 5, g * 5 + 60) if i % (2 + g % 3)])
        for g in range(6)
    ]
    service = make_service(
        approach,
        config=make_config(),
        options=ServiceOptions(
            gc_mode=gc_mode, gc_budget=SMALL_BUDGET, dedup_mode=dedup_mode
        ),
    )

    def forbidden(self):
        raise AssertionError("ChunkRef built on the ingest/GC path")

    monkeypatch.setattr(ChunkRef, "__post_init__", forbidden)
    for generation, stream in enumerate(streams):
        service.ingest(stream, source="a")
        # The mirrored copy misses the hybrid neighbor window: deferrals.
        service.ingest(stream, source="b")
        if generation >= 2:
            service.delete_oldest(2)
            service.run_gc()
    monkeypatch.undo()

    reports = service.gc_history
    assert sum(r.migrated_chunks for r in reports) > 0  # copy-forward ran
    if dedup_mode == "hybrid":
        assert service.hybrid.coalesced > 0  # ... and so did rededup
    assert verify_service(service).errors == []


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
    @given(probe_batches)
    def test_lookup_many_matches_lookup_loop(self, probe_ids):
        bulk = FingerprintIndex()
        loop = FingerprintIndex()
        for i in range(0, 40, 2):  # evens present, odds missing
            bulk.insert(_keyed(i), container_id=i, size=64)
            loop.insert(_keyed(i), container_id=i, size=64)
        fps = [_keyed(i) for i in probe_ids]
        assert bulk.lookup_many(fps) == [loop.lookup(fp) for fp in fps]
        for attr in ("lookups", "hits"):
            assert getattr(bulk, attr) == getattr(loop, attr), attr

    def test_lookup_many_empty_batch_is_free(self):
        index = FingerprintIndex()
        assert index.lookup_many([]) == []
        assert index.lookups == 0

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

    def spy(self, chunk_id, fp, size, payload, source_id):
        payload_moves.append(payload is not None)
        return migrate_chunk(self, chunk_id, fp, size, payload, source_id)

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
