"""Unit tests for the Capping, HAR and SMR rewriting policies."""

import pytest

from repro.backup.approaches import make_service
from repro.backup.options import ServiceOptions
from repro.chunking.base import split
from repro.chunking.fastcdc import FastCDC
from repro.dedup.pipeline import IngestPipeline
from repro.dedup.rewriting import (
    CappingRewriting,
    HARRewriting,
    SMRRewriting,
    make_rewriting,
)
from repro.errors import ConfigError
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore
from repro.storage.writer import ContainerWriter
from repro.workloads.bytesgen import synthetic_backup_bytes

from tests.conftest import refs


def make_store(capacity=4096) -> ContainerStore:
    return ContainerStore(capacity=capacity, disk=DiskModel())


class TestRegistry:
    def test_known_names(self):
        store = make_store()
        assert isinstance(make_rewriting("capping", store), CappingRewriting)
        assert isinstance(make_rewriting("har", store), HARRewriting)
        assert isinstance(make_rewriting("smr", store), SMRRewriting)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_rewriting("zfs", make_store())
        # Policy-free services pass rewriting=None; there is no null policy.
        with pytest.raises(ValueError):
            make_rewriting("none", make_store())

    def test_kwargs_forwarded(self):
        policy = make_rewriting("capping", make_store(), cap=3)
        assert policy.cap == 3


class TestCapping:
    def test_rewrites_beyond_cap(self):
        """3 referenced old containers with cap 2 → weakest one rewritten."""
        policy = CappingRewriting(make_store(capacity=4096), cap=2, segment_containers=1)
        assert policy.decide({1: 3 * 512, 2: 2 * 512, 3: 512}, 6 * 512) == {3}

    def test_ties_rank_by_container_id(self):
        policy = CappingRewriting(make_store(), cap=1, segment_containers=1)
        assert policy.decide({7: 512, 4: 512}, 1024) == {7}

    def test_under_cap_never_rewrites(self):
        policy = CappingRewriting(make_store(), cap=5, segment_containers=1)
        assert policy.decide({1: 512}, 512) == set()

    def test_segment_is_a_multiple_of_the_container_size(self):
        policy = CappingRewriting(make_store(capacity=1024), segment_containers=3)
        assert policy.segment_bytes == 3 * 1024

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            CappingRewriting(make_store(), cap=0)
        with pytest.raises(ConfigError):
            CappingRewriting(make_store(), segment_containers=0)


def _seal_full_container(store, first: int) -> None:
    """Seal one full container of eight 512 B chunks."""
    writer = ContainerWriter(store)
    for chunk_id in range(first, first + 8):
        writer.append(chunk_id, 512, b"k%d" % chunk_id)
    writer.flush()


def _ingest_rounds(policy, store, streams):
    """Drive real ingest rounds through a pipeline using `policy`."""
    index = FingerprintIndex()
    recipes = RecipeStore()
    pipeline = IngestPipeline(store, index, recipes, rewriting=policy)
    return [pipeline.ingest(s) for s in streams]


class TestHAR:
    def test_decides_per_chunk_from_recorded_history(self):
        store = make_store(capacity=4096)
        policy = HARRewriting(store, utilization_threshold=0.5)
        assert policy.segment_bytes == 0
        policy._utilization = {1: 0.25, 2: 0.75}
        policy.begin_backup(0)
        assert policy.decide({1: 512}, 512) == {1}  # sparse: rewritten
        assert policy.decide({2: 512}, 512) == set()  # dense: referenced
        assert policy.decide({3: 512}, 512) == set()  # unseen: referenced
        assert policy._referenced == {2: 512, 3: 512}

    def test_sparse_container_rewritten_next_backup(self):
        store = make_store(capacity=4096)
        policy = HARRewriting(store, utilization_threshold=0.5)
        # Backup 1: 8 chunks → one full container.
        # Backup 2: references only 2 of them (25 % < 50 % → sparse).
        # Backup 3: references the same 2 → rewritten now.
        results = _ingest_rounds(
            policy,
            store,
            [refs("h", range(8)), refs("h", [0, 1]), refs("h", [0, 1])],
        )
        assert results[1].rewritten_bytes == 0  # observation round
        assert results[2].rewritten_bytes == 2 * 512  # action round

    def test_dense_container_not_rewritten(self):
        store = make_store(capacity=4096)
        policy = HARRewriting(store, utilization_threshold=0.5)
        results = _ingest_rounds(
            policy,
            store,
            [refs("h", range(8)), refs("h", range(6)), refs("h", range(6))],
        )
        assert results[2].rewritten_bytes == 0

    def test_records_persist_across_intervening_backups(self):
        """Multi-source pattern: the sparse observation from backup 2 must
        still fire on backup 4, despite unrelated backup 3 in between."""
        store = make_store(capacity=4096)
        policy = HARRewriting(store, utilization_threshold=0.5)
        results = _ingest_rounds(
            policy,
            store,
            [
                refs("h", range(8)),     # source A
                refs("h", [0, 1]),       # source A: observes sparsity
                refs("other", range(8)),  # source B: unrelated
                refs("h", [0, 1]),       # source A: must rewrite
            ],
        )
        assert results[3].rewritten_bytes == 2 * 512

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            HARRewriting(make_store(), utilization_threshold=0.0)
        with pytest.raises(ConfigError):
            HARRewriting(make_store(), utilization_threshold=1.5)


class TestSMR:
    def test_decide_spends_budget_on_worst_utilized_first(self):
        store = make_store(capacity=4096)
        for i in range(3):  # three full 4 KiB containers: ids 0, 1, 2
            _seal_full_container(store, 8 * i)
        policy = SMRRewriting(
            store, utility_threshold=0.5, rewrite_budget=0.25, segment_containers=1
        )
        # Utilities 0.875 (container 0) > 0.75 (container 1) > 0.5: both are
        # candidates and 0 ranks first; the 1024 B budget (0.25 × 4096) has
        # room for 0 and not then 1.  Container 2 (0.125) is no candidate.
        referenced = {1: 1024, 0: 512, 2: 3584}
        assert policy.decide(referenced, 4096) == {0}

    def test_rewrites_worst_utilized_within_budget(self):
        store = make_store(capacity=4096)
        policy = SMRRewriting(
            store, utility_threshold=0.9, rewrite_budget=1.0, segment_containers=4
        )
        results = _ingest_rounds(
            policy,
            store,
            [refs("s", range(8)), refs("s", [0])],  # 1/8 referenced: terrible utility
        )
        assert results[1].rewritten_bytes == 512

    def test_budget_zero_never_rewrites(self):
        store = make_store(capacity=4096)
        policy = SMRRewriting(store, rewrite_budget=0.0)
        results = _ingest_rounds(
            policy, store, [refs("s", range(8)), refs("s", [0])]
        )
        assert results[1].rewritten_bytes == 0

    def test_well_utilized_containers_spared(self):
        store = make_store(capacity=4096)
        policy = SMRRewriting(store, utility_threshold=0.3, rewrite_budget=1.0)
        results = _ingest_rounds(
            policy, store, [refs("s", range(8)), refs("s", range(8))]
        )
        assert results[1].rewritten_bytes == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            SMRRewriting(make_store(), utility_threshold=0.0)
        with pytest.raises(ConfigError):
            SMRRewriting(make_store(), rewrite_budget=1.5)
        with pytest.raises(ConfigError):
            SMRRewriting(make_store(), segment_containers=0)


#: Aggressive knobs, so a short byte-level rotation rewrites for every policy.
_BYTE_LEVEL_POLICIES = {
    "capping": {"cap": 2, "segment_containers": 1},
    "har": {"utilization_threshold": 0.5},
    "smr": {"utility_threshold": 0.9, "rewrite_budget": 0.5, "segment_containers": 1},
}


@pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
@pytest.mark.parametrize("approach", sorted(_BYTE_LEVEL_POLICIES))
def test_rewritten_backups_restore_their_bytes(approach, gc_mode, tiny_config):
    """Payload-carrying rewrites: ten FastCDC-split versions of an image,
    rotated down to four live backups, each restoring to its own bytes."""
    service = make_service(
        approach,
        tiny_config,
        ServiceOptions(gc_mode=gc_mode),
        **_BYTE_LEVEL_POLICIES[approach],
    )
    cdc = FastCDC(tiny_config.chunking)
    originals = {}
    rewritten = 0
    for version in range(10):
        image = synthetic_backup_bytes(
            seed=5, version=version, size=12_000, region_size=1_000, churn=0.2
        )
        result = service.ingest(split(cdc, image))
        originals[result.backup_id] = image
        rewritten += result.rewritten_bytes
        if len(service.live_backup_ids()) > 4:
            service.delete_oldest(1)
            service.run_gc()
    assert rewritten > 0
    assert len(service.live_backup_ids()) == 4
    for backup_id in service.live_backup_ids():
        _, restored = service.restore_bytes(backup_id)
        assert restored == originals[backup_id]
