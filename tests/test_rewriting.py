"""Unit tests for the Capping, HAR and SMR rewriting policies."""

import pytest

from repro.dedup.pipeline import IngestPipeline
from repro.dedup.rewriting import (
    CappingRewriting,
    HARRewriting,
    NullRewriting,
    SMRRewriting,
    make_rewriting,
)
from repro.dedup.rewriting.base import IngestEntry
from repro.errors import ConfigError
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore

from tests.conftest import refs


def make_store(capacity=4096) -> ContainerStore:
    return ContainerStore(capacity=capacity, disk=DiskModel())


def entry(i: int, container_id=None, size=512) -> IngestEntry:
    ref = refs("rw", [i], size=size)[0]
    item = IngestEntry(fp=ref.fp, size=size)
    if container_id is not None:
        item.duplicate = True
        item.existing_key = ref.fp + b"\x00" * 4
        item.container_id = container_id
    return item


class TestRegistry:
    def test_known_names(self):
        store = make_store()
        assert isinstance(make_rewriting("none", store), NullRewriting)
        assert isinstance(make_rewriting("capping", store), CappingRewriting)
        assert isinstance(make_rewriting("har", store), HARRewriting)
        assert isinstance(make_rewriting("smr", store), SMRRewriting)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_rewriting("zfs", make_store())

    def test_kwargs_forwarded(self):
        policy = make_rewriting("capping", make_store(), cap=3)
        assert policy.cap == 3


class TestNullRewriting:
    def test_passthrough_without_rewrites(self):
        policy = NullRewriting()
        item = entry(1, container_id=5)
        (out,) = policy.feed(item)
        assert out is item
        assert not out.rewrite
        assert list(policy.flush()) == []


class TestCapping:
    def test_rewrites_beyond_cap(self):
        """3 referenced old containers with cap 2 → weakest one rewritten."""
        policy = CappingRewriting(make_store(capacity=4096), cap=2, segment_containers=1)
        items = (
            [entry(i, container_id=1) for i in range(3)]
            + [entry(10 + i, container_id=2) for i in range(2)]
            + [entry(20, container_id=3)]
        )
        out = []
        for item in items:
            out.extend(policy.feed(item))
        out.extend(policy.flush())
        by_container = {
            cid: [o.rewrite for o in out if o.container_id == cid] for cid in (1, 2, 3)
        }
        assert not any(by_container[1])  # strongest: kept
        assert not any(by_container[2])
        assert all(by_container[3])  # weakest: rewritten

    def test_under_cap_never_rewrites(self):
        policy = CappingRewriting(make_store(), cap=5, segment_containers=1)
        out = list(policy.feed(entry(1, container_id=1))) + list(policy.flush())
        assert not any(o.rewrite for o in out)

    def test_segment_boundary_triggers_decision(self):
        """Entries are released once a full segment of bytes is buffered."""
        store = make_store(capacity=1024)
        policy = CappingRewriting(store, cap=1, segment_containers=1)
        released = []
        for i in range(4):  # 4 × 512 B > 1 segment (1024 B)
            released.extend(policy.feed(entry(i, size=512)))
        assert released  # something came out before flush

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            CappingRewriting(make_store(), cap=0)
        with pytest.raises(ConfigError):
            CappingRewriting(make_store(), segment_containers=0)


def _ingest_rounds(policy, store, streams):
    """Drive real ingest rounds through a pipeline using `policy`."""
    index = FingerprintIndex()
    recipes = RecipeStore()
    pipeline = IngestPipeline(store, index, recipes, rewriting=policy)
    return [pipeline.ingest(s) for s in streams]


class TestHAR:
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
