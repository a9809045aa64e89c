"""GC edge cases and failure-mode coverage across both migration strategies."""

import pytest

from repro.backup.system import DedupBackupService
from repro.backup.verify import assert_consistent
from repro.core.gccdf import GCCDFMigration
from repro.dedup.rewriting import HARRewriting
from repro.gc.migration import NaiveMigration

from tests.conftest import refs

STRATEGIES = [
    ("naive", NaiveMigration),
    ("gccdf", GCCDFMigration),
]


@pytest.fixture(params=STRATEGIES, ids=[name for name, _ in STRATEGIES])
def service(request, tiny_config) -> DedupBackupService:
    _, strategy_cls = request.param
    return DedupBackupService(config=tiny_config, migration=strategy_cls())


class TestEmptyAndDegenerate:
    def test_gc_on_empty_system(self, service):
        report = service.run_gc()
        assert report.involved_containers == 0
        assert report.backups_purged == 0

    def test_gc_twice_in_a_row(self, service):
        first = service.ingest(refs("e", range(16)))
        service.ingest(refs("e", range(0, 16, 2)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        second = service.run_gc()
        assert second.reclaimed_containers == 0
        assert_consistent(service)

    def test_delete_everything_then_gc(self, service):
        for start in (0, 8, 16):
            service.ingest(refs("e", range(start, start + 8)))
        for backup_id in list(service.live_backup_ids()):
            service.delete_backup(backup_id)
        service.run_gc()
        assert len(service.store) == 0
        assert len(service.index) == 0
        assert service.live_backup_ids() == []

    def test_reingest_after_total_deletion(self, service):
        first = service.ingest(refs("e", range(8)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        again = service.ingest(refs("e", range(8)))
        report = service.restore(again.backup_id)
        assert report.logical_bytes == 8 * 512
        assert_consistent(service)

    def test_single_chunk_backup(self, service):
        result = service.ingest(refs("e", [1]))
        service.delete_backup(result.backup_id)
        service.run_gc()
        assert len(service.store) == 0


class TestInterleavedOperations:
    def test_delete_middle_backup(self, service):
        a = service.ingest(refs("e", range(8)))
        b = service.ingest(refs("e", range(4, 12)))
        c = service.ingest(refs("e", range(8, 16)))
        service.delete_backup(b.backup_id)
        service.run_gc()
        # a and c must survive intact; chunks 4..7 stay (a holds them).
        assert service.restore(a.backup_id).logical_bytes == 8 * 512
        assert service.restore(c.backup_id).logical_bytes == 8 * 512
        assert_consistent(service)

    def test_ingest_between_delete_and_gc(self, service):
        a = service.ingest(refs("e", range(8)))
        service.delete_backup(a.backup_id)
        # New backup resurrects half of the dying chunks before GC runs.
        b = service.ingest(refs("e", range(4, 12)))
        service.run_gc()
        report = service.restore(b.backup_id)
        assert report.logical_bytes == 8 * 512
        assert_consistent(service)

    def test_many_rounds_accumulate_consistently(self, service):
        for round_index in range(8):
            service.ingest(refs("e", range(round_index * 4, round_index * 4 + 16)))
            if round_index % 2 == 1:
                service.delete_oldest(1)
                service.run_gc()
        assert_consistent(service)
        for backup_id in service.live_backup_ids():
            service.restore(backup_id)


class TestRewritingPlusGC:
    def test_har_copies_reclaimed_when_unreferenced(self, tiny_config):
        """Old copies pinned only by deleted backups must be reclaimed."""
        service = DedupBackupService(config=tiny_config)
        service.pipeline.rewriting = HARRewriting(
            service.store, utilization_threshold=0.9
        )
        a = service.ingest(refs("r", range(16)))
        b = service.ingest(refs("r", [0, 1]))  # observes sparse containers
        c = service.ingest(refs("r", [0, 1]))  # rewrites copies
        stored_with_copies = service.physical_bytes
        service.delete_backup(a.backup_id)
        service.delete_backup(b.backup_id)
        service.run_gc()
        # Only c remains; it references the *rewritten* copies, so the
        # originals (and a's unique chunks) are gone.
        assert service.physical_bytes < stored_with_copies
        report = service.restore(c.backup_id)
        assert report.logical_bytes == 2 * 512
        assert_consistent(service)

    def test_dedup_against_rewritten_copy_survives_gc(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        service.pipeline.rewriting = HARRewriting(
            service.store, utilization_threshold=0.9
        )
        service.ingest(refs("r", range(16)))
        service.ingest(refs("r", [0, 1]))
        service.ingest(refs("r", [0, 1]))
        d = service.ingest(refs("r", [0, 1]))  # dedups against newest copy
        service.delete_oldest(2)
        service.run_gc()
        assert service.restore(d.backup_id).logical_bytes == 2 * 512
        assert_consistent(service)


class TestGCCDFSpecificEdges:
    def test_single_container_segment(self, tiny_config):
        config = tiny_config.with_gccdf(segment_size=1)
        service = DedupBackupService(config=config, migration=GCCDFMigration())
        first = service.ingest(refs("s", range(32)))
        service.ingest(refs("s", range(0, 32, 2)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        assert_consistent(service)

    def test_huge_segment_covers_everything(self, tiny_config):
        config = tiny_config.with_gccdf(segment_size=10_000)
        service = DedupBackupService(config=config, migration=GCCDFMigration())
        first = service.ingest(refs("s", range(32)))
        service.ingest(refs("s", range(0, 32, 2)))
        service.delete_backup(first.backup_id)
        report = service.run_gc()
        assert report.reclaimed_containers > 0
        assert_consistent(service)

    def test_bloom_reference_check_ablation(self, tiny_config):
        config = tiny_config.with_gccdf(exact_reference_check=False)
        service = DedupBackupService(config=config, migration=GCCDFMigration())
        first = service.ingest(refs("s", range(32)))
        keep = service.ingest(refs("s", range(0, 32, 2)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        assert service.restore(keep.backup_id).logical_bytes == 16 * 512
        assert_consistent(service)
