"""Unit tests for the mark stage, VC tables, and naive mark–sweep GC."""

import pytest

from repro.backup.system import DedupBackupService
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.gc.vc_table import BloomVCTable, ExactVCTable, make_vc_table
from repro.gc.mark import MarkStage
from repro.hashing.fingerprints import synthetic_fingerprint

from tests.conftest import refs


@pytest.fixture
def service(tiny_config) -> DedupBackupService:
    return DedupBackupService(config=tiny_config)


class TestVCTable:
    def test_exact_membership(self):
        table = ExactVCTable()
        table.add(b"k" * 24)
        assert b"k" * 24 in table
        assert b"j" * 24 not in table

    def test_bloom_no_false_negatives(self):
        table = BloomVCTable(expected_keys=100)
        keys = [synthetic_fingerprint("vc", i) + b"\x00" * 4 for i in range(100)]
        for key in keys:
            table.add(key)
        assert all(key in table for key in keys)

    def test_factory(self):
        assert isinstance(make_vc_table("exact", 10), ExactVCTable)
        assert isinstance(make_vc_table("bloom", 10), BloomVCTable)
        with pytest.raises(ConfigError):
            make_vc_table("trie", 10)

    def test_bloom_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            BloomVCTable(expected_keys=0)


class TestMarkStage:
    def test_no_deletions_produces_empty_gs_list(self, service):
        service.ingest(refs("m", range(16)))
        mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
        assert mark.gs_list == ()
        assert mark.rrt == {}

    def test_gs_list_covers_deleted_references(self, service):
        first = service.ingest(refs("m", range(16)))
        service.ingest(refs("m", range(8, 24)))
        service.delete_backup(first.backup_id)
        mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
        # Every container holding a chunk of the deleted backup is involved.
        deleted_containers = {
            service.index.get(e.fp).container_id
            for e in service.recipes.get(first.backup_id).entries
        }
        assert set(mark.gs_list) == deleted_containers

    def test_vc_table_holds_live_keys_only(self, service):
        first = service.ingest(refs("m", range(8)))
        second = service.ingest(refs("m", range(4, 12)))
        service.delete_backup(first.backup_id)
        mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
        live_keys = {e.fp for e in service.recipes.get(second.backup_id).entries}
        dead_keys = {
            e.fp for e in service.recipes.get(first.backup_id).entries
        } - live_keys
        assert all(key in mark.vc_table for key in live_keys)
        assert all(key not in mark.vc_table for key in dead_keys)

    def test_rrt_maps_containers_to_live_referencers(self, service):
        first = service.ingest(refs("m", range(8)))
        second = service.ingest(refs("m", range(8)))  # full duplicate
        service.delete_backup(first.backup_id)
        mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
        for container_id in mark.gs_list:
            assert mark.rrt[container_id] == (second.backup_id,)

    def test_mark_charges_recipe_reads(self, service):
        service.ingest(refs("m", range(8)))
        before = service.disk.stats.read_bytes
        MarkStage(service.config, service.index, service.recipes, service.disk).run()
        assert service.disk.stats.read_bytes > before

    def test_rrt_estimate_scales_with_referencers(self, service):
        """The paper's §5.5 RRT sizing argument, as executable accounting."""
        first = service.ingest(refs("m", range(16)))
        service.ingest(refs("m", range(0, 16, 2)))
        service.delete_backup(first.backup_id)
        mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
        estimate = mark.rrt_bytes_estimate()
        assert estimate > 0
        # 16-byte header + 8 bytes per referencing backup, per GS container.
        assert estimate == sum(16 + 8 * len(b) for b in mark.rrt.values())


class TestNaiveGC:
    def test_gc_without_deletions_is_noop(self, service):
        service.ingest(refs("g", range(16)))
        stored_before = service.store.stored_bytes
        report = service.run_gc()
        assert report.reclaimed_containers == 0
        assert report.produced_containers == 0
        assert service.store.stored_bytes == stored_before

    def test_gc_reclaims_unreferenced_space(self, service):
        first = service.ingest(refs("g", range(16)))
        service.ingest(refs("g", range(8, 24)))
        service.delete_backup(first.backup_id)
        stored_before = service.store.stored_bytes
        report = service.run_gc()
        assert report.reclaimed_bytes == 8 * 512  # chunks 0..7 died
        assert service.store.stored_bytes == stored_before - 8 * 512

    def test_fully_dead_containers_deleted_without_read(self, service):
        only = service.ingest(refs("g", range(16)))
        service.delete_backup(only.backup_id)
        before = service.disk.stats.read_bytes
        report = service.run_gc()
        # Mark reads recipes (metadata), but no container data is read
        # because nothing valid needed copying.
        assert report.produced_containers == 0
        assert report.sweep_read_seconds == 0.0
        assert len(service.store) == 0

    def test_survivors_remain_restorable_after_gc(self, service):
        first = service.ingest(refs("g", range(16)))
        second = service.ingest(refs("g", range(8, 24)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        report = service.restore(second.backup_id)
        assert report.logical_bytes == 16 * 512

    def test_index_consistent_after_gc(self, service):
        first = service.ingest(refs("g", range(16)))
        second = service.ingest(refs("g", range(8, 24)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        live_keys = {e.fp for e in service.recipes.get(second.backup_id).entries}
        assert set(k for k, _ in service.index.items()) == live_keys
        for key in live_keys:
            assert service.index.get(key).container_id in service.store

    def test_gc_purges_deleted_recipes(self, service):
        first = service.ingest(refs("g", range(8)))
        service.delete_backup(first.backup_id)
        report = service.run_gc()
        assert report.backups_purged == 1
        assert service.recipes.deleted_ids() == []

    def test_second_gc_after_no_changes_is_noop(self, service):
        first = service.ingest(refs("g", range(16)))
        service.ingest(refs("g", range(8, 24)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        report = service.run_gc()
        assert report.reclaimed_containers == 0
        assert report.backups_purged == 0

    def test_report_round_indices_increment(self, service):
        service.ingest(refs("g", range(8)))
        a = service.run_gc()
        b = service.run_gc()
        assert (a.round_index, b.round_index) == (0, 1)
        assert service.gc_history == [a, b]

    def test_bloom_vc_table_never_drops_live_chunks(self, tiny_config):
        from dataclasses import replace

        config = replace(tiny_config, vc_table="bloom")
        service = DedupBackupService(config=config)
        first = service.ingest(refs("g", range(32)))
        second = service.ingest(refs("g", range(16, 48)))
        service.delete_backup(first.backup_id)
        service.run_gc()
        report = service.restore(second.backup_id)  # must not raise
        assert report.logical_bytes == 32 * 512

    def test_gc_report_summary_renders(self, service):
        service.ingest(refs("g", range(8)))
        report = service.run_gc()
        text = report.summary()
        assert "GC round 0" in text
        assert "containers" in text
