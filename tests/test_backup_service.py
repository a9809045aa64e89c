"""Tests for the backup facade: service accounting, retention, approaches."""

import pytest

from repro.backup.approaches import APPROACHES, make_service
from repro.backup.retention import RetentionPolicy
from repro.backup.system import DedupBackupService
from repro.config import RetentionConfig, SystemConfig
from repro.core.gccdf import GCCDFMigration
from repro.dedup.rewriting import (
    CappingRewriting,
    HARRewriting,
    SMRRewriting,
)
from repro.gc.migration import NaiveMigration
from repro.mfdedup.engine import MFDedupService

from tests.conftest import refs


class TestDedupRatioAccounting:
    def test_nondedup_ratio_is_one(self, tiny_config):
        service = DedupBackupService(config=tiny_config, dedup_enabled=False)
        for _ in range(3):
            service.ingest(refs("a", range(10)))
        assert service.dedup_ratio == pytest.approx(1.0)

    def test_full_duplicates_scale_ratio(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        for _ in range(4):
            service.ingest(refs("a", range(10)))
        assert service.dedup_ratio == pytest.approx(4.0)

    def test_ratio_survives_deletion_and_gc(self, tiny_config):
        """Cumulative accounting: GC does not change the dedup ratio."""
        service = DedupBackupService(config=tiny_config)
        first = service.ingest(refs("a", range(10)))
        service.ingest(refs("a", range(10)))
        ratio_before = service.dedup_ratio
        service.delete_backup(first.backup_id)
        service.run_gc()
        assert service.dedup_ratio == pytest.approx(ratio_before)

    def test_empty_service_ratio(self, tiny_config):
        assert DedupBackupService(config=tiny_config).dedup_ratio == 1.0

    def test_physical_bytes_track_store(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        service.ingest(refs("a", range(10)))
        assert service.physical_bytes == 10 * 512

    def test_describe_mentions_name_and_ratio(self, tiny_config):
        service = DedupBackupService(config=tiny_config, name="naive")
        service.ingest(refs("a", range(4)))
        assert "naive" in service.describe()


class TestSharedCacheAcrossGC:
    def test_long_lived_cache_never_serves_reclaimed_containers(self, tiny_config):
        """Regression: a cache held across a GC round must drop every
        container the sweep reclaimed, so restores through it read the
        migrated copies instead of stale pre-sweep payloads."""
        from repro.storage.cache import ContainerCache

        service = DedupBackupService(config=tiny_config, migration=NaiveMigration())
        first = service.ingest(refs("a", range(16)))
        service.ingest(refs("a", range(8, 24)))

        cache = ContainerCache(service.store, capacity=None)
        warmed = list(service.store.ids())
        for cid in warmed:
            cache.get(cid)

        service.delete_backup(first.backup_id)
        report = service.run_gc()
        assert report.reclaimed_containers > 0

        live_ids = set(service.store.ids())
        reclaimed = [cid for cid in warmed if cid not in live_ids]
        assert reclaimed  # the sweep actually dropped a warmed container
        assert all(cid not in cache for cid in reclaimed)

        restored = {
            chunk_id for cid in live_ids for chunk_id in cache.get(cid).chunk_ids
        }
        for backup_id in service.live_backup_ids():
            assert service.recipes.get(backup_id).unique_ids() <= restored


class TestDeleteOldest:
    def test_deletes_lowest_ids(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        ids = [service.ingest(refs("a", [i])).backup_id for i in range(5)]
        victims = service.delete_oldest(2)
        assert victims == ids[:2]
        assert service.live_backup_ids() == ids[2:]

    def test_delete_more_than_live_is_bounded(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        service.ingest(refs("a", [1]))
        victims = service.delete_oldest(5)
        assert len(victims) == 1


class TestRetentionPolicy:
    def test_round_due_at_window(self):
        policy = RetentionPolicy(RetentionConfig(retained=10, turnover=3))
        assert not policy.round_due(9)
        assert policy.round_due(10)

    def test_victims_are_oldest(self):
        policy = RetentionPolicy(RetentionConfig(retained=10, turnover=3))
        assert policy.victims(list(range(100, 110))) == [100, 101, 102]


class TestApproachFactory:
    def test_all_approaches_constructible(self, scaled_config):
        for approach in APPROACHES:
            service = make_service(approach, scaled_config)
            assert service.name == approach

    def test_unknown_approach(self):
        with pytest.raises(ValueError):
            make_service("zfs-dedup")

    def test_naive_uses_null_rewriting_and_naive_migration(self, scaled_config):
        service = make_service("naive", scaled_config)
        assert service.pipeline.rewriting is None
        assert isinstance(service.gc.migration, NaiveMigration)

    @pytest.mark.parametrize(
        "name,policy_type",
        [("capping", CappingRewriting), ("har", HARRewriting), ("smr", SMRRewriting)],
    )
    def test_rewriting_approaches(self, scaled_config, name, policy_type):
        service = make_service(name, scaled_config)
        assert isinstance(service.pipeline.rewriting, policy_type)
        assert isinstance(service.gc.migration, NaiveMigration)

    def test_gccdf_uses_gccdf_migration_without_rewriting(self, scaled_config):
        service = make_service("gccdf", scaled_config)
        assert isinstance(service.gc.migration, GCCDFMigration)
        assert service.pipeline.rewriting is None

    def test_nondedup_disables_dedup(self, scaled_config):
        service = make_service("nondedup", scaled_config)
        assert service.pipeline.dedup_enabled is False

    def test_mfdedup_is_its_own_engine(self, scaled_config):
        assert isinstance(make_service("mfdedup", scaled_config), MFDedupService)

    def test_policy_kwargs_forwarded(self, scaled_config):
        service = make_service("capping", scaled_config, cap=7)
        assert service.pipeline.rewriting.cap == 7
