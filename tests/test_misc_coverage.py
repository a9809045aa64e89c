"""Focused coverage for small behaviours not exercised elsewhere."""

import pytest

from repro.analysis.layout import render_layout
from repro.backup.system import DedupBackupService
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.simio.disk import DiskModel
from repro.storage.container import Container
from repro.storage.store import ContainerStore

from tests.conftest import refs


class TestContainerExtras:
    def test_has_payloads(self):
        container = Container(0, 4096)
        container.append(1, 100, synthetic_fingerprint("x", 1))
        assert not container.has_payloads()
        container.append(2, 100, synthetic_fingerprint("x", 2), payload=b"abc")
        assert container.has_payloads()

    def test_repr_states(self):
        container = Container(3, 4096)
        assert "open" in repr(container)
        container.seal()
        assert "sealed" in repr(container)

    def test_seal_idempotent(self):
        container = Container(0, 4096)
        container.seal()
        container.seal()
        assert container.sealed


class TestStoreIteration:
    def test_ids_and_containers_sorted(self):
        store = ContainerStore(capacity=1024, disk=DiskModel())
        allocated = [store.allocate() for _ in range(3)]
        for container in reversed(allocated):
            cid = container.container_id
            container.append(cid, 10, synthetic_fingerprint("s", cid))
            store.commit(container)
        assert list(store.ids()) == [0, 1, 2]
        assert [c.container_id for c in store.containers()] == [0, 1, 2]


class TestLayoutGlyphOverflow:
    def test_many_ownership_groups_fall_back_to_hash(self, tiny_config):
        """More distinct owner-sets than glyphs → later groups render '#'."""
        service = DedupBackupService(config=tiny_config)
        # 70 backups each with a private chunk → 70 distinct ownerships.
        for i in range(70):
            service.ingest(refs("g", [i]))
        text = render_layout(service)
        assert "#" in text

    def test_legend_lists_assigned_groups(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        service.ingest(refs("g", range(4)))
        service.ingest(refs("g", range(2, 6)))
        text = render_layout(service)
        assert text.count("= backups") >= 2


class TestRecipeStoreOrdering:
    def test_deleted_recipes_ascend(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        ids = [service.ingest(refs("r", [i])).backup_id for i in range(4)]
        service.delete_backup(ids[2])
        service.delete_backup(ids[0])
        deleted = [r.backup_id for r in service.recipes.deleted_recipes()]
        assert deleted == [ids[0], ids[2]]

    def test_contains_checks_liveness(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        a = service.ingest(refs("r", [1])).backup_id
        assert a in service.recipes
        service.delete_backup(a)
        assert a not in service.recipes


class TestIngestResultFields:
    def test_num_chunks_counts_recipe_entries(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        result = service.ingest(refs("r", [1, 1, 2]))
        assert result.num_chunks == 3  # duplicates kept in the recipe

    def test_history_records_every_ingest(self, tiny_config):
        service = DedupBackupService(config=tiny_config)
        service.ingest(refs("r", [1]))
        service.ingest(refs("r", [2]))
        assert len(service.ingest_history) == 2


class TestDiskModelReturnValues:
    def test_costs_returned_match_stats(self):
        disk = DiskModel()
        cost = disk.read(1000) + disk.write(2000)
        assert cost == pytest.approx(disk.stats.total_seconds)
