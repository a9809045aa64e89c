"""Cross-approach GC report semantics and MFDedup report mapping."""

import pytest

from repro.config import SystemConfig
from repro.gc.report import GCReport
from repro.mfdedup.engine import MFDedupService

from tests.conftest import refs


class TestGCReportSemantics:
    def test_total_includes_all_stages(self):
        report = GCReport(
            round_index=0,
            backups_purged=1,
            involved_containers=2,
            reclaimed_containers=1,
            produced_containers=1,
            migrated_bytes=10,
            reclaimed_bytes=20,
            migrated_chunks=3,
            mark_seconds=1.0,
            analyze_seconds=2.0,
            sweep_read_seconds=3.0,
            sweep_write_seconds=4.0,
        )
        assert report.total_seconds == pytest.approx(10.0)

    def test_frozen(self):
        report = GCReport(
            round_index=0,
            backups_purged=0,
            involved_containers=0,
            reclaimed_containers=0,
            produced_containers=0,
            migrated_bytes=0,
            reclaimed_bytes=0,
            migrated_chunks=0,
            mark_seconds=0.0,
            analyze_seconds=0.0,
            sweep_read_seconds=0.0,
            sweep_write_seconds=0.0,
        )
        with pytest.raises(AttributeError):
            report.migrated_bytes = 5


class TestMFDedupGCReportMapping:
    """MFDedup expresses deleted volume bytes in container units (Fig. 13)."""

    def test_container_equivalents_are_ceiling_division(self, tiny_config):
        service = MFDedupService(config=tiny_config)
        service.ingest(refs("m", range(20)))  # 10 240 B
        service.delete_backup(0)
        report = service.run_gc()
        # 20 × 512 B dropped; container = 4096 B → ceil(10240/4096) = 3.
        assert report.involved_containers == 3
        assert report.reclaimed_containers == 3
        assert report.produced_containers == 0
        assert report.reclaimed_bytes == 20 * 512

    def test_no_deletion_rounds_are_cheap(self, tiny_config):
        service = MFDedupService(config=tiny_config)
        service.ingest(refs("m", range(8)))
        report = service.run_gc()
        assert report.reclaimed_bytes == 0
        assert report.total_seconds == pytest.approx(0.0)

    def test_rounds_increment(self, tiny_config):
        service = MFDedupService(config=tiny_config)
        service.ingest(refs("m", range(8)))
        a = service.run_gc()
        b = service.run_gc()
        assert (a.round_index, b.round_index) == (0, 1)
        assert service.gc_history == [a, b]
