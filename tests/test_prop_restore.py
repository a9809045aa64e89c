"""Property-based invariants of restore accounting across memory models."""

from hypothesis import given, settings, strategies as st

from repro.backup.system import DedupBackupService
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.restore.engine import RestoreEngine

from tests.conftest import refs


def make_service() -> DedupBackupService:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=8, turnover=2),
    )
    return DedupBackupService(config=config)


backup_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=25),
    ),
    min_size=1,
    max_size=6,
)


def ingest_all(service, plans):
    last = None
    for start, length in plans:
        last = service.ingest(refs("pr", range(start, start + length)))
    return last


@given(backup_plans)
@settings(max_examples=60, deadline=None)
def test_read_once_amp_at_least_one(plans):
    service = make_service()
    ingest_all(service, plans)
    for backup_id in service.live_backup_ids():
        report = service.restore(backup_id)
        assert report.read_amplification >= 1.0 - 1e-9


@given(backup_plans)
@settings(max_examples=50, deadline=None)
def test_bounded_lru_never_beats_read_once(plans):
    service = make_service()
    ingest_all(service, plans)
    bounded = RestoreEngine(
        service.store, service.index, service.recipes, service.disk, cache_containers=2
    )
    for backup_id in service.live_backup_ids():
        read_once = service.restore(backup_id)
        pressured = bounded.restore(backup_id)
        assert pressured.container_bytes_read >= read_once.container_bytes_read


@given(backup_plans)
@settings(max_examples=40, deadline=None)
def test_restore_time_matches_disk_charges(plans):
    """The report's read_seconds must equal the disk's accrued charge."""
    service = make_service()
    ingest_all(service, plans)
    for backup_id in service.live_backup_ids():
        before = service.disk.stats.read_seconds
        report = service.restore(backup_id)
        charged = service.disk.stats.read_seconds - before
        assert report.read_seconds == charged
