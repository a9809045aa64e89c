"""Detailed Preprocessor/Segment behaviour (GC cache bounds, §5.2)."""

import pytest

from repro.backup.system import DedupBackupService
from repro.core.gccdf import GCCDFMigration
from repro.core.preprocessor import Preprocessor, Segment
from repro.gc.mark import MarkStage
from repro.gc.migration import SweepContext

from tests.conftest import refs


def sweep_context(service) -> SweepContext:
    mark = MarkStage(service.config, service.index, service.recipes, service.disk).run()
    return SweepContext(
        config=service.config,
        store=service.store,
        index=service.index,
        recipes=service.recipes,
        disk=service.disk,
        mark=mark,
    )


def prepared_service(tiny_config, segment_size=2):
    config = tiny_config.with_gccdf(segment_size=segment_size)
    service = DedupBackupService(config=config, migration=GCCDFMigration())
    first = service.ingest(refs("pp", range(64)))
    service.ingest(refs("pp", range(0, 64, 2)))
    service.delete_backup(first.backup_id)
    return service


class TestSegmentProperties:
    def test_cached_bytes_equals_valid_chunk_sum(self, tiny_config):
        service = prepared_service(tiny_config)
        keys = service.recipes.interner.keys()
        for segment in Preprocessor(sweep_context(service)).segments():
            assert segment.cached_bytes == sum(
                service.index.get(keys[i]).size for i in segment.valid_ids
            )

    def test_gc_cache_bounded_by_segment_geometry(self, tiny_config):
        """§5.2: the GC cache holds at most segment_size containers' bytes."""
        service = prepared_service(tiny_config, segment_size=2)
        limit = 2 * service.config.container_size
        for segment in Preprocessor(sweep_context(service)).segments():
            assert segment.cached_bytes <= limit

    def test_segments_cover_all_reclaimable_containers_once(self, tiny_config):
        service = prepared_service(tiny_config, segment_size=3)
        ctx = sweep_context(service)
        reclaimable = {cid for cid, _ in Preprocessor(ctx).reclaimable_containers()}
        seen: list[int] = []
        for segment in Preprocessor(ctx).segments():
            seen.extend(segment.container_ids)
        assert sorted(seen) == sorted(reclaimable)
        assert len(seen) == len(set(seen))

    def test_segment_indices_sequential(self, tiny_config):
        service = prepared_service(tiny_config, segment_size=1)
        indices = [s.index for s in Preprocessor(sweep_context(service)).segments()]
        assert indices == list(range(len(indices)))

    def test_trace_level_segments_have_no_payloads(self, tiny_config):
        service = prepared_service(tiny_config)
        for segment in Preprocessor(sweep_context(service)).segments():
            assert segment.payloads == {}

    def test_byte_level_segments_carry_payloads(self, tiny_config):
        from repro.chunking.base import split
        from repro.chunking.fastcdc import FastCDC
        from repro.util.rng import DeterministicRng

        service = DedupBackupService(config=tiny_config, migration=GCCDFMigration())
        cdc = FastCDC(tiny_config.chunking)
        rng = DeterministicRng(5)
        data_a = bytes(rng.randint(0, 255) for _ in range(10_000))
        data_b = data_a[:5000] + bytes(rng.randint(0, 255) for _ in range(5000))
        first = service.ingest(split(cdc, data_a))
        service.ingest(split(cdc, data_b))
        service.delete_backup(first.backup_id)
        segments = list(Preprocessor(sweep_context(service)).segments())
        assert any(segment.payloads for segment in segments)
        keys = service.recipes.interner.keys()
        for segment in segments:
            for chunk_id in segment.valid_ids:
                key = keys[chunk_id]
                if key in segment.payloads:
                    assert len(segment.payloads[key]) == service.index.get(key).size
