"""Unit tests for the deduplicating ingest pipeline."""

import pytest

from repro.backup.system import DedupBackupService
from repro.dedup.keys import key_generation, logical_fp
from repro.dedup.pipeline import IngestPipeline
from repro.dedup.rewriting.base import RewritingPolicy
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore

from tests.conftest import refs


@pytest.fixture
def parts():
    recipes = RecipeStore()
    store = ContainerStore(capacity=4096, disk=DiskModel())
    index = FingerprintIndex()
    return store, index, recipes


def make_pipeline(parts, **kwargs) -> IngestPipeline:
    store, index, recipes = parts
    return IngestPipeline(store=store, index=index, recipes=recipes, **kwargs)


class TestBasicIngest:
    def test_first_backup_stores_everything(self, parts):
        pipeline = make_pipeline(parts)
        result = pipeline.ingest(refs("a", range(10)))
        assert result.logical_bytes == 10 * 512
        assert result.stored_bytes == 10 * 512
        assert result.dedup_bytes == 0
        assert result.num_chunks == 10

    def test_identical_second_backup_fully_dedups(self, parts):
        pipeline = make_pipeline(parts)
        pipeline.ingest(refs("a", range(10)))
        result = pipeline.ingest(refs("a", range(10)))
        assert result.stored_bytes == 0
        assert result.dedup_bytes == 10 * 512

    def test_partial_overlap(self, parts):
        pipeline = make_pipeline(parts)
        pipeline.ingest(refs("a", range(10)))
        result = pipeline.ingest(refs("a", range(5, 15)))
        assert result.dedup_bytes == 5 * 512
        assert result.stored_bytes == 5 * 512

    def test_intra_backup_duplicates_removed(self, parts):
        pipeline = make_pipeline(parts)
        stream = refs("a", [1, 1, 1, 2])
        result = pipeline.ingest(stream)
        assert result.stored_bytes == 2 * 512
        assert result.dedup_bytes == 2 * 512

    def test_recipe_records_stream_order_and_sizes(self, parts):
        store, index, recipes = parts
        pipeline = make_pipeline(parts)
        stream = refs("a", [3, 1, 2])
        result = pipeline.ingest(stream, source="tagged")
        recipe = recipes.get(result.backup_id)
        assert recipe.source == "tagged"
        assert [logical_fp(e.fp) for e in recipe.entries] == [r.fp for r in stream]

    def test_recipe_keys_resolve_through_index(self, parts):
        store, index, recipes = parts
        pipeline = make_pipeline(parts)
        result = pipeline.ingest(refs("a", range(20)))
        recipe = recipes.get(result.backup_id)
        for entry in recipe.entries:
            placement = index.get(entry.fp)
            assert placement.container_id in store

    def test_accounting_invariant(self, parts):
        pipeline = make_pipeline(parts)
        pipeline.ingest(refs("a", range(8)))
        result = pipeline.ingest(refs("a", range(4, 12)))
        assert (
            result.stored_bytes + result.dedup_bytes == result.logical_bytes
        )

    def test_containers_written_counted(self, parts):
        pipeline = make_pipeline(parts)
        result = pipeline.ingest(refs("a", range(20)))  # 20*512B / 4KiB = 3 containers
        assert result.containers_written == 3


class TestNonDedupMode:
    def test_every_occurrence_stored(self, parts):
        pipeline = make_pipeline(parts, dedup_enabled=False)
        pipeline.ingest(refs("a", range(10)))
        result = pipeline.ingest(refs("a", range(10)))
        assert result.stored_bytes == result.logical_bytes
        assert result.dedup_bytes == 0

    def test_copies_get_distinct_generations(self, parts):
        store, index, recipes = parts
        pipeline = make_pipeline(parts, dedup_enabled=False)
        a = pipeline.ingest(refs("a", [1]))
        b = pipeline.ingest(refs("a", [1]))
        key_a = recipes.get(a.backup_id).entries[0].fp
        key_b = recipes.get(b.backup_id).entries[0].fp
        assert logical_fp(key_a) == logical_fp(key_b)
        assert key_generation(key_a) != key_generation(key_b)


class _RewriteEverything(RewritingPolicy):
    """Test double: stores every duplicate again, deciding per chunk."""

    def decide(self, referenced, segment_bytes):
        return set(referenced)


class _NeverRewrite(RewritingPolicy):
    """Test double: buffers ``segment_bytes`` per decision, never rewrites,
    and records every decision it is asked for."""

    def __init__(self, segment_bytes: int = 0):
        self.segment_bytes = segment_bytes
        self.decisions: list[tuple[dict[int, int], int]] = []

    def decide(self, referenced, segment_bytes):
        self.decisions.append((dict(referenced), segment_bytes))
        return set()


class TestRewritingHook:
    def test_rewritten_duplicates_stored_again(self, parts):
        pipeline = make_pipeline(parts, rewriting=_RewriteEverything())
        pipeline.ingest(refs("a", range(6)))
        result = pipeline.ingest(refs("a", range(6)))
        assert result.rewritten_bytes == 6 * 512
        assert result.stored_bytes == 6 * 512
        assert result.dedup_bytes == 0

    def test_rewrite_bumps_generation_and_relocates_future_references(self, parts):
        store, index, recipes = parts
        pipeline = make_pipeline(parts, rewriting=_RewriteEverything())
        first = pipeline.ingest(refs("a", [1]))
        second = pipeline.ingest(refs("a", [1]))
        key_first = recipes.get(first.backup_id).entries[0].fp
        key_second = recipes.get(second.backup_id).entries[0].fp
        assert key_generation(key_second) == key_generation(key_first) + 1
        # Both copies exist — old recipes keep reading the old copy.
        assert key_first in index
        assert key_second in index

    def test_buffered_policy_preserves_stream_order(self, parts):
        store, index, recipes = parts
        pipeline = make_pipeline(parts, rewriting=_NeverRewrite(1 << 40))
        stream = refs("a", [5, 3, 9, 1])
        result = pipeline.ingest(stream)
        recipe = recipes.get(result.backup_id)
        assert [logical_fp(e.fp) for e in recipe.entries] == [r.fp for r in stream]


class TestSegmentKernel:
    def test_segments_close_at_threshold_and_final_partial_is_decided(self, parts):
        policy = _NeverRewrite(segment_bytes=1024)
        pipeline = make_pipeline(parts, rewriting=policy)
        pipeline.ingest(refs("a", range(4)))  # 2 KiB, sealed as container 0
        policy.decisions.clear()
        # 700 + 700 crosses 1024; two 512 B duplicates reach it exactly,
        # twice; the final 500 B are a partial segment, decided at the end.
        stream = (
            refs("c", [0, 1], size=700)
            + refs("a", [0, 1, 2, 3])
            + refs("b", [9], size=500)
        )
        result = pipeline.ingest(stream)
        assert [seg for _, seg in policy.decisions] == [1400, 1024, 1024, 500]
        # Per-container duplicate bytes; the first and last segments are misses.
        assert [ref for ref, _ in policy.decisions] == [{}, {0: 1024}, {0: 1024}, {}]
        assert result.dedup_bytes == 4 * 512
        assert result.rewritten_bytes == 0

    def test_zero_segment_policy_that_never_rewrites_equals_no_policy(
        self, tiny_config
    ):
        """Deciding after every chunk and never rewriting is exactly the
        policy-free kernel: same recipe columns, containers and probe
        counters, across intra-backup repeats and a stale logical entry."""

        def run(policy):
            service = DedupBackupService(config=tiny_config)
            service.pipeline.rewriting = policy
            service.ingest(refs("old", range(16)))
            service.ingest(refs("keep", range(16)))
            service.delete_oldest(1)
            service.run_gc()  # reclaims "old": its logical entries go stale
            service.ingest(
                refs("old", [0, 1, 0, 2, 1]) + refs("keep", [3, 3, 4]) + refs("new", [7, 7])
            )
            return service

        bare, policed = run(None), run(_NeverRewrite(0))
        assert policed.pipeline.rewriting.decisions  # the policy was consulted
        # Stale entries were hit (probed, then dropped as reclaimed).
        assert bare.index.lookups > bare.index.hits

        def end_state(service):
            recipes = [
                (r.backup_id, r.chunk_ids, r.chunk_sizes)
                for r in service.recipes.live_recipes()
            ]
            layout = [
                (c.container_id, c.chunk_ids, c.chunk_sizes)
                for c in service.store.containers()
            ]
            counters = (
                service.pipeline.logical.lookups,
                service.pipeline.logical.hits,
                service.index.lookups,
                service.index.hits,
            )
            return recipes, layout, counters

        assert end_state(bare) == end_state(policed)
