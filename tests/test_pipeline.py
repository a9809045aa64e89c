"""Unit tests for the deduplicating ingest pipeline."""

import pytest

from repro.dedup.keys import key_generation, logical_fp
from repro.dedup.pipeline import IngestPipeline
from repro.dedup.rewriting.base import IngestEntry, RewritingPolicy
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
    """Test double: flags every duplicate for rewriting."""

    name = "rewrite-all"

    def feed(self, entry: IngestEntry):
        if entry.duplicate:
            entry.rewrite = True
        return (entry,)


class _BufferingPolicy(RewritingPolicy):
    """Test double: buffers everything until flush (stream order must hold)."""

    name = "buffering"

    def __init__(self):
        self._held = []

    def feed(self, entry: IngestEntry):
        self._held.append(entry)
        return ()

    def flush(self):
        held, self._held = self._held, []
        return held


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
        pipeline = make_pipeline(parts, rewriting=_BufferingPolicy())
        stream = refs("a", [5, 3, 9, 1])
        result = pipeline.ingest(stream)
        recipe = recipes.get(result.backup_id)
        assert [logical_fp(e.fp) for e in recipe.entries] == [r.fp for r in stream]
