"""Unit tests for the fingerprint index and recipe store."""

import pytest

from repro.errors import (
    BackupAlreadyDeletedError,
    UnknownBackupError,
    UnknownChunkError,
)
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.columnar import ColumnarRecipe
from repro.index.interning import FingerprintInterner
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef

from tests.conftest import columnar_recipe


def fp(i: int) -> bytes:
    return synthetic_fingerprint("idx", i)


class TestFingerprintIndex:
    def test_insert_lookup_roundtrip(self):
        index = FingerprintIndex()
        index.insert(fp(1), container_id=7, size=100)
        placement = index.lookup(fp(1))
        assert placement is not None
        assert (placement.container_id, placement.size) == (7, 100)

    def test_lookup_miss_returns_none(self):
        assert FingerprintIndex().lookup(fp(1)) is None

    def test_get_raises_on_missing(self):
        with pytest.raises(UnknownChunkError):
            FingerprintIndex().get(fp(1))

    def test_relocate_preserves_size(self):
        index = FingerprintIndex()
        index.insert(fp(1), container_id=7, size=100)
        index.relocate(fp(1), container_id=9)
        placement = index.get(fp(1))
        assert (placement.container_id, placement.size) == (9, 100)

    def test_relocate_unknown_raises(self):
        with pytest.raises(UnknownChunkError):
            FingerprintIndex().relocate(fp(1), 3)

    def test_discard_is_idempotent(self):
        index = FingerprintIndex()
        index.discard(fp(1))  # no error
        index.insert(fp(1), 1, 10)
        index.discard(fp(1))
        index.discard(fp(1))
        assert len(index) == 0

    def test_hit_rate_tracking(self):
        index = FingerprintIndex()
        index.insert(fp(1), 1, 10)
        index.lookup(fp(1))
        index.lookup(fp(2))
        assert index.hit_rate == pytest.approx(0.5)


def make_recipe(store: RecipeStore, ids, source="src") -> ColumnarRecipe:
    recipe = columnar_recipe(
        store.interner,
        store.new_backup_id(),
        (ChunkRef(fp=fp(i), size=100) for i in ids),
        source=source,
    )
    store.add(recipe)
    return recipe


class TestRecipe:
    def test_logical_size_and_chunks(self):
        recipe = columnar_recipe(
            FingerprintInterner(), 0, (ChunkRef(fp(i), 50) for i in range(4))
        )
        assert recipe.logical_size == 200
        assert recipe.num_chunks == 4

    def test_fingerprints_preserve_duplicates(self):
        entries = (ChunkRef(fp(1), 10), ChunkRef(fp(1), 10), ChunkRef(fp(2), 10))
        recipe = columnar_recipe(FingerprintInterner(), 0, entries)
        assert len(list(recipe.fingerprints())) == 3
        assert recipe.unique_fingerprints() == {fp(1), fp(2)}


class TestRecipeStore:
    def test_ids_are_sequential(self):
        store = RecipeStore()
        a = make_recipe(store, [1])
        b = make_recipe(store, [2])
        assert (a.backup_id, b.backup_id) == (0, 1)

    def test_duplicate_add_rejected(self):
        store = RecipeStore()
        recipe = make_recipe(store, [1])
        # Not UnknownBackupError: the id is known — that is the problem.
        with pytest.raises(ValueError, match="already stored"):
            store.add(recipe)

    def test_foreign_interner_rejected(self):
        # Ids only mean something against the interner that minted them:
        # accepted, a foreign recipe's ids would join the mark's live set
        # as if they were this store's.
        store = RecipeStore()
        make_recipe(store, [1])
        foreign = columnar_recipe(
            FingerprintInterner(), store.new_backup_id(), [ChunkRef(fp(9), 100)]
        )
        with pytest.raises(ValueError, match="different interner"):
            store.add(foreign)
        assert foreign.backup_id not in store
        replacement = columnar_recipe(FingerprintInterner(), 0, [ChunkRef(fp(9), 100)])
        with pytest.raises(ValueError, match="different interner"):
            store.replace(replacement)
        assert list(store.get(0).fingerprints()) == [fp(1)]

    def test_replace_swaps_recipe_and_rejects_unknown(self):
        store = RecipeStore()
        make_recipe(store, [1])
        rebuilt = columnar_recipe(store.interner, 0, [ChunkRef(fp(2), 100)])
        store.replace(rebuilt)
        assert store.get(0) is rebuilt
        with pytest.raises(UnknownBackupError):
            store.replace(columnar_recipe(store.interner, 7, []))

    def test_logical_deletion_keeps_recipe(self):
        store = RecipeStore()
        recipe = make_recipe(store, [1])
        store.mark_deleted(recipe.backup_id)
        assert not store.is_live(recipe.backup_id)
        assert store.is_deleted(recipe.backup_id)
        assert store.get(recipe.backup_id) is recipe  # still readable for GC

    def test_double_delete_rejected(self):
        store = RecipeStore()
        recipe = make_recipe(store, [1])
        store.mark_deleted(recipe.backup_id)
        with pytest.raises(BackupAlreadyDeletedError):
            store.mark_deleted(recipe.backup_id)

    def test_delete_unknown_rejected(self):
        with pytest.raises(UnknownBackupError):
            RecipeStore().mark_deleted(42)

    def test_purge_returns_and_clears(self):
        store = RecipeStore()
        a = make_recipe(store, [1])
        make_recipe(store, [2])
        store.mark_deleted(a.backup_id)
        purged = store.purge_deleted()
        assert [r.backup_id for r in purged] == [a.backup_id]
        assert store.deleted_ids() == []
        with pytest.raises(UnknownBackupError):
            store.get(a.backup_id)

    def test_live_ids_sorted_and_exclude_deleted(self):
        store = RecipeStore()
        ids = [make_recipe(store, [i]).backup_id for i in range(4)]
        store.mark_deleted(ids[1])
        assert store.live_ids() == [ids[0], ids[2], ids[3]]

    def test_len_counts_live_only(self):
        store = RecipeStore()
        a = make_recipe(store, [1])
        make_recipe(store, [2])
        store.mark_deleted(a.backup_id)
        assert len(store) == 1

    def test_live_logical_bytes(self):
        store = RecipeStore()
        make_recipe(store, [1, 2])
        make_recipe(store, [3])
        assert store.live_logical_bytes() == 300

    def test_referenced_fingerprints_union(self):
        store = RecipeStore()
        a = make_recipe(store, [1, 2])
        b = make_recipe(store, [2, 3])
        union = store.referenced_fingerprints([a.backup_id, b.backup_id])
        assert union == {fp(1), fp(2), fp(3)}
