"""Whole-system consistency verification.

A deduplicating store with copy-forward GC has several metadata structures
that must stay mutually consistent — the fingerprint index, the container
store, and every live recipe.  :func:`verify_system` walks all of them and
returns a :class:`VerificationReport`; :func:`assert_consistent` raises
:class:`~repro.errors.IntegrityError` with the full finding list otherwise.

Checked invariants:

1. every live recipe entry's storage key resolves through the index;
2. each resolved placement names a live container that actually holds the
   key, with the recorded size;
3. every index entry points into a live container holding its key (no
   dangling placements after GC relocation);
4. containers contain no duplicate storage keys;
5. container ``used_bytes`` equals the sum of its entry sizes;
6. with an exact-VC system, no container holds a key that neither the index
   nor any live recipe knows (garbage the last GC should have reclaimed is
   reported as a *warning*, since it may legitimately await the next GC).

:func:`verify_mfdedup` audits the volume layout the same way (volume size
accounting, intra-volume key uniqueness, lifecycle-range sanity, and every
live recipe restorable from its covering volumes); :func:`verify_service`
dispatches on the service's storage layout.  The fault-injection suite
leans on these: after any injected crash, ``recover → verify`` must come
back with zero errors.

The property-based suite runs this after every generated operation
sequence; operators can call it after any GC as a cheap audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backup.service import BackupService
from repro.backup.system import DedupBackupService
from repro.errors import IntegrityError, UnknownChunkError, UnknownContainerError


@dataclass
class VerificationReport:
    """Findings from one verification pass."""

    #: Hard inconsistencies: the system is corrupt if any exist.
    errors: list[str] = field(default_factory=list)
    #: Benign observations (e.g. reclaimable garbage awaiting the next GC).
    warnings: list[str] = field(default_factory=list)
    #: Statistics gathered during the walk.
    live_recipes: int = 0
    recipe_entries: int = 0
    index_entries: int = 0
    containers: int = 0
    container_chunks: int = 0

    @property
    def consistent(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "CONSISTENT" if self.consistent else f"{len(self.errors)} ERRORS"
        return (
            f"verification: {status} — {self.live_recipes} recipes / "
            f"{self.recipe_entries} entries, {self.index_entries} index keys, "
            f"{self.containers} containers / {self.container_chunks} chunks, "
            f"{len(self.warnings)} warnings"
        )


def verify_system(service: DedupBackupService) -> VerificationReport:
    """Audit a container-based backup service; never raises."""
    report = VerificationReport()
    index = service.index
    store = service.store
    recipes = service.recipes

    # --- container-side structure (invariants 4, 5) -------------------
    keys = recipes.interner.keys()
    container_keys: dict[bytes, int] = {}
    for container in store.containers():
        report.containers += 1
        seen: set[bytes] = set()
        total = 0
        for chunk_id, size in zip(container.chunk_ids, container.chunk_sizes):
            key = keys[chunk_id]
            report.container_chunks += 1
            total += size
            if key in seen:
                report.errors.append(
                    f"container {container.container_id} holds duplicate key "
                    f"{key.hex()[:12]}…"
                )
            seen.add(key)
            container_keys[key] = container.container_id
        if total != container.used_bytes:
            report.errors.append(
                f"container {container.container_id} used_bytes={container.used_bytes} "
                f"but entries sum to {total}"
            )

    # --- index side (invariant 3) -------------------------------------
    for key, placement in index.items():
        report.index_entries += 1
        try:
            container = store.peek(placement.container_id)
        except UnknownContainerError:
            report.errors.append(
                f"index key {key.hex()[:12]}… points at dead container "
                f"{placement.container_id}"
            )
            continue
        if container_keys.get(key) != placement.container_id:
            report.errors.append(
                f"index key {key.hex()[:12]}… claims container "
                f"{placement.container_id}, which does not hold it"
            )

    # --- recipe side (invariants 1, 2) ---------------------------------
    referenced: set[bytes] = set()
    for recipe in recipes.live_recipes():
        report.live_recipes += 1
        for entry in recipe.entries:
            report.recipe_entries += 1
            referenced.add(entry.fp)
            try:
                placement = index.get(entry.fp)
            except UnknownChunkError:
                report.errors.append(
                    f"backup {recipe.backup_id} references key "
                    f"{entry.fp.hex()[:12]}… missing from the index"
                )
                continue
            if placement.size != entry.size:
                report.errors.append(
                    f"backup {recipe.backup_id} key {entry.fp.hex()[:12]}… size "
                    f"{entry.size} != indexed size {placement.size}"
                )
            if container_keys.get(entry.fp) != placement.container_id:
                report.errors.append(
                    f"backup {recipe.backup_id} key {entry.fp.hex()[:12]}… not "
                    f"present in its placement container {placement.container_id}"
                )

    # --- unreferenced residue (invariant 6, warning only) --------------
    # Keys may legitimately linger between a deletion and the next GC, or
    # be retained by a Bloom VC table's false positives.
    unreferenced = set(container_keys) - referenced
    deleted_refs: set[bytes] = set()
    for recipe in recipes.deleted_recipes():
        deleted_refs.update(entry.fp for entry in recipe.entries)
    stray = unreferenced - deleted_refs
    if stray:
        report.warnings.append(
            f"{len(stray)} stored keys referenced by no recipe "
            "(awaiting GC, or Bloom-VC retained)"
        )
    return report


def verify_mfdedup(service) -> VerificationReport:
    """Audit an MFDedup service's volume layout; never raises.

    Reuses :class:`VerificationReport` with volumes standing in for
    containers: ``containers`` counts volumes, ``container_chunks`` their
    chunk refs, ``index_entries`` stays zero (MFDedup keeps no fingerprint
    index — placement *is* the lifecycle range).
    """
    report = VerificationReport()
    volumes = service.volumes
    recipes = service.recipes

    # --- volume-side structure ----------------------------------------
    for volume in volumes:
        report.containers += 1
        if volume.first > volume.last:
            report.errors.append(
                f"volume {volume.first}..{volume.last} has an inverted lifecycle range"
            )
        seen: set[bytes] = set()
        total = 0
        for ref in volume.chunks:
            report.container_chunks += 1
            total += ref.size
            if ref.fp in seen:
                report.errors.append(
                    f"volume {volume.first}..{volume.last} holds duplicate key "
                    f"{ref.fp.hex()[:12]}…"
                )
            seen.add(ref.fp)
        if total != volume.size_bytes:
            report.errors.append(
                f"volume {volume.first}..{volume.last} size_bytes={volume.size_bytes} "
                f"but chunks sum to {total}"
            )

    # --- recipe side: every live backup restorable from its cover ------
    live_ids = recipes.live_ids()
    for recipe in recipes.live_recipes():
        report.live_recipes += 1
        available: dict[bytes, int] = {}
        for volume in volumes.volumes_covering(recipe.backup_id):
            for ref in volume.chunks:
                available[ref.fp] = ref.size
        for entry in recipe.entries:
            report.recipe_entries += 1
            size = available.get(entry.fp)
            if size is None:
                report.errors.append(
                    f"backup {recipe.backup_id} references key "
                    f"{entry.fp.hex()[:12]}… absent from its covering volumes"
                )
            elif size != entry.size:
                report.errors.append(
                    f"backup {recipe.backup_id} key {entry.fp.hex()[:12]}… size "
                    f"{entry.size} != stored size {size}"
                )

    # --- expired residue (warning only) --------------------------------
    if live_ids:
        expired = sum(1 for volume in volumes if volume.last < live_ids[0])
        if expired:
            report.warnings.append(
                f"{expired} volumes wholly older than the oldest live backup "
                "(awaiting the next reorg)"
            )
    return report


def verify_service(service: BackupService) -> VerificationReport:
    """Audit any backup service, dispatching on its storage layout."""
    if hasattr(service, "volumes"):
        return verify_mfdedup(service)
    return verify_system(service)


def assert_consistent(service: BackupService) -> VerificationReport:
    """Run :func:`verify_service`; raise IntegrityError on any hard finding."""
    report = verify_service(service)
    if not report.consistent:
        details = "\n  ".join(report.errors[:20])
        raise IntegrityError(
            f"backup system inconsistent ({len(report.errors)} errors):\n  {details}"
        )
    return report
