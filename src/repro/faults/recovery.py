"""Crash recovery: roll incomplete journaled intents back or forward.

Run after a :class:`~repro.errors.SimulatedCrash` (the surviving in-memory
object graph *is* the post-crash disk image).  Recovery walks the device's
:class:`~repro.faults.journal.IntentJournal` and applies one fixed rule per
intent kind — the direction is decided by where each protocol places its
durable point, never by inspecting the damage:

=================  =========  ==============================================
kind               state      recovery action
=================  =========  ==============================================
container.write    open       **roll back** — drop the torn container and
                              scrub index keys that point at it
copyforward        open       **roll back** — repoint any applied moves to
                              their source (still alive by protocol) and
                              drop the destination container
reclaim            any        **roll forward** — re-drop the invalid keys
                              (idempotent) and delete the container; its
                              valid chunks were durably repointed before the
                              reclaim intent began
rededup            any        **roll forward** — finish repointing every
                              referencing recipe at the canonical copy
                              (idempotent), drop the duplicate key, and
                              restore the hybrid bookkeeping (candidate
                              removed, container queued for the sweep)
sweep              open       **roll back** — abort the round; deleted
                              recipes remain and the next GC re-collects
sweep              committed  **roll forward** — purge deleted recipes
mfdedup.ingest     open       **roll back** — undo recorded volume
                              migrations in reverse order (a partial forward
                              migration would break the next ingest's
                              lifecycle chain)
volume.reorg       any        **roll forward** — replay ``drop_expired`` and
                              the per-volume unlink writes (idempotent)
gc.cycle           committed  **roll forward** — finish the selective purge
                              of the cycle's deleted-recipe snapshot
gc.cycle           open       **resume** — repair the persistent cycle state
                              in place (scrub moves whose repoint did not
                              survive, drop the mark's probe memo, rewind the
                              sweep frontier past reclaimed sources) and
                              leave the intent *open*: the incremental
                              engine resumes the cycle from the journal
                              rather than restarting it
=================  =========  ==============================================

One repair is record-less: recovery also scrubs *dangling* index keys —
placements naming a container the store does not hold.  A crash mid-ingest
leaves those behind for the writer's still-open container, which never
reached its durable point and therefore never journaled anything.

Everything here is duck-typed on purpose: the module must be importable
from ``repro.storage`` (which journals its own mutations) without creating
an import cycle, so it names no storage types — only the methods it calls.
Recovery emits a ``recovery`` span plus ``recovery.rollback`` /
``recovery.replay`` point events through the device's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.journal import OPEN, IntentJournal, IntentRecord


@dataclass(frozen=True)
class RecoveryAction:
    """One journal record resolved during recovery."""

    kind: str
    #: ``"rollback"`` (undone) or ``"replay"`` (completed forward).
    action: str
    detail: dict = field(default_factory=dict)


@dataclass
class RecoveryReport:
    """Everything one recovery pass did."""

    actions: list[RecoveryAction] = field(default_factory=list)
    #: Containers dropped (torn writes + rolled-back copy-forward targets).
    containers_dropped: int = 0
    #: Containers whose deletion was completed forward.
    containers_deleted: int = 0
    #: Index keys scrubbed or repointed while undoing partial migration.
    index_keys_fixed: int = 0
    #: Volume migrations undone (MFDedup ingest rollback).
    migrations_rolled_back: int = 0
    #: Expired volumes dropped by a replayed reorg.
    volumes_dropped: int = 0
    #: Logically deleted backups purged by a replayed sweep commit.
    backups_purged: int = 0
    #: Incremental GC cycles repaired in place and left open to resume.
    cycles_resumed: int = 0

    @property
    def rolled_back(self) -> int:
        return sum(1 for a in self.actions if a.action == "rollback")

    @property
    def replayed(self) -> int:
        return sum(1 for a in self.actions if a.action == "replay")

    @property
    def clean(self) -> bool:
        """True when the journal held no incomplete intents at all."""
        return not self.actions

    def record(self, journal: IntentJournal, rec: IntentRecord, action: str, **detail) -> None:
        self.actions.append(RecoveryAction(kind=rec.kind, action=action, detail=detail))
        if action == "resume":
            return  # the intent stays open: its cycle resumes from the journal
        if rec.state == OPEN:
            if action == "replay":
                journal.commit(rec)
                journal.close(rec)
            else:
                journal.abort(rec)
        else:
            journal.close(rec)

    def summary(self) -> str:
        if self.clean:
            return "recovery: journal clean, nothing to repair"
        return (
            f"recovery: {self.rolled_back} rolled back / {self.replayed} replayed — "
            f"{self.containers_dropped} containers dropped, "
            f"{self.containers_deleted} deletions completed, "
            f"{self.index_keys_fixed} index keys fixed, "
            f"{self.migrations_rolled_back} volume migrations undone, "
            f"{self.volumes_dropped} volumes dropped, "
            f"{self.backups_purged} backups purged, "
            f"{self.cycles_resumed} GC cycles resumed"
        )


def _emit(disk, action: RecoveryAction) -> None:
    tracer = disk.tracer
    if tracer.enabled:
        tracer.emit(
            f"recovery.{action.action}",
            sim_time=disk.sim_time,
            fields={"kind": action.kind, **action.detail},
        )


def recover(store, index, recipes, hybrid=None) -> RecoveryReport:
    """Repair a container-based system (store + fingerprint index + recipes).

    ``hybrid`` is the service's :class:`~repro.dedup.hybrid.HybridState`
    when it runs in hybrid dedup mode — a replayed ``rededup`` intent must
    also restore the out-of-line bookkeeping (candidate set, pending-sweep
    queue, neighbor maps) that the interrupted slice would have updated.

    Safe to call on a healthy system: with an empty journal it is a no-op
    (and charges no simulated I/O either way — repairs only rewrite
    metadata or unlink containers).
    """
    journal: IntentJournal = store.journal
    report = RecoveryReport()
    disk = store.disk
    with disk.phase("recovery") as ph:
        # 1. Torn container writes: the I/O was charged but the write never
        #    journal-committed — the container content cannot be trusted.
        for rec in journal.open_records("container.write"):
            cid = rec.payload["container_id"]
            if cid in store:
                store.discard_container(cid)
            stale = [fp for fp, placement in index.items() if placement.container_id == cid]
            for fp in stale:
                index.discard(fp)
            report.containers_dropped += 1
            report.index_keys_fixed += len(stale)
            report.record(journal, rec, "rollback", container_id=cid, stale_keys=len(stale))
            _emit(disk, report.actions[-1])

        # 2. Open copy-forwards: destination not durably repointed — undo.
        #    Sources are only reclaimed after their copy-forward closes, so
        #    every source named here is still alive and repoint-back is safe.
        for rec in journal.open_records("copyforward"):
            dest = rec.payload["destination"]
            repointed = 0
            for move in rec.payload["moves"]:
                fp = move["fp"]
                if fp in index and index.get(fp).container_id == dest:
                    index.relocate(fp, move["source"])
                    repointed += 1
            if dest in store:
                store.discard_container(dest)
                report.containers_dropped += 1
            report.index_keys_fixed += repointed
            report.record(
                journal, rec, "rollback",
                destination=dest, moves=len(rec.payload["moves"]), repointed=repointed,
            )
            _emit(disk, report.actions[-1])

        # 3. Reclaims roll forward: the container's valid chunks were sealed
        #    and repointed before the intent began, so finishing the drop is
        #    always safe (and each step is idempotent).
        for rec in journal.records("reclaim"):
            cid = rec.payload["container_id"]
            for fp in rec.payload["invalid"]:
                index.discard(fp)
            if cid in store:
                store.delete_container(cid)
                report.containers_deleted += 1
            report.record(journal, rec, "replay", container_id=cid)
            _emit(disk, report.actions[-1])

        # 3½. Dangling keys: an ingest interrupted mid-stream inserted index
        #     entries for its writer's still-open container, which the crash
        #     destroyed before it ever reached the store.  No journal record
        #     names that container (it never reached its durable point), so
        #     scrub by scanning — without this, a later ingest could dedup
        #     against a dangling key and produce an unrestorable recipe.
        dangling = [
            fp for fp, placement in index.items() if placement.container_id not in store
        ]
        for fp in dangling:
            index.discard(fp)
        report.index_keys_fixed += len(dangling)

        # 3¾. Hybrid rededup slices roll forward: the ``gc.rededup`` crash
        #     point fires after the recipe repoints but before the index
        #     drop, and repointing is idempotent (a recipe that no longer
        #     references the duplicate is untouched) — so replaying the
        #     whole slice is always safe.  Each replayed (dup → canonical)
        #     swap is also applied to any open incremental cycle's
        #     live-reference barrier below: a mid-cycle ingest may have
        #     put the duplicate key under barrier protection, which must
        #     follow the repoint or the sweep reclaims the canonical copy.
        rededup_swaps = []
        if journal.records("rededup"):
            from repro.dedup.hybrid import repoint_recipe
            from repro.dedup.keys import logical_fp

            for rec in journal.records("rededup"):
                dup = rec.payload["dup"]
                canonical = rec.payload["canonical"]
                repointed = 0
                for backup_id in rec.payload["backups"]:
                    if repoint_recipe(recipes, backup_id, dup, canonical):
                        repointed += 1
                index.discard(dup)
                rededup_swaps.append((dup, canonical))
                container_id = rec.payload["container_id"]
                if hybrid is not None:
                    hybrid.candidates.pop(dup, None)
                    if container_id in store:
                        hybrid.pending_sweep.add(container_id)
                    fp = logical_fp(dup)
                    for neighbor_map in hybrid.neighbors.values():
                        if neighbor_map.get(fp) == dup:
                            neighbor_map[fp] = canonical
                    hybrid.coalesced += 1
                report.index_keys_fixed += 1
                report.record(
                    journal, rec, "replay",
                    dup=dup.hex(), canonical=canonical.hex(), repointed=repointed,
                )
                _emit(disk, report.actions[-1])

        # 4. The sweep round itself: open → aborted round (deleted recipes
        #    remain for the next GC); committed → finish the recipe purge.
        for rec in journal.open_records("sweep"):
            report.record(journal, rec, "rollback", round_index=rec.payload.get("round_index"))
            _emit(disk, report.actions[-1])
        for rec in journal.committed_records("sweep"):
            purged = recipes.purge_deleted()
            report.backups_purged += len(purged)
            report.record(
                journal, rec, "replay",
                round_index=rec.payload.get("round_index"), backups_purged=len(purged),
            )
            _emit(disk, report.actions[-1])

        # 5. Incremental GC cycles.  Committed → only the selective purge of
        #    the cycle's snapshot can be missing; finish it.  Open → repair
        #    the persistent cycle state in place and leave the intent open,
        #    so the engine *resumes* the cycle instead of restarting it.
        for rec in journal.committed_records("gc.cycle"):
            state = rec.payload["state"]
            purged = recipes.purge_deleted(only=state.deleted_ids)
            report.backups_purged += len(purged)
            report.record(
                journal, rec, "replay",
                round_index=state.round_index, backups_purged=len(purged),
            )
            _emit(disk, report.actions[-1])
        for rec in journal.open_records("gc.cycle"):
            state = rec.payload["state"]
            # Replayed rededup slices retarget barrier protection from the
            # coalesced duplicate key to its canonical copy (the crashed
            # slice would have done this itself; see rededup_slice).
            for dup, canonical in rededup_swaps:
                if dup in state.barrier_keys:
                    state.barrier_keys.discard(dup)
                    state.barrier_keys.add(canonical)
            # Moves whose repoint did not survive the crash (their
            # destination was rolled back above) must be re-migrated.
            stale_moves = [
                fp
                for fp, dest in state.migrated.items()
                if fp not in index or index.get(fp).container_id != dest
            ]
            for fp in stale_moves:
                del state.migrated[fp]
            # Drop the mark scan's probe memo — and nothing else of it.
            # Re-probing is idempotent (an id lands in the member set it
            # is already in), and no member can be stale: while a mark is
            # in flight the only index writers are whole ingests, which
            # insert new keys into new containers, and the rollback of a
            # torn one above, which removes only keys that ingest itself
            # inserted — before any later mark step could have probed them.
            if state.mark is not None:
                state.mark.resolved.clear()
            if state.phase in ("sweep", "finalize"):
                # Rewind the sweep frontier: already-reclaimed sources are
                # gone from the store, everything else re-partitions (the
                # copy-forward duplicate guard makes re-processing durable
                # moves free, and fully-valid sources are skipped).
                state.phase = "sweep"
                state.sweep_queue = [
                    cid for cid in state.sweep_queue if cid in store
                ]
                state.sweep_pos = 0
                state.segment_batches = [
                    batch
                    for batch in (
                        [cid for cid in b if cid in store]
                        for b in state.segment_batches
                    )
                    if batch
                ]
                state.segment_pos = 0
                state.requeue = [cid for cid in state.requeue if cid in store]
            state.dirty = True
            report.cycles_resumed += 1
            report.record(
                journal, rec, "resume",
                round_index=state.round_index,
                phase=state.phase,
                stale_moves=len(stale_moves),
            )
            _emit(disk, report.actions[-1])

        ph.annotate(
            rolled_back=report.rolled_back,
            replayed=report.replayed,
            containers_dropped=report.containers_dropped,
            index_keys_fixed=report.index_keys_fixed,
        )
    return report


def recover_mfdedup(volumes, recipes) -> RecoveryReport:
    """Repair an MFDedup system (volume store + recipes)."""
    journal: IntentJournal = volumes.journal
    report = RecoveryReport()
    disk = volumes.disk
    with disk.phase("recovery") as ph:
        # Crashed ingest: undo its volume migrations in reverse.  Partial
        # forward migration is the dangerous state — the next ingest would
        # look for volumes ending at the previous backup and miss chunks
        # already moved ahead, breaking the lifecycle chain.
        for rec in journal.open_records("mfdedup.ingest"):
            for move in reversed(rec.payload["migrates"]):
                volumes.rollback_migrate(move["source"], move["destination"], move["fps"])
                report.migrations_rolled_back += 1
            report.record(
                journal, rec, "rollback",
                backup_id=rec.payload.get("backup_id"),
                migrations=len(rec.payload["migrates"]),
            )
            _emit(disk, report.actions[-1])

        # Volume reorg rolls forward: ``drop_expired`` is idempotent for a
        # fixed ``oldest_live``, and the unlink write is re-charged only for
        # volumes actually dropped now.
        for rec in journal.records("volume.reorg"):
            dropped, dropped_bytes = volumes.drop_expired(rec.payload["oldest_live"])
            for _ in range(dropped):
                disk.write(4096)
            report.volumes_dropped += dropped
            report.record(
                journal, rec, "replay",
                oldest_live=rec.payload["oldest_live"],
                volumes_dropped=dropped,
                bytes_dropped=dropped_bytes,
            )
            _emit(disk, report.actions[-1])

        # Incremental MFDedup cycles roll *forward*: the selective purge is
        # idempotent and the volume drops were completed by the reorg replay
        # above, so finishing the cycle is always safe (the engine observes
        # its intent closed and starts the next cycle fresh).
        for rec in journal.records("gc.cycle"):
            state = rec.payload["state"]
            purged = recipes.purge_deleted(only=state.deleted_ids)
            report.backups_purged += len(purged)
            report.record(
                journal, rec, "replay",
                round_index=state.round_index, backups_purged=len(purged),
            )
            _emit(disk, report.actions[-1])

        ph.annotate(
            rolled_back=report.rolled_back,
            replayed=report.replayed,
            migrations_rolled_back=report.migrations_rolled_back,
            volumes_dropped=report.volumes_dropped,
        )
    return report


def recover_service(service) -> RecoveryReport:
    """Repair any backup service after a :class:`~repro.errors.SimulatedCrash`.

    Dispatches on the service's storage layout: a volume store means
    MFDedup, otherwise the container-based protocol applies.
    """
    if hasattr(service, "volumes"):
        return recover_mfdedup(service.volumes, service.recipes)
    return recover(
        service.store,
        service.index,
        service.recipes,
        hybrid=getattr(service, "hybrid", None),
    )
