"""Incremental, crash-recoverable GC (ROADMAP item 5).

Restructures the stop-the-world mark → analyze → copy-forward/sweep →
reclaim cycle of :class:`~repro.gc.engine.MarkSweepGC` into resumable,
budgeted increments so an always-on fleet can interleave collection with
foreground ingest/restore traffic:

* **Mark** proceeds ``mark_recipes`` recipes per step over snapshots of the
  deleted/live recipe populations taken when the cycle begins — the same
  interned-id-set kernel (:class:`~repro.gc.mark.MarkScan`) the
  stop-the-world mark drives in one go; this module owns no per-chunk loop.
* **Sweep** proceeds ``sweep_containers`` sources per step (classic scan
  order) or one GCCDF segment per step; the copy-forward writer is shared
  across increments, so destinations fill in per-destination slices exactly
  as in one uninterrupted sweep.
* **Reclaim** stays deferred behind the copy-forward seal protocol, with a
  *live-reference barrier*: chunks revived by an ingest interleaved after
  their source was partitioned are never invalidated — the source is
  re-queued and re-processed instead of reclaimed.

The whole cycle runs under one ``gc.cycle`` intent in the device's
:class:`~repro.faults.IntentJournal` whose payload *is* the persistent
:class:`GCCycleState` (mark scan, sweep frontier, copy-forward progress).
A crash at any increment boundary (the new ``gc.increment`` crash point)
recovers to a verifier-clean state — recovery repairs the cycle state in
place and leaves the intent **open**, so the cycle *resumes* from the
journal rather than restarting; a crash after the cycle committed rolls the
final selective purge forward.

A *drained* cycle (``collect()``, which runs every increment back to back)
performs the byte-identical read/write sequence of the stop-the-world
engine and returns a counter-identical :class:`~repro.gc.report.GCReport` —
the equivalence ``tests/test_incremental_gc.py::TestDrainedEquivalence``
pins for every approach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.dedup.hybrid import HybridState, forced_containers, rededup_slice
from repro.errors import ConfigError, GCError
from repro.gc.mark import RECIPE_ENTRY_BYTES, MarkResult, MarkScan
from repro.gc.migration import (
    JournaledCopyForward,
    MigrationResult,
    MigrationStrategy,
    NaiveMigration,
    SweepContext,
    partition,
    partition_members,
    sweep_source,
)
from repro.gc.report import GCReport
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class GCBudget:
    """Per-increment work budgets (the kv-emulator ``max_rounds`` shape)."""

    #: Recipes scanned per mark step.
    mark_recipes: int = 8
    #: Source containers examined per classic sweep step (GCCDF instead
    #: processes one ``segment_size`` segment per step).
    sweep_containers: int = 4
    #: Expired volumes unlinked per MFDedup reorg step.
    mfdedup_volumes: int = 4
    #: Deferred-duplicate candidates coalesced per hybrid rededup step.
    rededup_keys: int = 8

    def __post_init__(self) -> None:
        for name in (
            "mark_recipes",
            "sweep_containers",
            "mfdedup_volumes",
            "rededup_keys",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"GCBudget.{name} must be >= 1")


@dataclass
class GCCycleState:
    """Persistent state of one incremental cycle.

    Lives as the (mutable) payload of the cycle's open ``gc.cycle`` journal
    intent — the NVRAM model — so it survives a crash verbatim and carries
    the mark scan, sweep frontier, and copy-forward progress across
    increments and across recovery.
    """

    round_index: int
    #: (``rededup`` →) ``mark`` → ``sweep`` → ``finalize``; the cycle
    #: completes out of ``finalize`` (the intent commits, the selective
    #: purge runs).  The rededup phase only exists for hybrid-dedup
    #: services with deferred candidates at cycle start.
    phase: str = "mark"
    # -- hybrid rededup frontier ---------------------------------------
    #: Deferred-duplicate candidate keys pinned (sorted) at cycle start;
    #: processed ``budget.rededup_keys`` per step before the mark begins.
    rededup_queue: list = field(default_factory=list)
    rededup_pos: int = 0
    #: Recipe-population snapshots taken when the cycle began.  Recipes
    #: deleted after the snapshot wait for the next cycle; recipes ingested
    #: after it are protected by the live-reference barrier.
    deleted_ids: list[int] = field(default_factory=list)
    live_ids: list[int] = field(default_factory=list)
    # -- mark frontier -------------------------------------------------
    #: 0 = deleted-recipe pass, 1 = live-recipe pass.
    mark_pass: int = 0
    mark_pos: int = 0
    #: The resumable scan (candidate/live id sets, GS set, RRT, probe
    #: memo); exists from the start of the mark phase until it completes.
    #: Recovery clears its probe memo only.
    mark: MarkScan | None = None
    #: Keys referenced by recipes ingested while the mark was in flight;
    #: folded into the VC table when the mark completes.
    barrier_keys: set = field(default_factory=set)
    mark_seconds: float = 0.0
    mark_result: MarkResult | None = None
    # -- sweep frontier ------------------------------------------------
    #: Classic sweep: GS-list source ids, processed in order.
    sweep_queue: list = field(default_factory=list)
    sweep_pos: int = 0
    #: GCCDF: reclaimable container ids grouped by segment; one batch per
    #: step (contents are re-partitioned at processing time — metadata
    #: only, identical when drained).
    segment_batches: list = field(default_factory=list)
    segment_pos: int = 0
    segments_done: int = 0
    #: Sources whose reclaim found revived chunks (live-reference barrier);
    #: re-processed before the cycle may complete.
    requeue: list = field(default_factory=list)
    # -- copy-forward progress -----------------------------------------
    #: fp → destination id, durable only once the destination sealed;
    #: recovery scrubs entries whose repoint did not survive.
    migrated: dict = field(default_factory=dict)
    #: Destinations sealed so far (the writer is rebuilt after a crash, so
    #: its own committed list cannot be trusted across increments).
    produced_ids: list = field(default_factory=list)
    sweep_result: MigrationResult = field(default_factory=MigrationResult)
    analyze_ops: int = 0
    sweep_read_seconds: float = 0.0
    sweep_write_seconds: float = 0.0
    #: Increment boundaries crossed (context for the crash point).
    steps: int = 0
    #: Set by recovery: transient runners (sweep context, copy-forward
    #: writer, GCCDF analyzer state) must be rebuilt before the next step.
    dirty: bool = False


class _CycleCopyForward(JournaledCopyForward):
    """Copy-forward writer whose durable progress lives in the cycle state.

    The duplicate guard and result accounting alias :class:`GCCycleState`
    fields so they survive writer rebuilds, sealed destinations are recorded
    in the state, and reclaims honour the live-reference barrier: a source
    holding chunks revived since it was partitioned is re-queued instead of
    reclaimed (reclaiming would discard index keys a live recipe now needs).
    """

    def __init__(self, ctx: SweepContext, state: GCCycleState):
        super().__init__(ctx)
        self._state = state
        self._migrated = state.migrated
        self.result = state.sweep_result

    def _on_seal(self, container) -> None:
        super()._on_seal(container)
        self._state.produced_ids.append(container.container_id)

    def _reclaim(self, container_id, invalid_fps, invalid_bytes) -> None:
        # Live-reference barrier: an interleaved ingest may have revived a
        # chunk that was invalid when this source was partitioned.  The VC
        # table only ever grows, so re-checking here is sufficient — and in
        # a drained cycle it never fires (nothing is interleaved).  Same
        # predicate as ``partition_members``: a key the index no longer
        # holds (a coalesced hybrid duplicate) is dead whatever the table
        # says — without the guard such a key re-queues its source forever.
        vc_table, index = self.ctx.mark.vc_table, self.ctx.index
        if any(fp in vc_table and fp in index for fp in invalid_fps):
            self._state.requeue.append(container_id)
            return
        super()._reclaim(container_id, invalid_fps, invalid_bytes)


class IncrementalGC:
    """Budgeted, resumable mark–sweep GC for container-based services.

    Duck-types :class:`~repro.gc.engine.MarkSweepGC` (``collect()`` /
    ``history``) and adds the incremental surface: :meth:`begin`,
    :meth:`step`, :attr:`active`, :meth:`pending`, and :meth:`should_run`
    (the kv-emulator-style utilization trigger).
    """

    def __init__(
        self,
        config: SystemConfig,
        store: ContainerStore,
        index: FingerprintIndex,
        recipes: RecipeStore,
        disk: DiskModel,
        migration: MigrationStrategy | None = None,
        budget: GCBudget | None = None,
        hybrid: HybridState | None = None,
    ):
        self.config = config
        self.store = store
        self.index = index
        self.recipes = recipes
        self.disk = disk
        self.migration = migration or NaiveMigration()
        self.budget = budget or GCBudget()
        self.hybrid = hybrid
        self._rounds = 0
        self.history: list[GCReport] = []
        self._record = None
        self._state: GCCycleState | None = None
        #: Transient per-cycle runners, rebuilt when the state is dirty.
        self._ctx: SweepContext | None = None
        self._cf: _CycleCopyForward | None = None
        self._analyze_stage = None

    # ------------------------------------------------------------------
    # Trigger / lifecycle
    # ------------------------------------------------------------------

    @property
    def journal(self):
        return self.store.journal

    @property
    def active(self) -> bool:
        """A cycle is in flight (its ``gc.cycle`` intent is open)."""
        self._sync()
        return self._record is not None

    def pending(self) -> int:
        """Logically deleted backups awaiting collection."""
        return len(self.recipes.deleted_ids())

    def should_run(self, trigger: int = 1) -> bool:
        """Utilization trigger: an in-flight cycle, or enough garbage."""
        return self.active or self.pending() >= trigger

    def begin(self) -> None:
        """Open a cycle: snapshot the recipe populations, journal the state.

        No-op when a cycle is already in flight.
        """
        self._sync()
        if self._record is not None:
            return
        state = GCCycleState(
            round_index=self._rounds,
            deleted_ids=self.recipes.deleted_ids(),
            live_ids=self.recipes.live_ids(),
        )
        if self.hybrid is not None:
            # Pin the candidate set (sorted — the stop-the-world drain
            # order, so both engines charge identical I/O in identical
            # order).  With nothing deferred the phase is skipped
            # entirely, but coalesced containers from a recovered slice
            # still reach the mark's GS list.
            state.rededup_queue = sorted(self.hybrid.candidates)
        if state.rededup_queue:
            state.phase = "rededup"
        else:
            self._start_mark(state)
        self._state = state
        self._record = self.journal.begin("gc.cycle", state=state)

    def collect(self) -> GCReport:
        """Drain a full cycle (resuming an in-flight one first).

        The stop-the-world-compatible entry point: performs the
        byte-identical I/O sequence of ``MarkSweepGC.collect()`` when no
        traffic is interleaved.  Nothing can revive a chunk while it
        drains, so a finalize → sweep bounce that re-queues the same
        sources twice with nothing reclaimed in between would repeat
        forever: that raises :class:`~repro.errors.GCError` instead.
        """
        self._sync()
        if self._record is None:
            self.begin()
        state = self._state
        last_bounce = None
        while True:
            finalizing = state.phase == "finalize"
            report = self.step()
            if report is not None:
                return report
            if finalizing:  # no report: finalize bounced back to the sweep
                bounce = (sorted(state.requeue), len(state.sweep_result.reclaimed_ids))
                if bounce == last_bounce:
                    raise GCError(
                        f"GC cycle {state.round_index} cannot drain: sources "
                        f"{bounce[0]} are re-queued again with nothing reclaimed"
                    )
                last_bounce = bounce

    def step(self) -> GCReport | None:
        """Run one budgeted increment; returns the report when the cycle
        completes, else ``None`` after firing the ``gc.increment`` boundary
        crash point."""
        self._sync()
        if self._record is None:
            return None
        state = self._state
        if state.dirty:
            self._reset_runners(state)
        if state.phase == "rededup":
            self._rededup_increment(state)
        elif state.phase == "mark":
            self._mark_increment(state)
        elif state.phase == "sweep":
            self._sweep_increment(state)
        else:
            report = self._finalize(state)
            if report is not None:
                return report
        self._boundary(state)
        return None

    def note_live_references(self, fps) -> None:
        """Live-reference barrier: record keys of a recipe ingested while a
        cycle is in flight, so the sweep never invalidates them."""
        if self._record is None:
            return
        state = self._state
        if state.mark_result is None:
            state.barrier_keys.update(fps)
        else:
            state.mark_result.vc_table.update(fps)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        """Reattach after recovery: if recovery rolled the committed cycle
        forward (purge replayed, intent closed), drop it without a report —
        exactly the stop-the-world outcome of a crash at ``gc.purge``
        (``_rounds`` is not advanced; the next cycle reuses the index)."""
        if self._record is None:
            return
        if not any(rec is self._record for rec in self.journal.records("gc.cycle")):
            self._record = None
            self._state = None
            self._ctx = None
            self._cf = None
            self._analyze_stage = None

    def _boundary(self, state: GCCycleState) -> None:
        state.steps += 1
        self.disk.crash_point(
            "gc.increment",
            round_index=state.round_index,
            phase=state.phase,
            step=state.steps,
        )

    def _reset_runners(self, state: GCCycleState) -> None:
        self._ctx = None
        self._cf = None
        self._analyze_stage = None
        state.dirty = False

    @property
    def _is_gccdf(self) -> bool:
        return getattr(self.migration, "name", "") == "gccdf"

    def _ensure_runners(self, state: GCCycleState) -> None:
        if self._ctx is None:
            ctx = SweepContext(
                config=self.config,
                store=self.store,
                index=self.index,
                recipes=self.recipes,
                disk=self.disk,
                mark=state.mark_result,
            )
            ctx.analyze_ops = state.analyze_ops
            self._ctx = ctx
            self._cf = _CycleCopyForward(ctx, state)
        if self._is_gccdf and self._analyze_stage is None:
            # Imported lazily: repro.core pulls in the whole GCCDF pipeline,
            # which this module only needs for that one strategy.
            from repro.core.gccdf import AnalyzeStage

            self._analyze_stage = AnalyzeStage(
                self.recipes,
                self.config.gccdf,
                DeterministicRng(getattr(self.migration, "_seed", 0)).fork(
                    "round", state.round_index
                ),
            )

    # -- hybrid rededup ------------------------------------------------

    def _rededup_increment(self, state: GCCycleState) -> None:
        """Coalesce up to ``budget.rededup_keys`` deferred duplicates.

        Each slice runs the same journaled protocol as the stop-the-world
        pass (:func:`~repro.dedup.hybrid.rededup_slice`), with the cycle's
        live-reference barrier threaded through so a coalesce retargets
        barrier protection from the duplicate key to the canonical one.
        When the queue drains, the containers that held coalesced copies
        seed the mark's GS set and the cycle proceeds to the mark phase.
        """
        hybrid = self.hybrid
        queue = state.rededup_queue
        remaining = self.budget.rededup_keys
        coalesced_before = hybrid.coalesced
        with self.disk.phase("gc.rededup") as ph:
            while remaining > 0 and state.rededup_pos < len(queue):
                key = queue[state.rededup_pos]
                state.rededup_pos += 1
                remaining -= 1
                rededup_slice(
                    key,
                    state=hybrid,
                    index=self.index,
                    recipes=self.recipes,
                    journal=self.journal,
                    disk=self.disk,
                    barrier=state.barrier_keys,
                )
            ph.annotate(
                round_index=state.round_index,
                rededup_pos=state.rededup_pos,
                coalesced=hybrid.coalesced - coalesced_before,
                pending=len(hybrid.candidates),
            )
        if state.rededup_pos >= len(queue):
            self._start_mark(state)

    # -- mark ----------------------------------------------------------

    def _start_mark(self, state: GCCycleState) -> None:
        hybrid = self.hybrid
        extra_gs = forced_containers(hybrid, self.store) if hybrid is not None else ()
        state.mark = MarkScan(self.config, self.index, self.recipes, extra_gs)
        state.phase = "mark"

    def _mark_increment(self, state: GCCycleState) -> None:
        """Scan up to ``budget.mark_recipes`` recipes of the cycle snapshot.

        Drives the cycle's :class:`~repro.gc.mark.MarkScan` exactly as
        :class:`~repro.gc.mark.MarkStage` does — same recipe order, same
        reads, one index probe per unique key across both passes, the
        ``gc.mark`` crash point between them — so a drained cycle is read-
        and probe-identical to the stop-the-world mark.
        """
        scan = state.mark
        remaining = self.budget.mark_recipes
        with self.disk.phase("gc.mark") as ph:
            while remaining > 0:
                snapshot = state.live_ids if state.mark_pass else state.deleted_ids
                batch = snapshot[state.mark_pos : state.mark_pos + remaining]
                if batch:
                    recipes = [self.recipes.get(backup_id) for backup_id in batch]
                    for recipe in recipes:
                        self.disk.read(recipe.num_chunks * RECIPE_ENTRY_BYTES)
                    (scan.scan_live if state.mark_pass else scan.scan_deleted)(recipes)
                    state.mark_pos += len(batch)
                    remaining -= len(batch)
                elif state.mark_pass == 0:
                    # Deleted pass complete (re-entry after a crash here
                    # just fires the point again: nothing was mutated).
                    self.disk.crash_point(
                        "gc.mark", gs_containers=len(scan.gs_members)
                    )
                    state.mark_pass = 1
                    state.mark_pos = 0
                else:
                    self._complete_mark(state)
                    break
            ph.annotate(
                round_index=state.round_index,
                mark_pass=state.mark_pass,
                mark_pos=state.mark_pos,
            )
        state.mark_seconds += ph.delta.read_seconds

    def _complete_mark(self, state: GCCycleState) -> None:
        # mark_seconds accumulates in the state, not the result.  Barrier
        # keys join the VC table only: ``live_ids`` need only be a *subset*
        # of the table's membership.
        mark = state.mark_result = state.mark.finish()
        mark.vc_table.update(state.barrier_keys)
        state.barrier_keys.clear()
        state.mark = None  # must not outlive the mark: the sweep moves chunks
        state.phase = "sweep"
        self._prepare_sweep(state)

    def _prepare_sweep(self, state: GCCycleState) -> None:
        mark = state.mark_result
        if self._is_gccdf:
            # Pin reclaimable ids into segment batches (the Preprocessor's
            # work list, ids only); contents re-partition at processing time.
            parts = (
                partition_members(self.store, self.index, self.recipes, mark, cid)
                for cid in mark.gs_list
            )
            work = [
                cid for cid, part in zip(mark.gs_list, parts) if part.invalid_bytes > 0
            ]
            size = self.config.gccdf.segment_size
            state.segment_batches = [
                work[start : start + size] for start in range(0, len(work), size)
            ]
            state.segment_pos = 0
        else:
            state.sweep_queue = list(mark.gs_list)
            state.sweep_pos = 0

    # -- sweep ---------------------------------------------------------

    def _sweep_increment(self, state: GCCycleState) -> None:
        self._ensure_runners(state)
        if state.requeue:
            # Sources deferred by the live-reference barrier re-enter the
            # work list (as their own GCCDF batches — re-analysis is cheap
            # and the segment cache stays bounded).
            if self._is_gccdf:
                state.segment_batches.extend([cid] for cid in state.requeue)
            else:
                state.sweep_queue.extend(state.requeue)
            state.requeue = []
        if self._is_gccdf:
            if state.segment_pos < len(state.segment_batches):
                self._gccdf_segment_step(state)
            done = state.segment_pos >= len(state.segment_batches)
        else:
            self._naive_sweep_step(state)
            done = state.sweep_pos >= len(state.sweep_queue)
        if done:
            state.phase = "finalize"

    def _naive_sweep_step(self, state: GCCycleState) -> None:
        ctx, copy_forward = self._ctx, self._cf
        queue = state.sweep_queue
        remaining = self.budget.sweep_containers
        with self.disk.phase("gc.sweep") as ph:
            while remaining > 0 and state.sweep_pos < len(queue):
                container_id = queue[state.sweep_pos]
                state.sweep_pos += 1
                remaining -= 1
                if container_id not in self.store:
                    continue  # reclaimed before a crash; nothing left here
                part = partition(ctx, container_id)
                if part.invalid_bytes == 0:
                    continue  # involved but fully valid: nothing to reclaim
                sweep_source(copy_forward, ctx, container_id, part)
            ph.annotate(round_index=state.round_index, sweep_pos=state.sweep_pos)
        state.sweep_read_seconds += ph.delta.read_seconds
        state.sweep_write_seconds += ph.delta.write_seconds

    def _gccdf_segment_step(self, state: GCCycleState) -> None:
        """One GCCDF segment: read + cache → analyze → reordered write →
        schedule reclaims, over whichever of the pinned batch's containers
        are still reclaimable (``GCCDFMigration.migrate``'s per-segment
        body, on the shared ``AnalyzeStage``)."""
        # Lazy for the same reason as in ``_ensure_runners``.
        from repro.core.gccdf import Preprocessor, migrate_segment

        ctx = self._ctx
        segment_index = state.segment_pos
        state.segment_pos += 1
        with self.disk.phase("gc.sweep") as ph:
            segment = Preprocessor(ctx).build_segment(
                segment_index, state.segment_batches[segment_index]
            )
            if segment.container_ids:
                migrate_segment(ctx, self._cf, self._analyze_stage, segment)
                state.segments_done += 1
            ph.annotate(round_index=state.round_index, segment_index=segment_index)
        state.analyze_ops = ctx.analyze_ops
        state.sweep_read_seconds += ph.delta.read_seconds
        state.sweep_write_seconds += ph.delta.write_seconds

    # -- finalize ------------------------------------------------------

    def _finalize(self, state: GCCycleState) -> GCReport | None:
        self._ensure_runners(state)
        ctx, copy_forward = self._ctx, self._cf
        with self.disk.phase("gc.sweep") as ph:
            copy_forward.finish()
        state.sweep_read_seconds += ph.delta.read_seconds
        state.sweep_write_seconds += ph.delta.write_seconds
        if state.requeue:
            # The final drain deferred sources with revived chunks: one more
            # sweep round for them before the cycle may complete.
            state.phase = "sweep"
            return None

        result = state.sweep_result
        result.produced_ids = list(state.produced_ids)
        state.analyze_ops = ctx.analyze_ops
        if self._is_gccdf:
            parallelism = min(
                getattr(self.migration, "parallel_workers", 1),
                max(1, state.segments_done),
            )
        else:
            parallelism = 1
        analyze_seconds = (
            state.analyze_ops * self.config.gccdf.analyze_op_cost / max(1, parallelism)
        )
        tracer = self.disk.tracer
        if tracer.enabled:
            tracer.emit(
                "gc.analyze",
                sim_time=self.disk.sim_time,
                duration=analyze_seconds,
                fields={
                    "round_index": state.round_index,
                    "analyze_ops": state.analyze_ops,
                    "parallelism": parallelism,
                },
            )

        self.journal.commit(self._record)
        self.disk.crash_point("gc.purge", round_index=state.round_index)
        purged = self.recipes.purge_deleted(only=state.deleted_ids)
        self.journal.close(self._record)
        if tracer.enabled:
            tracer.emit(
                "gc.purge",
                sim_time=self.disk.sim_time,
                fields={
                    "round_index": state.round_index,
                    "backups_purged": len(purged),
                },
            )

        report = GCReport(
            round_index=state.round_index,
            backups_purged=len(purged),
            involved_containers=len(state.mark_result.gs_list),
            reclaimed_containers=len(result.reclaimed_ids),
            produced_containers=len(result.produced_ids),
            migrated_bytes=result.migrated_bytes,
            reclaimed_bytes=result.reclaimed_bytes,
            migrated_chunks=result.migrated_chunks,
            mark_seconds=state.mark_seconds,
            analyze_seconds=analyze_seconds,
            sweep_read_seconds=state.sweep_read_seconds,
            sweep_write_seconds=state.sweep_write_seconds,
        )
        self._rounds = state.round_index + 1
        self.history.append(report)
        self._record = None
        self._state = None
        self._ctx = None
        self._cf = None
        self._analyze_stage = None
        return report


@dataclass
class MFCycleState:
    """Persistent state of one incremental MFDedup reorg cycle."""

    round_index: int
    deleted_ids: list = field(default_factory=list)
    purged: int = 0
    oldest_live: int | None = None
    volumes_dropped: int = 0
    bytes_dropped: int = 0
    steps: int = 0


class IncrementalMFDedupGC:
    """Budgeted deletion-only GC for MFDedup (volume reorg in slices).

    Same surface as :class:`IncrementalGC`.  Recovery rolls an interrupted
    cycle **forward** (the ``volume.reorg`` replay already drops every
    expired volume, and the selective purge is idempotent), so after a crash
    the engine simply observes its intent closed and drops the cycle.
    """

    def __init__(self, service, budget: GCBudget | None = None):
        self.service = service
        self.budget = budget or GCBudget()
        self._rounds = 0
        self.history: list[GCReport] = []
        self._record = None
        self._reorg = None
        self._state: MFCycleState | None = None

    @property
    def journal(self):
        return self.service.volumes.journal

    @property
    def active(self) -> bool:
        self._sync()
        return self._record is not None

    def pending(self) -> int:
        return len(self.service.recipes.deleted_ids())

    def should_run(self, trigger: int = 1) -> bool:
        return self.active or self.pending() >= trigger

    def begin(self) -> None:
        self._sync()
        if self._record is not None:
            return
        state = MFCycleState(
            round_index=self._rounds,
            deleted_ids=self.service.recipes.deleted_ids(),
        )
        self._state = state
        self._record = self.journal.begin("gc.cycle", state=state)
        self._reorg = None

    def collect(self) -> GCReport:
        self._sync()
        if self._record is None:
            self.begin()
        while True:
            report = self.step()
            if report is not None:
                return report

    def step(self) -> GCReport | None:
        self._sync()
        if self._record is None:
            return None
        service = self.service
        state = self._state
        with service.disk.phase("gc.purge") as ph:
            if self._reorg is None:
                purged = service.recipes.purge_deleted(only=state.deleted_ids)
                state.purged = len(purged)
                live = service.recipes.live_ids()
                state.oldest_live = (
                    live[0] if live else service._next_unseen_id()
                )
                self._reorg = self.journal.begin(
                    "volume.reorg", oldest_live=state.oldest_live
                )
                service.disk.crash_point(
                    "mfdedup.reorg", oldest_live=state.oldest_live
                )
            dropped, bytes_dropped = service.volumes.drop_expired(
                state.oldest_live, limit=self.budget.mfdedup_volumes
            )
            for _ in range(dropped):
                service.disk.write(4096)
            state.volumes_dropped += dropped
            state.bytes_dropped += bytes_dropped
            remaining = service.volumes.expired_count(state.oldest_live)
            ph.annotate(
                backups_purged=state.purged,
                volumes_dropped=dropped,
                bytes_dropped=bytes_dropped,
                sweep_write_seconds=dropped * service.config.disk.seek_time,
            )
            if remaining:
                state.steps += 1
                service.disk.crash_point(
                    "gc.increment",
                    round_index=state.round_index,
                    phase="reorg",
                    step=state.steps,
                )
                return None
            self.journal.commit(self._reorg)
            self.journal.close(self._reorg)
            self.journal.commit(self._record)
            self.journal.close(self._record)

        container_equivalents = -(
            -state.bytes_dropped // service.config.container_size
        )
        report = GCReport(
            round_index=state.round_index,
            backups_purged=state.purged,
            involved_containers=container_equivalents,
            reclaimed_containers=container_equivalents,
            produced_containers=0,
            migrated_bytes=0,
            reclaimed_bytes=state.bytes_dropped,
            migrated_chunks=0,
            mark_seconds=0.0,
            analyze_seconds=0.0,
            sweep_read_seconds=0.0,
            sweep_write_seconds=state.volumes_dropped
            * service.config.disk.seek_time,
        )
        self._rounds = state.round_index + 1
        self.history.append(report)
        self._record = None
        self._reorg = None
        self._state = None
        return report

    def note_live_references(self, fps) -> None:
        """MFDedup needs no barrier: its GC never invalidates chunks of
        backups newer than ``oldest_live`` (pinned at cycle start)."""

    def _sync(self) -> None:
        if self._record is None:
            return
        if not any(rec is self._record for rec in self.journal.records("gc.cycle")):
            # Recovery rolled the cycle forward to completion.
            self._rounds = max(self._rounds, self._state.round_index + 1)
            self._record = None
            self._reorg = None
            self._state = None
