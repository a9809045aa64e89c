"""The mark–sweep GC engine.

Orchestrates one collection: mark → (strategy-owned analyze) → sweep →
purge deleted recipes, attributing cost to the four stages of the paper's
Fig. 14 breakdown.  The engine is strategy-agnostic; GCCDF is "just" a
different :class:`~repro.gc.migration.MigrationStrategy` (§3.2's whole point:
defragmentation piggybacks on the migration GC already performs).
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.dedup.hybrid import HybridState, forced_containers, run_rededup
from repro.gc.mark import MarkStage
from repro.gc.migration import MigrationStrategy, NaiveMigration, SweepContext
from repro.gc.report import GCReport
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.store import ContainerStore


class MarkSweepGC:
    """Runs mark–sweep collections with a pluggable migration strategy."""

    def __init__(
        self,
        config: SystemConfig,
        store: ContainerStore,
        index: FingerprintIndex,
        recipes: RecipeStore,
        disk: DiskModel,
        migration: MigrationStrategy | None = None,
        hybrid: HybridState | None = None,
    ):
        self.config = config
        self.store = store
        self.index = index
        self.recipes = recipes
        self.disk = disk
        self.migration = migration or NaiveMigration()
        self.hybrid = hybrid
        self._rounds = 0
        self.history: list[GCReport] = []

    def collect(self) -> GCReport:
        """Run one full collection and purge logically deleted recipes.

        The round runs under a ``sweep`` intent: open until migration has
        fully completed (all copy-forwards sealed, all reclaims durable),
        committed before the recipe purge, closed after it.  A crash with
        the intent open aborts the round (deleted recipes remain for the
        next GC); committed, recovery finishes the purge.

        In hybrid dedup mode the round opens with the rededup pass
        (:func:`~repro.dedup.hybrid.run_rededup`): deferred duplicates are
        coalesced under their own journaled intents, and the containers
        that held the duplicate copies are force-fed into the mark's GS
        list so this round's sweep reclaims their bytes.
        """
        tracer = self.disk.tracer
        round_intent = self.store.journal.begin("sweep", round_index=self._rounds)
        extra_gs: frozenset[int] | set[int] = frozenset()
        if self.hybrid is not None:
            run_rededup(
                self.hybrid,
                index=self.index,
                recipes=self.recipes,
                journal=self.store.journal,
                disk=self.disk,
            )
            extra_gs = forced_containers(self.hybrid, self.store)
        mark_stage = MarkStage(
            self.config, self.index, self.recipes, self.disk, extra_gs=extra_gs
        )
        mark = mark_stage.run()

        ctx = SweepContext(
            config=self.config,
            store=self.store,
            index=self.index,
            recipes=self.recipes,
            disk=self.disk,
            mark=mark,
        )
        with self.disk.phase("gc.sweep") as sweep:
            result = self.migration.migrate(ctx)
            sweep.annotate(
                round_index=self._rounds,
                involved_containers=len(mark.gs_list),
                reclaimed_containers=len(result.reclaimed_ids),
                produced_containers=len(result.produced_ids),
                migrated_bytes=result.migrated_bytes,
                migrated_chunks=result.migrated_chunks,
                reclaimed_bytes=result.reclaimed_bytes,
            )

        analyze_seconds = (
            ctx.analyze_ops
            * self.config.gccdf.analyze_op_cost
            / max(1, ctx.analyze_parallelism)
        )
        if tracer.enabled:
            # The analyze stage is CPU work charged in simulated seconds
            # (ops × modelled per-op cost), so it is emitted directly rather
            # than through a disk phase.
            tracer.emit(
                "gc.analyze",
                sim_time=self.disk.sim_time,
                duration=analyze_seconds,
                fields={
                    "round_index": self._rounds,
                    "analyze_ops": ctx.analyze_ops,
                    "parallelism": ctx.analyze_parallelism,
                },
            )

        self.store.journal.commit(round_intent)
        self.disk.crash_point("gc.purge", round_index=self._rounds)
        purged = self.recipes.purge_deleted()
        self.store.journal.close(round_intent)
        if tracer.enabled:
            tracer.emit(
                "gc.purge",
                sim_time=self.disk.sim_time,
                fields={"round_index": self._rounds, "backups_purged": len(purged)},
            )

        report = GCReport(
            round_index=self._rounds,
            backups_purged=len(purged),
            involved_containers=len(mark.gs_list),
            reclaimed_containers=len(result.reclaimed_ids),
            produced_containers=len(result.produced_ids),
            migrated_bytes=result.migrated_bytes,
            reclaimed_bytes=result.reclaimed_bytes,
            migrated_chunks=result.migrated_chunks,
            mark_seconds=mark.mark_seconds,
            analyze_seconds=analyze_seconds,
            sweep_read_seconds=sweep.delta.read_seconds,
            sweep_write_seconds=sweep.delta.write_seconds,
        )
        self._rounds += 1
        self.history.append(report)
        return report
