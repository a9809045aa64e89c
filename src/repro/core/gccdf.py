"""GCCDF as a migration strategy (paper §5.1, Fig. 7).

``GCCDFMigration`` plugs between the GC mark and sweep stages and runs, per
segment: Preprocessor (sweep-read into the GC cache) → Analyzer (ownership
clustering) → Planner (migration order) → sweep-write in the reordered
sequence.  Only the Analyzer/Planner work is new CPU cost (charged to the
``analyze`` stage of the Fig. 14 breakdown); all I/O is the migration classic
GC performs anyway — the paper's piggybacking argument.

One deliberate implementation choice: the container writer is shared across
segments, so a container may absorb the tail of one segment and the head of
the next instead of sealing underfilled containers at every segment
boundary.  This strictly reduces produced containers and matches the paper's
"fill [clusters] sequentially into the containers" description.

The sweep-write drains each segment as one batched column (the planner's
reordered sequence plus a bulk source lookup against the index's placement
map) through :meth:`JournaledCopyForward.migrate_batch`; payload-carrying
(byte-level) segments go chunk by chunk.  Reclaim data comes from the
partitions the segment already carries.  :func:`migrate_segment` is that
per-segment body, shared by this strategy and the incremental engine.
"""

from __future__ import annotations

from repro.config import GCCDFConfig
from repro.core.analyzer import Analyzer, ReferenceChecker
from repro.core.planner import MigrationOrder, Planner
from repro.core.preprocessor import Preprocessor, Segment
from repro.gc.migration import (
    JournaledCopyForward,
    MigrationResult,
    SweepContext,
)
from repro.util.rng import DeterministicRng


class AnalyzeStage:
    """One GC round's Analyzer + Planner, shared by both GC engines.

    :meth:`order` is the whole ``analyze`` stage of Fig. 14 for one segment:
    its simulated cost goes to ``ctx.analyze_ops`` as *operation counts*
    under the paper's cost model — reference-structure builds + membership
    probes + packing comparisons + the migration-order construction —
    whichever kernel did the work.
    """

    def __init__(self, recipes, config: GCCDFConfig, rng: DeterministicRng):
        self.checker = ReferenceChecker(recipes, config)
        self.analyzer = Analyzer(self.checker, config)
        self.planner = Planner(config, rng=rng)

    def order(
        self,
        ctx: SweepContext,
        valid_chunks,
        involved_backups: tuple[int, ...],
        valid_ids: list[int],
    ) -> MigrationOrder:
        builds_before = self.checker.build_ops
        clusters = self.analyzer.cluster(
            valid_chunks, involved_backups, valid_ids=valid_ids
        )
        order = self.planner.plan(clusters, involved_backups)
        ctx.analyze_ops += (
            (self.checker.build_ops - builds_before)
            + self.analyzer.last_probe_count
            + order.num_clusters * order.num_clusters
            + order.num_chunks
        )
        return order


def migrate_segment(
    ctx: SweepContext,
    copy_forward: JournaledCopyForward,
    stage: AnalyzeStage,
    segment: Segment,
) -> MigrationOrder:
    """One segment: analyze → reordered sweep-write → schedule reclaims."""
    # Analyze: cluster by ownership, then pack (CPU time, Fig. 14).
    order = stage.order(
        ctx, segment.valid_chunks, segment.involved_backups, segment.valid_ids
    )

    # Sweep-write: drain the GC cache in the reordered sequence.  The
    # chunk's current placement names its source container — still correct
    # here, because repointing happens only when a destination seals, and
    # every fp belongs to exactly one not-yet-reclaimed source.
    sequence = order.sequence
    if not segment.payloads:
        placements = ctx.index.placements_map()
        copy_forward.migrate_batch(
            sequence,
            [ref.fp for ref in sequence],
            [ref.size for ref in sequence],
            [placements[ref.fp].container_id for ref in sequence],
        )
    else:
        for ref in sequence:
            source_id = ctx.index.get(ref.fp).container_id
            copy_forward.migrate_chunk(ref, segment.payloads.get(ref.fp), source_id)

    # Mid-migration abort point: the segment's chunks sit in the (possibly
    # still open) destination, its sources untouched.
    ctx.disk.crash_point(
        "gccdf.segment",
        segment_index=segment.index,
        containers=len(segment.container_ids),
    )

    # Schedule the segment's old containers for reclaim; deletion becomes
    # durable only after their chunks seal and repoint.  Validity has not
    # moved since the segment was partitioned — a drained round never
    # changes it, and an incremental step builds its segment within the
    # step — so those partitions are the reclaim data; revivals *between*
    # incremental steps are the reclaim barrier's to catch.
    for reclaim in segment.reclaims:
        copy_forward.schedule_reclaim(*reclaim)

    tracer = ctx.disk.tracer
    if tracer.enabled:
        tracer.emit(
            "gc.segment",
            sim_time=ctx.disk.sim_time,
            fields={
                "containers": len(segment.container_ids),
                "clusters": order.num_clusters,
                "migrated_chunks": order.num_chunks,
                "invalid_bytes": segment.invalid_bytes,
            },
        )
    return order


class GCCDFMigration:
    """The paper's contribution, as a :class:`MigrationStrategy`."""

    name = "gccdf"

    def __init__(self, seed: int = 0, parallel_workers: int = 1):
        """``parallel_workers``: §5.5's extension — segment workflows are
        fully independent, so N workers can defragment N segments at once.
        Modelled in the time accounting (analyze time divides by the
        effective parallelism); the data path itself stays sequential and
        deterministic."""
        if parallel_workers < 1:
            raise ValueError("parallel_workers must be >= 1")
        self._seed = seed
        self._round = 0
        self.parallel_workers = parallel_workers
        #: Per-segment cluster counts of the last run (§5.5 reporting).
        self.last_cluster_counts: list[int] = []

    def migrate(self, ctx: SweepContext) -> MigrationResult:
        copy_forward = JournaledCopyForward(ctx)
        result = copy_forward.result
        stage = AnalyzeStage(
            ctx.recipes,
            ctx.config.gccdf,
            DeterministicRng(self._seed).fork("round", self._round),
        )
        preprocessor = Preprocessor(ctx)
        self.last_cluster_counts = []

        for segment in preprocessor.segments():
            order = migrate_segment(ctx, copy_forward, stage, segment)
            self.last_cluster_counts.append(order.num_clusters)

        copy_forward.finish()
        ctx.analyze_parallelism = min(
            self.parallel_workers, max(1, len(self.last_cluster_counts))
        )
        self._round += 1
        return result
