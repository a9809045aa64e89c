"""The GC mark stage (paper §2.4, §5.5).

One traversal over all recipes produces the three structures the sweep (and
GCCDF) need:

* **VC table** — every storage key referenced by a live backup;
* **GS list** — containers holding chunks referenced by logically deleted
  backups; these *may* contain invalid chunks and are the sweep's work list;
* **RRT** — for each GS-list container, the live backups that reference it.
  §5.5 observes RRT can be built during the same traversal at negligible
  cost, which is exactly what this implementation does.

Mark I/O is charged as metadata reads: one read per recipe, sized at
``RECIPE_ENTRY_BYTES`` per entry (a fingerprint plus size/offset fields, the
on-disk recipe record of container-based systems).

The traversal runs on **interned-id sets** (:class:`MarkScan`): no
Python-level work per chunk occurrence, and resumable — :class:`MarkStage`
feeds it each pass as one slice, the incremental engine
(:mod:`repro.gc.incremental`) a few recipes per step.  The per-entry
definition of what it computes lives on as the model in
``tests/test_prop_mark.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.config import SystemConfig
from repro.gc.vc_table import VCTable, make_vc_table
from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel

#: On-disk size of one recipe record: 24-byte storage key + 8 bytes of
#: size/flags, matching the paper's ~800 B per 100-recipe RRT entry estimate.
RECIPE_ENTRY_BYTES = 32

#: A recipe's RRT rows cost ~0.2-0.45 us per GS container by ``isdisjoint``
#: and ~0.05 us per id by dict probe (benchmarks/e2e rotations and fleets):
#: above this many ids per GS container the per-container test is cheaper.
RRT_PROBES_PER_CONTAINER = 8


@dataclass(frozen=True)
class MarkResult:
    """Everything the mark stage hands to the sweep."""

    vc_table: VCTable
    #: Ascending ids of containers referenced by deleted backups.
    gs_list: tuple[int, ...]
    #: container id → ascending tuple of live backup ids referencing it
    #: (only for GS-list containers, as in the paper).
    rrt: dict[int, tuple[int, ...]]
    #: Keys referenced by deleted backups (candidates for invalidation).
    candidate_keys: int
    #: Simulated seconds spent reading recipes.
    mark_seconds: float
    #: Interned ids of the live key set.  Always a *subset* of the VC
    #: table's members at any later time — the table may grow via the
    #: incremental live-reference barrier — so sweep kernels may treat
    #: ``id in live_ids`` as a proven VC hit and fall back to probing the
    #: table itself for the rest (Bloom false positives and barrier
    #: additions included).
    live_ids: frozenset[int]

    def rrt_bytes_estimate(self) -> int:
        """Approximate RRT memory footprint (paper §5.5's sizing argument:
        8 bytes per recipe id per entry plus a small per-entry header)."""
        per_entry_header = 16
        return sum(
            per_entry_header + 8 * len(backups) for backups in self.rrt.values()
        )


class MarkScan:
    """Resumable mark traversal over interned-id sets.

    Feed it the deleted recipes (:meth:`scan_deleted`), then the live ones
    (:meth:`scan_live`), a slice at a time — any slicing, from one recipe
    to the whole population — then :meth:`finish`.  A slice costs one
    C-level union of its recipes' id sets, one set difference against the
    probe memo, one ``lookup_many`` for what is left, and its recipes' RRT
    rows — so the index sees one probe per unique key across both passes
    (the index is read-only during mark, so probe order is unobservable).
    A recipe references a GS container iff one of its ids is *placed*
    there, and a slice's ids are all resolved before its RRT rows are
    taken, so where the traversal is cut changes nothing.

    The collections below are the whole state; the incremental engine
    keeps the object in its journaled cycle state so a mark survives a
    crash.
    """

    def __init__(
        self,
        config: SystemConfig,
        index: FingerprintIndex,
        recipes: RecipeStore,
        extra_gs: Iterable[int] = (),
    ):
        self.config = config
        self.index = index
        self.recipes = recipes
        #: GS container id → resolved chunk ids placed in it; its key set is
        #: the GS set.  ``extra_gs`` seeds containers regardless of
        #: deletions (the hybrid rededup pass queues containers whose
        #: coalesced duplicate bytes only the sweep can reclaim), before
        #: pass 1, so pass 2 builds their RRT rows like any other's.
        self.gs_members: dict[int, set[int]] = {cid: set() for cid in extra_gs}
        #: The same relation by id: resolved chunk id → its GS container.
        self.gs_of: dict[int, int] = {}
        #: Ids referenced by deleted recipes (candidates for invalidation).
        self.candidate_ids: set[int] = set()
        #: Ids referenced by live recipes.
        self.live_ids: set[int] = set()
        #: Probe memo: ids already looked up.  Crash recovery clears it
        #: (and nothing else): re-probing an id only re-records the
        #: placement it already has.
        self.resolved: set[int] = set()
        #: GS container id → live backup ids referencing it.
        self.rrt_sets: dict[int, set[int]] = defaultdict(set)

    def scan_deleted(self, recipes: Sequence[ColumnarRecipe]) -> None:
        """Pass 1, one slice: containers holding these deleted recipes'
        chunks may hold garbage — they join the GS set."""
        ids = set().union(*(recipe.unique_ids() for recipe in recipes))
        self._resolve(ids, grow_gs=True)
        self.candidate_ids |= ids

    def scan_live(self, recipes: Sequence[ColumnarRecipe]) -> None:
        """Pass 2, one slice: liveness plus these recipes' RRT rows.  Only
        containers already in the GS set matter — live chunks elsewhere are
        irrelevant to the sweep."""
        id_sets = [recipe.unique_ids() for recipe in recipes]
        union = set().union(*id_sets)
        self._resolve(union, grow_gs=False)
        self.live_ids |= union
        gs_members, gs_of, rrt_sets = self.gs_members, self.gs_of, self.rrt_sets
        for recipe, ids in zip(recipes, id_sets):
            if len(ids) > RRT_PROBES_PER_CONTAINER * len(gs_members):
                # Few GS containers (a rotation: each live backup shares
                # chunks with most): ask each, stopping at the first hit.
                isdisjoint = ids.isdisjoint
                containers = [cid for cid, m in gs_members.items() if not isdisjoint(m)]
            else:
                # Many (a fleet: most are other tenants', and proving two
                # sets disjoint walks the smaller one): map the ids.
                containers = set(map(gs_of.get, ids))
                containers.discard(None)
            for container_id in containers:
                rrt_sets[container_id].add(recipe.backup_id)

    def finish(self, mark_seconds: float = 0.0) -> MarkResult:
        # The VC table is populated once per unique live key; both
        # implementations (exact set, Bloom) are idempotent under add, so
        # it equals a per-occurrence table.
        keys = self.recipes.interner.keys()
        vc_table = make_vc_table(self.config.vc_table, expected_keys=len(self.index))
        vc_table.update(map(keys.__getitem__, self.live_ids))
        gs_list = tuple(sorted(self.gs_members))
        return MarkResult(
            vc_table=vc_table,
            gs_list=gs_list,
            rrt={cid: tuple(sorted(self.rrt_sets.get(cid, ()))) for cid in gs_list},
            candidate_keys=len(self.candidate_ids),
            mark_seconds=mark_seconds,
            live_ids=frozenset(self.live_ids),
        )

    def _resolve(self, ids: set[int], grow_gs: bool) -> None:
        """Probe the index for the ids no earlier slice resolved and record
        those placed in a GS container (``grow_gs``: in any container,
        which thereby joins the GS set)."""
        fresh = list(ids - self.resolved)
        if not fresh:
            return
        self.resolved.update(fresh)
        gs_members, gs_of = self.gs_members, self.gs_of
        keys = self.recipes.interner.keys()
        placements = self.index.lookup_many(list(map(keys.__getitem__, fresh)))
        for chunk_id, placement in zip(fresh, placements):
            if placement is not None:
                container_id = placement.container_id
                members = gs_members.get(container_id)
                if members is None:
                    if not grow_gs:
                        continue
                    members = gs_members[container_id] = set()
                members.add(chunk_id)
                gs_of[chunk_id] = container_id


class MarkStage:
    """Builds :class:`MarkResult` from the recipe store."""

    def __init__(
        self,
        config: SystemConfig,
        index: FingerprintIndex,
        recipes: RecipeStore,
        disk: DiskModel,
        extra_gs: frozenset[int] | set[int] = frozenset(),
    ):
        self.config = config
        self.index = index
        self.recipes = recipes
        self.disk = disk
        #: Containers force-fed onto the GS list regardless of deletions
        #: (see :attr:`MarkScan.gs_members`).
        self.extra_gs = frozenset(extra_gs)

    def run(self) -> MarkResult:
        """One :class:`MarkScan`, each pass driven as a single slice."""
        scan = MarkScan(self.config, self.index, self.recipes, self.extra_gs)
        with self.disk.phase("gc.mark") as ph:
            deleted = list(self.recipes.deleted_recipes())
            for recipe in deleted:
                self.disk.read(recipe.num_chunks * RECIPE_ENTRY_BYTES)
            scan.scan_deleted(deleted)

            # Mark is read-only, so a crash here needs no repair — recovery
            # simply aborts the round and the next GC re-marks from scratch.
            self.disk.crash_point("gc.mark", gs_containers=len(scan.gs_members))

            live = list(self.recipes.live_recipes())
            for recipe in live:
                self.disk.read(recipe.num_chunks * RECIPE_ENTRY_BYTES)
            scan.scan_live(live)

            ph.annotate(
                candidate_keys=len(scan.candidate_ids),
                gs_containers=len(scan.gs_members),
            )
        return scan.finish(ph.delta.read_seconds)
