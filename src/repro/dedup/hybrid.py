"""Hybrid inline/out-of-line deduplication, piggybacked on the GC cycle.

The inline pipeline probes the fingerprint index for *every* chunk — the
index probe is the ingest fast path's dominant metadata cost at scale.
The hybrid mode (PAPERS.md, arXiv 1405.5661) splits that work:

* **Ingest** classifies each chunk with two cheap probes only — a
  *neighbor map* (the previous backup of the same source, the locality
  set that catches the overwhelming majority of duplicates in backup
  workloads) and an ingest-side Bloom filter over everything ever
  stored.  A neighbor hit dedups inline as usual (one ``validate``
  probe).  A neighbor miss never touches the full index: if the filter
  has *never* seen the fingerprint the chunk is definitely new and is
  stored directly; if the filter says "maybe seen" the chunk is stored
  as a fresh copy anyway and recorded as a **deferred duplicate
  candidate**.
* **GC** coalesces the candidates out-of-line at the start of every
  mark/sweep cycle (:func:`run_rededup` for the stop-the-world engine;
  the incremental engine runs the same :func:`rededup_slice` under its
  step budget): each candidate copy is folded onto its *canonical* copy
  — the oldest generation of the same logical fingerprint still in the
  index — by repointing every referencing recipe, journaled as a
  ``rededup`` intent so a crash at the ``gc.rededup`` point rolls
  forward (see :mod:`repro.faults.recovery`).  The emptied copy's
  container is remembered in :attr:`HybridState.pending_sweep` and
  force-fed into the next mark's GS list, so the ordinary copy-forward
  sweep reclaims the duplicate bytes.

Once GC has drained every candidate, the system state is equivalent to
having ingested inline: same live backups, same logical chunk streams,
same single physical copy per live fingerprint (pinned by
``tests/test_hybrid.py::TestDrainedEquivalenceProperty`` and the hybrid
cells of ``tests/data/end_state_digests.json``).  What differs, by design,
is the probe accounting — hybrid ingest performs roughly ``dup_fraction``
index probes per chunk versus inline's ``1 + dup_fraction``
(``TestHybridIngest::test_probe_reduction_on_duplicated_sources``) — and
the transient physical bytes between ingest and the next GC.

Modelling notes: minting a fresh storage key
(:meth:`~repro.dedup.logical_index.LogicalIndex.new_key`) is writer-local
metadata, not an index probe — real deferred-dedup systems assign unique
copy ids without consulting the fingerprint index.  Canonical-copy
discovery during rededup probes index *membership* per older generation;
those probes are accounted separately (``hybrid.rededup_probes``)
because they ride the GC cycle, not the ingest path.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable

from repro.dedup.keys import key_generation, logical_fp, storage_key
from repro.hashing.bloom import BloomFilter
from repro.index.columnar import ColumnarRecipe

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.faults.journal import IntentJournal
    from repro.index.fingerprint_index import FingerprintIndex
    from repro.index.recipe import RecipeStore
    from repro.simio.disk import DiskModel

#: Initial capacity of the ingest classification filter; it rebuilds at 4×
#: from the logical key population whenever insertions outgrow it.
INGEST_FILTER_INITIAL_CAPACITY = 4096

#: Domain-separation salt for the ingest filter, so it never shares
#: collision patterns with the other Bloom filters over fingerprints.
INGEST_FILTER_SALT = b"hybrid-ingest"


class HybridState:
    """Mutable hybrid-dedup bookkeeping owned by one backup service.

    * ``neighbors`` — per-source window: the fp → storage-key map of the
      *previous* backup of that source (plus the in-progress backup's own
      entries while it streams).  This is the cheap locality set ingest
      dedups against inline.
    * ``candidates`` — deferred-duplicate candidates: storage key of the
      deferred copy → ids of the backups referencing it.  GC drains this.
    * ``pending_sweep`` — containers that held a coalesced duplicate
      copy; they are forced into the next mark's GS list so the sweep
      reclaims the duplicate bytes even when no deletion would have
      selected them.
    * ``filter`` — Bloom filter over every logical fingerprint ever
      stored; "definitely never seen" short-circuits a chunk straight to
      storage with zero candidates recorded.
    """

    def __init__(self, filter_capacity: int = INGEST_FILTER_INITIAL_CAPACITY):
        self.neighbors: dict[str, dict[bytes, bytes]] = {}
        self.candidates: dict[bytes, set[int]] = {}
        self.pending_sweep: set[int] = set()
        self.filter = BloomFilter(filter_capacity, salt=INGEST_FILTER_SALT)
        self.filter_adds = 0
        # Ingest-side classification counters.
        self.deferred = 0
        self.neighbor_hits = 0
        self.neighbor_stale = 0
        self.filter_new = 0
        self.filter_maybe = 0
        # GC-side rededup counters.
        self.coalesced = 0
        self.promoted = 0
        self.dropped = 0
        self.rededup_probes = 0
        self.repointed_recipes = 0
        self.repointed_entries = 0

    # ------------------------------------------------------------------
    # Ingest-side filter maintenance
    # ------------------------------------------------------------------

    def maybe_rebuild_filter(self, current_keys: Iterable[bytes]) -> None:
        """Regrow a saturated ingest filter from the live key population.

        Reclaimed fingerprints drop out, which only removes false "maybe
        seen" answers (fewer spurious deferrals); a Bloom filter never
        develops false negatives, so correctness is unaffected either way.
        """
        if self.filter_adds <= self.filter.capacity:
            return
        keys = list(current_keys)
        rebuilt = BloomFilter(4 * self.filter.capacity, salt=INGEST_FILTER_SALT)
        rebuilt.update(keys)
        self.filter = rebuilt
        self.filter_adds = len(keys)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The ``hybrid.*`` counter block for ``runtime_metrics()``."""
        return {
            "hybrid.deferred": self.deferred,
            "hybrid.coalesced": self.coalesced,
            "hybrid.promoted": self.promoted,
            "hybrid.dropped": self.dropped,
            "hybrid.pending": len(self.candidates),
            "hybrid.pending_sweep": len(self.pending_sweep),
            "hybrid.neighbor_hits": self.neighbor_hits,
            "hybrid.neighbor_stale": self.neighbor_stale,
            "hybrid.filter_new": self.filter_new,
            "hybrid.filter_maybe": self.filter_maybe,
            "hybrid.rededup_probes": self.rededup_probes,
            "hybrid.repointed_recipes": self.repointed_recipes,
            "hybrid.repointed_entries": self.repointed_entries,
        }


# ----------------------------------------------------------------------
# Recipe repointing
# ----------------------------------------------------------------------


def repoint_recipe(
    recipes: "RecipeStore", backup_id: int, dup: bytes, canonical: bytes
) -> int:
    """Rebuild one backup's recipe with every ``dup`` reference replaced
    by ``canonical``; returns the number of entries changed (0 when the
    recipe does not reference ``dup``, which makes replays idempotent).
    """
    recipe = recipes.get(backup_id)
    interner = recipe.interner
    dup_id = interner.id_map().get(dup)
    if dup_id is None or dup_id not in recipe.unique_ids():
        return 0
    canonical_id = interner.intern(canonical)
    new_ids = array("q", recipe.chunk_ids)
    changed = 0
    # C-level scan: array.index jumps between occurrences instead of a
    # Python-level comparison per position.
    position = 0
    while True:
        try:
            position = new_ids.index(dup_id, position)
        except ValueError:
            break
        new_ids[position] = canonical_id
        changed += 1
        position += 1
    recipes.replace(
        ColumnarRecipe(
            recipe.backup_id,
            interner,
            new_ids,
            recipe.chunk_sizes,
            source=recipe.source,
        )
    )
    return changed


# ----------------------------------------------------------------------
# The GC rededup pass
# ----------------------------------------------------------------------


def find_canonical(
    state: HybridState, index: "FingerprintIndex", key: bytes
) -> bytes | None:
    """The oldest still-indexed copy of ``key``'s logical fingerprint
    below ``key``'s own generation, or ``None`` when ``key`` is already
    the oldest (the candidate was a filter false positive, or its elders
    were reclaimed — either way it is promoted to canonical)."""
    fp = logical_fp(key)
    for generation in range(key_generation(key)):
        state.rededup_probes += 1
        older = storage_key(fp, generation)
        if older in index:
            return older
    return None


def rededup_slice(
    key: bytes,
    *,
    state: HybridState,
    index: "FingerprintIndex",
    recipes: "RecipeStore",
    journal: "IntentJournal",
    disk: "DiskModel",
    barrier: set[bytes] | None = None,
) -> str:
    """Process one deferred-duplicate candidate; returns the outcome.

    * ``"gone"`` — the copy left the index (a sweep reclaimed it, or a
      recovered ``rededup`` intent already coalesced it); dropped.
    * ``"promoted"`` — no older copy exists; the candidate *is* the
      canonical copy.  Dropped (generations only ever grow, so no older
      copy can appear later).
    * ``"idle"`` — an older copy exists but no *live* backup references
      the candidate; kept for the ordinary sweep to reclaim (its deleted
      referers put its container on the GS list when they purge).
    * ``"coalesced"`` — every live referer's recipe was repointed to the
      canonical copy under a journaled ``rededup`` intent, the candidate
      key was dropped from the index, and its container queued in
      ``pending_sweep``.  The ``gc.rededup`` crash point fires between
      the recipe repoints and the index drop; recovery rolls the intent
      forward.

    ``barrier`` is the incremental cycle's live-reference barrier: when a
    mid-cycle ingest referenced the candidate, retention must follow the
    repoint (drop the duplicate key, protect the canonical one).
    """
    refs = state.candidates.get(key)
    if refs is None:
        return "gone"
    if key not in index:
        del state.candidates[key]
        state.dropped += 1
        return "gone"
    canonical = find_canonical(state, index, key)
    if canonical is None:
        del state.candidates[key]
        state.promoted += 1
        return "promoted"
    referers = sorted(backup_id for backup_id in refs if recipes.is_live(backup_id))
    if not referers:
        return "idle"
    # Imported here, not at module top: the ingest pipeline imports this
    # module, and ``repro.gc``'s package init imports the engine, which
    # imports this module back — a top-level import would close the cycle
    # before either side finished initialising.
    from repro.gc.mark import RECIPE_ENTRY_BYTES
    container_id = index.get(key).container_id
    intent = journal.begin(
        "rededup",
        dup=key,
        canonical=canonical,
        backups=referers,
        container_id=container_id,
    )
    changed_entries = 0
    repointed = 0
    for backup_id in referers:
        changed = repoint_recipe(recipes, backup_id, key, canonical)
        if changed:
            disk.write(changed * RECIPE_ENTRY_BYTES)
            changed_entries += changed
            repointed += 1
    disk.crash_point(
        "gc.rededup",
        dup=key.hex(),
        canonical=canonical.hex(),
        container_id=container_id,
    )
    index.discard(key)
    journal.commit(intent)
    journal.close(intent)
    state.pending_sweep.add(container_id)
    fp = logical_fp(key)
    for neighbor_map in state.neighbors.values():
        if neighbor_map.get(fp) == key:
            neighbor_map[fp] = canonical
    if barrier is not None:
        barrier.discard(key)
        barrier.add(canonical)
    del state.candidates[key]
    state.coalesced += 1
    state.repointed_recipes += repointed
    state.repointed_entries += changed_entries
    return "coalesced"


def run_rededup(
    state: HybridState,
    *,
    index: "FingerprintIndex",
    recipes: "RecipeStore",
    journal: "IntentJournal",
    disk: "DiskModel",
) -> None:
    """Drain every current candidate (the stop-the-world engine's pass).

    Candidates are processed in sorted key order — the same order the
    incremental engine's budgeted steps use — so both engines charge
    identical I/O in identical order and a drained hybrid system is
    engine-independent.
    """
    queue = sorted(state.candidates)
    if not queue:
        return
    coalesced_before = state.coalesced
    with disk.phase("gc.rededup") as ph:
        for key in queue:
            rededup_slice(
                key,
                state=state,
                index=index,
                recipes=recipes,
                journal=journal,
                disk=disk,
            )
        ph.annotate(
            candidates=len(queue),
            coalesced=state.coalesced - coalesced_before,
            pending=len(state.candidates),
        )


def forced_containers(state: HybridState, store) -> set[int]:
    """Containers the next mark must GS-list: they held a coalesced
    duplicate copy whose bytes only the sweep can reclaim.  Entries whose
    container already left the store (swept by a previous round) are
    pruned."""
    present = {cid for cid in state.pending_sweep if cid in store}
    state.pending_sweep = set(present)
    return present
